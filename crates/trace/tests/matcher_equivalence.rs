//! Randomized equivalence: the flat counting-sort matcher must behave
//! bit-for-bit like a naive reference matcher that keeps a
//! `HashMap<Ipid, Vec<usize>>` per upstream edge (the shape of the
//! pre-rewrite implementation) and allocates fresh lookahead cursors per
//! candidate.
//!
//! Both matchers see the same [`EdgeStreams`] and the same config, so any
//! divergence — in `rx_origin`, per-edge outcomes, or the stats counters —
//! is a semantics change in the dense index, not in the inputs. Scenarios
//! cover multi-upstream merges, deliberately tiny IPID spaces (collisions
//! on every edge), ring drops, bogus reads with no candidate, and runs
//! truncated mid-stream.

use msc_trace::{match_downstream, EdgeMatch, EdgeStreams, MatchConfig, MatchOutcome, MatchStats};
use nf_types::{FiveTuple, Nanos, NfId, NfKind, NodeId, Proto, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Reference matcher: per-IPID HashMap index, allocation-happy lookahead.
// ---------------------------------------------------------------------------

/// One read of the matched NF, as the reference matcher walks them.
#[derive(Clone, Copy)]
struct RxEntry {
    ts: Nanos,
    ipid: u16,
}

struct RefEdge {
    node: NodeId,
    ts: Vec<Nanos>,
    by_ipid: HashMap<u16, Vec<usize>>,
    cursor: usize,
    matched: Vec<Option<usize>>,
}

impl RefEdge {
    fn build(streams: &EdgeStreams, node: NodeId, down: NfId) -> Self {
        let mut ts = Vec::new();
        let mut by_ipid: HashMap<u16, Vec<usize>> = HashMap::new();
        for (pos, (t, ipid)) in streams.edge_entries(node, down).enumerate() {
            ts.push(t);
            by_ipid.entry(ipid).or_default().push(pos);
        }
        let n = ts.len();
        Self {
            node,
            ts,
            by_ipid,
            cursor: 0,
            matched: vec![None; n],
        }
    }

    /// First position `>= cursor` with `ipid` whose send time is inside the
    /// window (checked on that first position only, like the real matcher).
    fn candidate(
        &self,
        cursor: usize,
        ipid: u16,
        read_ts: Nanos,
        cfg: &MatchConfig,
    ) -> Option<usize> {
        let run = self.by_ipid.get(&ipid)?;
        let i = run.partition_point(|&p| p < cursor);
        let &pos = run.get(i)?;
        let sent = self.ts[pos];
        (sent <= read_ts + cfg.negative_slack_ns
            && read_ts.saturating_sub(sent) <= cfg.delay_bound_ns)
            .then_some(pos)
    }
}

fn ref_lookahead_score(
    edges: &[RefEdge],
    mut cursors: Vec<usize>,
    rx: &[RxEntry],
    rx_from: usize,
    depth: usize,
    cfg: &MatchConfig,
) -> usize {
    let mut score = 0;
    for r in rx.iter().skip(rx_from).take(depth) {
        let mut best: Option<(Nanos, usize, usize)> = None;
        for (e_idx, e) in edges.iter().enumerate() {
            if let Some(pos) = e.candidate(cursors[e_idx], r.ipid, r.ts, cfg) {
                let key = (e.ts[pos], e_idx, pos);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        if let Some((_, e_idx, pos)) = best {
            score += 1;
            cursors[e_idx] = pos + 1;
        }
    }
    score
}

/// (rx_origin, edge_outcome, stats) — the three artifacts both matchers
/// must agree on.
type RefMatch = (
    Vec<Option<(NodeId, usize)>>,
    Vec<Vec<MatchOutcome>>,
    MatchStats,
);

fn ref_match_downstream(
    streams: &EdgeStreams,
    topology: &Topology,
    down: NfId,
    cfg: &MatchConfig,
) -> RefMatch {
    let rx: Vec<RxEntry> = streams.nfs[down.0 as usize]
        .rx()
        .map(|(ts, ipid)| RxEntry { ts, ipid })
        .collect();
    let rx = &rx[..];
    let upstreams = topology.upstream_nodes(down);
    let mut edges: Vec<RefEdge> = upstreams
        .iter()
        .map(|&node| RefEdge::build(streams, node, down))
        .collect();
    let mut stats = MatchStats::default();
    let mut rx_origin: Vec<Option<(NodeId, usize)>> = vec![None; rx.len()];

    for (r_idx, r) in rx.iter().enumerate() {
        let mut cands: Vec<(usize, usize)> = Vec::new();
        for (e_idx, e) in edges.iter().enumerate() {
            if let Some(pos) = e.candidate(e.cursor, r.ipid, r.ts, cfg) {
                cands.push((e_idx, pos));
            }
        }
        let chosen = match cands.len() {
            0 => {
                stats.unmatched_rx += 1;
                continue;
            }
            1 => cands[0],
            _ => {
                stats.ambiguities += 1;
                cands.sort_by_key(|&(e, p)| (edges[e].ts[p], e, p));
                let default = cands[0];
                if !cfg.use_order_channel {
                    default
                } else {
                    let mut best = default;
                    let mut best_score = None;
                    for &(e_idx, pos) in &cands {
                        let mut cursors: Vec<usize> = edges.iter().map(|e| e.cursor).collect();
                        cursors[e_idx] = pos + 1;
                        let s =
                            ref_lookahead_score(&edges, cursors, rx, r_idx + 1, cfg.lookahead, cfg);
                        if best_score.is_none_or(|b| s > b) {
                            best_score = Some(s);
                            best = (e_idx, pos);
                        }
                    }
                    if best != default {
                        stats.ambiguity_flips += 1;
                    }
                    best
                }
            }
        };
        let (e_idx, pos) = chosen;
        rx_origin[r_idx] = Some((edges[e_idx].node, pos));
        edges[e_idx].matched[pos] = Some(r_idx);
        edges[e_idx].cursor = pos + 1;
        stats.matched += 1;
    }

    let mut edge_outcome: Vec<Vec<MatchOutcome>> = Vec::with_capacity(edges.len());
    for e in &edges {
        let outcomes: Vec<MatchOutcome> = e
            .matched
            .iter()
            .enumerate()
            .map(|(pos, m)| match m {
                Some(rx_idx) => MatchOutcome::Matched(*rx_idx as u32),
                None if pos < e.cursor => {
                    stats.inferred_drops += 1;
                    MatchOutcome::InferredDrop
                }
                None => MatchOutcome::Unresolved,
            })
            .collect();
        edge_outcome.push(outcomes);
    }
    (rx_origin, edge_outcome, stats)
}

// ---------------------------------------------------------------------------
// Scenario generation.
// ---------------------------------------------------------------------------

/// `n_up` entry NFs all feeding one merge NF.
fn merge_topology(n_up: usize) -> Topology {
    let mut b = Topology::builder();
    let mut ups = Vec::new();
    for i in 0..n_up {
        let u = b.add_nf(NfKind::Nat, format!("nat{i}"));
        b.add_entry(u);
        ups.push(u);
    }
    let down = b.add_nf(NfKind::Vpn, "vpn1");
    for u in ups {
        b.add_edge(u, down);
    }
    b.build().unwrap()
}

fn meta(ipid: u16) -> msc_collector::PacketMeta {
    msc_collector::PacketMeta {
        ipid,
        flow: FiveTuple::new(1, 2, 3, 4, Proto::TCP),
    }
}

/// Random merge scenario: each upstream sends a FIFO stream into the merge
/// NF with a tiny IPID alphabet (collisions everywhere); the merge NF reads
/// a random FIFO-respecting interleaving with random ring drops, sometimes
/// truncated, plus the occasional bogus read nothing ever sent.
fn random_merge_bundle(topo: &Topology, rng: &mut StdRng) -> msc_collector::TraceBundle {
    let n_up = topo.len() - 1;
    let down = NfId(n_up as u16);
    let mut c = msc_collector::Collector::new(topo, msc_collector::CollectorConfig::default());

    // Per-upstream send queues.
    let ipid_alphabet = rng.gen_range(3..=8); // distinct IPIDs
    let mut queues: Vec<Vec<(Nanos, u16)>> = Vec::new();
    for u in 0..n_up {
        let n = rng.gen_range(5..45);
        let mut ts = rng.gen_range(50..250);
        let mut q = Vec::with_capacity(n);
        for _ in 0..n {
            let ipid = rng.gen_range(0..ipid_alphabet);
            q.push((ts, ipid));
            c.record_tx(NfId(u as u16), ts, Some(down), &[meta(ipid)]);
            ts += rng.gen_range(1..=300);
        }
        queues.push(q);
    }

    // FIFO-respecting interleave with drops and truncation.
    let total: usize = queues.iter().map(Vec::len).sum();
    let keep_until = if rng.gen_range(0..3) == 0 {
        rng.gen_range(0..=total) // truncated run
    } else {
        total
    };
    let mut heads = vec![0usize; n_up];
    let mut read_ts: Nanos = 0;
    let mut taken = 0usize;
    while taken < keep_until {
        let live: Vec<usize> = (0..n_up).filter(|&u| heads[u] < queues[u].len()).collect();
        let Some(&u) = live.get(rng.gen_range(0..live.len().max(1))) else {
            break;
        };
        let (sent, ipid) = queues[u][heads[u]];
        heads[u] += 1;
        taken += 1;
        if rng.gen_range(0..8) == 0 {
            continue; // dropped at the ring
        }
        read_ts = read_ts.max(sent) + rng.gen_range(1..=200);
        c.record_rx(down, read_ts, &[meta(ipid)]);
        if rng.gen_range(0..24) == 0 {
            // A read nothing ever sent (e.g. corrupted IPID): no candidate.
            read_ts += 1;
            c.record_rx(down, read_ts, &[meta(9999)]);
        }
    }
    c.into_bundle()
}

fn assert_equivalent(
    topo: &Topology,
    streams: &EdgeStreams,
    down: NfId,
    cfg: &MatchConfig,
    tag: &str,
) {
    let m: EdgeMatch = match_downstream(streams, topo, down, cfg);
    let (rx_origin, edge_outcome, stats) = ref_match_downstream(streams, topo, down, cfg);
    assert_eq!(m.upstreams, topo.upstream_nodes(down), "{tag}: slot order");
    // The matcher keeps one four-byte state per edge position; the per-slot
    // outcome table and the per-rx origins are both read back from it.
    let got_outcome: Vec<Vec<MatchOutcome>> = m
        .upstreams
        .iter()
        .map(|&u| m.outcome(u).expect("slot has an edge").iter().collect())
        .collect();
    let mut got_origin = vec![None; rx_origin.len()];
    for (&u, outcomes) in m.upstreams.iter().zip(&got_outcome) {
        for (pos, out) in outcomes.iter().enumerate() {
            if let MatchOutcome::Matched(rx_idx) = *out {
                assert_eq!(got_origin[rx_idx as usize], None, "{tag}: rx matched twice");
                got_origin[rx_idx as usize] = Some((u, pos));
            }
        }
    }
    assert_eq!(got_origin, rx_origin, "{tag}: rx_origin");
    assert_eq!(got_outcome, edge_outcome, "{tag}: edge_outcome");
    assert_eq!(m.stats, stats, "{tag}: stats");
    // The by-position accessor must agree with the walk.
    for (&u, outcomes) in m.upstreams.iter().zip(&edge_outcome) {
        let edge = m.outcome(u).expect("slot has an edge");
        assert_eq!(edge.len(), outcomes.len(), "{tag}");
        for (pos, out) in outcomes.iter().enumerate() {
            assert_eq!(edge.get(pos), Some(*out), "{tag}");
        }
        assert_eq!(edge.get(outcomes.len()), None, "{tag}");
    }
}

#[test]
fn dense_matcher_equals_naive_reference_on_random_merges() {
    let mut total_ambiguities = 0u64;
    let mut total_drops = 0u64;
    let mut total_unmatched = 0u64;
    let mut total_flips = 0u64;
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(0x9e3779b97f4a7c15 ^ (seed * 0x1234567));
        let n_up = 2 + (seed % 3) as usize; // 2..=4 upstream edges
        let topo = merge_topology(n_up);
        let bundle = random_merge_bundle(&topo, &mut rng);
        let streams = EdgeStreams::build(&topo, &bundle);
        let down = NfId(n_up as u16);

        let configs = [
            MatchConfig::default(),
            MatchConfig {
                lookahead: 3,
                ..Default::default()
            },
            MatchConfig {
                use_order_channel: false,
                ..Default::default()
            },
            MatchConfig {
                delay_bound_ns: 5_000,
                negative_slack_ns: 100,
                ..Default::default()
            },
        ];
        for (i, cfg) in configs.iter().enumerate() {
            assert_equivalent(&topo, &streams, down, cfg, &format!("seed {seed} cfg {i}"));
        }
        let m = match_downstream(&streams, &topo, down, &MatchConfig::default());
        total_ambiguities += m.stats.ambiguities;
        total_drops += m.stats.inferred_drops;
        total_unmatched += m.stats.unmatched_rx;
        total_flips += m.stats.ambiguity_flips;
    }
    // The generator must actually exercise the interesting paths.
    assert!(total_ambiguities > 100, "collisions: {total_ambiguities}");
    assert!(total_drops > 50, "drops: {total_drops}");
    assert!(total_unmatched > 10, "unmatched: {total_unmatched}");
    // A flip throws away the greedy plan the default played; only a flip
    // shows that the plan is rebuilt from the committed cursors after it.
    assert!(total_flips > 50, "flips: {total_flips}");
}

#[test]
fn dense_matcher_equals_naive_reference_on_source_edges() {
    // Entry NFs match against the traffic source's edge stream; exercise it
    // with drops and truncation over a single-entry chain.
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(0xabcdef ^ (seed * 0x77777));
        let mut b = Topology::builder();
        let fw = b.add_nf(NfKind::Firewall, "fw1");
        b.add_entry(fw);
        let topo = b.build().unwrap();
        let mut c = msc_collector::Collector::new(&topo, msc_collector::CollectorConfig::default());

        let n = rng.gen_range(10..70);
        let mut sends = Vec::with_capacity(n);
        let mut ts = 10u64;
        for _ in 0..n {
            let ipid = rng.gen_range(0..5);
            let flow = FiveTuple::new(1, 2, 3, 4, Proto::TCP);
            c.record_source(ts, &msc_collector::PacketMeta { ipid, flow });
            sends.push((ts, ipid));
            ts += rng.gen_range(1..=150);
        }
        let keep = if rng.gen_range(0..2) == 0 {
            n
        } else {
            rng.gen_range(0..n)
        };
        let mut read_ts = 0u64;
        for &(sent, ipid) in sends.iter().take(keep) {
            if rng.gen_range(0..7) == 0 {
                continue;
            }
            read_ts = read_ts.max(sent) + rng.gen_range(1..=90);
            c.record_rx(fw, read_ts, &[meta(ipid)]);
        }
        let bundle = c.into_bundle();
        let streams = EdgeStreams::build(&topo, &bundle);
        assert_equivalent(
            &topo,
            &streams,
            fw,
            &MatchConfig::default(),
            &format!("seed {seed}"),
        );
    }
}
