//! Propagation diagnosis (§4.2): attributing the input score `Si` of a
//! victim NF to its upstream nodes by timespan analysis.
//!
//! The PreSet packets took `T` to arrive at the victim NF `f`; had they been
//! spread over their *expected* timespan `Texp = n_i / r_f`, the queue would
//! not have built. Every upstream hop either squeezed their timespan
//! (buffering them behind an interrupt or an existing queue, then releasing
//! them back-to-back) or stretched it. The squeezers are the culprits; a
//! stretcher cancels credit from the squeezers before it (the paper's `B`
//! case, where `A`'s effective reduction becomes `Tsource − TB`).

use msc_trace::{ArrivalKind, NfTimeline, Reconstruction};
use nf_types::{Nanos, NfId, NodeId};
use std::collections::HashMap;
use std::ops::Range;

/// The final per-upstream-node share of `Si`.
#[derive(Debug, Clone, PartialEq)]
pub struct UpstreamShare {
    /// The upstream node (source or NF).
    pub node: NodeId,
    /// Fraction of `Si` attributed (0..=1; all shares sum to ≤ 1).
    pub fraction: f64,
    /// Earliest arrival time of PreSet packets at this node.
    pub first_arrival: Option<Nanos>,
    /// Latest arrival time of PreSet packets at this node — where the
    /// recursive diagnosis of §4.3 anchors its queuing period (the period
    /// ending here reaches back past the first PreSet arrival to the last
    /// queue-empty point, covering the whole build-up — "the queuing
    /// period after the arrival of the first packet of PreSet(p)").
    pub last_arrival: Option<Nanos>,
}

/// The §4.2 credit walk along one path.
///
/// `timespans[i]` is the PreSet group's timespan when *leaving* node `i`
/// (for the source: the emission spread). `texp` is the expected timespan.
/// Returns per-node credited reductions; their sum is
/// `max(0, texp − final_effective_timespan)`.
pub fn credit_walk(texp: Nanos, timespans: &[Nanos]) -> Vec<Nanos> {
    let mut credits = Vec::new();
    let mut stack = Vec::new();
    credit_walk_into(texp, timespans, &mut credits, &mut stack);
    credits
}

/// [`credit_walk`] into caller-owned buffers, so the per-victim hot path
/// allocates nothing. `stack` holds the indices that still carry credit
/// (always in increasing order), which turns the stretch-cancellation scan
/// into an amortised O(1) pop: each index is pushed once and removed at
/// most once, instead of being revisited by every later stretch.
fn credit_walk_into(
    texp: Nanos,
    timespans: &[Nanos],
    credits: &mut Vec<Nanos>,
    stack: &mut Vec<usize>,
) {
    credits.clear();
    credits.resize(timespans.len(), 0);
    stack.clear();
    let mut prev_out = texp;
    for (i, &out) in timespans.iter().enumerate() {
        if out < prev_out {
            credits[i] = prev_out - out;
            // Appends into the caller's reused walk stack, reserved once.
            stack.push(i);
            prev_out = out;
        } else {
            // Stretch: cancel credit from the most recent squeezers.
            let mut excess = out - prev_out;
            while excess > 0 {
                let Some(&j) = stack.last() else { break };
                let cancel = excess.min(credits[j]);
                credits[j] -= cancel;
                excess -= cancel;
                if credits[j] == 0 {
                    stack.pop();
                }
            }
            prev_out = out.min(texp);
        }
    }
}

/// Reusable buffers for [`attribute_upstream_with`] and the PreSet flow
/// histogram: one per run keeps the per-victim hot loops allocation-free
/// across victims.
///
/// The `path_*` and `flow_*` families are epoch-stamped dense maps keyed by
/// the interned path/flow ids of [`crate::index::DiagnosisIndex`]: bumping
/// the generation invalidates every slot in O(1), so consecutive periods
/// never pay a clear proportional to the table size.
#[derive(Debug, Default)]
pub struct UpstreamScratch {
    walk: Vec<Nanos>,
    credits: Vec<Nanos>,
    stack: Vec<usize>,
    /// `path_slot[path_id]` = group slot, valid iff `path_epoch` matches.
    path_slot: Vec<u32>,
    path_epoch: Vec<u32>,
    path_gen: u32,
    /// `flow_counts[flow_id]` = packets, valid iff `flow_epoch` matches.
    pub(crate) flow_counts: Vec<u64>,
    pub(crate) flow_epoch: Vec<u32>,
    flow_gen: u32,
    /// Flow ids touched this generation, in first-touch order.
    pub(crate) flow_touched: Vec<u32>,
}

impl UpstreamScratch {
    /// Starts a new flow-histogram generation sized for `n_flows` interned
    /// flows; returns the generation stamp slots must match to be live.
    pub(crate) fn next_flow_gen(&mut self, n_flows: usize) -> u32 {
        if self.flow_counts.len() < n_flows {
            self.flow_counts.resize(n_flows, 0);
            self.flow_epoch.resize(n_flows, 0);
        }
        self.flow_gen = self.flow_gen.wrapping_add(1);
        if self.flow_gen == 0 {
            // Wrapped: stale slots could alias the new generation.
            self.flow_epoch.fill(0);
            self.flow_gen = 1;
        }
        self.flow_touched.clear();
        self.flow_gen
    }

    /// Starts a new path-group generation. Slots grow on demand in the
    /// sample loop; fresh slots carry epoch 0, which never matches a live
    /// generation (generations are ≥ 1).
    fn next_path_gen(&mut self) -> u32 {
        self.path_gen = self.path_gen.wrapping_add(1);
        if self.path_gen == 0 {
            self.path_epoch.fill(0);
            self.path_gen = 1;
        }
        self.path_gen
    }
}

/// Groups the PreSet packets by upstream path and attributes `Si` across
/// upstream nodes (§4.2, including the DAG generalisation).
///
/// * `recon` — to look up each PreSet packet's trace and hops.
/// * `timeline` — the victim NF's timeline holding the PreSet arrivals.
/// * `preset` — index range of PreSet arrivals in `timeline.arrivals`.
/// * `victim_nf` — the NF being diagnosed.
/// * `peak_rate_pps` — the victim NF's `r_f`, defining `Texp`.
///
/// Returns shares summing to at most 1 (scaled down when per-path credits
/// overlap, as the paper prescribes).
pub fn attribute_upstream(
    recon: &Reconstruction,
    timeline: &NfTimeline,
    preset: &Range<usize>,
    victim_nf: NfId,
    peak_rate_pps: f64,
) -> Vec<UpstreamShare> {
    attribute_upstream_with(
        recon,
        timeline,
        preset,
        victim_nf,
        peak_rate_pps,
        &mut UpstreamScratch::default(),
    )
}

/// [`attribute_upstream`] with caller-owned scratch buffers (one per run),
/// so diagnosing many victims allocates per distinct path group, not per
/// packet.
pub fn attribute_upstream_with(
    recon: &Reconstruction,
    timeline: &NfTimeline,
    preset: &Range<usize>,
    victim_nf: NfId,
    peak_rate_pps: f64,
    scratch: &mut UpstreamScratch,
) -> Vec<UpstreamShare> {
    // Wild-run queuing periods at a near-saturated NF can hold 10^5+
    // arrivals; the timespan statistics converge long before that, so
    // sample a bounded stride. (Spans are min/max statistics; sampling can
    // only narrow them slightly, which under-attributes conservatively.)
    const MAX_PRESET_SAMPLES: usize = 8_192;
    let stride = (preset.len() / MAX_PRESET_SAMPLES).max(1);
    let samples = timeline.arrivals[preset.clone()]
        .iter()
        .step_by(stride)
        .filter(|a| a.kind == ArrivalKind::Queued);

    // Group PreSet packets by their path prefix up to (excluding) the
    // victim NF. Path ids are dense (interned by reconstruction), so the
    // group lookup is an epoch-stamped array slot, not a hash.
    struct Group {
        nodes: Vec<NodeId>,
        /// Per node position: (min departure ts, max departure ts).
        spans: Vec<(Nanos, Nanos)>,
        /// (min, max) arrival at the victim NF.
        final_span: (Nanos, Nanos),
        /// (earliest, latest) arrival ts at each node.
        arrival_span: Vec<(Nanos, Nanos)>,
        packets: usize,
    }
    let generation = scratch.next_path_gen();
    let mut groups: Vec<Group> = Vec::new();
    let mut total_packets = 0usize;

    for a in samples {
        total_packets += 1;
        let (t, victim_hop) = (a.trace as usize, a.hop as usize);
        let hops = recon.hops_of(t);
        debug_assert!(
            hops.get(victim_hop).is_none_or(|h| h.nf == victim_nf),
            "preset arrival hop mismatch"
        );
        let emitted = recon.traces[t].emitted_at;
        let path_id = recon.path_before(t, victim_hop);
        let pid = path_id as usize;
        if scratch.path_slot.len() <= pid {
            scratch.path_slot.resize(pid + 1, 0);
            scratch.path_epoch.resize(pid + 1, 0);
        }
        if scratch.path_epoch[pid] != generation {
            scratch.path_epoch[pid] = generation;
            // The group count is bounded by the path count, far below u32::MAX.
            scratch.path_slot[pid] = groups.len() as u32;
            groups.push(Group {
                nodes: recon.paths.path(path_id),
                spans: vec![(Nanos::MAX, 0); victim_hop + 1],
                final_span: (Nanos::MAX, 0),
                arrival_span: vec![(Nanos::MAX, 0); victim_hop + 1],
                packets: 0,
            });
        }
        let g = &mut groups[scratch.path_slot[pid] as usize];
        g.packets += 1;
        // Position 0 is the source (departure == arrival == emission),
        // position i+1 the i-th upstream hop.
        g.spans[0].0 = g.spans[0].0.min(emitted);
        g.spans[0].1 = g.spans[0].1.max(emitted);
        g.arrival_span[0].0 = g.arrival_span[0].0.min(emitted);
        g.arrival_span[0].1 = g.arrival_span[0].1.max(emitted);
        for (i, (arrival, h)) in recon.hops_with_arrival(t).take(victim_hop).enumerate() {
            let d = h.sent_ts().unwrap_or(h.read_ts);
            g.spans[i + 1].0 = g.spans[i + 1].0.min(d);
            g.spans[i + 1].1 = g.spans[i + 1].1.max(d);
            g.arrival_span[i + 1].0 = g.arrival_span[i + 1].0.min(arrival);
            g.arrival_span[i + 1].1 = g.arrival_span[i + 1].1.max(arrival);
        }
        g.final_span.0 = g.final_span.0.min(a.ts);
        g.final_span.1 = g.final_span.1.max(a.ts);
    }

    if total_packets == 0 {
        return Vec::new();
    }

    // Texp is shared across paths: n_i(T) / r_f (§4.2's DAG rule).
    let texp = (total_packets as f64 / peak_rate_pps * 1e9).round() as Nanos;

    // Per path: credit walk, then convert credits into Si fractions
    // weighted by the path's packet share. Paths are walked in canonical
    // (node-sequence) order: the fractions accumulate in floating point, so
    // first-touch order would otherwise leak sampling-layout differences
    // into the shares. Distinct path ids expand to distinct node sequences,
    // so the order is total.
    let mut ordered = groups;
    ordered.sort_by(|a, b| a.nodes.cmp(&b.nodes));
    let mut shares: HashMap<NodeId, (f64, Nanos, Nanos)> = HashMap::new();
    for g in &ordered {
        let final_ts = g.final_span.1 - g.final_span.0;
        // The victim-facing reduction includes the last wire hop: the
        // timespan as the packets *arrive* at f.
        scratch.walk.clear();
        scratch.walk.extend(g.spans.iter().map(|&(lo, hi)| hi - lo));
        // If the arrival spread differs from the last node's departure
        // spread, fold it in as the effective output of the last node.
        if let Some(last) = scratch.walk.last_mut() {
            *last = (*last).min(final_ts.max(1));
        }
        credit_walk_into(
            texp,
            &scratch.walk,
            &mut scratch.credits,
            &mut scratch.stack,
        );
        let credits = &scratch.credits;
        let denom = texp.saturating_sub(final_ts.min(texp)) as f64;
        let path_weight = g.packets as f64 / total_packets as f64;
        if denom <= 0.0 {
            // No compression on this path: these packets arrived at (or
            // slower than) the expected spacing, so they carry no burst
            // blame — the compressed paths sharing the queue do. Their
            // share of Si stays unattributed rather than being dumped on
            // the source.
            continue;
        }
        for (i, &c) in credits.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let frac = (c as f64 / denom).min(1.0) * path_weight;
            let e = shares.entry(g.nodes[i]).or_insert((0.0, Nanos::MAX, 0));
            e.0 += frac;
            e.1 = e.1.min(g.arrival_span[i].0);
            e.2 = e.2.max(g.arrival_span[i].1);
        }
    }

    // Scale down if the overlapping per-path credits exceed 1. Entries are
    // summed and emitted in node order, then ranked with a node tie-break:
    // both keep the result independent of HashMap iteration order.
    let mut entries: Vec<(NodeId, (f64, Nanos, Nanos))> = shares.into_iter().collect();
    entries.sort_by_key(|&(node, _)| node);
    let total: f64 = entries.iter().map(|(_, (f, _, _))| f).sum();
    let scale = if total > 1.0 { 1.0 / total } else { 1.0 };
    let mut out: Vec<UpstreamShare> = entries
        .into_iter()
        .map(|(node, (f, fa, la))| UpstreamShare {
            node,
            fraction: f * scale,
            first_arrival: if fa == Nanos::MAX { None } else { Some(fa) },
            last_arrival: if fa == Nanos::MAX { None } else { Some(la) },
        })
        .collect();
    // `total_cmp`, not `partial_cmp(..).expect(..)`: fractions are finite
    // positive products, where the two orders coincide — and the panic
    // surface goes away.
    out.sort_by(|a, b| {
        b.fraction
            .total_cmp(&a.fraction)
            .then_with(|| a.node.cmp(&b.node))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn credit_walk_simple_squeeze() {
        // Texp 1000; source emits over 800; NF A squeezes to 200.
        let credits = credit_walk(1000, &[800, 200]);
        assert_eq!(credits, vec![200, 600]);
    }

    #[test]
    fn credit_walk_paper_example() {
        // Fig. 6: source 900, A squeezes to 300 (interrupt), B stretches to
        // 500, C squeezes to 100. Texp = 1000.
        // Paper: src = 1000−900=100, A = 900−500=400 (after B's
        // cancellation), B = 0, C = 500−100=400.
        let credits = credit_walk(1000, &[900, 300, 500, 100]);
        assert_eq!(credits, vec![100, 400, 0, 400]);
        let total: u64 = credits.iter().sum();
        assert_eq!(total, 1000 - 100);
    }

    #[test]
    fn credit_walk_stretch_cancels_multiple() {
        // A stretch bigger than the last squeeze eats into earlier ones.
        // Texp 1000: src→600 (credit 400), A→400 (credit 200), B→900
        // (stretch 500: cancels A's 200 and 300 of src's 400), C→100.
        let credits = credit_walk(1000, &[600, 400, 900, 100]);
        assert_eq!(credits, vec![100, 0, 0, 800]);
        assert_eq!(credits.iter().sum::<u64>(), 1000 - 100);
    }

    #[test]
    fn credit_walk_no_compression() {
        // Timespans never below Texp: nobody gets credit.
        let credits = credit_walk(500, &[800, 900, 700]);
        assert_eq!(credits, vec![0, 0, 0]);
    }

    #[test]
    fn credit_walk_conserves_reduction() {
        let texp = 10_000;
        let spans = [9_000u64, 2_000, 7_000, 1_500, 1_200];
        let credits = credit_walk(texp, &spans);
        let final_eff = *spans.last().unwrap();
        assert_eq!(credits.iter().sum::<u64>(), texp - final_eff);
    }

    #[test]
    fn credit_walk_stretch_past_texp_resets_baseline_to_texp() {
        // Texp 1000: src→500 (credit 500), A stretches to 1500 — past Texp.
        // The stretch cancels src's whole credit, but the baseline resets to
        // min(1500, 1000) = Texp, not 1500: B's squeeze to 300 is worth
        // 1000 − 300 = 700, never more than Texp.
        let credits = credit_walk(1000, &[500, 1500, 300]);
        assert_eq!(credits, vec![0, 0, 700]);
        assert_eq!(credits.iter().sum::<u64>(), 1000 - 300);
    }

    #[test]
    fn credit_walk_empty() {
        assert!(credit_walk(100, &[]).is_empty());
    }

    #[test]
    fn credit_walk_into_reuses_buffers_across_walks() {
        // Dirty, over-sized buffers from a previous (longer) walk must not
        // leak into the next result.
        let mut credits = vec![7; 8];
        let mut stack = vec![5, 6, 7];
        credit_walk_into(1000, &[900, 300, 500, 100], &mut credits, &mut stack);
        assert_eq!(credits, vec![100, 400, 0, 400]);
        credit_walk_into(500, &[800, 900, 700], &mut credits, &mut stack);
        assert_eq!(credits, vec![0, 0, 0]);
    }

    #[test]
    fn credit_walk_into_matches_quadratic_reference() {
        // The squeeze-stack cancellation must be observationally identical
        // to the original backward scan over all earlier indices.
        fn reference(texp: Nanos, timespans: &[Nanos]) -> Vec<Nanos> {
            let mut credits: Vec<Nanos> = vec![0; timespans.len()];
            let mut prev_out = texp;
            for (i, &out) in timespans.iter().enumerate() {
                if out < prev_out {
                    credits[i] = prev_out - out;
                    prev_out = out;
                } else {
                    let mut excess = out - prev_out;
                    for j in (0..i).rev() {
                        if excess == 0 {
                            break;
                        }
                        let cancel = excess.min(credits[j]);
                        credits[j] -= cancel;
                        excess -= cancel;
                    }
                    prev_out = out.min(texp);
                }
            }
            credits
        }
        let mut rng = StdRng::seed_from_u64(0xfeed_beef);
        for _ in 0..200 {
            let len = rng.gen_range(0..12);
            let texp = rng.gen_range(1..=2000);
            let spans: Vec<Nanos> = (0..len).map(|_| rng.gen_range(0..2500)).collect();
            assert_eq!(
                credit_walk(texp, &spans),
                reference(texp, &spans),
                "texp {texp}, spans {spans:?}"
            );
        }
    }

    mod upstream {
        use super::super::*;
        use msc_collector::{Collector, CollectorConfig, PacketMeta};
        use msc_trace::{reconstruct, ReconstructionConfig, Timelines};
        use nf_types::{FiveTuple, NfKind, Proto, Topology};

        /// source -> nat -> vpn; the NAT holds 32 packets (emitted over
        /// 3.2 ms) behind a stall and releases them squeezed into ~3 µs.
        fn squeezed_release() -> (Topology, msc_trace::Reconstruction, Timelines) {
            let mut b = Topology::builder();
            let nat = b.add_nf(NfKind::Nat, "nat1");
            let vpn = b.add_nf(NfKind::Vpn, "vpn1");
            b.add_entry(nat);
            b.add_edge(nat, vpn);
            let topo = b.build().unwrap();
            let mut c = Collector::new(&topo, CollectorConfig::default());
            let metas: Vec<PacketMeta> = (0..32u16)
                .map(|i| PacketMeta {
                    ipid: i,
                    flow: FiveTuple::new(0x0a000001, 0x14000001, 1000 + i, 80, Proto::TCP),
                })
                .collect();
            for (i, m) in metas.iter().enumerate() {
                c.record_source(i as u64 * 100_000, m);
            }
            c.record_rx(nat, 5_000_000, &metas);
            c.record_tx(nat, 5_003_000, Some(vpn), &metas);
            c.record_rx(vpn, 5_003_000, &metas);
            c.record_tx(vpn, 5_035_000, None, &metas);
            let (recon, timelines) =
                reconstruct(&topo, &c.into_bundle(), &ReconstructionConfig::default()).unwrap();
            (topo, recon, timelines)
        }

        #[test]
        fn squeezing_nf_gets_the_share() {
            let (topo, recon, timelines) = squeezed_release();
            let vpn = topo.by_name("vpn1").unwrap();
            let tl = timelines.nf(vpn);
            // The last packet arrives at 5_003_000 and finds the whole batch
            // queued.
            let qp = tl.queuing_period(5_003_000);
            assert!(qp.n_arrived >= 32, "{qp:?}");
            let shares = attribute_upstream(&recon, tl, &qp.preset, vpn, 1e6);
            assert!(!shares.is_empty());
            // The NAT (which squeezed 3.2 ms of emissions into 3 µs) must
            // dominate; the source spread the packets out and gets ~0.
            assert_eq!(shares[0].node, NodeId::Nf(topo.by_name("nat1").unwrap()));
            assert!(shares[0].fraction > 0.9, "{shares:?}");
            let src = shares.iter().find(|s| s.node == NodeId::Source);
            assert!(src.is_none_or(|s| s.fraction < 0.05), "{shares:?}");
            // The recursion anchor is the last PreSet arrival at the NAT.
            assert_eq!(shares[0].last_arrival, Some(3_100_000));
            assert_eq!(shares[0].first_arrival, Some(0));
        }

        #[test]
        fn shares_sum_to_at_most_one() {
            let (topo, recon, timelines) = squeezed_release();
            let vpn = topo.by_name("vpn1").unwrap();
            let tl = timelines.nf(vpn);
            let qp = tl.queuing_period(5_003_000);
            let shares = attribute_upstream(&recon, tl, &qp.preset, vpn, 1e6);
            let total: f64 = shares.iter().map(|s| s.fraction).sum();
            assert!(total <= 1.0 + 1e-9, "total {total}");
        }

        #[test]
        fn empty_preset_yields_no_shares() {
            let (topo, recon, timelines) = squeezed_release();
            let vpn = topo.by_name("vpn1").unwrap();
            let tl = timelines.nf(vpn);
            let shares = attribute_upstream(&recon, tl, &(0..0), vpn, 1e6);
            assert!(shares.is_empty());
        }
    }
}
