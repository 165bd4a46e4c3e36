//! Cross-NF packet matching: aligning a downstream NF's read stream with
//! its upstream NFs' send streams.
//!
//! For a downstream NF `d`, the packets it reads are exactly the packets its
//! upstream nodes sent to it (path channel). Each upstream's sends arrive in
//! order (per-edge FIFO ⇒ order channel) minus any dropped at a full ring,
//! and each packet is read no earlier than it was sent and no later than the
//! maximum queueing delay (timing channel). Crucially, FIFO holds *per
//! edge*: the interleaving of different upstreams at the ring is not exactly
//! observable (sends can carry equal timestamps), so the matcher keeps an
//! independent cursor per upstream edge rather than assuming a global merge
//! order.
//!
//! For every rx entry the matcher finds, per upstream, the first
//! not-yet-consumed send with the same IPID inside the timing window (an
//! O(log n) lookup via a per-IPID position index). One candidate ⇒ match.
//! Multiple candidates ⇒ the Fig. 9 situation: bounded lookahead plays each
//! choice forward and keeps the one that leaves more of the *following* rx
//! entries alignable. Sends skipped behind a same-edge match are inferred
//! drops; sends never reached stay unresolved (in flight at the end of the
//! run).

use crate::streams::EdgeStreams;
use nf_types::{Ipid, Nanos, NfId, NodeId, Topology};

/// Size of the IPID value space (`Ipid` is `u16`): the per-edge index is a
/// dense counting-sort table over all 2^16 values.
const IPID_SPACE: usize = 1 << 16;

/// What happened to the `pos`-th packet sent on an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchOutcome {
    /// It was read by the downstream NF as rx entry `rx_idx`.
    Matched(usize),
    /// It never appears downstream although later same-edge packets do — it
    /// was dropped at the full input ring.
    InferredDrop,
    /// The run ended (or matching failed) before its fate was visible.
    Unresolved,
}

/// Matching configuration.
#[derive(Debug, Clone)]
pub struct MatchConfig {
    /// Maximum send→read delay considered possible (queueing + stalls).
    pub delay_bound_ns: Nanos,
    /// Lookahead depth used to break IPID collisions.
    pub lookahead: usize,
    /// How far a read may appear *before* its send and still be eligible.
    /// 0 on a single clock; set to a few hundred µs on skew-corrected
    /// multi-server bundles, where residual clock error can invert
    /// closely-spaced timestamps.
    pub negative_slack_ns: Nanos,
    /// Disable to ablate the order side channel (§5): IPID collisions are
    /// then broken by earliest send time alone, with no lookahead.
    pub use_order_channel: bool,
}

impl Default for MatchConfig {
    fn default() -> Self {
        Self {
            delay_bound_ns: 50 * nf_types::MILLIS,
            lookahead: 48,
            negative_slack_ns: 0,
            use_order_channel: true,
        }
    }
}

/// Tallies of how matching went (reported per run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// rx entries successfully attributed to an upstream send.
    pub matched: u64,
    /// rx entries with no eligible upstream candidate (should be 0).
    pub unmatched_rx: u64,
    /// upstream sends inferred dropped at the downstream ring.
    pub inferred_drops: u64,
    /// IPID collisions (multiple eligible candidates) that needed lookahead.
    pub ambiguities: u64,
    /// Collisions where lookahead overrode the earliest-send candidate.
    pub ambiguity_flips: u64,
}

/// The full matching result for one downstream NF.
#[derive(Debug)]
pub struct EdgeMatch {
    /// For each rx entry of the downstream NF: the upstream node and the
    /// edge position it was matched to.
    pub rx_origin: Vec<Option<(NodeId, usize)>>,
    /// The upstream nodes in slot order ([`Topology::upstream_nodes`] order)
    /// — the index order of `edge_outcome`.
    pub upstreams: Vec<NodeId>,
    /// Per upstream slot: outcome of every edge position.
    pub edge_outcome: Vec<Vec<MatchOutcome>>,
    /// Matching statistics.
    pub stats: MatchStats,
}

impl EdgeMatch {
    /// The per-position outcomes of the edge from `node`, if it exists.
    pub fn outcome(&self, node: NodeId) -> Option<&[MatchOutcome]> {
        self.upstreams
            .iter()
            .position(|&u| u == node)
            .map(|slot| self.edge_outcome[slot].as_slice())
    }
}

/// Stream positions grouped by IPID, built by a stable counting sort over
/// the 16-bit IPID space: positions with the same IPID form a contiguous,
/// position-ascending *run*, so a lookup is a bounded scan /
/// `partition_point` over a flat slice — no hashing, no per-IPID `Vec`s.
/// Shared by the matcher (one index per upstream edge) and the clock-skew
/// estimator (one per NF rx stream).
pub(crate) struct IpidRuns {
    /// Run boundaries: the run for IPID `i` is
    /// `pos[run_start[i]..run_start[i + 1]]`. A fixed-size boxed array so
    /// `u16` IPID indexing needs no bounds check.
    pub(crate) run_start: Box<[u32; IPID_SPACE + 1]>,
    /// Stream positions grouped by IPID, ascending within each run.
    pub(crate) pos: Vec<u32>,
    /// Timestamp of each `pos` entry, copied inline so the check after a
    /// run probe stays on the cache lines the probe just touched instead of
    /// a scattered load from the stream.
    pub(crate) ts: Vec<Nanos>,
}

impl IpidRuns {
    /// Indexes a stream given as its `(ts, ipid)` entries in position order.
    pub(crate) fn build(entries: impl ExactSizeIterator<Item = (Nanos, Ipid)> + Clone) -> Self {
        let n = entries.len();
        assert!(
            u32::try_from(n).is_ok(),
            "stream of {n} positions must fit u32"
        );
        // The histogram→offsets step is the chunked prefix-sum kernel: 64K
        // lanes per index add up across the per-edge / per-NF builds.
        let mut run_start: Box<[u32; IPID_SPACE + 1]> = boxed_zeroed();
        for (_, id) in entries.clone() {
            run_start[id as usize + 1] += 1;
        }
        msc_kernels::inclusive_prefix_sum_u32_in_place(&mut run_start[..]);
        // Stable scatter with the run starts themselves as write heads:
        // afterwards slot `i` holds run `i`'s end, i.e. run `i + 1`'s
        // start, so one shift restores the table without a second 256 KiB
        // array.
        let mut pos = vec![0u32; n];
        let mut ts: Vec<Nanos> = vec![0; n];
        for (p, (t, id)) in entries.enumerate() {
            let h = &mut run_start[id as usize];
            pos[*h as usize] = p as u32;
            ts[*h as usize] = t;
            *h += 1;
        }
        run_start.copy_within(..IPID_SPACE, 1);
        run_start[0] = 0;
        Self { run_start, pos, ts }
    }

    /// The index range of `ipid`'s run within `pos` / `ts`.
    #[inline]
    pub(crate) fn run_of(&self, ipid: Ipid) -> std::ops::Range<usize> {
        self.run_start[ipid as usize] as usize..self.run_start[ipid as usize + 1] as usize
    }
}

/// Sentinel in [`EdgeStream::matched`]: position not matched to any rx.
const UNMATCHED: u32 = u32::MAX;

/// One upstream edge stream prepared for matching.
struct EdgeStream {
    node: NodeId,
    /// (send ts) per position.
    ts: Vec<Nanos>,
    /// Positions and send timestamps grouped by IPID.
    runs: IpidRuns,
    /// Lazily-advancing per-IPID cursor: index into `runs.pos` of the first
    /// entry of that run not yet behind the committed `cursor`. Entries
    /// before it are consumed for good (the edge cursor never moves back),
    /// so each run entry is skipped at most once over the whole match.
    ipid_cursor: Box<[u32; IPID_SPACE]>,
    /// Next unconsumed position.
    cursor: usize,
    /// Matched rx index per position ([`UNMATCHED`] = skipped or unreached).
    matched: Vec<u32>,
}

/// Heap-allocates a zeroed fixed-size `u32` array directly (the IPID
/// tables are 256 KiB — too big to build on the stack and move).
fn boxed_zeroed<const N: usize>() -> Box<[u32; N]> {
    match vec![0u32; N].into_boxed_slice().try_into() {
        Ok(b) => b,
        // The vec is allocated with exactly N elements.
        Err(_) => unreachable!("boxed slice length mismatch"),
    }
}

impl EdgeStream {
    fn build(streams: &EdgeStreams, node: NodeId, down: NfId) -> Self {
        // One gather through the edge's position list; the index build's
        // two passes then read the compact copies.
        let (ts, ipids): (Vec<Nanos>, Vec<Ipid>) = streams.edge_entries(node, down).unzip();
        let runs = IpidRuns::build(ts.iter().copied().zip(ipids.iter().copied()));
        let mut ipid_cursor: Box<[u32; IPID_SPACE]> = boxed_zeroed();
        ipid_cursor.copy_from_slice(&runs.run_start[..IPID_SPACE]);
        Self {
            node,
            matched: vec![UNMATCHED; ts.len()],
            ts,
            runs,
            ipid_cursor,
            cursor: 0,
        }
    }

    /// First position `>= self.cursor` with `ipid`, sent at or before
    /// `read_ts` and within the delay bound. Advances the per-IPID cursor
    /// past consumed entries (amortized O(1) over a whole match).
    // hot: matcher per-read candidate scan
    fn candidate(&mut self, ipid: Ipid, read_ts: Nanos, cfg: &MatchConfig) -> Option<usize> {
        let run_end = self.runs.run_start[ipid as usize + 1];
        let mut c = self.ipid_cursor[ipid as usize];
        while c < run_end && (self.runs.pos[c as usize] as usize) < self.cursor {
            c += 1;
        }
        self.ipid_cursor[ipid as usize] = c;
        if c == run_end {
            return None;
        }
        let pos = self.runs.pos[c as usize] as usize;
        window_ok(self.runs.ts[c as usize], read_ts, cfg).then_some(pos)
    }

    /// Same from a speculative `cursor >= self.cursor` (lookahead): the
    /// first unconsumed run entry at or past `cursor`, window-checked.
    /// Returns the position and its send timestamp.
    ///
    /// This is the single hottest lookup of the whole pipeline (once per
    /// edge per rx step of every lookahead playout). Speculative cursors
    /// sit at most a playout's worth of matches past the committed per-IPID
    /// hint, so the galloping lower bound lands in 1–3 probes for the
    /// common case instead of the ~log₂(tail) a plain binary search pays on
    /// these long, heavily-reused IPID runs.
    // hot: batch-matcher candidate probe
    fn candidate_from(
        &self,
        cursor: usize,
        ipid: Ipid,
        read_ts: Nanos,
        cfg: &MatchConfig,
    ) -> Option<(usize, Nanos)> {
        let lo = self.ipid_cursor[ipid as usize] as usize;
        let run = &self.runs.pos[lo..self.runs.run_start[ipid as usize + 1] as usize];
        let i = msc_kernels::gallop_lower_bound_u32(run, cursor as u32);
        let &pos = run.get(i)?;
        let sent = self.runs.ts[lo + i];
        window_ok(sent, read_ts, cfg).then_some((pos as usize, sent))
    }
}

/// Timing-channel check on a candidate's send timestamp.
#[inline]
// hot: per-candidate timing check
fn window_ok(sent: Nanos, read_ts: Nanos, cfg: &MatchConfig) -> bool {
    sent <= read_ts.saturating_add(cfg.negative_slack_ns)
        && read_ts.saturating_sub(sent) <= cfg.delay_bound_ns
}

/// Reusable buffers for [`match_downstream`]: the per-rx candidate list and
/// the speculative per-edge cursors used by lookahead. Kept across rx
/// entries and ambiguity candidates so the hot loop never allocates.
#[derive(Default)]
struct MatchScratch {
    /// (edge idx, pos) candidates for the current rx entry.
    cands: Vec<(usize, usize)>,
    /// Speculative per-edge cursors for one lookahead playout.
    cursors: Vec<usize>,
}

/// Greedy alignment score used to break collisions: with the given per-edge
/// cursors, how many of the next `depth` rx entries match greedily
/// (earliest-send candidate, no nested ambiguity handling)?
///
/// `beat` is the branch-and-bound floor: once even a perfect tail
/// (`score + remaining`) cannot exceed it, the playout stops. Selection
/// only replaces the incumbent on a *strictly* greater score, so an
/// abandoned playout — whose true score is bounded by the returned one plus
/// the skipped remainder, i.e. `<= beat` — could never have won; the chosen
/// candidate (and every downstream output) is identical to the unpruned
/// walk.
// hot: ambiguity-playout inner walk
fn lookahead_score(
    edges: &[EdgeStream],
    cursors: &mut [usize],
    rx: &[crate::streams::RxEntry],
    rx_from: usize,
    depth: usize,
    cfg: &MatchConfig,
    beat: usize,
) -> usize {
    let mut score = 0;
    let take = depth.min(rx.len() - rx_from);
    let mut remaining = take;
    for r in rx[rx_from..].iter().take(depth) {
        if score + remaining <= beat {
            return score;
        }
        remaining -= 1;
        let mut best: Option<(Nanos, usize, usize)> = None; // (ts, edge, pos)
        for (e_idx, e) in edges.iter().enumerate() {
            if let Some((pos, sent)) = e.candidate_from(cursors[e_idx], r.ipid, r.ts, cfg) {
                let key = (sent, e_idx, pos);
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

/// Matches the rx stream of `down` against its upstream edge streams.
pub fn match_downstream(
    streams: &EdgeStreams,
    topology: &Topology,
    down: NfId,
    cfg: &MatchConfig,
) -> EdgeMatch {
    let rx = &streams.nfs[down.0 as usize].rx;
    assert!(
        u32::try_from(rx.len()).is_ok(),
        "rx stream of {} entries must fit u32",
        rx.len()
    );
    debug_assert_eq!(streams.upstreams(down), topology.upstream_nodes(down));
    let upstreams = streams.upstreams(down).to_vec();
    let mut edges: Vec<EdgeStream> = upstreams
        .iter()
        .map(|&node| EdgeStream::build(streams, node, down))
        .collect();
    let mut stats = MatchStats::default();
    let mut rx_origin: Vec<Option<(NodeId, usize)>> = vec![None; rx.len()];
    let mut scratch = MatchScratch::default();

    if let [e] = edges.as_mut_slice() {
        // Single upstream edge (most NFs of a chain): ambiguity is
        // impossible, so skip the candidate list and lookahead machinery.
        for (r_idx, r) in rx.iter().enumerate() {
            match e.candidate(r.ipid, r.ts, cfg) {
                None => stats.unmatched_rx += 1,
                Some(pos) => {
                    rx_origin[r_idx] = Some((e.node, pos));
                    e.matched[pos] = r_idx as u32;
                    e.cursor = pos + 1;
                    stats.matched += 1;
                }
            }
        }
        return finish(upstreams, &edges, rx_origin, stats);
    }

    for (r_idx, r) in rx.iter().enumerate() {
        // One candidate per upstream edge at most.
        scratch.cands.clear();
        for (e_idx, e) in edges.iter_mut().enumerate() {
            if let Some(pos) = e.candidate(r.ipid, r.ts, cfg) {
                scratch.cands.push((e_idx, pos));
            }
        }
        let chosen = match scratch.cands.len() {
            0 => {
                stats.unmatched_rx += 1;
                continue;
            }
            1 => scratch.cands[0],
            _ => {
                stats.ambiguities += 1;
                // Earliest send is the FIFO-plausible default...
                scratch.cands.sort_by_key(|&(e, p)| (edges[e].ts[p], e, p));
                let default = scratch.cands[0];
                if !cfg.use_order_channel {
                    // Ablated: no lookahead, timing only.
                    default
                } else {
                    // ...but let bounded lookahead overrule it (Fig. 9).
                    let mut best = default;
                    let mut best_score = None;
                    // Playout scores never exceed the rx entries actually
                    // available, so a candidate that aligns every one of
                    // them cannot be strictly beaten — stop playing the
                    // rest (they could at most tie, which never flips the
                    // selection).
                    let max_achievable = cfg.lookahead.min(rx.len() - (r_idx + 1));
                    for &(e_idx, pos) in &scratch.cands {
                        if best_score == Some(max_achievable) {
                            break;
                        }
                        scratch.cursors.clear();
                        scratch.cursors.extend(edges.iter().map(|e| e.cursor));
                        scratch.cursors[e_idx] = pos + 1;
                        let s = lookahead_score(
                            &edges,
                            &mut scratch.cursors,
                            rx,
                            r_idx + 1,
                            cfg.lookahead,
                            cfg,
                            best_score.unwrap_or(0),
                        );
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
        edges[e_idx].matched[pos] = r_idx as u32;
        edges[e_idx].cursor = pos + 1;
        stats.matched += 1;
    }

    finish(upstreams, &edges, rx_origin, stats)
}

/// The shared tail of [`match_downstream`]: classify every edge position
/// and assemble the result.
fn finish(
    upstreams: Vec<NodeId>,
    edges: &[EdgeStream],
    rx_origin: Vec<Option<(NodeId, usize)>>,
    mut stats: MatchStats,
) -> EdgeMatch {
    // Per-edge: positions behind the final cursor that never matched were
    // dropped (a later same-edge packet overtook them, impossible in FIFO);
    // positions at or past the cursor are unresolved. Slot order is the
    // upstream build order, so stats accumulate exactly as before.
    let mut edge_outcome: Vec<Vec<MatchOutcome>> = Vec::with_capacity(edges.len());
    for e in edges {
        // Count the drops with a flat mask reduction over the consumed
        // prefix instead of a counter carried through the classify map —
        // same predicate, exact integer count, so stats are unchanged.
        stats.inferred_drops += msc_kernels::count_eq_u32(&e.matched[..e.cursor], UNMATCHED) as u64;
        let outcomes: Vec<MatchOutcome> = e
            .matched
            .iter()
            .enumerate()
            .map(|(pos, &m)| match m {
                UNMATCHED if pos < e.cursor => MatchOutcome::InferredDrop,
                UNMATCHED => MatchOutcome::Unresolved,
                rx_idx => MatchOutcome::Matched(rx_idx as usize),
            })
            .collect();
        edge_outcome.push(outcomes);
    }

    EdgeMatch {
        rx_origin,
        upstreams,
        edge_outcome,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_collector::{Collector, CollectorConfig, PacketMeta};
    use nf_types::{FiveTuple, NfKind, Proto, Topology};

    /// source -> nat1, nat2 -> vpn (two upstreams into one downstream).
    fn topo() -> Topology {
        let mut b = Topology::builder();
        let a = b.add_nf(NfKind::Nat, "nat1");
        let c = b.add_nf(NfKind::Nat, "nat2");
        let v = b.add_nf(NfKind::Vpn, "vpn1");
        b.add_entry(a);
        b.add_entry(c);
        b.add_edge(a, v);
        b.add_edge(c, v);
        b.build().unwrap()
    }

    fn meta(ipid: u16) -> PacketMeta {
        PacketMeta {
            ipid,
            flow: FiveTuple::new(1, 2, 3, 4, Proto::TCP),
        }
    }

    #[test]
    fn simple_two_upstream_merge() {
        let t = topo();
        let mut c = Collector::new(&t, CollectorConfig::default());
        // nat1 sends ipids 1,2 at t=100,200; nat2 sends 3 at t=150.
        c.record_tx(NfId(0), 100, Some(NfId(2)), &[meta(1)]);
        c.record_tx(NfId(1), 150, Some(NfId(2)), &[meta(3)]);
        c.record_tx(NfId(0), 200, Some(NfId(2)), &[meta(2)]);
        // vpn reads them in arrival order.
        c.record_rx(NfId(2), 300, &[meta(1), meta(3), meta(2)]);
        let s = EdgeStreams::build(&t, &c.into_bundle());
        let m = match_downstream(&s, &t, NfId(2), &MatchConfig::default());
        assert_eq!(m.stats.matched, 3);
        assert_eq!(m.stats.unmatched_rx, 0);
        assert_eq!(m.rx_origin[0], Some((NodeId::Nf(NfId(0)), 0)));
        assert_eq!(m.rx_origin[1], Some((NodeId::Nf(NfId(1)), 0)));
        assert_eq!(m.rx_origin[2], Some((NodeId::Nf(NfId(0)), 1)));
    }

    #[test]
    fn fig9_ambiguity_resolved_by_order() {
        // The paper's Fig. 9: both upstreams send IPID 5; upstream 1 also
        // sends IPID 3 *after* its 5. If the downstream reads 5,3,...,5 then
        // the first 5 must be upstream 1's (else 3 would precede it).
        let t = topo();
        let mut c = Collector::new(&t, CollectorConfig::default());
        // nat2's 5 is sent *earlier*, so earliest-send alone would pick the
        // wrong origin; only the order argument fixes it.
        c.record_tx(NfId(1), 90, Some(NfId(2)), &[meta(5), meta(8)]);
        c.record_tx(NfId(0), 100, Some(NfId(2)), &[meta(5), meta(3)]);
        c.record_rx(NfId(2), 300, &[meta(5), meta(3), meta(5), meta(8)]);
        let s = EdgeStreams::build(&t, &c.into_bundle());
        let m = match_downstream(&s, &t, NfId(2), &MatchConfig::default());
        assert_eq!(m.stats.matched, 4);
        assert_eq!(m.stats.unmatched_rx, 0);
        assert_eq!(m.stats.inferred_drops, 0);
        assert_eq!(m.rx_origin[0], Some((NodeId::Nf(NfId(0)), 0)));
        assert_eq!(m.rx_origin[1], Some((NodeId::Nf(NfId(0)), 1)));
        assert_eq!(m.rx_origin[2], Some((NodeId::Nf(NfId(1)), 0)));
        assert!(m.stats.ambiguities >= 1);
        assert!(m.stats.ambiguity_flips >= 1, "lookahead had to overrule");
    }

    #[test]
    fn timing_channel_rejects_stale_candidates() {
        let t = topo();
        let mut c = Collector::new(&t, CollectorConfig::default());
        // nat1 sent ipid 7 far in the past (beyond the delay bound), then
        // nat2 sends ipid 7 close to the read.
        c.record_tx(NfId(0), 100, Some(NfId(2)), &[meta(7)]);
        c.record_tx(NfId(1), 80 * nf_types::MILLIS, Some(NfId(2)), &[meta(7)]);
        c.record_rx(NfId(2), 80 * nf_types::MILLIS + 500, &[meta(7)]);
        let s = EdgeStreams::build(&t, &c.into_bundle());
        let m = match_downstream(&s, &t, NfId(2), &MatchConfig::default());
        // The stale candidate is rejected; the fresh one matches. The stale
        // send stays unresolved (no later nat1 packet proves a drop).
        assert_eq!(m.rx_origin[0], Some((NodeId::Nf(NfId(1)), 0)));
        assert_eq!(
            m.outcome(NodeId::Nf(NfId(0))).unwrap()[0],
            MatchOutcome::Unresolved
        );
    }

    #[test]
    fn dropped_packet_inferred_from_gap() {
        let t = topo();
        let mut c = Collector::new(&t, CollectorConfig::default());
        // nat1 sends 1,2,3; downstream only reads 1,3 (2 was dropped).
        c.record_tx(NfId(0), 100, Some(NfId(2)), &[meta(1), meta(2), meta(3)]);
        c.record_rx(NfId(2), 200, &[meta(1), meta(3)]);
        let s = EdgeStreams::build(&t, &c.into_bundle());
        let m = match_downstream(&s, &t, NfId(2), &MatchConfig::default());
        let out = m.outcome(NodeId::Nf(NfId(0))).unwrap();
        assert_eq!(out[0], MatchOutcome::Matched(0));
        assert_eq!(out[1], MatchOutcome::InferredDrop);
        assert_eq!(out[2], MatchOutcome::Matched(1));
    }

    #[test]
    fn trailing_sends_stay_unresolved() {
        let t = topo();
        let mut c = Collector::new(&t, CollectorConfig::default());
        c.record_tx(NfId(0), 100, Some(NfId(2)), &[meta(1), meta(2)]);
        // Run ended: downstream only read the first packet.
        c.record_rx(NfId(2), 200, &[meta(1)]);
        let s = EdgeStreams::build(&t, &c.into_bundle());
        let m = match_downstream(&s, &t, NfId(2), &MatchConfig::default());
        let out = m.outcome(NodeId::Nf(NfId(0))).unwrap();
        assert_eq!(out[0], MatchOutcome::Matched(0));
        assert_eq!(out[1], MatchOutcome::Unresolved);
        assert_eq!(m.stats.inferred_drops, 0);
    }

    #[test]
    fn equal_timestamp_sends_from_different_upstreams() {
        // Two upstreams send different ipids at the *same* instant; the
        // downstream happens to read them in the "wrong" node order. With
        // per-edge cursors this must still match cleanly (the old global-
        // merge approach wrongly inferred a drop here).
        let t = topo();
        let mut c = Collector::new(&t, CollectorConfig::default());
        c.record_tx(NfId(0), 100, Some(NfId(2)), &[meta(1)]);
        c.record_tx(NfId(1), 100, Some(NfId(2)), &[meta(2)]);
        c.record_rx(NfId(2), 200, &[meta(2), meta(1)]);
        let s = EdgeStreams::build(&t, &c.into_bundle());
        let m = match_downstream(&s, &t, NfId(2), &MatchConfig::default());
        assert_eq!(m.stats.matched, 2);
        assert_eq!(m.stats.inferred_drops, 0);
        assert_eq!(m.stats.unmatched_rx, 0);
        assert_eq!(m.rx_origin[0], Some((NodeId::Nf(NfId(1)), 0)));
        assert_eq!(m.rx_origin[1], Some((NodeId::Nf(NfId(0)), 0)));
    }

    #[test]
    fn source_edge_matches_entry_nf() {
        let t = topo();
        let mut c = Collector::new(&t, CollectorConfig::default());
        let f1 = FiveTuple::new(10, 2, 30, 4, Proto::TCP);
        let f2 = FiveTuple::new(11, 2, 31, 4, Proto::TCP);
        let e1 = t.entry_for(&f1);
        c.record_source(100, &PacketMeta { ipid: 1, flow: f1 });
        c.record_source(110, &PacketMeta { ipid: 2, flow: f2 });
        c.record_rx(e1, 200, &[PacketMeta { ipid: 1, flow: f1 }]);
        let s = EdgeStreams::build(&t, &c.into_bundle());
        let m = match_downstream(&s, &t, e1, &MatchConfig::default());
        assert_eq!(m.rx_origin[0].unwrap().0, NodeId::Source);
        assert_eq!(m.stats.matched, 1);
    }
}
