//! Clock-skew estimation and correction (§7).
//!
//! When NFs run on different servers, their collector timestamps carry
//! per-host clock offsets, which would wreck the timing side channel and
//! every queuing-period computation. The paper points to PTP/Huygens for
//! microsecond-level synchronisation; this module implements the software
//! fallback: estimate each NF's offset *from the records themselves* and
//! rewrite the bundle onto the source's clock.
//!
//! The estimator uses the network-measurement classic: for every edge
//! `u → d` and every IPID, the difference between `d`'s first read of that
//! IPID and `u`'s first send of it equals `offset(d) − offset(u)` plus a
//! non-negative queueing delay. A low percentile over many IPIDs
//! approximates the pure offset difference (some packet always arrives to a
//! near-empty ring). Offsets then propagate from the source (offset 0)
//! through the DAG in topological order, averaging over parallel upstream
//! estimates.
//!
//! One estimation call builds [`EdgeStreams`] once from the raw bundle and
//! one counting-sort IPID index per NF rx stream ([`IpidRuns`], the
//! matcher's index). The refinement passes never rewrite the bundle: the
//! current per-NF offsets are applied as records are read, with exactly the
//! [`correct_bundle`] arithmetic — which is monotone, so stream order and
//! run order stay valid (DESIGN.md §4). Each refinement pass joins every
//! edge's sends, grouped by IPID, with the downstream NF's run of reads of
//! that IPID — a merge join whose cost is the pairs it bins — counts the
//! pairs per bin, and looks the smallest delta up afterwards, only in the
//! bins of the spike.

use crate::matching::{EdgeSends, IpidRuns, IPID_SPACE};
use crate::streams::EdgeStreams;
use msc_collector::TraceBundle;
use nf_types::{Ipid, Nanos, NfId, NodeId, TimeDelta, Topology};

/// Configuration for the estimator.
#[derive(Debug, Clone)]
pub struct SkewConfig {
    /// Which percentile of per-IPID deltas approximates the offset (small,
    /// but not the raw minimum, for robustness against IPID collisions).
    pub percentile: f64,
    /// Minimum samples per edge to trust an estimate.
    pub min_samples: usize,
}

impl Default for SkewConfig {
    fn default() -> Self {
        Self {
            percentile: 0.05,
            min_samples: 16,
        }
    }
}

/// Per-NF offsets plus per-NF availability: which estimates actually came
/// from edge samples and which are the fallback value.
///
/// An NF with too few samples gets offset 0 — in `offsets` alone
/// indistinguishable from a genuinely synchronised clock, which is exactly
/// wrong for a short prefix of a stream that happens to be quiet on one
/// edge. `available` tells the two apart, and [`SkewEstimates::notes`] names
/// each fallback for the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkewEstimates {
    /// Offset per NF in `NfId` order (fallback 0 where unavailable).
    pub offsets: Vec<TimeDelta>,
    /// Whether each NF's offset was actually estimated from samples.
    pub available: Vec<bool>,
}

impl SkewEstimates {
    /// One report note per NF whose offset is the zero fallback rather than
    /// an estimate, so a whole-run caller can say so instead of passing the
    /// fallback off as a synchronised clock.
    pub fn notes(&self, topology: &Topology) -> Vec<String> {
        self.available
            .iter()
            .enumerate()
            .filter(|&(_, &a)| !a)
            .map(|(i, _)| {
                format!(
                    "skew estimate unavailable for {}; assumed offset 0",
                    topology.nf(NfId(i as u16)).name
                )
            })
            .collect()
    }
}

/// A record timestamp moved onto the source clock: the one definition of
/// the rewrite [`correct_bundle`] applies and the estimator applies on read.
/// Monotone in `ts`, so it preserves the order of any timestamp sequence.
#[inline]
fn on_source_clock(ts: Nanos, off: TimeDelta) -> Nanos {
    (ts as i64).saturating_sub(off).max(0) as Nanos
}

/// Everything one estimation call reads, built once from the raw bundle,
/// plus the scratch buffers its scans write (so the scans never allocate).
struct Estimator<'a> {
    topology: &'a Topology,
    cfg: &'a SkewConfig,
    /// The raw bundle's streams; offsets are applied on read.
    streams: EdgeStreams,
    /// Per NF: its rx stream grouped by IPID, raw timestamps.
    rx_runs: Vec<IpidRuns>,
    /// Per NF: `rx_runs[nf].ts` on the current estimate's clock, refilled
    /// at the start of every refinement pass.
    rx_ts: Vec<Vec<Nanos>>,
    /// Coarse-pass deltas of the edge being scanned.
    deltas: Vec<TimeDelta>,
    /// One `u32` per IPID, all zero between edges: the coarse pass's
    /// lookup hints, the refinement passes' group heads.
    per_ipid: Vec<u32>,
    /// Refinement pass: the sends of the edge being scanned, by IPID.
    groups: SendGroups,
    /// Refinement-pass histogram of the edge being scanned.
    counts: Vec<u32>,
}

impl<'a> Estimator<'a> {
    fn new(topology: &'a Topology, bundle: &TraceBundle, cfg: &'a SkewConfig) -> Self {
        let streams = EdgeStreams::build(topology, bundle);
        let rx_runs: Vec<IpidRuns> = streams
            .nfs
            .iter()
            .map(|s| IpidRuns::build(s.rx()))
            .collect();
        // Every pairing consumes a distinct read, so no edge yields more
        // deltas than its downstream rx stream is long.
        let longest_rx = streams.nfs.iter().map(|s| s.rx_ts.len()).max().unwrap_or(0);
        // The grouping buffers are sized once, for the longest edge: grown
        // edge by edge (next to a second per-IPID table), they left freed
        // blocks in the heap and `diagnose --skew` peaked ≈ 4 % higher.
        let mut longest_edge = 0;
        for &nf in topology.topo_order() {
            for slot in 0..streams.upstreams(nf).len() {
                longest_edge = longest_edge.max(streams.edge(nf, slot).len());
            }
        }
        Self {
            topology,
            cfg,
            rx_ts: vec![Vec::new(); rx_runs.len()],
            rx_runs,
            deltas: Vec::with_capacity(longest_rx),
            per_ipid: vec![0; IPID_SPACE],
            groups: SendGroups::with_capacity(longest_edge),
            counts: Vec::new(),
            streams,
        }
    }

    /// The coarse pass: per-edge percentile of greedy in-order pairings,
    /// propagated from the source in topological order, averaging over
    /// parallel upstream estimates.
    fn coarse(&mut self) -> SkewEstimates {
        let mut offsets: Vec<Option<TimeDelta>> = vec![None; self.topology.len()];
        for &nf in self.topology.topo_order() {
            let (mut sum, mut n) = (0i64, 0i64);
            for up in self.topology.upstream_nodes(nf) {
                let up_offset = match up {
                    NodeId::Source => Some(0),
                    NodeId::Nf(u) => offsets[u.0 as usize],
                };
                let delta = edge_delta(
                    self.streams.edge_entries(up, nf),
                    &self.rx_runs[nf.0 as usize],
                    &mut self.per_ipid,
                    &mut self.deltas,
                    self.cfg,
                );
                if let (Some(up_off), Some(delta)) = (up_offset, delta) {
                    sum += up_off + delta;
                    n += 1;
                }
            }
            if n > 0 {
                offsets[nf.0 as usize] = Some(sum / n);
            }
        }
        SkewEstimates {
            available: offsets.iter().map(Option::is_some).collect(),
            offsets: offsets.into_iter().map(|o| o.unwrap_or(0)).collect(),
        }
    }

    /// One refinement pass at `BIN_NS` histogram bins over a ±`SEARCH_NS`
    /// window: cross-correlates every edge on the clocks `est` implies and
    /// folds the residuals back into `est`.
    fn refine<const BIN_NS: i64, const SEARCH_NS: i64>(&mut self, est: &mut SkewEstimates) {
        for ((out, runs), &off) in self.rx_ts.iter_mut().zip(&self.rx_runs).zip(&est.offsets) {
            out.clear();
            out.extend(runs.ts.iter().map(|&t| on_source_clock(t, off)));
        }
        self.counts.clear();
        self.counts.resize((2 * SEARCH_NS / BIN_NS) as usize + 1, 0);

        let mut residual = vec![0i64; self.topology.len()];
        for &nf in self.topology.topo_order() {
            let (mut sum, mut n) = (0i64, 0i64);
            for up in self.topology.upstream_nodes(nf) {
                let Some(slot) = self.streams.slot_of(up, nf) else {
                    continue;
                };
                // `correct_bundle` rewrites NF logs only: source records
                // stay as recorded.
                let (up_off, up_res) = match up {
                    NodeId::Source => (None, 0),
                    NodeId::Nf(u) => (Some(est.offsets[u.0 as usize]), residual[u.0 as usize]),
                };
                let sends = self.streams.edge(nf, slot);
                self.groups.group(sends, &mut self.per_ipid);
                let join = EdgeJoin {
                    groups: &self.groups,
                    sends,
                    up_off,
                    rx: &self.rx_runs[nf.0 as usize],
                    rx_ts: &self.rx_ts[nf.0 as usize],
                };
                let total = bin_pairs::<BIN_NS, SEARCH_NS>(&join, &mut self.counts);
                if total < self.cfg.min_samples {
                    continue;
                }
                let lookback = (1_000_000 / BIN_NS).max(4) as usize;
                let Some(edge) = spike_edge(&self.counts, total, lookback) else {
                    continue;
                };
                if let Some(delta) = min_delta::<BIN_NS, SEARCH_NS>(&join, edge) {
                    sum += up_res + delta;
                    n += 1;
                }
            }
            if n > 0 {
                residual[nf.0 as usize] = sum / n;
                est.available[nf.0 as usize] = true;
            }
        }
        for (e, r) in est.offsets.iter_mut().zip(&residual) {
            *e += r;
        }
    }
}

/// Per-edge raw estimate of `offset(down) − offset(up)`.
///
/// Pairs the edge's send stream with the downstream read stream by greedy
/// in-order IPID matching (both streams preserve the edge's relative packet
/// order), then takes a low percentile of the read−send deltas. The greedy
/// pairing occasionally grabs a same-IPID packet from *another* upstream
/// (collisions), and every true pair carries a non-negative queueing delay;
/// a percentile between those two failure modes is robust to both.
fn edge_delta(
    sends: impl Iterator<Item = (Nanos, Ipid)> + Clone,
    rx: &IpidRuns,
    hints: &mut [u32],
    deltas: &mut Vec<TimeDelta>,
    cfg: &SkewConfig,
) -> Option<TimeDelta> {
    pair_in_order(sends, rx, hints, deltas);
    if deltas.is_empty() || deltas.len() < cfg.min_samples {
        return None;
    }
    let idx = ((deltas.len() - 1) as f64 * cfg.percentile).round() as usize;
    if idx >= deltas.len() {
        return None;
    }
    Some(*deltas.select_nth_unstable(idx).1)
}

/// The pairing walk of [`edge_delta`]: each send takes the first read of
/// its IPID at or past the cursor. Fills `deltas` with the read−send deltas
/// of the unambiguous pairs. The cursor only moves forward, so neither does
/// that read's index in its IPID's run: `hints` (per IPID, all zero on
/// entry and again on return) keeps where each IPID's last lookup ended and
/// the next one steps on from there.
fn pair_in_order(
    sends: impl Iterator<Item = (Nanos, Ipid)> + Clone,
    rx: &IpidRuns,
    hints: &mut [u32],
    deltas: &mut Vec<TimeDelta>,
) {
    // Pairs whose IPID recurs nearby in the rx stream are likely cross-edge
    // collisions; skip them (we only need *some* clean samples).
    const AMBIG_DIST: u32 = 96;
    deltas.clear();
    let mut cursor = 0u32;
    for (tx_ts, ipid) in sends.clone() {
        let run = rx.run_of(ipid);
        let run_start = run.start;
        let positions = &rx.pos[run];
        let hint = &mut hints[ipid as usize];
        let mut i = *hint as usize;
        while positions.get(i).is_some_and(|&p| p < cursor) {
            i += 1;
        }
        // An index within one run of a u32-indexed stream.
        *hint = i as u32;
        let Some(&rx_idx) = positions.get(i) else {
            continue;
        };
        let prev_close = i > 0 && rx_idx - positions[i - 1] < AMBIG_DIST;
        let next_close = positions
            .get(i + 1)
            .is_some_and(|&n| n - rx_idx < AMBIG_DIST);
        cursor = rx_idx + 1;
        if prev_close || next_close {
            continue;
        }
        // The per-call scratch is reserved for the longest rx stream: one
        // delta per read at most.
        deltas.push((rx.ts[run_start + i] as i64).wrapping_sub(tx_ts as i64));
    }
    for (_, ipid) in sends {
        hints[ipid as usize] = 0;
    }
}

/// One edge's send positions grouped by IPID: a stable counting sort, the
/// groups in order of first appearance and each in send order — hence in
/// time order, as the edge's send column is. Only positions are held: the
/// join reads a send's time from the edge column when it needs it. One
/// value is regrouped for every edge a pass scans, reusing its buffers.
struct SendGroups {
    /// The IPIDs the edge sends, in order of first appearance.
    ids: Vec<Ipid>,
    /// Per group, in `ids` order: where it ends in `order` (it begins where
    /// the one before ends).
    ends: Vec<u32>,
    /// The edge positions, grouped.
    order: Vec<u32>,
}

impl SendGroups {
    /// Buffers that hold an edge of `sends` sends without growing.
    fn with_capacity(sends: usize) -> Self {
        let groups = sends.min(IPID_SPACE);
        Self {
            ids: Vec::with_capacity(groups),
            ends: Vec::with_capacity(groups),
            order: Vec::with_capacity(sends),
        }
    }

    /// Regroups to `sends`' positions. `head` has one entry per IPID, all
    /// zero, and is left so.
    fn group(&mut self, sends: &EdgeSends, head: &mut [u32]) {
        // Count each IPID's sends, listing it at its first.
        self.ids.clear();
        for (_, id) in sends.iter() {
            let count = &mut head[id as usize];
            if *count == 0 {
                self.ids.push(id);
            }
            *count += 1;
        }
        // Each count becomes its group's start, then its write head.
        self.ends.clear();
        let mut end = 0u32;
        for &id in &self.ids {
            let count = std::mem::replace(&mut head[id as usize], end);
            end += count;
            self.ends.push(end);
        }
        self.order.clear();
        self.order.resize(sends.len(), 0);
        for (p, (_, id)) in sends.iter().enumerate() {
            let at = &mut head[id as usize];
            // An edge position fits u32: `EdgeStreams` keeps every column within one.
            self.order[*at as usize] = p as u32;
            *at += 1;
        }
        for &id in &self.ids {
            head[id as usize] = 0;
        }
    }

    /// Every group: its IPID and its positions, in send order.
    fn iter(&self) -> impl Iterator<Item = (Ipid, &[u32])> + '_ {
        let begins = std::iter::once(0).chain(self.ends.iter().copied());
        self.ids
            .iter()
            .zip(begins.zip(&self.ends))
            .map(|(&id, (begin, &end))| (id, &self.order[begin as usize..end as usize]))
    }
}

/// One edge of a refinement pass, ready to join: its sends grouped by
/// IPID, the clock they are moved onto as they are read, and the
/// downstream NF's reads.
struct EdgeJoin<'a> {
    groups: &'a SendGroups,
    sends: &'a EdgeSends,
    /// The sender's offset (`None`: source records, which are on the
    /// source clock already).
    up_off: Option<TimeDelta>,
    /// The downstream NF's rx stream grouped by IPID.
    rx: &'a IpidRuns,
    /// `rx.ts` on the current estimate's clock.
    rx_ts: &'a [Nanos],
}

impl EdgeJoin<'_> {
    /// The merge join: calls `f(tx, reads)` once per send, `tx` its time on
    /// the source clock and `reads` the reads of its IPID from the first
    /// whose delta `t − tx` is at least `lo` on, in time order. A group's
    /// sends and its IPID's run of reads are both time-ordered, so that
    /// first read only moves forward: the join walks each run once per
    /// edge, with no search per send.
    #[inline]
    fn walk(&self, lo: TimeDelta, mut f: impl FnMut(i64, &[Nanos])) {
        for (ipid, positions) in self.groups.iter() {
            let reads = self.rx_ts.get(self.rx.run_of(ipid)).unwrap_or_default();
            if reads.is_empty() {
                continue;
            }
            let mut first = 0;
            for &p in positions {
                let ts = self.sends.ts_at(p as usize);
                let tx = self.up_off.map_or(ts, |off| on_source_clock(ts, off)) as i64;
                while first < reads.len() && (reads[first] as i64).wrapping_sub(tx) < lo {
                    first += 1;
                }
                f(tx, &reads[first..]);
            }
        }
    }
}

/// The pair scan of one cross-correlation pass: every same-IPID (send,
/// read) pair within ±`SEARCH_NS` votes for its time delta, counted straight
/// into the dense `counts` (`2·SEARCH_NS/BIN_NS + 1` of them, bin `b`
/// covering deltas from `b·BIN_NS − SEARCH_NS`). Returns the number of
/// pairs binned.
fn bin_pairs<const BIN_NS: i64, const SEARCH_NS: i64>(
    join: &EdgeJoin<'_>,
    counts: &mut [u32],
) -> usize {
    counts.fill(0);
    // With `d + SEARCH_NS <= 2·SEARCH_NS` checked, the bin index needs no
    // other bound.
    let width = (2 * SEARCH_NS) as u64;
    let counts = &mut counts[..=(width / BIN_NS as u64) as usize];
    join.walk(-SEARCH_NS, |tx, reads| {
        let from = tx.wrapping_sub(SEARCH_NS);
        for &t in reads {
            // `d + SEARCH_NS`, unsigned: the join starts at `d >= -SEARCH_NS`
            // (a read below it, which only reads out of time order could
            // be, wraps high and ends the scan like one past the window).
            let since = (t as i64).wrapping_sub(from) as u64;
            if since > width {
                break;
            }
            counts[(since / BIN_NS as u64) as usize] += 1;
        }
    });
    counts.iter().map(|&c| c as usize).sum()
}

/// Locates the low edge of the coherent spike in one edge's histogram (see
/// [`estimate_offsets_refined`]): `total` pairs were binned, `lookback` is
/// how many bins below the peak the edge may sit. The bin returned is never
/// empty.
fn spike_edge(counts: &[u32], total: usize, lookback: usize) -> Option<usize> {
    let noise = total / counts.len().saturating_sub(1).max(1) + 1;
    // Highest count wins; tied counts resolve to the highest bin.
    let (peak, peak_n) = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .max_by_key(|&(i, &c)| (c, i))
        .map(|(i, &c)| (i, c as usize))?;
    if peak_n < 4 * noise {
        return None; // no coherent spike — refuse rather than guess
    }
    // The spike's lower boundary is its steepest rise: queueing delay is
    // non-negative, so the coherent mass starts abruptly at the residual.
    // Clamp the scan to the contiguously populated run of bins ending at
    // the peak: the coherent mass is contiguous by construction, so bins
    // past the first gap belong to detached collision clusters — scanning
    // into one used to pick its rise and drag the `min` below far under
    // the true spike edge (and a peak at the minimum populated bin must
    // simply scan itself).
    let lo = peak.saturating_sub(lookback);
    let run_lo = (lo..peak)
        .rev()
        .find(|&b| counts[b] == 0)
        .map_or(lo, |gap| gap + 1);
    let rise = |b: usize| {
        let below = if b == 0 { 0 } else { counts[b - 1] };
        i64::from(counts[b]) - i64::from(below)
    };
    Some((run_lo..=peak).max_by_key(|&b| rise(b)).unwrap_or(peak))
}

/// The edge's residual offset: the smallest delta among the pairs
/// [`bin_pairs`] counted from bin `edge` up to the peak. `edge` is not
/// empty, so that is the smallest delta at or above its start over all
/// pairs — per send its first read there, reads being time-ordered: one
/// join, not a minimum per pair.
fn min_delta<const BIN_NS: i64, const SEARCH_NS: i64>(
    join: &EdgeJoin<'_>,
    edge: usize,
) -> Option<TimeDelta> {
    let mut min: Option<TimeDelta> = None;
    join.walk(edge as i64 * BIN_NS - SEARCH_NS, |tx, reads| {
        if let Some(&t) = reads.first() {
            let d = (t as i64).wrapping_sub(tx);
            min = Some(min.map_or(d, |m| m.min(d)));
        }
    });
    min
}

/// Estimates each NF's clock offset relative to the traffic source,
/// reporting which NFs actually had usable edge samples.
///
/// Subtracting an NF's offset from its record timestamps moves them onto
/// the source clock.
pub fn estimate_offsets_detailed(
    topology: &Topology,
    bundle: &TraceBundle,
    cfg: &SkewConfig,
) -> SkewEstimates {
    Estimator::new(topology, bundle, cfg).coarse()
}

/// Multi-pass estimator: coarse per-edge percentile sync, then iterative
/// cross-correlation refinement with shrinking histogram bins.
///
/// The coarse pass (greedy in-order IPID pairing) is only accurate to a few
/// hundred µs at heavily multiplexed NFs. Each refinement pass corrects the
/// bundle with the current estimate and cross-correlates every edge's send
/// stream against the downstream read stream: all same-IPID (send, read)
/// pairs within a search window vote for their time delta. True pairs vote
/// coherently — queueing delay is non-negative and some packet is always
/// read the moment it arrives, so the coherent mass has a hard low edge at
/// exactly the residual offset — while collision pairs spread smoothly.
/// The steepest rise of the histogram locates that edge. Passes shrink the
/// bin width 100 µs → 1 µs, reaching the microsecond-level accuracy the
/// paper says reconstruction needs (it cites PTP/Huygens for the same
/// job).
pub fn estimate_offsets_refined(
    topology: &Topology,
    bundle: &TraceBundle,
    cfg: &SkewConfig,
) -> Vec<TimeDelta> {
    estimate_offsets_refined_detailed(topology, bundle, cfg).offsets
}

/// [`estimate_offsets_refined`] plus per-NF availability: an NF counts as
/// estimated when the coarse pass had edge samples *or* any refinement
/// pass found a coherent cross-correlation spike on one of its edges —
/// which is what tells a refined zero from the zero fallback.
pub fn estimate_offsets_refined_detailed(
    topology: &Topology,
    bundle: &TraceBundle,
    cfg: &SkewConfig,
) -> SkewEstimates {
    let mut estimator = Estimator::new(topology, bundle, cfg);
    let mut est = estimator.coarse();
    estimator.refine::<100_000, 20_000_000>(&mut est);
    estimator.refine::<10_000, 2_000_000>(&mut est);
    estimator.refine::<1_000, 200_000>(&mut est);
    est
}

/// Rewrites a bundle onto the source clock by subtracting the per-NF
/// offsets from every record timestamp.
pub fn correct_bundle(bundle: &TraceBundle, offsets: &[TimeDelta]) -> TraceBundle {
    let mut out = bundle.clone();
    for log in &mut out.logs {
        let off = offsets.get(log.nf.0 as usize).copied().unwrap_or(0);
        for ts in log.rx.ts_mut().iter_mut().chain(log.tx.ts_mut()) {
            *ts = on_source_clock(*ts, off);
        }
        for f in &mut log.flows {
            f.ts = on_source_clock(f.ts, off);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_collector::{Collector, CollectorConfig, PacketMeta};
    use nf_types::{FiveTuple, NfKind, Proto};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The pair scan and spike search as they were before the merge join:
    /// per send, a `partition_point` into its IPID's run, then a count and
    /// a `min` update per pair. The reference [`scan`] must reproduce.
    mod reference {
        use super::super::*;

        /// One histogram bin: how many deltas fell in it, and the smallest.
        #[derive(Clone, Copy)]
        pub(super) struct Bin {
            pub(super) count: u32,
            min: TimeDelta,
        }

        pub(super) const EMPTY_BIN: Bin = Bin {
            count: 0,
            min: TimeDelta::MAX,
        };

        pub(super) fn bin_pairs<const BIN_NS: i64, const SEARCH_NS: i64>(
            sends: impl Iterator<Item = (Nanos, Ipid)>,
            up_off: Option<TimeDelta>,
            rx: &IpidRuns,
            rx_ts: &[Nanos],
            bins: &mut [Bin],
        ) -> usize {
            bins.fill(EMPTY_BIN);
            let mut total = 0usize;
            for (ts, ipid) in sends {
                let tx_ts = up_off.map_or(ts, |off| on_source_clock(ts, off)) as i64;
                let Some(times) = rx_ts.get(rx.run_of(ipid)) else {
                    continue;
                };
                let lo = times.partition_point(|&t| (t as i64) < tx_ts.wrapping_sub(SEARCH_NS));
                for &t in &times[lo..] {
                    let d = (t as i64).wrapping_sub(tx_ts);
                    if d > SEARCH_NS {
                        break;
                    }
                    let Some(bin) = bins.get_mut((d + SEARCH_NS).div_euclid(BIN_NS) as usize)
                    else {
                        continue;
                    };
                    bin.count += 1;
                    bin.min = bin.min.min(d);
                    total += 1;
                }
            }
            total
        }

        pub(super) fn spike_low_edge(
            bins: &[Bin],
            total: usize,
            lookback: usize,
        ) -> Option<TimeDelta> {
            let noise = total / (bins.len() - 1).max(1) + 1;
            let (peak, peak_n) = bins
                .iter()
                .enumerate()
                .filter(|(_, b)| b.count > 0)
                .max_by_key(|&(i, b)| (b.count, i))
                .map(|(i, b)| (i, b.count as usize))?;
            if peak_n < 4 * noise {
                return None;
            }
            let lo = peak.saturating_sub(lookback);
            let run_lo = (lo..peak)
                .rev()
                .find(|&b| bins[b].count == 0)
                .map_or(lo, |gap| gap + 1);
            let rise = |b: usize| {
                let below = if b == 0 { 0 } else { bins[b - 1].count };
                bins[b].count as i64 - below as i64
            };
            let edge = (run_lo..=peak).max_by_key(|&b| rise(b)).unwrap_or(peak);
            bins[edge..=peak]
                .iter()
                .filter(|b| b.count > 0)
                .map(|b| b.min)
                .min()
        }
    }

    /// One refinement pass's scan of one edge, as `Estimator::refine` runs
    /// it: the histogram, the pairs binned and the edge's residual.
    fn scan<const BIN_NS: i64, const SEARCH_NS: i64>(
        groups: &mut SendGroups,
        head: &mut [u32],
        sends: &EdgeSends,
        up_off: Option<TimeDelta>,
        rx: &IpidRuns,
        rx_ts: &[Nanos],
    ) -> (Vec<u32>, usize, Option<TimeDelta>) {
        groups.group(sends, head);
        let join = EdgeJoin {
            groups,
            sends,
            up_off,
            rx,
            rx_ts,
        };
        let mut counts = vec![0; (2 * SEARCH_NS / BIN_NS) as usize + 1];
        let total = bin_pairs::<BIN_NS, SEARCH_NS>(&join, &mut counts);
        let lookback = (1_000_000 / BIN_NS).max(4) as usize;
        let residual = spike_edge(&counts, total, lookback)
            .and_then(|edge| min_delta::<BIN_NS, SEARCH_NS>(&join, edge));
        (counts, total, residual)
    }

    /// A random edge at a pass's geometry: sends in batches (duplicate
    /// timestamps), half the time starting within `search_ns` of 0, a few
    /// to an IPID (small alphabets: long runs) or nearly one each; each send
    /// read once at a common lag plus jitter, or not at all, plus noise
    /// reads; some IPIDs sent and never read; and the offsets of both ends,
    /// clamping at 0 where they exceed a timestamp. On two edges in three
    /// every time and offset is a multiple of a grain — the bin width or a
    /// quarter of the window — so deltas land exactly on bin boundaries and
    /// on the window's ends. `None` sender offset: a source edge.
    #[allow(clippy::type_complexity)]
    fn random_edge(
        rng: &mut StdRng,
        bin_ns: i64,
        search_ns: i64,
    ) -> (EdgeSends, Option<TimeDelta>, Vec<(Nanos, Ipid)>, TimeDelta) {
        let s = search_ns as u64;
        let grain = [1, bin_ns, search_ns / 4][rng.gen_range(0..3)];
        let on_grain = |x: i64| x.div_euclid(grain) * grain;
        let alphabet: u32 = [1, 2, 3, 8, 64, 1 << 16][rng.gen_range(0..6)];
        let batches: usize = [0, 1, 3, 20, 150][rng.gen_range(0..5)];
        let ipid = |rng: &mut StdRng| rng.gen_range(0..alphabet) as Ipid;
        let lag = rng.gen_range(-search_ns / 2..=search_ns / 2);
        let mut t = if rng.gen_bool(0.5) {
            rng.gen_range(0..s)
        } else {
            rng.gen_range(s..20 * s)
        };
        let mut sends = EdgeSends::new();
        let mut reads: Vec<(Nanos, Ipid)> = Vec::new();
        for _ in 0..batches {
            let ids: Vec<Ipid> = (0..rng.gen_range(1..5))
                .map(|_| {
                    if rng.gen_bool(0.1) {
                        // Never read: above every alphabet but the full one.
                        u16::MAX - rng.gen_range(0..3)
                    } else {
                        ipid(rng)
                    }
                })
                .collect();
            let tx = on_grain(t as i64);
            sends.push_batch(tx as Nanos, &ids);
            for &id in &ids {
                if rng.gen_bool(0.7) {
                    let jitter = rng.gen_range(0..3 * search_ns / 200 + 1);
                    reads.push((on_grain(tx + lag + jitter).max(0) as Nanos, id));
                }
            }
            // Zero steps repeat a batch time.
            t += [0, 1, s / 100, s / 3][rng.gen_range(0..4)];
        }
        for _ in 0..rng.gen_range(0..4 * batches + 1) {
            let ts = on_grain(rng.gen_range(0..t + 2 * s) as i64);
            reads.push((ts as Nanos, ipid(rng)));
        }
        // Reads arrive in time order; equal times stay in push order.
        reads.sort_by_key(|&(ts, _)| ts);
        let source = rng.gen_bool(0.3);
        let mut offset = || on_grain(rng.gen_range(-search_ns..=search_ns));
        let up_off = (!source).then(&mut offset);
        let rx_off = offset();
        (sends, up_off, reads, rx_off)
    }

    /// The merge join with counts-only binning and deferred minima bins
    /// exactly the pairs the per-send scan binned: the same counts, total
    /// and residual on random edges at each pass's geometry, with one
    /// grouping buffer and per-IPID table reused across all of them as
    /// `refine` reuses them.
    fn scan_matches_the_reference<const BIN_NS: i64, const SEARCH_NS: i64>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut groups = SendGroups::with_capacity(0);
        let mut head = vec![0; IPID_SPACE];
        let mut bins = vec![reference::EMPTY_BIN; (2 * SEARCH_NS / BIN_NS) as usize + 1];
        let lookback = (1_000_000 / BIN_NS).max(4) as usize;
        let (mut spikes, mut empty) = (0, 0);
        for case in 0..250 {
            let (sends, up_off, reads, rx_off) = random_edge(&mut rng, BIN_NS, SEARCH_NS);
            let rx = IpidRuns::build(reads.iter().copied());
            let rx_ts: Vec<Nanos> = rx.ts.iter().map(|&t| on_source_clock(t, rx_off)).collect();
            let total = reference::bin_pairs::<BIN_NS, SEARCH_NS>(
                sends.iter(),
                up_off,
                &rx,
                &rx_ts,
                &mut bins,
            );
            let want = reference::spike_low_edge(&bins, total, lookback);
            let (counts, got_total, got) =
                scan::<BIN_NS, SEARCH_NS>(&mut groups, &mut head, &sends, up_off, &rx, &rx_ts);
            assert!(head.iter().all(|&h| h == 0), "case {case}: heads left set");
            let want_counts: Vec<u32> = bins.iter().map(|b| b.count).collect();
            assert_eq!(counts, want_counts, "case {case}: counts");
            assert_eq!((got_total, got), (total, want), "case {case}");
            spikes += usize::from(want.is_some());
            empty += usize::from(sends.len() == 0);
        }
        assert!(
            spikes >= 50 && empty > 0,
            "{spikes} spikes, {empty} empty edges"
        );
    }

    #[test]
    fn merge_join_matches_the_per_send_scan_at_100_us_bins() {
        scan_matches_the_reference::<100_000, 20_000_000>(1);
    }

    #[test]
    fn merge_join_matches_the_per_send_scan_at_10_us_bins() {
        scan_matches_the_reference::<10_000, 2_000_000>(2);
    }

    #[test]
    fn merge_join_matches_the_per_send_scan_at_1_us_bins() {
        scan_matches_the_reference::<1_000, 200_000>(3);
    }

    fn chain() -> Topology {
        let mut b = Topology::builder();
        let a = b.add_nf(NfKind::Nat, "nat1");
        let v = b.add_nf(NfKind::Vpn, "vpn1");
        b.add_entry(a);
        b.add_edge(a, v);
        b.build().unwrap()
    }

    /// Builds a bundle where nat1's clock is +1 ms and vpn1's is −0.5 ms.
    fn skewed_bundle(topology: &Topology) -> TraceBundle {
        let off = [1_000_000i64, -500_000i64];
        let mut c = Collector::new(topology, CollectorConfig::default());
        for i in 0..200u16 {
            let m = PacketMeta {
                ipid: i,
                flow: FiveTuple::new(0x0a000001, 0x14000001, 1000 + i, 80, Proto::TCP),
            };
            let t = 1_000_000 + i as u64 * 10_000; // true emission time
            c.record_source(t, &m);
            // NAT reads ~1 µs later, sends ~2 µs later (true clock), but its
            // records carry its skewed clock.
            c.record_rx(NfId(0), (t as i64 + 1_000 + off[0]) as u64, &[m]);
            c.record_tx(
                NfId(0),
                (t as i64 + 2_000 + off[0]) as u64,
                Some(NfId(1)),
                &[m],
            );
            c.record_rx(NfId(1), (t as i64 + 3_000 + off[1]) as u64, &[m]);
            c.record_tx(NfId(1), (t as i64 + 5_000 + off[1]) as u64, None, &[m]);
        }
        c.into_bundle()
    }

    #[test]
    fn offsets_recovered_within_service_time_tolerance() {
        let topo = chain();
        let bundle = skewed_bundle(&topo);
        let offsets = estimate_offsets_detailed(&topo, &bundle, &SkewConfig::default()).offsets;
        // Tolerance: the minimal queueing/service slack baked into the
        // samples (a few µs here).
        assert!(
            (offsets[0] - 1_000_000).abs() < 5_000,
            "nat offset {}",
            offsets[0]
        );
        assert!(
            (offsets[1] + 500_000).abs() < 10_000,
            "vpn offset {}",
            offsets[1]
        );
    }

    #[test]
    fn corrected_bundle_restores_causal_order() {
        let topo = chain();
        let bundle = skewed_bundle(&topo);
        // With −0.5 ms at the VPN vs +1 ms at the NAT, raw records violate
        // causality: the VPN "reads" packets before the NAT "sends" them.
        let nat_tx = bundle.log(NfId(0)).tx.ts()[0];
        let vpn_rx = bundle.log(NfId(1)).rx.ts()[0];
        assert!(vpn_rx < nat_tx, "sanity: raw bundle is acausal");

        let offsets = estimate_offsets_detailed(&topo, &bundle, &SkewConfig::default()).offsets;
        let fixed = correct_bundle(&bundle, &offsets);
        let nat_tx = fixed.log(NfId(0)).tx.ts()[0];
        let vpn_rx = fixed.log(NfId(1)).rx.ts()[0];
        assert!(
            vpn_rx >= nat_tx,
            "corrected bundle must be causal: tx {nat_tx} rx {vpn_rx}"
        );
    }

    #[test]
    fn no_skew_estimates_near_zero() {
        let topo = chain();
        let mut c = Collector::new(&topo, CollectorConfig::default());
        for i in 0..100u16 {
            let m = PacketMeta {
                ipid: i,
                flow: FiveTuple::new(1, 2, 3, 4, Proto::TCP),
            };
            let t = i as u64 * 10_000;
            c.record_source(t, &m);
            c.record_rx(NfId(0), t + 500, &[m]);
            c.record_tx(NfId(0), t + 1_000, Some(NfId(1)), &[m]);
            c.record_rx(NfId(1), t + 1_500, &[m]);
            c.record_tx(NfId(1), t + 3_000, None, &[m]);
        }
        let offsets =
            estimate_offsets_detailed(&topo, &c.into_bundle(), &SkewConfig::default()).offsets;
        for o in offsets {
            assert!(o.abs() < 2_000, "offset {o}");
        }
    }

    #[test]
    fn detailed_estimates_flag_unavailable_nfs() {
        let topo = chain();
        // Empty bundle: nothing is estimable, and the API must say so
        // instead of passing the zero fallback off as a measurement.
        let empty = Collector::new(&topo, CollectorConfig::default()).into_bundle();
        let est = estimate_offsets_detailed(&topo, &empty, &SkewConfig::default());
        assert_eq!(est.offsets, vec![0, 0]);
        assert_eq!(est.available, vec![false, false]);

        let est = estimate_offsets_detailed(&topo, &skewed_bundle(&topo), &SkewConfig::default());
        assert_eq!(est.available, vec![true, true]);
        assert!((est.offsets[0] - 1_000_000).abs() < 5_000);
    }

    /// Regression: whole-run callers used to get a bare offset vector in
    /// which an NF that received no traffic read "offset 0" — the same as a
    /// synchronised clock. The refined estimate must flag it and name it.
    #[test]
    fn refined_estimates_name_an_nf_that_received_no_traffic() {
        let topo = chain();
        let mut c = Collector::new(&topo, CollectorConfig::default());
        for i in 0..200u16 {
            let m = PacketMeta {
                ipid: i,
                flow: FiveTuple::new(1, 2, 1000 + i, 80, Proto::TCP),
            };
            let t = 1_000_000 + i as u64 * 10_000;
            c.record_source(t, &m);
            // nat1 (+1 ms clock) reads and drops everything: vpn1 is idle.
            c.record_rx(NfId(0), t + 1_000 + 1_000_000, &[m]);
        }
        let est =
            estimate_offsets_refined_detailed(&topo, &c.into_bundle(), &SkewConfig::default());
        assert_eq!(est.available, vec![true, false]);
        assert!((est.offsets[0] - 1_000_000).abs() <= 1_500, "{est:?}");
        assert_eq!(est.offsets[1], 0);
        assert_eq!(
            est.notes(&topo),
            vec!["skew estimate unavailable for vpn1; assumed offset 0".to_string()]
        );
        let full =
            estimate_offsets_refined_detailed(&topo, &skewed_bundle(&topo), &SkewConfig::default());
        assert!(full.notes(&topo).is_empty(), "{:?}", full.notes(&topo));
    }

    /// Regression for the `edge_bin` scan: a detached collision cluster far
    /// below the coherent spike used to win the steepest-rise search (the
    /// scan ranged over up to 1 ms of bins regardless of gaps), dragging
    /// the returned minimum ~50 µs under the true spike edge. The scan must
    /// stay within the contiguously populated run ending at the peak.
    #[test]
    fn edge_residual_ignores_detached_cluster_below_the_spike() {
        let topo = chain();
        let mut c = Collector::new(&topo, CollectorConfig::default());
        // One sample per IPID so each (send, read) pair contributes exactly
        // its own delta: 15 collision-like samples at ~-50 µs, then a spike
        // of 12 at ~5.1 µs (its low edge) and 20 at ~6.1 µs (its peak).
        let mut deltas: Vec<i64> = Vec::new();
        for k in 0..15 {
            deltas.push(-50_000 + k);
        }
        for k in 0..12 {
            deltas.push(5_100 + k);
        }
        for k in 0..20 {
            deltas.push(6_100 + k);
        }
        for (k, &d) in deltas.iter().enumerate() {
            let m = PacketMeta {
                ipid: k as u16,
                flow: FiveTuple::new(1, 2, 3, 4, Proto::TCP),
            };
            let ts = 1_000_000 + k as u64 * 500_000;
            c.record_tx(NfId(0), ts, Some(NfId(1)), &[m]);
            c.record_rx(NfId(1), (ts as i64 + d) as u64, &[m]);
        }
        let streams = EdgeStreams::build(&topo, &c.into_bundle());
        let rx = IpidRuns::build(streams.nfs[1].rx());
        let sends = streams.edge(NfId(1), 0);
        let mut groups = SendGroups::with_capacity(0);
        let head = &mut vec![0; IPID_SPACE];
        let (_, total, got) =
            scan::<1_000, 200_000>(&mut groups, head, sends, Some(0), &rx, &rx.ts);
        assert_eq!(total, deltas.len());
        let got = got.expect("spike is coherent enough to estimate");
        assert!(
            (5_000..6_000).contains(&got),
            "edge residual {got} must sit at the spike's low edge, not the cluster"
        );
    }

    /// The paper-named corner: with zero queueing spread every delta lands
    /// in a single histogram bin — the spike *is* the minimum populated bin
    /// and the steepest-rise scan has nothing below it to look at.
    #[test]
    fn refined_recovers_offsets_with_spike_at_minimum_bin() {
        let topo = chain();
        let off = [700_000i64, -300_000i64];
        let mut c = Collector::new(&topo, CollectorConfig::default());
        for i in 0..200u16 {
            let m = PacketMeta {
                ipid: i,
                flow: FiveTuple::new(1, 2, 1000 + i, 80, Proto::TCP),
            };
            let t = 1_000_000 + i as u64 * 10_000;
            c.record_source(t, &m);
            // Constant per-hop latency: zero spread, single-bin spikes.
            c.record_rx(NfId(0), (t as i64 + 1_000 + off[0]) as u64, &[m]);
            c.record_tx(
                NfId(0),
                (t as i64 + 2_000 + off[0]) as u64,
                Some(NfId(1)),
                &[m],
            );
            c.record_rx(NfId(1), (t as i64 + 3_000 + off[1]) as u64, &[m]);
            c.record_tx(NfId(1), (t as i64 + 5_000 + off[1]) as u64, None, &[m]);
        }
        let bundle = c.into_bundle();
        // Tolerance: the estimator's floor is the minimum queueing delay on
        // the path (a constant 1 µs per hop here) — that bias is inherent,
        // the scan must not add anything on top of it.
        let est = estimate_offsets_refined(&topo, &bundle, &SkewConfig::default());
        assert!((est[0] - off[0]).abs() <= 1_500, "nat offset {}", est[0]);
        assert!((est[1] - off[1]).abs() <= 2_500, "vpn offset {}", est[1]);
    }
}
