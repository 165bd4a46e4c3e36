//! Clock-skew estimation and correction (§7).
//!
//! When NFs run on different servers, their collector timestamps carry
//! per-host clock offsets, which would wreck the timing side channel and
//! every queuing-period computation. The paper points to PTP/Huygens for
//! microsecond-level synchronisation; this module implements the software
//! fallback: estimate each NF's offset *from the records themselves* and
//! rewrite the bundle onto the source's clock.
//!
//! Every edge `u → d` votes on `offset(d) − offset(u)`: a packet's read at
//! `d` minus its send at `u` is that difference plus a non-negative
//! queueing delay, and some packet is always read the moment it arrives, so
//! the histogram of (send, read) deltas has a hard low edge at exactly the
//! difference. The estimator finds that edge, per edge, in three passes of
//! shrinking bins (100 µs, 10 µs, 1 µs) over shrinking windows (±20 ms,
//! ±2 ms, ±200 µs) around the current estimate. Offsets start at zero and
//! each pass moves every NF, in topological order, by the median of its
//! upstream edges' votes (the source's clock is the reference). An NF counts
//! as estimated once a spike on one of its edges confirmed it.
//!
//! A (send, read) pair votes only where both carry the same *IPID
//! trigram*: the packet's IPID and the IPIDs of the next two packets on the
//! same stream — the edge's sends, the downstream NF's reads. The collector
//! records each batch's IPIDs in order (§5) and an upstream batch reaches
//! the downstream ring as one run, so a packet's two successors on its edge
//! are almost always its two successors in the ring. And it votes only where
//! its trigram names a single read inside the pass's window: a trigram that
//! recurs there is an alias too. The IPID alone is far from enough: per-host
//! IPID counters make one value recur about 100 times within ±20 ms at
//! 0.7 Mpps, and at 1.2 Mpps and more such aliases bury the true spike of
//! whole edges, leaving offsets milliseconds wrong.
//!
//! Both sides are keyed and grouped by trigram once per estimate, straight
//! from the bundle's logs: per NF, one stable radix sort of its reads, one
//! of the sends of all its upstream edges (tagged by edge), and one merge
//! that keeps, per edge, only the trigrams both sides hold ([`JoinedNf`],
//! raw timestamps). The passes apply the current offsets as they read, with
//! exactly the [`correct_bundle`] arithmetic — monotone, so each group stays
//! in time order (DESIGN.md §4) and a pass walks each group's reads with two
//! cursors, binning only the pairs inside its window.

use msc_collector::{BundleChunk, FlowRecord, TraceBundle};
use nf_types::{Ipid, Nanos, NfId, NodeId, TimeDelta, Topology};

/// Minimum pairs an edge must bin in a pass before its spike is trusted.
const MIN_SAMPLES: usize = 16;

/// The estimator has no settings — the pass geometry and the sample floor
/// are this module's constants. This empty type and
/// [`estimate_offsets_refined`], which takes it, are kept only for the frozen
/// benchmark harness, which calls them; everything else calls
/// [`estimate_offsets_refined_detailed`].
#[derive(Debug, Clone, Default)]
pub struct SkewConfig {}

/// Per-NF offsets plus per-NF availability: which estimates a spike
/// confirmed and which are the fallback value.
///
/// An NF no spike confirmed gets offset 0 — in `offsets` alone
/// indistinguishable from a genuinely synchronised clock, which is exactly
/// wrong for a short prefix of a stream that happens to be quiet on one
/// edge. `available` tells the two apart, and [`SkewEstimates::notes`] names
/// each fallback for the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkewEstimates {
    /// Offset per NF in `NfId` order (fallback 0 where unavailable).
    pub offsets: Vec<TimeDelta>,
    /// Whether a cross-correlation spike confirmed each NF's offset.
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

/// A packet's IPID and the IPIDs of the next two packets on its stream,
/// in bits 32–47, 16–31 and 0–15.
type Trigram = u64;

/// A packet keyed for the join, and its timestamp: its trigram, shifted up
/// past the slot of the edge that sent it where that is needed.
type Keyed = (u64, Nanos);

/// Appends one stream's packets to `out`, keyed `trigram << shift | tag`,
/// in stream order; the last two, which have no two successors, are left
/// out.
fn push_keyed(
    stream: impl Iterator<Item = (Nanos, Ipid)>,
    shift: u32,
    tag: u64,
    out: &mut Vec<Keyed>,
) {
    let start = out.len();
    out.extend(stream.map(|(ts, id)| (u64::from(id), ts)));
    let n = (out.len() - start).saturating_sub(2);
    let keyed = &mut out[start..];
    // Entry `i + 1` and `i + 2` still hold bare IPIDs when `i` is keyed.
    for i in 0..n {
        let trigram: Trigram = keyed[i].0 << 32 | keyed[i + 1].0 << 16 | keyed[i + 2].0;
        keyed[i].0 = trigram << shift | tag;
    }
    out.truncate(start + n);
}

/// Sorts keyed packets by the low `bits` of their key, stably — packets of
/// one key stay in the order they were pushed, hence in time order: an LSD
/// radix sort in 13-bit digits through `spare`, skipping a digit all keys
/// share.
fn sort_by_key(keyed: &mut Vec<Keyed>, spare: &mut Vec<Keyed>, bits: u32) {
    const DIGIT: u32 = 13;
    let digit = |key: u64, shift: u32| (key >> shift) as usize & ((1 << DIGIT) - 1);
    let mut heads = [0usize; 1 << DIGIT];
    for shift in (0..bits).step_by(DIGIT as usize) {
        heads.fill(0);
        for &(key, _) in keyed.iter() {
            heads[digit(key, shift)] += 1;
        }
        if keyed
            .first()
            .is_none_or(|&(key, _)| heads[digit(key, shift)] == keyed.len())
        {
            continue;
        }
        let mut at = 0;
        for head in &mut heads {
            at += std::mem::replace(head, at);
        }
        spare.clear();
        spare.resize(keyed.len(), (0, 0));
        for &entry in keyed.iter() {
            let head = &mut heads[digit(entry.0, shift)];
            spare[*head] = entry;
            *head += 1;
        }
        std::mem::swap(keyed, spare);
    }
}

/// One NF's reads and the sends of each edge into it, joined on trigram:
/// every group holds one trigram's sends on one edge and its reads at the
/// NF, each side in time order and on the clock it was recorded on.
#[derive(Debug, Default)]
#[cfg_attr(test, derive(PartialEq))]
struct JoinedNf {
    /// The NF's reads, grouped by trigram.
    reads: Vec<Nanos>,
    /// Per upstream slot ([`Topology::upstream_nodes`] order).
    edges: Vec<JoinedEdge>,
}

/// One edge's part of a [`JoinedNf`]: one group per trigram that both the
/// edge's sends and the NF's reads hold.
#[derive(Debug, Default)]
#[cfg_attr(test, derive(PartialEq))]
struct JoinedEdge {
    /// Per group, its sends' timestamps.
    sends: Vec<Nanos>,
    /// Per group: its number of sends, then where its reads begin in
    /// [`JoinedNf::reads`] and how many there are. Each fits `u32`: no log
    /// holds more packets, nor the source more records.
    groups: Vec<(u32, u32, u32)>,
}

impl JoinedNf {
    /// Joins the sends of every edge into one NF with the NF's reads, in
    /// one merge: `reads` keyed by trigram, `sends` by `trigram << slot_bits
    /// | slot`, both sorted.
    fn join(sends: &[Keyed], reads: &[Keyed], slot_bits: u32, slots: usize) -> Self {
        let mut edges: Vec<JoinedEdge> = (0..slots).map(|_| JoinedEdge::default()).collect();
        let mut at = 0;
        let mut groups = reads.chunk_by(|a, b| a.0 == b.0).map(|read| {
            at += read.len();
            (read[0].0, at - read.len(), read.len())
        });
        let mut read = groups.next();
        for sent in sends.chunk_by(|a, b| a.0 == b.0) {
            let trigram = sent[0].0 >> slot_bits;
            while read.is_some_and(|(key, ..)| key < trigram) {
                read = groups.next();
            }
            // Several edges may send one trigram: its reads stay for the next.
            let Some((_, start, len)) = read.filter(|&(key, ..)| key == trigram) else {
                continue;
            };
            let slot = (sent[0].0 & ((1 << slot_bits) - 1)) as usize;
            if let Some(edge) = edges.get_mut(slot) {
                edge.sends.extend(sent.iter().map(|&(_, ts)| ts));
                edge.groups
                    .push((sent.len() as u32, start as u32, len as u32));
            }
        }
        for edge in &mut edges {
            edge.sends.shrink_to_fit();
            edge.groups.shrink_to_fit();
        }
        Self {
            reads: reads.iter().map(|&(_, ts)| ts).collect(),
            edges,
        }
    }
}

/// Every NF of the topology joined with its upstream edges on trigram,
/// built once per estimate, in `NfId` order. The run comes as consecutive
/// pieces (the chunks a stream holds, or one whole bundle): each stream — an
/// NF's reads, its sends to one NF, the source's records — runs on from one
/// piece into the next as in their concatenation, so trigrams span the seams.
fn join_nfs(topology: &Topology, run: &[&TraceBundle]) -> Vec<JoinedNf> {
    let source = || run.iter().flat_map(|b| &b.source_flows);
    let flows: usize = run.iter().map(|b| b.source_flows.len()).sum();
    assert!(u32::try_from(flows).is_ok(), "source records must fit u32");
    let entry: Vec<NfId> = source().map(|f| topology.entry_for(&f.flow)).collect();
    let logs = |nf: NfId| run.iter().filter_map(move |b| b.logs.get(nf.0 as usize));
    let (mut reads, mut sends, mut spare) = (Vec::new(), Vec::new(), Vec::new());
    let mut nfs = Vec::with_capacity(topology.len());
    for nf in topology.nfs() {
        let down = nf.id;
        reads.clear();
        let rx = logs(down).flat_map(|l| l.rx.iter());
        let rx = rx.flat_map(|b| b.ipids.iter().map(move |&id| (b.ts, id)));
        push_keyed(rx, 0, 0, &mut reads);
        sort_by_key(&mut reads, &mut spare, 48);

        let ups = topology.upstream_nodes(down);
        let slot_bits = usize::BITS - ups.len().saturating_sub(1).leading_zeros();
        sends.clear();
        for (slot, &up) in ups.iter().enumerate() {
            let tag = slot as u64;
            match up {
                NodeId::Source => {
                    let sent = source().zip(&entry).filter(|&(_, &e)| e == down);
                    push_keyed(
                        sent.map(|(f, _)| (f.ts, f.ipid)),
                        slot_bits,
                        tag,
                        &mut sends,
                    );
                }
                NodeId::Nf(u) => {
                    let tx = logs(u).flat_map(|l| l.tx.iter());
                    let sent = tx.filter(|b| b.to == Some(down));
                    let sent = sent.flat_map(|b| b.ipids.iter().map(move |&id| (b.ts, id)));
                    push_keyed(sent, slot_bits, tag, &mut sends);
                }
            }
        }
        sort_by_key(&mut sends, &mut spare, 48 + slot_bits);
        nfs.push(JoinedNf::join(&sends, &reads, slot_bits, ups.len()));
    }
    nfs
}

/// One edge as a pass reads it: its groups, the downstream NF's reads, and
/// the clocks its two ends are moved onto as they are read.
struct EdgeScan<'a> {
    edge: &'a JoinedEdge,
    reads: &'a [Nanos],
    /// The sender's offset (`None`: source records, which are on the
    /// source clock already).
    up_off: Option<TimeDelta>,
    /// The downstream NF's offset.
    rx_off: TimeDelta,
}

impl EdgeScan<'_> {
    /// Calls `f(delta)` once per send whose trigram names exactly one read
    /// within ±`search` of it, `delta` being that read's time minus the
    /// send's on the current clocks. A trigram that recurs inside the window
    /// is an alias, whichever of its reads is the packet's: such a send does
    /// not vote. Sends and reads of a group are both time-ordered, so the
    /// window's two ends only move forward: a pass walks each group once.
    fn pairs(&self, search: TimeDelta, mut f: impl FnMut(TimeDelta)) {
        let delta =
            |read: Nanos, tx: i64| (on_source_clock(read, self.rx_off) as i64).wrapping_sub(tx);
        let mut at = 0;
        for &(sends, start, len) in &self.edge.groups {
            let sends = &self.edge.sends[at..at + sends as usize];
            at += sends.len();
            let reads = &self.reads[start as usize..start as usize + len as usize];
            let (mut lo, mut hi) = (0, 0);
            for &ts in sends {
                let tx = self.up_off.map_or(ts, |off| on_source_clock(ts, off)) as i64;
                while lo < reads.len() && delta(reads[lo], tx) < -search {
                    lo += 1;
                }
                hi = hi.max(lo);
                while hi < reads.len() && delta(reads[hi], tx) <= search {
                    hi += 1;
                }
                if hi - lo == 1 {
                    f(delta(reads[lo], tx));
                }
            }
        }
    }
}

/// One edge's histogram in a pass: per bin, how many pairs fell in it and
/// the smallest of their deltas.
#[derive(Default)]
struct Histogram {
    counts: Vec<u32>,
    mins: Vec<TimeDelta>,
}

/// The pair scan of one cross-correlation pass: every pair
/// [`EdgeScan::pairs`] yields within ±`SEARCH_NS` votes for its time
/// delta, binned into `hist` (`2·SEARCH_NS/BIN_NS + 1` bins, bin `b`
/// covering deltas from `b·BIN_NS − SEARCH_NS`). Returns the number of
/// pairs binned.
fn bin_pairs<const BIN_NS: i64, const SEARCH_NS: i64>(
    scan: &EdgeScan<'_>,
    hist: &mut Histogram,
) -> usize {
    let bins = (2 * SEARCH_NS / BIN_NS) as usize + 1;
    hist.counts.clear();
    hist.counts.resize(bins, 0);
    hist.mins.clear();
    hist.mins.resize(bins, TimeDelta::MAX);
    let mut total = 0;
    scan.pairs(SEARCH_NS, |d| {
        // A send out of time order, which only a corrupt log holds, can
        // pair outside the window: it does not vote.
        if (-SEARCH_NS..=SEARCH_NS).contains(&d) {
            let b = ((d + SEARCH_NS) / BIN_NS) as usize;
            hist.counts[b] += 1;
            hist.mins[b] = hist.mins[b].min(d);
            total += 1;
        }
    });
    total
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

/// The median of `votes` (the mean of the middle two for an even count),
/// or `None` for no votes.
fn median(votes: &mut [TimeDelta]) -> Option<TimeDelta> {
    votes.sort_unstable();
    let mid = votes.len() / 2;
    match votes.len() {
        0 => None,
        n if n % 2 == 1 => Some(votes[mid]),
        _ => Some(votes[mid - 1] + (votes[mid] - votes[mid - 1]) / 2),
    }
}

/// One refinement pass at `BIN_NS` histogram bins over a ±`SEARCH_NS`
/// window: cross-correlates every edge on the clocks `est` implies and
/// moves each NF by the median of its edges' residuals, upstream NFs first.
fn refine<const BIN_NS: i64, const SEARCH_NS: i64>(
    topology: &Topology,
    nfs: &[JoinedNf],
    est: &mut SkewEstimates,
) {
    let mut hist = Histogram::default();
    let lookback = (1_000_000 / BIN_NS).max(4) as usize;
    let mut residual = vec![0; topology.len()];
    let mut votes = Vec::new();
    for &nf in topology.topo_order() {
        let down = nf.0 as usize;
        votes.clear();
        let joined = &nfs[down];
        let ups = topology.upstream_nodes(nf);
        for (up, edge) in ups.iter().zip(&joined.edges) {
            // `correct_bundle` rewrites NF logs only: source records stay
            // as recorded.
            let (up_off, up_res) = match *up {
                NodeId::Source => (None, 0),
                NodeId::Nf(u) => (Some(est.offsets[u.0 as usize]), residual[u.0 as usize]),
            };
            let scan = EdgeScan {
                edge,
                reads: &joined.reads,
                up_off,
                rx_off: est.offsets[down],
            };
            let total = bin_pairs::<BIN_NS, SEARCH_NS>(&scan, &mut hist);
            if total < MIN_SAMPLES {
                continue;
            }
            // The edge's residual: the smallest delta in the spike's
            // low-edge bin, which is never empty.
            if let Some(edge) = spike_edge(&hist.counts, total, lookback) {
                votes.push(up_res + hist.mins[edge]);
            }
        }
        if let Some(r) = median(&mut votes) {
            residual[down] = r;
            est.available[down] = true;
        }
    }
    for (e, r) in est.offsets.iter_mut().zip(&residual) {
        *e += r;
    }
}

/// Estimates each NF's clock offset relative to the traffic source:
/// subtracting it from the NF's record timestamps moves them onto the
/// source clock.
///
/// Three cross-correlation passes with shrinking histogram bins, from zero
/// offsets. Each pass cross-correlates every edge's sends against the
/// downstream reads on the current estimate's clocks: the same-trigram
/// (send, read) pairs within a search window vote for their time delta.
/// True pairs vote coherently — queueing delay is non-negative and some
/// packet is always read the moment it arrives, so the coherent mass has a
/// hard low edge at exactly the residual offset — while aliases spread
/// smoothly. The steepest rise of the histogram locates that edge. Passes
/// shrink the bin width 100 µs → 1 µs, reaching the microsecond-level
/// accuracy the paper says reconstruction needs (it cites PTP/Huygens for
/// the same job).
///
/// Kept only for the frozen benchmark harness (see [`SkewConfig`]): it is
/// `estimate_offsets_refined_detailed(topology, &[bundle]).offsets`.
pub fn estimate_offsets_refined(
    topology: &Topology,
    bundle: &TraceBundle,
    _: &SkewConfig,
) -> Vec<TimeDelta> {
    estimate_offsets_refined_detailed(topology, &[bundle]).offsets
}

/// [`estimate_offsets_refined`] plus per-NF availability, over a run given
/// as consecutive pieces — equal to the estimate over their concatenation
/// (a whole run is `&[&bundle]`). An NF counts as estimated when a pass
/// found a coherent spike on one of its edges — which is what tells a
/// refined zero from the zero fallback.
pub fn estimate_offsets_refined_detailed(
    topology: &Topology,
    run: &[&TraceBundle],
) -> SkewEstimates {
    let nfs = join_nfs(topology, run);
    let mut est = SkewEstimates {
        offsets: vec![0; topology.len()],
        available: vec![false; topology.len()],
    };
    refine::<100_000, 20_000_000>(topology, &nfs, &mut est);
    refine::<10_000, 2_000_000>(topology, &nfs, &mut est);
    refine::<1_000, 200_000>(topology, &nfs, &mut est);
    est
}

/// The settle policy of `diagnose --skew` and `skew`: each chunk is held;
/// the offsets are estimated over the held chunks each time their bytes
/// double, and settle when two successive estimates both cover every NF and
/// agree within the tolerance — an NF with no traffic yet keeps the chunks
/// held. A run that ends first takes the estimate over all it held.
#[derive(Debug, Default)]
pub struct OffsetSettler {
    /// Two successive estimates this close agree: the residual skew the
    /// matcher is told to tolerate.
    tolerance: Nanos,
    /// The chunks held, and their bytes.
    held: Vec<BundleChunk>,
    bytes: usize,
    /// The latest estimate over `held`, and `bytes` at the time.
    estimate: Option<SkewEstimates>,
    estimated_bytes: usize,
}

impl OffsetSettler {
    /// A settler whose estimates agree within `tolerance`.
    pub fn new(tolerance: Nanos) -> Self {
        Self {
            tolerance,
            ..Default::default()
        }
    }

    /// Holds `chunk`; true when the offsets settle on it, which
    /// [`Self::finish`] then returns.
    pub fn hold(&mut self, topology: &Topology, chunk: BundleChunk) -> bool {
        self.bytes += chunk_bytes(&chunk.bundle);
        self.held.push(chunk);
        if self.bytes == 0 || self.bytes < 2 * self.estimated_bytes {
            return false;
        }
        let est = self.finish(topology);
        let agreed = self.estimate.as_ref().is_some_and(|prev| {
            (0..est.offsets.len()).all(|i| {
                prev.available[i]
                    && est.available[i]
                    && est.offsets[i].abs_diff(prev.offsets[i]) <= self.tolerance
            })
        });
        self.estimated_bytes = self.bytes;
        self.estimate = Some(est);
        agreed
    }

    /// The offsets: the estimate over everything held, read where it lies
    /// (the latest estimate, if nothing was held since). Before
    /// [`Self::drain`]: what is drained is no longer held.
    pub fn finish(&self, topology: &Topology) -> SkewEstimates {
        match &self.estimate {
            Some(est) if self.estimated_bytes == self.bytes => est.clone(),
            _ => {
                let run: Vec<&TraceBundle> = self.held.iter().map(|c| &c.bundle).collect();
                estimate_offsets_refined_detailed(topology, &run)
            }
        }
    }

    /// How many chunks are held.
    pub fn held(&self) -> usize {
        self.held.len()
    }

    /// Bytes of the chunks held.
    pub fn bytes(&self) -> usize {
        let Self {
            // Counted by `bytes` until they are drained.
            held: _,
            bytes,
            // Fixed: one offset per NF.
            estimate: _,
            tolerance: _,
            estimated_bytes: _,
        } = self;
        *bytes
    }

    /// Hands the held chunks out in order, each with the bytes still held
    /// after it.
    pub fn drain(&mut self) -> impl Iterator<Item = (BundleChunk, usize)> + '_ {
        let bytes = &mut self.bytes;
        self.held.drain(..).map(move |chunk| {
            *bytes -= chunk_bytes(&chunk.bundle);
            (chunk, *bytes)
        })
    }
}

/// Approximate heap bytes of a chunk's records.
fn chunk_bytes(bundle: &TraceBundle) -> usize {
    use std::mem::size_of;
    let batch = size_of::<Nanos>() + size_of::<u32>();
    let logs = bundle.logs.iter().map(|l| {
        (l.rx.len() + l.tx.len()) * batch
            + l.tx.len() * size_of::<Option<NfId>>()
            + l.packet_appearances() * size_of::<Ipid>()
            + l.flows.len() * size_of::<FlowRecord>()
    });
    logs.sum::<usize>() + bundle.source_flows.len() * size_of::<FlowRecord>()
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
    use msc_collector::{chunk_bundle, Collector, CollectorConfig, PacketMeta};
    use nf_sim::{paper_nf_configs, SimConfig, Simulation};
    use nf_traffic::{CaidaLike, CaidaLikeConfig};
    use nf_types::{paper_topology, FiveTuple, NfKind, PacketId, Proto, MILLIS};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn trigrams_key_each_packet_by_its_next_two() {
        let mut out = vec![(9, 9)];
        let stream = [(10, 1), (10, 2), (20, 3), (30, 0xffff), (40, 5)];
        push_keyed(stream.into_iter(), 2, 3, &mut out);
        let key = |trigram: u64| trigram << 2 | 3;
        assert_eq!(
            out,
            vec![
                (9, 9),
                (key(1 << 32 | 2 << 16 | 3), 10),
                (key(2 << 32 | 3 << 16 | 0xffff), 10),
                (key(3 << 32 | 0xffff << 16 | 5), 20),
            ]
        );
        push_keyed([(1, 7), (2, 8)].into_iter(), 0, 0, &mut out);
        assert_eq!(out.len(), 4, "two packets have no trigram");
    }

    /// The radix sort orders by key and keeps push order within one, as a
    /// stable comparison sort does: on small and full key widths, with the
    /// scratch buffers reused across calls.
    #[test]
    fn radix_sort_is_a_stable_sort_by_key() {
        let mut rng = StdRng::seed_from_u64(1);
        let (mut keyed, mut spare) = (Vec::new(), Vec::new());
        for case in 0..200 {
            let bits = [1, 4, 12, 13, 26, 39, 48, 52, 64][case % 9];
            let n = rng.gen_range(0..2_000);
            keyed.clear();
            keyed.extend((0..n).map(|ts| (rng.gen::<u64>() >> (64 - bits), ts as Nanos)));
            let mut want = keyed.clone();
            want.sort_by_key(|&(key, _)| key);
            sort_by_key(&mut keyed, &mut spare, bits);
            assert_eq!(keyed, want, "case {case}");
        }
    }

    /// The estimate over a run's consecutive pieces equals the estimate over
    /// their concatenation, and so does the join it passes over — trigrams
    /// span the seams — for the whole run and for a prefix, as a stream holds
    /// it. (The estimate alone would not show a seam mishandled: a few
    /// trigrams lost per seam leave the offsets as they are.) The run is the
    /// paper deployment on `record --skew`'s clocks, silent from 12 to 17 ms
    /// so that the cuts skip empty windows, and a record-free piece leads and
    /// sits mid-run.
    #[test]
    fn the_estimate_over_pieces_equals_the_estimate_over_their_concatenation() {
        let topology = paper_topology();
        let clocks = (0..topology.len() as i64)
            .map(|i| (i % 5 - 2) * MILLIS as i64)
            .collect();
        let config = CaidaLikeConfig {
            rate_pps: 0.7e6,
            ..Default::default()
        };
        let mut packets = CaidaLike::new(config, 3)
            .generate(0, 30 * MILLIS)
            .finalize(0);
        packets.retain(|p| !(12 * MILLIS..17 * MILLIS).contains(&p.created_at));
        // The simulator takes consecutive ids.
        for (i, p) in packets.iter_mut().enumerate() {
            p.id = PacketId(i as u64);
        }
        let sim = Simulation::new(
            topology.clone(),
            paper_nf_configs(&topology),
            SimConfig {
                seed: 3,
                record_fates: false,
                clock_offsets_ns: clocks,
                ..Default::default()
            },
        );
        let bundle = sim.run(&packets).bundle;
        let empty = Collector::new(&topology, CollectorConfig::default()).into_bundle();
        for ms in [1, 7, 10, 50] {
            let chunks = chunk_bundle(&bundle, ms * MILLIS);
            for held in [chunks.len().div_ceil(2), chunks.len()] {
                let held = &chunks[..held];
                let mut pieces: Vec<&TraceBundle> = held.iter().map(|c| &c.bundle).collect();
                pieces.insert(pieces.len() / 2, &empty);
                pieces.insert(0, &empty);
                // The held prefix as one bundle: the run's first window
                // as long as the prefix.
                let until = held[held.len() - 1].until;
                let concat = chunk_bundle(&bundle, until).swap_remove(0);
                assert_eq!(concat.until, until);
                let concat = concat.bundle;
                let whole = estimate_offsets_refined_detailed(&topology, &[&concat]);
                let what = format!("{ms} ms cuts, {} of {} held", held.len(), chunks.len());
                assert!(
                    join_nfs(&topology, &pieces) == join_nfs(&topology, &[&concat]),
                    "{what}: join"
                );
                assert!(whole.available.iter().any(|&a| a), "{what}: {whole:?}");
                assert_eq!(
                    estimate_offsets_refined_detailed(&topology, &pieces),
                    whole,
                    "{what}"
                );
            }
        }
    }

    /// Each edge keeps the trigrams the reads hold; a trigram two edges send
    /// joins both with the same reads.
    #[test]
    fn join_keeps_the_trigrams_both_sides_hold() {
        // Two slots: keys are `trigram << 1 | slot`.
        let sends = [(2, 10), (2, 30), (3, 11), (8, 20), (12, 5)];
        let reads = [(0, 1), (1, 12), (1, 31), (1, 40), (5, 3), (6, 9)];
        let nf = JoinedNf::join(&sends, &reads, 1, 2);
        assert_eq!(nf.reads, vec![1, 12, 31, 40, 3, 9]);
        assert_eq!(nf.edges[0].groups, vec![(2, 1, 3), (1, 5, 1)]);
        assert_eq!(nf.edges[0].sends, vec![10, 30, 5]);
        assert_eq!(nf.edges[1].groups, vec![(1, 1, 3)]);
        assert_eq!(nf.edges[1].sends, vec![11]);
    }

    /// A send votes only when its trigram names one read in the pass's
    /// window; reads outside the window do not count.
    #[test]
    fn a_send_whose_trigram_recurs_in_the_window_does_not_vote() {
        let binned = |reads: &[Nanos]| {
            let edge = JoinedEdge {
                sends: vec![1_000_000],
                groups: vec![(1, 0, reads.len() as u32)],
            };
            let scan = EdgeScan {
                edge: &edge,
                reads,
                up_off: None,
                rx_off: 0,
            };
            let mut hist = Histogram::default();
            bin_pairs::<1_000, 200_000>(&scan, &mut hist)
        };
        // 1 ms before the send and 1 ms after: outside ±200 µs.
        assert_eq!(binned(&[0, 1_000_005, 2_000_000]), 1);
        assert_eq!(binned(&[0, 1_000_005, 1_000_010, 2_000_000]), 0);
        assert_eq!(binned(&[1_000_000]), 1);
        assert_eq!(binned(&[]), 0);
    }

    /// The histogram a set of deltas makes in the 1 µs pass (±200 µs).
    fn histogram(deltas: impl Iterator<Item = i64>) -> (Vec<u32>, usize) {
        let mut counts = vec![0; 401];
        let mut total = 0;
        for d in deltas {
            counts[((d + 200_000) / 1_000) as usize] += 1;
            total += 1;
        }
        (counts, total)
    }

    fn spread(base: i64, n: i64) -> impl Iterator<Item = i64> {
        (0..n).map(move |k| base + k)
    }

    /// Hand-placed histogram shapes at 1 µs bins: the bin `spike_edge`
    /// returns as the spike's low edge (bin 205 holds 5.0–5.999 µs).
    #[test]
    fn spike_edge_finds_the_low_edge_of_hand_placed_shapes() {
        let shapes: [(&str, Vec<i64>, usize); 5] = [
            // Zero queueing spread: every delta in one bin.
            ("single-bin spike", vec![5_100; 40], 205),
            // The peak is the lowest populated bin; higher bins hold a tail.
            (
                "spike at the lowest populated bin",
                spread(5_100, 30)
                    .chain(spread(6_100, 8))
                    .chain(spread(9_100, 5))
                    .collect(),
                205,
            ),
            // Two adjacent bins tie for the peak count: the higher is the
            // peak, the steepest rise the lower.
            (
                "tied adjacent peaks",
                spread(5_100, 20).chain(spread(6_100, 20)).collect(),
                205,
            ),
            // Two detached bins tie: the higher is the peak, and the gap
            // below it ends the scan.
            (
                "tied detached peaks",
                spread(5_100, 20).chain(spread(8_100, 20)).collect(),
                208,
            ),
            // A collision cluster far below the coherent spike must not win
            // the steepest-rise search.
            (
                "detached collision cluster",
                spread(-50_000, 15)
                    .chain(spread(5_100, 12))
                    .chain(spread(6_100, 20))
                    .collect(),
                205,
            ),
        ];
        for (what, deltas, want) in shapes {
            let (counts, total) = histogram(deltas.into_iter());
            assert_eq!(spike_edge(&counts, total, 1_000), Some(want), "{what}");
        }
        // Flat: no bin reaches four times the mean.
        let (counts, total) = histogram((0..401).map(|b| b * 1_000 - 200_000));
        assert_eq!(spike_edge(&counts, total, 1_000), None);
    }

    #[test]
    fn median_of_votes() {
        assert_eq!(median(&mut []), None);
        assert_eq!(median(&mut [7]), Some(7));
        assert_eq!(median(&mut [9, -3, 4]), Some(4));
        assert_eq!(median(&mut [10, -4, 1, 100]), Some(5));
        assert_eq!(median(&mut [-5, -2]), Some(-4));
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
        let offsets = estimate_offsets_refined_detailed(&topo, &[&bundle]).offsets;
        // Tolerance: the minimal queueing/service slack baked into the
        // samples (1 µs per hop here).
        assert!(
            (offsets[0] - 1_000_000).abs() <= 1_000,
            "nat offset {}",
            offsets[0]
        );
        assert!(
            (offsets[1] + 500_000).abs() <= 2_000,
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

        let offsets = estimate_offsets_refined_detailed(&topo, &[&bundle]).offsets;
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
        let offsets = estimate_offsets_refined_detailed(&topo, &[&c.into_bundle()]).offsets;
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
        let est = estimate_offsets_refined_detailed(&topo, &[&empty]);
        assert_eq!(est.offsets, vec![0, 0]);
        assert_eq!(est.available, vec![false, false]);

        let est = estimate_offsets_refined_detailed(&topo, &[&skewed_bundle(&topo)]);
        assert_eq!(est.available, vec![true, true]);
        assert!((est.offsets[0] - 1_000_000).abs() <= 1_000);
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
        let est = estimate_offsets_refined_detailed(&topo, &[&c.into_bundle()]);
        assert_eq!(est.available, vec![true, false]);
        assert!((est.offsets[0] - 1_000_000).abs() <= 1_500, "{est:?}");
        assert_eq!(est.offsets[1], 0);
        assert_eq!(
            est.notes(&topo),
            vec!["skew estimate unavailable for vpn1; assumed offset 0".to_string()]
        );
        let full = estimate_offsets_refined_detailed(&topo, &[&skewed_bundle(&topo)]);
        assert!(full.notes(&topo).is_empty(), "{:?}", full.notes(&topo));
    }

    /// Regression for the spike scan, through the whole estimator: a
    /// detached collision cluster far below the coherent spike used to win
    /// the steepest-rise search, dragging the estimate ~50 µs under the
    /// spike's low edge. nat1 → vpn1 only, one packet per IPID, so each
    /// (send, read) pair contributes exactly its own delta: 15 at ≈ −50 µs,
    /// then 12 at 5.1 µs (the low edge) and 20 at 6.1 µs (the peak).
    #[test]
    fn estimate_ignores_a_detached_cluster_below_the_spike() {
        let topo = chain();
        let mut c = Collector::new(&topo, CollectorConfig::default());
        let deltas: Vec<i64> = spread(-50_000, 15)
            .chain(spread(5_100, 12))
            .chain(spread(6_100, 20))
            .collect();
        for (k, &d) in deltas.iter().enumerate() {
            let m = PacketMeta {
                ipid: k as u16,
                flow: FiveTuple::new(1, 2, 3, 4, Proto::TCP),
            };
            let ts = 1_000_000 + k as u64 * 500_000;
            c.record_tx(NfId(0), ts, Some(NfId(1)), &[m]);
            c.record_rx(NfId(1), (ts as i64 + d) as u64, &[m]);
        }
        let est = estimate_offsets_refined_detailed(&topo, &[&c.into_bundle()]);
        // nat1 has no source samples; vpn1 is estimated from the spike.
        assert_eq!(est.available, vec![false, true]);
        assert_eq!(est.offsets[1], 5_100);
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
        let est = estimate_offsets_refined_detailed(&topo, &[&bundle]).offsets;
        assert!((est[0] - off[0]).abs() <= 1_500, "nat offset {}", est[0]);
        assert!((est[1] - off[1]).abs() <= 2_500, "vpn offset {}", est[1]);
    }
}
