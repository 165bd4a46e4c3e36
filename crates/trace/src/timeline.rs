//! Per-NF timelines and queuing periods — the substrate of §4.1.
//!
//! A queuing period (§3 of the paper) runs from the moment a queue starts
//! building (the first arrival after the queue was last empty) to the moment
//! a victim packet arrives. Queue emptiness is inferred from the batch-size
//! signal (§5): a read of fewer than `MAX_BATCH` packets drained the ring.

use crate::reconstruct::{Reconstruction, TraceOutcome};
use crate::streams::RxBatchInfo;
use nf_types::{Interval, Nanos, NfId};
use std::ops::Range;

/// Why a packet appeared at an NF's ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// It was enqueued (and later read).
    Queued,
    /// It was dropped at the full ring.
    Dropped,
}

/// One packet arrival at an NF: 16 bytes. Trace indexes are `u32` (one
/// trace per source record, and the wire counts those in a `u32`), hop
/// indexes `u16` (a walk through a DAG of `u16`-numbered NFs);
/// [`Timelines::build`] checks both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival (upstream send) time.
    pub ts: Nanos,
    /// Index of the trace this packet belongs to.
    pub trace: u32,
    /// Hop index within that trace (meaningless for `Dropped`).
    pub hop: u16,
    /// Queued or dropped.
    pub kind: ArrivalKind,
}

const _: () = assert!(std::mem::size_of::<Arrival>() <= 16);

/// The queuing period a packet arriving at time `t` finds itself in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuingPeriod {
    /// `[T0, t]` — from first queue-building arrival to the victim arrival.
    pub interval: Interval,
    /// Indices into [`NfTimeline::arrivals`] of the PreSet packets (queued
    /// arrivals inside the interval).
    pub preset: Range<usize>,
    /// `n_i(T)`: packets arriving (and enqueued) during the period.
    pub n_arrived: u64,
    /// `n_p(T)`: packets the NF processed during the period.
    pub n_processed: u64,
}

impl QueuingPeriod {
    /// Queue length when the victim arrived: `n_i - n_p`.
    pub fn queue_len(&self) -> i64 {
        self.n_arrived as i64 - self.n_processed as i64
    }

    /// Period length `T` in nanoseconds.
    pub fn len(&self) -> Nanos {
        self.interval.len()
    }

    /// True when no queue had built up.
    pub fn is_empty(&self) -> bool {
        self.n_arrived == 0
    }
}

/// Timeline of one NF: all arrivals and all reads, time-ordered.
///
/// Construction precomputes flat indexes — arrival/processed prefix sums and
/// the last draining read before every read — so that every per-victim
/// query ([`Self::queuing_period`], [`Self::processed_in`]) runs off
/// `partition_point` lookups and prefix-sum differences instead of
/// rescanning the arrival vector. Victims cluster inside bursts, so these
/// queries run thousands of times per period; the indexes are what keeps
/// them near-constant time.
#[derive(Debug, PartialEq, Eq)]
pub struct NfTimeline {
    /// The NF.
    pub nf: NfId,
    /// Arrivals sorted by time (queued and dropped).
    pub arrivals: Vec<Arrival>,
    /// Timestamp of every read batch, in time order. Everything a query
    /// needs of the batches in [`Reconstruction::reads`] is in the columns
    /// below, so those may be freed once the timelines are built.
    read_ts: Vec<Nanos>,
    /// `read_prefix[i]` = packets read in batches `0..i`. A count of one NF
    /// log's packets, like the column below: `u32` ([`Self::new`] checks
    /// it), widened where a query hands it out.
    read_prefix: Vec<u32>,
    /// `queued_prefix[i]` = queued (non-dropped) arrivals in `arrivals[0..i]`.
    queued_prefix: Vec<u32>,
    /// For read index i: the largest j ≤ i with `reads[j].drained`
    /// ([`NOT_DRAINED`] if none) — the queue-empty boundary list of the
    /// batch-size drain signal.
    last_drained: Vec<u32>,
}

/// `last_drained` of a read no draining read precedes.
const NOT_DRAINED: u32 = u32::MAX;

impl NfTimeline {
    fn new(nf: NfId, arrivals: &[Arrival], reads: &[RxBatchInfo]) -> Self {
        assert!(
            u32::try_from(reads.len()).is_ok_and(|n| n != NOT_DRAINED),
            "read indexes must fit u32"
        );
        // The prefix columns count this NF's packets: its arrivals and what
        // its reads took (`RxLog` keeps a log's packet count within u32).
        let packets_read: u64 = reads.iter().map(|r| u64::from(r.size)).sum();
        assert!(
            u32::try_from(packets_read).is_ok() && u32::try_from(arrivals.len()).is_ok(),
            "an NF's packet counts must fit u32"
        );
        // Time-order via a stable radix permutation of the timestamps: the
        // identical order `arrivals.sort_by_key(|a| a.ts)` produced, but
        // the counting passes move u32 indices and the 16-byte records are
        // gathered once at the end.
        let ts_keys: Vec<Nanos> = arrivals.iter().map(|a| a.ts).collect();
        let order = stable_order_by_key(&ts_keys);
        let arrivals: Vec<Arrival> = order.iter().map(|&i| arrivals[i as usize]).collect();
        let read_ts: Vec<Nanos> = reads.iter().map(|r| r.ts).collect();
        let mut read_prefix = Vec::with_capacity(reads.len() + 1);
        let mut read_so_far = 0u32;
        read_prefix.push(read_so_far);
        for r in reads {
            read_so_far += r.size;
            read_prefix.push(read_so_far);
        }
        let mut queued_prefix = Vec::with_capacity(arrivals.len() + 1);
        let mut queued_so_far = 0u32;
        queued_prefix.push(queued_so_far);
        for a in &arrivals {
            queued_so_far += u32::from(a.kind == ArrivalKind::Queued);
            queued_prefix.push(queued_so_far);
        }
        let mut last_drained = Vec::with_capacity(reads.len());
        let mut last = NOT_DRAINED;
        for (i, r) in (0u32..).zip(reads) {
            if r.drained {
                last = i;
            }
            last_drained.push(last);
        }
        Self {
            nf,
            arrivals,
            read_ts,
            read_prefix,
            queued_prefix,
            last_drained,
        }
    }

    /// Packets read in batches whose timestamp falls in `[a, b]`.
    pub fn processed_in(&self, a: Nanos, b: Nanos) -> u64 {
        let lo = self.read_ts.partition_point(|&ts| ts < a);
        let hi = self.read_ts.partition_point(|&ts| ts <= b);
        u64::from(self.read_prefix[hi] - self.read_prefix[lo])
    }

    /// Computes the queuing period seen by a packet arriving at `t`.
    ///
    /// `T0` is the first (queued) arrival after the last ring-draining read
    /// at or before `t`; the period is `[T0, t]`.
    pub fn queuing_period(&self, t: Nanos) -> QueuingPeriod {
        // Last drained read at or before t.
        let hi = self.read_ts.partition_point(|&ts| ts <= t);
        let drained_ts = match hi.checked_sub(1).map(|i| self.last_drained[i]) {
            None | Some(NOT_DRAINED) => None,
            Some(j) => Some(self.read_ts[j as usize]),
        };
        // First queued arrival strictly after the drain (or the very first
        // arrival when the queue has been building since the start).
        let start_idx = match drained_ts {
            Some(dts) => self.arrivals.partition_point(|a| a.ts <= dts),
            None => 0,
        };
        self.period_from(start_idx, t)
    }

    /// Builds the period `[first queued arrival >= start_idx, t]`.
    fn period_from(&self, start_idx: usize, t: Nanos) -> QueuingPeriod {
        // Skip dropped arrivals at the front of the period (the period
        // starts with a packet that actually entered the queue) via the
        // queued prefix sums: the first queued arrival at or after
        // `start_idx` is the last index still holding the same prefix count.
        let base = self.queued_prefix[start_idx.min(self.arrivals.len())];
        let s = self.queued_prefix.partition_point(|&q| q <= base) - 1;
        if s >= self.arrivals.len() || self.arrivals[s].ts > t {
            // Queue empty at arrival: degenerate period.
            return QueuingPeriod {
                interval: Interval::new(t, t),
                preset: s..s,
                n_arrived: 0,
                n_processed: 0,
            };
        }
        let t0 = self.arrivals[s].ts;
        let end_idx = self.arrivals.partition_point(|a| a.ts <= t);
        let n_arrived = u64::from(self.queued_prefix[end_idx] - self.queued_prefix[s]);
        let n_processed = self.processed_in(t0, t);
        QueuingPeriod {
            interval: Interval::new(t0, t),
            preset: s..end_idx,
            n_arrived,
            n_processed,
        }
    }
}

/// `0..keys.len()` permuted so that `keys[out[0]] <= keys[out[1]] <= ...`,
/// ties keeping their original order — exactly the permutation a stable
/// `sort_by_key` produces, by LSD radix: each pass is a stable counting
/// scatter over one key digit, moving `u32` indices where a comparison sort
/// moves the 16-byte records `log n` times. One of the two hand-written
/// primitives measured to beat their stdlib equivalent end to end (DESIGN.md
/// §9); `sort_by_key` is the reference of the tests below.
///
/// Digit width follows the input size: 8-bit digits keep the count table in
/// cache for small columns; 16-bit digits halve the passes once the key
/// column dwarfs the 64Ki-entry table. Stability makes the permutation
/// identical either way.
///
/// # Panics
/// Panics if `keys.len()` exceeds `u32::MAX` (indices are `u32`).
fn stable_order_by_key(keys: &[u64]) -> Vec<u32> {
    let n = keys.len();
    assert!(
        u32::try_from(n).is_ok(),
        "index sort limited to u32 indices"
    );
    let mut order: Vec<u32> = (0..n as u32).collect();
    if n > 1 {
        let max = keys.iter().fold(0u64, |m, &k| m.max(k));
        if n >= 32_768 {
            radix_passes::<16>(keys, &mut order, max);
        } else {
            radix_passes::<8>(keys, &mut order, max);
        }
    }
    order
}

/// The counting-scatter passes over `BITS`-wide digits, up to the highest
/// non-zero digit of `max`. `counts` doubles as the running start offsets
/// during the scatter.
fn radix_passes<const BITS: u32>(keys: &[u64], order: &mut Vec<u32>, max: u64) {
    let n = keys.len();
    let mask = (1u64 << BITS) - 1;
    let mut buf = vec![0u32; n];
    let mut counts = vec![0u32; 1 << BITS];
    let mut shift = 0u32;
    while shift < 64 && (max >> shift) != 0 {
        counts.fill(0);
        for &i in order.iter() {
            counts[((keys[i as usize] >> shift) & mask) as usize] += 1;
        }
        // A digit held by every key scatters the identity: skip the pass
        // (timestamps of one run share their high bytes).
        if counts.iter().any(|&c| c as usize == n) {
            shift += BITS;
            continue;
        }
        let mut sum = 0u32;
        for c in counts.iter_mut() {
            let v = *c;
            *c = sum;
            sum += v;
        }
        for &i in order.iter() {
            let d = ((keys[i as usize] >> shift) & mask) as usize;
            buf[counts[d] as usize] = i;
            counts[d] += 1;
        }
        std::mem::swap(order, &mut buf);
        shift += BITS;
    }
}

/// Timelines for every NF, built from a reconstruction.
#[derive(Debug, PartialEq, Eq)]
pub struct Timelines {
    /// Indexed by `NfId`.
    pub nfs: Vec<NfTimeline>,
}

impl Timelines {
    /// Builds all timelines.
    ///
    /// # Panics
    /// Panics if the reconstruction holds more than `u32::MAX` traces or a
    /// trace of more than `u16::MAX` hops ([`Arrival`]'s index widths).
    pub fn build(recon: &Reconstruction) -> Self {
        assert!(
            u32::try_from(recon.traces.len()).is_ok(),
            "trace indexes must fit u32"
        );
        let n = recon.reads.len();
        // Counting pass first: exact per-NF capacities, so the scatter below
        // never reallocates (~200k arrivals across the fleet otherwise grow
        // each vector a dozen times).
        let mut counts = vec![0usize; n];
        for h in &recon.hops {
            counts[h.nf.0 as usize] += 1;
        }
        for tr in &recon.traces {
            if let TraceOutcome::InferredDrop { nf, .. } = tr.outcome {
                counts[nf.0 as usize] += 1;
            }
        }
        let mut arrivals: Vec<Vec<Arrival>> =
            counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for (t_idx, tr) in (0u32..).zip(&recon.traces) {
            // `Arrival::hop` is a u16: saturate, then require nothing was lost.
            let n_hops = u16::try_from(tr.hop_count()).unwrap_or(u16::MAX);
            assert!(
                usize::from(n_hops) == tr.hop_count(),
                "hop indexes must fit u16"
            );
            for (h_idx, (ts, h)) in (0u16..).zip(recon.hops_with_arrival(t_idx as usize)) {
                arrivals[h.nf.0 as usize].push(Arrival {
                    ts,
                    trace: t_idx,
                    hop: h_idx,
                    kind: ArrivalKind::Queued,
                });
            }
            if let TraceOutcome::InferredDrop { nf, at } = tr.outcome {
                arrivals[nf.0 as usize].push(Arrival {
                    ts: at,
                    trace: t_idx,
                    hop: n_hops,
                    kind: ArrivalKind::Dropped,
                });
            }
        }
        let nfs = arrivals
            .into_iter()
            .zip(&recon.reads)
            .enumerate()
            .map(|(i, (a, reads))| NfTimeline::new(NfId(i as u16), &a, reads))
            .collect();
        Self { nfs }
    }

    /// The timeline of one NF.
    pub fn nf(&self, nf: NfId) -> &NfTimeline {
        &self.nfs[nf.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn batches(reads: &[(Nanos, u32, bool)]) -> Vec<RxBatchInfo> {
        reads
            .iter()
            .map(|&(ts, size, drained)| RxBatchInfo { ts, size, drained })
            .collect()
    }

    fn mk(arrival_ts: &[(Nanos, ArrivalKind)], reads: &[(Nanos, u32, bool)]) -> NfTimeline {
        let arrivals: Vec<Arrival> = arrival_ts
            .iter()
            .zip(0u32..)
            .map(|(&(ts, kind), i)| Arrival {
                ts,
                trace: i,
                hop: 0,
                kind,
            })
            .collect();
        NfTimeline::new(NfId(0), &arrivals, &batches(reads))
    }

    const Q: ArrivalKind = ArrivalKind::Queued;

    #[test]
    fn queuing_period_starts_after_last_drain() {
        // Drain at t=100, then arrivals at 150, 200, 260; reads: one batch
        // of 2 at t=250 (full=false but that would end the period...
        // use a non-drained batch).
        let tl = mk(
            &[(50, Q), (150, Q), (200, Q), (260, Q)],
            &[(100, 1, true), (250, 32, false)],
        );
        let qp = tl.queuing_period(260);
        assert_eq!(qp.interval, Interval::new(150, 260));
        assert_eq!(qp.n_arrived, 3); // 150, 200, 260
        assert_eq!(qp.n_processed, 32); // the batch at 250
        assert_eq!(qp.preset.len(), 3);
    }

    #[test]
    fn period_without_any_drain_starts_at_first_arrival() {
        let tl = mk(&[(10, Q), (20, Q)], &[]);
        let qp = tl.queuing_period(25);
        assert_eq!(qp.interval, Interval::new(10, 25));
        assert_eq!(qp.n_arrived, 2);
        assert_eq!(qp.n_processed, 0);
        assert_eq!(qp.queue_len(), 2);
    }

    #[test]
    fn empty_queue_gives_degenerate_period() {
        // Drain at 100; victim arrives at 120 with nothing in between.
        let tl = mk(&[(50, Q)], &[(100, 1, true)]);
        let qp = tl.queuing_period(120);
        assert!(qp.is_empty());
        assert_eq!(qp.len(), 0);
    }

    #[test]
    fn dropped_arrivals_do_not_count_as_input() {
        let tl = mk(
            &[(150, Q), (160, ArrivalKind::Dropped), (170, Q)],
            &[(100, 1, true)],
        );
        let qp = tl.queuing_period(170);
        assert_eq!(qp.n_arrived, 2);
        // But the dropped arrival is still inside the preset index range.
        assert_eq!(qp.preset.len(), 3);
    }

    #[test]
    fn dropped_arrival_cannot_open_a_period() {
        let tl = mk(&[(150, ArrivalKind::Dropped), (170, Q)], &[(100, 1, true)]);
        let qp = tl.queuing_period(170);
        assert_eq!(qp.interval, Interval::new(170, 170));
        assert_eq!(qp.n_arrived, 1);
    }

    #[test]
    fn processed_in_uses_prefix_sums() {
        let tl = mk(&[], &[(100, 10, false), (200, 20, false), (300, 30, true)]);
        assert_eq!(tl.processed_in(100, 300), 60);
        assert_eq!(tl.processed_in(150, 250), 20);
        assert_eq!(tl.processed_in(301, 400), 0);
    }

    /// Naive re-derivation of `queuing_period` by direct scans, used to pin
    /// the indexed implementation (prefix sums + drain list).
    fn reference_period(tl: &NfTimeline, reads: &[RxBatchInfo], t: Nanos) -> QueuingPeriod {
        let hi = reads.partition_point(|r| r.ts <= t);
        let drained_ts = (0..hi)
            .rev()
            .find(|&j| reads[j].drained)
            .map(|j| reads[j].ts);
        let start_idx = match drained_ts {
            Some(dts) => tl.arrivals.partition_point(|a| a.ts <= dts),
            None => 0,
        };
        let mut s = start_idx;
        while s < tl.arrivals.len()
            && tl.arrivals[s].ts <= t
            && tl.arrivals[s].kind == ArrivalKind::Dropped
        {
            s += 1;
        }
        if s >= tl.arrivals.len() || tl.arrivals[s].ts > t {
            // The indexed path reports the first queued arrival index in the
            // degenerate preset; mirror that.
            while s < tl.arrivals.len() && tl.arrivals[s].kind == ArrivalKind::Dropped {
                s += 1;
            }
            return QueuingPeriod {
                interval: Interval::new(t, t),
                preset: s..s,
                n_arrived: 0,
                n_processed: 0,
            };
        }
        let t0 = tl.arrivals[s].ts;
        let end_idx = tl.arrivals.partition_point(|a| a.ts <= t);
        QueuingPeriod {
            interval: Interval::new(t0, t),
            preset: s..end_idx,
            n_arrived: tl.arrivals[s..end_idx]
                .iter()
                .filter(|a| a.kind == ArrivalKind::Queued)
                .count() as u64,
            n_processed: tl.processed_in(t0, t),
        }
    }

    #[test]
    fn indexed_periods_match_naive_reference() {
        // Seeded random timelines with mixed queued/dropped arrivals and
        // mixed drained/full reads; the indexed implementation must agree
        // with the direct-scan reference at every probe time.
        let mut rng = StdRng::seed_from_u64(0x1234_5678_9abc_def0);
        for _ in 0..50 {
            let n_arr = rng.gen_range(0..60);
            let n_reads = rng.gen_range(0..20);
            let mut ts = 0u64;
            let arrivals: Vec<(Nanos, ArrivalKind)> = (0..n_arr)
                .map(|_| {
                    ts += rng.gen_range(0..500);
                    let kind = if rng.gen_range(0..5) == 0 {
                        ArrivalKind::Dropped
                    } else {
                        ArrivalKind::Queued
                    };
                    (ts, kind)
                })
                .collect();
            let mut rts = 0u64;
            let reads: Vec<(Nanos, u32, bool)> = (0..n_reads)
                .map(|_| {
                    rts += rng.gen_range(0..1500);
                    (rts, rng.gen_range(1..=32), rng.gen_range(0..3) == 0)
                })
                .collect();
            let tl = mk(&arrivals, &reads);
            let horizon = ts.max(rts) + 100;
            for _ in 0..20 {
                let t = rng.gen_range(0..horizon);
                assert_eq!(
                    tl.queuing_period(t),
                    reference_period(&tl, &batches(&reads), t),
                    "t={t} arrivals={arrivals:?} reads={reads:?}"
                );
            }
        }
    }

    /// The permutation a stable `sort_by_key` produces — the reference the
    /// radix sort must equal, tie order included.
    fn reference_order(keys: &[u64]) -> Vec<u32> {
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        order.sort_by_key(|&i| keys[i as usize]);
        order
    }

    // Duplicate-heavy keys exercise tie stability.
    #[test]
    fn radix_order_is_the_stable_sort_on_narrow_keys() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let keys: Vec<u64> = (0..rng.gen_range(0..120))
                .map(|_| rng.gen_range(0..20))
                .collect();
            let got = stable_order_by_key(&keys);
            assert_eq!(got, reference_order(&keys), "case {case}: {keys:?}");
        }
    }

    // Every byte of the key takes part.
    #[test]
    fn radix_order_is_the_stable_sort_on_wide_keys() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let keys: Vec<u64> = (0..rng.gen_range(0..80)).map(|_| rng.gen()).collect();
            let got = stable_order_by_key(&keys);
            assert_eq!(got, reference_order(&keys), "case {case}: {keys:?}");
        }
    }

    #[test]
    fn radix_order_is_the_stable_sort_on_edge_shapes_and_both_digit_widths() {
        // Timestamp-shaped columns: one run's keys share their high bytes
        // (those passes are skipped), the low range is dense with duplicates.
        let mut rng = StdRng::seed_from_u64(0x5eed_cafe);
        let mut column = |n: usize| -> Vec<u64> {
            (0..n)
                .map(|_| 10_000_000_000 + rng.gen_range(0..120_000_000))
                .collect()
        };
        // 32 767 keys sort by 8-bit digits, 32 768 and up by 16-bit ones.
        for keys in [
            vec![],
            vec![9],
            vec![7; 33],
            vec![u64::MAX; 5],
            vec![0; 5],
            vec![u64::MAX, 0, u64::MAX, 0],
            column(32_767),
            column(32_768),
            column(40_000),
            vec![3; 32_768],
        ] {
            assert_eq!(
                stable_order_by_key(&keys),
                reference_order(&keys),
                "{} keys",
                keys.len()
            );
        }
    }

    #[test]
    fn si_sp_identity_holds() {
        // Invariant from §4.1: n_i - n_p = queue length at arrival.
        let tl = mk(
            &[(150, Q), (160, Q), (170, Q), (180, Q), (190, Q)],
            &[(100, 5, true), (175, 2, false)],
        );
        let qp = tl.queuing_period(190);
        // Arrived: 150..190 = 5; processed at 175: 2. Queue = 3.
        assert_eq!(qp.queue_len(), 3);
    }
}
