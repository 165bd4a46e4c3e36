//! Victim selection (§4.1): which packets, at which NFs, deserve diagnosis.

use msc_trace::{Reconstruction, TraceOutcome};
use nf_types::{Nanos, NfId};

/// How to pick high-latency victims.
#[derive(Debug, Clone, Copy)]
pub enum LatencyThreshold {
    /// End-to-end latency above this quantile of all delivered packets
    /// (the paper diagnoses the 99th/99.9th percentile).
    Quantile(f64),
    /// End-to-end latency above an absolute bound.
    Absolute(Nanos),
}

/// Victim-selection configuration.
#[derive(Debug, Clone)]
pub struct VictimConfig {
    /// Latency victim rule.
    pub latency: LatencyThreshold,
    /// An NF hop is "locally abnormal" when its delay exceeds the NF's mean
    /// by this many standard deviations (the paper uses one).
    pub abnormal_sigma: f64,
    /// Cap on the number of victims (keeps diagnosis time bounded on long
    /// runs). Above it the victims are ordered by `observed_ts` and an even
    /// stride of `cap` of them is kept, so every problem episode keeps some.
    /// `None` (or `Some(0)`) = no cap.
    pub max_victims: Option<usize>,
}

impl Default for VictimConfig {
    fn default() -> Self {
        Self {
            latency: LatencyThreshold::Quantile(0.99),
            abnormal_sigma: 1.0,
            max_victims: None,
        }
    }
}

/// What kind of suffering the victim experienced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimKind {
    /// End-to-end latency above the configured threshold.
    HighLatency,
    /// Dropped at an NF ring.
    Drop,
}

/// One (packet, NF) pair to diagnose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Index of the packet's trace in the reconstruction.
    pub trace: usize,
    /// The NF where local performance was abnormal.
    pub nf: NfId,
    /// Hop index within the trace (== hops.len() for drops).
    pub hop: usize,
    /// When the packet arrived at that NF (anchors the queuing period).
    pub arrival_ts: Nanos,
    /// When the problem was *observed* (departure or drop time) — used for
    /// the Fig. 15 culprit→victim gap.
    pub observed_ts: Nanos,
    /// Latency or drop.
    pub kind: VictimKind,
}

/// Per-NF delay statistics used for the abnormality test.
///
/// Accumulates in exact integer arithmetic (`u128` sums), so the statistics
/// — and therefore the victim set — do not depend on accumulation order.
#[derive(Debug, Clone, Copy, Default)]
struct DelayStats {
    n: u64,
    sum: u128,
    sum_sq: u128,
}

impl DelayStats {
    fn push(&mut self, v: Nanos) {
        self.n += 1;
        self.sum += v as u128;
        self.sum_sq += (v as u128) * (v as u128);
    }

    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    fn std(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.sum_sq as f64 / self.n as f64 - m * m).max(0.0).sqrt()
    }
}

/// Selects victims from a reconstruction, in trace order.
///
/// High-latency packets yield one victim per NF hop whose local delay
/// (send − arrival) exceeds that NF's `mean + abnormal_sigma·σ`; dropped
/// packets yield a victim at the dropping NF.
pub fn find_victims(recon: &Reconstruction, cfg: &VictimConfig) -> Vec<Victim> {
    // Latency threshold.
    let threshold = match cfg.latency {
        LatencyThreshold::Absolute(ns) => ns,
        LatencyThreshold::Quantile(q) => {
            let mut lats: Vec<Nanos> = recon.traces.iter().filter_map(|t| t.latency()).collect();
            if lats.is_empty() {
                Nanos::MAX
            } else {
                // Nearest-rank: the smallest latency with at least ⌈q·N⌉
                // samples at or below it. Rounding instead of taking the
                // ceiling picks a below-quantile latency on small runs and
                // inflates the victim set. Only the rank value is used, so
                // an O(N) selection replaces the full sort.
                let rank = ((lats.len() as f64) * q.clamp(0.0, 1.0)).ceil() as usize;
                let idx = rank.saturating_sub(1).min(lats.len() - 1);
                *lats.select_nth_unstable(idx).1
            }
        }
    };

    // Per-NF delay statistics over all hops. Delays saturate at zero:
    // residual skew on corrected multi-server bundles can leave a send
    // timestamp slightly before the arrival.
    let max_nf = recon
        .hops
        .iter()
        .map(|h| h.nf.0)
        .max()
        .map_or(0, |m| m as usize + 1);
    let mut stats = vec![DelayStats::default(); max_nf];
    for t in 0..recon.traces.len() {
        for (arrival, h) in recon.hops_with_arrival(t) {
            if let Some(sent) = h.sent_ts() {
                stats[h.nf.0 as usize].push(sent.saturating_sub(arrival));
            }
        }
    }

    let mut victims: Vec<Victim> = Vec::new();
    for (t_idx, tr) in recon.traces.iter().enumerate() {
        match tr.outcome {
            TraceOutcome::Delivered(_) => {
                let Some(lat) = tr.latency() else { continue };
                if lat < threshold {
                    continue;
                }
                for (h_idx, (arrival, h)) in recon.hops_with_arrival(t_idx).enumerate() {
                    let Some(sent) = h.sent_ts() else { continue };
                    let s = &stats[h.nf.0 as usize];
                    let delay = sent.saturating_sub(arrival) as f64;
                    if delay > s.mean() + cfg.abnormal_sigma * s.std() {
                        victims.push(Victim {
                            trace: t_idx,
                            nf: h.nf,
                            hop: h_idx,
                            arrival_ts: arrival,
                            observed_ts: sent,
                            kind: VictimKind::HighLatency,
                        });
                    }
                }
            }
            TraceOutcome::InferredDrop { nf, at } => {
                victims.push(Victim {
                    trace: t_idx,
                    nf,
                    hop: tr.hop_count(),
                    arrival_ts: at,
                    observed_ts: at,
                    kind: VictimKind::Drop,
                });
            }
            _ => {}
        }
    }

    if let Some(cap) = cfg.max_victims {
        if victims.len() > cap && cap > 0 {
            // Subsample with an even stride over time so every problem
            // episode in the run keeps victims (a severity-based cut would
            // silently drop whole problem classes).
            victims.sort_by_key(|v| v.observed_ts);
            let stride = victims.len() as f64 / cap as f64;
            let sampled: Vec<Victim> = (0..cap)
                .map(|i| victims[(i as f64 * stride) as usize])
                .collect();
            victims = sampled;
        }
    }
    victims
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_trace::{ReconstructedTrace, TraceHop};

    /// One hand-built trace before arena flattening: its own hop list plus
    /// the trace-level fields `recon_with` needs.
    struct TestTrace {
        hops: Vec<TraceHop>,
        emitted_at: Nanos,
        outcome: TraceOutcome,
    }

    /// A trace emitted at `emitted` through `(nf, local delay)` hops: each
    /// hop arrives at the emission or at the previous hop's send, as
    /// reconstructed hops do, and is sent `delay` later.
    fn trace(emitted: Nanos, delay_per_hop: &[(u16, Nanos)], delivered: bool) -> TestTrace {
        let mut arrival = emitted;
        let hops: Vec<TraceHop> = delay_per_hop
            .iter()
            .map(|&(nf, delay)| {
                let read = arrival;
                arrival += delay;
                TraceHop::new(NfId(nf), read, Some(arrival))
            })
            .collect();
        TestTrace {
            hops,
            emitted_at: emitted,
            outcome: if delivered {
                TraceOutcome::Delivered(arrival)
            } else {
                TraceOutcome::Unresolved
            },
        }
    }

    fn recon_with(tts: Vec<TestTrace>) -> Reconstruction {
        // Build a Reconstruction by hand via the public fields, flattening
        // the per-trace hop lists into the shared arena.
        let mut hops: Vec<TraceHop> = Vec::new();
        let mut traces: Vec<ReconstructedTrace> = Vec::new();
        for tt in tts {
            let start = hops.len() as u32;
            hops.extend(tt.hops);
            traces.push(ReconstructedTrace {
                flow: nf_types::FiveTuple::new(1, 2, 3, 4, nf_types::Proto::TCP),
                emitted_at: tt.emitted_at,
                hops: start..hops.len() as u32,
                outcome: tt.outcome,
            });
        }
        let n_nfs = hops.iter().map(|h| h.nf.0 as usize + 1).max().unwrap_or(0);
        let (paths, path_ids) = msc_trace::PathTrie::intern_traces(&traces, &hops, n_nfs);
        Reconstruction {
            traces,
            hops,
            report: Default::default(),
            paths,
            path_ids,
            reads: vec![vec![]],
        }
    }

    #[test]
    fn tail_latency_victims_found_at_abnormal_hop() {
        // 99 fast packets (1 µs per hop) and 1 slow one (1 ms at nf1).
        let mut traces: Vec<TestTrace> = (0..99)
            .map(|i| trace(i * 10_000, &[(0, 1_000), (1, 1_000)], true))
            .collect();
        traces.push(trace(2_000_000, &[(0, 1_000), (1, 999_000)], true));
        let recon = recon_with(traces);
        let victims = find_victims(
            &recon,
            &VictimConfig {
                latency: LatencyThreshold::Quantile(0.99),
                ..Default::default()
            },
        );
        assert_eq!(victims.len(), 1);
        assert_eq!(victims[0].nf, NfId(1));
        assert_eq!(victims[0].kind, VictimKind::HighLatency);
        assert_eq!(victims[0].trace, 99);
    }

    #[test]
    fn absolute_threshold() {
        let traces = vec![
            trace(0, &[(0, 500)], true),
            trace(5_000, &[(0, 600)], true),
            trace(10_000, &[(0, 30_000)], true),
        ];
        let recon = recon_with(traces);
        let victims = find_victims(
            &recon,
            &VictimConfig {
                latency: LatencyThreshold::Absolute(10_000),
                ..Default::default()
            },
        );
        assert_eq!(victims.len(), 1);
        assert_eq!(victims[0].trace, 2);
    }

    #[test]
    fn drops_are_victims() {
        let mut tr = trace(0, &[(0, 500)], true);
        tr.outcome = TraceOutcome::InferredDrop {
            nf: NfId(1),
            at: 600,
        };
        let recon = recon_with(vec![tr]);
        let victims = find_victims(&recon, &VictimConfig::default());
        assert_eq!(victims.len(), 1);
        assert_eq!(victims[0].kind, VictimKind::Drop);
        assert_eq!(victims[0].nf, NfId(1));
        assert_eq!(victims[0].arrival_ts, 600);
    }

    #[test]
    fn quantile_threshold_uses_nearest_rank_ceil() {
        // 10 traces with distinct single-hop latencies 1 µs .. 10 µs.
        let traces: Vec<TestTrace> = (0..10u64)
            .map(|i| trace(i * 100_000, &[(0, 1_000 * (i + 1))], true))
            .collect();
        let recon = recon_with(traces);
        let find = |q: f64| {
            find_victims(
                &recon,
                &VictimConfig {
                    latency: LatencyThreshold::Quantile(q),
                    ..Default::default()
                },
            )
        };
        // q = 0.99 over N = 10: nearest rank is ⌈9.9⌉ = 10, i.e. the
        // maximum — only the slowest trace is a victim.
        let victims = find(0.99);
        assert_eq!(victims.len(), 1, "{victims:?}");
        assert_eq!(victims[0].trace, 9);
        // q = 0.91: ⌈9.1⌉ = 10 again. The old round((N−1)·q) formula chose
        // index 8 here, a below-quantile latency that also admitted trace 8.
        let victims = find(0.91);
        assert_eq!(victims.len(), 1, "{victims:?}");
        assert_eq!(victims[0].trace, 9);
        // q = 0.5: nearest rank ⌈5⌉ = 5 → the 5th smallest latency (5 µs).
        // Traces 4..=9 pass the latency gate; the per-hop abnormality test
        // (delay > mean + σ) then keeps the genuinely slow tail.
        let victims = find(0.5);
        assert!(
            victims.iter().all(|v| v.trace >= 4),
            "threshold must be the 5th value: {victims:?}"
        );
        assert!(victims.iter().any(|v| v.trace == 9));
    }

    #[test]
    fn mixed_selection_is_in_trace_order_and_repeats() {
        let traces: Vec<TestTrace> = (0..57u64)
            .map(|i| {
                let t0 = i * 100_000;
                // A mix of two NFs and a few drops.
                if i % 13 == 0 {
                    let mut tr = trace(t0, &[(0, 2_000)], true);
                    tr.outcome = TraceOutcome::InferredDrop {
                        nf: NfId(1),
                        at: t0 + 2_000,
                    };
                    tr
                } else {
                    trace(t0, &[(0, 1_000 + (i % 7) * 300), (1, (i % 11) * 500)], true)
                }
            })
            .collect();
        let recon = recon_with(traces);
        let cfg = VictimConfig {
            latency: LatencyThreshold::Quantile(0.8),
            ..Default::default()
        };
        let victims = find_victims(&recon, &cfg);
        for kind in [VictimKind::HighLatency, VictimKind::Drop] {
            assert!(victims.iter().any(|v| v.kind == kind), "no {kind:?} victim");
        }
        // Drops and latency victims interleave in (trace, hop) order.
        assert!(victims
            .windows(2)
            .all(|w| (w[0].trace, w[0].hop) < (w[1].trace, w[1].hop)));
        assert_eq!(find_victims(&recon, &cfg), victims);
    }

    #[test]
    fn victim_cap_subsamples_evenly_over_time() {
        let mut traces = Vec::new();
        for i in 0..10u64 {
            // Increasing hop delay: later traces are worse.
            traces.push(trace(i * 100_000, &[(0, 1_000 * (i + 1))], true));
        }
        let recon = recon_with(traces);
        let victims = find_victims(
            &recon,
            &VictimConfig {
                latency: LatencyThreshold::Absolute(0),
                abnormal_sigma: 0.0,
                max_victims: Some(3),
            },
        );
        assert_eq!(victims.len(), 3);
        // Even stride over the time-ordered victims: early, middle and late
        // episodes all stay represented (severity-based cuts would keep
        // only the tail and silently drop whole problem classes).
        // Only hops above the mean delay (traces 5..=9) are abnormal; the
        // stride keeps an even spread of those five.
        let kept: Vec<usize> = victims.iter().map(|v| v.trace).collect();
        assert_eq!(kept, vec![5, 6, 8]);
    }
}
