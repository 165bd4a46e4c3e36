//! Streaming diagnosis engine.
//!
//! The offline pipeline loads a whole collector bundle, reconstructs every
//! trace, then diagnoses. [`StreamEngine`] consumes the same records as a
//! stream of time-ordered [`msc_collector::BundleChunk`]s instead:
//!
//! * **Windowed reconstruction** — each chunk advances the watermark of a
//!   [`msc_trace::WindowedReconstructor`], which drives the offline matcher
//!   over the chunk: decides every read the new watermark proves stable,
//!   forwards the decided packets NF by NF and drops the consumed prefix of
//!   every column, so peak memory is bounded by the in-flight window rather
//!   than the run length.
//! * **Rolling period tracking** — the per-read drain bit folds into a
//!   [`microscope::PeriodTracker`] for live congestion stats.
//! * **Optional skew tracking** — with [`StreamConfig::skew`] set, a
//!   [`msc_trace::SkewTracker`] re-estimates clock offsets per chunk and
//!   corrects timestamps before ingestion, carrying the last-known offset
//!   across quiet windows (and saying so in [`StreamEngine::skew_notes`]).
//!
//! Chunks must arrive in time order, each once: a chunk whose `until` does
//! not exceed the previous one's, or that carries a record from before it,
//! is refused with [`StreamError::OutOfOrderChunk`].
//!
//! With skew correction off (the default), the streamed [`Reconstruction`],
//! timelines and diagnoses are **equal** to the offline pipeline's on the
//! concatenated bundle — the offline path stays the oracle, and the
//! equivalence suites compare the two whole. Skew mode is *not*
//! bit-identical: offsets are estimated per window, not over the full run.

#![forbid(unsafe_code)]
// The panic-surface gate (DESIGN.md §6): operator-facing code returns typed
// errors; `assert!` contract checks are the only sanctioned panics.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use microscope::{CacheStats, Diagnosis, DiagnosisConfig, Microscope, PeriodTracker};
use msc_collector::BundleChunk;
use msc_trace::{
    correct_bundle, MatchConfig, Reconstruction, ReconstructionReport, SkewConfig, SkewTracker,
    StreamError, Timelines, WindowedReconstructor,
};
use nf_types::{Nanos, Topology, MILLIS};

/// With skew on, the watermark lags each chunk boundary by this guard so
/// records whose *corrected* timestamps land below the boundary are still
/// undecided when they arrive. It must cover the largest plausible clock
/// offset magnitude (`record --skew` spreads ±2 ms).
pub const SKEW_GUARD_NS: Nanos = 5 * MILLIS;

/// Configuration for a [`StreamEngine`].
#[derive(Debug, Clone, Default)]
pub struct StreamConfig {
    /// Matcher configuration (delay bound, lookahead, order channel...);
    /// must equal the offline run's for bit-identity.
    pub matching: MatchConfig,
    /// Enable per-window clock-offset estimation and correction. `None`
    /// (default) trusts the timestamps and keeps bit-identity.
    pub skew: Option<SkewConfig>,
}

/// Everything the finished stream yields.
pub struct StreamOutcome {
    /// The reconstruction (identical to offline).
    pub recon: Reconstruction,
    /// Per-NF timelines (identical to offline).
    pub timelines: Timelines,
    /// Diagnoses from the period-keyed engine (identical to offline).
    pub diagnoses: Vec<Diagnosis>,
    /// Step-cache statistics from the diagnosis pass.
    pub cache_stats: CacheStats,
    /// Skew fallback notes (empty when skew tracking was off or every
    /// window produced a fresh estimate).
    pub skew_notes: Vec<String>,
}

/// Incremental diagnosis engine over a stream of collector chunks.
pub struct StreamEngine {
    topology: Topology,
    recon: WindowedReconstructor,
    periods: PeriodTracker,
    skew: Option<SkewTracker>,
    // Per-NF (rx, tx, flows) clamp floors: window-to-window jitter in the
    // skew estimate may shift a later chunk slightly below the previous
    // chunk's corrected timestamps, and the matcher's binary searches need
    // each log to stay nondecreasing.
    skew_floors: Vec<(Nanos, Nanos, Nanos)>,
    chunks: u64,
    working_set_peak: usize,
}

impl StreamEngine {
    /// An engine expecting chunks recorded on `topology`.
    pub fn new(topology: &Topology, cfg: StreamConfig) -> Self {
        Self {
            topology: topology.clone(),
            recon: WindowedReconstructor::new(topology, cfg.matching),
            periods: PeriodTracker::new(topology.len()),
            skew: cfg.skew.map(|sc| SkewTracker::new(topology.len(), sc)),
            skew_floors: vec![(0, 0, 0); topology.len()],
            chunks: 0,
            working_set_peak: 0,
        }
    }

    /// Consumes one chunk: checks it follows the previous one (on the raw
    /// timestamps), updates skew offsets (if enabled), feeds the rolling
    /// period tracker, and advances the reconstruction watermark.
    pub fn push_chunk(&mut self, chunk: &BundleChunk) -> Result<(), StreamError> {
        self.recon.admit(&chunk.bundle, chunk.until)?;
        let has_records = !chunk.bundle.source_flows.is_empty()
            || chunk
                .bundle
                .logs
                .iter()
                .any(|l| !l.rx.is_empty() || !l.tx.is_empty());
        if let Some(tracker) = &mut self.skew {
            // A record-free chunk carries no skew information: advance the
            // watermark without charging the tracker a missed window.
            let offsets = if has_records {
                tracker.observe(&self.topology, &chunk.bundle).to_vec()
            } else {
                tracker.offsets().to_vec()
            };
            let mut corrected = correct_bundle(&chunk.bundle, &offsets);
            self.clamp_monotone(&mut corrected);
            self.track_reads(&corrected);
            // Corrected timestamps can land up to one offset magnitude
            // below the chunk boundary; lag the watermark so they are
            // still undecided when they arrive.
            self.recon
                .advance(&corrected, chunk.until.saturating_sub(SKEW_GUARD_NS))?;
        } else {
            self.track_reads(&chunk.bundle);
            self.recon.advance(&chunk.bundle, chunk.until)?;
        }
        self.chunks += 1;
        self.working_set_peak = self.working_set_peak.max(self.recon.working_set());
        Ok(())
    }

    fn clamp_monotone(&mut self, bundle: &mut msc_collector::TraceBundle) {
        for log in &mut bundle.logs {
            let floors = &mut self.skew_floors[log.nf.0 as usize];
            for ts in log.rx.ts_mut() {
                *ts = (*ts).max(floors.0);
                floors.0 = *ts;
            }
            for ts in log.tx.ts_mut() {
                *ts = (*ts).max(floors.1);
                floors.1 = *ts;
            }
            for f in &mut log.flows {
                f.ts = f.ts.max(floors.2);
                floors.2 = f.ts;
            }
        }
    }

    fn track_reads(&mut self, bundle: &msc_collector::TraceBundle) {
        for log in &bundle.logs {
            for r in log.rx.iter() {
                self.periods.on_read(log.nf, r.ts, r.drained_queue());
            }
        }
    }

    /// Rolling queuing-period stats.
    pub fn periods(&self) -> &PeriodTracker {
        &self.periods
    }

    /// Reconstruction counters so far (totals settle at [`finish`]).
    ///
    /// [`finish`]: StreamEngine::finish
    pub fn report(&self) -> &ReconstructionReport {
        self.recon.report()
    }

    /// Traces whose outcome is final so far.
    pub fn committed(&self) -> usize {
        self.recon.committed()
    }

    /// Chunks consumed so far.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Approximate bytes held by the evictable frontier right now.
    pub fn working_set(&self) -> usize {
        self.recon.working_set()
    }

    /// Largest frontier observed at any chunk boundary — the quantity that
    /// must stay O(window) regardless of run length.
    pub fn working_set_peak(&self) -> usize {
        self.working_set_peak
    }

    /// Skew fallback notes accumulated so far (empty when skew is off).
    pub fn skew_notes(&self) -> Vec<String> {
        self.skew
            .as_ref()
            .map(|t| t.notes(&self.topology))
            .unwrap_or_default()
    }

    /// Drains everything still in flight and returns the reconstruction
    /// and timelines (bit-identical to offline when skew is off).
    pub fn finish(self) -> (Reconstruction, Timelines) {
        self.recon.finish()
    }

    /// [`finish`], then the full diagnosis pass — same period-keyed
    /// [`microscope::DiagnosisCache`] reuse as the offline engine, so the
    /// diagnoses match offline byte for byte.
    ///
    /// [`finish`]: StreamEngine::finish
    pub fn finish_and_diagnose(self, peak_rates: Vec<f64>, dcfg: DiagnosisConfig) -> StreamOutcome {
        let topology = self.topology.clone();
        let skew_notes = self.skew_notes();
        let (recon, timelines) = self.recon.finish();
        let engine = Microscope::new(topology, peak_rates, dcfg);
        let (diagnoses, cache_stats) = engine.diagnose_all_stats(&recon, &timelines);
        StreamOutcome {
            recon,
            timelines,
            diagnoses,
            cache_stats,
            skew_notes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscope::LatencyThreshold;
    use msc_collector::chunk_bundle;
    use msc_trace::{reconstruct, ReconstructionConfig};
    use nf_sim::{paper_nf_configs, Fault, SimConfig, Simulation};
    use nf_traffic::{CaidaLike, CaidaLikeConfig};
    use nf_types::{paper_topology, NfId, MICROS};

    fn paper_run(seed: u64, millis: u64) -> (Topology, Vec<f64>, msc_collector::TraceBundle) {
        let topology = paper_topology();
        let cfgs = paper_nf_configs(&topology);
        let rates: Vec<f64> = cfgs.iter().map(|c| c.service.peak_rate_pps()).collect();
        let mut sim = Simulation::new(
            topology.clone(),
            cfgs,
            SimConfig {
                seed,
                record_fates: false,
                ..Default::default()
            },
        );
        sim.add_fault(Fault::Interrupt {
            nf: topology.by_name("nat2").expect("paper topology has nat2"),
            at: millis / 2 * MILLIS,
            duration: 600 * MICROS,
        });
        let mut gen = CaidaLike::new(
            CaidaLikeConfig {
                rate_pps: 1.0e6,
                ..Default::default()
            },
            seed,
        );
        let packets = gen.generate(0, millis * MILLIS).finalize(0);
        (topology, rates, sim.run(&packets).bundle)
    }

    fn dcfg() -> DiagnosisConfig {
        let mut dc = DiagnosisConfig::default();
        dc.victims.latency = LatencyThreshold::Quantile(0.99);
        dc.victims.max_victims = Some(500);
        dc
    }

    #[test]
    fn streamed_diagnosis_matches_offline() {
        let (topology, rates, bundle) = paper_run(11, 30);
        let offline = reconstruct(&topology, &bundle, &ReconstructionConfig::default());
        let off_tl = Timelines::build(&offline);
        let off_engine = Microscope::new(topology.clone(), rates.clone(), dcfg());
        let (off_diag, _) = off_engine.diagnose_all_stats(&offline, &off_tl);

        for chunk_ms in [7, 25] {
            let mut engine = StreamEngine::new(&topology, StreamConfig::default());
            for chunk in chunk_bundle(&bundle, chunk_ms * MILLIS) {
                engine.push_chunk(&chunk).expect("chunk fits topology");
            }
            assert!(engine.chunks() > 0);
            assert!(engine.committed() <= offline.traces.len());
            let out = engine.finish_and_diagnose(rates.clone(), dcfg());
            assert_eq!(out.recon, offline, "chunk_ms={chunk_ms}");
            assert_eq!(out.timelines, off_tl, "chunk_ms={chunk_ms}");
            assert_eq!(out.diagnoses, off_diag, "chunk_ms={chunk_ms}");
            assert!(out.skew_notes.is_empty());
        }
    }

    #[test]
    fn period_tracker_sees_the_interrupt_congestion() {
        let (topology, _, bundle) = paper_run(5, 30);
        let mut engine = StreamEngine::new(&topology, StreamConfig::default());
        for chunk in chunk_bundle(&bundle, 5 * MILLIS) {
            engine.push_chunk(&chunk).expect("chunk fits topology");
        }
        // The interrupt at nat2 must have produced at least one closed
        // queuing period somewhere, and the longest must be visible.
        assert!(engine.periods().closed_periods() > 0);
        assert!(engine.periods().longest_ns() > 0);
        let nat2 = topology.by_name("nat2").expect("nat2 exists");
        assert!(engine.periods().nf(nat2).last_read.is_some());
    }

    #[test]
    fn working_set_peak_is_monotone_and_bounded() {
        let (topology, _, bundle) = paper_run(7, 20);
        let mut engine = StreamEngine::new(&topology, StreamConfig::default());
        let mut prev_peak = 0;
        for chunk in chunk_bundle(&bundle, 4 * MILLIS) {
            engine.push_chunk(&chunk).expect("chunk fits topology");
            assert!(engine.working_set_peak() >= prev_peak);
            assert!(engine.working_set_peak() >= engine.working_set());
            prev_peak = engine.working_set_peak();
        }
        assert!(prev_peak > 0);
    }

    #[test]
    fn topology_mismatch_is_reported() {
        let (topology, _, bundle) = paper_run(3, 5);
        let wrong = {
            let mut sb = nf_sim::ScenarioBuilder::new();
            let a = sb.nf(nf_types::NfKind::Nat, "only");
            sb.entry(a);
            sb.build().0
        };
        let mut engine = StreamEngine::new(&wrong, StreamConfig::default());
        let chunks = chunk_bundle(&bundle, 5 * MILLIS);
        assert!(matches!(
            engine.push_chunk(&chunks[0]),
            Err(StreamError::TopologyMismatch { .. })
        ));
        let _ = topology;
    }

    #[test]
    fn out_of_order_chunks_are_refused_with_and_without_skew() {
        let (topology, _, bundle) = paper_run(3, 12);
        let chunks = chunk_bundle(&bundle, 4 * MILLIS);
        for skew in [None, Some(SkewConfig::default())] {
            let cfg = StreamConfig {
                skew,
                ..Default::default()
            };
            // Swapped: chunk 1 arrives after chunk 2 (checked on the raw
            // timestamps, before any skew correction moves them).
            let mut engine = StreamEngine::new(&topology, cfg.clone());
            engine.push_chunk(&chunks[0]).expect("in order");
            engine
                .push_chunk(&chunks[2])
                .expect("a gap is a larger window");
            let err = engine.push_chunk(&chunks[1]).expect_err("late chunk");
            assert!(
                matches!(
                    err,
                    StreamError::OutOfOrderChunk { until, watermark, late: Some(_) }
                        if until == chunks[1].until && watermark == chunks[2].until
                ),
                "{err}"
            );
            assert_eq!(engine.chunks(), 2, "a refused chunk is not counted");
            // Replayed.
            let mut engine = StreamEngine::new(&topology, cfg);
            engine.push_chunk(&chunks[0]).expect("in order");
            let err = engine.push_chunk(&chunks[0]).expect_err("duplicate chunk");
            assert!(matches!(err, StreamError::OutOfOrderChunk { .. }), "{err}");
        }
    }

    #[test]
    fn skew_mode_corrects_offsets_and_reports_fallbacks() {
        let topology = paper_topology();
        let cfgs = paper_nf_configs(&topology);
        let rates: Vec<f64> = cfgs.iter().map(|c| c.service.peak_rate_pps()).collect();
        let offsets: Vec<i64> = (0..topology.len() as i64)
            .map(|i| (i % 5 - 2) * 1_000_000)
            .collect();
        let mut sim = Simulation::new(
            topology.clone(),
            cfgs,
            SimConfig {
                seed: 9,
                record_fates: false,
                clock_offsets_ns: offsets,
                ..Default::default()
            },
        );
        let mut gen = CaidaLike::new(
            CaidaLikeConfig {
                rate_pps: 1.0e6,
                ..Default::default()
            },
            9,
        );
        let packets = gen.generate(0, 30 * MILLIS).finalize(0);
        let bundle = sim.run(&packets).bundle;

        let cfg = StreamConfig {
            matching: MatchConfig {
                negative_slack_ns: 20 * MICROS,
                ..Default::default()
            },
            skew: Some(SkewConfig::default()),
        };
        let mut engine = StreamEngine::new(&topology, cfg);
        for chunk in chunk_bundle(&bundle, 10 * MILLIS) {
            engine.push_chunk(&chunk).expect("chunk fits topology");
        }
        let out = engine.finish_and_diagnose(rates, dcfg());
        // With ±2 ms offsets and no correction the matcher would reject
        // nearly everything; corrected streaming must deliver the bulk.
        assert!(
            out.recon.report.delivered * 10 >= out.recon.report.total * 8,
            "delivered {} of {}",
            out.recon.report.delivered,
            out.recon.report.total
        );
        let _ = NfId(0);
    }
}
