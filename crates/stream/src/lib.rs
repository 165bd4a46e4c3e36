//! Streaming diagnosis engine — the one reconstructor every `microscope`
//! command that reconstructs runs.
//!
//! `diagnose` (alias `stream`) feeds [`StreamEngine`] the records as a stream
//! of time-ordered [`msc_collector::BundleChunk`]s, read from either bundle
//! container by `msc_collector::ChunkSource`; the figures, the
//! examples and the tests reconstruct a bundle in memory through the same
//! [`msc_trace::WindowedReconstructor`] (`msc_trace::reconstruct`, in
//! `diagnose`'s windows). The whole-run stages (`EdgeStreams::build` →
//! `match_all` → `assemble`), which reconstruct every trace from a whole
//! bundle in memory, have two readers left: the equivalence suites, which
//! spell them out as the oracle this engine is checked against, and the
//! frozen benchmark harness.
//!
//! * **Windowed reconstruction** — each chunk advances the watermark of a
//!   [`msc_trace::WindowedReconstructor`], which drives the offline matcher
//!   over the chunk: decides every read the new watermark proves stable,
//!   forwards the decided packets NF by NF and drops the consumed prefix of
//!   every column, so peak memory is bounded by the in-flight window rather
//!   than the run length.
//! * **Optional skew correction** — with [`StreamConfig::skew`] set, each
//!   chunk goes to an [`msc_trace::OffsetSettler`], which holds it until the
//!   clock offsets estimated over the held chunks settle; then the held
//!   chunks and every later one are corrected by that one estimate and
//!   ingested ([`StreamEngine::push_chunk`]). This is `diagnose --skew`;
//!   `skew` runs the settler alone and reconstructs nothing.
//!
//! Chunks must arrive in time order, each once: a chunk whose `until` does
//! not exceed the previous one's, or that carries a record from before it,
//! is refused with [`StreamError::OutOfOrderChunk`]. Within a chunk each
//! section is in time order; the bundle readers refuse one that is not.
//!
//! The streamed [`Reconstruction`], timelines and diagnoses are **equal** to
//! the whole-run reconstructor's on the concatenated bundle, and the
//! equivalence suites compare the two whole. In skew mode
//! that holds for the offsets the stream settled on; one that ends unsettled
//! estimates over all it holds: the whole-run estimate.

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

use msc_collector::BundleChunk;
use msc_trace::{
    correct_bundle, MatchConfig, OffsetSettler, Reconstruction, SkewEstimates, StreamError,
    Timelines, WindowedReconstructor,
};
use nf_types::{TimeDelta, Topology};

/// Configuration for a [`StreamEngine`].
#[derive(Debug, Clone, Default)]
pub struct StreamConfig {
    /// Matcher configuration (delay bound, lookahead, order channel...);
    /// must equal the offline run's for bit-identity.
    pub matching: MatchConfig,
    /// Estimate the clock offsets and correct every chunk by them. Off by
    /// default: the timestamps are trusted.
    pub skew: bool,
}

/// Skew mode's state.
enum Skew {
    /// The chunks held until the clock offsets settle.
    Holding(OffsetSettler),
    /// The offsets every chunk is corrected by, and how many chunks were
    /// held until they settled.
    Settled(SkewEstimates, u64),
}

/// Incremental diagnosis engine over a stream of collector chunks.
pub struct StreamEngine {
    topology: Topology,
    recon: WindowedReconstructor,
    skew: Option<Skew>,
    chunks: u64,
    working_set_peak: usize,
}

impl StreamEngine {
    /// An engine expecting chunks recorded on `topology`.
    pub fn new(topology: &Topology, cfg: StreamConfig) -> Self {
        let settler = OffsetSettler::new(cfg.matching.negative_slack_ns);
        Self {
            topology: topology.clone(),
            skew: cfg.skew.then_some(Skew::Holding(settler)),
            recon: WindowedReconstructor::new(topology, cfg.matching),
            chunks: 0,
            working_set_peak: 0,
        }
    }

    /// Consumes one chunk: checks it follows the previous one (on the raw
    /// timestamps) and advances the reconstruction watermark.
    ///
    /// In skew mode the chunk goes to the [`OffsetSettler`]; once the clock
    /// offsets settle, the held chunks and every later one are corrected by
    /// them and ingested.
    pub fn push_chunk(&mut self, chunk: &BundleChunk) -> Result<(), StreamError> {
        self.recon.admit(&chunk.bundle, chunk.until)?;
        match &mut self.skew {
            None => self.recon.advance(&chunk.bundle, chunk.until)?,
            Some(Skew::Settled(est, _)) => ingest_corrected(&mut self.recon, &est.offsets, chunk)?,
            Some(Skew::Holding(settler)) => {
                if settler.hold(&self.topology, chunk.clone()) {
                    self.ingest_held()?;
                }
            }
        }
        self.chunks += 1;
        self.working_set_peak = self.working_set_peak.max(self.working_set());
        Ok(())
    }

    /// Takes the settler's offsets as final and ingests the held chunks
    /// corrected by them.
    fn ingest_held(&mut self) -> Result<(), StreamError> {
        let Some(Skew::Holding(settler)) = &mut self.skew else {
            return Ok(());
        };
        let est = settler.finish(&self.topology);
        let held = settler.held() as u64;
        for (chunk, still_held) in settler.drain() {
            ingest_corrected(&mut self.recon, &est.offsets, &chunk)?;
            // The frontier fills while the held prefix empties.
            let frontier = self.recon.working_set() + still_held;
            self.working_set_peak = self.working_set_peak.max(frontier);
        }
        self.skew = Some(Skew::Settled(est, held));
        Ok(())
    }

    /// Traces whose outcome is final so far.
    pub fn committed(&self) -> usize {
        self.recon.committed()
    }

    /// Chunks consumed so far.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Approximate bytes held by the evictable frontier right now: the
    /// reconstructor's and, in skew mode, the chunks held back.
    pub fn working_set(&self) -> usize {
        // Every field is named: a new one does not compile until it is
        // counted here or its bound is stated.
        let Self {
            recon,
            skew,
            // Fixed: a copy of the topology given to `new`.
            topology: _,
            chunks: _,
            working_set_peak: _,
        } = self;
        let held = match skew {
            Some(Skew::Holding(settler)) => settler.bytes(),
            // Fixed: one offset per NF.
            Some(Skew::Settled(..)) | None => 0,
        };
        recon.working_set() + held
    }

    /// Largest frontier observed at any chunk boundary — the quantity that
    /// must stay O(window) regardless of run length.
    pub fn working_set_peak(&self) -> usize {
        self.working_set_peak
    }

    /// Drains everything still in flight and returns the reconstruction
    /// and timelines (bit-identical to offline).
    pub fn finish(self) -> (Reconstruction, Timelines) {
        let (recon, timelines, _) = self.finish_skewed();
        (recon, timelines)
    }

    /// [`finish`], plus the offsets a skew-mode stream was corrected by and
    /// how many chunks were held until they settled. A stream that ends
    /// unsettled settles here, on what [`OffsetSettler::finish`] returns:
    /// the estimate over all its chunks, the whole-run estimate.
    ///
    /// [`finish`]: StreamEngine::finish
    pub fn finish_skewed(mut self) -> (Reconstruction, Timelines, Option<(SkewEstimates, u64)>) {
        if matches!(&self.skew, Some(Skew::Holding(s)) if s.held() > 0) {
            // Ingesting fails only on a source record whose entry NF has no
            // source edge, and `Topology::build` gives every entry one.
            assert!(self.ingest_held().is_ok(), "held chunks fit the topology");
        }
        let skew = match self.skew {
            Some(Skew::Settled(est, held)) => Some((est, held)),
            _ => None,
        };
        let (recon, timelines) = self.recon.finish();
        (recon, timelines, skew)
    }
}

/// Rewrites `chunk` onto the source clock by `offsets` and ingests it.
fn ingest_corrected(
    recon: &mut WindowedReconstructor,
    offsets: &[TimeDelta],
    chunk: &BundleChunk,
) -> Result<(), StreamError> {
    let corrected = correct_bundle(&chunk.bundle, offsets);
    // A clock running `o` ahead has its records land up to `o` below the raw
    // chunk boundary (one running behind only moves them up): lag the
    // watermark by the largest `o`, so they are undecided when they arrive.
    let guard = offsets.iter().copied().max().unwrap_or(0).max(0);
    recon.advance(&corrected, chunk.until.saturating_sub(guard.unsigned_abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscope::{DiagnosisConfig, LatencyThreshold, Microscope};
    use msc_collector::{chunk_bundle, Collector, CollectorConfig, TraceBundle};
    use msc_trace::{
        assemble, estimate_offsets_refined_detailed, match_all, EdgeStreams, ReconstructionConfig,
    };
    use nf_sim::{paper_nf_configs, Fault, SimConfig, Simulation};
    use nf_traffic::{CaidaLike, CaidaLikeConfig};
    use nf_types::{paper_topology, MICROS, MILLIS};

    /// The whole-run reconstructor, stage by stage: the oracle the engine
    /// is compared with.
    fn whole_run(
        topology: &Topology,
        bundle: &TraceBundle,
        cfg: &ReconstructionConfig,
    ) -> Reconstruction {
        let streams = EdgeStreams::build(topology, bundle);
        let matches = match_all(&streams, topology, cfg);
        assemble(topology, bundle, streams, &matches)
    }

    fn paper_run(seed: u64, millis: u64) -> (Topology, Vec<f64>, TraceBundle) {
        paper_run_on_clocks(seed, millis, Vec::new())
    }

    /// The paper deployment with a nat2 interrupt mid-run, every NF's clock
    /// `clock_offsets_ns[nf]` ahead of the source's.
    fn paper_run_on_clocks(
        seed: u64,
        millis: u64,
        clock_offsets_ns: Vec<i64>,
    ) -> (Topology, Vec<f64>, TraceBundle) {
        let topology = paper_topology();
        let cfgs = paper_nf_configs(&topology);
        let rates: Vec<f64> = cfgs.iter().map(|c| c.service.peak_rate_pps()).collect();
        let mut sim = Simulation::new(
            topology.clone(),
            cfgs,
            SimConfig {
                seed,
                record_fates: false,
                clock_offsets_ns,
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
        let offline = whole_run(&topology, &bundle, &ReconstructionConfig::default());
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
            let (recon, timelines) = engine.finish();
            assert_eq!(recon, offline, "chunk_ms={chunk_ms}");
            assert_eq!(timelines, off_tl, "chunk_ms={chunk_ms}");
            let streamed = Microscope::new(topology.clone(), rates.clone(), dcfg());
            let (diagnoses, _) = streamed.diagnose_all_stats(&recon, &timelines);
            assert_eq!(diagnoses, off_diag, "chunk_ms={chunk_ms}");
        }
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
        for skew in [false, true] {
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
            if cfg.skew {
                // Refused on arrival, while every chunk is still held.
                assert_eq!(engine.recon.report().total, 0);
                assert!(
                    engine.working_set() > StreamEngine::new(&topology, cfg.clone()).working_set()
                );
            }
            // Replayed.
            let mut engine = StreamEngine::new(&topology, cfg);
            engine.push_chunk(&chunks[0]).expect("in order");
            let err = engine.push_chunk(&chunks[0]).expect_err("duplicate chunk");
            assert!(matches!(err, StreamError::OutOfOrderChunk { .. }), "{err}");
        }
    }

    /// `record --skew`'s clocks scaled: NF `i` runs `(i % 5 - 2) * step_ns`
    /// ahead of the source.
    fn spread_clocks(topology: &Topology, step_ns: i64) -> Vec<i64> {
        (0..topology.len() as i64)
            .map(|i| (i % 5 - 2) * step_ns)
            .collect()
    }

    fn skew_cfg() -> StreamConfig {
        StreamConfig {
            matching: MatchConfig {
                negative_slack_ns: 20 * MICROS,
                ..Default::default()
            },
            skew: true,
        }
    }

    /// The oracle of skew mode: one estimate over the whole run, one
    /// correction, the whole-run reconstructor.
    fn offline_skewed(
        topology: &Topology,
        bundle: &TraceBundle,
    ) -> (SkewEstimates, Reconstruction) {
        let est = estimate_offsets_refined_detailed(topology, &[bundle]);
        let cfg = ReconstructionConfig {
            matching: skew_cfg().matching,
        };
        let fixed = correct_bundle(bundle, &est.offsets);
        let recon = whole_run(topology, &fixed, &cfg);
        (est, recon)
    }

    fn stream_skewed(
        topology: &Topology,
        chunks: &[BundleChunk],
    ) -> (Reconstruction, Timelines, SkewEstimates, u64) {
        let mut engine = StreamEngine::new(topology, skew_cfg());
        for chunk in chunks {
            engine.push_chunk(chunk).expect("chunk fits topology");
        }
        let (recon, timelines, skew) = engine.finish_skewed();
        let (est, held_chunks) = skew.expect("a skew-mode stream with chunks settles");
        (recon, timelines, est, held_chunks)
    }

    #[test]
    fn a_skewed_stream_that_ends_unsettled_equals_offline() {
        let topology = paper_topology();
        let clocks = spread_clocks(&topology, MILLIS as i64);
        let (_, _, bundle) = paper_run_on_clocks(9, 30, clocks);
        let (whole, offline) = offline_skewed(&topology, &bundle);
        let off_tl = Timelines::build(&offline);
        // One chunk holds the whole run; at 20 ms the second chunk is the
        // smaller one, so the held prefix never doubles.
        for chunk_ms in [1_000, 20] {
            let chunks = chunk_bundle(&bundle, chunk_ms * MILLIS);
            let (recon, timelines, est, held) = stream_skewed(&topology, &chunks);
            assert_eq!(held, chunks.len() as u64, "chunk_ms={chunk_ms}");
            assert_eq!(est, whole, "chunk_ms={chunk_ms}");
            assert_eq!(recon, offline, "chunk_ms={chunk_ms}");
            assert_eq!(timelines, off_tl, "chunk_ms={chunk_ms}");
        }
    }

    /// Streamed in `chunk_ms` chunks, the run must lose no more traces than
    /// offline does (+ 0.1 %), on offsets as good as offline's.
    fn assert_settles_like_offline(seed: u64, clocks: &[i64], chunk_ms: &[u64]) {
        let topology = paper_topology();
        let (_, _, bundle) = paper_run_on_clocks(seed, 30, clocks.to_vec());
        let (whole, offline) = offline_skewed(&topology, &bundle);
        let lost = |r: &Reconstruction| r.report.inferred_drops + r.report.unresolved;
        let slack = skew_cfg().matching.negative_slack_ns;
        for &ms in chunk_ms {
            let chunks = chunk_bundle(&bundle, ms * MILLIS);
            let (recon, _, est, held) = stream_skewed(&topology, &chunks);
            let what = format!("seed {seed}, {ms} ms chunks, {held} held");
            assert_eq!(recon.report.total, offline.report.total, "{what}");
            assert!(
                lost(&recon) <= lost(&offline) + offline.report.total / 1_000,
                "{what}: lost {} of {}, offline {}",
                lost(&recon),
                recon.report.total,
                lost(&offline)
            );
            for (nf, &clock) in clocks.iter().enumerate() {
                if whole.offsets[nf].abs_diff(clock) <= slack {
                    assert!(
                        est.offsets[nf].abs_diff(clock) <= slack,
                        "{what}: NF {nf} settled at {}, clock {clock}",
                        est.offsets[nf]
                    );
                }
            }
        }
    }

    #[test]
    fn skewed_streams_settle_on_offsets_as_good_as_offline() {
        let clocks = spread_clocks(&paper_topology(), MILLIS as i64);
        for seed in [9, 10, 11] {
            assert_settles_like_offline(seed, &clocks, &[1, 5, 10]);
        }
    }

    /// The watermark lag comes from the settled offsets, whatever their size.
    #[test]
    fn skewed_streams_settle_on_clocks_8_ms_apart() {
        let clocks = spread_clocks(&paper_topology(), 4 * MILLIS as i64);
        assert_settles_like_offline(9, &clocks, &[5]);
    }

    #[test]
    fn held_chunks_count_as_working_set_until_the_offsets_settle() {
        let topology = paper_topology();
        let clocks = spread_clocks(&topology, MILLIS as i64);
        let (_, _, bundle) = paper_run_on_clocks(7, 30, clocks);
        let chunks = chunk_bundle(&bundle, 2 * MILLIS);
        // The level of an engine that holds nothing back: the same run on
        // synchronised clocks.
        let (_, _, synced) = paper_run(7, 30);
        let mut plain = StreamEngine::new(&topology, StreamConfig::default());
        let idle = plain.working_set();
        for chunk in chunk_bundle(&synced, 2 * MILLIS) {
            plain.push_chunk(&chunk).expect("chunk fits topology");
        }

        let mut engine = StreamEngine::new(&topology, skew_cfg());
        // The same policy on its own: it holds the same chunks and settles
        // on the same one.
        let mut settler = OffsetSettler::new(skew_cfg().matching.negative_slack_ns);
        // A record-free chunk is held like any other and weighs nothing.
        let quiet = BundleChunk {
            until: chunks[0].until - 2 * MILLIS,
            bundle: Collector::new(&topology, CollectorConfig::default()).into_bundle(),
        };
        engine.push_chunk(&quiet).expect("a record-free chunk");
        assert!(!settler.hold(&topology, quiet));
        assert_eq!(engine.working_set(), idle);

        let (mut held, mut settled) = (idle, None);
        for chunk in &chunks {
            engine.push_chunk(chunk).expect("chunk fits topology");
            if settled.is_some() {
                continue;
            }
            if settler.hold(&topology, chunk.clone()) {
                settled = Some((settler.finish(&topology), settler.held() as u64));
            } else {
                // Nothing is ingested while the offsets are unsettled, and
                // the held bytes are counted.
                assert_eq!(engine.recon.report().total, 0);
                held = idle + settler.bytes();
                assert_eq!(engine.working_set(), held);
            }
        }
        assert!(
            engine.recon.report().total > 0,
            "the offsets settle mid-stream"
        );
        assert!(held > idle);
        assert!(engine.working_set_peak() >= held);
        // Settled, the engine holds the reconstructor's frontier and nothing
        // else; the watermark lag keeps 2 of the 30 ms longer than `plain`.
        assert_eq!(engine.working_set(), engine.recon.working_set());
        assert!(
            engine.working_set() <= 2 * plain.working_set(),
            "after settling {} B, synchronised clocks {} B",
            engine.working_set(),
            plain.working_set()
        );
        let (.., skew) = engine.finish_skewed();
        assert!(settled.is_some(), "the settler settles mid-stream");
        // Finish keeps the estimate the stream settled on, and the chunk
        // that settled it was held too.
        assert_eq!(skew, settled);
    }
}
