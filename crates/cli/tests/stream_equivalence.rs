//! Streaming-equivalence suite: the streamed pipeline must be a bit-exact
//! replay of the offline oracle.
//!
//! The offline pipeline (the whole-run stages `EdgeStreams::build` →
//! `match_all` → `assemble`, spelled out here, then `Timelines::build` and
//! diagnosis) stays the ground truth; `StreamEngine` consumes the identical
//! records as time chunks and must produce an equal `Reconstruction`
//! (traces, hop arena, report, read batches, back-references, path trie),
//! equal timelines and equal diagnoses for every seed, chunk size, and
//! cache setting. Chunk sizes run from far below the read batch spacing (every
//! chunk splits queues mid-flight) to one chunk holding the whole run.
//! Skew mode, where the engine settles its offsets on a prefix of the
//! stream, is held to the same oracle by `msc-stream`'s unit tests
//! (`a_skewed_stream_that_ends_unsettled_equals_offline`,
//! `skewed_streams_settle_on_offsets_as_good_as_offline`).

use microscope::{DiagnosisConfig, LatencyThreshold, Microscope};
use msc_collector::{chunk_bundle, TraceBundle};
use msc_stream::{StreamConfig, StreamEngine};
use msc_trace::{
    assemble, match_all, reconstruct, EdgeStreams, Reconstruction, ReconstructionConfig, Timelines,
};
use nf_sim::{paper_nf_configs, Fault, SimConfig, Simulation};
use nf_traffic::{CaidaLike, CaidaLikeConfig};
use nf_types::{paper_topology, Topology, MICROS, MILLIS};

/// The whole-run reconstructor, stage by stage: the oracle.
fn whole_run(
    topology: &Topology,
    bundle: &TraceBundle,
    cfg: &ReconstructionConfig,
) -> Reconstruction {
    let streams = EdgeStreams::build(topology, bundle);
    let matches = match_all(&streams, topology, cfg);
    assemble(topology, bundle, streams, &matches)
}

/// The paper deployment with a long nat2 interrupt.
fn run_16nf(rate: f64, millis: u64, seed: u64) -> (Topology, Vec<f64>, TraceBundle) {
    let topology = paper_topology();
    let cfgs = paper_nf_configs(&topology);
    let rates: Vec<f64> = cfgs.iter().map(|c| c.service.peak_rate_pps()).collect();
    let mut gen = CaidaLike::new(
        CaidaLikeConfig {
            rate_pps: rate,
            ..Default::default()
        },
        seed,
    );
    let packets = gen.generate(0, millis * MILLIS).finalize(0);
    let mut sim = Simulation::new(topology.clone(), cfgs, SimConfig::default());
    let nat2 = topology.by_name("nat2").unwrap();
    // Long enough to overflow nat2's ring at the higher offered rates, so
    // the suite covers inferred drops and flow mismatches, not just the
    // happy path.
    sim.add_fault(Fault::Interrupt {
        nf: nat2,
        at: (millis / 2) * MILLIS,
        duration: 3 * MILLIS,
    });
    let out = sim.run(&packets);
    (topology, rates, out.bundle)
}

fn diag_config(cache: bool) -> DiagnosisConfig {
    let mut dc = DiagnosisConfig {
        cache,
        ..Default::default()
    };
    dc.victims.latency = LatencyThreshold::Quantile(0.99);
    dc.victims.max_victims = Some(2_000);
    dc
}

#[test]
fn streamed_pipeline_is_bit_identical_to_offline() {
    for seed in [11u64, 42] {
        let (topology, rates, bundle) = run_16nf(1_600_000.0, 20, seed);
        let cfg = ReconstructionConfig::default();
        let offline = whole_run(&topology, &bundle, &cfg);
        let off_tl = Timelines::build(&offline);
        assert!(
            offline.report.delivered > 0 && offline.report.inferred_drops > 0,
            "seed {seed}: run must exercise drops"
        );
        // What the figures and the tests call: the engine in `diagnose`'s
        // windows over the bundle in memory.
        let (recon, timelines) = reconstruct(&topology, &bundle, &cfg).unwrap();
        assert_eq!(recon, offline, "seed {seed}: reconstruct");
        assert_eq!(timelines, off_tl, "seed {seed}: reconstruct");
        let oracle = Microscope::new(topology.clone(), rates.clone(), diag_config(true));
        let (off_diag, _) = oracle.diagnose_all_stats(&offline, &off_tl);
        assert!(!off_diag.is_empty(), "seed {seed} produced no victims");

        for chunk_us in [200u64, 3_000, 11_000, 1_000_000] {
            for cache in [true, false] {
                let tag = format!("seed {seed}, chunk {chunk_us} us, cache {cache}");
                let mut engine = StreamEngine::new(&topology, StreamConfig::default());
                let chunks = chunk_bundle(&bundle, chunk_us * MICROS);
                assert_eq!(chunks.len() == 1, chunk_us == 1_000_000, "{tag}");
                for chunk in chunks {
                    engine.push_chunk(&chunk).expect("chunk fits topology");
                }
                let (recon, timelines) = engine.finish();
                assert_eq!(recon, offline, "{tag}: reconstruction");
                assert_eq!(timelines, off_tl, "{tag}: timelines");
                let streamed = Microscope::new(topology.clone(), rates.clone(), diag_config(cache));
                let (diagnoses, _) = streamed.diagnose_all_stats(&recon, &timelines);
                assert_eq!(diagnoses, off_diag, "{tag}: diagnoses");
            }
        }
    }
}

#[test]
fn working_set_stays_bounded_as_the_run_grows() {
    // Peak frontier bytes must track the chunk window, not the run length:
    // a 4x longer run at the same chunk size may not inflate the peak more
    // than a small constant factor.
    let chunk = 4 * MILLIS;
    let mut peaks = Vec::new();
    for millis in [10u64, 40] {
        let (topology, _, bundle) = run_16nf(1_000_000.0, millis, 13);
        let mut engine = StreamEngine::new(&topology, StreamConfig::default());
        for c in chunk_bundle(&bundle, chunk) {
            engine.push_chunk(&c).expect("chunk fits topology");
        }
        peaks.push(engine.working_set_peak());
        let (recon, _) = engine.finish();
        assert!(recon.report.total > 0);
    }
    let (small, large) = (peaks[0], peaks[1]);
    assert!(
        large < small.max(1) * 3,
        "peak frontier grew with run length: {small} -> {large}"
    );
}
