//! Offline-path benchmark: wall time of trace reconstruction + victim
//! diagnosis on the paper's 16-NF deployment, with an injected interrupt so
//! the diagnosis layer has real queue build-ups to walk.
//!
//! Runs standalone (`harness = false`): `cargo bench --bench diagnose`
//! measures a full-size scenario and writes a trajectory entry to
//! `results/BENCH_diagnose.json` at the workspace root; without `--bench`
//! in the arguments it runs a quick smoke configuration and skips the file.
//!
//! One correctness gate runs before anything is timed: the period-keyed
//! step cache must be invisible — the cached pipeline's diagnoses must be
//! bit-identical to a cache-disabled run.
//!
//! The JSON records `baseline_diagnose_ms` (cache off) next to the cached
//! timing plus the cache hit rate, so the perf trajectory stays comparable
//! across PRs.
//!
//! A second, skewed scenario (the same deployment spread over ±2 ms
//! clocks) times the clock-offset estimator against the implementation it
//! replaced — the test-only oracle of `msc-trace`'s `skew_equivalence`
//! suite, included here by path — in the same process on the same bundle.
//! The two must return identical estimates or the bench fails.

use microscope::{CacheStats, Diagnosis, DiagnosisConfig, LatencyThreshold, Microscope};
use msc_trace::{
    assemble, estimate_offsets_detailed, estimate_offsets_refined_detailed, match_all, reconstruct,
    EdgeStreams, Reconstruction, ReconstructionConfig, SkewConfig, Timelines,
};
use nf_sim::{paper_nf_configs, Fault, SimConfig, SimOutput, Simulation};
use nf_traffic::{CaidaLike, CaidaLikeConfig};
use nf_types::{paper_topology, Topology, MILLIS};
use std::time::Instant;

#[path = "../../trace/tests/skew_oracle/mod.rs"]
mod skew_oracle;

/// Sequential reconstruction wall time recorded before the flat-index /
/// hop-arena rewrite (same scenario, same machine class). Kept as a
/// constant so the trajectory in `results/BENCH_diagnose.json` stays
/// comparable now that the old implementation is gone.
const BASELINE_RECONSTRUCT_MS: f64 = 454.019;

struct Scenario {
    topology: Topology,
    peak_rates: Vec<f64>,
    out: SimOutput,
}

/// `skewed`: spread the NFs over "servers" with ±2 ms clock offsets (what
/// `microscope record --skew` does).
fn scenario(rate_pps: f64, millis: u64, seed: u64, skewed: bool) -> Scenario {
    let topology = paper_topology();
    let cfgs = paper_nf_configs(&topology);
    let peak_rates: Vec<f64> = cfgs.iter().map(|c| c.service.peak_rate_pps()).collect();
    let mut gen = CaidaLike::new(
        CaidaLikeConfig {
            rate_pps,
            ..Default::default()
        },
        seed,
    );
    let packets = gen.generate(0, millis * MILLIS).finalize(0);
    let mut sim_cfg = SimConfig::default();
    if skewed {
        sim_cfg.clock_offsets_ns = (0..topology.len() as i64)
            .map(|i| (i % 5 - 2) * 1_000_000)
            .collect();
    }
    let mut sim = Simulation::new(topology.clone(), cfgs, sim_cfg);
    // A 1 ms interrupt mid-run produces a burst of genuine victims.
    let nat2 = topology.by_name("nat2").expect("paper topology has nat2");
    sim.add_fault(Fault::Interrupt {
        nf: nat2,
        at: (millis / 2) * MILLIS,
        duration: MILLIS,
    });
    let out = sim.run(&packets);
    Scenario {
        topology,
        peak_rates,
        out,
    }
}

fn diagnosis_config(cache: bool) -> DiagnosisConfig {
    let mut dc = DiagnosisConfig {
        cache,
        ..Default::default()
    };
    dc.victims.latency = LatencyThreshold::Quantile(0.95);
    dc
}

fn run_reconstruct(sc: &Scenario) -> Reconstruction {
    reconstruct(
        &sc.topology,
        &sc.out.bundle,
        &ReconstructionConfig::default(),
    )
}

fn run_diagnose(
    sc: &Scenario,
    recon: &Reconstruction,
    cache: bool,
) -> (Vec<Diagnosis>, CacheStats) {
    let timelines = Timelines::build(recon);
    let engine = Microscope::new(
        sc.topology.clone(),
        sc.peak_rates.clone(),
        diagnosis_config(cache),
    );
    engine.diagnose_all_stats(recon, &timelines)
}

/// Minimum wall time over `reps` runs, in seconds.
fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let measure = std::env::args().any(|a| a == "--bench");
    let (rate_pps, millis, seed, reps) = if measure {
        (1_400_000.0, 120, 42, 9)
    } else {
        (1_000_000.0, 10, 42, 1)
    };
    eprintln!("scenario: paper 16-NF topology, {rate_pps:.0} pps for {millis} ms (seed {seed})");
    let sc = scenario(rate_pps, millis, seed, false);
    eprintln!(
        "simulated {} source packets",
        sc.out.bundle.source_flows.len()
    );

    // Correctness gate: the step cache must not change a single bit of the
    // output before either configuration is worth timing.
    let seq_recon = run_reconstruct(&sc);
    let (seq_diag, seq_stats) = run_diagnose(&sc, &seq_recon, true);
    assert!(!seq_diag.is_empty(), "scenario produced no victims");
    let (nocache_diag, nocache_stats) = run_diagnose(&sc, &seq_recon, false);
    assert_eq!(nocache_diag, seq_diag, "cache changed the diagnosis output");
    assert_eq!(nocache_stats, CacheStats::default());
    eprintln!(
        "output identical with the cache on and off \
         ({} traces, {} diagnoses, {:.1}% step-cache hit rate)",
        seq_recon.traces.len(),
        seq_diag.len(),
        seq_stats.hit_rate() * 100.0
    );

    // The trajectory baseline: the unshared (cache-off) path.
    let baseline_s = time_best(reps, || run_diagnose(&sc, &seq_recon, false));

    // Per-stage breakdown of the reconstruction: min over reps of each
    // stage, measured in a single staged pass so every stage sees the same
    // inputs as the fused `reconstruct` call.
    let cfg1 = ReconstructionConfig::default();
    let mut stage_s = [f64::INFINITY; 3];
    for _ in 0..reps {
        let t0 = Instant::now();
        let streams = EdgeStreams::build(&sc.topology, &sc.out.bundle);
        let t1 = Instant::now();
        let matches = match_all(&streams, &sc.topology, &cfg1);
        let t2 = Instant::now();
        std::hint::black_box(assemble(&sc.topology, &sc.out.bundle, streams, &matches));
        let t3 = Instant::now();
        stage_s[0] = stage_s[0].min((t1 - t0).as_secs_f64());
        stage_s[1] = stage_s[1].min((t2 - t1).as_secs_f64());
        stage_s[2] = stage_s[2].min((t3 - t2).as_secs_f64());
    }
    eprintln!(
        "reconstruct stages: streams {:.1} ms, matching {:.1} ms, \
         assemble {:.1} ms (pre-rewrite baseline {BASELINE_RECONSTRUCT_MS:.1} ms)",
        stage_s[0] * 1e3,
        stage_s[1] * 1e3,
        stage_s[2] * 1e3
    );

    // Interleave the two timed calls so a slow system phase penalises both
    // equally instead of skewing whichever block it landed in.
    let mut recon_s = f64::INFINITY;
    let mut diag_s = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(run_reconstruct(&sc));
        recon_s = recon_s.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        std::hint::black_box(run_diagnose(&sc, &seq_recon, true));
        diag_s = diag_s.min(t0.elapsed().as_secs_f64());
    }
    eprintln!(
        "reconstruct {:.1} ms, diagnose {:.1} ms (uncached baseline {:.1} ms)",
        recon_s * 1e3,
        diag_s * 1e3,
        baseline_s * 1e3
    );

    // Clock-offset estimation on the skewed twin of the benchmark's
    // `skew-120ms` shape. Gate first, then time both sides interleaved; the
    // stage split uses only public calls, so `coarse` includes the one
    // stream + index build and `refine` is the three passes' remainder.
    let (skew_rate_pps, skew_millis) = if measure {
        (700_000.0, 120)
    } else {
        (rate_pps, millis)
    };
    let skewed = scenario(skew_rate_pps, skew_millis, seed, true);
    let (topo, bundle, skew_cfg) = (&skewed.topology, &skewed.out.bundle, SkewConfig::default());
    let estimate = estimate_offsets_refined_detailed(topo, bundle, &skew_cfg);
    assert_eq!(
        estimate,
        skew_oracle::estimate_offsets_refined_detailed(topo, bundle, &skew_cfg),
        "the estimator and its oracle disagree"
    );
    let skew_reps = reps.min(5);
    let mut skew_s = f64::INFINITY;
    let mut skew_baseline_s = f64::INFINITY;
    for _ in 0..skew_reps {
        skew_s = skew_s.min(time_best(1, || {
            estimate_offsets_refined_detailed(topo, bundle, &skew_cfg)
        }));
        skew_baseline_s = skew_baseline_s.min(time_best(1, || {
            skew_oracle::estimate_offsets_refined_detailed(topo, bundle, &skew_cfg)
        }));
    }
    let skew_streams_s = time_best(skew_reps, || EdgeStreams::build(topo, bundle));
    let skew_coarse_s = time_best(skew_reps, || {
        estimate_offsets_detailed(topo, bundle, &skew_cfg)
    });
    eprintln!(
        "skew estimate {:.1} ms (streams {:.1} ms, streams + index + coarse {:.1} ms), \
         oracle {:.1} ms, identical offsets",
        skew_s * 1e3,
        skew_streams_s * 1e3,
        skew_coarse_s * 1e3,
        skew_baseline_s * 1e3
    );

    let json = format!(
        "{{\n  \"bench\": \"diagnose\",\n  \"scenario\": {{\"topology\": \"paper-16nf\", \
         \"rate_pps\": {rate_pps:.0}, \"millis\": {millis}, \"seed\": {seed}, \
         \"source_packets\": {}, \"victims\": {}}},\n  \
         \"identical_output\": true,\n  \
         \"cache_hit_rate\": {:.4},\n  \"baseline_diagnose_ms\": {:.3},\n  \
         \"baseline_reconstruct_ms\": {BASELINE_RECONSTRUCT_MS:.3},\n  \
         \"reconstruct_stage_ms\": {{\"streams_build\": {:.3}, \"matching\": {:.3}, \
         \"assemble\": {:.3}}},\n  \
         \"reconstruct_ms\": {:.3},\n  \"diagnose_ms\": {:.3},\n  \
         \"skew_scenario\": {{\"rate_pps\": {skew_rate_pps:.0}, \"millis\": {skew_millis}, \
         \"seed\": {seed}, \"clock_offsets_ms\": \"+-2\", \"source_packets\": {}}},\n  \
         \"identical_offsets\": true,\n  \
         \"baseline_skew_estimate_ms\": {:.3},\n  \
         \"skew_stage_ms\": {{\"streams_build\": {:.3}, \"index_and_coarse\": {:.3}, \
         \"refine\": {:.3}}},\n  \
         \"skew_estimate_ms\": {:.3}\n}}\n",
        sc.out.bundle.source_flows.len(),
        seq_diag.len(),
        seq_stats.hit_rate(),
        baseline_s * 1e3,
        stage_s[0] * 1e3,
        stage_s[1] * 1e3,
        stage_s[2] * 1e3,
        recon_s * 1e3,
        diag_s * 1e3,
        bundle.source_flows.len(),
        skew_baseline_s * 1e3,
        skew_streams_s * 1e3,
        (skew_coarse_s - skew_streams_s) * 1e3,
        (skew_s - skew_coarse_s) * 1e3,
        skew_s * 1e3
    );

    if measure {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results/BENCH_diagnose.json");
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir results/");
        std::fs::write(&path, &json).expect("write BENCH_diagnose.json");
        eprintln!("wrote {}", path.display());
    } else {
        eprintln!("smoke mode (no --bench): skipping results/BENCH_diagnose.json");
    }
    print!("{json}");
}
