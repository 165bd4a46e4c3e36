//! Memoization-correctness tests: the period-keyed step cache must be
//! invisible in every output bit.
//!
//! Cache entries are pure functions of their `(nf, anchor, threshold)` key
//! for a fixed reconstruction and configuration, so a cached run must
//! produce diagnoses identical to the cache-disabled path. These tests pin
//! that across seeds on the paper's 16-NF deployment.

use microscope_repro::prelude::*;

fn run_16nf(rate: f64, millis: u64, seed: u64) -> (Topology, Vec<f64>, Reconstruction, Timelines) {
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
    sim.add_fault(Fault::Interrupt {
        nf: nat2,
        at: (millis / 2) * MILLIS,
        duration: MILLIS,
    });
    let out = sim.run(&packets);
    let (recon, timelines) =
        reconstruct(&topology, &out.bundle, &ReconstructionConfig::default()).unwrap();
    (topology, rates, recon, timelines)
}

fn config(cache: bool) -> DiagnosisConfig {
    DiagnosisConfig {
        cache,
        ..Default::default()
    }
}

#[test]
fn cached_diagnosis_is_bit_identical_to_uncached_across_seeds() {
    for seed in [11u64, 23, 47] {
        let (t, rates, recon, timelines) = run_16nf(1_200_000.0, 20, seed);

        // Ground truth: cache disabled (no sharing of any kind).
        let plain = Microscope::new(t.clone(), rates.clone(), config(false));
        let (expected, off_stats) = plain.diagnose_all_stats(&recon, &timelines);
        assert!(!expected.is_empty(), "seed {seed} produced no victims");
        assert_eq!(
            off_stats,
            CacheStats::default(),
            "disabled cache must report zero activity"
        );

        let engine = Microscope::new(t, rates, config(true));
        let (got, stats) = engine.diagnose_all_stats(&recon, &timelines);
        assert_eq!(got, expected, "seed {seed}: cached output diverged");
        // Victims cluster in bursts, so sharing must actually happen — a
        // cache that never hits is a silent repeat of the per-victim
        // recomputation it exists to remove.
        assert!(
            stats.hits > 0,
            "seed {seed}: no cache hits over {} victims",
            expected.len()
        );
        // One entry per miss: nothing is computed twice or evicted.
        assert!(stats.entries > 0 && stats.entries == stats.misses);
    }
}

#[test]
fn repeated_cached_runs_are_identical() {
    // Same engine config, two independent runs (fresh cache each): the
    // diagnoses and the cache counters must reproduce.
    let (t, rates, recon, timelines) = run_16nf(1_300_000.0, 15, 7);
    let engine = Microscope::new(t, rates, config(true));
    let (a, sa) = engine.diagnose_all_stats(&recon, &timelines);
    let (b, sb) = engine.diagnose_all_stats(&recon, &timelines);
    assert_eq!(a, b);
    assert_eq!(sa, sb, "cache statistics must be deterministic");
    assert!(sa.hit_rate() > 0.0);
}
