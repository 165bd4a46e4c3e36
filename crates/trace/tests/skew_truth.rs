//! The clock-offset estimator against the offsets the simulator injected.
//!
//! Each recording is a 60 ms run on the paper topology, as `microscope
//! record --millis 60` simulates it, with one of two offset patterns:
//! `record --skew`'s `(i % 5 − 2)` ms for NF `i`, and offsets drawn
//! uniformly from ±5 ms per seed, so the gate is not tuned to the first.
//! Every pattern runs at 0.7 and at 1.4 Mpps.
//!
//! The gate, per rate over both patterns: every NF estimated and every
//! offset within 50 µs of the truth on all but one recording in 40; and
//! where the simulator delivered ≥ 99 % of the packets, the run corrected by
//! the estimate reconstructs ≥ 99 % as delivered. The test profile runs 3
//! seeds per rate and pattern; a release build runs the 20-seed sweep
//! (`cargo test --release -p msc-trace --test skew_truth -- --nocapture`
//! prints each recording's worst error).

use msc_collector::TraceBundle;
use msc_trace::{
    correct_bundle, estimate_offsets_refined_detailed, reconstruct, ReconstructionConfig,
};
use nf_sim::{paper_nf_configs, SimConfig, Simulation};
use nf_traffic::{CaidaLike, CaidaLikeConfig};
use nf_types::{paper_topology, Topology, MICROS, MILLIS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeds per rate and pattern.
const SEEDS: u64 = if cfg!(debug_assertions) { 3 } else { 20 };

/// How far an offset may be from the truth.
const TOLERANCE_NS: i64 = 50 * MICROS as i64;

/// NF `i`'s clock offset at a seed.
type Pattern = fn(usize, u64) -> i64;

/// The offset patterns, by name.
const PATTERNS: [(&str, Pattern); 2] = [
    ("i % 5 - 2 ms", |i, _| (i as i64 % 5 - 2) * MILLIS as i64),
    ("uniform +-5 ms", |i, seed| {
        let mut rng = StdRng::seed_from_u64(seed << 16 | i as u64);
        rng.gen_range(-5 * MILLIS as i64..=5 * MILLIS as i64)
    }),
];

/// A 60 ms run at `rate_pps` on clocks `offsets`, and the share of its
/// packets the simulator delivered.
fn run(topology: &Topology, rate_pps: f64, seed: u64, offsets: Vec<i64>) -> (TraceBundle, f64) {
    let sim = Simulation::new(
        topology.clone(),
        paper_nf_configs(topology),
        SimConfig {
            seed,
            record_fates: false,
            clock_offsets_ns: offsets,
            ..Default::default()
        },
    );
    let mut gen = CaidaLike::new(
        CaidaLikeConfig {
            rate_pps,
            ..Default::default()
        },
        seed,
    );
    let packets = gen.generate(0, 60 * MILLIS).finalize(0);
    let out = sim.run(&packets);
    let delivered = 1.0 - out.drops.len() as f64 / packets.len().max(1) as f64;
    (out.bundle, delivered)
}

/// The share of packets the run reconstructs as delivered once corrected
/// by `offsets`, with the negative slack `diagnose --skew` gives the
/// matcher.
fn delivered_share(topology: &Topology, bundle: &TraceBundle, offsets: &[i64]) -> f64 {
    let mut cfg = ReconstructionConfig::default();
    cfg.matching.negative_slack_ns = 20 * MICROS;
    let (recon, _) = reconstruct(topology, &correct_bundle(bundle, offsets), &cfg).unwrap();
    let report = recon.report;
    report.delivered as f64 / report.total.max(1) as f64
}

/// Every recording of one rate: both patterns, `SEEDS` seeds each.
fn offsets_match_the_truth_at(rate_pps: f64) {
    let topology = paper_topology();
    let mut wrong = Vec::new();
    let mut recordings = 0;
    for (pattern, offset) in PATTERNS {
        for seed in 1..=SEEDS {
            let truth: Vec<i64> = (0..topology.len()).map(|i| offset(i, seed)).collect();
            let (bundle, simulated) = run(&topology, rate_pps, seed, truth.clone());
            let est = estimate_offsets_refined_detailed(&topology, &[&bundle]);
            let what = format!("{pattern}, seed {seed} at {} Mpps", rate_pps / 1e6);
            let worst = est
                .offsets
                .iter()
                .zip(&truth)
                .map(|(e, t)| (e - t).abs())
                .max()
                .unwrap_or(0);
            eprintln!("{what}: worst error {worst} ns, {simulated:.4} simulated delivered");
            recordings += 1;
            if worst > TOLERANCE_NS || est.available.contains(&false) {
                wrong.push(format!("{what}: {est:?} against {truth:?}"));
            } else if simulated >= 0.99 {
                let share = delivered_share(&topology, &bundle, &est.offsets);
                assert!(
                    share >= 0.99,
                    "{what}: {share} delivered once corrected, {simulated} simulated"
                );
            }
        }
    }
    assert!(
        wrong.len() <= recordings / 40,
        "{} of {recordings} recordings off by more than {TOLERANCE_NS} ns: {wrong:#?}",
        wrong.len()
    );
}

#[test]
fn offsets_match_the_truth_at_0_7_mpps() {
    offsets_match_the_truth_at(700_000.0);
}

#[test]
fn offsets_match_the_truth_at_1_4_mpps() {
    offsets_match_the_truth_at(1_400_000.0);
}
