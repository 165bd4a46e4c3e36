//! Smoke test of the full §6.2 accuracy pipeline on short runs: inject
//! known problems, diagnose with both tools, and check that Microscope
//! ranks the true culprit first for the clear majority of victims while
//! clearly beating NetMedic — on five seeds, each with its own floor, and
//! pooled.

use msc_experiments::runner::candidate_flows;
use msc_experiments::scoring::{correct_rate, score_run};
use msc_experiments::{build_history, run_spec, InjectionPlan, PlanConfig, RunSpec};
use netmedic::{NetMedic, NetMedicConfig};
use nf_types::{paper_topology, MILLIS};

/// Microscope's and NetMedic's culprit rank per attributable victim of
/// one 260 ms run at 1.2 Mpps with 3 bursts, 2 interrupts and a bug.
fn ranks(seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut spec = RunSpec::new(260 * MILLIS, 1_200_000.0, seed);
    spec.diagnosis.victims.max_victims = Some(600);
    let flows = candidate_flows(spec.rate_pps, spec.seed);
    spec.plan = InjectionPlan::random(
        &paper_topology(),
        spec.duration,
        &flows,
        &PlanConfig {
            n_bursts: 3,
            n_interrupts: 2,
            with_bug: true,
            ..Default::default()
        },
        spec.seed,
    );
    let run = run_spec(&spec);

    // §7: IPID-based reconstruction can occasionally fail; under burst-
    // induced ring overflows we tolerate a sub-0.01% mismatch rate.
    let mismatch_rate =
        run.recon.report.flow_mismatches as f64 / run.recon.report.delivered.max(1) as f64;
    assert!(mismatch_rate < 1e-4, "seed {seed}: {:?}", run.recon.report);
    assert!(
        !run.out.journal.events.is_empty(),
        "seed {seed}: injections must be journaled"
    );
    assert!(
        !run.diagnoses.is_empty(),
        "seed {seed}: injections must create victims"
    );

    let nm = NetMedic::new(run.topology.clone(), NetMedicConfig::default());
    let hist = build_history(
        &run.out,
        run.topology.len(),
        &run.peak_rates,
        nm.window_ns(),
    );
    let scored = score_run(&run, &nm, &hist);
    assert!(
        scored.len() > 50,
        "seed {seed}: expected many attributable victims, got {}",
        scored.len()
    );
    scored
        .iter()
        .map(|s| (s.microscope_rank, s.netmedic_rank))
        .unzip()
}

#[test]
fn microscope_beats_netmedic_on_injected_problems() {
    let mut pooled = Vec::new();
    for seed in 17..=21 {
        let (ms_ranks, nm_ranks) = ranks(seed);
        let ms_rate = correct_rate(&ms_ranks);
        let nm_rate = correct_rate(&nm_ranks);
        eprintln!(
            "seed {seed}: victims {}  microscope rank-1 {:.1}%  netmedic rank-1 {:.1}%",
            ms_ranks.len(),
            ms_rate * 100.0,
            nm_rate * 100.0
        );
        // Shape of Fig. 11: Microscope's correct rate is high (the paper
        // gets 89.7%) and clearly above NetMedic's (36%). Seeds 17–21
        // measure 84.5–99.0% against NetMedic's 0.3–9.5%.
        assert!(
            ms_rate >= 0.80,
            "seed {seed}: microscope correct rate {ms_rate}"
        );
        assert!(
            ms_rate > nm_rate,
            "seed {seed}: microscope {ms_rate} must beat netmedic {nm_rate}"
        );
        pooled.extend(ms_ranks);
    }
    // Measured 95.0% over the five seeds' victims.
    let rate = correct_rate(&pooled);
    assert!(rate >= 0.90, "pooled microscope correct rate {rate}");
}
