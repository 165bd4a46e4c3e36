//! Shared driver for the §6.2 accuracy experiments (Figs. 11–13, §6.3).

use crate::cli::Params;
use crate::inject::{InjectionPlan, PlanConfig};
use crate::netmedic_adapter::build_history;
use crate::runner::{candidate_flows, run_spec, RunResult, RunSpec};
use crate::scoring::{score_run, ScoredVictim};
use netmedic::{NetMedic, NetMedicConfig};
use nf_types::{paper_topology, Nanos, MILLIS};

/// Runs the standard accuracy experiment: paper topology, CAIDA-like
/// background, randomised injections, Microscope + NetMedic scoring.
pub struct AccuracyRun {
    /// The run itself (ground truth, reconstruction, diagnoses).
    pub run: RunResult,
    /// Per-victim ranks for both tools.
    pub scored: Vec<ScoredVictim>,
}

/// Executes one accuracy run, NetMedic correlating over its best window
/// (10 ms, Fig. 13).
pub fn accuracy_run(p: &Params, plan_cfg: &PlanConfig, max_victims: usize) -> AccuracyRun {
    let (duration, seed) = (p.duration_ns(), p.seed);
    let mut spec = RunSpec::new(duration, p.rate_pps(), seed);
    spec.diagnosis.victims.max_victims = Some(max_victims);
    let flows = candidate_flows(p.rate_pps(), seed);
    spec.plan = InjectionPlan::random(&paper_topology(), duration, &flows, plan_cfg, seed);
    let run = run_spec(&spec);
    let scored = rescore_with_window(&run, 10 * MILLIS);
    AccuracyRun { run, scored }
}

/// Scores a run against its journal with both tools, NetMedic correlating
/// over `window_ns` windows (Fig. 13 re-scores one run at several).
pub fn rescore_with_window(run: &RunResult, window_ns: Nanos) -> Vec<ScoredVictim> {
    let nm = NetMedic::new(run.topology.clone(), NetMedicConfig { window_ns });
    let hist = build_history(&run.out, run.topology.len(), &run.peak_rates, window_ns);
    score_run(
        &run.topology,
        &run.out.journal.events,
        &run.diagnoses,
        &nm,
        &hist,
    )
}
