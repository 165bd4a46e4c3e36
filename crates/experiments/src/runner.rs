//! Building and running complete experiment scenarios.

use crate::inject::InjectionPlan;
use microscope::{Diagnosis, DiagnosisConfig, LatencyThreshold, Microscope};
use msc_trace::{reconstruct, Reconstruction, ReconstructionConfig, Timelines};
use nf_sim::{paper_nf_configs, SimConfig, SimOutput, Simulation};
use nf_traffic::{CaidaLike, CaidaLikeConfig, Schedule};
use nf_types::{paper_topology, Nanos, Topology, MICROS, MILLIS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Specification of one experiment run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Simulated duration.
    pub duration: Nanos,
    /// Aggregate background rate in pps.
    pub rate_pps: f64,
    /// Master seed (traffic, plan, service noise).
    pub seed: u64,
    /// The injected problems.
    pub plan: InjectionPlan,
    /// Diagnosis configuration.
    pub diagnosis: DiagnosisConfig,
}

impl RunSpec {
    /// A spec with paper-like defaults: 1.2 Mpps, no injections yet.
    pub fn new(duration: Nanos, rate_pps: f64, seed: u64) -> Self {
        Self {
            duration,
            rate_pps,
            seed,
            plan: InjectionPlan::default(),
            diagnosis: DiagnosisConfig::default(),
        }
    }
}

/// Everything one run produced: simulator ground truth, the offline
/// reconstruction and Microscope's diagnoses.
pub struct RunResult {
    /// The topology used.
    pub topology: Topology,
    /// Per-NF peak rates `r_i` handed to Microscope.
    pub peak_rates: Vec<f64>,
    /// Simulator output (ground truth + collector bundle).
    pub out: SimOutput,
    /// Offline trace reconstruction.
    pub recon: Reconstruction,
    /// Microscope diagnoses of all selected victims.
    pub diagnoses: Vec<Diagnosis>,
}

impl RunResult {
    /// Instance kind lookup for pattern aggregation.
    pub fn kind_of(&self) -> impl Fn(nf_types::NfId) -> nf_types::NfKind + '_ {
        |id| self.topology.nf(id).kind
    }
}

/// Simulates a spec on the paper's 16-NF topology (Fig. 10): background
/// traffic plus the plan's, the plan's faults, its bursts journaled. Returns
/// the topology, the per-NF peak rates and the simulator's output.
pub fn simulate(spec: &RunSpec) -> (Topology, Vec<f64>, SimOutput) {
    let topology = paper_topology();
    let nf_configs = paper_nf_configs(&topology);
    let peak_rates: Vec<f64> = nf_configs
        .iter()
        .map(|c| c.service.peak_rate_pps())
        .collect();

    let mut gen = CaidaLike::new(
        CaidaLikeConfig {
            rate_pps: spec.rate_pps,
            ..Default::default()
        },
        spec.seed,
    );
    let background = gen.generate(0, spec.duration);
    let extra = spec.plan.extra_traffic(spec.duration);
    let packets = Schedule::merge([background, extra]).finalize(0);

    let mut sim = Simulation::new(
        topology.clone(),
        nf_configs,
        SimConfig {
            seed: spec.seed.wrapping_add(1),
            ..Default::default()
        },
    );
    for f in spec.plan.faults() {
        sim.add_fault(f);
    }
    for b in &spec.plan.bursts {
        sim.journal_burst(vec![b.flow], b.window());
    }
    let out = sim.run(&packets);
    (topology, peak_rates, out)
}

/// Simulates a spec, then reconstructs the traces offline and diagnoses
/// every victim.
pub fn run_spec(spec: &RunSpec) -> RunResult {
    let (topology, peak_rates, out) = simulate(spec);
    let recon = reconstruct(&topology, &out.bundle, &ReconstructionConfig::default());
    let timelines = Timelines::build(&recon);
    let ms = Microscope::new(topology.clone(), peak_rates.clone(), spec.diagnosis.clone());
    let diagnoses = ms.diagnose_all(&recon, &timelines);
    RunResult {
        topology,
        peak_rates,
        out,
        recon,
        diagnoses,
    }
}

/// The §6.5 "running in the wild" setting: high load (1.6 Mpps in the
/// paper), no *injected* problems, diagnosing the extreme latency tail —
/// the `quantile` of latency, at most 5 000 victims.
///
/// Real servers are never quiet: the paper's testbed suffers natural
/// interrupts, context switches and cache pressure all the time (that is
/// what §6.5 diagnoses). The simulator's service model only carries
/// fine-grained jitter, so the wild run adds seeded "natural" stalls — at
/// each NF one every 8–30 ms, 300 µs–1.5 ms long — standing in for OS
/// housekeeping. They are the plan's interrupts, so they are journaled
/// (they *are* the ground truth of this run); nothing is ever injected
/// into the traffic.
pub fn wild_run(duration: Nanos, rate_pps: f64, seed: u64, quantile: f64) -> RunResult {
    let mut spec = RunSpec::new(duration, rate_pps, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51D_CAFE);
    for nf in paper_topology().nfs() {
        let mut t: f64 = rng.gen_range(0.0..60.0) * MILLIS as f64;
        while (t as Nanos) < duration {
            // Natural stalls sit in the same band as the paper's injected
            // interrupts (hundreds of µs to ~1.5 ms). With the bottleneck
            // VPNs near saturation, even these short stalls leave queues
            // that take tens of ms to drain — the Fig. 15 long tail —
            // and their squeezed releases push ring-scale delays onto
            // *other* packets downstream (Table 2's propagation).
            let stall = rng.gen_range(300.0..1_500.0) * MICROS as f64;
            spec.plan
                .interrupts
                .push((nf.id, t as Nanos, stall as Nanos));
            // float: canonical-order(sequential accumulation over a seeded RNG stream)
            t += rng.gen_range(8.0..30.0) * MILLIS as f64;
        }
    }
    spec.diagnosis.victims.latency = LatencyThreshold::Quantile(quantile);
    spec.diagnosis.victims.max_victims = Some(5_000);
    run_spec(&spec)
}

/// Picks plausible burst-victim flows for plan generation from a dry pass
/// of the traffic generator (the paper picks 5 random five-tuple flows from
/// the trace).
pub fn candidate_flows(rate_pps: f64, seed: u64) -> Vec<nf_types::FiveTuple> {
    let mut gen = CaidaLike::new(
        CaidaLikeConfig {
            rate_pps,
            ..Default::default()
        },
        seed,
    );
    // Warm the generator slightly so slots churn once.
    let _ = gen.generate(0, 500 * MICROS);
    gen.active_flows().into_iter().take(64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::PlanConfig;

    #[test]
    fn small_run_end_to_end() {
        let mut spec = RunSpec::new(30 * MILLIS, 1_200_000.0, 5);
        let flows = candidate_flows(spec.rate_pps, spec.seed);
        spec.plan = InjectionPlan::random(
            &paper_topology(),
            spec.duration,
            &flows,
            &PlanConfig {
                n_bursts: 1,
                n_interrupts: 0,
                with_bug: false,
                start: 5 * MILLIS,
                ..Default::default()
            },
            spec.seed,
        );
        let r = run_spec(&spec);
        assert!(r.recon.report.total > 10_000);
        // §7: IPID reconstruction can confuse two same-IPID packets that
        // land in the same read batch (identical timing, identity swapped).
        // Keep the rate well under 0.1%.
        assert!(
            (r.recon.report.flow_mismatches as f64) < 1e-3 * r.recon.report.total as f64,
            "{:?}",
            r.recon.report
        );
        // The burst creates victims and diagnoses.
        assert!(!r.diagnoses.is_empty());
        // Journal carries the burst ground truth.
        assert_eq!(r.out.journal.events.len(), 1);
    }
}
