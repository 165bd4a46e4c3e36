//! Cross-crate integration tests: the full pipeline from traffic synthesis
//! through simulation, collection, reconstruction, diagnosis and pattern
//! aggregation, checked against simulator ground truth.

use autofocus::{aggregate_patterns, PatternConfig};
use microscope::{diagnoses_to_relations, DiagnosisConfig, Microscope};
use msc_collector::CollectorConfig;
use msc_trace::{reconstruct, Reconstruction, ReconstructionConfig, Timelines, TraceOutcome};
use nf_sim::{paper_nf_configs, Fault, PacketOutcome, SimConfig, Simulation};
use nf_traffic::{burst, CaidaLike, CaidaLikeConfig, Schedule};
use nf_types::{paper_topology, FiveTuple, NodeId, Proto, Topology, MILLIS};

fn run_paper_chain(
    rate: f64,
    millis: u64,
    seed: u64,
    faults: Vec<Fault>,
) -> (
    Topology,
    Vec<f64>,
    nf_sim::SimOutput,
    Reconstruction,
    Timelines,
) {
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
    for f in faults {
        sim.add_fault(f);
    }
    let out = sim.run(&packets);
    let (recon, timelines) =
        reconstruct(&topology, &out.bundle, &ReconstructionConfig::default()).unwrap();
    (topology, rates, out, recon, timelines)
}

#[test]
fn reconstruction_agrees_with_ground_truth_under_load() {
    let (_t, _r, out, recon, _tl) = run_paper_chain(1_800_000.0, 25, 3, vec![]);
    assert_eq!(recon.traces.len(), out.fates.len());
    let mut wrong = 0;
    for (tr, fate) in recon.traces.iter().zip(&out.fates) {
        let ok = match (&tr.outcome, &fate.outcome) {
            (TraceOutcome::Delivered(a), PacketOutcome::Delivered(b)) => a == b,
            (TraceOutcome::InferredDrop { nf, .. }, PacketOutcome::Dropped { nf: n2, .. }) => {
                nf == n2
            }
            (TraceOutcome::Unresolved, PacketOutcome::InFlight) => true,
            _ => false,
        };
        if !ok || tr.flow != fate.packet.flow {
            wrong += 1;
        }
    }
    // §7: IPID reconstruction is allowed rare identity swaps; everything
    // else must agree.
    assert!(
        (wrong as f64) < 1e-3 * out.fates.len() as f64,
        "{wrong} / {} traces disagree with ground truth",
        out.fates.len()
    );
}

#[test]
fn injected_interrupt_is_top_culprit_for_its_victims() {
    let topology = paper_topology();
    let nat2 = topology.by_name("nat2").unwrap();
    let (t, rates, _out, recon, timelines) = run_paper_chain(
        1_200_000.0,
        40,
        9,
        vec![Fault::Interrupt {
            nf: nat2,
            at: 15 * MILLIS,
            duration: MILLIS,
        }],
    );
    let engine = Microscope::new(t, rates, DiagnosisConfig::default());
    let diagnoses = engine.diagnose_all(&recon, &timelines);
    assert!(!diagnoses.is_empty());
    // The victims attributable to the interrupt are the ones *at nat2*
    // whose queuing started inside the stall window. (Victims elsewhere in
    // the same wall-clock window are mostly natural traffic clumps — the
    // concurrent culprits the paper also observes.)
    let mut hits = 0;
    let mut misses = 0;
    for d in &diagnoses {
        if d.victim.nf != nat2
            || d.victim.observed_ts < 15 * MILLIS
            || d.victim.observed_ts > 18 * MILLIS
        {
            continue;
        }
        match d.culprits.first().map(|c| c.node) {
            Some(NodeId::Nf(nf)) if nf == nat2 => hits += 1,
            _ => misses += 1,
        }
    }
    assert!(
        hits > 3 * misses.max(1),
        "interrupt victims: {hits} hit, {misses} miss"
    );
}

#[test]
fn burst_victims_blame_the_source_and_patterns_name_the_flow() {
    let topology = paper_topology();
    let cfgs = paper_nf_configs(&topology);
    let rates: Vec<f64> = cfgs.iter().map(|c| c.service.peak_rate_pps()).collect();
    let mut gen = CaidaLike::new(
        CaidaLikeConfig {
            rate_pps: 1_200_000.0,
            ..Default::default()
        },
        5,
    );
    let bg = gen.generate(0, 30 * MILLIS);
    let bf = FiveTuple::new(
        nf_types::parse_ip("99.0.0.1").unwrap(),
        nf_types::parse_ip("20.0.0.1").unwrap(),
        5555,
        80,
        Proto::TCP,
    );
    let b = burst(bf, 10 * MILLIS, 2000, 150, 64);
    let packets = Schedule::merge([bg, b]).finalize(0);
    let sim = Simulation::new(topology.clone(), cfgs, SimConfig::default());
    let out = sim.run(&packets);
    let (recon, timelines) =
        reconstruct(&topology, &out.bundle, &ReconstructionConfig::default()).unwrap();
    let engine = Microscope::new(topology.clone(), rates, DiagnosisConfig::default());
    let diagnoses = engine.diagnose_all(&recon, &timelines);

    // Most victims' top culprit is the source, and the bursting flow must
    // appear in the culprit flow sets.
    let src_top = diagnoses
        .iter()
        .filter(|d| d.culprits.first().is_some_and(|c| c.node == NodeId::Source))
        .count();
    assert!(
        src_top * 2 > diagnoses.len(),
        "{src_top} of {}",
        diagnoses.len()
    );

    let relations = diagnoses_to_relations(&recon, &diagnoses);
    let pats = aggregate_patterns(&relations, &PatternConfig::default(), &|id| {
        topology.nf(id).kind
    });
    assert!(
        pats.iter().take(5).any(|p| p.culprit.flow.matches(&bf)),
        "burst flow must surface in the top patterns: {:?}",
        pats.iter().take(5).collect::<Vec<_>>()
    );
}

#[test]
fn microscope_beats_netmedic_with_ground_truth_attribution() {
    // The §6.2 comparison in miniature, using the experiment harness's
    // event attribution (victims are matched to injected events, then each
    // tool's rank of the true culprit is taken).
    use msc_experiments::inject::{InjectionPlan, PlanConfig};
    use msc_experiments::netmedic_adapter::build_history;
    use msc_experiments::runner::{candidate_flows, run_spec, RunSpec};
    use msc_experiments::scoring::{correct_rate, score_run};
    use netmedic::{NetMedic, NetMedicConfig};

    let mut spec = RunSpec::new(180 * MILLIS, 1_200_000.0, 13);
    spec.diagnosis.victims.max_victims = Some(400);
    let flows = candidate_flows(spec.rate_pps, spec.seed);
    spec.plan = InjectionPlan::random(
        &paper_topology(),
        spec.duration,
        &flows,
        &PlanConfig {
            n_bursts: 2,
            n_interrupts: 1,
            with_bug: false,
            ..Default::default()
        },
        spec.seed,
    );
    let run = run_spec(&spec);
    let nm = NetMedic::new(run.topology.clone(), NetMedicConfig::default());
    let hist = build_history(
        &run.out,
        run.topology.len(),
        &run.peak_rates,
        nm.window_ns(),
    );
    let scored = score_run(
        &run.topology,
        &run.out.journal.events,
        &run.diagnoses,
        &nm,
        &hist,
    );
    assert!(
        scored.len() > 20,
        "too few scored victims: {}",
        scored.len()
    );
    let ms: Vec<usize> = scored.iter().map(|s| s.microscope_rank).collect();
    let nmr: Vec<usize> = scored.iter().map(|s| s.netmedic_rank).collect();
    assert!(
        correct_rate(&ms) > 0.6,
        "microscope correct rate {}",
        correct_rate(&ms)
    );
    assert!(correct_rate(&ms) >= correct_rate(&nmr));
}

#[test]
fn recursion_depth_stays_within_paper_bound() {
    let topology = paper_topology();
    let fw1 = topology.by_name("fw1").unwrap();
    let (t, rates, _out, recon, timelines) = run_paper_chain(
        1_600_000.0,
        30,
        17,
        vec![Fault::Interrupt {
            nf: fw1,
            at: 10 * MILLIS,
            duration: 2 * MILLIS,
        }],
    );
    let bound = t.recursion_bound();
    let engine = Microscope::new(t, rates, DiagnosisConfig::default());
    let diagnoses = engine.diagnose_all(&recon, &timelines);
    let max_rec = diagnoses.iter().map(|d| d.recursions).max().unwrap_or(0);
    assert!(
        max_rec <= bound,
        "recursions {max_rec} exceed the theoretical bound {bound}"
    );
    // The paper observed <= 5 in practice on this topology; allow slack but
    // assert the same order of magnitude.
    assert!(max_rec <= 12, "recursions {max_rec} look unbounded");
}

#[test]
fn pipeline_is_deterministic_across_runs_on_16_nf_run() {
    // The paper's 16-NF deployment with an injected interrupt, reconstructed
    // and diagnosed twice from the same bundle. No artifact may depend on
    // anything but the input (hash order, allocation layout): every one
    // must compare equal — not approximately, identically.
    let topology = paper_topology();
    assert_eq!(topology.len(), 16, "the paper deployment has 16 NFs");
    let nat2 = topology.by_name("nat2").unwrap();
    let (t, rates, out, first_recon, first_timelines) = run_paper_chain(
        1_200_000.0,
        25,
        11,
        vec![Fault::Interrupt {
            nf: nat2,
            at: 10 * MILLIS,
            duration: MILLIS,
        }],
    );
    let engine = Microscope::new(t.clone(), rates, DiagnosisConfig::default());
    let first_diag = engine.diagnose_all(&first_recon, &first_timelines);
    assert!(!first_diag.is_empty(), "the interrupt must produce victims");

    let (recon, timelines) =
        reconstruct(&t, &out.bundle, &ReconstructionConfig::default()).unwrap();
    assert_eq!(recon.traces, first_recon.traces);
    assert_eq!(recon.hops, first_recon.hops);
    assert_eq!(recon.report, first_recon.report);
    assert_eq!(recon.paths, first_recon.paths);
    assert_eq!(recon.path_ids, first_recon.path_ids);
    assert_eq!(timelines, first_timelines);
    assert_eq!(engine.diagnose_all(&recon, &timelines), first_diag);
}

#[test]
fn collector_off_means_no_diagnosis_data_and_no_overhead() {
    let topology = paper_topology();
    let cfgs = paper_nf_configs(&topology);
    let mut gen = CaidaLike::new(
        CaidaLikeConfig {
            rate_pps: 1_000_000.0,
            ..Default::default()
        },
        1,
    );
    let packets = gen.generate(0, 10 * MILLIS).finalize(0);
    let sim = Simulation::new(
        topology.clone(),
        cfgs,
        SimConfig {
            collector: CollectorConfig { enabled: false },
            ..Default::default()
        },
    );
    let out = sim.run(&packets);
    assert_eq!(out.bundle.packet_appearances(), 0);
    assert!(out.bundle.source_flows.is_empty());
    let (recon, _) = reconstruct(&topology, &out.bundle, &ReconstructionConfig::default()).unwrap();
    assert_eq!(recon.traces.len(), 0);
}
