//! The §6.2 accuracy check on the path an operator runs: inject known
//! problems, write the files `microscope record` writes, diagnose them with
//! `pipeline::diagnose` on both containers exactly as the CLI does
//! (`--quantile 0.99`, `--top 10`, the 5 000-victim cap), and score the
//! diagnoses the `diagnose` stage hands its hook against the simulator's
//! journal — on five seeds, each with its own floor, and pooled.
//!
//! Streamed at 1, 5 and 50 ms chunks, every seed must diagnose exactly what
//! it diagnoses offline, so one score covers those modes. `diagnose --skew`
//! runs on the same packets recorded on skewed clocks and is scored on its
//! own, against the same floors.

use microscope::Diagnosis;
use microscope_cli::pipeline::{self, Hook, Produced, Run};
use msc_collector::{chunk_bundle, save_bundle, save_bundle_chunked, TraceBundle};
use msc_experiments::inject::{InjectionPlan, PlanConfig};
use msc_experiments::netmedic_adapter::build_history;
use msc_experiments::runner::{candidate_flows, simulate, RunSpec};
use msc_experiments::scoring::{correct_rate, score_run};
use netmedic::{NetMedic, NetMedicConfig};
use nf_types::{emit_topology, paper_topology, parse_topology, MILLIS};
use std::path::Path;

/// The CLI's defaults for `--quantile` and `--top`.
const QUANTILE: f64 = 0.99;
const TOP: usize = 10;

/// `.mscs` chunk lengths streamed, in ms.
const CHUNK_MS: [u64; 3] = [1, 5, 50];

/// Rank-1 floor per seed 17–21: 0.80, except where a seed measures lower
/// under the operator's 5 000-victim cap than it did under the 600 the
/// in-memory harness used to diagnose; there the floor is 0.02 under the
/// new measure. Measured: 0.982 (0.990 at 600), 0.843 (0.845), 0.981,
/// 0.983, 0.960; NetMedic 0.3–9.7 %.
const FLOORS: [(u64, f64); 5] = [(17, 0.962), (18, 0.823), (19, 0.80), (20, 0.80), (21, 0.80)];

/// One 260 ms run at 1.2 Mpps with 3 bursts, 2 interrupts and a bug.
fn spec(seed: u64) -> RunSpec {
    let mut spec = RunSpec::new(260 * MILLIS, 1_200_000.0, seed);
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
    spec
}

/// The run's records on skewed clocks: NF `i`'s clock runs `(i % 5)` ms
/// ahead of the source's — `record --skew`'s spread, moved up so that no
/// record clamps at 0 and the corrected run is on the simulator's clock,
/// which the journal the diagnoses are scored against is on.
fn skewed(bundle: &TraceBundle) -> TraceBundle {
    let mut out = bundle.clone();
    for (i, log) in out.logs.iter_mut().enumerate() {
        let ahead = (i as u64 % 5) * MILLIS;
        for ts in log.rx.ts_mut().iter_mut().chain(log.tx.ts_mut()) {
            *ts += ahead;
        }
        for f in &mut log.flows {
            f.ts += ahead;
        }
    }
    out
}

/// A pipeline's run, and the diagnoses its `diagnose` stage lent the hook.
fn watched(run: impl FnOnce(Hook<'_>) -> Result<Run, String>) -> (Run, Vec<Diagnosis>) {
    let mut diagnoses = Vec::new();
    let run = run(&mut |_, produced| {
        if let Produced::Diagnoses(d) = produced {
            diagnoses = d.to_vec();
        }
    })
    .expect("pipeline run");
    (run, diagnoses)
}

/// Microscope's culprit rank per attributable victim of `seed`, offline and
/// with `--skew`, and NetMedic's, after checking that every streamed mode
/// diagnoses what the offline one does.
fn ranks(seed: u64, dir: &Path) -> [Vec<usize>; 3] {
    let (topology, rates, out) = simulate(&spec(seed));

    // What `microscope record --chunk-ms N` writes, once per chunk length.
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("mkdir");
    let topo_path = dir.join("topology.txt");
    std::fs::write(&topo_path, emit_topology(&topology, &rates)).expect("write topology");
    let msc = dir.join("run.msc");
    save_bundle(&msc, &out.bundle).expect("write .msc");
    let skewed_msc = dir.join("skewed.msc");
    save_bundle(&skewed_msc, &skewed(&out.bundle)).expect("write skewed .msc");
    for ms in CHUNK_MS {
        let chunks = chunk_bundle(&out.bundle, ms * MILLIS);
        save_bundle_chunked(&dir.join(format!("run_{ms}.mscs")), &chunks).expect("write .mscs");
    }

    // What `microscope diagnose` runs on them.
    let text = std::fs::read_to_string(&topo_path).expect("read topology");
    let deployment = parse_topology(&text).expect("parse topology");
    let (offline, diagnoses) =
        watched(|h| pipeline::diagnose(&deployment, &msc, None, false, QUANTILE, TOP, h));
    for ms in CHUNK_MS {
        let mscs = dir.join(format!("run_{ms}.mscs"));
        let (streamed, streamed_diagnoses) =
            watched(|h| pipeline::diagnose(&deployment, &mscs, None, false, QUANTILE, TOP, h));
        assert_eq!(streamed.report, offline.report, "seed {seed}, {ms} ms");
        assert!(
            streamed_diagnoses == diagnoses,
            "seed {seed}: {ms} ms chunks diagnose differently from offline"
        );
    }
    let (_, skew_diagnoses) =
        watched(|h| pipeline::diagnose(&deployment, &skewed_msc, None, true, QUANTILE, TOP, h));

    // §7: IPID-based reconstruction can occasionally fail; under burst-
    // induced ring overflows we tolerate a sub-0.01% mismatch rate.
    let recon = &offline.report.reconstruction;
    let mismatch_rate = recon.flow_mismatches as f64 / recon.delivered.max(1) as f64;
    assert!(mismatch_rate < 1e-4, "seed {seed}: {recon:?}");
    assert!(
        !out.journal.events.is_empty(),
        "seed {seed}: injections must be journaled"
    );
    assert!(
        !diagnoses.is_empty(),
        "seed {seed}: injections must create victims"
    );

    let topology = &deployment.0;
    let nm = NetMedic::new(topology.clone(), NetMedicConfig::default());
    let hist = build_history(&out, topology.len(), &deployment.1, nm.window_ns());
    let scored = score_run(topology, &out.journal.events, &diagnoses, &nm, &hist);
    assert!(
        scored.len() > 50,
        "seed {seed}: expected many attributable victims, got {}",
        scored.len()
    );
    let skew_scored = score_run(topology, &out.journal.events, &skew_diagnoses, &nm, &hist);
    let (ms_ranks, nm_ranks) = scored
        .iter()
        .map(|s| (s.microscope_rank, s.netmedic_rank))
        .unzip();
    let skew_ranks = skew_scored.iter().map(|s| s.microscope_rank).collect();
    [ms_ranks, skew_ranks, nm_ranks]
}

#[test]
fn microscope_beats_netmedic_on_injected_problems_in_every_mode() {
    let dir = std::env::temp_dir().join(format!("msc_cli_accuracy_{}", std::process::id()));
    let mut pooled = [Vec::new(), Vec::new()];
    for (seed, floor) in FLOORS {
        let [ms_ranks, skew_ranks, nm_ranks] = ranks(seed, &dir);
        let nm_rate = correct_rate(&nm_ranks);
        for (k, (mode, ranks)) in [("", ms_ranks), (" --skew", skew_ranks)]
            .into_iter()
            .enumerate()
        {
            let ms_rate = correct_rate(&ranks);
            eprintln!(
                "seed {seed}{mode}: victims {}  microscope rank-1 {ms_rate:.4}  netmedic rank-1 {nm_rate:.4}",
                ranks.len(),
            );
            // Shape of Fig. 11: Microscope's correct rate is high (the paper
            // gets 89.7%) and clearly above NetMedic's (36%).
            assert!(
                ms_rate >= floor,
                "seed {seed}{mode}: microscope correct rate {ms_rate} under {floor}"
            );
            assert!(
                ms_rate > nm_rate,
                "seed {seed}{mode}: microscope {ms_rate} must beat netmedic {nm_rate}"
            );
            pooled[k].extend(ranks);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    // Measured 0.950 over the five seeds' victims.
    for (mode, pooled) in [("", &pooled[0]), (" --skew", &pooled[1])] {
        let rate = correct_rate(pooled);
        eprintln!("pooled{mode}: microscope rank-1 {rate:.4}");
        assert!(rate >= 0.90, "pooled{mode} microscope correct rate {rate}");
    }
}
