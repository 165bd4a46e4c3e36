//! The §8 / footnote-2 contrast: persistent problems are easy (PerfSight
//! handles them); transient microsecond-scale problems need Microscope.
//!
//! Scenario A — persistent overload: traffic offered above the VPNs'
//! aggregate capacity for the whole run. PerfSight's counters localise the
//! saturated, dropping VPNs immediately.
//!
//! Scenario B — a single 900 µs interrupt in an otherwise healthy run.
//! Whole-run counters barely move, PerfSight reports nothing; Microscope
//! should pin the stalled NF from the queuing evidence for most victims in
//! the 10 ms after the stall. The binary exits non-zero when it does not —
//! at the default seed 42 it does not (EXPERIMENTS.md).

use msc_experiments::cli::{write_csv, Args};
use msc_experiments::runner::{run_spec, simulate, RunSpec};
use netmedic::{ElementCounters, PerfSight};
use nf_types::{paper_topology, NfKind, NodeId, MICROS, MILLIS};

fn counters_of(out: &nf_sim::SimOutput) -> Vec<ElementCounters> {
    out.nf_stats
        .iter()
        .map(|s| ElementCounters {
            processed: s.processed,
            dropped: s.dropped,
            busy_ns: s.busy_ns,
        })
        .collect()
}

fn main() {
    let args = Args::parse(300, 1.2);
    let topo = paper_topology();
    let ps = PerfSight::new();
    let mut rows = Vec::new();

    // ---- A: persistent overload --------------------------------------
    // 4 VPNs × ~0.63 Mpps ≈ 2.5 Mpps of VPN capacity; offer 3.2 Mpps.
    let (_, _, out) = simulate(&RunSpec::new(args.duration_ns(), 3_200_000.0, args.seed));
    let found = ps.diagnose(&topo, &counters_of(&out), out.duration);
    println!("# A: persistent overload (3.2 Mpps into ~2.5 Mpps of VPN capacity)");
    println!(
        "{:>8} {:>10} {:>12} {:>10}",
        "element", "drop_rate", "utilisation", "score"
    );
    for b in &found {
        println!(
            "{:>8} {:>9.3}% {:>12.3} {:>10.2}",
            topo.nf(b.nf).name,
            b.drop_rate * 100.0,
            b.utilisation,
            b.score
        );
        rows.push(vec![
            "persistent".into(),
            topo.nf(b.nf).name.clone(),
            format!("{:.6}", b.drop_rate),
            format!("{:.4}", b.utilisation),
        ]);
    }
    assert!(
        found
            .iter()
            .take(4)
            .all(|b| topo.nf(b.nf).kind == NfKind::Vpn),
        "PerfSight must localise the saturated VPNs"
    );
    println!("=> PerfSight correctly localises the saturated VPNs.\n");

    // ---- B: one transient interrupt ----------------------------------
    let nat1 = topo.by_name("nat1").expect("paper topo");
    let mut spec = RunSpec::new(args.duration_ns(), args.rate_pps(), args.seed);
    spec.plan
        .interrupts
        .push((nat1, (args.millis / 2) * MILLIS, 900 * MICROS));
    spec.diagnosis.victims.max_victims = Some(800);
    let run = run_spec(&spec);
    let found = ps.diagnose(&topo, &counters_of(&run.out), run.out.duration);
    println!(
        "# B: one 900 µs interrupt at nat1 in a healthy {} ms run",
        args.millis
    );
    println!("PerfSight bottlenecks found: {}", found.len());
    assert!(
        found.is_empty(),
        "whole-run counters must not expose a microsecond-scale stall"
    );

    // Microscope on the same run: victims in the stall's aftermath, top
    // culprit tally.
    let window = ((args.millis / 2) * MILLIS, (args.millis / 2 + 10) * MILLIS);
    let mut nat1_top = 0;
    let mut n = 0;
    for d in &run.diagnoses {
        if d.victim.observed_ts < window.0 || d.victim.observed_ts > window.1 {
            continue;
        }
        n += 1;
        if d.culprits.first().map(|c| c.node) == Some(NodeId::Nf(nat1)) {
            nat1_top += 1;
        }
    }
    println!("Microscope: {nat1_top}/{n} victims near the stall rank nat1 first");
    rows.push(vec![
        "transient".into(),
        "nat1".into(),
        format!("{nat1_top}"),
        format!("{n}"),
    ]);
    // Recorded before the check, so a failing run leaves its numbers.
    write_csv(
        &args.csv_path("baseline_perfsight.csv"),
        &["scenario", "element", "metric1", "metric2"],
        &rows,
    );
    assert!(
        n > 0 && nat1_top * 2 > n,
        "Microscope must pin the stalled NF"
    );
    println!("=> PerfSight is blind to the transient stall; Microscope pins it.");
}
