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

use super::Figure;
use crate::cli::Params;
use crate::runner::{run_spec, simulate, RunSpec};
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

pub(super) fn baseline_perfsight(p: &Params) -> Figure {
    let mut fig = Figure::default();
    let topo = paper_topology();
    let ps = PerfSight::new();
    let mut csv = String::from("scenario,element,metric1,metric2\n");

    // ---- A: persistent overload --------------------------------------
    // 4 VPNs × ~0.63 Mpps ≈ 2.5 Mpps of VPN capacity; offer 3.2 Mpps.
    let (_, _, out) = simulate(&RunSpec::new(p.duration_ns(), 3_200_000.0, p.seed));
    let found = ps.diagnose(&topo, &counters_of(&out), out.duration);
    say!(
        fig,
        "# A: persistent overload (3.2 Mpps into ~2.5 Mpps of VPN capacity)"
    );
    say!(fig, " element  drop_rate  utilisation      score");
    for b in &found {
        let name = &topo.nf(b.nf).name;
        let (drop, util) = (b.drop_rate, b.utilisation);
        say!(
            fig,
            "{name:>8} {:>9.3}% {util:>12.3} {:>10.2}",
            drop * 100.0,
            b.score
        );
        say!(csv, "persistent,{name},{drop:.6},{util:.4}");
    }
    if !found
        .iter()
        .take(4)
        .all(|b| topo.nf(b.nf).kind == NfKind::Vpn)
    {
        return fig.fail("PerfSight must localise the saturated VPNs");
    }
    say!(
        fig,
        "=> PerfSight correctly localises the saturated VPNs.\n"
    );

    // ---- B: one transient interrupt ----------------------------------
    let nat1 = topo.by_name("nat1").expect("paper topo");
    let stall = (p.millis / 2) * MILLIS;
    let mut spec = RunSpec::new(p.duration_ns(), p.rate_pps(), p.seed);
    spec.plan.interrupts.push((nat1, stall, 900 * MICROS));
    spec.diagnosis.victims.max_victims = Some(800);
    let run = run_spec(&spec);
    let found = ps.diagnose(&topo, &counters_of(&run.out), run.out.duration);
    say!(
        fig,
        "# B: one 900 µs interrupt at nat1 in a healthy {} ms run",
        p.millis
    );
    say!(fig, "PerfSight bottlenecks found: {}", found.len());
    if !found.is_empty() {
        return fig.fail("whole-run counters must not expose a microsecond-scale stall");
    }

    // Microscope on the same run: victims in the stall's aftermath, top
    // culprit tally.
    let near: Vec<_> = run
        .diagnoses
        .iter()
        .filter(|d| (stall..=stall + 10 * MILLIS).contains(&d.victim.observed_ts))
        .collect();
    let n = near.len();
    let nat1_top = near
        .iter()
        .filter(|d| d.culprits.first().map(|c| c.node) == Some(NodeId::Nf(nat1)))
        .count();
    say!(
        fig,
        "Microscope: {nat1_top}/{n} victims near the stall rank nat1 first"
    );
    say!(csv, "transient,nat1,{nat1_top},{n}");
    // Recorded before the check, so a failing run leaves its numbers.
    fig.csvs.push(("baseline_perfsight.csv", csv));
    if !(n > 0 && nat1_top * 2 > n) {
        return fig.fail("Microscope must pin the stalled NF");
    }
    say!(
        fig,
        "=> PerfSight is blind to the transient stall; Microscope pins it."
    );
    fig
}
