//! Figure 14 / §6.4: pattern aggregation finds the bug-triggering flows.
//!
//! CAIDA-like traffic at 1.2 Mpps plus TCP flows 100.0.0.1→32.0.0.1 with
//! source ports 2000–2008 and destination ports 6000–6008 that trigger a
//! slow path at one firewall. Microscope knows nothing about the bug; the
//! aggregated causal patterns must surface those flows as culprits at the
//! buggy firewall (four of the paper's patterns do).

use super::{bug_run, Figure};
use crate::cli::Params;
use crate::inject::{paper_bug_aggregate, paper_bug_flows};
use autofocus::{aggregate_patterns, PatternConfig};
use microscope::diagnoses_to_relations;
use nf_types::MILLIS;
use std::time::Instant;

pub(super) fn fig14(p: &Params) -> Figure {
    let mut fig = Figure::default();
    let (run, fw2) = bug_run(p, 40 * MILLIS, 3_000);

    let relations = diagnoses_to_relations(&run.recon, &run.diagnoses);
    say!(
        fig,
        "# {} packet-level causal relations (paper: 84K over 5 s)",
        relations.len()
    );

    let t0 = Instant::now();
    let patterns = aggregate_patterns(
        &relations,
        &PatternConfig::default(), // th = 1%, as §6.1
        &run.kind_of(),
    );
    let elapsed = t0.elapsed();
    say!(
        fig,
        "# aggregated to {} patterns in {:.2?} (paper: ~80 patterns, ~3 min)",
        patterns.len(),
        elapsed
    );

    say!(
        fig,
        "\n# Fig 14 — top patterns: <culprit 5-tuple> <loc> => <victim 5-tuple> <loc> : score"
    );
    let mut csv = String::from("pattern\n");
    for p in patterns.iter().take(20) {
        say!(fig, "{p}");
        say!(csv, "{}", p.to_string().replace(',', ";"));
    }
    fig.csvs.push(("fig14_patterns.csv", csv));

    // Count the patterns whose culprit side matches the bug-trigger flows
    // at fw2 (the paper found four such patterns in its snippet).
    let agg = paper_bug_aggregate();
    let hits = patterns
        .iter()
        .filter(|p| {
            paper_bug_flows().iter().any(|f| p.culprit.flow.matches(f))
                && agg.src.covers(&p.culprit.flow.src)
                && p.culprit.loc == autofocus::LocationAgg::Exact(autofocus::Location::Nf(fw2))
        })
        .count();
    say!(fig, "\n# patterns naming bug-trigger flows at fw2: {hits}");
    if hits == 0 {
        return fig.fail("pattern aggregation must surface the bug flows");
    }

    // The adaptive port-range extension merges the per-port rows.
    let merged = aggregate_patterns(
        &relations,
        &PatternConfig {
            adaptive_ports: true,
            ..Default::default()
        },
        &run.kind_of(),
    );
    say!(
        fig,
        "# with adaptive port ranges (paper's suggested optimisation): {} patterns",
        merged.len()
    );
    for p in merged.iter().take(5) {
        say!(fig, "{p}");
    }
    fig
}
