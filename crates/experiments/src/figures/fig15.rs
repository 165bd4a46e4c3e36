//! Figure 15: the culprit→victim time gap in the wild.
//!
//! One-minute CAIDA traffic at 1.6 Mpps in the paper; Microscope diagnoses
//! the 99.9th-percentile latency victims (80K of them). The CDF of the gap
//! between each causal relation's culprit activity and its victim runs from
//! 0 to 91 ms — half under 1.5 ms, a long tail to ~91 ms — which is why no
//! single correlation window can work.

use super::{at_pct, Figure};
use crate::runner::RunResult;
use nf_types::MILLIS;

pub(super) fn fig15(run: &RunResult) -> Figure {
    let mut fig = Figure::default();

    say!(
        fig,
        "# wild run: {} packets, {} victims diagnosed",
        run.recon.report.total,
        run.diagnoses.len()
    );

    // Gap of every (victim, culprit) causal relation: victim observation
    // minus the start of the culprit's activity window.
    let mut gaps_ms: Vec<f64> = Vec::new();
    for d in &run.diagnoses {
        for c in &d.culprits {
            let gap = d.victim.observed_ts.saturating_sub(c.window.start);
            gaps_ms.push(gap as f64 / MILLIS as f64);
        }
    }
    if gaps_ms.is_empty() {
        return fig.fail("no causal relations — raise --millis");
    }
    gaps_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite gaps"));

    say!(fig, "\n# Fig 15: CDF of the culprit->victim time gap");
    say!(fig, "     cdf     gap_ms");
    let mut csv = String::from("cdf_pct,gap_ms\n");
    for pct in [1, 5, 10, 25, 50, 75, 90, 95, 99, 100] {
        let gap = at_pct(&gaps_ms, pct);
        say!(fig, "{pct:>7}% {gap:>10.3}");
        say!(csv, "{pct},{gap:.4}");
    }
    fig.csvs.push(("fig15_timegap_cdf.csv", csv));

    let median = gaps_ms[gaps_ms.len() / 2];
    let max = *gaps_ms.last().expect("non-empty");
    say!(
        fig,
        "\n# Summary (paper: half under 1.5 ms, long tail reaching 91 ms)"
    );
    say!(
        fig,
        "median gap {median:.2} ms, max gap {max:.2} ms, {} relations",
        gaps_ms.len()
    );
    fig
}
