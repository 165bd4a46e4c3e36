//! Figure 12: diagnostic accuracy per injected culprit type.
//!
//! Paper: (a) traffic bursts — Microscope rank-1 for 99.8%, NetMedic for
//! only 3.7% (39.9% rank-2); (b) interrupts — 85.0% vs 52.8%; (c) NF bugs —
//! 73.0% (95.5% ≤2) vs 63.3%.

use super::{at_pct, Figure};
use crate::accuracy::accuracy_run;
use crate::cli::Params;
use crate::inject::PlanConfig;
use crate::scoring::{balance_by_event, correct_rate, rank_cdf};

pub(super) fn fig12(p: &Params) -> Figure {
    let mut fig = Figure::default();
    let acc = accuracy_run(
        p,
        &PlanConfig {
            n_bursts: 6,
            n_interrupts: 6,
            with_bug: true,
            ..Default::default()
        },
        3_000,
    );

    let balanced = balance_by_event(&acc.scored, 200);
    let mut csv = String::from("culprit_kind,cum_pct_victims,microscope_rank,netmedic_rank\n");
    for (kind, paper_ms, paper_nm) in [
        ("burst", "99.8%", "3.7%"),
        ("interrupt", "85.0%", "52.8%"),
        ("bug", "73.0%", "63.3%"),
    ] {
        let (ms, nm): (Vec<usize>, Vec<usize>) = balanced
            .iter()
            .filter(|s| s.event_kind == kind)
            .map(|s| (s.microscope_rank, s.netmedic_rank))
            .unzip();
        if ms.is_empty() {
            say!(
                fig,
                "# {kind}: no victims in this run (rerun with more --millis)"
            );
            continue;
        }
        let ms_r1 = correct_rate(&ms) * 100.0;
        let nm_r1 = correct_rate(&nm) * 100.0;
        let ms_r2 = ms.iter().filter(|&&r| r <= 2).count() as f64 / ms.len() as f64 * 100.0;
        say!(fig, "# Fig 12 ({kind}): n={}", ms.len());
        say!(
            fig,
            "  Microscope rank-1: measured {ms_r1:.1}%  (paper {paper_ms})   rank<=2 {ms_r2:.1}%"
        );
        say!(
            fig,
            "  NetMedic   rank-1: measured {nm_r1:.1}%  (paper {paper_nm})"
        );
        // Decile CDF rows for the CSV.
        let (ms_cdf, nm_cdf) = (rank_cdf(&ms), rank_cdf(&nm));
        for pct in (10..=100).step_by(10) {
            let (m, n) = (at_pct(&ms_cdf, pct).1, at_pct(&nm_cdf, pct).1);
            say!(csv, "{kind},{pct},{m},{n}");
        }
    }
    fig.csvs.push(("fig12_per_culprit.csv", csv));
    fig
}
