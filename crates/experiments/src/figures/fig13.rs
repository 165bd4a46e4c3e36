//! Figure 13: NetMedic's correct rate vs its correlation window size.
//!
//! Paper: best (~36%) at a 10 ms window; worse at 1 ms (misses delayed
//! impacts) and at 50–100 ms (dilutes the signal). One run is re-scored
//! with each window size.

use super::Figure;
use crate::accuracy::{accuracy_run, rescore_with_window};
use crate::cli::Params;
use crate::inject::PlanConfig;
use crate::scoring::correct_rate;
use nf_types::MILLIS;

pub(super) fn fig13(p: &Params) -> Figure {
    let mut fig = Figure::default();
    let acc = accuracy_run(p, &PlanConfig::default(), 2_000);

    say!(fig, "# Fig 13: NetMedic correct rate vs time window size");
    say!(fig, "   window_ms   correct_rate");
    let mut csv = String::from("window_ms,correct_rate\n");
    for window_ms in [1u64, 5, 10, 50, 100] {
        let scored = rescore_with_window(&acc.run, window_ms * MILLIS);
        let ranks: Vec<usize> = scored.iter().map(|s| s.netmedic_rank).collect();
        let rate = correct_rate(&ranks);
        say!(fig, "{window_ms:>12} {rate:>14.3}");
        say!(csv, "{window_ms},{rate:.4}");
    }
    fig.csvs.push(("fig13_netmedic_windows.csv", csv));
    say!(
        fig,
        "\n(paper: peaks around 0.36 at 10 ms; Microscope needs no window at all)"
    );
    fig
}
