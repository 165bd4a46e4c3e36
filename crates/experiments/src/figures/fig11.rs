//! Figure 11: overall diagnostic accuracy of Microscope vs NetMedic.
//!
//! Paper result: Microscope ranks the correct cause first for 89.7% of
//! victim packets; NetMedic only 36% (and ≤5 for 66%). We regenerate the
//! rank CDF for both tools on the 16-NF topology with injected bursts,
//! interrupts and a firewall bug.

use super::{at_pct, Figure};
use crate::accuracy::accuracy_run;
use crate::cli::Params;
use crate::inject::PlanConfig;
use crate::scoring::{balance_by_event, correct_rate, rank_cdf};

pub(super) fn fig11(p: &Params) -> Figure {
    let mut fig = Figure::default();
    let acc = accuracy_run(p, &PlanConfig::default(), 2_000);
    // Balance victims across injected events so burst floods don't
    // drown the interrupt/bug victims (paper: victims of each problem).
    let scored = balance_by_event(&acc.scored, 150);
    if scored.is_empty() {
        return fig.fail("no attributable victims — run longer");
    }

    let ms: Vec<usize> = scored.iter().map(|s| s.microscope_rank).collect();
    let nm: Vec<usize> = scored.iter().map(|s| s.netmedic_rank).collect();

    say!(
        fig,
        "# Fig 11: rank of the correct cause (cumulative % of victim packets)"
    );
    say!(fig, "     cum_pct   microscope     netmedic");
    let (ms_cdf, nm_cdf) = (rank_cdf(&ms), rank_cdf(&nm));
    let mut csv = String::from("cum_pct_victims,microscope_rank,netmedic_rank\n");
    for pct in (5..=100).step_by(5) {
        let (m, n) = (at_pct(&ms_cdf, pct).1, at_pct(&nm_cdf, pct).1);
        say!(fig, "{pct:>12} {m:>12} {n:>12}");
        say!(csv, "{pct},{m},{n}");
    }
    fig.csvs.push(("fig11_rank_cdf.csv", csv));

    let ms_r1 = correct_rate(&ms) * 100.0;
    let nm_r1 = correct_rate(&nm) * 100.0;
    let nm_r5 = nm.iter().filter(|&&r| r <= 5).count() as f64 / nm.len() as f64 * 100.0;
    say!(fig, "\n# Summary           paper     measured");
    say!(fig, "victims scored      -         {}", scored.len());
    say!(fig, "Microscope rank-1   89.7%     {ms_r1:.1}%");
    say!(fig, "NetMedic rank-1     36%       {nm_r1:.1}%");
    say!(fig, "NetMedic rank<=5    66%       {nm_r5:.1}%");
    say!(
        fig,
        "improvement factor  up to 2.5x {:.1}x",
        if nm_r1 > 0.0 {
            ms_r1 / nm_r1
        } else {
            f64::INFINITY
        }
    );
    fig
}
