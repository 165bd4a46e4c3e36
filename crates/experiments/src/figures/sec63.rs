//! §6.3 detailed evaluation: accuracy vs burst size, interrupt length and
//! propagation hop count.
//!
//! Paper findings: accuracy rises with burst size (rank-1 for all victims
//! at 5000 packets), rises with interrupt length (≈all at 1500 µs), and
//! falls as the problem propagates over more hops.

use super::Figure;
use crate::accuracy::accuracy_run;
use crate::cli::Params;
use crate::inject::PlanConfig;
use crate::scoring::{correct_rate, ScoredVictim};
use nf_types::{MICROS, MILLIS};

/// Victims more than this far behind their attributed event are mostly
/// natural clump noise (the run injects nothing else, so the generous
/// 100 ms attribution slack would hoover them all up); the paper keeps
/// injections "separate enough in time so we unambiguously know the ground
/// truth" — this is the equivalent hygiene for our noisy background.
const TIGHT_GAP: u64 = 15 * MILLIS;

/// Microscope's ranks of the victims within [`TIGHT_GAP`] of their event
/// that `keep` selects.
fn tight_ranks(scored: &[ScoredVictim], keep: impl Fn(&ScoredVictim) -> bool) -> Vec<usize> {
    scored
        .iter()
        .filter(|s| s.gap_ns < TIGHT_GAP && keep(s))
        .map(|s| s.microscope_rank)
        .collect()
}

type Sweep = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    [u64; 5],
    fn(u64) -> PlanConfig,
);

pub(super) fn sec63(p: &Params) -> Figure {
    let mut fig = Figure::default();
    // (title, header, CSV name, CSV header, values, plan per value)
    let sweeps: [Sweep; 2] = [
        (
            "# §6.3a: Microscope accuracy vs burst size (paper: 200–5000 pkts)",
            "  burst_pkts    victims   rank1_rate",
            "sec63a_burst_size.csv",
            "burst_pkts,victims,rank1_rate",
            [200, 500, 1000, 2500, 5000],
            |size| PlanConfig {
                n_bursts: 4,
                burst_size: (size, size),
                n_interrupts: 0,
                with_bug: false,
                ..Default::default()
            },
        ),
        (
            "\n# §6.3b: Microscope accuracy vs interrupt length (paper: 300–1500 µs)",
            "     intr_us    victims   rank1_rate",
            "sec63b_interrupt_len.csv",
            "interrupt_us,victims,rank1_rate",
            [300, 600, 900, 1200, 1500],
            |us| PlanConfig {
                n_bursts: 0,
                n_interrupts: 4,
                interrupt_len: (us * MICROS, us * MICROS),
                with_bug: false,
                ..Default::default()
            },
        ),
    ];
    for (title, header, name, columns, values, plan) in sweeps {
        say!(fig, "{title}\n{header}");
        let mut csv = format!("{columns}\n");
        for v in values {
            let acc = accuracy_run(p, &plan(v), 800);
            let ranks = tight_ranks(&acc.scored, |_| true);
            let (n, rate) = (ranks.len(), correct_rate(&ranks));
            say!(fig, "{v:>12} {n:>10} {rate:>12.3}");
            say!(csv, "{v},{n},{rate:.4}");
        }
        fig.csvs.push((name, csv));
    }

    say!(
        fig,
        "\n# §6.3c: Microscope accuracy vs propagation hop count"
    );
    say!(fig, "    hops    victims   rank1_rate");
    let acc = accuracy_run(
        &Params {
            millis: 2 * p.millis,
            ..*p
        },
        &PlanConfig::default(),
        3_000,
    );
    let mut csv = String::from("hops,victims,rank1_rate\n");
    for hops in 0..=3usize {
        let ranks = tight_ranks(&acc.scored, |s| s.hops == hops);
        if ranks.is_empty() {
            continue;
        }
        let (n, rate) = (ranks.len(), correct_rate(&ranks));
        say!(fig, "{hops:>8} {n:>10} {rate:>12.3}");
        say!(csv, "{hops},{n},{rate:.4}");
    }
    fig.csvs.push(("sec63c_hops.csv", csv));
    say!(
        fig,
        "\n(paper: accuracy decreases as the impact propagates over more hops)"
    );
    fig
}
