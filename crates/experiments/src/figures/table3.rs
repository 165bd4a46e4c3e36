//! Table 3: frequency differences for problems caused by individual NAT
//! instances (wild run).
//!
//! Paper: although traffic is spread evenly over the NATs, NAT1 and NAT3
//! cause visibly more problems than NAT2 and NAT4 — temporal unevenness
//! (interrupt/jitter luck), not load imbalance.

use super::{kind_col, pcts, Figure};
use crate::runner::RunResult;
use nf_types::{NfKind, NodeId};

pub(super) fn table3(run: &RunResult) -> Figure {
    let mut fig = Figure::default();
    let nats: Vec<_> = run
        .topology
        .nfs()
        .iter()
        .filter(|n| n.kind == NfKind::Nat)
        .collect();

    let mut counts = vec![[0f64; 4]; nats.len()];
    let mut total = 0f64;
    for d in &run.diagnoses {
        total += 1.0;
        let Some(top) = d.culprits.first() else {
            continue;
        };
        let NodeId::Nf(nf) = top.node else { continue };
        if let Some(row) = nats.iter().position(|n| n.id == nf) {
            counts[row][kind_col(run.topology.nf(d.victim.nf).kind)] += 1.0;
        }
    }
    let processed: Vec<u64> = nats
        .iter()
        .map(|n| run.out.nf_stats[n.id.0 as usize].processed)
        .collect();
    if total <= 0.0 {
        return fig.fail("no diagnoses — raise --millis");
    }

    say!(
        fig,
        "# Table 3: % of problems caused by each NAT instance (wild run)"
    );
    say!(
        fig,
        " culprit       NAT  Firewall   Monitor       VPN pkts_processed"
    );
    let mut csv = String::from("nat,nat_pct,firewall_pct,monitor_pct,vpn_pct,pkts_processed\n");
    for ((nat, counts), processed) in nats.iter().zip(&counts).zip(&processed) {
        let (text, cells) = pcts(counts, total);
        say!(fig, "{:>8}{text} {processed:>14}", nat.name);
        say!(csv, "{}{cells},{processed}", nat.name);
    }
    fig.csvs.push(("table3_nats.csv", csv));

    // The paper's observation: traffic is even, impact is not.
    let tot_per_nat: Vec<f64> = counts.iter().map(|c| c.iter().sum::<f64>()).collect();
    let max = tot_per_nat.iter().cloned().fold(0.0, f64::max);
    let min = tot_per_nat.iter().cloned().fold(f64::INFINITY, f64::min);
    let p_max = processed.iter().max().copied().unwrap_or(0) as f64;
    let p_min = processed.iter().min().copied().unwrap_or(0) as f64;
    say!(
        fig,
        "\n# Summary (paper: traffic even across NATs, problem counts uneven)"
    );
    say!(
        fig,
        "processed-packet spread across NATs: {:.1}% (even load)",
        (p_max - p_min) / p_max.max(1.0) * 100.0
    );
    if min > 0.0 {
        say!(
            fig,
            "problem-count ratio worst/best NAT: {:.2}x (uneven impact)",
            max / min
        );
    } else {
        say!(
            fig,
            "problem-count ratio worst/best NAT: inf (uneven impact)"
        );
    }
    fig
}
