//! Table 2: breakdown of problem frequencies by culprit and victim NF type
//! (wild run, no injections).
//!
//! Paper: rows = culprit (source / NAT / Firewall / Monitor / VPN), columns
//! = victim NF type; 21.7% of victims are caused by propagation (culprit at
//! a different NF than the victim), 10.9% by ≥2-hop propagation.

use super::{kind_col, pcts, Figure};
use crate::runner::RunResult;
use crate::scoring::hop_distance;
use nf_types::NodeId;

pub(super) fn table2(run: &RunResult) -> Figure {
    let mut fig = Figure::default();
    // rows: 0 = source, 1.. = kinds.
    let mut counts = [[0f64; 4]; 5];
    let mut total = 0f64;
    let mut propagated = 0f64;
    let mut two_hop = 0f64;

    for d in &run.diagnoses {
        let Some(top) = d.culprits.first() else {
            continue;
        };
        let col = kind_col(run.topology.nf(d.victim.nf).kind);
        let row = match top.node {
            NodeId::Source => 0,
            NodeId::Nf(nf) => 1 + kind_col(run.topology.nf(nf).kind),
        };
        counts[row][col] += 1.0;
        total += 1.0;
        let hops = hop_distance(&run.topology, top.node, d.victim.nf);
        if hops >= 1 {
            propagated += 1.0;
        }
        if hops >= 2 {
            two_hop += 1.0;
        }
    }
    if total <= 0.0 {
        return fig.fail("no diagnoses — raise --millis");
    }

    say!(
        fig,
        "# Table 2: % of problems per [culprit -> victim] pair (wild run)"
    );
    say!(
        fig,
        "  culprit\\victim       NAT  Firewall   Monitor       VPN"
    );
    let mut csv = String::from("culprit,nat_pct,firewall_pct,monitor_pct,vpn_pct\n");
    let row_names = ["Traffic sources", "NAT", "Firewall", "Monitor", "VPN"];
    for (name, counts) in row_names.iter().zip(&counts) {
        let (text, cells) = pcts(counts, total);
        say!(fig, "{name:>16}{text}");
        say!(csv, "{name}{cells}");
    }
    fig.csvs.push(("table2_breakdown.csv", csv));

    say!(fig, "\n# Summary              paper     measured");
    say!(
        fig,
        "propagated victims     21.7%     {:.1}%",
        propagated / total * 100.0
    );
    say!(
        fig,
        ">=2-hop propagation    10.9%     {:.1}%",
        two_hop / total * 100.0
    );
    say!(fig, "victims analysed       80K       {}", total as u64);
    fig
}
