//! Table 2: breakdown of problem frequencies by culprit and victim NF type
//! (wild run, no injections).
//!
//! Paper: rows = culprit (source / NAT / Firewall / Monitor / VPN), columns
//! = victim NF type; 21.7% of victims are caused by propagation (culprit at
//! a different NF than the victim), 10.9% by ≥2-hop propagation.

use msc_experiments::cli::{write_csv, Args};
use msc_experiments::runner::wild_run;
use msc_experiments::scoring::hop_distance;
use nf_types::{NfKind, NodeId};

fn main() {
    // The paper offers 1.6 Mpps, which put its crypto-bound VPNs at high
    // utilisation. Our VPN peak is 0.633 Mpps, so 2.0 Mpps aggregate
    // (0.5 Mpps per VPN, ~80%% util) matches the paper's *bottleneck
    // utilisation* rather than its absolute packet rate.
    let args = Args::parse(1_000, 2.1);
    let run = wild_run(
        args.duration_ns(),
        args.rate_pps(),
        args.seed,
        // The paper diagnoses the 99.9th percentile of a one-minute 96M-
        // packet run (80K victims over many problem episodes). Our runs are
        // ~100x shorter, so the 99th percentile gives the same *breadth* of
        // episodes rather than just the single worst stall.
        0.99,
    );

    let kinds = [NfKind::Nat, NfKind::Firewall, NfKind::Monitor, NfKind::Vpn];
    let kind_col = |k: NfKind| kinds.iter().position(|&x| x == k).expect("known kind");
    // rows: 0 = source, 1.. = kinds.
    let mut counts = [[0f64; 4]; 5];
    let mut total = 0f64;
    let mut propagated = 0f64;
    let mut two_hop = 0f64;

    for d in &run.diagnoses {
        let Some(top) = d.culprits.first() else {
            continue;
        };
        let victim_kind = run.topology.nf(d.victim.nf).kind;
        let col = kind_col(victim_kind);
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
    assert!(total > 0.0, "no diagnoses — raise --millis");

    println!("# Table 2: % of problems per [culprit -> victim] pair (wild run)");
    println!(
        "{:>16} {:>9} {:>9} {:>9} {:>9}",
        "culprit\\victim", "NAT", "Firewall", "Monitor", "VPN"
    );
    let row_names = ["Traffic sources", "NAT", "Firewall", "Monitor", "VPN"];
    let mut rows = Vec::new();
    for (r, name) in row_names.iter().enumerate() {
        let vals: Vec<f64> = (0..4).map(|c| counts[r][c] / total * 100.0).collect();
        println!(
            "{:>16} {:>8.2}% {:>8.2}% {:>8.2}% {:>8.2}%",
            name, vals[0], vals[1], vals[2], vals[3]
        );
        rows.push(
            std::iter::once(name.to_string())
                .chain(vals.iter().map(|v| format!("{v:.3}")))
                .collect(),
        );
    }
    write_csv(
        &args.csv_path("table2_breakdown.csv"),
        &[
            "culprit",
            "nat_pct",
            "firewall_pct",
            "monitor_pct",
            "vpn_pct",
        ],
        &rows,
    );

    println!("\n# Summary              paper     measured");
    println!(
        "propagated victims     21.7%     {:.1}%",
        propagated / total * 100.0
    );
    println!(
        ">=2-hop propagation    10.9%     {:.1}%",
        two_hop / total * 100.0
    );
    println!("victims analysed       80K       {}", total as u64);
}
