//! Table 3: frequency differences for problems caused by individual NAT
//! instances (wild run).
//!
//! Paper: although traffic is spread evenly over the NATs, NAT1 and NAT3
//! cause visibly more problems than NAT2 and NAT4 — temporal unevenness
//! (interrupt/jitter luck), not load imbalance.

use msc_experiments::cli::{write_csv, Args};
use msc_experiments::runner::wild_run;
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
    let nats: Vec<_> = run
        .topology
        .nfs()
        .iter()
        .filter(|n| n.kind == NfKind::Nat)
        .map(|n| (n.id, n.name.clone()))
        .collect();

    let mut counts = vec![[0f64; 4]; nats.len()];
    let mut processed = vec![0u64; nats.len()];
    let mut total = 0f64;
    for d in &run.diagnoses {
        total += 1.0;
        let Some(top) = d.culprits.first() else {
            continue;
        };
        let NodeId::Nf(nf) = top.node else { continue };
        if let Some(row) = nats.iter().position(|(id, _)| *id == nf) {
            counts[row][kind_col(run.topology.nf(d.victim.nf).kind)] += 1.0;
        }
    }
    for (i, (id, _)) in nats.iter().enumerate() {
        processed[i] = run.out.nf_stats[id.0 as usize].processed;
    }
    assert!(total > 0.0, "no diagnoses — raise --millis");

    println!("# Table 3: % of problems caused by each NAT instance (wild run)");
    println!(
        "{:>8} {:>9} {:>9} {:>9} {:>9} {:>14}",
        "culprit", "NAT", "Firewall", "Monitor", "VPN", "pkts_processed"
    );
    let mut rows = Vec::new();
    for (i, (_, name)) in nats.iter().enumerate() {
        let vals: Vec<f64> = (0..4).map(|c| counts[i][c] / total * 100.0).collect();
        println!(
            "{:>8} {:>8.2}% {:>8.2}% {:>8.2}% {:>8.2}% {:>14}",
            name, vals[0], vals[1], vals[2], vals[3], processed[i]
        );
        rows.push(
            std::iter::once(name.clone())
                .chain(vals.iter().map(|v| format!("{v:.3}")))
                .chain(std::iter::once(processed[i].to_string()))
                .collect(),
        );
    }
    write_csv(
        &args.csv_path("table3_nats.csv"),
        &[
            "nat",
            "nat_pct",
            "firewall_pct",
            "monitor_pct",
            "vpn_pct",
            "pkts_processed",
        ],
        &rows,
    );

    // The paper's observation: traffic is even, impact is not.
    let tot_per_nat: Vec<f64> = (0..nats.len())
        .map(|i| counts[i].iter().sum::<f64>())
        .collect();
    let max = tot_per_nat.iter().cloned().fold(0.0, f64::max);
    let min = tot_per_nat.iter().cloned().fold(f64::INFINITY, f64::min);
    let p_max = processed.iter().max().copied().unwrap_or(0) as f64;
    let p_min = processed.iter().min().copied().unwrap_or(0) as f64;
    println!("\n# Summary (paper: traffic even across NATs, problem counts uneven)");
    println!(
        "processed-packet spread across NATs: {:.1}% (even load)",
        (p_max - p_min) / p_max.max(1.0) * 100.0
    );
    if min > 0.0 {
        println!(
            "problem-count ratio worst/best NAT: {:.2}x (uneven impact)",
            max / min
        );
    } else {
        println!("problem-count ratio worst/best NAT: inf (uneven impact)");
    }
}
