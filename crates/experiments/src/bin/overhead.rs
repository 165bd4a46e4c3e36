//! §6.2 runtime overhead: peak-throughput degradation caused by the
//! collector.
//!
//! Paper: "between 0.88% and 2.33% for different NFs", measured at peak
//! throughput (the worst case). We drive each NF kind past saturation with
//! the collector on and off and compare the achieved processing rates.

use msc_collector::CollectorConfig;
use msc_experiments::cli::{write_csv, Args};
use nf_sim::{single_nf_topology, SimConfig, Simulation};
use nf_traffic::{CaidaLike, CaidaLikeConfig};
use nf_types::NfKind;

fn peak_rate(kind: NfKind, enabled: bool, millis: u64, seed: u64) -> f64 {
    let (topo, cfgs) = single_nf_topology(kind);
    let sim = Simulation::new(
        topo,
        cfgs,
        SimConfig {
            seed,
            collector: CollectorConfig { enabled },
            record_fates: false,
            ..Default::default()
        },
    );
    // Overdrive: 3 Mpps into every kind saturates all of them.
    let mut gen = CaidaLike::new(
        CaidaLikeConfig {
            rate_pps: 3_000_000.0,
            ..Default::default()
        },
        seed,
    );
    let packets = gen.generate(0, millis * nf_types::MILLIS).finalize(0);
    let out = sim.run(&packets);
    out.nf_stats[0].rate_pps(out.duration)
}

fn main() {
    let args = Args::parse(200, 3.0);
    println!("# §6.2: collector overhead at peak throughput per NF kind");
    println!(
        "{:>10} {:>14} {:>14} {:>12}",
        "nf_kind", "off_mpps", "on_mpps", "overhead"
    );
    let mut rows = Vec::new();
    for kind in [NfKind::Nat, NfKind::Firewall, NfKind::Monitor, NfKind::Vpn] {
        let off = peak_rate(kind, false, args.millis, args.seed);
        let on = peak_rate(kind, true, args.millis, args.seed);
        let overhead = (off - on) / off * 100.0;
        println!(
            "{:>10} {:>14.3} {:>14.3} {:>11.2}%",
            kind.to_string(),
            off / 1e6,
            on / 1e6,
            overhead
        );
        rows.push(vec![
            kind.to_string(),
            format!("{:.4}", off / 1e6),
            format!("{:.4}", on / 1e6),
            format!("{overhead:.3}"),
        ]);
    }
    write_csv(
        &args.csv_path("overhead.csv"),
        &["nf_kind", "peak_off_mpps", "peak_on_mpps", "overhead_pct"],
        &rows,
    );
    println!("\n(paper: 0.88%–2.33% depending on the NF; worst case, at peak load)");
}
