//! Figure 3: different impacts from similar behaviours.
//!
//! A NAT (heavy traffic) and a Monitor (light traffic) both feed a VPN;
//! flow A goes to the VPN directly. Both upstreams take an interrupt at the
//! same instant. All flows lose packets at the VPN afterwards, but the
//! NAT's resumed burst dominates — visible in the per-upstream input-rate
//! changes at the VPN (Fig. 3c), which is how Microscope quantifies the
//! relative contribution.

use msc_experiments::cli::{write_csv, Args};
use msc_experiments::series::{drop_series, input_rate_series};
use nf_sim::{Fault, NfConfig, ScenarioBuilder, SimConfig, Simulation};
use nf_traffic::{cbr, Schedule};
use nf_types::{FiveTuple, NfKind, Proto, MICROS, MILLIS};

fn main() {
    let args = Args::parse(5, 0.25); // --rate sets the NAT feed (Mpps)

    let mut sb = ScenarioBuilder::new();
    let nat = sb.nf(NfKind::Nat, "nat1");
    let mon = sb.nf(NfKind::Monitor, "mon1");
    let vpn = sb.nf(NfKind::Vpn, "vpn1");
    sb.entry(nat);
    sb.entry(mon);
    sb.entry(vpn);
    sb.edge(nat, vpn);
    sb.edge(mon, vpn);
    let (topo, mut cfgs) = sb.build();
    // A small VPN ring makes the loss visible with the paper's 0.25/0.05
    // Mpps feeds (the testbed VPN had other tenants competing for it).
    cfgs[vpn.0 as usize].queue_capacity = 128;
    let cfgs: Vec<NfConfig> = cfgs;

    // Pin one CBR flow per entry by searching the LB hash.
    let pick = |entry, base_port: u16| -> FiveTuple {
        (0u16..)
            .map(|p| FiveTuple::new(0x0c000001, 0x20000001, base_port + p, 443, Proto::UDP))
            .find(|f| topo.entry_for(f) == entry)
            .expect("some tuple hashes to the entry")
    };
    let nat_flow = pick(nat, 10_000);
    let mon_flow = pick(mon, 20_000);
    let a_flow = pick(vpn, 30_000);

    let dur = args.duration_ns();
    let sched = Schedule::merge([
        cbr(nat_flow, 0, dur, args.rate_pps(), 64), // 0.25 Mpps (paper)
        cbr(mon_flow, 0, dur, args.rate_pps() / 5.0, 64), // 0.05 Mpps
        cbr(a_flow, 0, dur, 100_000.0, 64),
    ]);

    let mut sim = Simulation::new(
        topo,
        cfgs,
        SimConfig {
            seed: args.seed,
            queue_sample_every: Some(10 * MICROS),
            ..Default::default()
        },
    );
    // Interrupts at the same time on both upstreams (paper: "interrupts at
    // the same time").
    for nf in [nat, mon] {
        sim.add_fault(Fault::Interrupt {
            nf,
            at: 600 * MICROS,
            duration: 900 * MICROS,
        });
    }
    let out = sim.run(&sched.finalize(0));

    let bucket = 100 * MICROS;
    let rate_nat = input_rate_series(&out, vpn, bucket, |f| *f == nat_flow);
    let rate_mon = input_rate_series(&out, vpn, bucket, |f| *f == mon_flow);
    let rate_a = input_rate_series(&out, vpn, bucket, |f| *f == a_flow);
    let drops_nat = drop_series(&out, vpn, bucket, |f| *f == nat_flow);
    let drops_mon = drop_series(&out, vpn, bucket, |f| *f == mon_flow);
    let drops_a = drop_series(&out, vpn, bucket, |f| *f == a_flow);

    println!("# Fig 3b: packet drops at the VPN per 100 µs   |   Fig 3c: input rates (Mpps)");
    println!(
        "{:>8} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
        "time_ms", "d_nat", "d_mon", "d_A", "in_nat", "in_mon", "in_A"
    );
    let mut rows = Vec::new();
    for i in 0..rate_nat.len() {
        let t_ms = rate_nat[i].0 as f64 / MILLIS as f64;
        println!(
            "{:>8.1} {:>8} {:>8} {:>8} | {:>8.3} {:>8.3} {:>8.3}",
            t_ms,
            drops_nat[i].1,
            drops_mon[i].1,
            drops_a[i].1,
            rate_nat[i].1,
            rate_mon[i].1,
            rate_a[i].1
        );
        rows.push(vec![
            format!("{t_ms:.2}"),
            drops_nat[i].1.to_string(),
            drops_mon[i].1.to_string(),
            drops_a[i].1.to_string(),
            format!("{:.4}", rate_nat[i].1),
            format!("{:.4}", rate_mon[i].1),
            format!("{:.4}", rate_a[i].1),
        ]);
    }
    write_csv(
        &args.csv_path("fig03_drops_rates.csv"),
        &[
            "time_ms",
            "drops_nat",
            "drops_mon",
            "drops_a",
            "rate_nat_mpps",
            "rate_mon_mpps",
            "rate_a_mpps",
        ],
        &rows,
    );

    // Quantify the dominance: peak input-rate increase over nominal.
    let nominal_nat = args.rate_pps() / 1e6;
    let nominal_mon = nominal_nat / 5.0;
    let peak_nat = rate_nat.iter().map(|&(_, v)| v).fold(0.0, f64::max);
    let peak_mon = rate_mon.iter().map(|&(_, v)| v).fold(0.0, f64::max);
    let total_drops: u64 = out.drops.len() as u64;
    println!("\n# Summary (paper: the NAT's post-interrupt burst dominates the losses)");
    println!(
        "input-rate surge: NAT {:.3}->{:.3} Mpps (+{:.3}), Monitor {:.3}->{:.3} Mpps (+{:.3})",
        nominal_nat,
        peak_nat,
        peak_nat - nominal_nat,
        nominal_mon,
        peak_mon,
        peak_mon - nominal_mon
    );
    println!("total drops at the VPN: {total_drops}");
    assert!(
        peak_nat - nominal_nat > 2.0 * (peak_mon - nominal_mon),
        "NAT surge should dominate"
    );
}
