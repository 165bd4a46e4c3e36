//! Figure 3: different impacts from similar behaviours.
//!
//! A NAT (heavy traffic) and a Monitor (light traffic) both feed a VPN;
//! flow A goes to the VPN directly. Both upstreams take an interrupt at the
//! same instant. All flows lose packets at the VPN afterwards, but the
//! NAT's resumed burst dominates — visible in the per-upstream input-rate
//! changes at the VPN (Fig. 3c), which is how Microscope quantifies the
//! relative contribution.

use super::Figure;
use crate::cli::Params;
use crate::series::{drop_series, input_rate_series};
use nf_sim::{Fault, ScenarioBuilder, SimConfig, Simulation};
use nf_traffic::{cbr, Schedule};
use nf_types::{FiveTuple, NfKind, Proto, MICROS, MILLIS};

pub(super) fn fig03(p: &Params) -> Figure {
    let mut fig = Figure::default();

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

    let dur = p.duration_ns();
    let sched = Schedule::merge([
        cbr(nat_flow, 0, dur, p.rate_pps(), 64), // 0.25 Mpps (paper)
        cbr(mon_flow, 0, dur, p.rate_pps() / 5.0, 64), // 0.05 Mpps
        cbr(a_flow, 0, dur, 100_000.0, 64),
    ]);

    let mut sim = Simulation::new(
        topo,
        cfgs,
        SimConfig {
            seed: p.seed,
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

    say!(
        fig,
        "# Fig 3b: packet drops at the VPN per 100 µs   |   Fig 3c: input rates (Mpps)"
    );
    say!(
        fig,
        " time_ms    d_nat    d_mon      d_A |   in_nat   in_mon     in_A"
    );
    let mut csv = String::from(
        "time_ms,drops_nat,drops_mon,drops_a,rate_nat_mpps,rate_mon_mpps,rate_a_mpps\n",
    );
    for i in 0..rate_nat.len() {
        let t_ms = rate_nat[i].0 as f64 / MILLIS as f64;
        let (dn, dm, da) = (drops_nat[i].1, drops_mon[i].1, drops_a[i].1);
        let (rn, rm, ra) = (rate_nat[i].1, rate_mon[i].1, rate_a[i].1);
        say!(
            fig,
            "{t_ms:>8.1} {dn:>8} {dm:>8} {da:>8} | {rn:>8.3} {rm:>8.3} {ra:>8.3}"
        );
        say!(csv, "{t_ms:.2},{dn},{dm},{da},{rn:.4},{rm:.4},{ra:.4}");
    }
    fig.csvs.push(("fig03_drops_rates.csv", csv));

    // Quantify the dominance: peak input-rate increase over nominal.
    let nominal_nat = p.rate_pps() / 1e6;
    let nominal_mon = nominal_nat / 5.0;
    let peak_nat = rate_nat.iter().map(|&(_, v)| v).fold(0.0, f64::max);
    let peak_mon = rate_mon.iter().map(|&(_, v)| v).fold(0.0, f64::max);
    say!(
        fig,
        "\n# Summary (paper: the NAT's post-interrupt burst dominates the losses)\n\
         input-rate surge: NAT {nominal_nat:.3}->{peak_nat:.3} Mpps (+{:.3}), \
         Monitor {nominal_mon:.3}->{peak_mon:.3} Mpps (+{:.3})\n\
         total drops at the VPN: {}",
        peak_nat - nominal_nat,
        peak_mon - nominal_mon,
        out.drops.len()
    );
    if peak_nat - nominal_nat > 2.0 * (peak_mon - nominal_mon) {
        fig
    } else {
        fig.fail("NAT surge should dominate")
    }
}
