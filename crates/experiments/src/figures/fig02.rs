//! Figure 2: impact propagation across NFs.
//!
//! A NAT feeds a VPN with CAIDA-like traffic at a constant rate; flow A
//! goes directly to the VPN. The NAT takes a CPU interrupt during
//! [0.5 ms, 1.3 ms]; when it resumes it releases a squeezed burst, and flow
//! A's throughput at the VPN collapses around [1.5 ms, 2.3 ms] even though
//! flow A never touches the NAT and never overlaps the interrupt.
//!
//! Prints flow A throughput, NAT-traffic throughput at the VPN (Fig. 2b)
//! and the VPN queue length (Fig. 2c).

use super::Figure;
use crate::cli::Params;
use crate::series::throughput_series;
use nf_sim::{Fault, RoutePolicy, ScenarioBuilder, SimConfig, Simulation};
use nf_traffic::{cbr, CaidaLike, CaidaLikeConfig, Schedule};
use nf_types::{FiveTuple, NfKind, Proto, MICROS, MILLIS};

pub(super) fn fig02(p: &Params) -> Figure {
    let mut fig = Figure::default();

    // nat -> vpn, with the vpn also a direct entry (for flow A).
    let mut sb = ScenarioBuilder::new();
    let nat = sb.nf(NfKind::Nat, "nat1");
    let vpn = sb.nf(NfKind::Vpn, "vpn1");
    sb.entry(nat);
    sb.entry(vpn);
    sb.edge(nat, vpn);
    let (topo, mut cfgs) = sb.build();
    cfgs[nat.0 as usize].route = RoutePolicy::Fixed(vpn);

    // Background flows must enter at the NAT, flow A at the VPN: pick flows
    // by the load-balancer hash (the LB is flow-level, so we select tuples
    // that hash where we need them — exactly how an operator pins flows).
    let mut gen = CaidaLike::new(
        CaidaLikeConfig {
            rate_pps: 2.0 * p.rate_pps(), // half will be filtered out
            ..Default::default()
        },
        p.seed,
    );
    let background: Schedule = Schedule::from_entries(
        gen.generate(0, p.duration_ns())
            .entries()
            .into_iter()
            .filter(|e| topo.entry_for(&e.flow) == nat)
            .collect(),
    );
    let flow_a = (0u16..)
        .map(|p| FiveTuple::new(0x0b000001, 0x20000001, 40_000 + p, 443, Proto::UDP))
        .find(|f| topo.entry_for(f) == vpn)
        .expect("some tuple hashes to the vpn entry");
    let a_sched = cbr(flow_a, 0, p.duration_ns(), 150_000.0, 64);

    let mut sim = Simulation::new(
        topo,
        cfgs,
        SimConfig {
            seed: p.seed,
            queue_sample_every: Some(10 * MICROS),
            ..Default::default()
        },
    );
    // With the crypto-bound VPN at ~0.63 Mpps peak and 0.42 + 0.15 Mpps of
    // offered load (~90% utilisation), the NAT's post-interrupt release
    // pushes the VPN well past saturation — the Fig. 2 regime.
    sim.add_fault(Fault::Interrupt {
        nf: nat,
        at: 500 * MICROS,
        duration: 800 * MICROS,
    });
    let out = sim.run(&Schedule::merge([background, a_sched]).finalize(0));

    let bucket = 100 * MICROS;
    let a_tp = throughput_series(&out, bucket, |f| *f == flow_a);
    let nat_tp = throughput_series(&out, bucket, |f| *f != flow_a);

    say!(
        fig,
        "# Fig 2b: throughput at the VPN (Mpps), interrupt at NAT 0.5-1.3 ms"
    );
    say!(fig, "  time_ms     flow_A traffic_from_NAT");
    let mut csv = String::from("time_ms,flow_a_mpps,nat_traffic_mpps\n");
    for (i, &(t, a)) in a_tp.iter().enumerate() {
        let n = nat_tp.get(i).map_or(0.0, |&(_, v)| v);
        let t_ms = t as f64 / MILLIS as f64;
        say!(fig, "{t_ms:>9.1} {a:>10.3} {n:>14.3}");
        say!(csv, "{t_ms:.2},{a:.4},{n:.4}");
    }
    fig.csvs.push(("fig02b_throughput.csv", csv));

    say!(fig, "\n# Fig 2c: VPN queue length");
    let mut csv = String::from("time_ms,queue_len\n");
    for &(t, len) in &out.queue_series[vpn.0 as usize] {
        say!(csv, "{:.3},{len}", t as f64 / MILLIS as f64);
    }
    fig.csvs.push(("fig02c_queue.csv", csv));
    let (peak_t, peak) = out.queue_series[vpn.0 as usize]
        .iter()
        .max_by_key(|&&(_, l)| l)
        .map_or((0.0, 0), |&(t, l)| (t as f64 / MILLIS as f64, l));

    // Flow A's worst throughput bucket after the interrupt.
    let min_a = a_tp
        .iter()
        .filter(|&&(t, _)| t >= 1_300 * MICROS)
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .copied()
        .unwrap_or((0, 0.0));

    say!(
        fig,
        "\n# Summary (paper: VPN queue builds ~1.5 ms AFTER the interrupt starts,\n\
         # and flow A's throughput dips although it never crosses the NAT)\n\
         VPN queue peak {peak} packets at {peak_t:.2} ms\n\
         flow A throughput floor after interrupt: {:.3} Mpps at {:.2} ms (nominal 0.150)",
        min_a.1,
        min_a.0 as f64 / MILLIS as f64
    );
    fig
}
