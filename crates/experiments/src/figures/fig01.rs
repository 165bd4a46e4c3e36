//! Figure 1: a traffic burst into a single Firewall.
//!
//! "We send CAIDA traffic to a Firewall. At 570 µs, we inject a bursty flow
//! which lasts 340 µs. (a) All the other flows arriving in the next 3 ms
//! experience long latency. (b) The input queue quickly builds up but then
//! takes around 3 ms to drain."
//!
//! Prints the per-50µs mean latency of background packets (Fig. 1a) and the
//! firewall's queue-length series (Fig. 1b), and writes both as CSV.

use super::Figure;
use crate::cli::Params;
use nf_sim::{single_nf_topology, SimConfig, Simulation};
use nf_traffic::{burst, CaidaLike, CaidaLikeConfig, Schedule};
use nf_types::{FiveTuple, NfKind, Proto, MICROS, MILLIS};

pub(super) fn fig01(p: &Params) -> Figure {
    let mut fig = Figure::default();
    let (topo, cfgs) = single_nf_topology(NfKind::Firewall);

    let mut gen = CaidaLike::new(
        CaidaLikeConfig {
            rate_pps: p.rate_pps(),
            ..Default::default()
        },
        p.seed,
    );
    let background = gen.generate(0, p.duration_ns());
    // The burst: 340 µs at ~2 Mpps ≈ 670 packets, starting at 570 µs. With
    // the background at 1.44 Mpps and the firewall peak at ~1.64 Mpps this
    // builds a ~600-packet queue that needs ~3 ms of the ~0.2 Mpps spare
    // capacity to drain — the Fig. 1b shape.
    let burst_flow = FiveTuple::new(
        nf_types::parse_ip("100.0.0.1").expect("ip"),
        nf_types::parse_ip("32.0.0.1").expect("ip"),
        5555,
        80,
        Proto::TCP,
    );
    let burst_sched = burst(burst_flow, 570 * MICROS, 667, 510, 64);

    let sim = Simulation::new(
        topo,
        cfgs,
        SimConfig {
            seed: p.seed,
            queue_sample_every: Some(10 * MICROS),
            ..Default::default()
        },
    );
    let out = sim.run(&Schedule::merge([background, burst_sched]).finalize(0));

    // (a) Mean background latency per 50 µs of arrival time.
    let bucket = 50 * MICROS;
    let n = (p.duration_ns() / bucket + 1) as usize;
    let mut sums = vec![(0.0f64, 0u64); n];
    for f in &out.fates {
        if f.packet.flow == burst_flow {
            continue;
        }
        if let Some(l) = f.latency() {
            let b = ((f.packet.created_at / bucket) as usize).min(n - 1);
            sums[b].0 += l as f64 / 1_000.0;
            sums[b].1 += 1;
        }
    }
    say!(fig, "# Fig 1a: background packet latency vs arrival time");
    say!(fig, "   time_ms     latency_us");
    let mut csv = String::from("time_ms,latency_us\n");
    for (i, &(s, c)) in sums.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let t_ms = i as f64 * bucket as f64 / MILLIS as f64;
        let lat = s / c as f64;
        say!(fig, "{t_ms:>10.2} {lat:>14.1}");
        say!(csv, "{t_ms:.3},{lat:.2}");
    }
    fig.csvs.push(("fig01a_latency.csv", csv));

    // (b) Queue length series.
    say!(fig, "\n# Fig 1b: firewall input queue length");
    say!(fig, "   time_ms  queue_len");
    let mut csv = String::from("time_ms,queue_len\n");
    let mut peak = 0usize;
    let mut drain_ms = 0.0f64;
    for &(t, len) in &out.queue_series[0] {
        let t_ms = t as f64 / MILLIS as f64;
        if len > peak {
            peak = len;
        }
        if len > 10 {
            drain_ms = t_ms;
        }
        if t % (50 * MICROS) < 10 * MICROS {
            say!(fig, "{t_ms:>10.2} {len:>10}");
        }
        say!(csv, "{t_ms:.3},{len}");
    }
    fig.csvs.push(("fig01b_queue.csv", csv));

    say!(
        fig,
        "\n# Summary (paper: queue peaks ~600 and takes ~3 ms to drain)\n\
         peak queue length : {peak}\n\
         queue back under 10 packets at ~{drain_ms:.2} ms (burst ended at 0.91 ms)"
    );
    fig
}
