//! Time-series extraction for the Fig. 1–3 reproductions.

use nf_sim::{PacketOutcome, SimOutput};
use nf_types::{FiveTuple, Nanos, NfId};

/// Buckets delivered-packet throughput of packets matching `filter` into
/// `(bucket start ns, Mpps)` points.
pub fn throughput_series(
    out: &SimOutput,
    bucket_ns: Nanos,
    filter: impl Fn(&FiveTuple) -> bool,
) -> Vec<(Nanos, f64)> {
    assert!(bucket_ns > 0);
    let end = out.duration;
    let n = (end / bucket_ns) as usize + 1;
    let mut counts = vec![0u64; n];
    for f in &out.fates {
        if let PacketOutcome::Delivered(at) = f.outcome {
            if filter(&f.packet.flow) {
                counts[((at / bucket_ns) as usize).min(n - 1)] += 1;
            }
        }
    }
    counts
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            (
                i as Nanos * bucket_ns,
                c as f64 / (bucket_ns as f64 / 1e9) / 1e6,
            )
        })
        .collect()
}

/// Per-bucket drop counts at one NF for packets matching `filter`.
pub fn drop_series(
    out: &SimOutput,
    nf: NfId,
    bucket_ns: Nanos,
    filter: impl Fn(&FiveTuple) -> bool,
) -> Vec<(Nanos, u64)> {
    assert!(bucket_ns > 0);
    let end = out.duration;
    let n = (end / bucket_ns) as usize + 1;
    let mut counts = vec![0u64; n];
    for d in &out.drops {
        if d.nf == nf && filter(&d.packet.flow) {
            counts[((d.at / bucket_ns) as usize).min(n - 1)] += 1;
        }
    }
    counts
        .iter()
        .enumerate()
        .map(|(i, &c)| (i as Nanos * bucket_ns, c))
        .collect()
}

/// Input rate (Mpps) into one NF per bucket, split by a flow filter —
/// Fig. 3c's "input rate changes".
pub fn input_rate_series(
    out: &SimOutput,
    nf: NfId,
    bucket_ns: Nanos,
    filter: impl Fn(&FiveTuple) -> bool,
) -> Vec<(Nanos, f64)> {
    assert!(bucket_ns > 0);
    let end = out.duration;
    let n = (end / bucket_ns) as usize + 1;
    let mut counts = vec![0u64; n];
    for f in &out.fates {
        if !filter(&f.packet.flow) {
            continue;
        }
        for h in &f.hops {
            if h.nf == nf {
                counts[((h.enqueued_at / bucket_ns) as usize).min(n - 1)] += 1;
            }
        }
        if let PacketOutcome::Dropped { nf: dnf, at } = f.outcome {
            if dnf == nf {
                counts[((at / bucket_ns) as usize).min(n - 1)] += 1;
            }
        }
    }
    counts
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            (
                i as Nanos * bucket_ns,
                c as f64 / (bucket_ns as f64 / 1e9) / 1e6,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_sim::{NfConfig, RoutePolicy, ServiceModel, SimConfig, Simulation};
    use nf_types::{NfKind, Packet, Proto, Topology};

    fn run_simple() -> SimOutput {
        let mut b = Topology::builder();
        let nat = b.add_nf(NfKind::Nat, "nat1");
        b.add_entry(nat);
        let topo = b.build().unwrap();
        let cfgs = vec![NfConfig::new(
            ServiceModel::deterministic(500),
            RoutePolicy::Exit,
        )];
        let flow = FiveTuple::new(1, 2, 3, 4, Proto::UDP);
        let packets: Vec<Packet> = (0..1000u64)
            .map(|i| Packet::new(i, flow, 64, i * 1_000))
            .collect();
        Simulation::new(topo, cfgs, SimConfig::default()).run(&packets)
    }

    #[test]
    fn throughput_series_sums_to_delivered() {
        let out = run_simple();
        let s = throughput_series(&out, 100_000, |_| true);
        // packets = Mpps × 1e6 × bucket_seconds (bucket = 1e-4 s).
        let total: f64 = s.iter().map(|(_, mpps)| mpps * 1e6 * 1e-4).sum();
        assert!((total - 1000.0).abs() < 1.0, "total {total}");
    }

    #[test]
    fn input_rate_counts_arrivals() {
        let out = run_simple();
        let s = input_rate_series(&out, NfId(0), 100_000, |_| true);
        let total: f64 = s.iter().map(|(_, mpps)| mpps * 1e6 * 1e-4).sum();
        assert!((total - 1000.0).abs() < 1.0, "total {total}");
    }

    #[test]
    fn filters_select_flows() {
        let out = run_simple();
        let s = throughput_series(&out, 100_000, |f| f.src_port == 9999);
        assert!(s.iter().all(|&(_, v)| v == 0.0));
    }
}
