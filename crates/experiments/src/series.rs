//! Time-series extraction for the Fig. 1–3 reproductions.

use nf_sim::{PacketOutcome, SimOutput};
use nf_types::{FiveTuple, Nanos, NfId};

/// Counts `times` into `bucket_ns`-wide buckets covering `[0, end]`; a
/// time past `end` lands in the last bucket. Returns `(bucket start ns,
/// count)` points.
fn bucket_counts(
    end: Nanos,
    bucket_ns: Nanos,
    times: impl Iterator<Item = Nanos>,
) -> Vec<(Nanos, u64)> {
    assert!(bucket_ns > 0);
    let n = (end / bucket_ns) as usize + 1;
    let mut counts = vec![0u64; n];
    for t in times {
        counts[((t / bucket_ns) as usize).min(n - 1)] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, c)| (i as Nanos * bucket_ns, c))
        .collect()
}

/// Per-bucket packet counts as rates in Mpps.
fn mpps(counts: Vec<(Nanos, u64)>, bucket_ns: Nanos) -> Vec<(Nanos, f64)> {
    counts
        .into_iter()
        .map(|(t, c)| (t, c as f64 / (bucket_ns as f64 / 1e9) / 1e6))
        .collect()
}

/// Buckets delivered-packet throughput of packets matching `filter` into
/// `(bucket start ns, Mpps)` points.
pub fn throughput_series(
    out: &SimOutput,
    bucket_ns: Nanos,
    filter: impl Fn(&FiveTuple) -> bool,
) -> Vec<(Nanos, f64)> {
    let delivered = out.fates.iter().filter_map(|f| match f.outcome {
        PacketOutcome::Delivered(at) if filter(&f.packet.flow) => Some(at),
        _ => None,
    });
    mpps(bucket_counts(out.duration, bucket_ns, delivered), bucket_ns)
}

/// Per-bucket drop counts at one NF for packets matching `filter`.
pub fn drop_series(
    out: &SimOutput,
    nf: NfId,
    bucket_ns: Nanos,
    filter: impl Fn(&FiveTuple) -> bool,
) -> Vec<(Nanos, u64)> {
    let drops = out
        .drops
        .iter()
        .filter(|d| d.nf == nf && filter(&d.packet.flow))
        .map(|d| d.at);
    bucket_counts(out.duration, bucket_ns, drops)
}

/// Input rate (Mpps) into one NF per bucket, split by a flow filter —
/// Fig. 3c's "input rate changes".
pub fn input_rate_series(
    out: &SimOutput,
    nf: NfId,
    bucket_ns: Nanos,
    filter: impl Fn(&FiveTuple) -> bool,
) -> Vec<(Nanos, f64)> {
    // Arrivals: every enqueue at `nf`, plus the ring-full drops there.
    let arrivals = out
        .fates
        .iter()
        .filter(|f| filter(&f.packet.flow))
        .flat_map(|f| {
            let dropped = match f.outcome {
                PacketOutcome::Dropped { nf: dnf, at } if dnf == nf => Some(at),
                _ => None,
            };
            f.hops
                .iter()
                .filter(|h| h.nf == nf)
                .map(|h| h.enqueued_at)
                .chain(dropped)
        });
    mpps(bucket_counts(out.duration, bucket_ns, arrivals), bucket_ns)
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
