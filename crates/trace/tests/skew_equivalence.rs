//! Equivalence: the clock-offset estimator (one stream build, one dense
//! IPID index per NF, offsets applied on read, dense `[count, min]` bins)
//! must return exactly the `SkewEstimates` — offsets *and* availability —
//! of the implementation it replaced, which lives on verbatim in
//! `skew_oracle/` (a `correct_bundle` clone and a fresh `EdgeStreams` per
//! pass, `HashMap` indexes and a `HashMap` histogram).
//!
//! Both sides see the same topology and bundle and use the same percentile
//! and sample floor (constants on each side), so a divergence is a
//! semantics change in the rewrite, not in the inputs. Inputs: simulated
//! multi-server runs on the paper topology, a run too short for some edges
//! to reach the sample floor, records close enough to t = 0 that the
//! correction clamps, and hand-placed histogram shapes (single-bin spike,
//! spike at the lowest populated bin, tied peaks, a detached collision
//! cluster).

mod skew_oracle;

use msc_collector::{Collector, CollectorConfig, PacketMeta, TraceBundle};
use msc_trace::{
    correct_bundle, estimate_offsets_detailed, estimate_offsets_refined_detailed, SkewConfig,
};
use nf_sim::{paper_nf_configs, SimConfig, Simulation};
use nf_traffic::{CaidaLike, CaidaLikeConfig};
use nf_types::{paper_topology, FiveTuple, NfId, NfKind, Proto, Topology};

/// Asserts coarse and refined estimates equal the oracle's; returns the
/// refined estimate for scenario-specific sanity checks.
fn assert_equivalent(
    what: &str,
    topology: &Topology,
    bundle: &TraceBundle,
) -> msc_trace::SkewEstimates {
    let cfg = SkewConfig::default();
    assert_eq!(
        estimate_offsets_detailed(topology, bundle, &cfg),
        skew_oracle::estimate_offsets_detailed(topology, bundle),
        "{what}: coarse estimate"
    );
    let refined = estimate_offsets_refined_detailed(topology, bundle, &cfg);
    assert_eq!(
        refined,
        skew_oracle::estimate_offsets_refined_detailed(topology, bundle),
        "{what}: refined estimate"
    );
    refined
}

/// A paper-topology run with the NFs spread over ±2 ms clocks.
fn skewed_run(rate_pps: f64, micros: u64, seed: u64) -> (Topology, TraceBundle) {
    let topology = paper_topology();
    let cfgs = paper_nf_configs(&topology);
    let sim = Simulation::new(
        topology.clone(),
        cfgs,
        SimConfig {
            seed,
            record_fates: false,
            clock_offsets_ns: (0..topology.len() as i64)
                .map(|i| (i % 5 - 2) * 1_000_000)
                .collect(),
            ..Default::default()
        },
    );
    let mut gen = CaidaLike::new(
        CaidaLikeConfig {
            rate_pps,
            ..Default::default()
        },
        seed,
    );
    let packets = gen.generate(0, micros * nf_types::MICROS).finalize(0);
    let bundle = sim.run(&packets).bundle;
    (topology, bundle)
}

/// Six traffic seeds of one traffic profile (one test per profile, so the
/// two run on separate test threads).
fn simulated_runs_match_the_oracle(rate_pps: f64, millis: u64) {
    for seed in [1u64, 5, 11, 23, 42, 77] {
        let (topology, bundle) = skewed_run(rate_pps, millis * 1_000, seed);
        let what = format!("seed {seed}, {rate_pps} pps x {millis} ms");
        let est = assert_equivalent(&what, &topology, &bundle);
        assert!(est.available.iter().all(|&a| a), "{what}: {est:?}");
    }
}

#[test]
fn simulated_runs_at_0_7_mpps_for_40_ms_match_the_oracle() {
    simulated_runs_match_the_oracle(700_000.0, 40);
}

#[test]
fn simulated_runs_at_1_4_mpps_for_20_ms_match_the_oracle() {
    simulated_runs_match_the_oracle(1_400_000.0, 20);
}

#[test]
fn quiet_edges_below_min_samples_match_the_oracle() {
    // 1 ms at 0.2 Mpps: ~200 packets over 16 NFs, so some edges stay under
    // the estimator's 16-sample floor and their NFs fall back to offset 0 / unavailable.
    let (topology, bundle) = skewed_run(200_000.0, 1_000, 3);
    let est = assert_equivalent("quiet edges", &topology, &bundle);
    assert!(
        est.available.contains(&false) && est.available.contains(&true),
        "scenario must mix estimated and fallback NFs: {est:?}"
    );
    // And the fully empty window.
    let empty = Collector::new(&topology, CollectorConfig::default()).into_bundle();
    let est = assert_equivalent("empty window", &topology, &empty);
    assert!(est.available.iter().all(|&a| !a));
}

/// source → nat1 → vpn1.
fn chain() -> Topology {
    let mut b = Topology::builder();
    let a = b.add_nf(NfKind::Nat, "nat1");
    let v = b.add_nf(NfKind::Vpn, "vpn1");
    b.add_entry(a);
    b.add_edge(a, v);
    b.build().unwrap()
}

fn meta(i: u16) -> PacketMeta {
    PacketMeta {
        ipid: i,
        flow: FiveTuple::new(1, 2, 1000 + i, 80, Proto::TCP),
    }
}

#[test]
fn correction_clamped_at_zero_matches_the_oracle() {
    // The run starts at t = 0 on the source clock and nat1's per-packet
    // latency varies, so the coarse estimate (a 5th percentile: offset plus
    // some queueing) exceeds nat1's earliest timestamps and the rewrite
    // clamps them to 0.
    let topo = chain();
    let off = [400_000i64, 150_000];
    let mut c = Collector::new(&topo, CollectorConfig::default());
    for i in 0..300u16 {
        let m = meta(i);
        let t = i as i64 * 2_000;
        let wait = 500 + (i as i64 % 20) * 700;
        c.record_source(t as u64, &m);
        c.record_rx(NfId(0), (t + wait + off[0]) as u64, &[m]);
        c.record_tx(
            NfId(0),
            (t + wait + 1_000 + off[0]) as u64,
            Some(NfId(1)),
            &[m],
        );
        c.record_rx(NfId(1), (t + 2 * wait + 2_000 + off[1]) as u64, &[m]);
        c.record_tx(NfId(1), (t + 2 * wait + 4_000 + off[1]) as u64, None, &[m]);
    }
    let bundle = c.into_bundle();
    let coarse = estimate_offsets_detailed(&topo, &bundle, &SkewConfig::default());
    assert_eq!(
        correct_bundle(&bundle, &coarse.offsets)
            .log(NfId(0))
            .rx
            .ts()[0],
        0,
        "scenario must make the clamp fire (coarse {coarse:?})"
    );
    assert_equivalent("clamped correction", &topo, &bundle);
}

/// One (send, read) pair per IPID on nat1 → vpn1 with exactly the given
/// read−send deltas, sends 500 µs apart: the histogram of that edge is the
/// histogram of `deltas`.
fn edge_with_deltas(deltas: &[i64]) -> (Topology, TraceBundle) {
    let topo = chain();
    let mut c = Collector::new(&topo, CollectorConfig::default());
    for (k, &d) in deltas.iter().enumerate() {
        let m = meta(k as u16);
        let ts = 1_000_000 + k as u64 * 500_000;
        c.record_tx(NfId(0), ts, Some(NfId(1)), &[m]);
        c.record_rx(NfId(1), (ts as i64 + d) as u64, &[m]);
    }
    (topo, c.into_bundle())
}

fn spread(base: i64, n: i64) -> impl Iterator<Item = i64> {
    (0..n).map(move |k| base + k)
}

#[test]
fn hand_placed_histogram_shapes_match_the_oracle() {
    let shapes: [(&str, Vec<i64>); 5] = [
        // Zero queueing spread: every delta in one bin at every bin width.
        ("single-bin spike", vec![5_100; 40]),
        // The peak is the lowest populated bin; higher bins hold a tail.
        (
            "spike at the lowest populated bin",
            spread(5_100, 30)
                .chain(spread(6_100, 8))
                .chain(spread(9_100, 5))
                .collect(),
        ),
        // Two adjacent bins tie for the peak count (the higher wins, the
        // steepest rise is the lower).
        (
            "tied adjacent peaks",
            spread(5_100, 20).chain(spread(6_100, 20)).collect(),
        ),
        // Two detached bins tie for the peak count.
        (
            "tied detached peaks",
            spread(5_100, 20).chain(spread(8_100, 20)).collect(),
        ),
        // A collision cluster far below the coherent spike.
        (
            "detached collision cluster",
            spread(-50_000, 15)
                .chain(spread(5_100, 12))
                .chain(spread(6_100, 20))
                .collect(),
        ),
    ];
    for (what, deltas) in &shapes {
        let (topo, bundle) = edge_with_deltas(deltas);
        let est = assert_equivalent(what, &topo, &bundle);
        // nat1 has no source samples; vpn1 is estimated from the spike.
        assert_eq!(est.available, vec![false, true], "{what}");
    }
}
