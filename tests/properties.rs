//! Property-based tests over the core invariants, spanning crates.

use microscope_repro::collector::{decode_nf_log, encode_nf_log, FlowRecord, NfLog, PacketMeta};
use microscope_repro::diagnosis::local_scores;
use microscope_repro::diagnosis::propagation::credit_walk;
use microscope_repro::prelude::*;
use microscope_repro::sim::PacketOutcome;
use microscope_repro::trace::TraceOutcome;
use nf_types::Interval;
use proptest::prelude::*;

fn arb_flow() -> impl Strategy<Value = FiveTuple> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        prop_oneof![Just(Proto::TCP), Just(Proto::UDP), Just(Proto::ICMP)],
    )
        .prop_map(|(s, d, sp, dp, pr)| FiveTuple::new(s, d, sp, dp, pr))
}

fn arb_nf_log() -> impl Strategy<Value = NfLog> {
    let rx = proptest::collection::vec(
        (
            0u64..1_000_000_000,
            // Empty batches too: a recorder never writes one, a decoder
            // must carry it.
            proptest::collection::vec(any::<u16>(), 0..=32),
        ),
        0..20,
    );
    let tx = proptest::collection::vec(
        (
            0u64..1_000_000_000,
            proptest::option::of(0u16..8),
            proptest::collection::vec(any::<u16>(), 0..=32),
        ),
        0..20,
    );
    let flows = proptest::collection::vec((0u64..1_000_000_000, any::<u16>(), arb_flow()), 0..20);
    (rx, tx, flows).prop_map(|(mut rx, mut tx, flows)| {
        let mut log = NfLog::new(NfId(3));
        rx.sort_by_key(|b| b.0);
        for (ts, ipids) in rx {
            log.rx.push(ts, ipids);
        }
        tx.sort_by_key(|b| b.0);
        for (ts, to, ipids) in tx {
            log.tx.push(ts, to.map(NfId), ipids);
        }
        log.flows = flows
            .into_iter()
            .map(|(ts, ipid, flow)| FlowRecord { ipid, flow, ts })
            .collect();
        log.flows.sort_by_key(|f| f.ts);
        log
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The wire encoding round-trips every well-formed log.
    #[test]
    fn encode_decode_round_trip(log in arb_nf_log()) {
        let bytes = encode_nf_log(&log).expect("encodes");
        let back = decode_nf_log(&bytes).expect("decodes");
        prop_assert_eq!(back, log);
    }

    /// Eqs. (1)+(2): Si + Sp always equals the queue length n_i − n_p.
    #[test]
    fn si_plus_sp_is_queue_length(
        len_us in 1u64..100_000,
        n_arrived in 0u64..100_000,
        backlog in 0u64..5_000,
        rate_mpps in 1u32..40,
    ) {
        let n_processed = n_arrived.saturating_sub(backlog);
        let qp = microscope_repro::trace::QueuingPeriod {
            interval: Interval::new(0, len_us * 1_000),
            preset: 0..0,
            n_arrived,
            n_processed,
        };
        let s = local_scores(&qp, rate_mpps as f64 * 1e5);
        prop_assert!((s.total() - qp.queue_len() as f64).abs() < 1e-6);
        prop_assert!(s.si >= 0.0);
    }

    /// §4.2 credit walk: credits are conserved — they sum to exactly the
    /// effective timespan reduction, and no credit is negative. Spans range
    /// up to 3× the largest `texp` so stretch-past-`texp` (where the walk
    /// resets its baseline to `out.min(texp)`, not `out`) is exercised on
    /// arbitrary squeeze/stretch interleavings.
    #[test]
    fn credit_walk_conserves_reduction(
        texp in 1u64..1_000_000,
        spans in proptest::collection::vec(0u64..3_000_000, 1..10),
    ) {
        let credits = credit_walk(texp, &spans);
        prop_assert_eq!(credits.len(), spans.len());
        // The conserved quantity is texp − the *final effective* timespan:
        // squeezes lower it, stretches raise it back (clamped by texp) and
        // cancel earlier credit — §4.2's "effective reduction from f's
        // perspective".
        let eff = spans
            .iter()
            .fold(texp, |prev, &s| if s < prev { s } else { s.min(texp) });
        let total: u64 = credits.iter().sum();
        prop_assert_eq!(total, texp.saturating_sub(eff));
        prop_assert!(total <= texp);
        prop_assert!(credits.iter().all(|&c| c <= texp));
    }

    /// Flow aggregates: a parent produced by any single-dimension
    /// generalisation still matches everything the child matches.
    #[test]
    fn aggregate_generalisation_is_monotone(flow in arb_flow()) {
        let exact = microscope_repro::types::FlowAggregate::exact(&flow);
        prop_assert!(exact.matches(&flow));
        let mut agg = exact;
        // March the src prefix all the way up; matching must never break.
        while let Some(p) = agg.src.parent() {
            agg.src = p;
            prop_assert!(agg.matches(&flow));
            prop_assert!(agg.covers(&exact));
        }
        let mut agg = exact;
        while let Some(r) = agg.src_port.static_parent() {
            agg.src_port = r;
            prop_assert!(agg.matches(&flow));
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// §7 timestamp audit: clock-skew correction clamps record timestamps
    /// at 0 while source emission times keep running, so a corrected bundle
    /// can legitimately contain arrivals that precede their own send times.
    /// Every downstream `sent − arrival`-style subtraction must saturate —
    /// this feeds adversarial per-NF offsets (far beyond anything the
    /// estimator would emit) straight into `correct_bundle` and asserts the
    /// whole reconstruct → find_victims path survives without an underflow
    /// panic (debug builds abort on wrapping subtraction).
    #[test]
    fn skew_corrected_pipeline_never_underflows(
        offsets in proptest::collection::vec(-2_000_000_000i64..2_000_000_000, 2),
        n_pkts in 32u16..128,
        spacing in 500u64..20_000,
    ) {
        let mut b = Topology::builder();
        let a = b.add_nf(NfKind::Nat, "nat1");
        let v = b.add_nf(NfKind::Vpn, "vpn1");
        b.add_entry(a);
        b.add_edge(a, v);
        let topo = b.build().unwrap();

        let mut c = Collector::new(&topo, CollectorConfig::default());
        for i in 0..n_pkts {
            let m = PacketMeta {
                ipid: i,
                flow: FiveTuple::new(0x0a000001, 0x14000001, 1000, 80, Proto::TCP),
            };
            let t = 1_000 + i as u64 * spacing;
            c.record_source(t, &m);
            // Each NF's records carry its own (adversarially) skewed clock.
            let skewed = |true_ts: u64, off: i64| (true_ts as i64 + off).max(0) as u64;
            c.record_rx(NfId(0), skewed(t + 1_000, offsets[0]), &[m]);
            c.record_tx(NfId(0), skewed(t + 2_000, offsets[0]), Some(NfId(1)), &[m]);
            c.record_rx(NfId(1), skewed(t + 3_000, offsets[1]), &[m]);
            c.record_tx(NfId(1), skewed(t + 5_000, offsets[1]), None, &[m]);
        }
        let bundle = c.into_bundle();

        let vcfg = VictimConfig {
            latency: LatencyThreshold::Quantile(0.5),
            ..Default::default()
        };
        // Path 1: the estimator's own offsets (whatever it makes of the
        // adversarial clocks).
        let est = microscope_repro::trace::estimate_offsets_detailed(
            &topo,
            &bundle,
            &microscope_repro::trace::SkewConfig::default(),
        )
        .offsets;
        let fixed = microscope_repro::trace::correct_bundle(&bundle, &est);
        let recon = reconstruct(&topo, &fixed, &ReconstructionConfig::default());
        let _ = microscope_repro::diagnosis::find_victims(&recon, &vcfg);

        // Path 2: the raw adversarial offsets applied directly — correction
        // pins whole logs to ts = 0, the worst case for underflow.
        let fixed = microscope_repro::trace::correct_bundle(&bundle, &offsets);
        let recon = reconstruct(&topo, &fixed, &ReconstructionConfig::default());
        let _ = microscope_repro::diagnosis::find_victims(&recon, &vcfg);
    }
}

proptest! {
    // Each case runs a full simulate→reconstruct cycle; keep the case count
    // bounded so debug-mode `cargo test` stays snappy.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// End-to-end on random mini-workloads: a deterministic 2-NF chain run
    /// must reconstruct every packet exactly (no drops, moderate rate).
    #[test]
    fn chain_reconstruction_is_exact_on_random_workloads(
        seed in 0u64..500,
        n_flows in 1usize..20,
        rate_khz in 50u32..400,
    ) {
        let mut sb = ScenarioBuilder::new();
        let a = sb.nf(NfKind::Nat, "nat1");
        let b = sb.nf(NfKind::Vpn, "vpn1");
        sb.entry(a);
        sb.edge(a, b);
        let (topo, cfgs) = sb.build();
        let mut gen = CaidaLike::new(
            CaidaLikeConfig {
                rate_pps: rate_khz as f64 * 1e3,
                active_flows: n_flows,
                ..Default::default()
            },
            seed,
        );
        let packets = gen.generate(0, 2 * MILLIS).finalize(0);
        let sim = Simulation::new(topo.clone(), cfgs, SimConfig { seed, ..Default::default() });
        let out = sim.run(&packets);
        let recon = reconstruct(&topo, &out.bundle, &ReconstructionConfig::default());
        prop_assert_eq!(recon.report.flow_mismatches, 0);
        for (tr, fate) in recon.traces.iter().zip(&out.fates) {
            prop_assert_eq!(tr.flow, fate.packet.flow);
            match (&tr.outcome, &fate.outcome) {
                (TraceOutcome::Delivered(x), PacketOutcome::Delivered(y)) => {
                    prop_assert_eq!(x, y)
                }
                (TraceOutcome::InferredDrop { nf, .. }, PacketOutcome::Dropped { nf: n2, .. }) => {
                    prop_assert_eq!(nf, n2)
                }
                (TraceOutcome::Unresolved, PacketOutcome::InFlight) => {}
                (got, want) => prop_assert!(false, "recon {:?} truth {:?}", got, want),
            }
        }
    }
}
