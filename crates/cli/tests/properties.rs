//! Property-based tests over the core invariants, spanning crates. Case
//! `n` of every property draws its input from `StdRng::seed_from_u64(n)`,
//! so a failure is replayed from the case number its message names.

use microscope::propagation::credit_walk;
use microscope::{local_scores, LatencyThreshold, VictimConfig};
use msc_collector::{
    decode_nf_log, encode_nf_log, Collector, CollectorConfig, FlowRecord, NfLog, PacketMeta,
};
use msc_trace::{reconstruct, ReconstructionConfig, TraceOutcome};
use nf_sim::{PacketOutcome, ScenarioBuilder, SimConfig, Simulation};
use nf_traffic::{CaidaLike, CaidaLikeConfig};
use nf_types::{FiveTuple, Interval, NfId, NfKind, Proto, Topology, MILLIS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_flow(rng: &mut StdRng) -> FiveTuple {
    let proto = [Proto::TCP, Proto::UDP, Proto::ICMP][rng.gen_range(0..3)];
    FiveTuple::new(rng.gen(), rng.gen(), rng.gen(), rng.gen(), proto)
}

/// 0..=32 arbitrary IPIDs. Empty batches too: a recorder never writes one,
/// a decoder must carry it.
fn arb_ipids(rng: &mut StdRng) -> Vec<u16> {
    (0..rng.gen_range(0..=32)).map(|_| rng.gen()).collect()
}

fn arb_nf_log(rng: &mut StdRng) -> NfLog {
    let mut rx: Vec<(u64, Vec<u16>)> = (0..rng.gen_range(0..20))
        .map(|_| (rng.gen_range(0..1_000_000_000), arb_ipids(rng)))
        .collect();
    let mut tx: Vec<(u64, Option<u16>, Vec<u16>)> = (0..rng.gen_range(0..20))
        .map(|_| {
            let ts = rng.gen_range(0..1_000_000_000);
            let to = rng.gen_bool(0.75).then(|| rng.gen_range(0..8));
            (ts, to, arb_ipids(rng))
        })
        .collect();
    let flows: Vec<FlowRecord> = (0..rng.gen_range(0..20))
        .map(|_| FlowRecord {
            ts: rng.gen_range(0..1_000_000_000),
            ipid: rng.gen(),
            flow: arb_flow(rng),
        })
        .collect();
    let mut log = NfLog::new(NfId(3));
    rx.sort_by_key(|b| b.0);
    for (ts, ipids) in rx {
        log.rx.push(ts, ipids);
    }
    tx.sort_by_key(|b| b.0);
    for (ts, to, ipids) in tx {
        log.tx.push(ts, to.map(NfId), ipids);
    }
    log.flows = flows;
    log.flows.sort_by_key(|f| f.ts);
    log
}

/// The wire encoding round-trips every well-formed log.
#[test]
fn encode_decode_round_trip() {
    for case in 0..64 {
        let log = arb_nf_log(&mut StdRng::seed_from_u64(case));
        let bytes = encode_nf_log(&log).unwrap_or_else(|e| panic!("case {case}: {e} on {log:?}"));
        let back = decode_nf_log(&bytes).unwrap_or_else(|e| panic!("case {case}: {e} on {log:?}"));
        assert_eq!(back, log, "case {case}");
    }
}

/// Eqs. (1)+(2): Si + Sp always equals the queue length n_i − n_p.
#[test]
fn si_plus_sp_is_queue_length() {
    for case in 0..64 {
        let mut rng = StdRng::seed_from_u64(case);
        let len_us = rng.gen_range(1u64..100_000);
        let n_arrived = rng.gen_range(0u64..100_000);
        let backlog = rng.gen_range(0u64..5_000);
        let rate_mpps = rng.gen_range(1u32..40);
        let n_processed = n_arrived.saturating_sub(backlog);
        let qp = msc_trace::QueuingPeriod {
            interval: Interval::new(0, len_us * 1_000),
            preset: 0..0,
            n_arrived,
            n_processed,
        };
        let s = local_scores(&qp, rate_mpps as f64 * 1e5);
        let input = format!("case {case}: {qp:?}, rate_mpps {rate_mpps}");
        assert!((s.total() - qp.queue_len() as f64).abs() < 1e-6, "{input}");
        assert!(s.si >= 0.0, "{input}");
    }
}

/// §4.2 credit walk: credits are conserved — they sum to exactly the
/// effective timespan reduction, and no credit is negative. Spans range
/// up to 3× the largest `texp` so stretch-past-`texp` (where the walk
/// resets its baseline to `out.min(texp)`, not `out`) is exercised on
/// arbitrary squeeze/stretch interleavings.
#[test]
fn credit_walk_conserves_reduction() {
    for case in 0..64 {
        let mut rng = StdRng::seed_from_u64(case);
        let texp = rng.gen_range(1u64..1_000_000);
        let spans: Vec<u64> = (0..rng.gen_range(1..10))
            .map(|_| rng.gen_range(0..3_000_000))
            .collect();
        let input = format!("case {case}: texp {texp}, spans {spans:?}");
        let credits = credit_walk(texp, &spans);
        assert_eq!(credits.len(), spans.len(), "{input}");
        // The conserved quantity is texp − the *final effective* timespan:
        // squeezes lower it, stretches raise it back (clamped by texp) and
        // cancel earlier credit — §4.2's "effective reduction from f's
        // perspective".
        let eff = spans
            .iter()
            .fold(texp, |prev, &s| if s < prev { s } else { s.min(texp) });
        let total: u64 = credits.iter().sum();
        assert_eq!(total, texp.saturating_sub(eff), "{input}");
        assert!(total <= texp, "{input}");
        assert!(credits.iter().all(|&c| c <= texp), "{input}");
    }
}

/// Flow aggregates: a parent produced by any single-dimension
/// generalisation still matches everything the child matches.
#[test]
fn aggregate_generalisation_is_monotone() {
    for case in 0..64 {
        let flow = arb_flow(&mut StdRng::seed_from_u64(case));
        let exact = nf_types::FlowAggregate::exact(&flow);
        assert!(exact.matches(&flow), "case {case}: {flow:?}");
        let mut agg = exact;
        // March the src prefix all the way up; matching must never break.
        while let Some(p) = agg.src.parent() {
            agg.src = p;
            assert!(agg.matches(&flow), "case {case}: {flow:?} at {agg:?}");
            assert!(agg.covers(&exact), "case {case}: {flow:?} at {agg:?}");
        }
        let mut agg = exact;
        while let Some(r) = agg.src_port.static_parent() {
            agg.src_port = r;
            assert!(agg.matches(&flow), "case {case}: {flow:?} at {agg:?}");
        }
    }
}

/// §7 timestamp audit: clock-skew correction clamps record timestamps
/// at 0 while source emission times keep running, so a corrected bundle
/// can legitimately contain arrivals that precede their own send times.
/// Every downstream `sent − arrival`-style subtraction must saturate —
/// this feeds adversarial per-NF offsets (far beyond anything the
/// estimator would emit) straight into `correct_bundle` and asserts the
/// whole reconstruct → find_victims path survives without an underflow
/// panic (debug builds abort on wrapping subtraction).
#[test]
fn skew_corrected_pipeline_never_underflows() {
    for case in 0..32 {
        let mut rng = StdRng::seed_from_u64(case);
        let offsets: Vec<i64> = (0..2)
            .map(|_| rng.gen_range(-2_000_000_000..2_000_000_000))
            .collect();
        let n_pkts = rng.gen_range(32u16..128);
        let spacing = rng.gen_range(500u64..20_000);

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
        let est =
            msc_trace::estimate_offsets_refined(&topo, &bundle, &msc_trace::SkewConfig::default());
        let fixed = msc_trace::correct_bundle(&bundle, &est);
        let (recon, _) = reconstruct(&topo, &fixed, &ReconstructionConfig::default()).unwrap();
        let _ = microscope::find_victims(&recon, &vcfg);

        // Path 2: the raw adversarial offsets applied directly — correction
        // pins whole logs to ts = 0, the worst case for underflow.
        let fixed = msc_trace::correct_bundle(&bundle, &offsets);
        let (recon, _) = reconstruct(&topo, &fixed, &ReconstructionConfig::default()).unwrap();
        let _ = microscope::find_victims(&recon, &vcfg);
    }
}

/// End-to-end on random mini-workloads: a deterministic 2-NF chain run
/// must reconstruct every packet exactly (no drops, moderate rate). Each
/// case runs a full simulate→reconstruct cycle, hence the small count.
#[test]
fn chain_reconstruction_is_exact_on_random_workloads() {
    for case in 0..24 {
        let mut rng = StdRng::seed_from_u64(case);
        let seed = rng.gen_range(0u64..500);
        let n_flows = rng.gen_range(1usize..20);
        let rate_khz = rng.gen_range(50u32..400);
        let input = format!("case {case}: seed {seed}, {n_flows} flows, {rate_khz} kHz");

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
            },
            seed,
        );
        let packets = gen.generate(0, 2 * MILLIS).finalize(0);
        let sim = Simulation::new(
            topo.clone(),
            cfgs,
            SimConfig {
                seed,
                ..Default::default()
            },
        );
        let out = sim.run(&packets);
        let (recon, _) = reconstruct(&topo, &out.bundle, &ReconstructionConfig::default()).unwrap();
        assert_eq!(recon.report.flow_mismatches, 0, "{input}");
        for (tr, fate) in recon.traces.iter().zip(&out.fates) {
            assert_eq!(tr.flow, fate.packet.flow, "{input}");
            match (&tr.outcome, &fate.outcome) {
                (TraceOutcome::Delivered(x), PacketOutcome::Delivered(y)) => {
                    assert_eq!(x, y, "{input}")
                }
                (TraceOutcome::InferredDrop { nf, .. }, PacketOutcome::Dropped { nf: n2, .. }) => {
                    assert_eq!(nf, n2, "{input}")
                }
                (TraceOutcome::Unresolved, PacketOutcome::InFlight) => {}
                (got, want) => panic!("{input}: recon {got:?} truth {want:?}"),
            }
        }
    }
}
