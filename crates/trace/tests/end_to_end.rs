//! End-to-end validation: run the simulator, feed ONLY the collector bundle
//! to the reconstruction, and check the result against the simulator's
//! ground-truth packet fates.
//!
//! This is the §5 correctness claim: 2-byte IPID records plus the three side
//! channels suffice to rebuild packet journeys across the NF DAG.

use msc_trace::{reconstruct, ReconstructionConfig, TraceOutcome};
use nf_sim::PacketOutcome;
use nf_sim::{paper_nf_configs, Fault, SimConfig, Simulation};
use nf_traffic::{CaidaLike, CaidaLikeConfig, Schedule};
use nf_types::paper_topology;

fn caida_schedule(rate_pps: f64, millis: u64, seed: u64) -> Schedule {
    let cfg = CaidaLikeConfig {
        rate_pps,
        active_flows: 512,
    };
    let mut g = CaidaLike::new(cfg, seed);
    g.generate(0, millis * nf_types::MILLIS)
}

#[test]
fn reconstruction_matches_ground_truth_on_paper_topology() {
    let topo = paper_topology();
    let cfgs = paper_nf_configs(&topo);
    let sim = Simulation::new(topo.clone(), cfgs, SimConfig::default());
    let packets = caida_schedule(1_200_000.0, 20, 42).finalize(0);
    let n = packets.len();
    let out = sim.run(&packets);

    let (recon, _) = reconstruct(&topo, &out.bundle, &ReconstructionConfig::default()).unwrap();
    assert_eq!(recon.traces.len(), n);

    // Every reconstructed journey must agree with ground truth.
    let mut checked_hops = 0usize;
    for (i, tr) in recon.traces.iter().enumerate() {
        let fate = &out.fates[i];
        assert_eq!(tr.flow, fate.packet.flow, "flow of packet {i}");
        match (&tr.outcome, &fate.outcome) {
            (TraceOutcome::Delivered(a), PacketOutcome::Delivered(b)) => {
                assert_eq!(a, b, "delivery time of packet {i}")
            }
            (TraceOutcome::InferredDrop { nf, .. }, PacketOutcome::Dropped { nf: nf2, .. }) => {
                assert_eq!(nf, nf2, "drop location of packet {i}")
            }
            (TraceOutcome::Unresolved, PacketOutcome::InFlight) => {}
            (got, want) => panic!("packet {i}: reconstructed {got:?}, truth {want:?}"),
        }
        // Hop-by-hop agreement.
        let hops = recon.hops_of(i);
        assert_eq!(hops.len(), fate.hops.len(), "hop count of packet {i}");
        for (h, g) in hops.iter().zip(&fate.hops) {
            assert_eq!(h.nf, g.nf, "packet {i} hop NF");
            assert_eq!(h.read_ts, g.read_at, "packet {i} read ts");
            if let Some(sent) = h.sent_ts() {
                assert_eq!(sent, g.sent_at, "packet {i} sent ts");
            }
            checked_hops += 1;
        }
    }
    assert!(checked_hops > 2 * n, "expected multi-hop paths");
    assert_eq!(recon.report.flow_mismatches, 0);
    assert!(
        (recon.report.unmatched_rx as f64) < 1e-3 * out.fates.len() as f64,
        "unmatched rx: {}",
        recon.report.unmatched_rx
    );
}

#[test]
fn reconstruction_survives_interrupts_and_drops() {
    let topo = paper_topology();
    let cfgs = paper_nf_configs(&topo);
    let mut sim = Simulation::new(topo.clone(), cfgs, SimConfig::default());
    // Stall a NAT and a VPN hard enough to overflow rings.
    sim.add_fault(Fault::Interrupt {
        nf: topo.by_name("nat1").unwrap(),
        at: 2 * nf_types::MILLIS,
        duration: 1500 * nf_types::MICROS,
    });
    sim.add_fault(Fault::Interrupt {
        nf: topo.by_name("vpn2").unwrap(),
        at: 6 * nf_types::MILLIS,
        duration: 1500 * nf_types::MICROS,
    });
    let packets = caida_schedule(1_600_000.0, 15, 7).finalize(0);
    let out = sim.run(&packets);
    let truth_drops = out.fates.iter().filter(|f| f.dropped()).count();

    let (recon, _) = reconstruct(&topo, &out.bundle, &ReconstructionConfig::default()).unwrap();
    let rec_drops = recon.traces.iter().filter(|t| t.dropped()).count();
    assert_eq!(rec_drops, truth_drops, "inferred drops match ground truth");
    assert_eq!(recon.report.flow_mismatches, 0);

    // Spot-check drop locations.
    for (tr, fate) in recon.traces.iter().zip(&out.fates) {
        if let (TraceOutcome::InferredDrop { nf, .. }, PacketOutcome::Dropped { nf: nf2, .. }) =
            (&tr.outcome, &fate.outcome)
        {
            assert_eq!(nf, nf2);
        }
    }
}

#[test]
fn timelines_reflect_queue_buildup_during_interrupt() {
    let topo = paper_topology();
    let cfgs = paper_nf_configs(&topo);
    let mut sim = Simulation::new(topo.clone(), cfgs, SimConfig::default());
    let nat1 = topo.by_name("nat1").unwrap();
    let stall_start = 3 * nf_types::MILLIS;
    let stall = 800 * nf_types::MICROS;
    sim.add_fault(Fault::Interrupt {
        nf: nat1,
        at: stall_start,
        duration: stall,
    });
    let packets = caida_schedule(1_200_000.0, 10, 11).finalize(0);
    let out = sim.run(&packets);
    let (_, tls) = reconstruct(&topo, &out.bundle, &ReconstructionConfig::default()).unwrap();

    // A packet arriving at nat1 just before the stall ends sees a queuing
    // period reaching back towards the stall start.
    let probe_t = stall_start + stall - 50_000;
    let qp = tls.nf(nat1).queuing_period(probe_t);
    assert!(
        !qp.is_empty(),
        "queue should be building during the stall: {qp:?}"
    );
    assert!(
        qp.interval.start >= stall_start.saturating_sub(200_000) && qp.interval.start <= probe_t,
        "period start {} vs stall start {stall_start}",
        qp.interval.start
    );
    // The queue length implied by the period matches n_i - n_p.
    assert_eq!(qp.queue_len(), qp.n_arrived as i64 - qp.n_processed as i64);
    assert!(qp.queue_len() > 100, "queue length {}", qp.queue_len());
}

#[test]
fn bytes_per_packet_is_near_two_at_saturation() {
    // §5's "around two bytes per packet" is about *interior* NFs (only the
    // last NF keeps five-tuples) and holds when batches are full (the
    // per-batch timestamp amortises over 32 IPIDs) — i.e. at saturation,
    // which is exactly when the data volume matters. Drive a NAT→VPN chain
    // past its peak rate and measure the interior NAT's log.
    let mut s = nf_sim::ScenarioBuilder::new();
    let nat = s.nf(nf_types::NfKind::Nat, "nat1");
    let vpn = s.nf(nf_types::NfKind::Vpn, "vpn1");
    s.entry(nat);
    s.edge(nat, vpn);
    let (topo, cfgs) = s.build();
    let sim = Simulation::new(topo.clone(), cfgs, SimConfig::default());
    let packets = caida_schedule(2_200_000.0, 20, 99).finalize(0);
    let out = sim.run(&packets);
    let nat_log = out.bundle.log(nat);
    let bpp = msc_collector::encode_nf_log(nat_log)
        .expect("encodable")
        .len() as f64
        / nat_log.packet_appearances() as f64;
    assert!(bpp < 3.0, "interior NF: {bpp:.2} B/packet-appearance");
    assert!(bpp > 1.5, "suspiciously small: {bpp:.2}");

    // At light per-NF load batches shrink towards 1 packet and the
    // per-batch overhead dominates; the bundle is still compact in
    // absolute terms (~a few MB/s per NF at the paper's rates).
    let topo2 = paper_topology();
    let cfgs2 = paper_nf_configs(&topo2);
    let sim2 = Simulation::new(topo2, cfgs2, SimConfig::default());
    let packets2 = caida_schedule(1_200_000.0, 20, 99).finalize(0);
    let out2 = sim2.run(&packets2);
    assert!(out2.bundle.bytes_per_packet() < 10.0);
}

#[test]
fn skew_estimation_recovers_reconstruction_on_multi_server_deployments() {
    use msc_trace::{correct_bundle, estimate_offsets_refined_detailed};

    let topo = paper_topology();
    let cfgs = paper_nf_configs(&topo);
    // NFs spread over "servers" with clocks off by up to ±2 ms.
    let offsets: Vec<i64> = (0..topo.len() as i64)
        .map(|i| (i % 5 - 2) * 800_000)
        .collect();
    let sim = Simulation::new(
        topo.clone(),
        cfgs,
        SimConfig {
            clock_offsets_ns: offsets.clone(),
            ..Default::default()
        },
    );
    let packets = caida_schedule(1_200_000.0, 20, 31).finalize(0);
    let out = sim.run(&packets);

    // Estimate offsets from the skewed records alone and correct.
    let est = estimate_offsets_refined_detailed(&topo, &[&out.bundle]).offsets;
    for (nf, (&true_off, &est_off)) in offsets.iter().zip(&est).enumerate() {
        assert!(
            (true_off - est_off).abs() < 5_000,
            "nf{nf}: true {true_off} est {est_off}"
        );
    }
    let fixed = correct_bundle(&out.bundle, &est);
    // Sub-µs residual error can still invert near-simultaneous cross-NF
    // timestamps; give the matcher a tiny slack for it.
    let mut rc = ReconstructionConfig::default();
    rc.matching.negative_slack_ns = 20 * nf_types::MICROS;
    let (recon, _) = reconstruct(&topo, &fixed, &rc).unwrap();
    // After correction the traces must match ground truth again (timestamps
    // may be shifted by the residual estimation error, so compare flows,
    // paths and outcomes rather than absolute times).
    assert!(
        (recon.report.unmatched_rx as f64) < 1e-3 * out.fates.len() as f64,
        "unmatched rx: {}",
        recon.report.unmatched_rx
    );
    let mut wrong = 0;
    for (i, (tr, fate)) in recon.traces.iter().zip(&out.fates).enumerate() {
        let hops = recon.hops_of(i);
        let path_ok =
            hops.len() == fate.hops.len() && hops.iter().zip(&fate.hops).all(|(a, b)| a.nf == b.nf);
        if tr.flow != fate.packet.flow || !path_ok {
            wrong += 1;
        }
    }
    assert!(
        (wrong as f64) < 1e-3 * out.fates.len() as f64,
        "{wrong}/{} traces wrong after skew correction",
        out.fates.len()
    );
}
