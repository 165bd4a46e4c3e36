//! An NF whose traffic starts only after the clock offsets could settle.
//!
//! `--skew` holds windows until two successive estimates agree. An NF with
//! no records in the held prefix has no estimate, only the fallback 0: were
//! the offsets settled without it, its later records would be corrected by 0
//! and read milliseconds off its true clock, and the traces through it lost.
//! `diagnose --skew`, at its default window and with `--chunk-ms 10` given,
//! must give that NF its true offset and reconstruct every packet the
//! simulator delivered; `skew`, which runs the same settle policy without
//! the engine, must print the same true offsets.

use microscope_cli::pipeline::{self, Run, Settled};
use msc_collector::save_bundle;
use nf_sim::{ScenarioBuilder, SimConfig, Simulation};
use nf_traffic::{CaidaLike, CaidaLikeConfig};
use nf_types::{emit_topology, parse_topology, NfKind, Packet, PacketId, MILLIS};

/// The branch NF stays idle this long: three of `diagnose`'s windows.
const IDLE_MS: u64 = 30;

#[test]
fn an_nf_whose_traffic_starts_late_gets_its_true_offset() {
    // nat1 hashes flows across fw1 and fw2; fw2's flows start late.
    let mut sb = ScenarioBuilder::new();
    let nat = sb.nf(NfKind::Nat, "nat1");
    let fw1 = sb.nf(NfKind::Firewall, "fw1");
    let fw2 = sb.nf(NfKind::Firewall, "fw2");
    sb.entry(nat).edge(nat, fw1).edge(nat, fw2);
    let (topology, cfgs) = sb.build();
    let rates: Vec<f64> = cfgs.iter().map(|c| c.service.peak_rate_pps()).collect();
    let clocks = vec![MILLIS as i64, -(MILLIS as i64) / 2, 2 * MILLIS as i64];

    let mut gen = CaidaLike::new(
        CaidaLikeConfig {
            rate_pps: 0.5e6,
            ..Default::default()
        },
        5,
    );
    let mut packets = gen.generate(0, 120 * MILLIS).finalize(0);
    let route = &cfgs[nat.0 as usize].route;
    let to_fw2 = |p: &Packet| route.next_hop(&p.flow, p.flow.stable_hash()) == Some(fw2);
    packets.retain(|p| p.created_at >= IDLE_MS * MILLIS || !to_fw2(p));
    // The simulator takes consecutive ids.
    for (i, p) in packets.iter_mut().enumerate() {
        p.id = PacketId(i as u64);
    }
    let late = packets.iter().filter(|p| to_fw2(p));
    assert!(
        late.map(|p| p.created_at).min() >= Some(IDLE_MS * MILLIS),
        "fw2 is idle for the first {IDLE_MS} ms"
    );
    let sim = Simulation::new(
        topology.clone(),
        cfgs,
        SimConfig {
            seed: 5,
            record_fates: false,
            clock_offsets_ns: clocks.clone(),
            ..Default::default()
        },
    );
    let out = sim.run(&packets);
    let delivered = (packets.len() - out.drops.len()) as u64;

    let dir = std::env::temp_dir().join(format!("msc_cli_late_nf_skew_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("make the run's directory");
    let msc = dir.join("run.msc");
    save_bundle(&msc, &out.bundle).expect("write .msc");
    let deployment = parse_topology(&emit_topology(&topology, &rates)).expect("topology text");

    let quiet = &mut |_: &str, _: pipeline::Produced<'_>| {};
    let diagnosed = pipeline::diagnose(&deployment, &msc, None, true, 0.99, 10, quiet);
    let windowed = pipeline::diagnose(&deployment, &msc, Some(10), true, 0.99, 10, quiet);
    let estimated = pipeline::skew(&topology, &msc, quiet);
    let _ = std::fs::remove_dir_all(&dir);
    let estimated = estimated.expect("skew");
    assert_eq!(estimated.offsets, clocks, "skew");
    assert!(estimated.notes(&topology).is_empty(), "skew: {estimated:?}");
    for (what, run) in [("diagnose --skew", diagnosed), ("--chunk-ms 10", windowed)] {
        let run: Run = run.unwrap_or_else(|e| panic!("{what}: {e}"));
        let r = &run.report.reconstruction;
        assert_eq!(run.report.offsets.as_ref(), Some(&clocks), "{what}");
        assert!(run.skew_notes.is_empty(), "{what}: {:?}", run.skew_notes);
        // Settled on windows that hold fw2's traffic, before the end.
        assert!(
            matches!(run.settled, Some(Settled::After(held)) if held > IDLE_MS / 10),
            "{what}: {:?}",
            run.settled
        );
        assert_eq!(r.total, packets.len() as u64, "{what}");
        assert_eq!(r.delivered, delivered, "{what}: {r:?}");
    }
}
