//! Microscope vs NetMedic on the same incident — the §2/Fig. 2 challenge
//! case where the cause and the symptom do not overlap in time.
//!
//! A NAT feeding a VPN takes a CPU interrupt; when it resumes it releases
//! its backlog at full speed, and packets that never overlapped the
//! interrupt pile up at the VPN milliseconds later. Time-window correlation
//! (NetMedic) looks at the victim's window; queue-based analysis
//! (Microscope) follows the queuing period across NFs and time.
//!
//! ```sh
//! cargo run --release --example tool_duel
//! ```

use microscope_repro::prelude::*;
use msc_experiments::build_history;

fn main() {
    // A dedicated NAT -> VPN chain (Fig. 2's setting).
    let mut sb = ScenarioBuilder::new();
    let nat = sb.nf(NfKind::Nat, "nat1");
    let vpn = sb.nf(NfKind::Vpn, "vpn1");
    sb.entry(nat);
    sb.edge(nat, vpn);
    let (topology, mut nf_configs) = sb.build();
    // Give the NAT a deep ring so the interrupt's backlog survives intact.
    nf_configs[nat.0 as usize].queue_capacity = 8192;
    let peak_rates: Vec<f64> = nf_configs
        .iter()
        .map(|c| c.service.peak_rate_pps())
        .collect();

    let mut gen = CaidaLike::new(
        CaidaLikeConfig {
            rate_pps: 500_000.0,
            ..Default::default()
        },
        21,
    );
    let packets = gen.generate(0, 120 * MILLIS).finalize(0);
    let mut sim = Simulation::new(topology.clone(), nf_configs, SimConfig::default());
    sim.add_fault(Fault::Interrupt {
        nf: nat,
        at: 40 * MILLIS,
        duration: 4 * MILLIS,
    });
    let out = sim.run(&packets);

    // Diagnose, then pick a victim at the VPN observed well after the
    // interrupt ended (44 ms) — a packet that never saw the interrupt.
    let (recon, timelines) = reconstruct(&topology, &out.bundle, &ReconstructionConfig::default())
        .expect("every entry NF has a source edge");
    let engine = Microscope::new(
        topology.clone(),
        peak_rates.clone(),
        DiagnosisConfig::default(),
    );
    let diagnoses = engine.diagnose_all(&recon, &timelines);
    let victim = diagnoses
        .iter()
        .filter(|d| d.victim.nf == vpn && d.victim.arrival_ts > 45 * MILLIS)
        .max_by_key(|d| d.victim.observed_ts - d.victim.arrival_ts)
        .expect("the squeezed release must create late VPN victims");
    println!(
        "victim at the VPN: arrived {:.2} ms, left {:.2} ms (interrupt: 40–44 ms at nat1)",
        victim.victim.arrival_ts as f64 / MILLIS as f64,
        victim.victim.observed_ts as f64 / MILLIS as f64
    );

    let name_of = |n: NodeId| match n {
        NodeId::Source => "source".to_string(),
        NodeId::Nf(id) => topology.nf(id).name.clone(),
    };

    println!("\nMicroscope's ranked culprits (queue-based, no time window):");
    for (i, c) in victim.culprits.iter().take(4).enumerate() {
        println!(
            "  #{} {:>8} score {:>6.1}  culprit activity {:.2}–{:.2} ms",
            i + 1,
            name_of(c.node),
            c.score,
            c.window.start as f64 / MILLIS as f64,
            c.window.end as f64 / MILLIS as f64
        );
    }
    let ms_rank = victim
        .culprits
        .iter()
        .position(|c| c.node == NodeId::Nf(nat))
        .map(|p| p + 1);

    let nm = NetMedic::new(topology.clone(), NetMedicConfig::default());
    let hist = build_history(&out, topology.len(), &peak_rates, nm.window_ns());
    let ranked = nm.diagnose(&hist, victim.victim.nf, victim.victim.observed_ts);
    println!("\nNetMedic's ranked culprits (10 ms window correlation):");
    for (i, r) in ranked.iter().take(4).enumerate() {
        println!("  #{} {:>8} score {:.4}", i + 1, name_of(r.node), r.score);
    }
    let nm_rank = ranked
        .iter()
        .position(|r| r.node == NodeId::Nf(nat))
        .map(|p| p + 1);

    println!(
        "\ntrue culprit nat1 — Microscope rank {:?}, NetMedic rank {:?}",
        ms_rank, nm_rank
    );
    assert_eq!(
        ms_rank,
        Some(1),
        "Microscope must blame the NAT first: {:?}",
        victim
            .culprits
            .iter()
            .map(|c| (name_of(c.node), c.score))
            .collect::<Vec<_>>()
    );
    println!("=> Microscope pins the NAT even though the victim never met the interrupt.");
}
