//! Quickstart: simulate a small NF chain, break it, and let Microscope tell
//! you what happened.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use microscope_repro::prelude::*;

fn main() {
    // 1. Describe the deployment: a NAT feeding a VPN.
    let mut sb = ScenarioBuilder::new();
    let nat = sb.nf(NfKind::Nat, "nat1");
    let vpn = sb.nf(NfKind::Vpn, "vpn1");
    sb.entry(nat);
    sb.edge(nat, vpn);
    let (topology, nf_configs) = sb.build();
    let peak_rates: Vec<f64> = nf_configs
        .iter()
        .map(|c| c.service.peak_rate_pps())
        .collect();

    // 2. Offer CAIDA-like traffic and stall the NAT for 1 ms at t = 10 ms —
    //    the kind of CPU interrupt operators chase for hours.
    let mut gen = CaidaLike::new(
        CaidaLikeConfig {
            rate_pps: 400_000.0,
            ..Default::default()
        },
        42,
    );
    let packets = gen.generate(0, 40 * MILLIS).finalize(0);
    let mut sim = Simulation::new(topology.clone(), nf_configs, SimConfig::default());
    sim.add_fault(Fault::Interrupt {
        nf: nat,
        at: 10 * MILLIS,
        duration: MILLIS,
    });
    let out = sim.run(&packets);
    println!(
        "simulated {} packets; p99 latency {:.1} µs, max {:.1} µs",
        out.fates.len(),
        out.latency_quantile(0.99).unwrap_or(0) as f64 / 1e3,
        out.latency_quantile(1.0).unwrap_or(0) as f64 / 1e3,
    );

    // 3. Offline diagnosis — Microscope sees ONLY the collector bundle
    //    (batched timestamps + 2-byte IPIDs), not the simulator internals.
    let (recon, timelines) = reconstruct(&topology, &out.bundle, &ReconstructionConfig::default())
        .expect("every entry NF has a source edge");
    println!(
        "reconstructed {} traces ({} delivered, {} ambiguous IPIDs resolved)",
        recon.report.total, recon.report.delivered, recon.report.ambiguities
    );

    let engine = Microscope::new(topology.clone(), peak_rates, DiagnosisConfig::default());
    let diagnoses = engine.diagnose_all(&recon, &timelines);
    println!("diagnosed {} victim (packet, NF) pairs", diagnoses.len());

    // 4. Aggregate the per-victim verdicts: who is to blame overall?
    let mut blame: std::collections::HashMap<String, f64> = Default::default();
    for d in &diagnoses {
        for c in &d.culprits {
            let name = match c.node {
                NodeId::Source => "traffic source".to_string(),
                NodeId::Nf(id) => topology.nf(id).name.clone(),
            };
            *blame.entry(name).or_default() += c.score;
        }
    }
    let mut blame: Vec<(String, f64)> = blame.into_iter().collect();
    blame.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    println!("\nblame ranking (total packets of queue build-up attributed):");
    for (who, score) in &blame {
        println!("  {who:>14}: {score:.0}");
    }
    assert_eq!(blame[0].0, "nat1", "the stalled NAT must top the ranking");
    println!("\n=> Microscope correctly blames the stalled NAT.");
}
