//! The paper's §1 war story, end to end: a Firewall → VPN chain where some
//! packets see long latency *at the VPN*, the VPN vendor looks innocent in
//! isolation, and the true culprit is a Firewall bug that slows specific
//! flows — producing intermittent bursts towards the VPN (Fig. 8).
//!
//! ```sh
//! cargo run --release --example chain_diagnosis
//! ```

use microscope_repro::prelude::*;
use nf_traffic::intermittent_flows;
use nf_types::{FlowAggregate, PortRange, Prefix, ProtoMatch, MICROS};

fn main() {
    // Firewall -> VPN, as in the paper's introduction.
    let mut sb = ScenarioBuilder::new();
    let fw = sb.nf(NfKind::Firewall, "fw1");
    let vpn = sb.nf(NfKind::Vpn, "vpn1");
    sb.entry(fw);
    sb.edge(fw, vpn);
    let (topology, nf_configs) = sb.build();
    let peak_rates: Vec<f64> = nf_configs
        .iter()
        .map(|c| c.service.peak_rate_pps())
        .collect();

    // The bug: port-7777 flows hit a slow path in the firewall (20 µs per
    // packet instead of ~0.6 µs).
    let trigger = FiveTuple::new(
        nf_types::parse_ip("100.0.0.1").expect("ip"),
        nf_types::parse_ip("32.0.0.1").expect("ip"),
        7777,
        443,
        Proto::TCP,
    );
    let bug_rule = FlowAggregate {
        src: Prefix::host(trigger.src_ip),
        dst: Prefix::host(trigger.dst_ip),
        proto: ProtoMatch::Exact(Proto::TCP),
        src_port: PortRange::exact(7777),
        dst_port: PortRange::exact(443),
    };

    let mut gen = CaidaLike::new(
        CaidaLikeConfig {
            rate_pps: 450_000.0,
            ..Default::default()
        },
        11,
    );
    let duration = 60 * MILLIS;
    let background = gen.generate(0, duration);
    // The trigger flow shows up every 15 ms with ~80 packets.
    let triggers = intermittent_flows(&[trigger], 8 * MILLIS, duration, 15 * MILLIS, 80, 1_000, 64);
    let packets = Schedule::merge([background, triggers]).finalize(0);

    let mut sim = Simulation::new(topology.clone(), nf_configs, SimConfig::default());
    sim.add_fault(Fault::BugRule {
        nf: fw,
        matches: bug_rule,
        per_packet_ns: 20 * MICROS,
    });
    let out = sim.run(&packets);

    // Step 1 of the blame game: "is the VPN slow?" — victims DO appear at
    // the VPN (they wait in its queue behind the firewall's bursts).
    let (recon, timelines) = reconstruct(&topology, &out.bundle, &ReconstructionConfig::default())
        .expect("every entry NF has a source edge");
    let engine = Microscope::new(topology.clone(), peak_rates, DiagnosisConfig::default());
    let diagnoses = engine.diagnose_all(&recon, &timelines);
    let at_vpn = diagnoses.iter().filter(|d| d.victim.nf == vpn).count();
    let at_fw = diagnoses.iter().filter(|d| d.victim.nf == fw).count();
    println!("victims observed: {at_fw} at the firewall, {at_vpn} at the VPN");

    // Step 2: Microscope's verdict — recursive diagnosis walks the VPN's
    // queue back to the firewall's slow processing (S_p^{VPN<-FW} > 0).
    let mut fw_blame = 0.0;
    let mut vpn_blame = 0.0;
    for d in &diagnoses {
        for c in &d.culprits {
            match c.node {
                NodeId::Nf(id) if id == fw => fw_blame += c.score,
                NodeId::Nf(id) if id == vpn => vpn_blame += c.score,
                _ => {}
            }
        }
    }
    println!("blame mass: firewall {fw_blame:.0}, vpn {vpn_blame:.0}");
    assert!(
        fw_blame > 3.0 * vpn_blame,
        "the firewall must dominate the blame"
    );

    // Step 3: pattern aggregation names the trigger flow without being told
    // anything about the bug (§6.4).
    let relations = diagnoses_to_relations(&recon, &diagnoses);
    let patterns = aggregate_patterns(&relations, &PatternConfig::default(), &|id| {
        topology.nf(id).kind
    });
    println!("\ntop causal patterns:");
    for p in patterns.iter().take(5) {
        println!("  {p}");
    }
    let found = patterns
        .iter()
        .take(5)
        .any(|p| p.culprit.flow.matches(&trigger));
    assert!(found, "the trigger flow must appear among the top patterns");
    println!("\n=> the port-7777 flow at fw1 is exposed as the culprit — case closed.");
}
