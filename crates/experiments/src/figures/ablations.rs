//! Ablation study of the design choices DESIGN.md calls out.
//!
//! **A. Reconstruction side channels (§5).** The paper resolves IPID
//! ambiguity with three side channels: paths, timing and order. We re-run
//! reconstruction on one loaded run with each channel weakened and report
//! the per-packet error rate against ground truth (the path channel is
//! structural and cannot be removed without removing the topology itself).
//!
//! **B. Recursive diagnosis (§4.3).** Diagnosing the same injected-interrupt
//! victims with recursion disabled (`max_depth = 0`) shows how much of the
//! accuracy comes from walking blame upstream rather than stopping at the
//! victim NF's own queue.

use super::Figure;
use crate::cli::Params;
use crate::scoring::{attribute_event, correct_rate, microscope_rank};
use microscope::{DiagnosisConfig, Microscope};
use msc_trace::{reconstruct, ReconstructionConfig};
use nf_sim::{paper_nf_configs, Fault, PacketOutcome, SimConfig, Simulation};
use nf_traffic::{CaidaLike, CaidaLikeConfig};
use nf_types::{paper_topology, MICROS, MILLIS, SECONDS};

pub(super) fn ablations(p: &Params) -> Figure {
    let mut fig = Figure::default();

    // --- A: matching side channels -----------------------------------
    let topo = paper_topology();
    let cfgs = paper_nf_configs(&topo);
    let mut sim = Simulation::new(topo.clone(), cfgs.clone(), SimConfig::default());
    // Long stalls at several NFs create deep queues, ring overflows (stale
    // send-stream heads) and cross-edge reordering: the regime where the
    // disambiguation channels work hardest.
    for (name, at_ms) in [("nat1", 30u64), ("nat3", 60), ("fw2", 90), ("vpn2", 120)] {
        sim.add_fault(Fault::Interrupt {
            nf: topo.by_name(name).expect("paper topo"),
            at: at_ms * MILLIS,
            duration: 1_500 * MICROS,
        });
    }
    let mut gen = CaidaLike::new(
        CaidaLikeConfig {
            rate_pps: p.rate_pps(),
            // Few packets per flow: IPIDs stay small and collide heavily.
            active_flows: 4096,
        },
        p.seed,
    );
    let background = gen.generate(0, p.duration_ns());
    // Line-rate bursts overflow entry rings: dropped packets leave stale
    // heads in the send streams, which the timing channel exists to skip.
    let burst_flows = crate::runner::candidate_flows(p.rate_pps(), p.seed);
    let bursts: Vec<_> = (0..4u64)
        .map(|i| {
            nf_traffic::burst(
                burst_flows[i as usize],
                (20 + i * 35) * MILLIS,
                4_000,
                125,
                64,
            )
        })
        .collect();
    let packets =
        nf_traffic::Schedule::merge(std::iter::once(background).chain(bursts)).finalize(0);
    let out = sim.run(&packets);
    let truth_drops = out.fates.iter().filter(|f| f.dropped()).count();
    say!(
        fig,
        "# scenario: {} packets, {} ground-truth drops\n",
        out.fates.len(),
        truth_drops
    );

    // Variant axes: IPID width (identity bits per packet) × side channels.
    // At the full 16 bits the path+order structure of §5 already resolves
    // nearly everything; shrinking the IPID to 10/8 bits multiplies the
    // collisions and shows how much the order (lookahead) and timing
    // channels then contribute.
    let mask_bundle = |bits: u32| -> msc_collector::TraceBundle {
        let mask = u16::MAX >> (16 - bits);
        let mut b = out.bundle.clone();
        for log in &mut b.logs {
            for i in log.rx.ipids_mut().iter_mut().chain(log.tx.ipids_mut()) {
                *i &= mask;
            }
            for f in &mut log.flows {
                f.ipid &= mask;
            }
        }
        for f in &mut b.source_flows {
            f.ipid &= mask;
        }
        b
    };
    let channel_cfgs: Vec<(&str, ReconstructionConfig)> = vec![
        ("full", ReconstructionConfig::default()),
        ("no-order", {
            let mut c = ReconstructionConfig::default();
            c.matching.use_order_channel = false;
            c
        }),
        ("no-timing", {
            // A delay bound longer than the run disables the timing filter.
            let mut c = ReconstructionConfig::default();
            c.matching.delay_bound_ns = 10 * SECONDS;
            c
        }),
    ];

    say!(
        fig,
        "# A: reconstruction error rate vs IPID width × §5 side channels"
    );
    say!(
        fig,
        "  ipid   channels   wrong_pkts   error_rate    ambiguities    unmatched"
    );
    let mut csv =
        String::from("ipid_bits,channels,wrong_pkts,error_rate,ambiguities,unmatched_rx\n");
    // Wrong packets with every channel on, at 16, 10 and 8 bits.
    let mut wrong_full = Vec::new();
    for bits in [16u32, 10, 8] {
        let bundle = mask_bundle(bits);
        for (name, cfg) in &channel_cfgs {
            let (recon, _) = reconstruct(&topo, &bundle, cfg).expect("paper topology");
            let mut wrong = 0u64;
            for (tr, fate) in recon.traces.iter().zip(&out.fates) {
                let ok = match (&tr.outcome, &fate.outcome) {
                    (msc_trace::TraceOutcome::Delivered(a), PacketOutcome::Delivered(b)) => a == b,
                    (
                        msc_trace::TraceOutcome::InferredDrop { nf, .. },
                        PacketOutcome::Dropped { nf: n2, .. },
                    ) => nf == n2,
                    (msc_trace::TraceOutcome::Unresolved, PacketOutcome::InFlight) => true,
                    _ => false,
                };
                if !ok || tr.flow != fate.packet.flow {
                    wrong += 1;
                }
            }
            if *name == "full" {
                wrong_full.push(wrong as f64);
            }
            let rate = wrong as f64 / out.fates.len() as f64;
            let (amb, unm) = (recon.report.ambiguities, recon.report.unmatched_rx);
            say!(
                fig,
                "{bits:>6} {name:>10} {wrong:>12} {:>11.4}% {amb:>14} {unm:>12}",
                rate * 100.0
            );
            say!(csv, "{bits},{name},{wrong},{rate:.6},{amb},{unm}");
        }
    }
    fig.csvs.push(("ablation_matching.csv", csv));

    // --- B: recursion in the diagnosis --------------------------------
    // A dedicated moderate-load run where victims are cleanly attributable
    // to the injected interrupts (the §6.2 methodology): recursion is what
    // lets a *downstream* victim's blame reach the stalled upstream NF.
    let mut sim = Simulation::new(topo.clone(), cfgs.clone(), SimConfig::default());
    for (name, at_ms) in [("nat1", 25u64), ("nat2", 70), ("fw3", 115)] {
        sim.add_fault(Fault::Interrupt {
            nf: topo.by_name(name).expect("paper topo"),
            at: at_ms * MILLIS,
            duration: 1_000 * MICROS,
        });
    }
    let mut gen = CaidaLike::new(
        CaidaLikeConfig {
            rate_pps: 1_200_000.0,
            ..Default::default()
        },
        p.seed ^ 0xB,
    );
    let packets = gen.generate(0, 160 * MILLIS).finalize(0);
    let out = sim.run(&packets);
    let (recon, timelines) =
        reconstruct(&topo, &out.bundle, &ReconstructionConfig::default()).expect("paper topology");
    let rates: Vec<f64> = cfgs.iter().map(|c| c.service.peak_rate_pps()).collect();

    say!(
        fig,
        "\n# B: diagnosis accuracy with and without recursion (§4.3)"
    );
    say!(
        fig,
        "{:>12} {:>10} {:>12}",
        "variant",
        "victims",
        "rank1_rate"
    );
    let mut csv = String::from("variant,victims,rank1_rate\n");
    let mut rank1 = Vec::new();
    for (name, depth) in [("recursive", 16usize), ("no-recursion", 0)] {
        let mut dc = DiagnosisConfig {
            max_depth: depth,
            ..Default::default()
        };
        dc.victims.max_victims = Some(1_500);
        let engine = Microscope::new(topo.clone(), rates.clone(), dc);
        let diagnoses = engine.diagnose_all(&recon, &timelines);
        // Score only victims observed in the 10 ms after an interrupt, at a
        // *different* NF — the propagated victims recursion exists for.
        let ranks: Vec<usize> = diagnoses
            .iter()
            .filter_map(|d| {
                let (_, ev) = attribute_event(&out.journal.events, d.victim.observed_ts)?;
                let w = ev.window();
                if d.victim.observed_ts > w.end + 10 * MILLIS {
                    return None;
                }
                if ev.culprit_node() == nf_types::NodeId::Nf(d.victim.nf) {
                    return None;
                }
                Some(microscope_rank(d, ev))
            })
            .collect();
        let (n, rate) = (ranks.len(), correct_rate(&ranks));
        rank1.push(rate);
        say!(fig, "{name:>12} {n:>10} {rate:>12.3}");
        say!(csv, "{name},{n},{rate:.4}");
    }
    fig.csvs.push(("ablation_recursion.csv", csv));
    say!(
        fig,
        "\n# Findings: identity bits dominate reconstruction accuracy (errors grow {:.1}x\n\
         # from 16-bit to 8-bit IPIDs); the lookahead refinement and timing bound\n\
         # add nothing *on top of* the per-edge FIFO cursor structure in this\n\
         # workload — the strong form of the order channel is structural in the\n\
         # matcher, and the unit tests (Fig. 9 case) cover where lookahead is\n\
         # decisive. Recursion is essential: disabling it collapses rank-1\n\
         # accuracy on propagated victims by {:.1}x.",
        wrong_full[2] / wrong_full[0],
        rank1[0] / rank1[1]
    );
    fig
}
