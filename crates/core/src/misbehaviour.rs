//! In-NF misbehaviour detection (§7, "Problems not caused by long queues").
//!
//! Long latency can come from the queue *or* from the NF itself taking too
//! long inside its processing loop. The paper: "we can know the delay
//! within the NF by checking the timestamp difference of the packet in the
//! input queue and the output queue, and report that those packets with
//! large in-NF delay are caused by misbehaviors of NFs". This module does
//! exactly that on reconstructed traces: a hop whose in-NF time (read →
//! send) far exceeds what its batch should cost at the peak rate — while
//! the queue ahead of it was short — is flagged as NF misbehaviour, with
//! the flows sharing the slow batch reported for pattern analysis.

use msc_trace::{Reconstruction, Timelines};
use nf_types::{FiveTuple, Nanos, NfId};
use std::collections::HashMap;

/// One misbehaving (NF, batch) observation.
#[derive(Debug, Clone)]
pub struct Misbehaviour {
    /// The NF.
    pub nf: NfId,
    /// When the slow batch was read.
    pub read_ts: Nanos,
    /// Measured in-NF time of the batch.
    pub in_nf_ns: Nanos,
    /// What the batch should have cost at the NF's peak rate.
    pub expected_ns: Nanos,
    /// Flows of the packets in the slow batch (with packet counts).
    pub flows: Vec<(FiveTuple, u32)>,
}

impl Misbehaviour {
    /// Slowdown factor versus the expected batch cost.
    pub fn slowdown(&self) -> f64 {
        self.in_nf_ns as f64 / self.expected_ns.max(1) as f64
    }
}

/// Detection parameters.
#[derive(Debug, Clone)]
pub struct MisbehaviourConfig {
    /// Flag batches slower than this multiple of the expected cost.
    pub slowdown_factor: f64,
    /// Ignore batches whose queuing period held more than this many packets
    /// (a long queue means the delay is queue-caused, the normal §4 path).
    pub max_queue_len: i64,
}

impl Default for MisbehaviourConfig {
    fn default() -> Self {
        Self {
            slowdown_factor: 4.0,
            max_queue_len: 64,
        }
    }
}

/// Scans all reconstructed hops for in-NF misbehaviour.
///
/// `peak_rates[i]` is `r_i` for `NfId(i)`, as everywhere else. Returns one
/// entry per distinct slow batch, sorted by slowdown (worst first).
pub fn detect_misbehaviour(
    recon: &Reconstruction,
    timelines: &Timelines,
    peak_rates: &[f64],
    cfg: &MisbehaviourConfig,
) -> Vec<Misbehaviour> {
    // Group hop observations by (nf, batch read ts): all packets of one
    // batch share read/send timestamps.
    struct Batch {
        sent_ts: Nanos,
        flows: HashMap<FiveTuple, u32>,
        size: u32,
        arrival_of_first: Nanos,
    }
    let mut batches: HashMap<(NfId, Nanos), Batch> = HashMap::new();
    for (t_idx, tr) in recon.traces.iter().enumerate() {
        for h in recon.hops_of(t_idx) {
            let Some(sent) = h.sent_ts() else { continue };
            let b = batches.entry((h.nf, h.read_ts)).or_insert(Batch {
                sent_ts: sent,
                flows: HashMap::new(),
                size: 0,
                arrival_of_first: h.arrival_ts,
            });
            b.size += 1;
            b.arrival_of_first = b.arrival_of_first.min(h.arrival_ts);
            *b.flows.entry(tr.flow).or_insert(0) += 1;
        }
    }

    let mut out: Vec<Misbehaviour> = Vec::new();
    // lint: order-insensitive(every accepted batch lands in `out`, which is fully sorted by (slowdown, nf, read_ts) before returning)
    for ((nf, read_ts), b) in batches {
        let rate = peak_rates[nf.0 as usize];
        let expected = (b.size as f64 / rate * 1e9).round() as Nanos;
        let in_nf = b.sent_ts.saturating_sub(read_ts);
        if (in_nf as f64) < cfg.slowdown_factor * expected as f64 {
            continue;
        }
        // Rule out queue-caused delay: the batch must have met a short
        // queue (otherwise §4.1's local diagnosis already covers it).
        let qp = timelines.nf(nf).queuing_period(b.arrival_of_first);
        if qp.queue_len() > cfg.max_queue_len {
            continue;
        }
        let mut flows: Vec<(FiveTuple, u32)> = b.flows.into_iter().collect();
        // Tie-break equal counts on the flow tuple: the counts come out of a
        // HashMap, so equal-count flows would otherwise order randomly.
        flows.sort_by_key(|&(f, n)| (std::cmp::Reverse(n), f));
        out.push(Misbehaviour {
            nf,
            read_ts,
            in_nf_ns: in_nf,
            expected_ns: expected,
            flows,
        });
    }
    out.sort_by(|a, b| {
        b.slowdown()
            .total_cmp(&a.slowdown())
            .then_with(|| (a.nf, a.read_ts).cmp(&(b.nf, b.read_ts)))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_trace::{reconstruct, ReconstructionConfig};
    use nf_sim::{Fault, NfConfig, RoutePolicy, ServiceModel, SimConfig, Simulation};
    use nf_types::{FlowAggregate, Packet, PortRange, Prefix, Proto, ProtoMatch, Topology};

    fn chain() -> (Topology, Vec<NfConfig>) {
        let mut b = Topology::builder();
        let fw = b.add_nf(nf_types::NfKind::Firewall, "fw1");
        let v = b.add_nf(nf_types::NfKind::Vpn, "vpn1");
        b.add_entry(fw);
        b.add_edge(fw, v);
        let t = b.build().unwrap();
        let cfgs = vec![
            NfConfig::new(ServiceModel::deterministic(600), RoutePolicy::Fixed(v)),
            NfConfig::new(ServiceModel::deterministic(1_500), RoutePolicy::Exit),
        ];
        (t, cfgs)
    }

    fn bug_rule(sport: u16) -> FlowAggregate {
        FlowAggregate {
            src: Prefix::ANY,
            dst: Prefix::ANY,
            proto: ProtoMatch::Any,
            src_port: PortRange::exact(sport),
            dst_port: PortRange::ANY,
        }
    }

    #[test]
    fn slow_path_on_unloaded_nf_is_misbehaviour() {
        // Light traffic (no queues) with a 50 µs/packet slow path for one
        // flow: the delay is inside the NF, not in any queue.
        let (t, cfgs) = chain();
        let mut sim = Simulation::new(t.clone(), cfgs, SimConfig::default());
        sim.add_fault(Fault::BugRule {
            nf: t.by_name("fw1").unwrap(),
            matches: bug_rule(7777),
            per_packet_ns: 50_000,
        });
        let mut packets = Vec::new();
        for i in 0..200u64 {
            let sport = if i % 50 == 25 {
                7777
            } else {
                1000 + (i % 30) as u16
            };
            let flow = FiveTuple::new(0x0a000001, 0x14000001, sport, 80, Proto::TCP);
            packets.push(Packet::new(i, flow, 64, i * 100_000)); // 10 kpps
        }
        let out = sim.run(&packets);
        let recon = reconstruct(&t, &out.bundle, &ReconstructionConfig::default());
        let timelines = Timelines::build(&recon);
        let found = detect_misbehaviour(
            &recon,
            &timelines,
            &[1e9 / 600.0, 1e9 / 1_500.0],
            &MisbehaviourConfig::default(),
        );
        assert!(!found.is_empty(), "slow batches must be flagged");
        for m in &found {
            assert_eq!(m.nf, t.by_name("fw1").unwrap());
            assert!(m.slowdown() > 4.0);
            // The trigger flow is in every slow batch.
            assert!(m.flows.iter().any(|(f, _)| f.src_port == 7777), "{m:?}");
        }
    }

    #[test]
    fn healthy_run_reports_nothing() {
        let (t, cfgs) = chain();
        let sim = Simulation::new(t.clone(), cfgs, SimConfig::default());
        let flow = FiveTuple::new(1, 2, 3, 4, Proto::UDP);
        let packets: Vec<Packet> = (0..500u64)
            .map(|i| Packet::new(i, flow, 64, i * 10_000))
            .collect();
        let out = sim.run(&packets);
        let recon = reconstruct(&t, &out.bundle, &ReconstructionConfig::default());
        let timelines = Timelines::build(&recon);
        let found = detect_misbehaviour(
            &recon,
            &timelines,
            &[1e9 / 600.0, 1e9 / 1_500.0],
            &MisbehaviourConfig::default(),
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn queue_caused_delay_is_not_misbehaviour() {
        // A line-rate burst builds a real queue at the firewall; the long
        // waits are queue-caused and must NOT be flagged (that is §4.1's
        // job). In-batch service stays at the normal per-packet cost.
        let (t, cfgs) = chain();
        let sim = Simulation::new(t.clone(), cfgs, SimConfig::default());
        let flow = FiveTuple::new(1, 2, 3, 4, Proto::UDP);
        let packets: Vec<Packet> = (0..600u64)
            .map(|i| Packet::new(i, flow, 64, i * 120))
            .collect();
        let out = sim.run(&packets);
        let recon = reconstruct(&t, &out.bundle, &ReconstructionConfig::default());
        let timelines = Timelines::build(&recon);
        let found = detect_misbehaviour(
            &recon,
            &timelines,
            &[1e9 / 600.0, 1e9 / 1_500.0],
            &MisbehaviourConfig::default(),
        );
        assert!(found.is_empty(), "{found:?}");
    }
}
