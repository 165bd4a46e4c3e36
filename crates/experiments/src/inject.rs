//! Fault-injection plans — the §6.2 methodology.
//!
//! The paper injects three problem types with clear ground truth, spaced
//! out in time so attribution is unambiguous: traffic bursts (5 random
//! flows, 500–2500 packets), NF interrupts (random instance, 500–1000 µs)
//! and an NF bug (one firewall processes specific flows at 0.05 Mpps,
//! triggered by injected 50–150-packet flows).

use nf_sim::Fault;
use nf_traffic::{burst, intermittent_flows, Schedule};
use nf_types::{
    FiveTuple, FlowAggregate, Interval, Nanos, NfId, NfKind, PortRange, Prefix, Proto, ProtoMatch,
    Topology, MICROS, MILLIS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One planned source burst.
#[derive(Debug, Clone)]
pub struct BurstSpec {
    /// The bursting flow.
    pub flow: FiveTuple,
    /// Start of the burst.
    pub at: Nanos,
    /// Packets in the burst.
    pub size: u64,
    /// Inter-packet gap inside the burst (near line rate).
    pub gap_ns: Nanos,
}

impl BurstSpec {
    /// The burst's emission window.
    pub fn window(&self) -> Interval {
        Interval::new(self.at, self.at + self.size * self.gap_ns)
    }
}

/// The §6.4 bug setup: a firewall slow path plus the flows that trigger it.
#[derive(Debug, Clone)]
pub struct BugSpec {
    /// The buggy firewall.
    pub nf: NfId,
    /// Flows hitting the slow path.
    pub matches: FlowAggregate,
    /// Slow-path cost (20 µs = 0.05 Mpps in the paper).
    pub per_packet_ns: Nanos,
    /// Concrete trigger flows injected at the source.
    pub trigger_flows: Vec<FiveTuple>,
    /// Trigger episode period.
    pub period: Nanos,
    /// Packets per trigger episode (paper: 50–150).
    pub flow_size: u64,
}

/// A full injection plan for one run.
#[derive(Debug, Clone, Default)]
pub struct InjectionPlan {
    /// Source bursts.
    pub bursts: Vec<BurstSpec>,
    /// NF interrupts: (NF, start, duration).
    pub interrupts: Vec<(NfId, Nanos, Nanos)>,
    /// At most one bug setup.
    pub bug: Option<BugSpec>,
}

/// Parameters for random plan generation.
#[derive(Debug, Clone)]
pub struct PlanConfig {
    /// Bursts to inject.
    pub n_bursts: usize,
    /// Burst size range in packets (paper: 500–2500).
    pub burst_size: (u64, u64),
    /// Interrupts to inject.
    pub n_interrupts: usize,
    /// Interrupt length range (paper: 500–1000 µs).
    pub interrupt_len: (Nanos, Nanos),
    /// Install the firewall bug and inject trigger flows.
    pub with_bug: bool,
    /// First event time.
    pub start: Nanos,
}

impl Default for PlanConfig {
    fn default() -> Self {
        Self {
            n_bursts: 5,
            burst_size: (500, 2500),
            n_interrupts: 5,
            interrupt_len: (500 * MICROS, 1000 * MICROS),
            with_bug: true,
            start: 20 * MILLIS,
        }
    }
}

/// Bug trigger-flow size range (paper: 50–150 packets).
const BUG_FLOW_SIZE: (u64, u64) = (50, 150);
/// Gap between consecutive injected events.
const SPACING: Nanos = 40 * MILLIS;

/// The §6.4 bug-trigger flow aggregate: TCP 100.0.0.1 → 32.0.0.1, source
/// ports 2000–2008, destination ports 6000–6008.
pub fn paper_bug_aggregate() -> FlowAggregate {
    FlowAggregate {
        src: Prefix::host(nf_types::parse_ip("100.0.0.1").expect("valid ip")),
        dst: Prefix::host(nf_types::parse_ip("32.0.0.1").expect("valid ip")),
        proto: ProtoMatch::Exact(Proto::TCP),
        src_port: PortRange::new(2000, 2008),
        dst_port: PortRange::new(6000, 6008),
    }
}

/// The concrete §6.4 trigger flows (sport 2000+k, dport 6000+k).
pub fn paper_bug_flows() -> Vec<FiveTuple> {
    (0..=8u16)
        .map(|k| {
            FiveTuple::new(
                nf_types::parse_ip("100.0.0.1").expect("valid ip"),
                nf_types::parse_ip("32.0.0.1").expect("valid ip"),
                2000 + k,
                6000 + k,
                Proto::TCP,
            )
        })
        .collect()
}

impl InjectionPlan {
    /// Generates a randomised plan over `[cfg.start, duration)` with events
    /// `SPACING` (40 ms) apart, alternating bursts and interrupts (bug triggers
    /// run periodically throughout, as in §6.4).
    pub fn random(
        topology: &Topology,
        duration: Nanos,
        candidate_burst_flows: &[FiveTuple],
        cfg: &PlanConfig,
        seed: u64,
    ) -> InjectionPlan {
        const PLAN_SEED_SALT: u64 = 0x1313_5757_2424_9898;
        let mut rng = StdRng::seed_from_u64(seed ^ PLAN_SEED_SALT);
        let mut plan = InjectionPlan::default();
        let mut t = cfg.start;
        let mut bursts_left = cfg.n_bursts;
        let mut ints_left = cfg.n_interrupts;
        while (bursts_left > 0 || ints_left > 0) && t + 5 * MILLIS < duration {
            let do_burst = if bursts_left == 0 {
                false
            } else if ints_left == 0 {
                true
            } else {
                rng.gen_bool(0.5)
            };
            if do_burst {
                let flow = candidate_burst_flows[rng.gen_range(0..candidate_burst_flows.len())];
                let size = rng.gen_range(cfg.burst_size.0..=cfg.burst_size.1);
                plan.bursts.push(BurstSpec {
                    flow,
                    at: t,
                    size,
                    gap_ns: 120, // ~8 Mpps: a line-rate burst
                });
                bursts_left -= 1;
            } else {
                let nf = NfId(rng.gen_range(0..topology.len()) as u16);
                let len = rng.gen_range(cfg.interrupt_len.0..=cfg.interrupt_len.1);
                plan.interrupts.push((nf, t, len));
                ints_left -= 1;
            }
            t += SPACING;
        }
        if cfg.with_bug {
            let fws: Vec<NfId> = topology
                .nfs()
                .iter()
                .filter(|n| n.kind == NfKind::Firewall)
                .map(|n| n.id)
                .collect();
            let fw = if fws.is_empty() {
                topology.nfs().first().map(|n| n.id)
            } else {
                Some(fws[rng.gen_range(0..fws.len())])
            };
            if let Some(fw) = fw {
                let flow_size = rng.gen_range(BUG_FLOW_SIZE.0..=BUG_FLOW_SIZE.1);
                plan.bug = Some(BugSpec {
                    nf: fw,
                    matches: paper_bug_aggregate(),
                    per_packet_ns: 20 * MICROS, // 0.05 Mpps
                    trigger_flows: paper_bug_flows(),
                    period: SPACING,
                    flow_size,
                });
            }
        }
        plan
    }

    /// The extra traffic this plan adds to the schedule (bursts + bug
    /// triggers).
    pub fn extra_traffic(&self, duration: Nanos) -> Schedule {
        let mut parts: Vec<Schedule> = self
            .bursts
            .iter()
            .map(|b| burst(b.flow, b.at, b.size, b.gap_ns, 64))
            .collect();
        if let Some(bug) = &self.bug {
            parts.push(intermittent_flows(
                &bug.trigger_flows,
                30 * MILLIS,
                duration,
                bug.period,
                bug.flow_size,
                1_000, // 1 Mpps within the trigger flow
                64,
            ));
        }
        Schedule::merge(parts)
    }

    /// The simulator faults of this plan.
    pub fn faults(&self) -> Vec<Fault> {
        let mut f: Vec<Fault> = self
            .interrupts
            .iter()
            .map(|&(nf, at, duration)| Fault::Interrupt { nf, at, duration })
            .collect();
        if let Some(bug) = &self.bug {
            f.push(Fault::BugRule {
                nf: bug.nf,
                matches: bug.matches,
                per_packet_ns: bug.per_packet_ns,
            });
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_types::paper_topology;

    fn flows() -> Vec<FiveTuple> {
        (0..20u16)
            .map(|i| FiveTuple::new(0x0a000001 + i as u32, 0x14000001, 1000 + i, 80, Proto::TCP))
            .collect()
    }

    #[test]
    fn plan_respects_counts_and_spacing() {
        let t = paper_topology();
        let plan = InjectionPlan::random(&t, 600 * MILLIS, &flows(), &PlanConfig::default(), 7);
        assert_eq!(plan.bursts.len() + plan.interrupts.len(), 10);
        assert!(plan.bug.is_some());
        // Events are spaced out.
        let mut times: Vec<Nanos> = plan
            .bursts
            .iter()
            .map(|b| b.at)
            .chain(plan.interrupts.iter().map(|i| i.1))
            .collect();
        times.sort_unstable();
        for w in times.windows(2) {
            assert!(w[1] - w[0] >= 39 * MILLIS, "{times:?}");
        }
    }

    #[test]
    fn short_run_truncates_plan() {
        let t = paper_topology();
        let plan = InjectionPlan::random(&t, 100 * MILLIS, &flows(), &PlanConfig::default(), 7);
        assert!(plan.bursts.len() + plan.interrupts.len() <= 2);
    }

    #[test]
    fn extra_traffic_contains_bursts_and_triggers() {
        let t = paper_topology();
        let plan = InjectionPlan::random(&t, 600 * MILLIS, &flows(), &PlanConfig::default(), 7);
        let extra = plan.extra_traffic(600 * MILLIS);
        let total_burst: u64 = plan.bursts.iter().map(|b| b.size).sum();
        assert!(extra.len() as u64 > total_burst);
    }

    #[test]
    fn faults_map_one_to_one() {
        let t = paper_topology();
        let plan = InjectionPlan::random(&t, 600 * MILLIS, &flows(), &PlanConfig::default(), 7);
        let faults = plan.faults();
        assert_eq!(
            faults.len(),
            plan.interrupts.len() + plan.bug.is_some() as usize
        );
    }

    #[test]
    fn bug_aggregate_matches_trigger_flows() {
        let agg = paper_bug_aggregate();
        for f in paper_bug_flows() {
            assert!(agg.matches(&f));
        }
    }

    #[test]
    fn deterministic_plans() {
        let t = paper_topology();
        let mk = || {
            let p = InjectionPlan::random(&t, 600 * MILLIS, &flows(), &PlanConfig::default(), 9);
            (p.bursts.len(), p.interrupts.clone())
        };
        assert_eq!(mk(), mk());
    }
}
