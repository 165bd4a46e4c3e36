//! The discrete-event engine.
//!
//! Three event kinds drive the run:
//!
//! * `Emit(i)` — the traffic source emits the i-th packet of the schedule
//!   and load-balances it (flow hash) onto an entry NF.
//! * `Wake(nf)` / `BatchDone(nf)` — the poll-mode NF loop: an idle NF with a
//!   non-empty ring starts a batch (up to [`MAX_BATCH`] packets), holds the
//!   core for the sum of per-packet service costs (+ collector surcharge),
//!   then writes one tx batch per downstream — it lands on that NF's input
//!   ring at once (NFs share a host) — and immediately starts the next
//!   batch if the ring is non-empty.
//!
//! Interrupts stall `Wake`/batch starts until the stall window ends; packets
//! keep arriving meanwhile, which is precisely how queues build up (Fig. 1).
//! Everything is ordered by `(time, sequence)` so runs are deterministic.

use crate::faults::{Fault, FaultJournal, InjectedEvent, InterruptSchedule};
use crate::nf::NfConfig;
use crate::queue::{DropRecord, PacketQueue, Queued};
use crate::stats::{HopRecord, NfStats, PacketFate, PacketOutcome};
use msc_collector::{Collector, CollectorConfig, PacketMeta, TraceBundle, MAX_BATCH};
use nf_types::{FlowAggregate, Interval, Nanos, NfId, Packet, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Epoch added to all observed clocks when skew modelling is on (10 s —
/// far larger than any offset, so clocks never read negative).
const CLOCK_EPOCH_NS: i64 = 10_000_000_000;

/// Bug-trigger episodes closer than this merge into one journal window.
const BUG_MERGE_GAP_NS: Nanos = 200 * nf_types::MICROS;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed for service-time noise.
    pub seed: u64,
    /// Collector settings (recording on/off).
    pub collector: CollectorConfig,
    /// Record full per-packet ground truth (memory-heavy on long runs).
    pub record_fates: bool,
    /// Sample input-queue lengths at this granularity (for Fig. 1/2 plots).
    pub queue_sample_every: Option<Nanos>,
    /// Per-NF clock offsets in nanoseconds, applied to the *collector's*
    /// timestamps only (ground truth stays on the true clock). Models NFs
    /// on different servers with unsynchronised clocks (§7); empty = all
    /// clocks perfect. The offline `msc_trace::skew` module estimates and
    /// removes these.
    pub clock_offsets_ns: Vec<i64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            collector: CollectorConfig::default(),
            record_fates: true,
            queue_sample_every: None,
            clock_offsets_ns: Vec::new(),
        }
    }
}

#[derive(Debug)]
enum EventKind {
    Emit(usize),
    Wake(NfId),
    BatchDone(NfId),
}

/// Heap ordering: earliest time first, FIFO within a timestamp.
struct Ev(Nanos, u64, EventKind);

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0 && self.1 == other.1
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0, self.1).cmp(&(other.0, other.1))
    }
}

struct NfState {
    cfg: NfConfig,
    queue: PacketQueue,
    busy: bool,
    /// The batch on the core, in wire order, read at `read_at`. The buffer
    /// is refilled batch after batch.
    in_flight: Vec<Queued>,
    read_at: Nanos,
    interrupts: InterruptSchedule,
    bugs: Vec<(FlowAggregate, Nanos)>,
    stats: NfStats,
    last_bug_trigger: Option<usize>, // index into journal.events
}

/// Everything a run produces.
#[derive(Debug)]
pub struct SimOutput {
    /// The collector's view — the *only* thing the diagnosis pipeline sees.
    pub bundle: TraceBundle,
    /// Ground-truth per-packet journeys (empty if `record_fates` was off).
    pub fates: Vec<PacketFate>,
    /// Ground-truth fault journal.
    pub journal: FaultJournal,
    /// Per-NF input-queue length series (empty unless sampling enabled).
    pub queue_series: Vec<Vec<(Nanos, usize)>>,
    /// All ring-full drops.
    pub drops: Vec<DropRecord>,
    /// Per-NF counters.
    pub nf_stats: Vec<NfStats>,
    /// Time of the last processed event.
    pub duration: Nanos,
}

impl SimOutput {
    /// Delivered-packet latencies in nanoseconds (unsorted).
    pub fn latencies(&self) -> Vec<Nanos> {
        self.fates.iter().filter_map(|f| f.latency()).collect()
    }

    /// The p-quantile (0..=1) of delivered latency.
    pub fn latency_quantile(&self, p: f64) -> Option<Nanos> {
        let mut l = self.latencies();
        if l.is_empty() {
            return None;
        }
        l.sort_unstable();
        let idx = ((l.len() - 1) as f64 * p).round() as usize;
        Some(l[idx])
    }
}

/// A configured simulation, ready to run once.
pub struct Simulation {
    topology: Topology,
    nfs: Vec<NfState>,
    cfg: SimConfig,
    rng: StdRng,
    collector: Collector,
    journal: FaultJournal,
    drops: Vec<DropRecord>,
    heap: BinaryHeap<Reverse<Ev>>,
    /// The collector records of one rx or tx batch; reused.
    metas: Vec<PacketMeta>,
    /// The next-hop groups of the batch `batch_done` sends, as `(hop, end)`
    /// index ranges into its in-flight buffer; reused.
    groups: Vec<(Option<NfId>, usize)>,
    seq: u64,
    now: Nanos,
}

impl Simulation {
    /// Creates a simulation. `nf_configs` must have one entry per NF, in
    /// `NfId` order.
    pub fn new(topology: Topology, nf_configs: Vec<NfConfig>, cfg: SimConfig) -> Self {
        assert_eq!(
            nf_configs.len(),
            topology.len(),
            "need one NfConfig per NF instance"
        );
        let collector = Collector::new(&topology, cfg.collector.clone());
        let nfs = nf_configs
            .into_iter()
            .map(|c| NfState {
                queue: PacketQueue::new(c.queue_capacity, cfg.queue_sample_every),
                cfg: c,
                busy: false,
                in_flight: Vec::with_capacity(MAX_BATCH),
                read_at: 0,
                interrupts: InterruptSchedule::default(),
                bugs: Vec::new(),
                stats: NfStats::default(),
                last_bug_trigger: None,
            })
            .collect();
        let rng = StdRng::seed_from_u64(cfg.seed);
        Self {
            topology,
            nfs,
            cfg,
            rng,
            collector,
            journal: FaultJournal::default(),
            drops: Vec::new(),
            heap: BinaryHeap::new(),
            metas: Vec::with_capacity(MAX_BATCH),
            groups: Vec::with_capacity(MAX_BATCH),
            seq: 0,
            now: 0,
        }
    }

    /// Injects a fault before the run.
    pub fn add_fault(&mut self, fault: Fault) {
        match fault {
            Fault::Interrupt { nf, at, duration } => {
                let w = Interval::new(at, at + duration);
                self.nfs[nf.0 as usize].interrupts.add(w);
                self.journal
                    .record(InjectedEvent::Interrupt { nf, window: w });
            }
            Fault::BugRule {
                nf,
                matches,
                per_packet_ns,
            } => {
                self.nfs[nf.0 as usize].bugs.push((matches, per_packet_ns));
            }
        }
    }

    /// Journals a source-side burst (bursts are built into the schedule by
    /// `nf_traffic`; the engine only needs the ground truth entry).
    pub fn journal_burst(&mut self, flows: Vec<nf_types::FiveTuple>, window: Interval) {
        self.journal.record(InjectedEvent::Burst { flows, window });
    }

    /// The timestamp NF `nf`'s (possibly skewed) clock shows at true time
    /// `t` — what its collector hook records. When skew is modelled, every
    /// clock (including the source's) additionally carries a large common
    /// epoch, as real clocks do: without it, a negative offset near the
    /// start of the run would underflow and clamp, which no real deployment
    /// exhibits.
    fn observed(&self, nf: NfId, t: Nanos) -> Nanos {
        match self.cfg.clock_offsets_ns.get(nf.0 as usize) {
            Some(&off) => (t as i64 + off + CLOCK_EPOCH_NS) as Nanos,
            None => t,
        }
    }

    /// The source's clock (epoch only; the source is the reference clock).
    fn observed_source(&self, t: Nanos) -> Nanos {
        if self.cfg.clock_offsets_ns.is_empty() {
            t
        } else {
            t + CLOCK_EPOCH_NS as Nanos
        }
    }

    fn schedule(&mut self, at: Nanos, kind: EventKind) {
        self.seq += 1;
        self.heap.push(Reverse(Ev(at, self.seq, kind)));
    }

    /// Runs the simulation over `packets` (must be sorted by `created_at`
    /// with contiguous ascending ids, as produced by
    /// `nf_traffic::Schedule::finalize`).
    pub fn run(mut self, packets: &[Packet]) -> SimOutput {
        let base_id = packets.first().map_or(0, |p| p.id.0);
        debug_assert!(packets
            .windows(2)
            .all(|w| { w[0].created_at <= w[1].created_at && w[0].id.0 + 1 == w[1].id.0 }));
        let mut fates: Vec<PacketFate> = if self.cfg.record_fates {
            packets
                .iter()
                .map(|&p| PacketFate {
                    packet: p,
                    hops: Vec::new(),
                    outcome: PacketOutcome::InFlight,
                })
                .collect()
        } else {
            Vec::new()
        };

        if !packets.is_empty() {
            self.schedule(packets[0].created_at, EventKind::Emit(0));
        }

        while let Some(Reverse(Ev(at, _, kind))) = self.heap.pop() {
            self.now = at;
            match kind {
                EventKind::Emit(i) => {
                    self.emit_packet(packets[i], at, base_id, &mut fates);
                    if i + 1 < packets.len() {
                        self.schedule(packets[i + 1].created_at, EventKind::Emit(i + 1));
                    }
                }
                EventKind::Wake(nf) => {
                    self.wake(nf, at);
                }
                EventKind::BatchDone(nf) => {
                    self.batch_done(nf, at, base_id, &mut fates);
                }
            }
        }

        let queue_series = self.nfs.iter_mut().map(|n| n.queue.take_series()).collect();
        let mut nf_stats: Vec<NfStats> = Vec::with_capacity(self.nfs.len());
        for n in &self.nfs {
            let mut s = n.stats.clone();
            s.max_queue = n.queue.max_len;
            s.dropped = n.queue.dropped;
            nf_stats.push(s);
        }
        SimOutput {
            bundle: self.collector.into_bundle(),
            fates,
            journal: self.journal,
            queue_series,
            drops: self.drops,
            nf_stats,
            duration: self.now,
        }
    }

    /// The source emits `p` at `at`, lands it on its entry NF and hashes its
    /// flow once for every routing decision on its path.
    fn emit_packet(&mut self, p: Packet, at: Nanos, base_id: u64, fates: &mut [PacketFate]) {
        let obs = self.observed_source(at);
        self.collector.record_source(obs, &meta(&p));
        let entry = self.topology.entry_for(&p.flow);
        let hash = p.flow.stable_hash();
        let q = Queued {
            packet: p,
            enqueued_at: at,
            hash,
        };
        self.deliver(entry, std::slice::from_ref(&q), at, base_id, fates);
    }

    /// Lands `group` on `nf`'s input ring at `at`, waking the NF if idle.
    fn deliver(
        &mut self,
        nf: NfId,
        group: &[Queued],
        at: Nanos,
        base_id: u64,
        fates: &mut [PacketFate],
    ) {
        let idx = nf.0 as usize;
        for q in group {
            let p = q.packet;
            if self.nfs[idx].queue.push(p, q.hash, at) {
                continue;
            }
            let rec = DropRecord { packet: p, nf, at };
            self.drops.push(rec);
            if self.cfg.record_fates {
                fates[(p.id.0 - base_id) as usize].outcome = PacketOutcome::Dropped { nf, at };
            }
        }
        if !self.nfs[idx].busy && !self.nfs[idx].queue.is_empty() {
            let start = self.nfs[idx].interrupts.next_available(at);
            if start == at {
                self.start_batch(nf, at);
            } else {
                self.schedule(start, EventKind::Wake(nf));
            }
        }
    }

    fn wake(&mut self, nf: NfId, at: Nanos) {
        let idx = nf.0 as usize;
        if self.nfs[idx].busy || self.nfs[idx].queue.is_empty() {
            return;
        }
        let start = self.nfs[idx].interrupts.next_available(at);
        if start == at {
            self.start_batch(nf, at);
        } else {
            self.schedule(start, EventKind::Wake(nf));
        }
    }

    fn start_batch(&mut self, nf: NfId, at: Nanos) {
        let idx = nf.0 as usize;
        let st = &mut self.nfs[idx];
        st.queue.pop_batch(MAX_BATCH, at, &mut st.in_flight);
        if st.in_flight.is_empty() {
            return;
        }
        st.read_at = at;
        let obs = self.observed(nf, at);
        let st = &self.nfs[idx];
        self.metas.clear();
        self.metas
            .extend(st.in_flight.iter().map(|q| meta(&q.packet)));
        self.collector.record_rx(nf, obs, &self.metas);

        // Per-packet service costs: bug slow path wins over the normal model.
        let batch_len = st.in_flight.len();
        let mut service: Nanos = self.collector.batch_overhead_ns(batch_len);
        let mut bug_hit: Option<FlowAggregate> = None;
        for q in &st.in_flight {
            let slow = st.bugs.iter().find(|(agg, _)| agg.matches(&q.packet.flow));
            service += match slow {
                Some(&(agg, cost)) => {
                    bug_hit = Some(agg);
                    cost
                }
                None => st.cfg.service.sample_cost(&mut self.rng),
            };
        }
        let done = at + service;

        if let Some(agg) = bug_hit {
            self.journal_bug_trigger(nf, agg, at, done);
        }

        let st = &mut self.nfs[idx];
        st.stats.batches += 1;
        st.stats.processed += batch_len as u64;
        st.stats.busy_ns = st.stats.busy_ns.saturating_add(service);
        st.busy = true;
        self.schedule(done, EventKind::BatchDone(nf));
    }

    fn journal_bug_trigger(&mut self, nf: NfId, agg: FlowAggregate, at: Nanos, done: Nanos) {
        let idx = nf.0 as usize;
        if let Some(ev_idx) = self.nfs[idx].last_bug_trigger {
            if let InjectedEvent::BugTrigger { window, .. } = &mut self.journal.events[ev_idx] {
                if at <= window.end.saturating_add(BUG_MERGE_GAP_NS) {
                    window.end = window.end.max(done);
                    return;
                }
            }
        }
        self.journal.record(InjectedEvent::BugTrigger {
            nf,
            matches: agg,
            window: Interval::new(at, done),
        });
        self.nfs[idx].last_bug_trigger = Some(self.journal.events.len() - 1);
    }

    fn batch_done(&mut self, nf: NfId, at: Nanos, base_id: u64, fates: &mut [PacketFate]) {
        let idx = nf.0 as usize;
        // Taken out while the batch is delivered, which starts batches
        // downstream but never here; given back empty.
        let mut batch = std::mem::take(&mut self.nfs[idx].in_flight);
        let mut groups = std::mem::take(&mut self.groups);
        let st = &mut self.nfs[idx];
        st.busy = false;

        // Group consecutive packets by next hop, preserving wire order.
        groups.clear();
        for (k, q) in batch.iter().enumerate() {
            let hop = st.cfg.route.next_hop(&q.packet.flow, q.hash);
            match groups.last_mut() {
                Some((h, end)) if *h == hop => *end = k + 1,
                _ => groups.push((hop, k + 1)),
            }
            if self.cfg.record_fates {
                fates[(q.packet.id.0 - base_id) as usize]
                    .hops
                    .push(HopRecord {
                        nf,
                        enqueued_at: q.enqueued_at,
                        read_at: st.read_at,
                        sent_at: at,
                    });
            }
        }

        let obs = self.observed(nf, at);
        let mut start = 0;
        for &(hop, end) in &groups {
            let group = &batch[start..end];
            start = end;
            self.metas.clear();
            self.metas.extend(group.iter().map(|q| meta(&q.packet)));
            self.collector.record_tx(nf, obs, hop, &self.metas);
            match hop {
                Some(d) => self.deliver(d, group, at, base_id, fates),
                None => {
                    if self.cfg.record_fates {
                        for q in group {
                            fates[(q.packet.id.0 - base_id) as usize].outcome =
                                PacketOutcome::Delivered(at);
                        }
                    }
                }
            }
        }
        self.groups = groups;
        assert!(
            self.nfs[idx].in_flight.is_empty(),
            "{nf:?} started a batch while sending one: routes must follow the DAG"
        );
        batch.clear();
        self.nfs[idx].in_flight = batch;

        // Keep the poll loop going.
        if !self.nfs[idx].queue.is_empty() {
            let start = self.nfs[idx].interrupts.next_available(at);
            if start == at {
                self.start_batch(nf, at);
            } else {
                self.schedule(start, EventKind::Wake(nf));
            }
        }
    }
}

/// What the collector records of a packet.
fn meta(p: &Packet) -> PacketMeta {
    PacketMeta {
        ipid: p.ipid,
        flow: p.flow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nf::RoutePolicy;
    use crate::service::ServiceModel;
    use nf_types::{FiveTuple, NfKind, Proto, Topology, MICROS};

    fn chain2() -> (Topology, Vec<NfConfig>) {
        let mut b = Topology::builder();
        let a = b.add_nf(NfKind::Nat, "nat1");
        let v = b.add_nf(NfKind::Vpn, "vpn1");
        b.add_entry(a);
        b.add_edge(a, v);
        let t = b.build().unwrap();
        let cfgs = vec![
            NfConfig::new(ServiceModel::deterministic(500), RoutePolicy::Fixed(v)),
            NfConfig::new(ServiceModel::deterministic(800), RoutePolicy::Exit),
        ];
        (t, cfgs)
    }

    fn flow(sport: u16) -> FiveTuple {
        FiveTuple::new(0x0a000001, 0x14000001, sport, 80, Proto::TCP)
    }

    fn packets(n: u64, gap: Nanos) -> Vec<Packet> {
        (0..n)
            .map(|i| Packet::new(i, flow(1000), 64, i * gap))
            .collect()
    }

    #[test]
    fn packets_traverse_the_chain() {
        let (t, cfgs) = chain2();
        let sim = Simulation::new(t, cfgs, SimConfig::default());
        let out = sim.run(&packets(10, 10_000)); // slow arrivals, no queueing
        assert_eq!(out.fates.len(), 10);
        for f in &out.fates {
            assert!(matches!(f.outcome, PacketOutcome::Delivered(_)), "{f:?}");
            assert_eq!(f.path(), vec![NfId(0), NfId(1)]);
            // Unloaded latency = 500 + 800 ns service + 2 × 8 ns collector.
            assert_eq!(f.latency().unwrap(), 1316);
        }
        assert_eq!(out.nf_stats[0].processed, 10);
        assert_eq!(out.nf_stats[1].processed, 10);
    }

    #[test]
    fn batching_kicks_in_under_load() {
        let (t, cfgs) = chain2();
        let sim = Simulation::new(t, cfgs, SimConfig::default());
        // 1 packet every 100 ns (10 Mpps) into a 2 Mpps NAT: queues, batches.
        let out = sim.run(&packets(500, 100));
        assert!(
            out.nf_stats[0].mean_batch() > 8.0,
            "{}",
            out.nf_stats[0].mean_batch()
        );
        // Overload drops at the NAT once its 1024-ring fills? 500 < 1024: no.
        assert_eq!(out.nf_stats[0].dropped, 0);
    }

    #[test]
    fn ring_overflow_drops() {
        let (t, mut cfgs) = chain2();
        cfgs[0].queue_capacity = 64;
        let sim = Simulation::new(t, cfgs, SimConfig::default());
        // Line-rate burst of 500 packets into a 64-slot ring.
        let out = sim.run(&packets(500, 10));
        assert!(out.nf_stats[0].dropped > 0);
        assert_eq!(
            out.drops.len() as u64,
            out.nf_stats[0].dropped,
            "drop records match counter"
        );
        let delivered = out
            .fates
            .iter()
            .filter(|f| matches!(f.outcome, PacketOutcome::Delivered(_)))
            .count() as u64;
        assert_eq!(delivered + out.nf_stats[0].dropped, 500);
    }

    #[test]
    fn interrupt_stalls_and_queue_builds() {
        let (t, cfgs) = chain2();
        let mut sim = Simulation::new(
            t,
            cfgs,
            SimConfig {
                queue_sample_every: Some(10 * MICROS),
                ..Default::default()
            },
        );
        sim.add_fault(Fault::Interrupt {
            nf: NfId(0),
            at: 100 * MICROS,
            duration: 500 * MICROS,
        });
        // 1 Mpps for 1 ms = 1000 packets; NAT stalls 0.1–0.6 ms.
        let out = sim.run(&packets(1000, 1_000));
        // During the stall ~500 packets accumulate.
        assert!(
            out.nf_stats[0].max_queue > 400,
            "{}",
            out.nf_stats[0].max_queue
        );
        // Journal has the ground truth.
        assert_eq!(out.journal.events.len(), 1);
        // Latency of packets arriving mid-stall spikes.
        let max_lat = out.latencies().into_iter().max().unwrap();
        assert!(max_lat > 400 * MICROS, "{max_lat}");
    }

    #[test]
    fn bug_rule_slows_matching_flows_and_journals_trigger() {
        let (t, cfgs) = chain2();
        let mut sim = Simulation::new(t, cfgs, SimConfig::default());
        let agg = FlowAggregate::exact(&flow(7777));
        sim.add_fault(Fault::BugRule {
            nf: NfId(0),
            matches: agg,
            per_packet_ns: 20_000,
        });
        let mut pkts = Vec::new();
        // 50 normal packets then 5 bug packets then 50 normal.
        let mut id = 0;
        let mut t_ns = 0;
        for _ in 0..50 {
            pkts.push(Packet::new(id, flow(1000), 64, t_ns));
            id += 1;
            t_ns += 2_000;
        }
        for _ in 0..5 {
            pkts.push(Packet::new(id, flow(7777), 64, t_ns));
            id += 1;
            t_ns += 2_000;
        }
        for _ in 0..50 {
            pkts.push(Packet::new(id, flow(1000), 64, t_ns));
            id += 1;
            t_ns += 2_000;
        }
        let out = sim.run(&pkts);
        let trigger = out
            .journal
            .events
            .iter()
            .find(|e| matches!(e, InjectedEvent::BugTrigger { .. }))
            .expect("bug trigger journaled");
        assert_eq!(trigger.culprit_node(), nf_types::NodeId::Nf(NfId(0)));
        // Bug packets took ≥ 20 µs at the NAT.
        let bug_fate = &out.fates[52];
        assert_eq!(bug_fate.packet.flow.src_port, 7777);
        assert!(bug_fate.latency().unwrap() > 20_000);
    }

    #[test]
    fn collector_bundle_contains_rx_tx_and_exit_flows() {
        let (t, cfgs) = chain2();
        let sim = Simulation::new(t, cfgs, SimConfig::default());
        let out = sim.run(&packets(20, 10_000));
        let nat = out.bundle.log(NfId(0));
        let vpn = out.bundle.log(NfId(1));
        assert_eq!(nat.rx.iter().map(|b| b.len()).sum::<usize>(), 20);
        assert_eq!(vpn.rx.iter().map(|b| b.len()).sum::<usize>(), 20);
        // Exit NF records flow info on exit tx.
        assert_eq!(vpn.flows.len(), 20);
        assert!(nat.flows.is_empty());
        // Source offered everything.
        assert_eq!(out.bundle.source_flows.len(), 20);
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let (t, cfgs) = chain2();
            let sim = Simulation::new(t, cfgs, SimConfig::default());
            sim.run(&packets(200, 300)).bundle
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::nf::RoutePolicy;
    use crate::service::ServiceModel;
    use nf_types::{FiveTuple, NfKind, Proto, Topology, MICROS};

    fn fanout_topo() -> (Topology, Vec<NfConfig>) {
        let mut b = Topology::builder();
        let a = b.add_nf(NfKind::Nat, "nat1");
        let v1 = b.add_nf(NfKind::Vpn, "vpn1");
        let v2 = b.add_nf(NfKind::Vpn, "vpn2");
        b.add_entry(a);
        b.add_edge(a, v1);
        b.add_edge(a, v2);
        let t = b.build().unwrap();
        let cfgs = vec![
            NfConfig::new(
                ServiceModel::deterministic(400),
                RoutePolicy::HashAcross(vec![v1, v2]),
            ),
            NfConfig::new(ServiceModel::deterministic(800), RoutePolicy::Exit),
            NfConfig::new(ServiceModel::deterministic(800), RoutePolicy::Exit),
        ];
        (t, cfgs)
    }

    #[test]
    fn tx_groups_split_by_next_hop_preserve_order() {
        let (t, cfgs) = fanout_topo();
        let sim = Simulation::new(t, cfgs, SimConfig::default());
        // Flows alternate between the two VPNs by hash; a dense arrival run
        // forms multi-packet batches whose tx groups must preserve order.
        let packets: Vec<Packet> = (0..200u64)
            .map(|i| {
                let flow = FiveTuple::new(
                    0x0a000001,
                    0x14000001,
                    1000 + (i as u16 % 64),
                    80,
                    Proto::UDP,
                );
                Packet::new(i, flow, 64, i * 100)
            })
            .collect();
        let out = sim.run(&packets);
        // Per-VPN rx order equals the NAT's per-VPN tx order.
        for vpn in [1u16, 2] {
            let nat_tx: Vec<u16> = out
                .bundle
                .log(NfId(0))
                .tx
                .iter()
                .filter(|b| b.to == Some(NfId(vpn)))
                .flat_map(|b| b.ipids.iter().copied())
                .collect();
            let vpn_rx: Vec<u16> = out
                .bundle
                .log(NfId(vpn))
                .rx
                .iter()
                .flat_map(|b| b.ipids.iter().copied())
                .collect();
            assert_eq!(nat_tx, vpn_rx, "vpn{vpn} order");
            assert!(!nat_tx.is_empty());
        }
    }

    #[test]
    fn overlapping_interrupts_merge_in_schedule() {
        let (t, cfgs) = fanout_topo();
        let mut sim = Simulation::new(t, cfgs, SimConfig::default());
        sim.add_fault(Fault::Interrupt {
            nf: NfId(0),
            at: 100 * MICROS,
            duration: 200 * MICROS,
        });
        sim.add_fault(Fault::Interrupt {
            nf: NfId(0),
            at: 250 * MICROS,
            duration: 200 * MICROS,
        });
        let flow = FiveTuple::new(1, 2, 3, 4, Proto::UDP);
        let packets: Vec<Packet> = (0..100u64)
            .map(|i| Packet::new(i, flow, 64, 50 * MICROS + i * 1_000))
            .collect();
        let out = sim.run(&packets);
        // Packets arriving at 150 µs wait until the merged window ends at
        // 450 µs.
        let victim = out
            .fates
            .iter()
            .find(|f| f.packet.created_at >= 140 * MICROS)
            .unwrap();
        assert!(
            victim.hops[0].read_at >= 450 * MICROS,
            "{:?}",
            victim.hops[0]
        );
        // Both interrupts journaled separately (ground truth is per event).
        assert_eq!(out.journal.events.len(), 2);
    }

    #[test]
    fn journal_burst_records_ground_truth() {
        let (t, cfgs) = fanout_topo();
        let mut sim = Simulation::new(t, cfgs, SimConfig::default());
        let flow = FiveTuple::new(9, 9, 9, 9, Proto::UDP);
        sim.journal_burst(vec![flow], Interval::new(10, 20));
        let out = sim.run(&[Packet::new(0, flow, 64, 0)]);
        match &out.journal.events[0] {
            InjectedEvent::Burst { flows, window } => {
                assert_eq!(flows, &vec![flow]);
                assert_eq!(*window, Interval::new(10, 20));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fates_disabled_saves_memory_but_keeps_bundle() {
        let (t, cfgs) = fanout_topo();
        let sim = Simulation::new(
            t,
            cfgs,
            SimConfig {
                record_fates: false,
                ..Default::default()
            },
        );
        let flow = FiveTuple::new(1, 2, 3, 4, Proto::UDP);
        let packets: Vec<Packet> = (0..50u64)
            .map(|i| Packet::new(i, flow, 64, i * 1_000))
            .collect();
        let out = sim.run(&packets);
        assert!(out.fates.is_empty());
        assert_eq!(out.bundle.source_flows.len(), 50);
        assert_eq!(out.nf_stats[0].processed, 50);
    }

    #[test]
    fn skewed_clocks_affect_bundle_not_ground_truth() {
        let (t, cfgs) = fanout_topo();
        let sim = Simulation::new(
            t,
            cfgs,
            SimConfig {
                clock_offsets_ns: vec![1_000_000, -500_000, 0],
                ..Default::default()
            },
        );
        let flow = FiveTuple::new(1, 2, 3, 4, Proto::UDP);
        let out = sim.run(&[Packet::new(0, flow, 64, 1_000)]);
        // Ground truth on the true clock.
        assert_eq!(out.fates[0].hops[0].read_at, 1_000);
        // Collector records on the skewed clock + epoch.
        let rec = out.bundle.log(NfId(0)).rx.ts()[0];
        assert_eq!(rec, 1_000 + 1_000_000 + 10_000_000_000);
        // Source records carry the epoch only.
        assert_eq!(out.bundle.source_flows[0].ts, 1_000 + 10_000_000_000);
    }
}
