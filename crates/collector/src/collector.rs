//! The collector facade the simulator instruments its rx/tx paths with.

use crate::encode::encode_nf_log;
use crate::records::{FlowRecord, PacketMeta, RxLog, TxLog};
use nf_types::{Nanos, NfId, Topology};

/// Everything recorded at one NF during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NfLog {
    /// The NF these records belong to.
    pub nf: NfId,
    /// Input-queue read batches, in time order.
    pub rx: RxLog,
    /// Output write batches, in time order.
    pub tx: TxLog,
    /// Five-tuple records (non-empty only at flow-info points).
    pub flows: Vec<FlowRecord>,
}

impl NfLog {
    /// An empty log for `nf`.
    pub fn new(nf: NfId) -> Self {
        Self {
            nf,
            rx: RxLog::default(),
            tx: TxLog::default(),
            flows: Vec::new(),
        }
    }

    /// Total packet appearances recorded (rx + tx).
    pub fn packet_appearances(&self) -> usize {
        self.rx.packets() + self.tx.packets()
    }
}

/// Collector configuration.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Master switch; when off, `record_*` is a no-op and the overhead is 0.
    pub enabled: bool,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        Self { enabled: true }
    }
}

/// Hot-path cost charged per recorded packet, in nanoseconds. The
/// simulator adds this to NF service time, which is what makes the §6.2
/// overhead experiment (0.88%–2.33% of peak throughput) reproducible.
const PER_PACKET_COST_NS: f64 = 8.0;

/// Runtime data collector for a whole NF deployment.
///
/// One instance serves every NF in the topology (the simulator is
/// single-threaded; in the paper each NF has its own hook and ring).
#[derive(Debug)]
pub struct Collector {
    cfg: CollectorConfig,
    logs: Vec<NfLog>,
    source_flows: Vec<FlowRecord>,
    exit_nfs: Vec<bool>,
}

impl Collector {
    /// Creates a collector for `topology`.
    pub fn new(topology: &Topology, cfg: CollectorConfig) -> Self {
        let logs = topology.nfs().iter().map(|n| NfLog::new(n.id)).collect();
        let mut exit_nfs = vec![false; topology.len()];
        for &e in topology.exits() {
            exit_nfs[e.0 as usize] = true;
        }
        Self {
            cfg,
            logs,
            source_flows: Vec::new(),
            exit_nfs,
        }
    }

    /// Service-time surcharge for a batch of `n` packets, in nanoseconds.
    pub fn batch_overhead_ns(&self, n: usize) -> Nanos {
        if self.cfg.enabled {
            (PER_PACKET_COST_NS * n as f64).round() as Nanos
        } else {
            0
        }
    }

    /// Hook: the source emitted `meta` at `ts`. The source always keeps flow
    /// info (the operator knows the traffic they offered — MoonGen's replay
    /// log in the paper's setup).
    pub fn record_source(&mut self, ts: Nanos, meta: &PacketMeta) {
        if !self.cfg.enabled {
            return;
        }
        self.source_flows.push(FlowRecord {
            ipid: meta.ipid,
            flow: meta.flow,
            ts,
        });
    }

    /// Hook: NF `nf` read a batch from its input queue at `ts`.
    pub fn record_rx(&mut self, nf: NfId, ts: Nanos, batch: &[PacketMeta]) {
        if !self.cfg.enabled || batch.is_empty() {
            return;
        }
        self.logs[nf.0 as usize]
            .rx
            .push(ts, batch.iter().map(|m| m.ipid));
    }

    /// Hook: NF `nf` wrote a batch towards `to` at `ts` (`None` = leaves the
    /// graph). At exit NFs this also records five-tuples.
    pub fn record_tx(&mut self, nf: NfId, ts: Nanos, to: Option<NfId>, batch: &[PacketMeta]) {
        if !self.cfg.enabled || batch.is_empty() {
            return;
        }
        let log = &mut self.logs[nf.0 as usize];
        log.tx.push(ts, to, batch.iter().map(|m| m.ipid));
        if self.exit_nfs[nf.0 as usize] && to.is_none() {
            for m in batch {
                log.flows.push(FlowRecord {
                    ipid: m.ipid,
                    flow: m.flow,
                    ts,
                });
            }
        }
    }

    /// Finishes the run and hands the recorded data to the offline pipeline.
    pub fn into_bundle(self) -> TraceBundle {
        TraceBundle {
            logs: self.logs,
            source_flows: self.source_flows,
        }
    }
}

/// The output of a run: everything the offline reconstruction gets to see.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceBundle {
    /// One log per NF, indexed by `NfId`.
    pub logs: Vec<NfLog>,
    /// Five-tuple records of everything the source offered, in time order.
    pub source_flows: Vec<FlowRecord>,
}

impl TraceBundle {
    /// The log of one NF.
    pub fn log(&self, nf: NfId) -> &NfLog {
        &self.logs[nf.0 as usize]
    }

    /// Encoded size of the whole bundle in bytes (what the dumper would
    /// write to disk; the paper reports ~12.5 MB for a 5 s run).
    pub fn encoded_size(&self) -> usize {
        self.logs
            .iter()
            .map(|l| encode_nf_log(l).map_or(0, |enc| enc.len()))
            .sum::<usize>()
            + self.source_flows.len() * 17
    }

    /// Total packet appearances across all NF logs.
    pub fn packet_appearances(&self) -> usize {
        self.logs.iter().map(|l| l.packet_appearances()).sum()
    }

    /// Mean encoded bytes per packet appearance — the paper's
    /// "~two bytes per packet" claim, checked in tests.
    pub fn bytes_per_packet(&self) -> f64 {
        let apps = self.packet_appearances();
        if apps == 0 {
            0.0
        } else {
            self.logs
                .iter()
                .map(|l| encode_nf_log(l).map_or(0, |enc| enc.len()))
                // float: canonical-order(the sum is over usize; only the quotient is a float)
                .sum::<usize>() as f64
                / apps as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_types::{FiveTuple, NfKind, Proto};

    fn topo() -> Topology {
        let mut b = Topology::builder();
        let a = b.add_nf(NfKind::Nat, "nat1");
        let v = b.add_nf(NfKind::Vpn, "vpn1");
        b.add_entry(a);
        b.add_edge(a, v);
        b.build().unwrap()
    }

    fn meta(ipid: u16) -> PacketMeta {
        PacketMeta {
            ipid,
            flow: FiveTuple::new(1, 2, 3, 4, Proto::TCP),
        }
    }

    #[test]
    fn records_rx_and_tx() {
        let t = topo();
        let mut c = Collector::new(&t, CollectorConfig::default());
        c.record_rx(NfId(0), 100, &[meta(1), meta(2)]);
        c.record_tx(NfId(0), 150, Some(NfId(1)), &[meta(1), meta(2)]);
        let b = c.into_bundle();
        assert_eq!(b.log(NfId(0)).rx.len(), 1);
        assert_eq!(b.log(NfId(0)).rx.get(0).ipids, [1, 2]);
        assert_eq!(b.log(NfId(0)).tx.get(0).to, Some(NfId(1)));
        // Interior NF keeps no flow info.
        assert!(b.log(NfId(0)).flows.is_empty());
    }

    #[test]
    fn flow_info_only_at_exit_output() {
        let t = topo();
        let mut c = Collector::new(&t, CollectorConfig::default());
        // vpn1 (NfId 1) is the exit.
        c.record_tx(NfId(1), 200, None, &[meta(7)]);
        c.record_tx(NfId(0), 210, Some(NfId(1)), &[meta(8)]);
        let b = c.into_bundle();
        assert_eq!(b.log(NfId(1)).flows.len(), 1);
        assert_eq!(b.log(NfId(1)).flows[0].ipid, 7);
        assert!(b.log(NfId(0)).flows.is_empty());
    }

    #[test]
    fn disabled_collector_records_nothing_and_costs_nothing() {
        let t = topo();
        let mut c = Collector::new(&t, CollectorConfig { enabled: false });
        c.record_rx(NfId(0), 100, &[meta(1)]);
        c.record_source(0, &meta(1));
        assert_eq!(c.batch_overhead_ns(32), 0);
        let b = c.into_bundle();
        assert_eq!(b.packet_appearances(), 0);
        assert!(b.source_flows.is_empty());
    }

    #[test]
    fn overhead_scales_with_batch() {
        let t = topo();
        let c = Collector::new(&t, CollectorConfig::default());
        assert_eq!(c.batch_overhead_ns(32), 256); // 32 × 8 ns
        assert_eq!(c.batch_overhead_ns(0), 0);
    }

    #[test]
    fn empty_batches_not_recorded() {
        let t = topo();
        let mut c = Collector::new(&t, CollectorConfig::default());
        c.record_rx(NfId(0), 100, &[]);
        c.record_tx(NfId(0), 100, None, &[]);
        let b = c.into_bundle();
        assert_eq!(b.log(NfId(0)).rx.len(), 0);
        assert_eq!(b.log(NfId(0)).tx.len(), 0);
    }

    #[test]
    fn source_flows_recorded_in_order() {
        let t = topo();
        let mut c = Collector::new(&t, CollectorConfig::default());
        c.record_source(5, &meta(1));
        c.record_source(9, &meta(2));
        let b = c.into_bundle();
        assert_eq!(b.source_flows.len(), 2);
        assert!(b.source_flows[0].ts < b.source_flows[1].ts);
    }

    #[test]
    fn bundle_size_accounting() {
        let t = topo();
        let mut c = Collector::new(&t, CollectorConfig::default());
        for i in 0..100u16 {
            c.record_rx(NfId(0), 100 + i as u64 * 10, &[meta(i)]);
        }
        let b = c.into_bundle();
        assert_eq!(b.packet_appearances(), 100);
        assert!(b.encoded_size() > 0);
        assert!(b.bytes_per_packet() > 0.0);
    }
}
