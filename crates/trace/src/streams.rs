//! Flattening collector logs into matchable streams.
//!
//! For every NF we flatten the batched rx/tx records into ordered streams.
//! Because NF rings are FIFO and the NFs process packets in order, the i-th
//! packet an NF reads is the i-th packet it sends — so rx index and tx index
//! line up within an NF and the only hard matching problem is *across* NFs
//! (done in [`crate::matching`]).
//!
//! The source's per-entry-NF send streams are derived from the source flow
//! records and the operator-known load-balancer hash
//! ([`nf_types::Topology::entry_for`]) — the path side channel at the first
//! hop.

use msc_collector::TraceBundle;
use nf_types::{FiveTuple, Ipid, Nanos, NfId, NodeId, Topology};

/// One packet appearance in an NF's rx stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxEntry {
    /// Read (batch) timestamp.
    pub ts: Nanos,
    /// IPID.
    pub ipid: Ipid,
    /// Index of the batch this entry came from.
    pub batch: u32,
}

/// One packet appearance in an NF's tx stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxEntry {
    /// Send (batch) timestamp.
    pub ts: Nanos,
    /// IPID.
    pub ipid: Ipid,
    /// Next hop (`None` = leaves the graph).
    pub to: Option<NfId>,
}

/// A packet emitted by the traffic source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceEntry {
    /// Emission timestamp.
    pub ts: Nanos,
    /// IPID.
    pub ipid: Ipid,
    /// The full flow key (the source keeps flow info).
    pub flow: FiveTuple,
    /// The entry NF the load balancer sends this flow to.
    pub entry: NfId,
}

/// Reference to a packet instance: its position in one NF's rx stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketRef {
    /// The NF.
    pub nf: NfId,
    /// Flat index into that NF's rx stream.
    pub rx_idx: usize,
}

// Per-packet and per-batch records: a stray `usize` must not bring the
// bytes back silently.
const _: () = assert!(std::mem::size_of::<RxEntry>() <= 16);
const _: () = assert!(std::mem::size_of::<TxEntry>() <= 16);
const _: () = assert!(std::mem::size_of::<RxBatchInfo>() <= 16);

/// One rx batch's metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxBatchInfo {
    /// Read timestamp.
    pub ts: Nanos,
    /// Batch size.
    pub size: u32,
    /// Whether this read drained the ring (`size <` max batch).
    pub drained: bool,
}

/// All streams of one NF.
#[derive(Debug, Default)]
pub struct NfStreams {
    /// Flattened rx entries in read order.
    pub rx: Vec<RxEntry>,
    /// Batch metadata, in order.
    pub rx_batches: Vec<RxBatchInfo>,
    /// Flattened tx entries in send order (all targets interleaved as
    /// recorded — the NF's global FIFO order).
    pub tx: Vec<TxEntry>,
}

/// Flattened streams for the whole deployment, plus edge position indexes.
///
/// All per-edge indexes are dense: every downstream NF's upstream edges are
/// numbered by *slot* (the position of the upstream node in
/// [`Topology::upstream_nodes`], which is also the order
/// [`crate::matching::EdgeMatch`] reports outcomes in), so edge lookups are
/// array indexing instead of hashing.
///
/// Stream indexes and edge positions are `u32`: `msc_collector::RxLog`
/// keeps a log's packet count within one, the wire carries the source
/// section's record count in one, and [`Self::build`] asserts the latter
/// for in-memory bundles.
#[derive(Debug)]
pub struct EdgeStreams {
    /// Per-NF streams, indexed by `NfId`.
    pub nfs: Vec<NfStreams>,
    /// Source emissions in time order.
    pub source: Vec<SourceEntry>,
    /// Per downstream NF: its upstream nodes in [`Topology::upstream_nodes`]
    /// order — the slot order of `edge_pos`.
    upstreams: Vec<Vec<NodeId>>,
    /// `edge_pos[down][slot]`: ordered indices into the upstream's tx stream
    /// (or the source stream) of the packets sent on that edge.
    edge_pos: Vec<Vec<Vec<u32>>>,
    /// Inverse of `edge_pos` for NF upstreams: `tx_edge_pos[nf][i]` is the
    /// position of tx entry `i` within its edge stream.
    pub tx_edge_pos: Vec<Vec<u32>>,
    /// Inverse for the source stream.
    pub source_edge_pos: Vec<u32>,
    /// For each exit NF: ordered indices into its tx stream of exit sends
    /// (`to == None`), aligned with the NF's flow records.
    exit_pos: Vec<Vec<u32>>,
}

impl EdgeStreams {
    /// Builds streams from a bundle.
    ///
    /// # Panics
    /// Panics if the bundle holds more than `u32::MAX` source records.
    pub fn build(topology: &Topology, bundle: &TraceBundle) -> Self {
        assert!(
            u32::try_from(bundle.source_flows.len()).is_ok(),
            "source records must fit u32"
        );
        let mut nfs: Vec<NfStreams> = Vec::with_capacity(topology.len());
        for log in &bundle.logs {
            let mut s = NfStreams {
                rx: Vec::with_capacity(log.rx.packets()),
                rx_batches: Vec::with_capacity(log.rx.len()),
                tx: Vec::with_capacity(log.tx.packets()),
            };
            for (bi, b) in log.rx.iter().enumerate() {
                // lint: lossy-cast-ok(a batch holds at most its log's packets, which `RxLog` keeps within u32)
                let size = b.len() as u32;
                s.rx_batches.push(RxBatchInfo {
                    ts: b.ts,
                    size,
                    drained: b.drained_queue(),
                });
                s.rx.extend(b.ipids.iter().map(|&ipid| RxEntry {
                    ts: b.ts,
                    ipid,
                    // lint: lossy-cast-ok(batches are no more than packets plus empty polls; a u32-length section cannot hold 2^32 of either)
                    batch: bi as u32,
                }));
            }
            for b in log.tx.iter() {
                s.tx.extend(b.ipids.iter().map(|&ipid| TxEntry {
                    ts: b.ts,
                    ipid,
                    to: b.to,
                }));
            }
            nfs.push(s);
        }

        let source: Vec<SourceEntry> = bundle
            .source_flows
            .iter()
            .map(|f| SourceEntry {
                ts: f.ts,
                ipid: f.ipid,
                flow: f.flow,
                entry: topology.entry_for(&f.flow),
            })
            .collect();

        let n = topology.len();
        let upstreams: Vec<Vec<NodeId>> = (0..n)
            .map(|d| topology.upstream_nodes(NfId(d as u16)))
            .collect();
        let mut edge_pos: Vec<Vec<Vec<u32>>> = upstreams
            .iter()
            .map(|u| vec![Vec::new(); u.len()])
            .collect();
        let mut exit_pos: Vec<Vec<u32>> = vec![Vec::new(); n];

        // NF -> NF edges and exits. Slot of `nf` in each target's upstream
        // list is resolved once per NF, then each tx entry is O(1).
        let mut tx_edge_pos: Vec<Vec<u32>> = Vec::with_capacity(nfs.len());
        for (nf_idx, s) in nfs.iter().enumerate() {
            let me = NodeId::Nf(NfId(nf_idx as u16));
            let my_slot: Vec<Option<usize>> = upstreams
                .iter()
                .map(|u| u.iter().position(|&node| node == me))
                .collect();
            // Sends to targets outside the topology still need consistent
            // inverse positions even though their edge stream is not kept.
            let mut orphan_count: Vec<u32> = vec![0; n];
            let mut pos_within: Vec<u32> = Vec::with_capacity(s.tx.len());
            // Stream indexes fit u32 (see the type's docs), and a position
            // within an edge never exceeds the stream index it stands for.
            for (i, e) in (0u32..).zip(&s.tx) {
                match e.to {
                    Some(d) => match my_slot[d.0 as usize] {
                        Some(slot) => {
                            let v = &mut edge_pos[d.0 as usize][slot];
                            // lint: lossy-cast-ok(v.len() <= i)
                            pos_within.push(v.len() as u32);
                            v.push(i);
                        }
                        None => {
                            pos_within.push(orphan_count[d.0 as usize]);
                            orphan_count[d.0 as usize] += 1;
                        }
                    },
                    None => {
                        let v = &mut exit_pos[nf_idx];
                        // lint: lossy-cast-ok(v.len() <= i)
                        pos_within.push(v.len() as u32);
                        v.push(i);
                    }
                }
            }
            tx_edge_pos.push(pos_within);
        }

        // Source -> entry edges.
        let src_slot: Vec<Option<usize>> = upstreams
            .iter()
            .map(|u| u.iter().position(|&node| node == NodeId::Source))
            .collect();
        let mut source_edge_pos: Vec<u32> = Vec::with_capacity(source.len());
        for (i, e) in (0u32..).zip(&source) {
            // An entry NF without a source upstream is a malformed topology;
            // park the edge at position 0 instead of panicking — the match
            // loop treats it as an ordinary (likely unmatched) candidate.
            let Some(slot) = src_slot[e.entry.0 as usize] else {
                source_edge_pos.push(0);
                continue;
            };
            let v = &mut edge_pos[e.entry.0 as usize][slot];
            // lint: lossy-cast-ok(v.len() <= i)
            source_edge_pos.push(v.len() as u32);
            v.push(i);
        }

        Self {
            nfs,
            source,
            upstreams,
            edge_pos,
            tx_edge_pos,
            source_edge_pos,
            exit_pos,
        }
    }

    /// The upstream nodes of `down` in slot order
    /// ([`Topology::upstream_nodes`] order).
    pub fn upstreams(&self, down: NfId) -> &[NodeId] {
        &self.upstreams[down.0 as usize]
    }

    /// The slot of upstream `node` on downstream `down`, if the edge exists.
    pub fn slot_of(&self, node: NodeId, down: NfId) -> Option<usize> {
        self.upstreams[down.0 as usize]
            .iter()
            .position(|&u| u == node)
    }

    /// Ordered indices into the upstream's tx stream (or the source stream)
    /// of the packets sent on `(node, down)`; empty if the edge does not
    /// exist.
    pub fn edge_positions(&self, node: NodeId, down: NfId) -> &[u32] {
        match self.slot_of(node, down) {
            Some(slot) => &self.edge_pos[down.0 as usize][slot],
            None => &[],
        }
    }

    /// Same as [`Self::edge_positions`] by upstream slot.
    pub fn edge_positions_slot(&self, down: NfId, slot: usize) -> &[u32] {
        &self.edge_pos[down.0 as usize][slot]
    }

    /// Ordered indices into `nf`'s tx stream of exit sends (`to == None`),
    /// aligned with the NF's flow records.
    pub fn exit_positions(&self, nf: NfId) -> &[u32] {
        &self.exit_pos[nf.0 as usize]
    }

    /// The (ts, ipid) of the `pos`-th packet sent on `(node, down)`.
    pub fn edge_entry(&self, node: NodeId, down: NfId, pos: usize) -> (Nanos, Ipid) {
        let idx = self.edge_positions(node, down)[pos] as usize;
        match node {
            NodeId::Source => {
                let e = &self.source[idx];
                (e.ts, e.ipid)
            }
            NodeId::Nf(u) => {
                let e = &self.nfs[u.0 as usize].tx[idx];
                (e.ts, e.ipid)
            }
        }
    }

    /// The `(ts, ipid)` of every packet sent on `(node, down)`, in edge
    /// order (empty if the edge does not exist).
    pub fn edge_entries(
        &self,
        node: NodeId,
        down: NfId,
    ) -> impl ExactSizeIterator<Item = (Nanos, Ipid)> + Clone + '_ {
        self.edge_positions(node, down)
            .iter()
            .map(move |&idx| match node {
                NodeId::Source => {
                    let e = &self.source[idx as usize];
                    (e.ts, e.ipid)
                }
                NodeId::Nf(u) => {
                    let e = &self.nfs[u.0 as usize].tx[idx as usize];
                    (e.ts, e.ipid)
                }
            })
    }

    /// Number of packets sent on an edge.
    pub fn edge_len(&self, node: NodeId, down: NfId) -> usize {
        self.edge_positions(node, down).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_collector::{Collector, CollectorConfig, PacketMeta};
    use nf_types::{NfKind, Proto};

    fn topo() -> Topology {
        let mut b = Topology::builder();
        let a = b.add_nf(NfKind::Nat, "nat1");
        let c = b.add_nf(NfKind::Nat, "nat2");
        let v = b.add_nf(NfKind::Vpn, "vpn1");
        b.add_entry(a);
        b.add_entry(c);
        b.add_edge(a, v);
        b.add_edge(c, v);
        b.build().unwrap()
    }

    fn meta(ipid: u16, sport: u16) -> PacketMeta {
        PacketMeta {
            ipid,
            flow: FiveTuple::new(0x0a000001, 0x14000001, sport, 80, Proto::TCP),
        }
    }

    #[test]
    fn flattening_preserves_order_and_batches() {
        let t = topo();
        let mut c = Collector::new(&t, CollectorConfig::default());
        c.record_rx(NfId(0), 100, &[meta(1, 1), meta(2, 2)]);
        c.record_rx(NfId(0), 200, &[meta(3, 3)]);
        c.record_tx(NfId(0), 150, Some(NfId(2)), &[meta(1, 1), meta(2, 2)]);
        let s = EdgeStreams::build(&t, &c.into_bundle());
        let nat = &s.nfs[0];
        assert_eq!(nat.rx.len(), 3);
        assert_eq!(nat.rx[0].batch, 0);
        assert_eq!(nat.rx[2].batch, 1);
        assert_eq!(nat.rx_batches.len(), 2);
        assert!(nat.rx_batches[0].drained); // 2 < 32
        assert_eq!(nat.tx.len(), 2);
        assert_eq!(s.edge_len(NodeId::Nf(NfId(0)), NfId(2)), 2);
        assert_eq!(s.edge_entry(NodeId::Nf(NfId(0)), NfId(2), 1), (150, 2));
    }

    #[test]
    fn source_streams_split_by_lb_hash() {
        let t = topo();
        let mut c = Collector::new(&t, CollectorConfig::default());
        // 40 flows spread over both entries by hash.
        for i in 0..40u16 {
            c.record_source(i as u64 * 10, &meta(i, 1000 + i));
        }
        let s = EdgeStreams::build(&t, &c.into_bundle());
        let a = s.edge_len(NodeId::Source, NfId(0));
        let b = s.edge_len(NodeId::Source, NfId(1));
        assert_eq!(a + b, 40);
        assert!(a > 5 && b > 5, "lb skew: {a}/{b}");
        // Position inverse is consistent.
        for (i, e) in s.source.iter().enumerate() {
            let pos = s.source_edge_pos[i];
            assert_eq!(
                s.edge_positions(NodeId::Source, e.entry)[pos as usize] as usize,
                i
            );
        }
    }

    #[test]
    fn exit_positions_track_exit_sends() {
        let t = topo();
        let mut c = Collector::new(&t, CollectorConfig::default());
        c.record_tx(NfId(2), 500, None, &[meta(9, 1)]);
        c.record_tx(NfId(2), 600, None, &[meta(10, 2), meta(11, 3)]);
        let s = EdgeStreams::build(&t, &c.into_bundle());
        let exits = s.exit_positions(NfId(2));
        assert_eq!(exits.len(), 3);
        assert_eq!(s.nfs[2].tx[exits[2] as usize].ipid, 11);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use msc_collector::{Collector, CollectorConfig, PacketMeta};
    use nf_types::{NfKind, Proto};

    #[test]
    fn empty_bundle_builds_empty_streams() {
        let mut b = Topology::builder();
        let a = b.add_nf(NfKind::Nat, "nat1");
        b.add_entry(a);
        let t = b.build().unwrap();
        let c = Collector::new(&t, CollectorConfig::default());
        let s = EdgeStreams::build(&t, &c.into_bundle());
        assert!(s.source.is_empty());
        assert!(s.nfs[0].rx.is_empty());
        assert_eq!(s.edge_len(NodeId::Source, a), 0);
    }

    #[test]
    fn tx_edge_pos_inverse_holds_for_every_entry() {
        let mut b = Topology::builder();
        let a = b.add_nf(NfKind::Nat, "nat1");
        let v1 = b.add_nf(NfKind::Vpn, "vpn1");
        let v2 = b.add_nf(NfKind::Vpn, "vpn2");
        b.add_entry(a);
        b.add_edge(a, v1);
        b.add_edge(a, v2);
        let t = b.build().unwrap();
        let mut c = Collector::new(&t, CollectorConfig::default());
        let m = |ipid: u16| PacketMeta {
            ipid,
            flow: FiveTuple::new(1, 2, 3, 4, Proto::TCP),
        };
        // Interleave targets across batches.
        c.record_tx(NfId(0), 100, Some(v1), &[m(1), m(2)]);
        c.record_tx(NfId(0), 200, Some(v2), &[m(3)]);
        c.record_tx(NfId(0), 300, Some(v1), &[m(4)]);
        let s = EdgeStreams::build(&t, &c.into_bundle());
        for (i, e) in s.nfs[0].tx.iter().enumerate() {
            let pos = s.tx_edge_pos[0][i] as usize;
            match e.to {
                Some(d) => {
                    assert_eq!(s.edge_positions(NodeId::Nf(NfId(0)), d)[pos] as usize, i);
                }
                None => {
                    assert_eq!(s.exit_positions(NfId(0))[pos] as usize, i);
                }
            }
        }
        assert_eq!(s.edge_len(NodeId::Nf(NfId(0)), v1), 3);
        assert_eq!(s.edge_len(NodeId::Nf(NfId(0)), v2), 1);
    }
}
