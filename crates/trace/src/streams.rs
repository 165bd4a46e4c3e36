//! Flattening collector logs into matchable streams.
//!
//! For every NF we flatten the batched rx records into per-packet columns
//! and write every tx batch straight into the send columns of the edge it
//! went out on — the columns [`crate::matching`] indexes. Because NF rings
//! are FIFO and the NFs process packets in order, the i-th packet an NF
//! reads is the i-th packet it sends — so rx index and tx index line up
//! within an NF and the only hard matching problem is *across* NFs.
//!
//! The source's per-entry-NF send streams are derived from the source flow
//! records and the operator-known load-balancer hash
//! ([`nf_types::Topology::entry_for`]) — the path side channel at the first
//! hop.

use crate::matching::EdgeSends;
use msc_collector::TraceBundle;
use nf_types::{Ipid, Nanos, NfId, NodeId, Topology};

// Per-batch and per-packet records: a stray `usize` must not bring the
// bytes back silently. (`source_entry` holds an `NfId` per source record.)
const _: () = assert!(std::mem::size_of::<RxBatchInfo>() <= 16);
const _: () = assert!(std::mem::size_of::<NfId>() == 2);

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

/// The topology's edges numbered by *slot*: every downstream NF's upstream
/// nodes in [`Topology::upstream_nodes`] order, which is also the order
/// [`crate::matching::EdgeMatch`] reports outcomes in — so edge lookups are
/// array indexing instead of hashing, offline and streaming alike.
#[derive(Debug)]
pub(crate) struct EdgeSlots {
    /// Per downstream NF: its upstream nodes in slot order.
    pub(crate) upstreams: Vec<Vec<NodeId>>,
    /// `out[u][d]`: the slot of NF `u` on downstream `d`, if the edge exists.
    out: Vec<Vec<Option<usize>>>,
    /// `source[d]`: the slot of the source on `d` (entry NFs).
    source: Vec<Option<usize>>,
}

impl EdgeSlots {
    pub(crate) fn of(topology: &Topology) -> Self {
        let n = topology.len();
        let upstreams: Vec<Vec<NodeId>> = (0..n)
            .map(|d| topology.upstream_nodes(NfId(d as u16)))
            .collect();
        let slot_on = |node: NodeId| -> Vec<Option<usize>> {
            upstreams
                .iter()
                .map(|ups| ups.iter().position(|&u| u == node))
                .collect()
        };
        Self {
            out: (0..n)
                .map(|u| slot_on(NodeId::Nf(NfId(u as u16))))
                .collect(),
            source: slot_on(NodeId::Source),
            upstreams,
        }
    }

    /// The slot of NF `up` on `down`; `None` when `up → down` is not a
    /// topology edge — including a `down` no topology of this size holds,
    /// which a decoded tx record can name.
    pub(crate) fn of_nf(&self, up: usize, down: NfId) -> Option<usize> {
        *self.out[up].get(down.0 as usize)?
    }

    /// The slot of the source on `down`.
    pub(crate) fn of_source(&self, down: NfId) -> Option<usize> {
        *self.source.get(down.0 as usize)?
    }

    /// The widest fan-in: how many edge indexes one NF's match can need.
    pub(crate) fn fan_in(&self) -> usize {
        self.upstreams.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// `tx_to` of a send that left the graph.
const TO_EXIT: u16 = u16::MAX;
/// `tx_to` of a send to a node that is not a topology edge (whatever id the
/// record named). [`EdgeStreams::build`] keeps NF ids below both markers.
const TO_STRAY: u16 = u16::MAX - 1;

/// The per-packet columns of one NF: what the matcher and the trace walk
/// index by rx / tx entry. The `(ts, ipid)` of its sends are not here but in
/// the downstream edge columns ([`EdgeStreams::edge`]).
#[derive(Debug, Default)]
pub struct NfStreams {
    /// Read (batch) timestamp of every rx entry, in read order.
    pub rx_ts: Vec<Nanos>,
    /// IPID of every rx entry.
    pub rx_ipid: Vec<Ipid>,
    /// Batch metadata, in order.
    pub rx_batches: Vec<RxBatchInfo>,
    /// Per tx entry in send order (all targets interleaved as recorded —
    /// the NF's global FIFO order): the next hop's NF id, or [`TO_EXIT`] /
    /// [`TO_STRAY`].
    tx_to: Vec<u16>,
    /// Per tx entry: its position within the column that holds its send
    /// time — its edge's, `exit_ts` or `stray_ts`.
    tx_pos: Vec<u32>,
    /// Send time of every exit send, aligned with the NF's flow records.
    exit_ts: Vec<Nanos>,
    /// Send time of every send to a node that is not a topology edge.
    stray_ts: Vec<Nanos>,
}

impl NfStreams {
    /// The `(read ts, ipid)` of every rx entry, in read order.
    pub fn rx(&self) -> impl ExactSizeIterator<Item = (Nanos, Ipid)> + Clone + '_ {
        self.rx_ts.iter().copied().zip(self.rx_ipid.iter().copied())
    }
}

/// Where an NF sent a packet on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxNext {
    /// Out of the graph, as the NF's `pos`-th exit send (the index of its
    /// flow record).
    Exit {
        /// Position among the NF's exit sends.
        pos: usize,
    },
    /// To NF `down`, as position `pos` of the edge in `down`'s upstream slot
    /// `slot`.
    Edge {
        /// The next hop.
        down: NfId,
        /// The sender's slot among `down`'s upstreams.
        slot: usize,
        /// Position within that edge.
        pos: usize,
    },
    /// To a node the topology has no edge to: nothing downstream is matched
    /// against it.
    Stray,
}

/// One tx entry: when the packet was sent and where to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxHop {
    /// Send (batch) timestamp.
    pub ts: Nanos,
    /// Next hop.
    pub next: TxNext,
}

/// Flattened streams for the whole deployment: per-NF packet columns plus
/// the send columns of every edge, addressed by downstream NF and upstream
/// slot ([`EdgeSlots`]).
///
/// Stream indexes and edge positions are `u32`: `msc_collector::RxLog`
/// keeps a log's packet count within one, the wire carries the source
/// section's record count in one, and [`Self::build`] asserts the latter
/// for in-memory bundles.
#[derive(Debug)]
pub struct EdgeStreams {
    /// Per-NF columns, indexed by `NfId`.
    pub nfs: Vec<NfStreams>,
    slots: EdgeSlots,
    /// `edges[down][slot]`: the `(ts, ipid)` of every packet sent on that
    /// edge, in send order.
    edges: Vec<Vec<EdgeSends>>,
    /// Per source record: the entry NF the load balancer sends its flow to.
    /// Flow and emission time stay in [`TraceBundle::source_flows`].
    source_entry: Vec<NfId>,
    /// Per source record: its position within its source → entry edge.
    source_edge_pos: Vec<u32>,
}

impl EdgeStreams {
    /// Builds streams from a bundle: one counting pass over the batches for
    /// exact capacities, then every per-packet fact is written once, in the
    /// column its reader reads.
    ///
    /// # Panics
    /// Panics if the bundle holds more than `u32::MAX` source records or the
    /// topology more than 65 534 NFs.
    pub fn build(topology: &Topology, bundle: &TraceBundle) -> Self {
        assert!(
            u32::try_from(bundle.source_flows.len()).is_ok(),
            "source records must fit u32"
        );
        assert!(
            topology.len() <= TO_STRAY as usize,
            "NF ids must stay below the tx target markers"
        );
        let slots = EdgeSlots::of(topology);
        let source_entry: Vec<NfId> = bundle
            .source_flows
            .iter()
            .map(|f| topology.entry_for(&f.flow))
            .collect();

        let mut edge_len: Vec<Vec<usize>> =
            slots.upstreams.iter().map(|u| vec![0; u.len()]).collect();
        for &entry in &source_entry {
            if let Some(slot) = slots.of_source(entry) {
                edge_len[entry.0 as usize][slot] += 1;
            }
        }
        // (exit sends, stray sends) per NF.
        let mut off_edge = vec![(0usize, 0usize); bundle.logs.len()];
        for (u, log) in bundle.logs.iter().enumerate() {
            for b in log.tx.iter() {
                match b.to.map(|d| (d, slots.of_nf(u, d))) {
                    None => off_edge[u].0 += b.len(),
                    Some((d, Some(slot))) => edge_len[d.0 as usize][slot] += b.len(),
                    Some((_, None)) => off_edge[u].1 += b.len(),
                }
            }
        }
        let mut edges: Vec<Vec<EdgeSends>> = edge_len
            .iter()
            .map(|lens| lens.iter().map(|&n| EdgeSends::with_capacity(n)).collect())
            .collect();

        let mut nfs: Vec<NfStreams> = Vec::with_capacity(bundle.logs.len());
        for ((u, log), &(exits, strays)) in bundle.logs.iter().enumerate().zip(&off_edge) {
            let mut s = NfStreams {
                rx_ts: Vec::with_capacity(log.rx.packets()),
                rx_ipid: Vec::with_capacity(log.rx.packets()),
                rx_batches: Vec::with_capacity(log.rx.len()),
                tx_to: Vec::with_capacity(log.tx.packets()),
                tx_pos: Vec::with_capacity(log.tx.packets()),
                exit_ts: Vec::with_capacity(exits),
                stray_ts: Vec::with_capacity(strays),
            };
            for b in log.rx.iter() {
                s.rx_batches.push(RxBatchInfo {
                    ts: b.ts,
                    // lint: lossy-cast-ok(a batch holds at most its log's packets, which `RxLog` keeps within u32)
                    size: b.len() as u32,
                    drained: b.drained_queue(),
                });
                s.rx_ts.extend(std::iter::repeat_n(b.ts, b.len()));
                s.rx_ipid.extend_from_slice(b.ipids);
            }
            // Slot and column are resolved once per batch. Positions fit
            // u32: no column outgrows the NF's tx log, which `TxLog` keeps
            // within one.
            for b in log.tx.iter() {
                let (to, end) = match b.to.map(|d| (d, slots.of_nf(u, d))) {
                    None => {
                        s.exit_ts.extend(std::iter::repeat_n(b.ts, b.len()));
                        (TO_EXIT, s.exit_ts.len())
                    }
                    Some((d, Some(slot))) => {
                        let e = &mut edges[d.0 as usize][slot];
                        e.push_batch(b.ts, b.ipids);
                        (d.0, e.len())
                    }
                    Some((_, None)) => {
                        s.stray_ts.extend(std::iter::repeat_n(b.ts, b.len()));
                        (TO_STRAY, s.stray_ts.len())
                    }
                };
                s.tx_to.extend(std::iter::repeat_n(to, b.len()));
                // lint: lossy-cast-ok(see above: a position within a column of one NF's sends)
                s.tx_pos.extend((end - b.len()..end).map(|p| p as u32));
            }
            nfs.push(s);
        }

        // Source -> entry edges.
        let mut source_edge_pos: Vec<u32> = Vec::with_capacity(source_entry.len());
        for (f, &entry) in bundle.source_flows.iter().zip(&source_entry) {
            // An entry NF without a source upstream is a malformed topology;
            // park the record at position 0 instead of panicking — the walk
            // finds no edge to look it up on and leaves the trace unresolved.
            let Some(slot) = slots.of_source(entry) else {
                source_edge_pos.push(0);
                continue;
            };
            let e = &mut edges[entry.0 as usize][slot];
            // lint: lossy-cast-ok(an edge position is below the source record count, asserted to fit u32)
            source_edge_pos.push(e.len() as u32);
            e.push_batch(f.ts, &[f.ipid]);
        }

        Self {
            nfs,
            slots,
            edges,
            source_entry,
            source_edge_pos,
        }
    }

    /// The upstream nodes of `down` in slot order
    /// ([`Topology::upstream_nodes`] order).
    pub fn upstreams(&self, down: NfId) -> &[NodeId] {
        &self.slots.upstreams[down.0 as usize]
    }

    /// The slot of upstream `node` on downstream `down`, if the edge exists.
    pub fn slot_of(&self, node: NodeId, down: NfId) -> Option<usize> {
        match node {
            NodeId::Source => self.slots.of_source(down),
            NodeId::Nf(u) => self.slots.of_nf(u.0 as usize, down),
        }
    }

    /// The widest fan-in over all NFs.
    pub(crate) fn fan_in(&self) -> usize {
        self.slots.fan_in()
    }

    /// The send columns of the edge in `down`'s upstream slot `slot`.
    ///
    /// # Panics
    /// Panics if `down` has no such slot.
    pub fn edge(&self, down: NfId, slot: usize) -> &EdgeSends {
        &self.edges[down.0 as usize][slot]
    }

    /// The `(ts, ipid)` of every packet sent on `(node, down)`, in edge
    /// order (empty if the edge does not exist).
    pub fn edge_entries(
        &self,
        node: NodeId,
        down: NfId,
    ) -> impl ExactSizeIterator<Item = (Nanos, Ipid)> + Clone + '_ {
        static NO_EDGE: EdgeSends = EdgeSends::new();
        self.slot_of(node, down)
            .map_or(&NO_EDGE, |slot| self.edge(down, slot))
            .iter()
    }

    /// Where source record `i` entered the graph: the entry NF and, unless
    /// the topology has no source edge into it, the `(slot, position)` of
    /// the record on that edge.
    pub fn source_send(&self, i: usize) -> (NfId, Option<(usize, usize)>) {
        let entry = self.source_entry[i];
        let at = self
            .slots
            .of_source(entry)
            .map(|slot| (slot, self.source_edge_pos[i] as usize));
        (entry, at)
    }

    /// Tx entry `i` of `nf` — by FIFO the send of the packet `nf` read as
    /// rx entry `i`; `None` when the NF never sent that many.
    pub fn tx(&self, nf: NfId, i: usize) -> Option<TxHop> {
        let s = &self.nfs[nf.0 as usize];
        let (&to, &pos) = (s.tx_to.get(i)?, s.tx_pos.get(i)?);
        let pos = pos as usize;
        Some(match to {
            TO_EXIT => TxHop {
                ts: s.exit_ts[pos],
                next: TxNext::Exit { pos },
            },
            TO_STRAY => TxHop {
                ts: s.stray_ts[pos],
                next: TxNext::Stray,
            },
            _ => {
                // `build` wrote an NF id only where it had resolved the edge.
                let down = NfId(to);
                let slot = self.slots.of_nf(nf.0 as usize, down)?;
                TxHop {
                    ts: self.edges[to as usize][slot].ts_at(pos),
                    next: TxNext::Edge { down, slot, pos },
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_collector::{Collector, CollectorConfig, PacketMeta};
    use nf_types::{FiveTuple, NfKind, Proto};

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
        assert_eq!(nat.rx_ts, [100, 100, 200]);
        assert_eq!(nat.rx_ipid, [1, 2, 3]);
        assert_eq!(nat.rx_batches.len(), 2);
        assert_eq!(nat.rx_batches[1].size, 1);
        assert!(nat.rx_batches[0].drained); // 2 < 32
        assert!(s.tx(NfId(0), 1).is_some());
        assert_eq!(s.tx(NfId(0), 2), None);
        let edge: Vec<_> = s.edge_entries(NodeId::Nf(NfId(0)), NfId(2)).collect();
        assert_eq!(edge, [(150, 1), (150, 2)]);
        assert_eq!(s.edge_entries(NodeId::Nf(NfId(1)), NfId(2)).len(), 0);
        // Not an edge at all.
        assert_eq!(s.edge_entries(NodeId::Nf(NfId(2)), NfId(0)).len(), 0);
    }

    #[test]
    fn source_streams_split_by_lb_hash() {
        let t = topo();
        let mut c = Collector::new(&t, CollectorConfig::default());
        // 40 flows spread over both entries by hash.
        for i in 0..40u16 {
            c.record_source(i as u64 * 10, &meta(i, 1000 + i));
        }
        let bundle = c.into_bundle();
        let s = EdgeStreams::build(&t, &bundle);
        let a = s.edge_entries(NodeId::Source, NfId(0)).len();
        let b = s.edge_entries(NodeId::Source, NfId(1)).len();
        assert_eq!(a + b, 40);
        assert!(a > 5 && b > 5, "lb skew: {a}/{b}");
        // Every record sits at its position of its entry's source edge.
        for (i, f) in bundle.source_flows.iter().enumerate() {
            let (entry, at) = s.source_send(i);
            assert_eq!(entry, t.entry_for(&f.flow));
            let (slot, pos) = at.expect("entries have a source edge");
            assert_eq!(s.edge(entry, slot).iter().nth(pos), Some((f.ts, f.ipid)));
        }
    }

    #[test]
    fn exit_sends_keep_their_time_and_position() {
        let t = topo();
        let mut c = Collector::new(&t, CollectorConfig::default());
        c.record_tx(NfId(2), 500, None, &[meta(9, 1)]);
        c.record_tx(NfId(2), 600, None, &[meta(10, 2), meta(11, 3)]);
        let s = EdgeStreams::build(&t, &c.into_bundle());
        let exit = |ts, pos| {
            Some(TxHop {
                ts,
                next: TxNext::Exit { pos },
            })
        };
        assert_eq!(s.tx(NfId(2), 0), exit(500, 0));
        assert_eq!(s.tx(NfId(2), 2), exit(600, 2));
        assert_eq!(s.tx(NfId(2), 3), None);
    }

    #[test]
    fn empty_bundle_builds_empty_streams() {
        let mut b = Topology::builder();
        let a = b.add_nf(NfKind::Nat, "nat1");
        b.add_entry(a);
        let t = b.build().unwrap();
        let c = Collector::new(&t, CollectorConfig::default());
        let s = EdgeStreams::build(&t, &c.into_bundle());
        assert!(s.nfs[0].rx_ts.is_empty());
        assert_eq!(s.tx(a, 0), None);
        assert_eq!(s.edge_entries(NodeId::Source, a).len(), 0);
    }

    #[test]
    fn every_tx_entry_points_at_its_send_in_its_edge_column() {
        let mut b = Topology::builder();
        let a = b.add_nf(NfKind::Nat, "nat1");
        let v1 = b.add_nf(NfKind::Vpn, "vpn1");
        let v2 = b.add_nf(NfKind::Vpn, "vpn2");
        b.add_entry(a);
        b.add_edge(a, v1);
        b.add_edge(a, v2);
        let t = b.build().unwrap();
        let mut c = Collector::new(&t, CollectorConfig::default());
        // Interleave targets across batches; NF 7 is in no topology of this
        // size, v2 -> v1 is not an edge of this one.
        c.record_tx(a, 100, Some(v1), &[meta(1, 1), meta(2, 1)]);
        c.record_tx(a, 200, Some(v2), &[meta(3, 1)]);
        c.record_tx(a, 250, Some(NfId(7)), &[meta(8, 1)]);
        c.record_tx(a, 300, Some(v1), &[meta(4, 1)]);
        c.record_tx(v2, 400, Some(v1), &[meta(5, 1)]);
        let sent = [(100, 1), (100, 2), (200, 3), (250, 8), (300, 4)];
        let s = EdgeStreams::build(&t, &c.into_bundle());
        for (i, &(ts, ipid)) in sent.iter().enumerate() {
            let hop = s.tx(a, i).unwrap();
            assert_eq!(hop.ts, ts);
            match hop.next {
                TxNext::Edge { down, slot, pos } => {
                    assert_eq!(s.slot_of(NodeId::Nf(a), down), Some(slot));
                    assert_eq!(s.edge(down, slot).iter().nth(pos), Some((ts, ipid)));
                }
                other => assert_eq!((other, ipid), (TxNext::Stray, 8)),
            }
        }
        assert_eq!(s.tx(a, sent.len()), None);
        assert_eq!(s.edge_entries(NodeId::Nf(a), v1).len(), 3);
        assert_eq!(s.edge_entries(NodeId::Nf(a), v2).len(), 1);
        assert_eq!(
            s.tx(v2, 0),
            Some(TxHop {
                ts: 400,
                next: TxNext::Stray
            })
        );
    }
}
