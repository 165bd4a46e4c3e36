//! End-to-end trace assembly: source emissions → per-packet journeys.

use crate::matching::{match_downstream, EdgeMatch, MatchConfig, MatchOutcome};
use crate::streams::{EdgeStreams, PacketRef, RxBatchInfo};
use msc_collector::TraceBundle;
use nf_types::{FiveTuple, Nanos, NfId, NodeId, Topology};
use std::collections::HashMap;
use std::ops::Range;

/// One reconstructed hop: 32 bytes, fields ordered widest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHop {
    /// When the packet arrived at the NF's ring (the upstream send time —
    /// link delay is not observable and treated as zero, as in the paper).
    pub arrival_ts: Nanos,
    /// When the NF read it.
    pub read_ts: Nanos,
    /// When the NF sent it on; [`NEVER_SENT`] if the run ended mid-NF.
    sent: Nanos,
    /// Flat rx index at the NF (keys into timelines).
    pub rx_idx: u32,
    /// The NF.
    pub nf: NfId,
}

/// `TraceHop::sent` of a packet read but never sent on. Not a send time a
/// recorder can produce: it is the last nanosecond of a 584-year clock.
const NEVER_SENT: Nanos = Nanos::MAX;

const _: () = assert!(std::mem::size_of::<TraceHop>() <= 32);

impl TraceHop {
    /// A hop at `nf`; `sent_ts` is `None` when the run ended mid-NF.
    pub fn new(
        nf: NfId,
        arrival_ts: Nanos,
        read_ts: Nanos,
        sent_ts: Option<Nanos>,
        rx_idx: u32,
    ) -> Self {
        Self {
            arrival_ts,
            read_ts,
            sent: sent_ts.unwrap_or(NEVER_SENT),
            rx_idx,
            nf,
        }
    }

    /// When the NF sent the packet on (`None` if the run ended mid-NF).
    pub fn sent_ts(&self) -> Option<Nanos> {
        (self.sent != NEVER_SENT).then_some(self.sent)
    }
}

/// How a reconstructed journey ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Left the exit NF at this time.
    Delivered(Nanos),
    /// Inferred dropped at this NF's ring around this (arrival) time.
    InferredDrop {
        /// Where.
        nf: NfId,
        /// Arrival time of the dropped packet.
        at: Nanos,
    },
    /// Fate not visible in the records (run cut off, or matching failed).
    Unresolved,
}

/// One packet's reconstructed journey. Flow and emission time come from the
/// source record; everything else from matched NF records.
///
/// The hops themselves live in the shared arena [`Reconstruction::hops`]:
/// one trace is a contiguous range there, so reconstructing ~10^5 traces
/// costs one `Vec` instead of one per trace. Use
/// [`Reconstruction::hops_of`] to read them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconstructedTrace {
    /// The flow (from the source's flow info).
    pub flow: FiveTuple,
    /// Source emission time.
    pub emitted_at: Nanos,
    /// This trace's hop range in the shared arena, in path order.
    pub hops: Range<u32>,
    /// Terminal outcome.
    pub outcome: TraceOutcome,
}

impl ReconstructedTrace {
    /// Number of hops reconstructed for this trace.
    pub fn hop_count(&self) -> usize {
        (self.hops.end - self.hops.start) as usize
    }

    /// End-to-end latency for delivered packets. Saturates at zero:
    /// residual clock skew on multi-server bundles can leave a corrected
    /// delivery timestamp slightly before the emission.
    pub fn latency(&self) -> Option<Nanos> {
        match self.outcome {
            TraceOutcome::Delivered(at) => Some(at.saturating_sub(self.emitted_at)),
            _ => None,
        }
    }

    /// True if inferred dropped.
    pub fn dropped(&self) -> bool {
        matches!(self.outcome, TraceOutcome::InferredDrop { .. })
    }
}

/// Reconstruction quality report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReconstructionReport {
    /// Packets the source offered.
    pub total: u64,
    /// Traces ending in delivery.
    pub delivered: u64,
    /// Traces ending in an inferred drop.
    pub inferred_drops: u64,
    /// Traces with unresolved fate.
    pub unresolved: u64,
    /// rx entries that could not be attributed to any upstream send.
    pub unmatched_rx: u64,
    /// IPID collisions that needed lookahead.
    pub ambiguities: u64,
    /// Delivered traces whose exit flow record disagrees with the source
    /// flow (§5's correctness check). In practice these are pairs of
    /// same-IPID packets read in the *same* batch: their records are
    /// byte-identical except for the exit five-tuple, so the matcher can
    /// swap their identities — the §7-acknowledged limit of IPID-based
    /// reconstruction. Timing analysis is unaffected (the swapped packets
    /// share timestamps); rates stay well under 0.1%.
    pub flow_mismatches: u64,
}

/// Reconstruction configuration (wraps [`MatchConfig`]).
#[derive(Debug, Clone, Default)]
pub struct ReconstructionConfig {
    /// Cross-NF matching parameters.
    pub matching: MatchConfig,
}

/// Interned upstream-path prefixes, shared by every trace.
///
/// The propagation analysis (§4.2) groups PreSet packets by the node
/// sequence they traversed to reach the victim NF. Paths through a DAG are
/// few but packets are many, so the sequences are interned once here as a
/// trie: id `ROOT` is `[Source]`, and every other id appends one node to its
/// parent's path. A path is then a single `u32` — cheap to store per hop,
/// cheap to hash as a group key, and expandable back to the node list when a
/// group actually needs it.
#[derive(Debug, PartialEq, Eq)]
pub struct PathTrie {
    /// `nodes[id] = (parent, last node)`; the root is its own parent.
    nodes: Vec<(u32, NodeId)>,
    children: HashMap<(u32, NodeId), u32>,
}

/// The trie id of the bare `[Source]` path.
pub const PATH_ROOT: u32 = 0;

impl PathTrie {
    /// A trie holding only the root `[Source]` path.
    pub fn new() -> Self {
        Self {
            nodes: vec![(PATH_ROOT, NodeId::Source)],
            children: HashMap::new(),
        }
    }

    /// The id of `parent`'s path extended by `node`, interning it if new.
    pub fn child(&mut self, parent: u32, node: NodeId) -> u32 {
        if let Some(&id) = self.children.get(&(parent, node)) {
            return id;
        }
        // 2^32 distinct paths would mean a >4-billion-node topology; if the
        // interner ever saturates, collapse to the root rather than panic
        // (the path becomes imprecise, the trace stays usable).
        let Ok(id) = u32::try_from(self.nodes.len()) else {
            return PATH_ROOT;
        };
        self.nodes.push((parent, node));
        self.children.insert((parent, node), id);
        id
    }

    /// Number of nodes on the path `id` (the root has length 1).
    pub fn path_len(&self, id: u32) -> usize {
        let mut n = 1;
        let mut cur = id;
        while cur != PATH_ROOT {
            cur = self.nodes[cur as usize].0;
            n += 1;
        }
        n
    }

    /// The full node sequence of path `id`, root first.
    pub fn path(&self, id: u32) -> Vec<NodeId> {
        let mut v = Vec::with_capacity(self.path_len(id));
        let mut cur = id;
        loop {
            v.push(self.nodes[cur as usize].1);
            if cur == PATH_ROOT {
                break;
            }
            cur = self.nodes[cur as usize].0;
        }
        v.reverse();
        v
    }

    /// Number of interned paths (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always `false`: the trie is constructed holding the root `[Source]`
    /// path and nothing ever removes it.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Interns every hop-prefix path of `traces` (whose hops live in the
    /// arena `hops`). Returns the trie and, aligned with the arena, per hop
    /// the id of the node sequence *strictly before* that hop
    /// (`[Source, hops[0].nf, .., hops[h-1].nf]`) — exactly the group key
    /// the §4.2 timespan analysis needs for a victim at hop `h`.
    pub fn index(traces: &[ReconstructedTrace], hops: &[TraceHop]) -> (PathTrie, Vec<u32>) {
        let mut trie = PathTrie::new();
        let mut hop_path_ids = vec![PATH_ROOT; hops.len()];
        for tr in traces {
            let mut cur = PATH_ROOT;
            for i in tr.hops.start..tr.hops.end {
                hop_path_ids[i as usize] = cur;
                cur = trie.child(cur, NodeId::Nf(hops[i as usize].nf));
            }
        }
        (trie, hop_path_ids)
    }
}

impl Default for PathTrie {
    fn default() -> Self {
        Self::new()
    }
}

/// Packed back-reference from one rx entry to its `(trace, hop)` — 8 bytes
/// instead of 24 for `Option<(usize, usize)>`, so the per-NF `rx_to_trace`
/// arrays stay cache-resident. Hop indexes are bounded by the path length
/// (a DAG walk, well under 2^16); trace indexes get the remaining 48 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxTraceRef(u64);

impl RxTraceRef {
    /// The rx entry was never attributed to a trace.
    pub const NONE: Self = Self(u64::MAX);
    const HOP_BITS: u32 = 16;

    pub(crate) fn new(trace: usize, hop: usize) -> Self {
        debug_assert!(hop < (1 << Self::HOP_BITS));
        debug_assert!((trace as u64) < (u64::MAX >> Self::HOP_BITS));
        Self(((trace as u64) << Self::HOP_BITS) | hop as u64)
    }

    /// Unpacks to `(trace index, hop index)`; `None` when unattributed.
    pub fn get(self) -> Option<(usize, usize)> {
        if self == Self::NONE {
            None
        } else {
            Some((
                (self.0 >> Self::HOP_BITS) as usize,
                (self.0 & ((1 << Self::HOP_BITS) - 1)) as usize,
            ))
        }
    }
}

/// The full reconstruction: traces plus indexes for the diagnosis layer.
/// The offline and the streaming reconstructor return the same value for the
/// same records.
#[derive(Debug, PartialEq, Eq)]
pub struct Reconstruction {
    /// One trace per source emission, in emission order.
    pub traces: Vec<ReconstructedTrace>,
    /// The shared hop arena: `traces[t].hops` is a range in here (traces
    /// appear in emission order, so the ranges tile the arena).
    pub hops: Vec<TraceHop>,
    /// Quality report.
    pub report: ReconstructionReport,
    /// For every NF: its read batches in time order (the batch-size drain
    /// signal the timelines are built from).
    pub reads: Vec<Vec<RxBatchInfo>>,
    /// For every NF: rx flat index → packed (trace, hop) back-reference.
    pub rx_to_trace: Vec<Vec<RxTraceRef>>,
    /// Interned upstream-path prefixes (see [`PathTrie`]).
    pub paths: PathTrie,
    /// Per arena hop (aligned with `hops`): the interned id of the path
    /// prefix strictly before that hop. `paths.path(id)` is the node
    /// sequence `[Source, ..]` the packet took to arrive there.
    pub hop_path_ids: Vec<u32>,
}

impl Reconstruction {
    /// The hops of trace `t`, in path order.
    pub fn hops_of(&self, t: usize) -> &[TraceHop] {
        let r = &self.traces[t].hops;
        &self.hops[r.start as usize..r.end as usize]
    }

    /// The path-prefix ids of trace `t`'s hops (see `hop_path_ids`).
    pub fn hop_path_ids_of(&self, t: usize) -> &[u32] {
        let r = &self.traces[t].hops;
        &self.hop_path_ids[r.start as usize..r.end as usize]
    }

    /// The trace and hop a packet instance belongs to.
    pub fn trace_of(&self, pref: PacketRef) -> Option<(usize, usize)> {
        self.rx_to_trace[pref.nf.0 as usize][pref.rx_idx].get()
    }

    /// The flow of a packet instance, if its trace was resolved.
    pub fn flow_of(&self, pref: PacketRef) -> Option<FiveTuple> {
        self.trace_of(pref).map(|(t, _)| self.traces[t].flow)
    }
}

/// Stage 2 of [`reconstruct`]: matches every NF against its upstreams, in
/// NF order.
pub fn match_all(
    streams: &EdgeStreams,
    topology: &Topology,
    cfg: &ReconstructionConfig,
) -> Vec<EdgeMatch> {
    (0..topology.len())
        .map(|nf| match_downstream(streams, topology, NfId(nf as u16), &cfg.matching))
        .collect()
}

/// Stages 3+4 of [`reconstruct`]: walks every source emission through the
/// per-NF match outcomes, assembling traces into the shared hop arena and
/// the flat per-NF `rx_to_trace` back-references in one pass, then interns
/// the path prefixes.
pub fn assemble(
    topology: &Topology,
    bundle: &TraceBundle,
    streams: EdgeStreams,
    matches: &[EdgeMatch],
) -> Reconstruction {
    let mut report = ReconstructionReport {
        total: streams.source.len() as u64,
        ..Default::default()
    };
    for m in matches {
        report.unmatched_rx += m.stats.unmatched_rx;
        report.ambiguities += m.stats.ambiguities;
    }

    // Exit flow records per NF for validation (empty for non-exits).
    let mut exit_flows: Vec<&[msc_collector::FlowRecord]> = vec![&[]; topology.len()];
    for &e in topology.exits() {
        exit_flows[e.0 as usize] = bundle.log(e).flows.as_slice();
    }

    let mut rx_to_trace: Vec<Vec<RxTraceRef>> = streams
        .nfs
        .iter()
        .map(|s| vec![RxTraceRef::NONE; s.rx.len()])
        .collect();

    // Every hop is a matched rx entry, so the total rx count bounds the
    // arena exactly once (no per-trace reallocation).
    let mut hops: Vec<TraceHop> = Vec::with_capacity(streams.nfs.iter().map(|s| s.rx.len()).sum());
    let mut traces = Vec::with_capacity(streams.source.len());
    for (src_idx, s) in streams.source.iter().enumerate() {
        // The arena is sized from the rx counts, which are u32-indexed
        // upstream; saturate rather than panic if that ever changes.
        let hop_start = u32::try_from(hops.len()).unwrap_or(u32::MAX);
        let trace_outcome;
        let mut node = NodeId::Source;
        let mut pos = streams.source_edge_pos[src_idx] as usize;
        let mut down = s.entry;
        let mut arrival = s.ts;
        loop {
            let outcome = matches[down.0 as usize]
                .outcome(node)
                .and_then(|v| v.get(pos))
                .unwrap_or(MatchOutcome::Unresolved);
            match outcome {
                MatchOutcome::InferredDrop => {
                    trace_outcome = TraceOutcome::InferredDrop {
                        nf: down,
                        at: arrival,
                    };
                    break;
                }
                MatchOutcome::Unresolved => {
                    trace_outcome = TraceOutcome::Unresolved;
                    break;
                }
                MatchOutcome::Matched(rx) => {
                    let rx_idx = rx as usize;
                    let nf_streams = &streams.nfs[down.0 as usize];
                    let read_ts = nf_streams.rx[rx_idx].ts;
                    rx_to_trace[down.0 as usize][rx_idx] =
                        RxTraceRef::new(src_idx, hops.len() - hop_start as usize);
                    // No tx entry: read but never sent, the run ended
                    // inside this NF.
                    let tx = nf_streams.tx.get(rx_idx);
                    hops.push(TraceHop::new(down, arrival, read_ts, tx.map(|t| t.ts), rx));
                    let Some(tx) = tx else {
                        trace_outcome = TraceOutcome::Unresolved;
                        break;
                    };
                    match tx.to {
                        None => {
                            trace_outcome = TraceOutcome::Delivered(tx.ts);
                            // Validate against the exit flow record.
                            let exit_pos = streams.tx_edge_pos[down.0 as usize][rx_idx] as usize;
                            if let Some(fr) = exit_flows[down.0 as usize].get(exit_pos) {
                                if fr.flow != s.flow {
                                    report.flow_mismatches += 1;
                                }
                            }
                            break;
                        }
                        Some(d2) => {
                            node = NodeId::Nf(down);
                            pos = streams.tx_edge_pos[down.0 as usize][rx_idx] as usize;
                            arrival = tx.ts;
                            down = d2;
                        }
                    }
                }
            }
        }
        match trace_outcome {
            TraceOutcome::Delivered(_) => report.delivered += 1,
            TraceOutcome::InferredDrop { .. } => report.inferred_drops += 1,
            TraceOutcome::Unresolved => report.unresolved += 1,
        }
        traces.push(ReconstructedTrace {
            flow: s.flow,
            emitted_at: s.ts,
            // lint: lossy-cast-ok(the hop arena is u32-indexed by design; 4B hops is ~100x the largest experiment)
            hops: hop_start..hops.len() as u32,
            outcome: trace_outcome,
        });
    }

    // Only the read batches outlive the walk: let the per-packet streams
    // go before the path index is built on top of the arena.
    let reads = streams.nfs.into_iter().map(|s| s.rx_batches).collect();
    let (paths, hop_path_ids) = PathTrie::index(&traces, &hops);
    Reconstruction {
        traces,
        hops,
        report,
        reads,
        rx_to_trace,
        paths,
        hop_path_ids,
    }
}

/// Runs matching for every NF and assembles per-packet traces.
pub fn reconstruct(
    topology: &Topology,
    bundle: &TraceBundle,
    cfg: &ReconstructionConfig,
) -> Reconstruction {
    let streams = EdgeStreams::build(topology, bundle);
    let matches = match_all(&streams, topology, cfg);
    assemble(topology, bundle, streams, &matches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_collector::{Collector, CollectorConfig, PacketMeta};
    use nf_types::{NfKind, Proto};

    fn chain() -> Topology {
        let mut b = Topology::builder();
        let a = b.add_nf(NfKind::Nat, "nat1");
        let v = b.add_nf(NfKind::Vpn, "vpn1");
        b.add_entry(a);
        b.add_edge(a, v);
        b.build().unwrap()
    }

    fn meta(ipid: u16, sport: u16) -> PacketMeta {
        PacketMeta {
            ipid,
            flow: FiveTuple::new(0x0a000001, 0x14000001, sport, 80, Proto::TCP),
        }
    }

    #[test]
    fn delivered_trace_assembles_full_journey() {
        let t = chain();
        let mut c = Collector::new(&t, CollectorConfig::default());
        let m = meta(1, 1000);
        c.record_source(100, &m);
        c.record_rx(NfId(0), 150, &[m]);
        c.record_tx(NfId(0), 180, Some(NfId(1)), &[m]);
        c.record_rx(NfId(1), 200, &[m]);
        c.record_tx(NfId(1), 250, None, &[m]);
        let r = reconstruct(&t, &c.into_bundle(), &ReconstructionConfig::default());
        assert_eq!(r.traces.len(), 1);
        let tr = &r.traces[0];
        assert_eq!(tr.outcome, TraceOutcome::Delivered(250));
        assert_eq!(tr.latency(), Some(150));
        let hops = r.hops_of(0);
        assert_eq!(tr.hop_count(), 2);
        assert_eq!(hops.len(), 2);
        assert_eq!(hops[0].nf, NfId(0));
        assert_eq!(hops[0].arrival_ts, 100);
        assert_eq!(hops[0].read_ts, 150);
        assert_eq!(hops[0].sent_ts(), Some(180));
        assert_eq!(hops[1].arrival_ts, 180);
        assert_eq!(r.report.delivered, 1);
        assert_eq!(r.report.flow_mismatches, 0);
    }

    #[test]
    fn drop_at_second_nf_is_inferred() {
        let t = chain();
        let mut c = Collector::new(&t, CollectorConfig::default());
        let m1 = meta(1, 1000);
        let m2 = meta(2, 1001);
        c.record_source(100, &m1);
        c.record_source(110, &m2);
        c.record_rx(NfId(0), 150, &[m1, m2]);
        c.record_tx(NfId(0), 180, Some(NfId(1)), &[m1, m2]);
        // VPN only ever reads packet 2: packet 1 dropped at its ring.
        c.record_rx(NfId(1), 200, &[m2]);
        c.record_tx(NfId(1), 250, None, &[m2]);
        let r = reconstruct(&t, &c.into_bundle(), &ReconstructionConfig::default());
        assert_eq!(
            r.traces[0].outcome,
            TraceOutcome::InferredDrop {
                nf: NfId(1),
                at: 180
            }
        );
        assert_eq!(r.hops_of(0).len(), 1, "NAT hop still reconstructed");
        assert_eq!(r.traces[1].outcome, TraceOutcome::Delivered(250));
        assert_eq!(r.report.inferred_drops, 1);
    }

    #[test]
    fn unresolved_when_run_cut_off() {
        let t = chain();
        let mut c = Collector::new(&t, CollectorConfig::default());
        let m = meta(1, 1000);
        c.record_source(100, &m);
        c.record_rx(NfId(0), 150, &[m]);
        // NAT never sent it (in-flight at cutoff).
        let r = reconstruct(&t, &c.into_bundle(), &ReconstructionConfig::default());
        assert_eq!(r.traces[0].outcome, TraceOutcome::Unresolved);
        assert_eq!(r.hops_of(0).len(), 1);
        assert_eq!(r.hops_of(0)[0].sent_ts(), None);
    }

    #[test]
    fn rx_to_trace_links_packet_instances() {
        let t = chain();
        let mut c = Collector::new(&t, CollectorConfig::default());
        let m = meta(1, 1000);
        c.record_source(100, &m);
        c.record_rx(NfId(0), 150, &[m]);
        c.record_tx(NfId(0), 180, Some(NfId(1)), &[m]);
        c.record_rx(NfId(1), 200, &[m]);
        c.record_tx(NfId(1), 250, None, &[m]);
        let r = reconstruct(&t, &c.into_bundle(), &ReconstructionConfig::default());
        let pref = PacketRef {
            nf: NfId(1),
            rx_idx: 0,
        };
        assert_eq!(r.trace_of(pref), Some((0, 1)));
        assert_eq!(r.flow_of(pref), Some(r.traces[0].flow));
    }

    #[test]
    fn path_trie_interns_hop_prefixes() {
        let t = chain();
        let mut c = Collector::new(&t, CollectorConfig::default());
        let m = meta(1, 1000);
        c.record_source(100, &m);
        c.record_rx(NfId(0), 150, &[m]);
        c.record_tx(NfId(0), 180, Some(NfId(1)), &[m]);
        c.record_rx(NfId(1), 200, &[m]);
        c.record_tx(NfId(1), 250, None, &[m]);
        let r = reconstruct(&t, &c.into_bundle(), &ReconstructionConfig::default());
        // Hop 0 (at the NAT) was reached via [Source]; hop 1 (at the VPN)
        // via [Source, nat1].
        let ids = r.hop_path_ids_of(0);
        assert_eq!(ids.len(), 2);
        assert_eq!(ids[0], PATH_ROOT);
        assert_eq!(r.paths.path(ids[0]), vec![NodeId::Source]);
        assert_eq!(
            r.paths.path(ids[1]),
            vec![NodeId::Source, NodeId::Nf(NfId(0))]
        );
        // A second packet down the same chain shares the interned ids.
        let mut c2 = Collector::new(&t, CollectorConfig::default());
        for (i, mm) in [meta(1, 1000), meta(2, 1001)].iter().enumerate() {
            c2.record_source(100 + i as u64, mm);
        }
        let ms = [meta(1, 1000), meta(2, 1001)];
        c2.record_rx(NfId(0), 150, &ms);
        c2.record_tx(NfId(0), 180, Some(NfId(1)), &ms);
        c2.record_rx(NfId(1), 200, &ms);
        c2.record_tx(NfId(1), 250, None, &ms);
        let r2 = reconstruct(&t, &c2.into_bundle(), &ReconstructionConfig::default());
        assert_eq!(r2.hop_path_ids_of(0), r2.hop_path_ids_of(1));
        // Root + one path per hop depth.
        assert_eq!(r2.paths.len(), 3);
    }

    #[test]
    fn path_trie_default_matches_new_and_is_never_empty() {
        let d = PathTrie::default();
        let n = PathTrie::new();
        assert_eq!(d.len(), n.len());
        assert_eq!(d.len(), 1);
        assert!(!d.is_empty(), "the root [Source] path always exists");
        assert!(!n.is_empty());
        assert_eq!(d.path(PATH_ROOT), n.path(PATH_ROOT));
        let mut t = PathTrie::new();
        let id = t.child(PATH_ROOT, NodeId::Nf(NfId(0)));
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
        assert_eq!(t.path(id), vec![NodeId::Source, NodeId::Nf(NfId(0))]);
    }

    #[test]
    fn rx_trace_ref_packs_and_unpacks() {
        assert_eq!(RxTraceRef::NONE.get(), None);
        for &(t, h) in &[(0usize, 0usize), (1, 15), (164_359, 12), (1 << 30, 65_535)] {
            assert_eq!(RxTraceRef::new(t, h).get(), Some((t, h)));
        }
    }

    #[test]
    fn ipid_collision_across_hosts_resolved() {
        // Two different source hosts use the same IPID sequence (per-host
        // counters): flows with equal ipids must still reconstruct right.
        let t = chain();
        let mut c = Collector::new(&t, CollectorConfig::default());
        let fa = FiveTuple::new(0x0a000001, 0x14000001, 1000, 80, Proto::TCP);
        let fb = FiveTuple::new(0x0b000002, 0x14000001, 2000, 80, Proto::TCP);
        let ma = PacketMeta { ipid: 0, flow: fa };
        let mb = PacketMeta { ipid: 0, flow: fb };
        c.record_source(100, &ma);
        c.record_source(105, &mb);
        c.record_rx(NfId(0), 150, &[ma, mb]);
        c.record_tx(NfId(0), 180, Some(NfId(1)), &[ma, mb]);
        c.record_rx(NfId(1), 200, &[ma, mb]);
        c.record_tx(NfId(1), 250, None, &[ma, mb]);
        let r = reconstruct(&t, &c.into_bundle(), &ReconstructionConfig::default());
        // Order channel: first-in is first; flows must not be swapped.
        assert_eq!(r.report.flow_mismatches, 0);
        assert_eq!(r.traces[0].flow, fa);
        assert_eq!(r.traces[1].flow, fb);
        assert_eq!(r.report.delivered, 2);
    }
}
