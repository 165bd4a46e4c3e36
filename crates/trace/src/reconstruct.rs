//! End-to-end trace assembly: source emissions → per-packet journeys.
//!
//! The types every reconstructor returns ([`Reconstruction`] and its
//! parts), and the whole-run reconstructor's last two stages. That
//! reconstructor is [`EdgeStreams::build`] → [`match_all`] → [`assemble`]
//! over a whole run in memory; it has no product caller: the equivalence
//! suites call its stages one by one as the independent oracle of the
//! windowed engine ([`crate::reconstruct()`]), and so does the benchmark
//! harness.

use crate::matching::{edge_indexes, match_nf, EdgeMatch, MatchConfig, MatchOutcome};
use crate::streams::{EdgeStreams, RxBatchInfo, TxNext};
use msc_collector::TraceBundle;
use nf_types::{FiveTuple, Nanos, NfId, NodeId, Topology};
use std::ops::Range;

/// One reconstructed hop: 24 bytes, fields ordered widest first.
///
/// It holds no arrival time: a hop's arrival is the previous hop's send
/// (link delay is not observable and treated as zero, as in the paper), or
/// the emission for the first hop — [`Reconstruction::hops_with_arrival`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHop {
    /// When the NF read it.
    pub read_ts: Nanos,
    /// When the NF sent it on; [`NEVER_SENT`] if the run ended mid-NF.
    sent: Nanos,
    /// The NF.
    pub nf: NfId,
}

/// `TraceHop::sent` of a packet read but never sent on. Not a send time a
/// recorder can produce: it is the last nanosecond of a 584-year clock.
const NEVER_SENT: Nanos = Nanos::MAX;

const _: () = assert!(std::mem::size_of::<TraceHop>() == 24);

impl TraceHop {
    /// A hop at `nf`; `sent_ts` is `None` when the run ended mid-NF.
    pub fn new(nf: NfId, read_ts: Nanos, sent_ts: Option<Nanos>) -> Self {
        Self {
            read_ts,
            sent: sent_ts.unwrap_or(NEVER_SENT),
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
/// trie: id `ROOT` is `[Source]`, and every other id appends one NF to its
/// parent's path. A path is then a single `u32` — one per trace
/// ([`Reconstruction::path_ids`]), cheap to hash as a group key, and
/// expandable back to the node list when a group actually needs it.
#[derive(Debug, PartialEq, Eq)]
pub struct PathTrie {
    /// `nodes[id] = (parent, last node)`; the root is its own parent.
    nodes: Vec<(u32, NodeId)>,
    /// `children[id * n_nfs + nf]`: the id of path `id` extended by `nf`,
    /// [`NO_CHILD`] until interned — a dense table, so interning a hop is
    /// an array load, not a hash.
    children: Vec<u32>,
    n_nfs: usize,
}

/// The trie id of the bare `[Source]` path.
pub const PATH_ROOT: u32 = 0;

/// `PathTrie::children` slot of an extension not interned yet (no path is
/// its own extension's child: the root is never a child).
const NO_CHILD: u32 = PATH_ROOT;

impl PathTrie {
    /// A trie over a topology of `n_nfs` NFs, holding only the root
    /// `[Source]` path.
    pub fn new(n_nfs: usize) -> Self {
        Self {
            nodes: vec![(PATH_ROOT, NodeId::Source)],
            children: vec![NO_CHILD; n_nfs],
            n_nfs,
        }
    }

    /// The id of `parent`'s path extended by `nf`, interning it if new.
    ///
    /// # Panics
    /// Panics if `nf` is not one of the trie's `n_nfs` NFs.
    pub fn child(&mut self, parent: u32, nf: NfId) -> u32 {
        assert!((nf.0 as usize) < self.n_nfs, "{nf:?} outside the trie");
        let slot = parent as usize * self.n_nfs + nf.0 as usize;
        if self.children[slot] != NO_CHILD {
            return self.children[slot];
        }
        // 2^32 distinct paths would mean a >4-billion-node topology; if the
        // interner ever saturates, collapse to the root rather than panic
        // (the path becomes imprecise, the trace stays usable).
        let Ok(id) = u32::try_from(self.nodes.len()) else {
            return PATH_ROOT;
        };
        self.nodes.push((parent, NodeId::Nf(nf)));
        self.children
            .resize(self.nodes.len() * self.n_nfs, NO_CHILD);
        self.children[slot] = id;
        id
    }

    /// The id of path `id` without its last node (the root is its own
    /// parent).
    pub fn parent(&self, id: u32) -> u32 {
        self.nodes[id as usize].0
    }

    /// Number of nodes on the path `id` (the root has length 1).
    pub fn path_len(&self, id: u32) -> usize {
        let mut n = 1;
        let mut cur = id;
        while cur != PATH_ROOT {
            cur = self.parent(cur);
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
            cur = self.parent(cur);
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

    /// Interns the path of every trace (whose hops live in the arena
    /// `hops`), hop by hop in trace order — the order [`assemble`]'s walk
    /// interns in. Returns the trie and one id per trace: its whole path
    /// `[Source, hops[0].nf, .., hops[n-1].nf]`.
    pub fn intern_traces(
        traces: &[ReconstructedTrace],
        hops: &[TraceHop],
        n_nfs: usize,
    ) -> (PathTrie, Vec<u32>) {
        let mut trie = PathTrie::new(n_nfs);
        let path_ids = traces
            .iter()
            .map(|tr| {
                hops[tr.hops.start as usize..tr.hops.end as usize]
                    .iter()
                    .fold(PATH_ROOT, |path, h| trie.child(path, h.nf))
            })
            .collect();
        (trie, path_ids)
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
    /// signal the timelines are built from; nothing else reads them, so a
    /// caller may free them once the timelines exist).
    pub reads: Vec<Vec<RxBatchInfo>>,
    /// Interned upstream-path prefixes (see [`PathTrie`]).
    pub paths: PathTrie,
    /// Per trace (aligned with `traces`): the interned id of its whole
    /// path, `[Source, ..]` plus the NF of every hop. The prefix a packet
    /// took to *reach* a hop is [`Self::path_before`].
    pub path_ids: Vec<u32>,
}

impl Reconstruction {
    /// The hops of trace `t`, in path order.
    pub fn hops_of(&self, t: usize) -> &[TraceHop] {
        let r = &self.traces[t].hops;
        &self.hops[r.start as usize..r.end as usize]
    }

    /// The hops of trace `t`, in path order, each with the time it arrived
    /// at its NF: the emission for the first hop, the previous hop's send
    /// after that.
    pub fn hops_with_arrival(&self, t: usize) -> impl Iterator<Item = (Nanos, &TraceHop)> {
        let mut arrival = self.traces[t].emitted_at;
        // Only the last hop can be unsent, and nothing arrives after it.
        self.hops_of(t)
            .iter()
            .map(move |h| (std::mem::replace(&mut arrival, h.sent), h))
    }

    /// The interned id of the node sequence trace `t` took strictly before
    /// its hop `hop` (`[Source, hops[0].nf, .., hops[hop-1].nf]`) — exactly
    /// the group key the §4.2 timespan analysis needs for a victim there.
    /// `hop` may be the hop count (the whole path: where a dropped packet
    /// arrived). Walks one parent per later hop, at most the DAG's depth.
    pub fn path_before(&self, t: usize, hop: usize) -> u32 {
        let later = self.traces[t].hop_count().saturating_sub(hop);
        (0..later).fold(self.path_ids[t], |path, _| self.paths.parent(path))
    }
}

/// Stage 2 of the whole-run reconstructor: matches every NF against its
/// upstreams, in NF order, over one set of index tables sized to the widest
/// NF.
pub fn match_all(
    streams: &EdgeStreams,
    topology: &Topology,
    cfg: &ReconstructionConfig,
) -> Vec<EdgeMatch> {
    let mut index = edge_indexes(streams.fan_in());
    (0..topology.len())
        .map(|nf| match_nf(streams, NfId(nf as u16), &cfg.matching, &mut index))
        .collect()
}

/// Stages 3+4 of the whole-run reconstructor: walks every source emission
/// through the per-NF match outcomes, assembling traces into the shared hop
/// arena and interning each trace's path as it goes.
pub fn assemble(
    topology: &Topology,
    bundle: &TraceBundle,
    streams: EdgeStreams,
    matches: &[EdgeMatch],
) -> Reconstruction {
    let mut report = ReconstructionReport {
        total: bundle.source_flows.len() as u64,
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

    // Every hop is a matched rx entry, so the total rx count bounds the
    // arena exactly once (no per-trace reallocation).
    let mut hops: Vec<TraceHop> =
        Vec::with_capacity(streams.nfs.iter().map(|s| s.rx_ts.len()).sum());
    let mut traces = Vec::with_capacity(bundle.source_flows.len());
    let mut paths = PathTrie::new(topology.len());
    let mut path_ids = Vec::with_capacity(bundle.source_flows.len());
    for (src_idx, f) in bundle.source_flows.iter().enumerate() {
        // The arena is sized from the rx counts, which are u32-indexed
        // upstream; saturate rather than panic if that ever changes.
        let hop_start = u32::try_from(hops.len()).unwrap_or(u32::MAX);
        let mut path = PATH_ROOT;
        let mut arrival = f.ts;
        let (mut down, mut at) = streams.source_send(src_idx);
        let trace_outcome = loop {
            let outcome = at
                .and_then(|(slot, pos)| matches[down.0 as usize].outcome_slot(slot)?.get(pos))
                .unwrap_or(MatchOutcome::Unresolved);
            let rx = match outcome {
                MatchOutcome::InferredDrop => {
                    break TraceOutcome::InferredDrop {
                        nf: down,
                        at: arrival,
                    }
                }
                MatchOutcome::Unresolved => break TraceOutcome::Unresolved,
                MatchOutcome::Matched(rx) => rx as usize,
            };
            let read_ts = streams.nfs[down.0 as usize].rx_ts[rx];
            // No tx entry: read but never sent, the run ended inside this
            // NF.
            let tx = streams.tx(down, rx);
            hops.push(TraceHop::new(down, read_ts, tx.map(|t| t.ts)));
            path = paths.child(path, down);
            let Some(tx) = tx else {
                break TraceOutcome::Unresolved;
            };
            match tx.next {
                TxNext::Exit { pos } => {
                    // Validate against the exit flow record.
                    if let Some(fr) = exit_flows[down.0 as usize].get(pos) {
                        if fr.flow != f.flow {
                            report.flow_mismatches += 1;
                        }
                    }
                    break TraceOutcome::Delivered(tx.ts);
                }
                // Nothing downstream is matched against a send off the
                // topology's edges.
                TxNext::Stray => break TraceOutcome::Unresolved,
                TxNext::Edge {
                    down: d2,
                    slot,
                    pos,
                } => {
                    at = Some((slot, pos));
                    arrival = tx.ts;
                    down = d2;
                }
            }
        };
        match trace_outcome {
            TraceOutcome::Delivered(_) => report.delivered += 1,
            TraceOutcome::InferredDrop { .. } => report.inferred_drops += 1,
            TraceOutcome::Unresolved => report.unresolved += 1,
        }
        traces.push(ReconstructedTrace {
            flow: f.flow,
            emitted_at: f.ts,
            // The hop arena is u32-indexed by design: 4B hops is ~100x the largest experiment.
            hops: hop_start..hops.len() as u32,
            outcome: trace_outcome,
        });
        path_ids.push(path);
    }

    // Only the read batches outlive the walk.
    let reads = streams.nfs.into_iter().map(|s| s.rx_batches).collect();
    Reconstruction {
        traces,
        hops,
        report,
        reads,
        paths,
        path_ids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reconstruct;
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
        let r = reconstruct(&t, &c.into_bundle(), &ReconstructionConfig::default())
            .unwrap()
            .0;
        assert_eq!(r.traces.len(), 1);
        let tr = &r.traces[0];
        assert_eq!(tr.outcome, TraceOutcome::Delivered(250));
        assert_eq!(tr.latency(), Some(150));
        let hops = r.hops_of(0);
        assert_eq!(tr.hop_count(), 2);
        assert_eq!(hops.len(), 2);
        assert_eq!(hops[0].nf, NfId(0));
        assert_eq!(hops[0].read_ts, 150);
        assert_eq!(hops[0].sent_ts(), Some(180));
        // Hop 0 arrives at the emission, hop 1 at hop 0's send.
        let arrivals: Vec<Nanos> = r.hops_with_arrival(0).map(|(at, _)| at).collect();
        assert_eq!(arrivals, [100, 180]);
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
        let r = reconstruct(&t, &c.into_bundle(), &ReconstructionConfig::default())
            .unwrap()
            .0;
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
        let r = reconstruct(&t, &c.into_bundle(), &ReconstructionConfig::default())
            .unwrap()
            .0;
        assert_eq!(r.traces[0].outcome, TraceOutcome::Unresolved);
        assert_eq!(r.hops_of(0).len(), 1);
        assert_eq!(r.hops_of(0)[0].sent_ts(), None);
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
        let r = reconstruct(&t, &c.into_bundle(), &ReconstructionConfig::default())
            .unwrap()
            .0;
        // Hop 0 (at the NAT) was reached via [Source]; hop 1 (at the VPN)
        // via [Source, nat1]; the trace's own id is the whole path.
        assert_eq!(r.path_before(0, 0), PATH_ROOT);
        assert_eq!(r.paths.path(PATH_ROOT), vec![NodeId::Source]);
        assert_eq!(
            r.paths.path(r.path_before(0, 1)),
            vec![NodeId::Source, NodeId::Nf(NfId(0))]
        );
        assert_eq!(r.path_before(0, 2), r.path_ids[0]);
        assert_eq!(
            r.paths.path(r.path_ids[0]),
            vec![NodeId::Source, NodeId::Nf(NfId(0)), NodeId::Nf(NfId(1))]
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
        let r2 = reconstruct(&t, &c2.into_bundle(), &ReconstructionConfig::default())
            .unwrap()
            .0;
        assert_eq!(r2.path_ids[0], r2.path_ids[1]);
        // Root + one path per hop depth.
        assert_eq!(r2.paths.len(), 3);
        // The separate pass interns the same trie.
        let (paths, ids) = PathTrie::intern_traces(&r2.traces, &r2.hops, t.len());
        assert_eq!((paths, ids), (r2.paths, r2.path_ids));
    }

    #[test]
    fn path_trie_is_never_empty_and_walks_back_to_the_root() {
        let mut t = PathTrie::new(2);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty(), "the root [Source] path always exists");
        assert_eq!(t.path(PATH_ROOT), vec![NodeId::Source]);
        assert_eq!(t.parent(PATH_ROOT), PATH_ROOT);
        let a = t.child(PATH_ROOT, NfId(0));
        let ab = t.child(a, NfId(1));
        let b = t.child(PATH_ROOT, NfId(1));
        assert_eq!((a, ab, b), (1, 2, 3), "ids in interning order");
        assert_eq!(t.child(a, NfId(1)), ab, "interned once");
        assert_eq!(t.len(), 4);
        assert_eq!(t.parent(ab), a);
        assert_eq!(
            t.path(ab),
            vec![NodeId::Source, NodeId::Nf(NfId(0)), NodeId::Nf(NfId(1))]
        );
        assert_eq!(t.path_len(ab), 3);
    }

    /// A tx record can name any next hop: one the topology has no edge to,
    /// or no NF for. The packet's journey ends there unresolved — with the
    /// hop it did make — instead of indexing a table by a hostile id.
    #[test]
    fn send_to_a_node_outside_the_topology_leaves_the_trace_unresolved() {
        let t = chain();
        for hostile in [NfId(0), NfId(999), NfId(u16::MAX - 1), NfId(u16::MAX)] {
            let mut c = Collector::new(&t, CollectorConfig::default());
            let (m1, m2) = (meta(1, 1000), meta(2, 1001));
            c.record_source(100, &m1);
            c.record_source(110, &m2);
            c.record_rx(NfId(0), 150, &[m1, m2]);
            c.record_tx(NfId(0), 180, Some(hostile), &[m1]);
            c.record_tx(NfId(0), 190, Some(NfId(1)), &[m2]);
            c.record_rx(NfId(1), 200, &[m2]);
            c.record_tx(NfId(1), 250, None, &[m2]);
            let bundle = c.into_bundle();
            // The whole-run stages, spelled out: the oracle of the windowed
            // reconstructor below.
            let streams = EdgeStreams::build(&t, &bundle);
            let matches = match_all(&streams, &t, &ReconstructionConfig::default());
            let r = assemble(&t, &bundle, streams, &matches);
            assert_eq!(r.traces[0].outcome, TraceOutcome::Unresolved, "{hostile:?}");
            assert_eq!(r.hops_of(0).len(), 1);
            assert_eq!(r.hops_of(0)[0].sent_ts(), Some(180));
            assert_eq!(r.traces[1].outcome, TraceOutcome::Delivered(250));
            assert_eq!(r.report.unresolved, 1);
            // The streaming reconstructor agrees.
            let mut w = crate::WindowedReconstructor::new(&t, MatchConfig::default());
            w.ingest(&bundle, 1_000).unwrap();
            assert_eq!(w.finish().0, r, "{hostile:?}");
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
        let r = reconstruct(&t, &c.into_bundle(), &ReconstructionConfig::default())
            .unwrap()
            .0;
        // Order channel: first-in is first; flows must not be swapped.
        assert_eq!(r.report.flow_mismatches, 0);
        assert_eq!(r.traces[0].flow, fa);
        assert_eq!(r.traces[1].flow, fb);
        assert_eq!(r.report.delivered, 2);
    }
}
