//! Windowed trace reconstruction: the streaming counterpart of
//! `EdgeStreams::build → match_all → assemble`.
//!
//! The offline pipeline needs the whole run in memory three times over
//! (bundle, flattened streams, per-edge match tables). This module consumes
//! the run as time-ordered chunks instead and keeps only a *frontier*:
//! undecided rx entries, unconsumed sends, and walks of in-flight packets.
//! Everything behind the frontier is evicted as soon as it is decided, so
//! the reconstruction working set is O(window + in-flight), not O(run).
//!
//! ## Bit-identity
//!
//! The output must equal the offline reconstruction *exactly* — the offline
//! path is the oracle the equivalence suite diffs against. Two observations
//! make that possible:
//!
//! 1. **Matching is per-NF local and prefix-monotone.** The matcher's
//!    decision for rx entry `k` depends only on (a) sends within the timing
//!    window of reads `k..k+lookahead` and (b) the committed cursors, which
//!    are a pure function of decisions `0..k`. Once the watermark `W`
//!    passes `rx[k + lookahead].ts + negative_slack`, every send that could
//!    still arrive has `ts >= W` and fails the timing window for all reads
//!    the decision may consult — so deciding now equals deciding with the
//!    full run in hand. (Single-upstream NFs have no ambiguity and need no
//!    lookahead margin.)
//! 2. **Assembly order is recoverable.** Walks finalize out of emission
//!    order, but traces are committed through a reorder buffer keyed by
//!    source index, so the hop arena, path trie interning, `rx_to_trace`
//!    and report counters are appended in exactly the offline order.
//!
//! What is *not* reproduced is `Reconstruction::streams`: the flattened
//! full-run streams are the very thing streaming avoids holding, so the
//! returned reconstruction carries empty streams and the per-NF timelines
//! are built incrementally (`NfTimelineBuilder`) and returned alongside.

use crate::matching::{MatchConfig, MatchStats};
use crate::reconstruct::{
    PathTrie, ReconstructedTrace, Reconstruction, ReconstructionReport, RxTraceRef, TraceHop,
    TraceOutcome, PATH_ROOT,
};
use crate::streams::{EdgeStreams, RxBatchInfo};
use crate::timeline::{Arrival, ArrivalKind, NfTimelineBuilder, Timelines};
use msc_collector::{BundleChunk, NfLog, TraceBundle};
use nf_types::{FiveTuple, Ipid, Nanos, NfId, NodeId, Topology};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;

/// Errors from streaming ingestion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// A chunk's NF log count does not match the topology.
    TopologyMismatch {
        /// NFs in the topology.
        expected: usize,
        /// NF logs in the chunk.
        got: usize,
    },
    /// A source record's entry NF has no source edge in the topology.
    MissingSourceEdge {
        /// The entry NF.
        nf: NfId,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::TopologyMismatch { expected, got } => {
                write!(f, "chunk has {got} NF logs, topology has {expected} NFs")
            }
            StreamError::MissingSourceEdge { nf } => {
                write!(f, "entry NF {nf:?} has no source edge in the topology")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// What the matcher decided about one edge position.
#[derive(Debug, Clone, Copy)]
enum EdgeDecision {
    /// Matched to the downstream rx entry `rx_idx`, read at `read_ts`.
    Matched { rx_idx: usize, read_ts: Nanos },
    /// Skipped behind a later same-edge match: dropped at the ring.
    Dropped,
}

/// One upstream edge of a downstream NF, holding only unconsumed sends.
///
/// The offline matcher's per-IPID counting-sort index spans the whole run;
/// here the same "first unconsumed position with this IPID" semantics come
/// from per-IPID position deques that are evicted as the committed cursor
/// advances — a recycled 16-bit IPID therefore can never alias a consumed
/// send from an earlier window.
#[derive(Debug, Default)]
struct IncEdge {
    /// Unconsumed sends `(ts, ipid)` from global position `base`.
    entries: VecDeque<(Nanos, Ipid)>,
    /// Global position of `entries.front()`.
    base: usize,
    /// Total sends ingested on this edge (next position to assign).
    total: usize,
    /// Committed cursor: next unconsumed global position.
    cursor: usize,
    /// Unconsumed global positions per IPID, ascending (all `>= cursor`).
    by_ipid: HashMap<Ipid, VecDeque<usize>>,
    /// Decisions not yet consumed by the owning packet's walk.
    outcomes: HashMap<usize, EdgeDecision>,
    /// Walks suspended on an undecided position (trace index; at most one
    /// walk per position since each position is one upstream packet).
    waiters: HashMap<usize, usize>,
    /// Undecided positions whose upstream send was proven dead (no walk
    /// will ever consume their decision); their eventual outcome is
    /// swallowed — and a `Matched` one kills the downstream tx slot too.
    ghosts: HashSet<usize>,
}

impl IncEdge {
    /// Appends a send, returning its global edge position.
    fn push(&mut self, ts: Nanos, ipid: Ipid) -> usize {
        let pos = self.total;
        self.total += 1;
        self.entries.push_back((ts, ipid));
        self.by_ipid.entry(ipid).or_default().push_back(pos);
        pos
    }

    /// Send timestamp of an unconsumed position.
    // hot: incremental matcher timestamp probe
    fn ts_at(&self, pos: usize) -> Nanos {
        self.entries[pos - self.base].0
    }

    /// Timing-channel check, identical to the offline matcher's.
    // hot: incremental matcher window check
    fn in_window(&self, pos: usize, read_ts: Nanos, cfg: &MatchConfig) -> Option<usize> {
        let sent = self.ts_at(pos);
        if sent <= read_ts.saturating_add(cfg.negative_slack_ns)
            && read_ts.saturating_sub(sent) <= cfg.delay_bound_ns
        {
            Some(pos)
        } else {
            None
        }
    }

    /// First unconsumed position with `ipid`, window-checked. A stale first
    /// entry (outside the window) blocks, exactly as offline.
    // hot: incremental matcher candidate scan
    fn candidate(&self, ipid: Ipid, read_ts: Nanos, cfg: &MatchConfig) -> Option<usize> {
        let &pos = self.by_ipid.get(&ipid)?.front()?;
        self.in_window(pos, read_ts, cfg)
    }

    /// Same from a speculative cursor `>= self.cursor` (lookahead playout).
    // hot: incremental batch candidate probe
    fn candidate_from(
        &self,
        cursor: usize,
        ipid: Ipid,
        read_ts: Nanos,
        cfg: &MatchConfig,
    ) -> Option<usize> {
        let run = self.by_ipid.get(&ipid)?;
        let i = run.partition_point(|&p| p < cursor);
        let &pos = run.get(i)?;
        self.in_window(pos, read_ts, cfg)
    }

    /// Drops everything behind the committed cursor. Each evicted position
    /// is removed from the front of its IPID deque (fronts are the lowest
    /// unconsumed positions by construction).
    fn evict(&mut self) {
        while self.base < self.cursor {
            let Some((_, ipid)) = self.entries.pop_front() else {
                break;
            };
            if let Some(run) = self.by_ipid.get_mut(&ipid) {
                run.pop_front();
                if run.is_empty() {
                    self.by_ipid.remove(&ipid);
                }
            }
            self.base += 1;
        }
    }

    /// Bytes held by the edge frontier (approximate, for accounting).
    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.entries.capacity() * size_of::<(Nanos, Ipid)>()
            + self.by_ipid.len() * (size_of::<Ipid>() + size_of::<VecDeque<usize>>() + 16)
            // lint: order-insensitive(commutative sum over capacities)
            + self.by_ipid.values().map(|v| v.capacity() * 8).sum::<usize>()
            + self.outcomes.len() * 48
            + self.waiters.len() * 32
            + self.ghosts.len() * 16
    }
}

/// One undecided rx entry.
#[derive(Debug, Clone, Copy)]
struct RxPend {
    ts: Nanos,
    ipid: Ipid,
}

/// One unconsumed tx entry.
#[derive(Debug, Clone, Copy)]
struct TxSlot {
    ts: Nanos,
    to: Option<NfId>,
    /// Position within its edge stream (or exit/orphan counter).
    pos_within: usize,
    consumed: bool,
}

/// Per-NF streaming state.
#[derive(Debug)]
struct NfState {
    /// Upstream edges in slot order (`Topology::upstream_nodes` order).
    edges: Vec<IncEdge>,
    /// Undecided rx entries (the matching frontier).
    rx_pending: VecDeque<RxPend>,
    /// Flat rx index of `rx_pending.front()`.
    rx_decided: usize,
    /// Total rx entries ingested.
    rx_total: usize,
    /// Unconsumed tx entries from flat index `tx_base`.
    tx: VecDeque<TxSlot>,
    tx_base: usize,
    tx_total: usize,
    /// Walks waiting for a tx entry not yet ingested: rx/tx index → trace.
    tx_waiters: BTreeMap<usize, usize>,
    /// Matched-rx indexes proven ownerless whose tx entry is not ingested
    /// yet; the slot is dead on arrival.
    dead_rx: BTreeSet<usize>,
    /// Unconsumed exit flow records from exit position `flows_base`.
    flows: VecDeque<FiveTuple>,
    flows_base: usize,
    /// Exit sends seen so far (`to == None` position counter).
    exit_count: usize,
    /// Per-target positions of sends to NFs that are not topology edges.
    orphans: Vec<usize>,
    /// Whether exit-flow validation applies (topology exit).
    is_exit: bool,
    stats: MatchStats,
}

impl NfState {
    /// Evicts consumed tx fronts, releasing matching exit flow records.
    fn evict_tx(&mut self) {
        while let Some(front) = self.tx.front() {
            if !front.consumed {
                break;
            }
            let slot = self.tx.pop_front();
            self.tx_base += 1;
            if let Some(TxSlot { to: None, .. }) = slot {
                if self.flows.pop_front().is_some() {
                    self.flows_base += 1;
                }
            }
        }
    }

    /// The exit flow recorded for exit position `pw`, if present.
    fn flow_at(&self, pw: usize) -> Option<FiveTuple> {
        pw.checked_sub(self.flows_base)
            .and_then(|i| self.flows.get(i))
            .copied()
    }
}

/// Where a suspended walk stands.
#[derive(Debug, Clone, Copy)]
enum WalkState {
    /// Waiting on the match decision for edge position `pos` into `down`.
    AtEdge {
        down: NfId,
        node: NodeId,
        pos: usize,
        arrival: Nanos,
    },
    /// Matched to rx entry `rx_idx` of `down`; needs the tx entry.
    AtTx {
        down: NfId,
        rx_idx: usize,
        read_ts: Nanos,
        arrival: Nanos,
    },
}

/// One in-flight packet's partially assembled trace.
#[derive(Debug)]
struct Walk {
    trace: usize,
    flow: FiveTuple,
    emitted: Nanos,
    hops: Vec<TraceHop>,
    state: WalkState,
}

/// A trace whose walk finished, parked until its emission turn.
#[derive(Debug)]
struct Finished {
    flow: FiveTuple,
    emitted: Nanos,
    hops: Vec<TraceHop>,
    outcome: TraceOutcome,
}

/// Greedy lookahead alignment score over the undecided rx tail — the
/// streaming twin of the offline `lookahead_score` (the tail here *is*
/// `rx[r_idx + 1..]`, since the current entry was already popped).
// hot: incremental ambiguity playout
fn lookahead_score(
    edges: &[IncEdge],
    cursors: &mut [usize],
    pending: &VecDeque<RxPend>,
    depth: usize,
    cfg: &MatchConfig,
) -> usize {
    let mut score = 0;
    for r in pending.iter().take(depth) {
        let mut best: Option<(Nanos, usize, usize)> = None; // (ts, edge, pos)
        for (e_idx, e) in edges.iter().enumerate() {
            if let Some(pos) = e.candidate_from(cursors[e_idx], r.ipid, r.ts, cfg) {
                let key = (e.ts_at(pos), e_idx, pos);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        if let Some((_, e_idx, pos)) = best {
            score += 1;
            cursors[e_idx] = pos + 1;
        }
    }
    score
}

/// The incremental reconstructor. Feed time-ordered chunks with
/// [`Self::ingest`], then [`Self::finish`] for the reconstruction and
/// timelines — bit-identical to the offline pipeline over the concatenated
/// chunks (minus `Reconstruction::streams`, which stays empty).
#[derive(Debug)]
pub struct WindowedReconstructor {
    topo: Topology,
    cfg: MatchConfig,
    nfs: Vec<NfState>,
    /// `upstreams[d]` in slot order; `out_slot[u][d]` = slot of NF `u` on
    /// downstream `d`; `src_slot[d]` = slot of the source on `d`.
    upstreams: Vec<Vec<NodeId>>,
    out_slot: Vec<Vec<Option<usize>>>,
    src_slot: Vec<Option<usize>>,
    /// Ingestion watermark: every record with `ts < watermark` is in.
    watermark: Nanos,
    /// Walks suspended on an edge decision or a missing tx entry.
    suspended: HashMap<usize, Walk>,
    /// Finished traces awaiting their emission-order turn.
    pending: BTreeMap<usize, Finished>,
    next_commit: usize,
    source_total: usize,
    // Retained (non-evictable) diagnosis substrate.
    traces: Vec<ReconstructedTrace>,
    hops: Vec<TraceHop>,
    rx_to_trace: Vec<Vec<RxTraceRef>>,
    paths: PathTrie,
    hop_path_ids: Vec<u32>,
    report: ReconstructionReport,
    timelines: Vec<NfTimelineBuilder>,
}

impl WindowedReconstructor {
    /// A reconstructor for `topology` with the given matching parameters.
    pub fn new(topology: &Topology, cfg: MatchConfig) -> Self {
        let n = topology.len();
        let upstreams: Vec<Vec<NodeId>> = (0..n)
            .map(|d| topology.upstream_nodes(NfId(d as u16)))
            .collect();
        let out_slot: Vec<Vec<Option<usize>>> = (0..n)
            .map(|u| {
                let me = NodeId::Nf(NfId(u as u16));
                upstreams
                    .iter()
                    .map(|ups| ups.iter().position(|&node| node == me))
                    .collect()
            })
            .collect();
        let src_slot: Vec<Option<usize>> = upstreams
            .iter()
            .map(|ups| ups.iter().position(|&node| node == NodeId::Source))
            .collect();
        let nfs = (0..n)
            .map(|d| NfState {
                edges: upstreams[d].iter().map(|_| IncEdge::default()).collect(),
                rx_pending: VecDeque::new(),
                rx_decided: 0,
                rx_total: 0,
                tx: VecDeque::new(),
                tx_base: 0,
                tx_total: 0,
                tx_waiters: BTreeMap::new(),
                dead_rx: BTreeSet::new(),
                flows: VecDeque::new(),
                flows_base: 0,
                exit_count: 0,
                orphans: vec![0; n],
                is_exit: topology.exits().contains(&NfId(d as u16)),
                stats: MatchStats::default(),
            })
            .collect();
        let timelines = (0..n)
            .map(|i| NfTimelineBuilder::new(NfId(i as u16)))
            .collect();
        Self {
            topo: topology.clone(),
            cfg,
            nfs,
            upstreams,
            out_slot,
            src_slot,
            watermark: 0,
            suspended: HashMap::new(),
            pending: BTreeMap::new(),
            next_commit: 0,
            source_total: 0,
            traces: Vec::new(),
            hops: Vec::new(),
            rx_to_trace: vec![Vec::new(); n],
            paths: PathTrie::new(),
            hop_path_ids: Vec::new(),
            report: ReconstructionReport::default(),
            timelines,
        }
    }

    /// Ingests one chunk: every record with `previous until <= ts < until`.
    pub fn ingest_chunk(&mut self, chunk: &BundleChunk) -> Result<(), StreamError> {
        self.ingest(&chunk.bundle, chunk.until)
    }

    /// Ingests a record bundle whose timestamps all lie below `until` (and
    /// at or above any previous `until`), then decides everything the new
    /// watermark proves stable.
    pub fn ingest(&mut self, bundle: &TraceBundle, until: Nanos) -> Result<(), StreamError> {
        let n = self.nfs.len();
        if bundle.logs.len() != n {
            return Err(StreamError::TopologyMismatch {
                expected: n,
                got: bundle.logs.len(),
            });
        }
        // Phase 1: ingest every NF's records.
        for (i, log) in bundle.logs.iter().enumerate() {
            for b in &log.rx {
                self.timelines[i].push_read(RxBatchInfo {
                    ts: b.ts,
                    size: b.len(),
                    drained: b.drained_queue(),
                });
                for &ipid in &b.ipids {
                    self.nfs[i].rx_pending.push_back(RxPend { ts: b.ts, ipid });
                    self.nfs[i].rx_total += 1;
                    self.rx_to_trace[i].push(RxTraceRef::NONE);
                }
            }
            for b in &log.tx {
                for &ipid in &b.ipids {
                    let pos_within = match b.to {
                        Some(d) => match self.out_slot[i][d.0 as usize] {
                            Some(slot) => self.nfs[d.0 as usize].edges[slot].push(b.ts, ipid),
                            None => {
                                let c = &mut self.nfs[i].orphans[d.0 as usize];
                                let pw = *c;
                                *c += 1;
                                pw
                            }
                        },
                        None => {
                            let pw = self.nfs[i].exit_count;
                            self.nfs[i].exit_count += 1;
                            pw
                        }
                    };
                    let st = &mut self.nfs[i];
                    st.tx.push_back(TxSlot {
                        ts: b.ts,
                        to: b.to,
                        pos_within,
                        consumed: false,
                    });
                    st.tx_total += 1;
                }
            }
            for f in &log.flows {
                self.nfs[i].flows.push_back(f.flow);
            }
        }
        // Phase 2: source emissions start new walks (they suspend on their
        // entry edge until the matcher decides their position).
        for f in &bundle.source_flows {
            let entry = self.topo.entry_for(&f.flow);
            let Some(slot) = self.src_slot[entry.0 as usize] else {
                return Err(StreamError::MissingSourceEdge { nf: entry });
            };
            let pos = self.nfs[entry.0 as usize].edges[slot].push(f.ts, f.ipid);
            let trace = self.source_total;
            self.source_total += 1;
            self.report.total += 1;
            let walk = Walk {
                trace,
                flow: f.flow,
                emitted: f.ts,
                hops: Vec::new(),
                state: WalkState::AtEdge {
                    down: entry,
                    node: NodeId::Source,
                    pos,
                    arrival: f.ts,
                },
            };
            self.run_walk(walk);
        }
        // Phase 3: walks (and dead-slot markers) that were missing a tx
        // entry can proceed now.
        self.resume_tx_waiters();
        self.drain_dead_rx();
        // Phase 4: the watermark proves a prefix of each rx frontier stable.
        self.watermark = self.watermark.max(until);
        for i in 0..n {
            self.decide_nf(i, false);
        }
        Ok(())
    }

    /// Decides everything left, finalizes in-flight walks and returns the
    /// reconstruction plus the incrementally-built timelines.
    pub fn finish(mut self) -> (Reconstruction, Timelines) {
        let n = self.nfs.len();
        // All records are in: decide the full rx frontier of every NF
        // (identical to the offline matcher's main loop over the tail).
        for i in 0..n {
            self.decide_nf(i, true);
        }
        self.resume_tx_waiters();
        // Whatever is still suspended can never resolve: positions at or
        // past the final cursor are unresolved; a matched read with no tx
        // entry gets its offline half-hop.
        let mut rest: Vec<usize> = self.suspended.keys().copied().collect();
        rest.sort_unstable();
        for trace in rest {
            let Some(mut walk) = self.suspended.remove(&trace) else {
                continue;
            };
            match walk.state {
                WalkState::AtEdge { .. } => self.finalize(walk, TraceOutcome::Unresolved),
                WalkState::AtTx {
                    down,
                    rx_idx,
                    read_ts,
                    arrival,
                } => {
                    walk.hops.push(TraceHop {
                        nf: down,
                        arrival_ts: arrival,
                        read_ts,
                        sent_ts: None,
                        rx_idx,
                    });
                    self.finalize(walk, TraceOutcome::Unresolved);
                }
            }
        }
        debug_assert_eq!(self.next_commit, self.source_total);
        debug_assert!(self.pending.is_empty());
        for st in &self.nfs {
            self.report.unmatched_rx += st.stats.unmatched_rx;
            self.report.ambiguities += st.stats.ambiguities;
        }
        let empty = TraceBundle {
            logs: (0..n)
                .map(|i| NfLog {
                    nf: NfId(i as u16),
                    rx: Vec::new(),
                    tx: Vec::new(),
                    flows: Vec::new(),
                })
                .collect(),
            source_flows: Vec::new(),
        };
        let streams = EdgeStreams::build(&self.topo, &empty);
        let recon = Reconstruction {
            traces: self.traces,
            hops: self.hops,
            report: self.report,
            streams,
            rx_to_trace: self.rx_to_trace,
            paths: self.paths,
            hop_path_ids: self.hop_path_ids,
        };
        let timelines = Timelines {
            nfs: self.timelines.into_iter().map(|b| b.finish()).collect(),
        };
        (recon, timelines)
    }

    /// The reconstruction report so far (commit-order prefix of the run).
    pub fn report(&self) -> &ReconstructionReport {
        &self.report
    }

    /// Traces committed so far.
    pub fn committed(&self) -> usize {
        self.next_commit
    }

    /// Approximate bytes held by the *evictable* frontier: undecided rx,
    /// unconsumed sends and tx slots, suspended walks, and the commit
    /// reorder buffer. This is the quantity that must stay O(window); the
    /// retained diagnosis substrate (traces, hop arena, timelines, path
    /// trie) legitimately grows with the run.
    pub fn working_set(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = 0usize;
        for st in &self.nfs {
            bytes += st.rx_pending.capacity() * size_of::<RxPend>();
            bytes += st.tx.capacity() * size_of::<TxSlot>();
            bytes += st.flows.capacity() * size_of::<FiveTuple>();
            bytes += st.tx_waiters.len() * 48;
            bytes += st.dead_rx.len() * 32;
            bytes += st.edges.iter().map(IncEdge::approx_bytes).sum::<usize>();
        }
        // lint: order-insensitive(commutative sum over walk sizes)
        for w in self.suspended.values() {
            bytes += size_of::<Walk>() + w.hops.capacity() * size_of::<TraceHop>() + 48;
        }
        for f in self.pending.values() {
            bytes += size_of::<Finished>() + f.hops.capacity() * size_of::<TraceHop>() + 48;
        }
        bytes
    }

    /// Resumes every walk whose missing tx entry has since been ingested.
    fn resume_tx_waiters(&mut self) {
        for i in 0..self.nfs.len() {
            loop {
                let st = &mut self.nfs[i];
                let Some((&rx_idx, &trace)) = st.tx_waiters.first_key_value() else {
                    break;
                };
                if rx_idx >= st.tx_total {
                    break;
                }
                st.tx_waiters.pop_first();
                let Some(walk) = self.suspended.remove(&trace) else {
                    continue;
                };
                self.run_walk(walk);
            }
        }
    }

    /// Decides the stable prefix of NF `i`'s rx frontier (all of it when
    /// `finishing`). An rx entry is stable once the watermark exceeds the
    /// read time (plus slack) of the last entry its decision may consult —
    /// itself for a single-upstream NF, the `lookahead`-th successor when
    /// IPID collisions can trigger playout.
    fn decide_nf(&mut self, i: usize, finishing: bool) {
        loop {
            let st = &self.nfs[i];
            let Some(front) = st.rx_pending.front() else {
                break;
            };
            if !finishing {
                let stable = if st.edges.len() <= 1 {
                    front.ts.saturating_add(self.cfg.negative_slack_ns) < self.watermark
                } else {
                    match st.rx_pending.get(self.cfg.lookahead) {
                        Some(la) => {
                            la.ts.saturating_add(self.cfg.negative_slack_ns) < self.watermark
                        }
                        None => false,
                    }
                };
                if !stable {
                    break;
                }
            }
            self.decide_one(i);
        }
    }

    /// Pops and decides the front rx entry of NF `i`, mirroring one
    /// iteration of the offline matcher's rx loop, then resumes any walks
    /// the decision unblocked.
    fn decide_one(&mut self, i: usize) {
        let mut resumes: Vec<(usize, EdgeDecision)> = Vec::new();
        let mut dead: Vec<(usize, usize)> = Vec::new();
        'decide: {
            let st = &mut self.nfs[i];
            let Some(r) = st.rx_pending.pop_front() else {
                return;
            };
            let rx_idx = st.rx_decided;
            st.rx_decided += 1;
            let mut cands: Vec<(usize, usize)> = Vec::new();
            for (e_idx, e) in st.edges.iter().enumerate() {
                if let Some(pos) = e.candidate(r.ipid, r.ts, &self.cfg) {
                    cands.push((e_idx, pos));
                }
            }
            if cands.is_empty() {
                st.stats.unmatched_rx += 1;
                // No walk will ever consume this rx entry's tx slot.
                dead.push((i, rx_idx));
                break 'decide;
            }
            let chosen = if cands.len() == 1 {
                cands[0]
            } else {
                st.stats.ambiguities += 1;
                cands.sort_by_key(|&(e, p)| (st.edges[e].ts_at(p), e, p));
                let default = cands[0];
                if !self.cfg.use_order_channel {
                    default
                } else {
                    let mut best = default;
                    let mut best_score: Option<usize> = None;
                    let mut cursors: Vec<usize> = Vec::with_capacity(st.edges.len());
                    for &(e_idx, pos) in &cands {
                        cursors.clear();
                        cursors.extend(st.edges.iter().map(|e| e.cursor));
                        cursors[e_idx] = pos + 1;
                        let s = lookahead_score(
                            &st.edges,
                            &mut cursors,
                            &st.rx_pending,
                            self.cfg.lookahead,
                            &self.cfg,
                        );
                        if best_score.is_none_or(|b| s > b) {
                            best_score = Some(s);
                            best = (e_idx, pos);
                        }
                    }
                    if best != default {
                        st.stats.ambiguity_flips += 1;
                    }
                    best
                }
            };
            st.stats.matched += 1;
            let (e_idx, pos) = chosen;
            let skipped = pos - st.edges[e_idx].cursor;
            st.stats.inferred_drops += skipped as u64;
            let e = &mut st.edges[e_idx];
            for q in e.cursor..pos {
                if let Some(t) = e.waiters.remove(&q) {
                    resumes.push((t, EdgeDecision::Dropped));
                } else if !e.ghosts.remove(&q) {
                    e.outcomes.insert(q, EdgeDecision::Dropped);
                }
            }
            let dec = EdgeDecision::Matched {
                rx_idx,
                read_ts: r.ts,
            };
            if let Some(t) = e.waiters.remove(&pos) {
                resumes.push((t, dec));
            } else if e.ghosts.remove(&pos) {
                // An ownerless send matched this rx: its tx slot is dead.
                dead.push((i, rx_idx));
            } else {
                e.outcomes.insert(pos, dec);
            }
            e.cursor = pos + 1;
            e.evict();
        }
        for (trace, dec) in resumes {
            self.resume_edge(trace, dec);
        }
        self.mark_dead_slots(dead);
    }

    /// Consumes tx slots proven ownerless — their rx entry was unmatched,
    /// or the send that would have carried a walk to them was itself dead —
    /// so a dead slot can never block `evict_tx` for the rest of the run.
    /// A dead slot's own send is ownerless in turn: its eventual match
    /// decision is consumed by a ghost, cascading down the DAG.
    fn mark_dead_slots(&mut self, mut work: Vec<(usize, usize)>) {
        while let Some((d, j)) = work.pop() {
            let st = &mut self.nfs[d];
            if j >= st.tx_total {
                st.dead_rx.insert(j);
                continue;
            }
            let Some(slot) = j.checked_sub(st.tx_base).and_then(|k| st.tx.get_mut(k)) else {
                continue;
            };
            if slot.consumed {
                continue;
            }
            slot.consumed = true;
            let (to, pw) = (slot.to, slot.pos_within);
            st.evict_tx();
            let Some(d2) = to else { continue };
            let Some(slot_idx) = self.out_slot[d][d2.0 as usize] else {
                continue; // orphan target: there is no edge stream to poison
            };
            let e = &mut self.nfs[d2.0 as usize].edges[slot_idx];
            match e.outcomes.remove(&pw) {
                Some(EdgeDecision::Matched { rx_idx, .. }) => {
                    work.push((d2.0 as usize, rx_idx));
                }
                Some(EdgeDecision::Dropped) => {}
                None => {
                    if pw >= e.cursor {
                        e.ghosts.insert(pw);
                    }
                }
            }
        }
    }

    /// Applies dead-on-arrival markers whose tx entries have been ingested.
    fn drain_dead_rx(&mut self) {
        for i in 0..self.nfs.len() {
            let st = &mut self.nfs[i];
            let mut ready: Vec<(usize, usize)> = Vec::new();
            while let Some(&j) = st.dead_rx.first() {
                if j >= st.tx_total {
                    break;
                }
                st.dead_rx.pop_first();
                ready.push((i, j));
            }
            if !ready.is_empty() {
                self.mark_dead_slots(ready);
            }
        }
    }

    /// Applies a just-made edge decision to the walk suspended on it.
    fn resume_edge(&mut self, trace: usize, dec: EdgeDecision) {
        let Some(mut walk) = self.suspended.remove(&trace) else {
            return;
        };
        let WalkState::AtEdge { down, arrival, .. } = walk.state else {
            debug_assert!(false, "edge waiter was not at an edge");
            return;
        };
        match dec {
            EdgeDecision::Dropped => self.finalize(
                walk,
                TraceOutcome::InferredDrop {
                    nf: down,
                    at: arrival,
                },
            ),
            EdgeDecision::Matched { rx_idx, read_ts } => {
                walk.state = WalkState::AtTx {
                    down,
                    rx_idx,
                    read_ts,
                    arrival,
                };
                self.run_walk(walk);
            }
        }
    }

    /// Advances a walk until it finalizes or suspends — the streaming twin
    /// of the offline `assemble` loop body for one source packet.
    fn run_walk(&mut self, mut walk: Walk) {
        loop {
            match walk.state {
                WalkState::AtEdge {
                    down,
                    node,
                    pos,
                    arrival,
                } => {
                    let d = down.0 as usize;
                    // A send to a node that is not a topology edge has no
                    // match table offline either: unresolved.
                    let Some(slot) = self.upstreams[d].iter().position(|&u| u == node) else {
                        return self.finalize(walk, TraceOutcome::Unresolved);
                    };
                    let e = &mut self.nfs[d].edges[slot];
                    match e.outcomes.remove(&pos) {
                        Some(EdgeDecision::Dropped) => {
                            return self.finalize(
                                walk,
                                TraceOutcome::InferredDrop {
                                    nf: down,
                                    at: arrival,
                                },
                            );
                        }
                        Some(EdgeDecision::Matched { rx_idx, read_ts }) => {
                            walk.state = WalkState::AtTx {
                                down,
                                rx_idx,
                                read_ts,
                                arrival,
                            };
                        }
                        None => {
                            debug_assert!(pos >= e.cursor, "decided position lost its outcome");
                            e.waiters.insert(pos, walk.trace);
                            self.suspended.insert(walk.trace, walk);
                            return;
                        }
                    }
                }
                WalkState::AtTx {
                    down,
                    rx_idx,
                    read_ts,
                    arrival,
                } => {
                    let d = down.0 as usize;
                    if rx_idx >= self.nfs[d].tx_total {
                        self.nfs[d].tx_waiters.insert(rx_idx, walk.trace);
                        self.suspended.insert(walk.trace, walk);
                        return;
                    }
                    let st = &mut self.nfs[d];
                    let (tx_ts, tx_to, pw) = {
                        let t = &mut st.tx[rx_idx - st.tx_base];
                        t.consumed = true;
                        (t.ts, t.to, t.pos_within)
                    };
                    walk.hops.push(TraceHop {
                        nf: down,
                        arrival_ts: arrival,
                        read_ts,
                        sent_ts: Some(tx_ts),
                        rx_idx,
                    });
                    let mut flow_mismatch = false;
                    if tx_to.is_none() && st.is_exit {
                        if let Some(flow) = st.flow_at(pw) {
                            flow_mismatch = flow != walk.flow;
                        }
                    }
                    st.evict_tx();
                    if flow_mismatch {
                        self.report.flow_mismatches += 1;
                    }
                    match tx_to {
                        None => return self.finalize(walk, TraceOutcome::Delivered(tx_ts)),
                        Some(d2) => {
                            walk.state = WalkState::AtEdge {
                                down: d2,
                                node: NodeId::Nf(down),
                                pos: pw,
                                arrival: tx_ts,
                            };
                        }
                    }
                }
            }
        }
    }

    /// Parks a finished walk in the reorder buffer and commits every trace
    /// whose emission turn has come.
    fn finalize(&mut self, walk: Walk, outcome: TraceOutcome) {
        self.pending.insert(
            walk.trace,
            Finished {
                flow: walk.flow,
                emitted: walk.emitted,
                hops: walk.hops,
                outcome,
            },
        );
        while let Some(f) = self.pending.remove(&self.next_commit) {
            let trace = self.next_commit;
            self.next_commit += 1;
            self.commit(trace, &f);
        }
    }

    /// Appends one trace to the retained substrate in offline order: hop
    /// arena, path-trie interning, `rx_to_trace` back-references, timeline
    /// arrivals and report counters all replay `assemble` +
    /// `PathTrie::index` + `Timelines::build` for this trace.
    fn commit(&mut self, trace: usize, f: &Finished) {
        debug_assert!(u32::try_from(self.hops.len() + f.hops.len()).is_ok());
        // lint: lossy-cast-ok(the hop arena is u32-indexed by design, as offline)
        let hop_start = self.hops.len() as u32;
        let mut cur = PATH_ROOT;
        for (h_idx, h) in f.hops.iter().enumerate() {
            self.rx_to_trace[h.nf.0 as usize][h.rx_idx] = RxTraceRef::new(trace, h_idx);
            self.hop_path_ids.push(cur);
            cur = self.paths.child(cur, NodeId::Nf(h.nf));
            self.timelines[h.nf.0 as usize].push_arrival(Arrival {
                ts: h.arrival_ts,
                trace,
                hop: h_idx,
                kind: ArrivalKind::Queued,
            });
            self.hops.push(*h);
        }
        match f.outcome {
            TraceOutcome::Delivered(_) => self.report.delivered += 1,
            TraceOutcome::InferredDrop { nf, at } => {
                self.report.inferred_drops += 1;
                self.timelines[nf.0 as usize].push_arrival(Arrival {
                    ts: at,
                    trace,
                    hop: f.hops.len(),
                    kind: ArrivalKind::Dropped,
                });
            }
            TraceOutcome::Unresolved => self.report.unresolved += 1,
        }
        self.traces.push(ReconstructedTrace {
            flow: f.flow,
            emitted_at: f.emitted,
            // lint: lossy-cast-ok(same u32 arena bound as offline assemble)
            hops: hop_start..self.hops.len() as u32,
            outcome: f.outcome,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reconstruct::{reconstruct, ReconstructionConfig};
    use msc_collector::{chunk_bundle, Collector, CollectorConfig, PacketMeta};
    use nf_types::{NfKind, Proto};

    /// Deterministic LCG (no external rand in tests).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Two entry NATs merging into one exit VPN — the smallest topology with
    /// a genuinely ambiguous multi-upstream edge.
    fn diamond() -> Topology {
        let mut b = Topology::builder();
        let n0 = b.add_nf(NfKind::Nat, "nat0");
        let n1 = b.add_nf(NfKind::Nat, "nat1");
        let v = b.add_nf(NfKind::Vpn, "vpn1");
        b.add_entry(n0);
        b.add_entry(n1);
        b.add_edge(n0, v);
        b.add_edge(n1, v);
        b.build().unwrap()
    }

    /// Single-path chain: every edge is unambiguous, decisions stream out at
    /// the watermark without any lookahead margin.
    fn chain3() -> Topology {
        let mut b = Topology::builder();
        let f = b.add_nf(NfKind::Firewall, "fw1");
        let n = b.add_nf(NfKind::Nat, "nat1");
        let v = b.add_nf(NfKind::Vpn, "vpn1");
        b.add_entry(f);
        b.add_edge(f, n);
        b.add_edge(n, v);
        b.build().unwrap()
    }

    /// Random forwarding run over any entry-layer + single-sink topology:
    /// tiny IPID alphabet (collisions), ring drops before each NF,
    /// NF-internal drops (read but never sent, desyncing the rx/tx pairing),
    /// bogus reads nothing sent, and optional truncation mid-flight.
    fn random_run(topo: &Topology, rng: &mut Lcg, n_packets: usize, truncate: bool) -> TraceBundle {
        let sink = NfId((topo.len() - 1) as u16);
        let mut c = Collector::new(topo, CollectorConfig::default());
        let mut clock: Nanos = 1_000;
        let alphabet = 4 + rng.below(8);
        let mut q: Vec<VecDeque<PacketMeta>> = vec![VecDeque::new(); topo.len()];
        let mut emitted = 0usize;
        let budget = if truncate {
            n_packets * 3 + rng.below(n_packets as u64 * 4) as usize
        } else {
            usize::MAX
        };
        let mut steps = 0usize;
        loop {
            steps += 1;
            if steps > budget {
                break; // truncated run: packets left in flight everywhere
            }
            if emitted >= n_packets && q.iter().all(VecDeque::is_empty) {
                break;
            }
            clock += 1 + rng.below(700);
            match rng.below(2 + topo.len() as u64) {
                0 | 1 if emitted < n_packets => {
                    let m = PacketMeta {
                        ipid: rng.below(alphabet) as u16,
                        flow: FiveTuple::new(
                            0x0a00_0000 + rng.below(40) as u32,
                            0x1400_0001,
                            1_000 + rng.below(40) as u16,
                            443,
                            Proto::UDP,
                        ),
                    };
                    let entry = topo.entry_for(&m.flow);
                    c.record_source(clock, &m);
                    emitted += 1;
                    if rng.below(10) != 0 {
                        q[entry.0 as usize].push_back(m); // else: ring drop
                    }
                }
                act => {
                    let i = (act as usize).saturating_sub(2) % topo.len();
                    let nf = NfId(i as u16);
                    let take = 1 + rng.below(3) as usize;
                    let batch: Vec<PacketMeta> =
                        (0..take).filter_map(|_| q[i].pop_front()).collect();
                    if batch.is_empty() {
                        continue;
                    }
                    c.record_rx(nf, clock, &batch);
                    if rng.below(20) == 0 {
                        continue; // NF-internal drop of the whole batch
                    }
                    let ts2 = clock + 1 + rng.below(250);
                    clock = ts2;
                    if nf == sink {
                        c.record_tx(nf, ts2, None, &batch);
                        if rng.below(15) == 0 {
                            // A read nothing ever sent (corrupted IPID).
                            clock += 1;
                            c.record_rx(
                                nf,
                                clock,
                                &[PacketMeta {
                                    ipid: 0x3FFF,
                                    flow: FiveTuple::new(9, 9, 9, 9, Proto::TCP),
                                }],
                            );
                        }
                    } else {
                        let down = topo.downstream(nf)[0];
                        c.record_tx(nf, ts2, Some(down), &batch);
                        for m in batch {
                            if rng.below(12) != 0 {
                                q[down.0 as usize].push_back(m); // else: ring drop
                            }
                        }
                    }
                }
            }
        }
        c.into_bundle()
    }

    fn assert_stream_matches_offline(
        topo: &Topology,
        bundle: &TraceBundle,
        cfg: &MatchConfig,
        chunk_ns: Nanos,
        tag: &str,
    ) -> ReconstructionReport {
        let off = reconstruct(
            topo,
            bundle,
            &ReconstructionConfig {
                matching: cfg.clone(),
            },
        );
        let off_tl = Timelines::build(&off);
        let mut w = WindowedReconstructor::new(topo, cfg.clone());
        for chunk in chunk_bundle(bundle, chunk_ns) {
            w.ingest_chunk(&chunk).unwrap();
        }
        let (got, got_tl) = w.finish();
        assert_eq!(got.traces, off.traces, "{tag}: traces");
        assert_eq!(got.hops, off.hops, "{tag}: hop arena");
        assert_eq!(got.report, off.report, "{tag}: report");
        assert_eq!(got.rx_to_trace, off.rx_to_trace, "{tag}: rx_to_trace");
        assert_eq!(got.hop_path_ids, off.hop_path_ids, "{tag}: hop_path_ids");
        assert_eq!(got.paths.len(), off.paths.len(), "{tag}: path trie size");
        assert_eq!(got_tl, off_tl, "{tag}: timelines");
        off.report
    }

    fn sweep_configs() -> Vec<MatchConfig> {
        vec![
            MatchConfig::default(),
            // Small lookahead so multi-upstream decisions actually stream
            // out mid-run instead of piling up for finish().
            MatchConfig {
                lookahead: 3,
                ..Default::default()
            },
            MatchConfig {
                delay_bound_ns: 20_000,
                negative_slack_ns: 300,
                lookahead: 4,
                ..Default::default()
            },
            MatchConfig {
                use_order_channel: false,
                ..Default::default()
            },
        ]
    }

    #[test]
    fn streamed_equals_offline_on_random_diamond_runs() {
        let mut totals = ReconstructionReport::default();
        for seed in 0..14u64 {
            let topo = diamond();
            let mut rng = Lcg(0x5eed_0001 ^ (seed * 0x9e37_79b9));
            let bundle = random_run(&topo, &mut rng, 60, seed % 3 == 2);
            for cfg in &sweep_configs() {
                for chunk_ns in [900, 7_000, 60_000, Nanos::MAX] {
                    let rep = assert_stream_matches_offline(
                        &topo,
                        &bundle,
                        cfg,
                        chunk_ns,
                        &format!("diamond seed {seed} chunk {chunk_ns}"),
                    );
                    totals.delivered += rep.delivered;
                    totals.inferred_drops += rep.inferred_drops;
                    totals.unresolved += rep.unresolved;
                    totals.unmatched_rx += rep.unmatched_rx;
                    totals.ambiguities += rep.ambiguities;
                }
            }
        }
        // The generator must actually exercise every interesting path.
        assert!(totals.delivered > 500, "delivered: {}", totals.delivered);
        assert!(
            totals.inferred_drops > 100,
            "drops: {}",
            totals.inferred_drops
        );
        assert!(totals.unresolved > 50, "unresolved: {}", totals.unresolved);
        assert!(
            totals.unmatched_rx > 50,
            "unmatched: {}",
            totals.unmatched_rx
        );
        assert!(
            totals.ambiguities > 100,
            "ambiguities: {}",
            totals.ambiguities
        );
    }

    #[test]
    fn streamed_equals_offline_on_random_chain_runs() {
        for seed in 0..10u64 {
            let topo = chain3();
            let mut rng = Lcg(0xc4a1 ^ (seed * 0x0123_4567));
            let bundle = random_run(&topo, &mut rng, 50, seed % 2 == 1);
            for cfg in &sweep_configs() {
                for chunk_ns in [1_500, 25_000, Nanos::MAX] {
                    assert_stream_matches_offline(
                        &topo,
                        &bundle,
                        cfg,
                        chunk_ns,
                        &format!("chain seed {seed} chunk {chunk_ns}"),
                    );
                }
            }
        }
    }

    #[test]
    fn empty_and_single_chunk_runs_are_handled() {
        let topo = chain3();
        let empty = Collector::new(&topo, CollectorConfig::default()).into_bundle();
        assert_stream_matches_offline(&topo, &empty, &MatchConfig::default(), 1_000, "empty");

        let mut w = WindowedReconstructor::new(&topo, MatchConfig::default());
        let wrong = TraceBundle {
            logs: Vec::new(),
            source_flows: Vec::new(),
        };
        assert_eq!(
            w.ingest(&wrong, 10),
            Err(StreamError::TopologyMismatch {
                expected: 3,
                got: 0
            })
        );
    }

    /// Regression (window-boundary IPID reuse, variant A): a 16-bit IPID is
    /// recycled in a much later window after its first carrier was inferred
    /// dropped; the cursor jump must have evicted the stale send so the
    /// recycled read matches the *new* send, bit-identically to offline.
    #[test]
    fn recycled_ipid_rematches_new_send_after_drop_eviction() {
        let mut b = Topology::builder();
        let nat = b.add_nf(NfKind::Nat, "nat1");
        let vpn = b.add_nf(NfKind::Vpn, "vpn1");
        b.add_entry(nat);
        b.add_edge(nat, vpn);
        let topo = b.build().unwrap();
        let f = |sport| PacketMeta {
            ipid: 5,
            flow: FiveTuple::new(1, 2, sport, 80, Proto::TCP),
        };
        let g = PacketMeta {
            ipid: 7,
            flow: FiveTuple::new(1, 2, 77, 80, Proto::TCP),
        };
        let late: Nanos = 60_000_000; // a full window past the delay bound
        let mut c = Collector::new(&topo, CollectorConfig::default());
        // p0: nat sends IPID 5, the ring drops it before vpn.
        c.record_source(1_000, &f(10));
        c.record_rx(nat, 1_500, &[f(10)]);
        c.record_tx(nat, 2_000, Some(vpn), &[f(10)]);
        // p1: IPID 7 gets through; matching it jumps vpn's cursor past p0.
        c.record_source(1_100, &g);
        c.record_rx(nat, 1_600, &[g]);
        c.record_tx(nat, 2_500, Some(vpn), &[g]);
        c.record_rx(vpn, 3_000, &[g]);
        c.record_tx(vpn, 3_200, None, &[g]);
        // p2: IPID 5 recycled in a later window.
        c.record_source(late, &f(11));
        c.record_rx(nat, late + 500, &[f(11)]);
        c.record_tx(nat, late + 1_000, Some(vpn), &[f(11)]);
        c.record_rx(vpn, late + 1_500, &[f(11)]);
        c.record_tx(vpn, late + 1_700, None, &[f(11)]);
        let bundle = c.into_bundle();

        for chunk_ns in [10_000_000, 2_000, Nanos::MAX] {
            assert_stream_matches_offline(
                &topo,
                &bundle,
                &MatchConfig::default(),
                chunk_ns,
                &format!("recycle-evict chunk {chunk_ns}"),
            );
        }
        // Pin the semantics, not just the equivalence: p0 dropped at vpn,
        // p2's vpn hop reads the *new* send.
        let mut w = WindowedReconstructor::new(&topo, MatchConfig::default());
        for chunk in chunk_bundle(&bundle, 10_000_000) {
            w.ingest_chunk(&chunk).unwrap();
        }
        let (got, _) = w.finish();
        assert_eq!(
            got.traces[0].outcome,
            TraceOutcome::InferredDrop { nf: vpn, at: 2_000 }
        );
        assert_eq!(got.traces[2].outcome, TraceOutcome::Delivered(late + 1_700));
        let vpn_hop = got.hops_of(2).last().copied().unwrap();
        assert_eq!(vpn_hop.nf, vpn);
        assert_eq!(vpn_hop.arrival_ts, late + 1_000);
        assert_eq!(vpn_hop.read_ts, late + 1_500);
    }

    /// Regression (window-boundary IPID reuse, variant B): when the stale
    /// same-IPID send was *never* passed by the cursor, it still heads the
    /// IPID run and blocks the recycled read (the offline "stale candidates
    /// block" rule) — the read must stay unmatched in streaming too, not
    /// cross-match the stale send or skip ahead to the new one.
    #[test]
    fn recycled_ipid_is_blocked_by_stale_unconsumed_candidate() {
        let mut b = Topology::builder();
        let nat = b.add_nf(NfKind::Nat, "nat1");
        let vpn = b.add_nf(NfKind::Vpn, "vpn1");
        b.add_entry(nat);
        b.add_edge(nat, vpn);
        let topo = b.build().unwrap();
        let f = |sport| PacketMeta {
            ipid: 5,
            flow: FiveTuple::new(1, 2, sport, 80, Proto::TCP),
        };
        let late: Nanos = 60_000_000;
        let mut c = Collector::new(&topo, CollectorConfig::default());
        // p0: nat sends IPID 5; vpn never reads anything in this window, so
        // the send stays unconsumed ahead of the cursor.
        c.record_source(1_000, &f(10));
        c.record_rx(nat, 1_500, &[f(10)]);
        c.record_tx(nat, 2_000, Some(vpn), &[f(10)]);
        // p1: IPID 5 recycled much later; its read is outside p0's delay
        // bound, and p0's send blocks the run head.
        c.record_source(late, &f(11));
        c.record_rx(nat, late + 500, &[f(11)]);
        c.record_tx(nat, late + 1_000, Some(vpn), &[f(11)]);
        c.record_rx(vpn, late + 1_500, &[f(11)]);
        let bundle = c.into_bundle();

        for chunk_ns in [10_000_000, 2_000, Nanos::MAX] {
            let rep = assert_stream_matches_offline(
                &topo,
                &bundle,
                &MatchConfig::default(),
                chunk_ns,
                &format!("recycle-block chunk {chunk_ns}"),
            );
            assert_eq!(rep.unmatched_rx, 1, "the recycled read must stay unmatched");
            assert_eq!(rep.unresolved, 2, "both carriers end unresolved");
        }
    }

    /// The evictable frontier must track queue occupancy, not run length: a
    /// 4x longer run through the same topology may not grow the peak
    /// working set materially.
    #[test]
    fn working_set_is_bounded_by_frontier_not_run_length() {
        let peak = |n_packets: usize| {
            let topo = chain3();
            let mut rng = Lcg(0xb0b0_cafe);
            let bundle = random_run(&topo, &mut rng, n_packets, false);
            let mut w = WindowedReconstructor::new(&topo, MatchConfig::default());
            let mut peak = 0usize;
            for chunk in chunk_bundle(&bundle, 5_000) {
                w.ingest_chunk(&chunk).unwrap();
                peak = peak.max(w.working_set());
            }
            let total = w.report().total;
            let (recon, _) = w.finish();
            assert_eq!(recon.report.total, total);
            peak
        };
        let small = peak(100);
        let large = peak(400);
        assert!(
            large < small.max(1) * 3,
            "frontier grew with run length: {small} -> {large}"
        );
    }
}
