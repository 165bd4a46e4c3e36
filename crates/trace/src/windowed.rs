//! Windowed trace reconstruction: the streaming driver of the offline
//! matcher.
//!
//! The offline pipeline needs the whole run in memory three times over
//! (bundle, flattened streams, per-edge match tables). This module consumes
//! the run as time-ordered chunks instead and keeps only a *frontier*: the
//! rx entries, tx entries and sends whose fate is not final yet. Everything
//! behind the frontier is dropped at the end of the chunk that settled it,
//! so the reconstruction working set is O(window + in-flight), not O(run).
//!
//! There is no second matcher here. Each chunk is appended to the same
//! position-indexed columns [`match_downstream`](crate::match_downstream)
//! fills for a whole run; an NF's undecided edge tails are re-indexed and
//! the rx prefix the watermark proves stable is decided by the shared
//! `NfMatcher::decide`.
//!
//! `assemble`'s walk is turned inside out: instead of following one packet
//! at a time through every NF, each NF *forwards* its rx entries in rx
//! order. Forwarding rx entry `j` looks up which trace owns the send it
//! matched, records the hop, and hands ownership on to the send of tx entry
//! `j`. Per-edge FIFO makes every piece of state a flat column with a
//! forward-only pointer: owners become known in edge-position order, rx/tx
//! pairs are consumed in index order, and eviction is "drop the prefix
//! behind the pointers" — no per-packet walk state, no keyed containers.
//! An NF waits only for what it needs next (an upstream that has not
//! forwarded yet, a tx entry that is not in yet), so a stalled NF holds back
//! its own queue, not the run.
//!
//! ## Bit-identity
//!
//! The output must equal the offline reconstruction *exactly* — the offline
//! path is the oracle the equivalence suites diff against, as a whole
//! [`Reconstruction`]. Two observations make that possible:
//!
//! 1. **Matching is per-NF local and prefix-monotone.** The matcher's
//!    decision for rx entry `k` depends only on (a) sends within the timing
//!    window of reads `k..k+lookahead` and (b) the committed cursors, which
//!    are a pure function of decisions `0..k`. Once the watermark `W`
//!    passes `rx[k + lookahead].ts + negative_slack`, every send that could
//!    still arrive has `ts >= W` and fails the timing window for all reads
//!    the decision may consult — so deciding now equals deciding with the
//!    full run in hand. (Single-upstream NFs have no ambiguity and need no
//!    lookahead margin.) The matcher's plan, the greedy steps it already
//!    played for the reads after the last decision, is kept across chunks
//!    for the same reason: a step is only played for a read within
//!    `lookahead` of a stable decision, so no later send changes it.
//! 2. **A trace is a pure function of the decisions.** Hops are appended
//!    to the arena's *tail* in forwarding order, each tagged with its trace;
//!    a trace's own hops come out in path order. Once the traces whose
//!    outcome is final hold at least half the tail, the prefix of them in
//!    emission order is flushed: its hops move to the front of the tail,
//!    grouped by trace, and become part of the offline arena for good.
//!    [`WindowedReconstructor::finish`] flushes whatever is left, interns
//!    the paths in trace order, as the offline walk does, and runs the
//!    offline `Timelines::build` over the result.

use crate::matching::{edge_indexes, EdgeIndex, EdgeSends, MatchConfig, NfMatcher, UNMATCHED};
use crate::reconstruct::{
    PathTrie, ReconstructedTrace, Reconstruction, ReconstructionConfig, ReconstructionReport,
    TraceHop, TraceOutcome,
};
use crate::streams::{EdgeSlots, RxBatchInfo};
use crate::timeline::Timelines;
use msc_collector::{chunk_bundle, TraceBundle};
use nf_types::{FiveTuple, Ipid, Nanos, NfId, NodeId, Topology, MILLIS};
use std::fmt;
use std::ops::Range;

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
    /// A chunk arrived out of order or twice: its `until` does not exceed
    /// the previous chunk boundary, or it carries a record from before that
    /// boundary. Decisions behind the boundary are final, so the chunk is
    /// refused instead of being matched against a frontier that has moved
    /// on.
    OutOfOrderChunk {
        /// The refused chunk's boundary.
        until: Nanos,
        /// The boundary of the last chunk accepted.
        watermark: Nanos,
        /// The node whose log holds a record older than `watermark`, and
        /// that record's timestamp; `None` when `until` itself is the
        /// problem.
        late: Option<(NodeId, Nanos)>,
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
            StreamError::OutOfOrderChunk {
                until,
                watermark,
                late: None,
            } => write!(
                f,
                "out-of-order chunk: until {until} ns does not exceed the watermark {watermark} ns"
            ),
            StreamError::OutOfOrderChunk {
                until,
                watermark,
                late: Some((node, ts)),
            } => write!(
                f,
                "out-of-order chunk (until {until} ns): {node} has a record at {ts} ns, \
                 before the watermark {watermark} ns"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

/// The window `microscope diagnose` reads the `.msc` in, with or without
/// `--skew`, and [`reconstruct`] cuts a bundle in. It sets the engine's
/// frontier and nothing in the report. Peak RSS on a 2-core VM: on the
/// 250 ms / 1.4 Mpps recording 10 and 50 ms windows peak alike (93 MiB,
/// after the frontier is freed); on a 30 ms run one 50 ms window holds the
/// whole run and peaks at 24.3 MiB, 10 ms windows at 16.6 MiB (the whole-run
/// reconstructor: 18.6); `diagnose --skew` on a 120 ms / 0.7 Mpps run peaks
/// at 41.2 MiB with 50 ms windows, 29.9 MiB with 10 ms ones, where the
/// estimator over the loaded run sets the peak (whole-run reconstructor:
/// 36.0).
pub const DIAGNOSE_WINDOW_MS: u64 = 10;

/// Reconstructs a run held in memory as `microscope diagnose` reconstructs
/// one on disk: the bundle is cut into [`DIAGNOSE_WINDOW_MS`] windows
/// ([`chunk_bundle`]) and a [`WindowedReconstructor`] consumes them one by
/// one. Returns the traces and their timelines.
///
/// The windows are cut by timestamp, so they always arrive in order; the
/// errors left are a bundle with another NF count than `topology`
/// ([`StreamError::TopologyMismatch`]) and a source record whose entry NF
/// has no source edge ([`StreamError::MissingSourceEdge`]).
pub fn reconstruct(
    topology: &Topology,
    bundle: &TraceBundle,
    cfg: &ReconstructionConfig,
) -> Result<(Reconstruction, Timelines), StreamError> {
    let mut engine = WindowedReconstructor::new(topology, cfg.matching.clone());
    for chunk in chunk_bundle(bundle, DIAGNOSE_WINDOW_MS * MILLIS) {
        engine.ingest(&chunk.bundle, chunk.until)?;
    }
    Ok(engine.finish())
}

/// Owner of a send no trace passes through: sent from a tx slot whose rx
/// entry was unmatched, or matched such a send itself.
const NO_TRACE: u32 = u32::MAX;

/// One tx entry.
#[derive(Debug, Clone, Copy)]
struct TxSlot {
    ts: Nanos,
    to: Option<NfId>,
    /// Position within its edge stream, or among this NF's exit sends;
    /// unused for a send to a node that is not a topology edge.
    pos_within: u32,
}

/// Where a decided rx entry came from: the upstream slot and the edge
/// position it matched — eight bytes per undecided read, not the 24 of an
/// `Option<(usize, usize)>`. Slots are below the fan-in and positions are
/// `u32`-bounded ([`WindowedReconstructor::advance`] asserts it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Origin {
    pos: u32,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Origin>() == 8);

impl Origin {
    /// The rx entry matched no send.
    const NONE: Self = Self {
        pos: u32::MAX,
        slot: u32::MAX,
    };

    fn new(chosen: Option<(usize, usize)>) -> Self {
        chosen.map_or(Self::NONE, |(slot, pos)| Self {
            pos: pos as u32,
            slot: slot as u32,
        })
    }

    /// `(edge slot, position)`; `None` for an unmatched entry.
    fn get(self) -> Option<(usize, usize)> {
        (self != Self::NONE).then_some((self.slot as usize, self.pos as usize))
    }
}

/// What forwarding needs to know about one upstream edge beyond the
/// matcher's columns.
#[derive(Default)]
struct EdgeOwners {
    /// Owning trace ([`NO_TRACE`] = none) per retained position, known for
    /// a prefix: the upstream forwards in tx order, which is edge order.
    owner: Vec<u32>,
    /// Every position before this one is decided and owned, and if it was
    /// skipped, its trace has been told.
    settled: usize,
}

impl EdgeOwners {
    /// Bytes held by the owner column, dropped in lockstep with the edge's
    /// consumed send prefix.
    fn bytes(&self) -> usize {
        let Self { owner, settled: _ } = self;
        owner.capacity() * std::mem::size_of::<u32>()
    }
}

/// Per-NF streaming state: flat columns indexed from `base`, consumed in
/// index order.
struct NfState {
    /// The shared matcher: per-edge match state, cursors, tallies.
    matcher: NfMatcher,
    /// Per upstream edge, aligned with `matcher.edges`: the retained sends,
    /// and who owns them.
    sends: Vec<EdgeSends>,
    owners: Vec<EdgeOwners>,
    /// Flat rx/tx index of the first retained `rx_*` / `origin` / `tx`
    /// entry: the next pair to forward.
    base: usize,
    /// rx entries from `base`: read timestamp and IPID.
    rx_ts: Vec<Nanos>,
    rx_ipid: Vec<Ipid>,
    /// Per decided rx entry from `base`: where it came from.
    origin: Vec<Origin>,
    /// tx entries from `base`.
    tx: Vec<TxSlot>,
    /// Exit flow records from exit position `flows_base`.
    flows: Vec<FiveTuple>,
    flows_base: usize,
    /// Exit sends seen so far (`to == None` position counter).
    exit_count: u32,
    /// Whether exit-flow validation applies (topology exit).
    is_exit: bool,
}

impl NfState {
    /// Bytes held by the columns, which are dropped as they are forwarded.
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        let Self {
            matcher,
            sends,
            owners,
            rx_ts,
            rx_ipid,
            origin,
            tx,
            flows,
            base: _,
            flows_base: _,
            exit_count: _,
            is_exit: _,
        } = self;
        rx_ts.capacity() * size_of::<Nanos>()
            + rx_ipid.capacity() * size_of::<Ipid>()
            + origin.capacity() * size_of::<Origin>()
            + tx.capacity() * size_of::<TxSlot>()
            + flows.capacity() * size_of::<FiveTuple>()
            + matcher.bytes()
            + sends.iter().map(EdgeSends::bytes).sum::<usize>()
            + owners.iter().map(EdgeOwners::bytes).sum::<usize>()
    }

    /// Appends one batch of sends to upstream edge `slot`, returning the
    /// position of its first packet.
    fn push_sends(&mut self, slot: usize, ts: Nanos, ipids: &[Ipid]) -> usize {
        let e = &mut self.matcher.edges[slot];
        let first = e.base + e.matched.len();
        self.sends[slot].push_batch(ts, ipids);
        e.matched.resize(e.matched.len() + ipids.len(), UNMATCHED);
        first
    }

    /// The trace owning the send an rx entry matched ([`NO_TRACE`] for an
    /// unmatched entry); `None` while the upstream has not forwarded that
    /// far.
    fn sender(&self, origin: Origin) -> Option<u32> {
        let Some((slot, pos)) = origin.get() else {
            return Some(NO_TRACE);
        };
        let at = pos - self.matcher.edges[slot].base;
        self.owners[slot].owner.get(at).copied()
    }
}

/// The check every chunk of a stream passes before anything reads it: it
/// carries one log per NF of the topology and follows the chunks before it.
#[derive(Debug, Clone)]
pub struct ChunkOrder {
    nfs: usize,
    /// Boundary of the last chunk admitted.
    boundary: Option<Nanos>,
}

impl ChunkOrder {
    /// The check for chunks recorded on `topology`.
    pub fn new(topology: &Topology) -> Self {
        Self {
            nfs: topology.len(),
            boundary: None,
        }
    }

    /// Checks that a chunk has one log per NF and follows the ones before
    /// it — `until` exceeds the previous boundary and no record is older
    /// than that boundary — and makes `until` the new boundary. Per-node
    /// logs are time-ordered (the bundle readers refuse one that is not,
    /// `EncodeError::OutOfOrder`), so the first record of each is its
    /// oldest: O(NFs).
    pub fn admit(&mut self, bundle: &TraceBundle, until: Nanos) -> Result<(), StreamError> {
        if bundle.logs.len() != self.nfs {
            return Err(StreamError::TopologyMismatch {
                expected: self.nfs,
                got: bundle.logs.len(),
            });
        }
        if let Some(watermark) = self.boundary {
            let oldest = bundle.logs.iter().flat_map(|log| {
                let first = [
                    log.rx.ts().first().copied(),
                    log.tx.ts().first().copied(),
                    log.flows.first().map(|f| f.ts),
                ];
                first
                    .into_iter()
                    .flatten()
                    .map(|ts| (NodeId::Nf(log.nf), ts))
            });
            let source = bundle.source_flows.first().map(|f| (NodeId::Source, f.ts));
            let late = oldest.chain(source).find(|&(_, ts)| ts < watermark);
            if until <= watermark || late.is_some() {
                return Err(StreamError::OutOfOrderChunk {
                    until,
                    watermark,
                    late,
                });
            }
        }
        self.boundary = Some(until);
        Ok(())
    }
}

/// The incremental reconstructor. Feed time-ordered chunks with
/// [`Self::ingest`], then [`Self::finish`] for the reconstruction and
/// timelines — equal to the offline pipeline over the concatenated chunks.
pub struct WindowedReconstructor {
    topo: Topology,
    cfg: MatchConfig,
    nfs: Vec<NfState>,
    /// The topology's edges by upstream slot.
    slots: EdgeSlots,
    /// One edge index per upstream slot of the widest NF, rebuilt over an
    /// NF's undecided edge tails whenever that NF has reads to decide.
    index: Vec<EdgeIndex>,
    /// The NF count and boundary of the last chunk admitted.
    order: ChunkOrder,
    /// Ingestion watermark: every record with `ts < watermark` is in.
    watermark: Nanos,
    // Retained (non-evictable) diagnosis substrate.
    /// One per source emission. A trace before `flushed` holds its range
    /// of the arena; a later one holds its hop count so far as `0..n`, and
    /// `outcome` is `Unresolved` until the trace has ended.
    traces: Vec<ReconstructedTrace>,
    /// The hop arena: the hops of the traces before `flushed`, grouped by
    /// trace in emission order, then the tail — every later trace's hops in
    /// forwarding order, tagged by `tail_trace`.
    hops: Vec<TraceHop>,
    tail_trace: Vec<u32>,
    flushed: usize,
    /// Traces `flushed..complete` have a final outcome, and `complete_hops`
    /// hops in the tail between them.
    complete: usize,
    complete_hops: usize,
    reads: Vec<Vec<RxBatchInfo>>,
    report: ReconstructionReport,
}

impl WindowedReconstructor {
    /// A reconstructor for `topology` with the given matching parameters.
    pub fn new(topology: &Topology, cfg: MatchConfig) -> Self {
        let n = topology.len();
        let slots = EdgeSlots::of(topology);
        let nfs = slots
            .upstreams
            .iter()
            .enumerate()
            .map(|(d, ups)| NfState {
                matcher: NfMatcher::new(ups.len()),
                sends: ups.iter().map(|_| EdgeSends::new()).collect(),
                owners: ups.iter().map(|_| EdgeOwners::default()).collect(),
                base: 0,
                rx_ts: Vec::new(),
                rx_ipid: Vec::new(),
                origin: Vec::new(),
                tx: Vec::new(),
                flows: Vec::new(),
                flows_base: 0,
                exit_count: 0,
                is_exit: topology.downstream(NfId(d as u16)).is_empty(),
            })
            .collect();
        Self {
            topo: topology.clone(),
            cfg,
            nfs,
            index: edge_indexes(slots.fan_in()),
            slots,
            order: ChunkOrder::new(topology),
            watermark: 0,
            traces: Vec::new(),
            hops: Vec::new(),
            tail_trace: Vec::new(),
            flushed: 0,
            complete: 0,
            complete_hops: 0,
            reads: vec![Vec::new(); n],
            report: ReconstructionReport::default(),
        }
    }

    /// Ingests a record bundle whose timestamps all lie below `until` and
    /// at or above the previous `until`, then decides everything the new
    /// watermark proves stable.
    pub fn ingest(&mut self, bundle: &TraceBundle, until: Nanos) -> Result<(), StreamError> {
        self.admit(bundle, until)?;
        self.advance(bundle, until)
    }

    /// Checks that a chunk fits the topology and follows the ones before
    /// it ([`ChunkOrder::admit`]).
    pub fn admit(&mut self, bundle: &TraceBundle, until: Nanos) -> Result<(), StreamError> {
        self.order.admit(bundle, until)
    }

    /// Appends an admitted chunk's records — or a time-corrected copy of
    /// them — raises the watermark to `watermark`, and decides, forwards
    /// and evicts everything that proves stable.
    pub fn advance(&mut self, bundle: &TraceBundle, watermark: Nanos) -> Result<(), StreamError> {
        for (i, log) in bundle.logs.iter().enumerate() {
            self.reads[i].reserve(log.rx.len());
            for b in log.rx.iter() {
                self.reads[i].push(RxBatchInfo {
                    ts: b.ts,
                    // A batch holds at most its log's packets, which `RxLog` keeps within u32.
                    size: b.len() as u32,
                    drained: b.drained_queue(),
                });
                let st = &mut self.nfs[i];
                st.rx_ts.extend(std::iter::repeat_n(b.ts, b.len()));
                st.rx_ipid.extend_from_slice(b.ipids);
            }
            self.nfs[i].tx.reserve(log.tx.packets());
            for b in log.tx.iter() {
                // A target the topology has no edge to (or no NF for) has
                // no column to append to: the send is a dead end.
                let edge = b.to.and_then(|d| Some((d, self.slots.of_nf(i, d)?)));
                let first = match edge {
                    Some((d, slot)) => self.nfs[d.0 as usize].push_sends(slot, b.ts, b.ipids),
                    None if b.to.is_some() => 0,
                    None => {
                        let st = &mut self.nfs[i];
                        st.exit_count += b.len() as u32;
                        st.exit_count as usize - b.len()
                    }
                };
                let positions = (first..first + b.len()).map(|p| p as u32);
                self.nfs[i].tx.extend(positions.map(|pos_within| TxSlot {
                    ts: b.ts,
                    to: b.to,
                    pos_within,
                }));
            }
            self.nfs[i].flows.extend(log.flows.iter().map(|f| f.flow));
            // What the casts above rely on, over the whole run so far: an
            // NF's batches, reads and sends are each counted in u32 (and an
            // edge position or exit count never exceeds a send count).
            let st = &self.nfs[i];
            let longest = (st.base + st.tx.len())
                .max(st.base + st.rx_ipid.len())
                .max(self.reads[i].len());
            assert!(
                u32::try_from(longest).is_ok(),
                "an NF's stream indexes must fit u32"
            );
        }
        for f in &bundle.source_flows {
            let entry = self.topo.entry_for(&f.flow);
            let Some(slot) = self.slots.of_source(entry) else {
                return Err(StreamError::MissingSourceEdge { nf: entry });
            };
            // A source emission is a send whose owner is known at once.
            assert!(
                self.traces.len() < NO_TRACE as usize,
                "trace indexes must fit u32"
            );
            let st = &mut self.nfs[entry.0 as usize];
            st.push_sends(slot, f.ts, &[f.ipid]);
            st.owners[slot].owner.push(self.traces.len() as u32);
            self.traces.push(ReconstructedTrace {
                flow: f.flow,
                emitted_at: f.ts,
                hops: 0..0,
                outcome: TraceOutcome::Unresolved,
            });
            self.report.total += 1;
        }
        self.watermark = self.watermark.max(watermark);
        self.settle(false);
        Ok(())
    }

    /// Decides and forwards everything left and returns the reconstruction
    /// plus its timelines.
    pub fn finish(mut self) -> (Reconstruction, Timelines) {
        // All records are in: decide the full rx tail of every NF; what
        // forwarding still finds undecided or unsent never resolves.
        self.settle(true);
        // No trace gets another hop: the tail is flushed whole.
        self.flush(self.traces.len());
        for st in &self.nfs {
            self.report.unmatched_rx += st.matcher.stats.unmatched_rx;
            self.report.ambiguities += st.matcher.stats.ambiguities;
        }
        self.report.unresolved =
            self.report.total - self.report.delivered - self.report.inferred_drops;
        let Self {
            topo,
            nfs,
            index,
            traces,
            hops,
            tail_trace,
            reads,
            report,
            ..
        } = self;
        // Everything evictable goes now, before the timelines allocate: a
        // field left in `self` would live to the end of this function.
        drop((nfs, index, tail_trace));
        let (paths, path_ids) = PathTrie::intern_traces(&traces, &hops, topo.len());
        let recon = Reconstruction {
            traces,
            hops,
            report,
            reads,
            paths,
            path_ids,
        };
        let timelines = Timelines::build(&recon);
        (recon, timelines)
    }

    /// The reconstruction report so far (totals settle at [`Self::finish`]).
    pub fn report(&self) -> &ReconstructionReport {
        &self.report
    }

    /// Traces whose outcome is final so far (delivered or inferred dropped;
    /// an unresolved fate is only known at [`Self::finish`]).
    pub fn committed(&self) -> usize {
        (self.report.delivered + self.report.inferred_drops) as usize
    }

    /// Bytes held by the *evictable* frontier: the rx, tx and send columns,
    /// the index over the undecided tails and the trace tags of the hop
    /// arena's unflushed tail. This is the quantity that must stay
    /// O(window); the retained diagnosis substrate (traces, hops, reads)
    /// legitimately grows with the run, and the index's IPID tables are a
    /// fixed 512 KiB per upstream slot of the widest NF.
    pub fn working_set(&self) -> usize {
        // Every field is named, here and in the `bytes` it calls: a new one
        // does not compile until it is counted or its bound is stated.
        let Self {
            index,
            tail_trace,
            nfs,
            // Fixed: what `new` was given, and the edges by upstream slot.
            topo: _,
            cfg: _,
            slots: _,
            // Retained: committed trace output, the hop arena up to the
            // flushed traces and the per-NF read batches (the timelines'
            // drain signal), all returned at `finish`.
            traces: _,
            hops: _,
            reads: _,
            report: _,
            order: _,
            watermark: _,
            flushed: _,
            complete: _,
            complete_hops: _,
        } = self;
        index.iter().map(EdgeIndex::bytes).sum::<usize>()
            + tail_trace.capacity() * std::mem::size_of::<u32>()
            + nfs.iter().map(NfState::bytes).sum::<usize>()
    }

    /// One round over the frontier: decide each NF's stable rx prefix (all
    /// of it when `finishing`), forward upstream-first so ownership crosses
    /// the whole DAG in one pass, drop what is behind the pointers.
    fn settle(&mut self, finishing: bool) {
        for i in 0..self.nfs.len() {
            self.decide_nf(i, finishing);
        }
        for k in 0..self.nfs.len() {
            let d = self.topo.topo_order()[k].0 as usize;
            self.forward_nf(d, finishing);
            self.settle_sends(d);
        }
        // Advance past the traces whose outcome is now final; flush them
        // once their hops are at least half the tail. A flush is O(tail) and
        // moves at least half of it out for good, so the flushes of a run
        // cost O(hops) together.
        while let Some(tr) = self.traces.get(self.complete) {
            if tr.outcome == TraceOutcome::Unresolved {
                break;
            }
            self.complete_hops += tr.hops.end as usize;
            self.complete += 1;
        }
        if self.complete > self.flushed && 2 * self.complete_hops >= self.tail_trace.len() {
            self.flush(self.complete);
        }
    }

    /// Flushes the traces `flushed..upto` — every hop they will ever have
    /// is in the tail — into the arena's grouped prefix ([`flush_tail`]).
    fn flush(&mut self, upto: usize) {
        flush_tail(
            &mut self.traces,
            self.flushed..upto,
            &mut self.hops,
            &mut self.tail_trace,
        );
        self.flushed = upto;
        self.complete_hops = 0;
    }

    /// Decides the stable prefix of NF `i`'s undecided rx entries (all of
    /// them when `finishing`) with the shared matcher step. An rx entry is
    /// stable once the watermark exceeds the read time (plus slack) of the
    /// last entry its decision may consult — itself for a single-upstream
    /// NF, the `lookahead`-th successor when IPID collisions can trigger
    /// playout.
    fn decide_nf(&mut self, i: usize, finishing: bool) {
        let st = &mut self.nfs[i];
        let undecided = &st.rx_ts[st.origin.len()..];
        let stable = if finishing {
            undecided.len()
        } else {
            let margin = match st.matcher.edges.len() {
                0 | 1 => 0,
                _ => self.cfg.lookahead,
            };
            let horizon = self.watermark;
            let slack = self.cfg.negative_slack_ns;
            undecided
                .iter()
                .skip(margin)
                .take_while(|ts| ts.saturating_add(slack) < horizon)
                .count()
        };
        if stable == 0 {
            return;
        }
        // Sends appended since the last round are not in the index yet, and
        // the tables are shared between NFs: re-index this NF's undecided
        // edge tails.
        for (ix, (e, sends)) in self
            .index
            .iter_mut()
            .zip(st.matcher.edges.iter().zip(&st.sends))
        {
            ix.rebuild(sends, e.cursor - e.base, e.cursor);
        }
        for _ in 0..stable {
            let k = st.origin.len();
            let chosen = st.matcher.decide(
                &mut self.index,
                &st.rx_ts,
                &st.rx_ipid,
                k,
                st.base,
                &self.cfg,
            );
            st.origin.push(Origin::new(chosen));
        }
    }

    /// Forwards NF `d`'s decided rx entries in rx order, as far as they can
    /// go: entry `j` needs the owner of the send it matched (its upstream
    /// must have forwarded that far) and tx entry `j`. Records the hop,
    /// ends the trace at an exit, hands the owner on to the tx entry's send,
    /// and drops the pairs it got through. When `finishing`, whatever is
    /// missing never arrives: an unknown owner is no owner, a missing tx
    /// entry ends the trace inside this NF.
    fn forward_nf(&mut self, d: usize, finishing: bool) {
        let mut n = 0;
        loop {
            let st = &self.nfs[d];
            let Some(&origin) = st.origin.get(n) else {
                break;
            };
            let (sender, tx) = (st.sender(origin), st.tx.get(n).copied());
            if !finishing && (sender.is_none() || tx.is_none()) {
                break;
            }
            let trace = sender.unwrap_or(NO_TRACE);
            let read_ts = st.rx_ts[n];
            n += 1;
            if trace != NO_TRACE {
                debug_assert!(trace as usize >= self.flushed, "a flushed trace got a hop");
                self.traces[trace as usize].hops.end += 1;
                self.hops
                    .push(TraceHop::new(NfId(d as u16), read_ts, tx.map(|t| t.ts)));
                self.tail_trace.push(trace);
            }
            // Read but never sent: the run ended inside this NF.
            let Some(tx) = tx else { continue };
            match tx.to {
                None if trace != NO_TRACE => {
                    let tr = &mut self.traces[trace as usize];
                    tr.outcome = TraceOutcome::Delivered(tx.ts);
                    self.report.delivered += 1;
                    // Validate against the exit flow record.
                    let recorded = (tx.pos_within as usize).checked_sub(st.flows_base);
                    if let Some(&flow) = recorded.and_then(|at| st.flows.get(at)) {
                        if st.is_exit && flow != tr.flow {
                            self.report.flow_mismatches += 1;
                        }
                    }
                }
                None => {}
                // A send to a node that is not a topology edge has no match
                // table offline either: the trace stays unresolved.
                Some(d2) => {
                    if let Some(slot) = self.slots.of_nf(d, d2) {
                        let down = &mut self.nfs[d2.0 as usize];
                        let owner = &mut down.owners[slot].owner;
                        debug_assert_eq!(
                            down.matcher.edges[slot].base + owner.len(),
                            tx.pos_within as usize
                        );
                        owner.push(trace);
                    }
                }
            }
        }
        let st = &mut self.nfs[d];
        let sent = st.tx.drain(..n.min(st.tx.len()));
        let exits = sent.filter(|t| t.to.is_none()).count().min(st.flows.len());
        st.flows.drain(..exits);
        st.flows_base += exits;
        st.rx_ts.drain(..n);
        st.rx_ipid.drain(..n);
        st.origin.drain(..n);
        st.base += n;
    }

    /// Settles NF `d`'s sends behind the edge cursors whose owner is known:
    /// a skipped one ends its trace as an inferred drop. Then drops every
    /// leading send nothing reads again — skipped, or matched to an rx
    /// entry already forwarded.
    fn settle_sends(&mut self, d: usize) {
        let st = &mut self.nfs[d];
        let edges = st.matcher.edges.iter_mut().zip(&mut st.sends);
        for ((e, sends), o) in edges.zip(&mut st.owners) {
            let upto = e.cursor.min(e.base + o.owner.len());
            for pos in o.settled..upto {
                let trace = o.owner[pos - e.base];
                if e.matched[pos - e.base] == UNMATCHED && trace != NO_TRACE {
                    self.traces[trace as usize].outcome = TraceOutcome::InferredDrop {
                        nf: NfId(d as u16),
                        at: sends.ts_at(pos - e.base),
                    };
                    self.report.inferred_drops += 1;
                }
            }
            o.settled = upto;
            let n = e.matched[..upto - e.base]
                .iter()
                .take_while(|&&m| m == UNMATCHED || (m as usize) < st.base)
                .count();
            o.owner.drain(..n);
            sends.drop_prefix(n);
            e.drop_decided(n);
        }
    }
}

/// Stably partitions the tail of `arena` — its last `tail_trace.len()`
/// elements, in forwarding order, `tail_trace[i]` the trace of the `i`-th —
/// in place: the elements of the traces in `flush` first, grouped by trace
/// in emission order, then the rest in the order they came. Each trace in
/// `flush` holds its element count as `hops.end` and gets its range of the
/// arena; no trace before `flush` is in the tail. O(tail).
fn flush_tail<T: Copy>(
    traces: &mut [ReconstructedTrace],
    flush: Range<usize>,
    arena: &mut [T],
    tail_trace: &mut Vec<u32>,
) {
    // The arena is u32-indexed, as offline: every range below fits.
    assert!(
        arena.len() <= u32::MAX as usize,
        "hop arena indexes must fit u32"
    );
    let tail = arena.len() - tail_trace.len();
    // The tail starts where the last trace flushed before ends.
    let base = flush.start.checked_sub(1).map_or(0, |t| traces[t].hops.end);
    debug_assert_eq!(base as usize, tail);
    let mut start = base;
    for tr in &mut traces[flush.clone()] {
        let n = tr.hops.end;
        tr.hops = start..start;
        start += n;
    }
    // `order[j]` is the tail index of the element that belongs at tail slot
    // `j`: each flushed trace's range end is its write head, and the rest
    // follow the flushed elements in tail order.
    let mut rest = start;
    let mut order = vec![0u32; tail_trace.len()];
    for (i, &t) in (0u32..).zip(tail_trace.iter()) {
        let head = if flush.contains(&(t as usize)) {
            &mut traces[t as usize].hops.end
        } else {
            &mut rest
        };
        order[(*head - base) as usize] = i;
        *head += 1;
    }
    gather_in_place(&mut arena[tail..], &mut order);
    tail_trace.retain(|&t| !flush.contains(&(t as usize)));
}

/// `v[j] = v[order[j]]` for every `j` at once — the gather
/// `order.iter().map(|&i| v[i])` without a second arena — walking each
/// cycle of the permutation once. `order[j] = j` marks position `j` placed.
fn gather_in_place<T: Copy>(v: &mut [T], order: &mut [u32]) {
    for j in (0u32..).take(order.len()) {
        if order[j as usize] == j {
            continue;
        }
        let first = v[j as usize];
        let mut k = j;
        loop {
            let src = order[k as usize];
            order[k as usize] = k;
            if src == j {
                v[k as usize] = first;
                break;
            }
            v[k as usize] = v[src as usize];
            k = src;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reconstruct::{assemble, match_all};
    use crate::streams::EdgeStreams;
    use msc_collector::{chunk_bundle, Collector, CollectorConfig, PacketMeta};
    use nf_types::{NfKind, Proto, SECONDS};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

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
    fn random_run(
        topo: &Topology,
        rng: &mut StdRng,
        n_packets: usize,
        truncate: bool,
    ) -> TraceBundle {
        let sink = NfId((topo.len() - 1) as u16);
        let mut c = Collector::new(topo, CollectorConfig::default());
        let mut clock: Nanos = 1_000;
        let alphabet = rng.gen_range(4..12);
        let mut q: Vec<VecDeque<PacketMeta>> = vec![VecDeque::new(); topo.len()];
        let mut emitted = 0usize;
        let budget = if truncate {
            n_packets * 3 + rng.gen_range(0..n_packets * 4)
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
            clock += rng.gen_range(1..=700);
            match rng.gen_range(0..2 + topo.len()) {
                0 | 1 if emitted < n_packets => {
                    let m = PacketMeta {
                        ipid: rng.gen_range(0..alphabet),
                        flow: FiveTuple::new(
                            0x0a00_0000 + rng.gen_range(0..40),
                            0x1400_0001,
                            1_000 + rng.gen_range(0..40),
                            443,
                            Proto::UDP,
                        ),
                    };
                    let entry = topo.entry_for(&m.flow);
                    c.record_source(clock, &m);
                    emitted += 1;
                    if rng.gen_range(0..10) != 0 {
                        q[entry.0 as usize].push_back(m); // else: ring drop
                    }
                }
                act => {
                    let i = act.saturating_sub(2) % topo.len();
                    let nf = NfId(i as u16);
                    let take = rng.gen_range(1..=3);
                    let batch: Vec<PacketMeta> =
                        (0..take).filter_map(|_| q[i].pop_front()).collect();
                    if batch.is_empty() {
                        continue;
                    }
                    c.record_rx(nf, clock, &batch);
                    if rng.gen_range(0..20) == 0 {
                        continue; // NF-internal drop of the whole batch
                    }
                    let ts2 = clock + rng.gen_range(1..=250);
                    clock = ts2;
                    if nf == sink {
                        c.record_tx(nf, ts2, None, &batch);
                        if rng.gen_range(0..15) == 0 {
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
                            if rng.gen_range(0..12) != 0 {
                                q[down.0 as usize].push_back(m); // else: ring drop
                            }
                        }
                    }
                }
            }
        }
        c.into_bundle()
    }

    /// The whole-run reconstructor, stage by stage: the oracle the engine
    /// is compared with.
    fn whole_run(topo: &Topology, bundle: &TraceBundle, cfg: &MatchConfig) -> Reconstruction {
        let cfg = ReconstructionConfig {
            matching: cfg.clone(),
        };
        let streams = EdgeStreams::build(topo, bundle);
        let matches = match_all(&streams, topo, &cfg);
        assemble(topo, bundle, streams, &matches)
    }

    fn assert_stream_matches_offline(
        topo: &Topology,
        bundle: &TraceBundle,
        cfg: &MatchConfig,
        chunk_ns: Nanos,
        tag: &str,
    ) -> ReconstructionReport {
        let off = whole_run(topo, bundle, cfg);
        let off_tl = Timelines::build(&off);
        let mut w = WindowedReconstructor::new(topo, cfg.clone());
        for chunk in chunk_bundle(bundle, chunk_ns) {
            w.ingest(&chunk.bundle, chunk.until).unwrap();
        }
        let (got, got_tl) = w.finish();
        assert_eq!(got, off, "{tag}: reconstruction");
        assert_eq!(got_tl, off_tl, "{tag}: timelines");
        off.report
    }

    /// Flips the engine committed while chunks were still coming: decided
    /// in a round that left reads buffered, so the plan the flipped
    /// decision cleared was played over reads of later chunks too.
    fn flips_before_finish(
        topo: &Topology,
        bundle: &TraceBundle,
        cfg: &MatchConfig,
        chunk_ns: Nanos,
    ) -> u64 {
        let mut w = WindowedReconstructor::new(topo, cfg.clone());
        for chunk in chunk_bundle(bundle, chunk_ns) {
            w.ingest(&chunk.bundle, chunk.until).unwrap();
        }
        w.nfs
            .iter()
            .map(|st| st.matcher.stats.ambiguity_flips)
            .sum()
    }

    /// `motifs` rounds of IPID collisions on [`diamond`], reads 1 µs apart:
    /// nat1 sends `c, a`, then nat0 sends `c, a, b`, and the VPN reads
    /// `c, a, b, a, c`. The first read's default (nat1's `c`, the earliest
    /// send) ties the alternative and stands, and its playout becomes the
    /// plan; the second read's default leaves the second `a` unexplained,
    /// so the lookahead flips it to nat0's `a` and clears that plan. With
    /// 1 µs chunks every read is a chunk of its own: the flip is decided a
    /// round after the plan it clears was played.
    fn flip_motifs(topo: &Topology, motifs: u16) -> TraceBundle {
        let mut c = Collector::new(topo, CollectorConfig::default());
        // A flow entering at each NAT.
        let flow_into = |nf: NfId| {
            (0..)
                .map(|p| FiveTuple::new(1, 2, p, 4, Proto::UDP))
                .find(|f| topo.entry_for(f) == nf)
                .unwrap()
        };
        for i in 0..motifs {
            let t = 1_000 + u64::from(i) * 10_000;
            for (nat, ipids) in [
                (1u16, &[3 * i, 3 * i + 1][..]),
                (0, &[3 * i, 3 * i + 1, 3 * i + 2]),
            ] {
                let flow = flow_into(NfId(nat));
                let batch: Vec<PacketMeta> = ipids
                    .iter()
                    .map(|&ipid| PacketMeta { ipid, flow })
                    .collect();
                let sent = t + 10 * u64::from(2 - nat);
                for m in &batch {
                    c.record_source(sent - 5, m);
                }
                c.record_rx(NfId(nat), sent - 2, &batch);
                c.record_tx(NfId(nat), sent, Some(NfId(2)), &batch);
            }
            let at = |k: u64| t + 5_000 + 1_000 * k;
            for (k, (nat, ipid)) in [
                (1, 3 * i),
                (1, 3 * i + 1),
                (0, 3 * i + 2),
                (0, 3 * i + 1),
                (0, 3 * i),
            ]
            .into_iter()
            .enumerate()
            {
                let m = PacketMeta {
                    ipid,
                    flow: flow_into(NfId(nat)),
                };
                c.record_rx(NfId(2), at(k as u64), &[m]);
                c.record_tx(NfId(2), at(k as u64) + 100, None, &[m]);
            }
        }
        c.into_bundle()
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
            // No timing channel: a delay bound longer than any run (the
            // ablation's "no timing" variant).
            MatchConfig {
                delay_bound_ns: 10 * SECONDS,
                ..Default::default()
            },
        ]
    }

    #[test]
    fn streamed_equals_offline_on_random_diamond_runs() {
        let mut totals = ReconstructionReport::default();
        for seed in 0..14u64 {
            let topo = diamond();
            let mut rng = StdRng::seed_from_u64(0x5eed_0001 ^ (seed * 0x9e37_79b9));
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
    fn streamed_equals_offline_when_flips_span_chunks() {
        let topo = diamond();
        let bundle = flip_motifs(&topo, 40);
        for cfg in &sweep_configs() {
            for chunk_ns in [1_000, 2_500, 60_000, Nanos::MAX] {
                let tag = format!("motifs chunk {chunk_ns} lookahead {}", cfg.lookahead);
                assert_stream_matches_offline(&topo, &bundle, cfg, chunk_ns, &tag);
            }
        }
        let cfg = MatchConfig {
            lookahead: 3,
            ..Default::default()
        };
        let streams = EdgeStreams::build(&topo, &bundle);
        let rcfg = ReconstructionConfig {
            matching: cfg.clone(),
        };
        let vpn = match_all(&streams, &topo, &rcfg)[2].stats;
        // Two collisions a motif; the second flips. After the flip the
        // second `a` is nat1's, which the cleared plan had left unmatched,
        // and only the last `c` finds no send.
        let counts = (vpn.ambiguities, vpn.ambiguity_flips, vpn.unmatched_rx);
        assert_eq!(counts, (80, 40, 40));
        // Each is committed before `finish`, while the chunks come.
        assert_eq!(flips_before_finish(&topo, &bundle, &cfg, 1_000), 40);
    }

    #[test]
    fn streamed_equals_offline_on_random_chain_runs() {
        for seed in 0..10u64 {
            let topo = chain3();
            let mut rng = StdRng::seed_from_u64(0xc4a1 ^ (seed * 0x0123_4567));
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

    /// Decisions behind the watermark are final, so a chunk from behind it
    /// — swapped, replayed, or a whole stream reversed — must be refused,
    /// not matched against a frontier that has moved on.
    #[test]
    fn out_of_order_and_duplicate_chunks_are_refused() {
        let topo = diamond();
        let bundle = random_run(&topo, &mut StdRng::seed_from_u64(0x0dd_c0de), 80, false);
        let chunks = chunk_bundle(&bundle, 7_000);
        assert!(chunks.len() > 4, "{} chunks", chunks.len());
        let feed = |order: &[usize]| {
            let mut w = WindowedReconstructor::new(&topo, MatchConfig::default());
            order
                .iter()
                .try_for_each(|&i| w.ingest(&chunks[i].bundle, chunks[i].until))
        };
        let all: Vec<usize> = (0..chunks.len()).collect();
        assert_eq!(feed(&all), Ok(()));

        let refused = |order: &[usize], until: Nanos, watermark: Nanos| match feed(order) {
            Err(StreamError::OutOfOrderChunk {
                until: u,
                watermark: w,
                late,
            }) => {
                assert_eq!((u, w), (until, watermark), "{order:?}");
                late
            }
            other => panic!("{order:?} was not refused: {other:?}"),
        };
        let (u1, u2) = (chunks[1].until, chunks[2].until);
        // Swapped neighbours: the late chunk is named with its oldest record.
        let late = refused(&[0, 2, 1], u1, u2);
        assert!(matches!(late, Some((_, ts)) if ts < u1), "{late:?}");
        // The same chunk twice.
        refused(&[0, 1, 1], u1, u1);
        // A reversed stream fails at its second chunk.
        let last = chunks.len() - 1;
        refused(
            &[last, last - 1],
            chunks[last - 1].until,
            chunks[last].until,
        );

        // A larger `until` does not excuse a record from behind the watermark…
        let mut w = WindowedReconstructor::new(&topo, MatchConfig::default());
        w.ingest(&chunks[0].bundle, chunks[0].until).unwrap();
        w.ingest(&chunks[1].bundle, chunks[1].until).unwrap();
        let stale = w.ingest(&chunks[0].bundle, u2);
        assert!(
            matches!(
                stale,
                Err(StreamError::OutOfOrderChunk { late: Some(_), .. })
            ),
            "{stale:?}"
        );
        assert!(stale
            .unwrap_err()
            .to_string()
            .contains("before the watermark"));
        // …while a record-free chunk that only moves the watermark is legal.
        let empty = Collector::new(&topo, CollectorConfig::default()).into_bundle();
        assert_eq!(w.ingest(&empty, u2), Ok(()));
        assert_eq!(w.ingest(&chunks[3].bundle, chunks[3].until), Ok(()));
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
            w.ingest(&chunk.bundle, chunk.until).unwrap();
        }
        let (got, _) = w.finish();
        assert_eq!(
            got.traces[0].outcome,
            TraceOutcome::InferredDrop { nf: vpn, at: 2_000 }
        );
        assert_eq!(got.traces[2].outcome, TraceOutcome::Delivered(late + 1_700));
        let (arrival, vpn_hop) = got.hops_with_arrival(2).last().unwrap();
        assert_eq!(vpn_hop.nf, vpn);
        assert_eq!(arrival, late + 1_000);
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
    /// working set materially, nor the longest unflushed tail of the hop
    /// arena.
    #[test]
    fn working_set_is_bounded_by_frontier_not_run_length() {
        let peak = |n_packets: usize| {
            let topo = chain3();
            let mut rng = StdRng::seed_from_u64(0xb0b0_cafe);
            let bundle = random_run(&topo, &mut rng, n_packets, false);
            let mut w = WindowedReconstructor::new(&topo, MatchConfig::default());
            let (mut peak, mut tail) = (0usize, 0usize);
            for chunk in chunk_bundle(&bundle, 5_000) {
                w.ingest(&chunk.bundle, chunk.until).unwrap();
                peak = peak.max(w.working_set());
                tail = tail.max(w.tail_trace.len());
            }
            let total = w.report().total;
            let (recon, _) = w.finish();
            assert_eq!(recon.report.total, total);
            (peak, tail, recon.hops.len())
        };
        let (small, small_tail, small_hops) = peak(100);
        let (large, large_tail, large_hops) = peak(400);
        assert!(
            large < small.max(1) * 3,
            "frontier grew with run length: {small} -> {large}"
        );
        assert!(
            large_hops > 3 * small_hops,
            "{small_hops} -> {large_hops} hops"
        );
        assert!(
            large_tail < small_tail.max(1) * 3,
            "tail grew with run length: {small_tail} -> {large_tail} hops"
        );
    }

    /// Traces that stay open while the run goes on: the first one emitted
    /// waits in the ring of an NF that reads nothing until late in the run,
    /// one is read by an NF that never sends again (its rx entry never gets
    /// a tx entry), and one is sent mid-run to a node the topology has no
    /// edge to. Each keeps every later trace in the tail until it ends, or
    /// until `finish`; streamed must still equal offline at every chunk
    /// size.
    #[test]
    fn traces_held_open_keep_the_tail_and_stream_equals_offline() {
        let mut b = Topology::builder();
        let n0 = b.add_nf(NfKind::Nat, "nat0");
        let n1 = b.add_nf(NfKind::Nat, "nat1");
        let n2 = b.add_nf(NfKind::Nat, "nat2");
        let vpn = b.add_nf(NfKind::Vpn, "vpn1");
        for nat in [n0, n1, n2] {
            b.add_entry(nat);
            b.add_edge(nat, vpn);
        }
        let topo = b.build().unwrap();
        // A packet whose flow enters at `entry`; every call a new flow.
        let mut sport = 0u16;
        let mut packet = |entry: NfId, ipid: Ipid| loop {
            sport += 1;
            let flow = FiveTuple::new(0x0a00_0001, 0x1400_0001, sport, 443, Proto::UDP);
            if topo.entry_for(&flow) == entry {
                break PacketMeta { ipid, flow };
            }
        };
        #[derive(Clone, Copy)]
        enum Ev {
            Source,
            Rx(NfId),
            Tx(NfId, Option<NfId>),
        }
        let mut events: Vec<(Nanos, Ev, PacketMeta)> = Vec::new();
        // 80 packets through nat0 and the VPN, 10 µs apart.
        for i in 0..80 {
            let (t, m) = (10_000 + Nanos::from(i) * 10_000, packet(n0, i + 1));
            events.extend([
                (t, Ev::Source, m),
                (t + 1_000, Ev::Rx(n0), m),
                (t + 2_000, Ev::Tx(n0, Some(vpn)), m),
                (t + 3_000, Ev::Rx(vpn), m),
                (t + 4_000, Ev::Tx(vpn, None), m),
            ]);
        }
        // Emitted first; nat1 reads nothing before 500 µs.
        let stalled = packet(n1, 1_000);
        events.extend([
            (5_000, Ev::Source, stalled),
            (500_500, Ev::Rx(n1), stalled),
            (501_000, Ev::Tx(n1, Some(vpn)), stalled),
            (501_500, Ev::Rx(vpn), stalled),
            (502_000, Ev::Tx(vpn, None), stalled),
        ]);
        // Sent by nat0 to nat2, which it has no edge to.
        let stray = packet(n0, 1_001);
        events.extend([
            (400_500, Ev::Source, stray),
            (401_500, Ev::Rx(n0), stray),
            (402_500, Ev::Tx(n0, Some(n2)), stray),
        ]);
        // Read by nat2, which never sends anything.
        let unsent = packet(n2, 1_002);
        let with_unsent = |emitted: Nanos| {
            let mut c = Collector::new(&topo, CollectorConfig::default());
            let mut all = events.clone();
            all.push((emitted, Ev::Source, unsent));
            all.push((emitted + 500, Ev::Rx(n2), unsent));
            all.sort_by_key(|ev| ev.0);
            for (t, ev, m) in all {
                match ev {
                    Ev::Source => c.record_source(t, &m),
                    Ev::Rx(nf) => c.record_rx(nf, t, &[m]),
                    Ev::Tx(nf, to) => c.record_tx(nf, t, to, &[m]),
                }
            }
            c.into_bundle()
        };

        // Emitted before nearly every other trace, or after the stray one.
        for unsent_at in [7_000, 600_500] {
            let bundle = with_unsent(unsent_at);
            for cfg in &sweep_configs() {
                for chunk_ns in [1_000, 3_000, 20_000, 100_000, Nanos::MAX] {
                    let tag = format!("unsent at {unsent_at}, chunk {chunk_ns}");
                    assert_stream_matches_offline(&topo, &bundle, cfg, chunk_ns, &tag);
                }
            }
            // A small lookahead, so the VPN's decisions keep up with the run.
            let cfg = MatchConfig {
                lookahead: 3,
                ..Default::default()
            };
            let off = whole_run(&topo, &bundle, &cfg);
            let index = |m: PacketMeta| off.traces.iter().position(|t| t.flow == m.flow).unwrap();
            let (s, y, u) = (index(stalled), index(stray), index(unsent));
            assert_eq!(s, 0);
            assert_eq!(off.traces[s].outcome, TraceOutcome::Delivered(502_000));
            assert_eq!(off.traces[y].outcome, TraceOutcome::Unresolved);
            assert_eq!(off.hops_of(y)[0].sent_ts(), Some(402_500));
            assert_eq!(off.traces[u].outcome, TraceOutcome::Unresolved);
            assert_eq!(off.hops_of(u)[0].sent_ts(), None);
            assert_eq!(off.report.delivered, 81);
            // Where the flushes stop before `finish`: at the unsent trace
            // when it comes second (the stalled one alone never holds half
            // the tail), else at the stray one once the stalled one is in.
            let mut w = WindowedReconstructor::new(&topo, cfg);
            for chunk in chunk_bundle(&bundle, 1_000) {
                w.ingest(&chunk.bundle, chunk.until).unwrap();
            }
            assert_eq!(w.flushed, if u == 1 { 0 } else { y }, "{unsent_at}");
            assert!(w.tail_trace.iter().all(|&t| t as usize >= w.flushed));
            assert_eq!(w.finish().0, off, "{unsent_at}");
        }
    }

    /// The flush is its plain definition: over rounds of hops appended
    /// with random trace tags, each flushed at a random completeness cut,
    /// the arena is the flushed traces' hops grouped in emission order,
    /// then the rest of the tail in forwarding order, and each flushed
    /// trace's range holds exactly its own hops.
    #[test]
    fn tail_flush_groups_the_complete_prefix_and_keeps_the_rest_in_order() {
        for case in 0..96u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = rng.gen_range(0..60u32);
            let mut traces: Vec<ReconstructedTrace> = (0..n)
                .map(|_| ReconstructedTrace {
                    flow: FiveTuple::new(1, 2, 3, 4, Proto::UDP),
                    emitted_at: 0,
                    hops: 0..0,
                    outcome: TraceOutcome::Unresolved,
                })
                .collect();
            let (mut arena, mut tail_trace) = (Vec::<u64>::new(), Vec::<u32>::new());
            // The model: the grouped prefix with each trace's range, and
            // the tail as (trace, hop) pairs.
            let (mut grouped, mut ranges, mut tail) = (Vec::new(), Vec::new(), Vec::new());
            let mut flushed = 0;
            while flushed < n {
                for _ in 0..rng.gen_range(0..80) {
                    let (t, hop) = (rng.gen_range(flushed..n), rng.gen::<u64>());
                    traces[t as usize].hops.end += 1;
                    arena.push(hop);
                    tail_trace.push(t);
                    tail.push((t, hop));
                }
                let upto = match rng.gen_range(0..4) {
                    0 => n,
                    _ => rng.gen_range(flushed..=n),
                };
                for t in flushed..upto {
                    let start = grouped.len();
                    grouped.extend(tail.iter().filter(|h| h.0 == t).map(|h| h.1));
                    ranges.push(start..grouped.len());
                }
                tail.retain(|h| h.0 >= upto);
                let cut = flushed as usize..upto as usize;
                flush_tail(&mut traces, cut, &mut arena, &mut tail_trace);
                flushed = upto;

                let want: Vec<u64> = grouped
                    .iter()
                    .copied()
                    .chain(tail.iter().map(|h| h.1))
                    .collect();
                assert_eq!(arena, want, "case {case}, flushed {flushed}");
                let tags: Vec<u32> = tail.iter().map(|h| h.0).collect();
                assert_eq!(tail_trace, tags, "case {case}, flushed {flushed}");
                for (tr, r) in traces.iter().zip(&ranges) {
                    let got = tr.hops.start as usize..tr.hops.end as usize;
                    assert_eq!(got, *r, "case {case}, flushed {flushed}");
                }
            }
        }
    }
}
