//! Cross-NF packet matching: aligning a downstream NF's read stream with
//! its upstream NFs' send streams.
//!
//! For a downstream NF `d`, the packets it reads are exactly the packets its
//! upstream nodes sent to it (path channel). Each upstream's sends arrive in
//! order (per-edge FIFO ⇒ order channel) minus any dropped at a full ring,
//! and each packet is read no earlier than it was sent and no later than the
//! maximum queueing delay (timing channel). Crucially, FIFO holds *per
//! edge*: the interleaving of different upstreams at the ring is not exactly
//! observable (sends can carry equal timestamps), so the matcher keeps an
//! independent cursor per upstream edge rather than assuming a global merge
//! order.
//!
//! For every rx entry the matcher finds, per upstream, the first
//! not-yet-consumed send with the same IPID inside the timing window (an
//! O(log n) lookup via a per-IPID position index). One candidate ⇒ match.
//! Multiple candidates ⇒ the Fig. 9 situation: bounded lookahead plays each
//! choice forward and keeps the one that leaves more of the *following* rx
//! entries alignable. The earliest-send default's playout is kept as a
//! plan that later entries commit from, so an entry is played once however
//! many collisions before it look at it. Sends skipped behind a same-edge
//! match are inferred drops; sends never reached stay unresolved (in flight
//! at the end of the run).

use crate::streams::EdgeStreams;
use nf_types::{Ipid, Nanos, NfId, NodeId, Topology};
use std::collections::VecDeque;

/// Size of the IPID value space (`Ipid` is `u16`): the per-edge index is a
/// dense counting-sort table over all 2^16 values.
const IPID_SPACE: usize = 1 << 16;

/// What happened to the `pos`-th packet sent on an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchOutcome {
    /// It was read by the downstream NF as rx entry `rx_idx`.
    Matched(u32),
    /// It never appears downstream although later same-edge packets do — it
    /// was dropped at the full input ring.
    InferredDrop,
    /// The run ended (or matching failed) before its fate was visible.
    Unresolved,
}

/// Matching configuration.
#[derive(Debug, Clone)]
pub struct MatchConfig {
    /// Maximum send→read delay considered possible (queueing + stalls).
    pub delay_bound_ns: Nanos,
    /// Lookahead depth used to break IPID collisions.
    pub lookahead: usize,
    /// How far a read may appear *before* its send and still be eligible.
    /// 0 on a single clock; set to a few hundred µs on skew-corrected
    /// multi-server bundles, where residual clock error can invert
    /// closely-spaced timestamps.
    pub negative_slack_ns: Nanos,
    /// Disable to ablate the order side channel (§5): IPID collisions are
    /// then broken by earliest send time alone, with no lookahead.
    pub use_order_channel: bool,
}

impl Default for MatchConfig {
    fn default() -> Self {
        Self {
            delay_bound_ns: 50 * nf_types::MILLIS,
            lookahead: 48,
            negative_slack_ns: 0,
            use_order_channel: true,
        }
    }
}

/// Tallies of how matching went (reported per run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// rx entries successfully attributed to an upstream send.
    pub matched: u64,
    /// rx entries with no eligible upstream candidate (should be 0).
    pub unmatched_rx: u64,
    /// upstream sends inferred dropped at the downstream ring.
    pub inferred_drops: u64,
    /// IPID collisions (multiple eligible candidates) that needed lookahead.
    pub ambiguities: u64,
    /// Collisions where lookahead overrode the earliest-send candidate.
    pub ambiguity_flips: u64,
}

/// The full matching result for one downstream NF.
#[derive(Debug)]
pub struct EdgeMatch {
    /// The upstream nodes in slot order ([`Topology::upstream_nodes`] order)
    /// — the index order of the per-edge outcomes.
    pub upstreams: Vec<NodeId>,
    /// Per upstream slot: what happened to every edge position.
    outcomes: Vec<EdgeOutcomes>,
    /// Matching statistics.
    pub stats: MatchStats,
}

impl EdgeMatch {
    /// The per-position outcomes of the edge from `node`, if it exists.
    pub fn outcome(&self, node: NodeId) -> Option<&EdgeOutcomes> {
        self.upstreams
            .iter()
            .position(|&u| u == node)
            .map(|slot| &self.outcomes[slot])
    }

    /// The per-position outcomes of the edge in upstream slot `slot`.
    pub fn outcome_slot(&self, slot: usize) -> Option<&EdgeOutcomes> {
        self.outcomes.get(slot)
    }
}

/// The fate of every position of one upstream edge: the matcher's own
/// four-byte `matched` column and final cursor, read as [`MatchOutcome`]s —
/// a position holds the rx index it matched, and an unmatched one is an
/// inferred drop behind the cursor (a later same-edge packet overtook it,
/// impossible in FIFO) and unresolved at or past it.
#[derive(Debug)]
pub struct EdgeOutcomes {
    matched: Vec<u32>,
    cursor: usize,
}

// The per-position match state is the sentinel's type: four bytes.
const _: () = assert!(std::mem::size_of_val(&UNMATCHED) == 4);

impl EdgeOutcomes {
    /// Number of positions on the edge.
    pub fn len(&self) -> usize {
        self.matched.len()
    }

    /// True for an edge nothing was sent on.
    pub fn is_empty(&self) -> bool {
        self.matched.is_empty()
    }

    fn read(&self, pos: usize, matched: u32) -> MatchOutcome {
        match matched {
            UNMATCHED if pos < self.cursor => MatchOutcome::InferredDrop,
            UNMATCHED => MatchOutcome::Unresolved,
            rx_idx => MatchOutcome::Matched(rx_idx),
        }
    }

    /// What happened to the `pos`-th packet sent on the edge.
    pub fn get(&self, pos: usize) -> Option<MatchOutcome> {
        self.matched.get(pos).map(|&m| self.read(pos, m))
    }

    /// Every position's outcome, in edge order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = MatchOutcome> + '_ {
        self.matched
            .iter()
            .enumerate()
            .map(|(pos, &m)| self.read(pos, m))
    }
}

/// One IPID's run in an [`IpidRuns`]: `pos[begin..end]`. Zeroed = no run.
#[derive(Clone, Copy, Default)]
pub(crate) struct Run {
    begin: u32,
    end: u32,
}

/// Stream positions grouped by IPID, built by a stable counting sort:
/// positions with the same IPID form a contiguous, position-ascending
/// *run*, so a lookup is a bounded scan / `partition_point` over a flat
/// slice — no hashing, no per-IPID `Vec`s. Runs are laid out in order of
/// first appearance, which needs no pass over the 2^16 IPID values: building
/// costs two passes over the entries, whether they are a whole run's or one
/// chunk's. The matcher keeps one per upstream edge ([`EdgeIndex`]).
pub(crate) struct IpidRuns {
    /// Run boundaries per IPID. A fixed-size boxed array so `u16` IPID
    /// indexing needs no bounds check; begin and end share a cache line.
    run: Box<[Run; IPID_SPACE]>,
    /// Stream positions grouped by IPID, ascending within each run.
    pos: Vec<u32>,
    /// Timestamp of each `pos` entry, copied inline so the check after a
    /// run probe stays on the cache lines the probe just touched instead of
    /// a scattered load from the stream.
    ts: Vec<Nanos>,
}

impl IpidRuns {
    /// An index over no positions.
    #[allow(
        clippy::unreachable,
        reason = "a boxed slice of IPID_SPACE elements converts to a boxed [_; IPID_SPACE]"
    )]
    fn empty() -> Self {
        let run = match vec![Run::default(); IPID_SPACE]
            .into_boxed_slice()
            .try_into()
        {
            Ok(b) => b,
            // The vec is allocated with exactly IPID_SPACE elements.
            Err(_) => unreachable!("boxed slice length mismatch"),
        };
        Self {
            run,
            pos: Vec::new(),
            ts: Vec::new(),
        }
    }

    /// Fills an index whose run table is all zero: `entries` are the
    /// stream's positions `first..first + entries.len()` in order.
    fn fill(
        &mut self,
        entries: impl ExactSizeIterator<Item = (Nanos, Ipid)> + Clone,
        first: usize,
    ) {
        let n = entries.len();
        assert!(
            u32::try_from(first + n).is_ok(),
            "stream of {} positions must fit u32",
            first + n
        );
        // Histogram into `begin`, then one stable scatter that opens a run
        // the first time its IPID shows up: `end` is the run's write head,
        // zero exactly until its first entry lands (the head is then >= 1).
        for (_, id) in entries.clone() {
            self.run[id as usize].begin += 1;
        }
        self.pos.clear();
        self.pos.resize(n, 0);
        self.ts.clear();
        self.ts.resize(n, 0);
        let mut free = 0u32;
        for (p, (t, id)) in entries.enumerate() {
            let run = &mut self.run[id as usize];
            if run.end == 0 {
                let len = run.begin;
                (run.begin, run.end) = (free, free);
                free += len;
            }
            self.pos[run.end as usize] = (first + p) as u32;
            self.ts[run.end as usize] = t;
            run.end += 1;
        }
    }

    /// Zeroes the runs of `ipids`: with every indexed IPID listed, the
    /// table is ready for [`Self::fill`] again.
    fn clear(&mut self, ipids: &[Ipid]) {
        for &id in ipids {
            self.run[id as usize] = Run::default();
        }
    }

    /// The index range of `ipid`'s run within `pos` / `ts`.
    #[inline]
    fn run_of(&self, ipid: Ipid) -> std::ops::Range<usize> {
        let run = self.run[ipid as usize];
        run.begin as usize..run.end as usize
    }
}

/// Sentinel in [`EdgeState::matched`]: position not matched to any rx.
pub(crate) const UNMATCHED: u32 = u32::MAX;

/// The sends of one upstream edge as flat columns indexed by edge position:
/// what the matcher indexes and the clock-skew estimator pairs. Offline
/// [`EdgeStreams::build`] writes the whole run here straight from the tx
/// batches; the streaming reconstructor appends per chunk and drops the
/// prefix it has consumed.
#[derive(Debug)]
pub struct EdgeSends {
    /// Send timestamp per retained position.
    ts: Vec<Nanos>,
    /// IPID per retained position.
    ipid: Vec<Ipid>,
}

// The per-send columns: ten bytes a position.
const _: () = assert!(std::mem::size_of::<Nanos>() == 8 && std::mem::size_of::<Ipid>() == 2);

impl EdgeSends {
    /// Columns holding no send.
    pub(crate) const fn new() -> Self {
        Self {
            ts: Vec::new(),
            ipid: Vec::new(),
        }
    }

    /// Columns with room for exactly `n` sends.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self {
            ts: Vec::with_capacity(n),
            ipid: Vec::with_capacity(n),
        }
    }

    /// Number of retained sends.
    pub(crate) fn len(&self) -> usize {
        self.ts.len()
    }

    /// Appends one batch: every packet of it was sent at `ts`.
    pub(crate) fn push_batch(&mut self, ts: Nanos, ipids: &[Ipid]) {
        self.ts.extend(std::iter::repeat_n(ts, ipids.len()));
        self.ipid.extend_from_slice(ipids);
    }

    /// Send timestamp at column offset `at`.
    pub(crate) fn ts_at(&self, at: usize) -> Nanos {
        self.ts[at]
    }

    /// The retained `(ts, ipid)` entries in edge order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (Nanos, Ipid)> + Clone + '_ {
        self.ts.iter().copied().zip(self.ipid.iter().copied())
    }

    /// Drops the first `n` retained sends.
    pub(crate) fn drop_prefix(&mut self, n: usize) {
        self.ts.drain(..n);
        self.ipid.drain(..n);
    }

    /// Bytes held by the columns.
    pub(crate) fn bytes(&self) -> usize {
        use std::mem::size_of;
        let Self { ts, ipid } = self;
        ts.capacity() * size_of::<Nanos>() + ipid.capacity() * size_of::<Ipid>()
    }
}

/// The matcher's committed state on one upstream edge, indexed by edge
/// position like the edge's [`EdgeSends`]. Offline the column covers the
/// whole run; the streaming reconstructor drops the prefix it has consumed
/// in lockstep with the sends, so column index = position − `base`.
#[derive(Default)]
pub(crate) struct EdgeState {
    /// Position of the first retained column entry (0 offline).
    pub(crate) base: usize,
    /// Matched rx index per retained position ([`UNMATCHED`] = skipped if
    /// behind `cursor`, not reached yet otherwise).
    pub(crate) matched: Vec<u32>,
    /// Next unconsumed position: everything before it is decided.
    pub(crate) cursor: usize,
}

impl EdgeState {
    /// Bytes held by the matched column.
    pub(crate) fn bytes(&self) -> usize {
        let Self {
            matched,
            base: _,
            cursor: _,
        } = self;
        matched.capacity() * std::mem::size_of::<u32>()
    }

    /// Drops the first `n` retained positions (all behind the cursor).
    pub(crate) fn drop_decided(&mut self, n: usize) {
        debug_assert!(self.base + n <= self.cursor);
        self.matched.drain(..n);
        self.base += n;
    }
}

/// The per-IPID index over the undecided tail of one edge's [`EdgeSends`]
/// (positions `cursor..end` at build time). Holds positions, not column
/// offsets, so it stays valid while the edge's consumed prefix is dropped;
/// it goes stale only when sends are appended.
///
/// Each run's `begin` doubles as a lazily-advancing per-IPID hint: no entry
/// before it is at or past the edge's committed `cursor`. A commit moves
/// the matched IPID's hint past the matched position
/// ([`EdgeIndex::consume`]); the edge cursor never moves back, so each run
/// entry is stepped over at most once over the whole match.
pub(crate) struct EdgeIndex {
    /// Positions and send timestamps grouped by IPID.
    runs: IpidRuns,
    /// The IPIDs indexed, to clear exactly their runs on the next rebuild.
    indexed: Vec<Ipid>,
}

impl EdgeIndex {
    pub(crate) fn new() -> Self {
        Self {
            runs: IpidRuns::empty(),
            indexed: Vec::new(),
        }
    }

    /// Re-indexes the undecided tail of an edge — `sends` from column
    /// offset `from`, which is edge position `first` — reusing the tables:
    /// work proportional to the old and the new tail, not to the IPID
    /// space.
    pub(crate) fn rebuild(&mut self, sends: &EdgeSends, from: usize, first: usize) {
        self.runs.clear(&self.indexed);
        self.indexed.clear();
        self.indexed.extend_from_slice(&sends.ipid[from..]);
        let tail = sends.ts[from..].iter().copied();
        self.runs
            .fill(tail.zip(self.indexed.iter().copied()), first);
    }

    /// Bytes held by the run arrays, refilled with the edge's undecided
    /// tail at every rebuild.
    pub(crate) fn bytes(&self) -> usize {
        use std::mem::size_of;
        let Self {
            runs:
                IpidRuns {
                    pos,
                    ts,
                    // Fixed: 512 KiB, allocated once.
                    run: _,
                },
            indexed,
        } = self;
        ts.capacity() * size_of::<Nanos>()
            + pos.capacity() * size_of::<u32>()
            + indexed.capacity() * size_of::<Ipid>()
    }

    /// Moves `ipid`'s hint past the entries before `cursor`, the edge's
    /// committed cursor once a read with `ipid` has matched below it.
    fn consume(&mut self, cursor: usize, ipid: Ipid) {
        let run = &mut self.runs.run[ipid as usize];
        let mut c = run.begin;
        while c < run.end && (self.runs.pos[c as usize] as usize) < cursor {
            c += 1;
        }
        run.begin = c;
    }

    /// First position `>= cursor` with `ipid` — `cursor` the edge's
    /// committed cursor or a speculative one past it — if it was sent at or
    /// before `read_ts` and within the delay bound. Returns the position and
    /// its send timestamp.
    ///
    /// The matcher's one index lookup: per edge, once for every step of the
    /// plan (each read is played once, however many collisions look at it),
    /// for every step of a non-default candidate's playout, and for the
    /// candidates of a collision whose default the plan does not settle.
    /// Cursors sit at most a playout's worth of matches past the per-IPID
    /// hint, so the galloping lower bound lands in 1–3 probes for the
    /// common case instead of the ~log₂(tail) a plain binary search pays on
    /// these long, heavily-reused IPID runs.
    fn candidate_from(
        &self,
        cursor: usize,
        ipid: Ipid,
        read_ts: Nanos,
        cfg: &MatchConfig,
    ) -> Option<(usize, Nanos)> {
        let lo = self.runs.run[ipid as usize].begin as usize;
        let run = &self.runs.pos[self.runs.run_of(ipid)];
        let i = gallop_lower_bound(run, cursor as u32);
        let &pos = run.get(i)?;
        let sent = self.runs.ts[lo + i];
        window_ok(sent, read_ts, cfg).then_some((pos as usize, sent))
    }
}

/// Galloping lower bound: first index with `xs[i] >= key` in an ascending
/// slice — `xs.partition_point(|&x| x < key)`, probing at exponentially
/// growing offsets from the front before settling the boundary by binary
/// search. The matcher's speculative cursors sit near the start of the run
/// tail, so they resolve in 1–3 probes instead of log₂(len): one of the two
/// hand-written primitives measured to beat their stdlib equivalent end to
/// end (DESIGN.md §9).
fn gallop_lower_bound(xs: &[u32], key: u32) -> usize {
    if xs.first().is_none_or(|&x| x >= key) {
        return 0;
    }
    // xs[0] < key: gallop to an exclusive probe bound past the boundary.
    let mut prev = 0usize;
    let mut bound = 1usize;
    while bound < xs.len() && xs[bound] < key {
        prev = bound;
        bound *= 2;
    }
    let hi = bound.min(xs.len());
    // Boundary is in (prev, hi].
    prev + 1 + xs[prev + 1..hi].partition_point(|&x| x < key)
}

/// Timing-channel check on a candidate's send timestamp.
#[inline]
fn window_ok(sent: Nanos, read_ts: Nanos, cfg: &MatchConfig) -> bool {
    sent <= read_ts.saturating_add(cfg.negative_slack_ns)
        && read_ts.saturating_sub(sent) <= cfg.delay_bound_ns
}

/// One greedy step of a playout: the earliest-send candidate of one read
/// over every upstream edge — `(send ts, edge slot, position)`, the lowest
/// key on a tie — and how many edges had a candidate at all.
#[derive(Clone, Copy)]
struct Step {
    best: Option<(Nanos, usize, usize)>,
    candidates: usize,
}

impl Step {
    /// Plays the read (`read_ts`, `ipid`) from the per-edge `cursors`,
    /// moving the chosen edge's cursor past its candidate.
    #[inline]
    fn play(
        index: &[EdgeIndex],
        cursors: &mut [usize],
        read_ts: Nanos,
        ipid: Ipid,
        cfg: &MatchConfig,
    ) -> Self {
        let mut step = Step {
            best: None,
            candidates: 0,
        };
        for (slot, ix) in index.iter().enumerate() {
            if let Some((pos, sent)) = ix.candidate_from(cursors[slot], ipid, read_ts, cfg) {
                step.candidates += 1;
                let key = (sent, slot, pos);
                if step.best.is_none_or(|b| key < b) {
                    step.best = Some(key);
                }
            }
        }
        if let Some((_, slot, pos)) = step.best {
            cursors[slot] = pos + 1;
        }
        step
    }
}

/// Greedy alignment score used to break collisions: with the given per-edge
/// cursors, how many of the next `depth` rx entries match greedily
/// (earliest-send candidate, no nested ambiguity handling)?
///
/// `beat` is the branch-and-bound floor: once even a perfect tail
/// (`score + remaining`) cannot exceed it, the playout stops. Selection
/// only replaces the incumbent on a *strictly* greater score, so an
/// abandoned playout — whose true score is bounded by the returned one plus
/// the skipped remainder, i.e. `<= beat` — could never have won; the chosen
/// candidate (and every downstream output) is identical to the unpruned
/// walk.
fn lookahead_score(
    index: &[EdgeIndex],
    cursors: &mut [usize],
    rx_ts: &[Nanos],
    rx_ipid: &[Ipid],
    depth: usize,
    cfg: &MatchConfig,
    beat: usize,
) -> usize {
    let mut score = 0;
    let mut remaining = depth.min(rx_ts.len());
    for (&read_ts, &ipid) in rx_ts.iter().zip(rx_ipid).take(depth) {
        if score + remaining <= beat {
            return score;
        }
        remaining -= 1;
        if Step::play(index, cursors, read_ts, ipid, cfg)
            .best
            .is_some()
        {
            score += 1;
        }
    }
    score
}

/// The resumable matcher of one downstream NF: its committed state on each
/// upstream edge in slot order, the running tallies, the greedy plan ahead
/// of the committed cursors, and the buffers [`Self::decide`] reuses so the
/// per-rx step never allocates. The sends themselves ([`EdgeSends`]) and the
/// index over them stay with the driver. Both reconstructors drive it:
/// offline indexes the whole run and decides every rx entry in one go; the
/// streaming one appends a chunk, decides the prefix its watermark proves
/// stable and comes back with the next chunk.
pub(crate) struct NfMatcher {
    /// Upstream edges in slot order ([`Topology::upstream_nodes`] order).
    pub(crate) edges: Vec<EdgeState>,
    pub(crate) stats: MatchStats,
    /// The greedy steps of the reads from the next undecided one on, played
    /// from the committed cursors: the default playout of every ambiguity
    /// among them. Valid while commits follow it; a flip clears it.
    plan: VecDeque<Step>,
    /// The per-edge cursors after the last step of `plan`.
    plan_cursors: Vec<usize>,
    /// (send ts, edge slot, pos) candidates for the current rx entry.
    cands: Vec<(Nanos, usize, usize)>,
    /// Speculative per-edge cursors for one lookahead playout.
    cursors: Vec<usize>,
}

impl NfMatcher {
    /// Bytes held by the edges' matched columns.
    pub(crate) fn bytes(&self) -> usize {
        let Self {
            edges,
            stats: _,
            // Fixed: at most `lookahead + 1` steps, one cursor and at most
            // one candidate per upstream edge.
            plan: _,
            plan_cursors: _,
            cands: _,
            cursors: _,
        } = self;
        edges.iter().map(EdgeState::bytes).sum()
    }

    /// A matcher over `n_edges` empty upstream edges.
    pub(crate) fn new(n_edges: usize) -> Self {
        Self {
            edges: (0..n_edges).map(|_| EdgeState::default()).collect(),
            stats: MatchStats::default(),
            plan: VecDeque::new(),
            plan_cursors: Vec::with_capacity(n_edges),
            cands: Vec::with_capacity(n_edges),
            cursors: Vec::with_capacity(n_edges),
        }
    }

    /// Plays the plan on until it holds `len` steps: those of the entries
    /// `rx_ts` / `rx_ipid` start with, the plan's first entry on.
    fn extend_plan(
        &mut self,
        index: &[EdgeIndex],
        rx_ts: &[Nanos],
        rx_ipid: &[Ipid],
        len: usize,
        cfg: &MatchConfig,
    ) {
        while self.plan.len() < len {
            let j = self.plan.len();
            let cursors = &mut self.plan_cursors;
            let step = Step::play(index, cursors, rx_ts[j], rx_ipid[j], cfg);
            self.plan.push_back(step);
        }
    }

    /// Decides rx entry `k` of the `rx_ts` / `rx_ipid` columns, recorded
    /// under the flat rx index `rx_base + k`: finds its candidate on every
    /// edge (`index[slot]` must cover `edges[slot]`'s undecided tail), breaks
    /// a collision by playing each choice forward over the entries after
    /// `k`, and commits the winner —
    /// `matched`, the edge cursor, the tallies. Positions the cursor jumps
    /// over stay [`UNMATCHED`] behind it: inferred drops. Returns the chosen
    /// `(edge slot, position)`, `None` when no edge has an eligible send.
    ///
    /// Entries are decided in order, each once: the plan's first step is
    /// entry `k`'s. The default candidate's playout is the plan itself, so
    /// an entry the plan covers costs no lookup, and the other candidates
    /// are played only when the plan falls short of a perfect score.
    pub(crate) fn decide(
        &mut self,
        index: &mut [EdgeIndex],
        rx_ts: &[Nanos],
        rx_ipid: &[Ipid],
        k: usize,
        rx_base: usize,
        cfg: &MatchConfig,
    ) -> Option<(usize, usize)> {
        let (read_ts, ipid) = (rx_ts[k], rx_ipid[k]);
        let (rest_ts, rest_ipid) = (&rx_ts[k + 1..], &rx_ipid[k + 1..]);
        let index = &mut index[..self.edges.len()];
        if self.plan.is_empty() {
            self.plan_cursors.clear();
            self.plan_cursors
                .extend(self.edges.iter().map(|e| e.cursor));
        }
        self.extend_plan(index, &rx_ts[k..], &rx_ipid[k..], 1, cfg);
        let step = self.plan[0];
        // The plan now starts at entry `k + 1`, the default's playout.
        self.plan.pop_front();
        let chosen = match (step.candidates, step.best) {
            (_, None) => None,
            (1, only) => only,
            // Earliest send is the FIFO-plausible default...
            (_, Some(default)) if !cfg.use_order_channel => {
                // Ablated: no lookahead, timing only.
                self.stats.ambiguities += 1;
                Some(default)
            }
            // ...but let bounded lookahead overrule it (Fig. 9).
            (_, Some(default)) => {
                self.stats.ambiguities += 1;
                // Playout scores never exceed the rx entries actually
                // available, so a candidate that aligns every one of them
                // cannot be strictly beaten — the others are played only
                // while the best falls short (they could at most tie, which
                // never flips the selection).
                let max_achievable = cfg.lookahead.min(rest_ts.len());
                self.extend_plan(index, rest_ts, rest_ipid, max_achievable, cfg);
                let mut best = default;
                let mut best_score = self
                    .plan
                    .range(..max_achievable)
                    .filter(|s| s.best.is_some())
                    .count();
                if best_score < max_achievable {
                    self.cands.clear();
                    for (slot, (e, ix)) in self.edges.iter().zip(index.iter()).enumerate() {
                        if let Some((pos, sent)) = ix.candidate_from(e.cursor, ipid, read_ts, cfg) {
                            // Capacity is the edge count, reserved at
                            // construction.
                            self.cands.push((sent, slot, pos));
                        }
                    }
                    self.cands.sort_unstable();
                    debug_assert_eq!(self.cands.first(), Some(&default));
                    for &cand in &self.cands[1..] {
                        if best_score == max_achievable {
                            break;
                        }
                        self.cursors.clear();
                        self.cursors.extend(self.edges.iter().map(|e| e.cursor));
                        self.cursors[cand.1] = cand.2 + 1;
                        let s = lookahead_score(
                            index,
                            &mut self.cursors,
                            rest_ts,
                            rest_ipid,
                            cfg.lookahead,
                            cfg,
                            best_score,
                        );
                        if s > best_score {
                            best_score = s;
                            best = cand;
                        }
                    }
                }
                if best != default {
                    self.stats.ambiguity_flips += 1;
                    // The plan played the default: it no longer follows
                    // from the committed cursors.
                    self.plan.clear();
                }
                Some(best)
            }
        };
        let Some((_, slot, pos)) = chosen else {
            self.stats.unmatched_rx += 1;
            return None;
        };
        index[slot].consume(pos + 1, ipid);
        let e = &mut self.edges[slot];
        e.matched[pos - e.base] = (rx_base + k) as u32;
        e.cursor = pos + 1;
        self.stats.matched += 1;
        Some((slot, pos))
    }
}

/// Matches the rx stream of `down` against its upstream edge streams:
/// index everything, decide every rx entry, classify every edge position.
pub fn match_downstream(
    streams: &EdgeStreams,
    topology: &Topology,
    down: NfId,
    cfg: &MatchConfig,
) -> EdgeMatch {
    debug_assert_eq!(streams.upstreams(down), topology.upstream_nodes(down));
    let mut index = edge_indexes(streams.upstreams(down).len());
    match_nf(streams, down, cfg, &mut index)
}

/// One empty [`EdgeIndex`] per upstream slot of an NF with `fan_in`
/// upstreams: the 512 KiB tables a match over any number of NFs reuses.
pub(crate) fn edge_indexes(fan_in: usize) -> Vec<EdgeIndex> {
    (0..fan_in).map(|_| EdgeIndex::new()).collect()
}

/// [`match_downstream`] over borrowed index tables (at least one per
/// upstream slot of `down`; whatever they indexed before is cleared).
pub(crate) fn match_nf(
    streams: &EdgeStreams,
    down: NfId,
    cfg: &MatchConfig,
    index: &mut [EdgeIndex],
) -> EdgeMatch {
    let nf = &streams.nfs[down.0 as usize];
    assert!(
        u32::try_from(nf.rx_ts.len()).is_ok(),
        "rx stream of {} entries must fit u32",
        nf.rx_ts.len()
    );
    let upstreams = streams.upstreams(down).to_vec();
    let mut m = NfMatcher::new(upstreams.len());
    // The sends are matched where `EdgeStreams::build` wrote them; only
    // the four-byte match state is this call's own.
    for (slot, (e, ix)) in m.edges.iter_mut().zip(index.iter_mut()).enumerate() {
        let sends = streams.edge(down, slot);
        e.matched = vec![UNMATCHED; sends.len()];
        ix.rebuild(sends, 0, 0);
    }
    for k in 0..nf.rx_ts.len() {
        m.decide(index, &nf.rx_ts, &nf.rx_ipid, k, 0, cfg);
    }

    // Positions behind an edge's final cursor that never matched were
    // dropped. The matcher's columns are the result: `matched` moves out as
    // it is. Slot order is the upstream build order.
    let mut stats = m.stats;
    let mut outcomes = Vec::with_capacity(m.edges.len());
    for e in &mut m.edges {
        stats.inferred_drops += e.matched[..e.cursor]
            .iter()
            .filter(|&&m| m == UNMATCHED)
            .count() as u64;
        outcomes.push(EdgeOutcomes {
            matched: std::mem::take(&mut e.matched),
            cursor: e.cursor,
        });
    }

    EdgeMatch {
        upstreams,
        outcomes,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_collector::{Collector, CollectorConfig, PacketMeta};
    use nf_types::{FiveTuple, NfKind, Proto, Topology};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    // Keys before, inside and past the run; duplicate positions never
    // occur in a real run but the boundary must hold with them too.
    #[test]
    fn gallop_is_the_partition_point() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let mut run: Vec<u32> = (0..rng.gen_range(0..80))
                .map(|_| rng.gen_range(0..500))
                .collect();
            let key = rng.gen_range(0..520);
            run.sort_unstable();
            assert_eq!(
                gallop_lower_bound(&run, key),
                run.partition_point(|&p| p < key),
                "case {case}: key {key} in {run:?}"
            );
        }
    }

    #[test]
    fn gallop_boundaries_on_empty_short_and_long_runs() {
        assert_eq!(gallop_lower_bound(&[], 0), 0);
        assert_eq!(gallop_lower_bound(&[], u32::MAX), 0);
        // Lengths around the doubling probes 1, 2, 4, 8, …; every key from
        // before the run to past its end, on strictly ascending positions
        // (a real run) and on an all-equal one.
        for len in [1u32, 2, 3, 4, 5, 7, 8, 9, 16, 17, 100] {
            let ramp: Vec<u32> = (0..len).map(|i| 10 + 3 * i).collect();
            let flat = vec![10; len as usize];
            for run in [&ramp, &flat] {
                for key in 0..=10 + 3 * len + 1 {
                    assert_eq!(
                        gallop_lower_bound(run, key),
                        run.partition_point(|&p| p < key),
                        "len={len} key={key}"
                    );
                }
            }
        }
    }

    /// Per rx entry of the matched NF: the upstream node and edge position
    /// it was matched to, read back from the per-edge outcomes.
    fn rx_origin(m: &EdgeMatch) -> Vec<Option<(NodeId, usize)>> {
        let mut origin = vec![None; m.stats.matched as usize + m.stats.unmatched_rx as usize];
        for &node in &m.upstreams {
            for (pos, out) in m.outcome(node).unwrap().iter().enumerate() {
                if let MatchOutcome::Matched(rx_idx) = out {
                    origin[rx_idx as usize] = Some((node, pos));
                }
            }
        }
        origin
    }

    /// source -> nat1, nat2 -> vpn (two upstreams into one downstream).
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

    fn meta(ipid: u16) -> PacketMeta {
        PacketMeta {
            ipid,
            flow: FiveTuple::new(1, 2, 3, 4, Proto::TCP),
        }
    }

    #[test]
    fn simple_two_upstream_merge() {
        let t = topo();
        let mut c = Collector::new(&t, CollectorConfig::default());
        // nat1 sends ipids 1,2 at t=100,200; nat2 sends 3 at t=150.
        c.record_tx(NfId(0), 100, Some(NfId(2)), &[meta(1)]);
        c.record_tx(NfId(1), 150, Some(NfId(2)), &[meta(3)]);
        c.record_tx(NfId(0), 200, Some(NfId(2)), &[meta(2)]);
        // vpn reads them in arrival order.
        c.record_rx(NfId(2), 300, &[meta(1), meta(3), meta(2)]);
        let s = EdgeStreams::build(&t, &c.into_bundle());
        let m = match_downstream(&s, &t, NfId(2), &MatchConfig::default());
        assert_eq!(m.stats.matched, 3);
        assert_eq!(m.stats.unmatched_rx, 0);
        assert_eq!(rx_origin(&m)[0], Some((NodeId::Nf(NfId(0)), 0)));
        assert_eq!(rx_origin(&m)[1], Some((NodeId::Nf(NfId(1)), 0)));
        assert_eq!(rx_origin(&m)[2], Some((NodeId::Nf(NfId(0)), 1)));
    }

    #[test]
    fn fig9_ambiguity_resolved_by_order() {
        // The paper's Fig. 9: both upstreams send IPID 5; upstream 1 also
        // sends IPID 3 *after* its 5. If the downstream reads 5,3,...,5 then
        // the first 5 must be upstream 1's (else 3 would precede it).
        let t = topo();
        let mut c = Collector::new(&t, CollectorConfig::default());
        // nat2's 5 is sent *earlier*, so earliest-send alone would pick the
        // wrong origin; only the order argument fixes it.
        c.record_tx(NfId(1), 90, Some(NfId(2)), &[meta(5), meta(8)]);
        c.record_tx(NfId(0), 100, Some(NfId(2)), &[meta(5), meta(3)]);
        c.record_rx(NfId(2), 300, &[meta(5), meta(3), meta(5), meta(8)]);
        let s = EdgeStreams::build(&t, &c.into_bundle());
        let m = match_downstream(&s, &t, NfId(2), &MatchConfig::default());
        assert_eq!(m.stats.matched, 4);
        assert_eq!(m.stats.unmatched_rx, 0);
        assert_eq!(m.stats.inferred_drops, 0);
        assert_eq!(rx_origin(&m)[0], Some((NodeId::Nf(NfId(0)), 0)));
        assert_eq!(rx_origin(&m)[1], Some((NodeId::Nf(NfId(0)), 1)));
        assert_eq!(rx_origin(&m)[2], Some((NodeId::Nf(NfId(1)), 0)));
        assert!(m.stats.ambiguities >= 1);
        assert!(m.stats.ambiguity_flips >= 1, "lookahead had to overrule");
    }

    #[test]
    fn timing_channel_rejects_stale_candidates() {
        let t = topo();
        let mut c = Collector::new(&t, CollectorConfig::default());
        // nat1 sent ipid 7 far in the past (beyond the delay bound), then
        // nat2 sends ipid 7 close to the read.
        c.record_tx(NfId(0), 100, Some(NfId(2)), &[meta(7)]);
        c.record_tx(NfId(1), 80 * nf_types::MILLIS, Some(NfId(2)), &[meta(7)]);
        c.record_rx(NfId(2), 80 * nf_types::MILLIS + 500, &[meta(7)]);
        let s = EdgeStreams::build(&t, &c.into_bundle());
        let m = match_downstream(&s, &t, NfId(2), &MatchConfig::default());
        // The stale candidate is rejected; the fresh one matches. The stale
        // send stays unresolved (no later nat1 packet proves a drop).
        assert_eq!(rx_origin(&m)[0], Some((NodeId::Nf(NfId(1)), 0)));
        assert_eq!(
            m.outcome(NodeId::Nf(NfId(0))).unwrap().get(0),
            Some(MatchOutcome::Unresolved)
        );
    }

    #[test]
    fn dropped_packet_inferred_from_gap() {
        let t = topo();
        let mut c = Collector::new(&t, CollectorConfig::default());
        // nat1 sends 1,2,3; downstream only reads 1,3 (2 was dropped).
        c.record_tx(NfId(0), 100, Some(NfId(2)), &[meta(1), meta(2), meta(3)]);
        c.record_rx(NfId(2), 200, &[meta(1), meta(3)]);
        let s = EdgeStreams::build(&t, &c.into_bundle());
        let m = match_downstream(&s, &t, NfId(2), &MatchConfig::default());
        let out: Vec<MatchOutcome> = m.outcome(NodeId::Nf(NfId(0))).unwrap().iter().collect();
        assert_eq!(out[0], MatchOutcome::Matched(0));
        assert_eq!(out[1], MatchOutcome::InferredDrop);
        assert_eq!(out[2], MatchOutcome::Matched(1));
    }

    #[test]
    fn trailing_sends_stay_unresolved() {
        let t = topo();
        let mut c = Collector::new(&t, CollectorConfig::default());
        c.record_tx(NfId(0), 100, Some(NfId(2)), &[meta(1), meta(2)]);
        // Run ended: downstream only read the first packet.
        c.record_rx(NfId(2), 200, &[meta(1)]);
        let s = EdgeStreams::build(&t, &c.into_bundle());
        let m = match_downstream(&s, &t, NfId(2), &MatchConfig::default());
        let out: Vec<MatchOutcome> = m.outcome(NodeId::Nf(NfId(0))).unwrap().iter().collect();
        assert_eq!(out[0], MatchOutcome::Matched(0));
        assert_eq!(out[1], MatchOutcome::Unresolved);
        assert_eq!(m.stats.inferred_drops, 0);
    }

    #[test]
    fn equal_timestamp_sends_from_different_upstreams() {
        // Two upstreams send different ipids at the *same* instant; the
        // downstream happens to read them in the "wrong" node order. With
        // per-edge cursors this must still match cleanly (the old global-
        // merge approach wrongly inferred a drop here).
        let t = topo();
        let mut c = Collector::new(&t, CollectorConfig::default());
        c.record_tx(NfId(0), 100, Some(NfId(2)), &[meta(1)]);
        c.record_tx(NfId(1), 100, Some(NfId(2)), &[meta(2)]);
        c.record_rx(NfId(2), 200, &[meta(2), meta(1)]);
        let s = EdgeStreams::build(&t, &c.into_bundle());
        let m = match_downstream(&s, &t, NfId(2), &MatchConfig::default());
        assert_eq!(m.stats.matched, 2);
        assert_eq!(m.stats.inferred_drops, 0);
        assert_eq!(m.stats.unmatched_rx, 0);
        assert_eq!(rx_origin(&m)[0], Some((NodeId::Nf(NfId(1)), 0)));
        assert_eq!(rx_origin(&m)[1], Some((NodeId::Nf(NfId(0)), 0)));
    }

    #[test]
    fn source_edge_matches_entry_nf() {
        let t = topo();
        let mut c = Collector::new(&t, CollectorConfig::default());
        let f1 = FiveTuple::new(10, 2, 30, 4, Proto::TCP);
        let f2 = FiveTuple::new(11, 2, 31, 4, Proto::TCP);
        let e1 = t.entry_for(&f1);
        c.record_source(100, &PacketMeta { ipid: 1, flow: f1 });
        c.record_source(110, &PacketMeta { ipid: 2, flow: f2 });
        c.record_rx(e1, 200, &[PacketMeta { ipid: 1, flow: f1 }]);
        let s = EdgeStreams::build(&t, &c.into_bundle());
        let m = match_downstream(&s, &t, e1, &MatchConfig::default());
        assert_eq!(rx_origin(&m)[0].unwrap().0, NodeId::Source);
        assert_eq!(m.stats.matched, 1);
    }
}
