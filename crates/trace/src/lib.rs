//! Trace reconstruction (§5 of the paper), whole-run and chunk by chunk.
//!
//! The collector's records are deliberately lossy: interior NFs identify
//! packets only by their 16-bit IPID, so two packets with the same IPID can
//! be confused. This crate rebuilds the per-packet journeys across the DAG
//! using the paper's three side channels:
//!
//! 1. **Paths** — a downstream NF's input can only contain packets sent by
//!    its direct upstream NFs (and the source, whose load-balancer hash the
//!    operator knows), so matching only ever considers those streams
//!    ([`streams`]).
//! 2. **Timing** — a packet is read after it was sent upstream and within a
//!    bounded queueing delay, so candidates outside the delay bound are
//!    rejected ([`matching`]).
//! 3. **Order** — NF rings are FIFO, so the read sequence at a downstream NF
//!    is an order-preserving merge of its upstream send sequences with
//!    dropped packets removed; matching is therefore an ordered alignment,
//!    which is how the Fig. 9 ambiguity is resolved ([`matching`]).
//!
//! The per-rx matching decision exists once ([`matching`]) and one engine
//! drives it: [`windowed`] appends time-ordered chunks to the matcher's
//! columns, decides the reads its watermark proves stable and drops what it
//! has consumed. `microscope diagnose` and `stream` feed it chunks read from
//! a file; [`reconstruct()`] feeds it a bundle in memory, cut into
//! `diagnose`'s [`DIAGNOSE_WINDOW_MS`] windows, and is what the figures, the
//! examples and the tests call. The whole-run stages
//! ([`EdgeStreams::build`] → [`match_all`] → [`assemble`], which index a
//! whole run and decide every read) have two readers left: the equivalence
//! suites, which spell them out as the engine's independent oracle, and the
//! frozen benchmark harness. The engine and the stages return the same
//! [`Reconstruction`] for the same records.
//!
//! On top of the per-packet traces, [`timeline`] builds what the diagnosis
//! core actually consumes: per-NF arrival/read/send timelines and the
//! *queuing periods* inferred from the batch-size signal (a read of fewer
//! than [`msc_collector::MAX_BATCH`] packets means the ring was drained).

#![forbid(unsafe_code)]
// The panic-surface gate (DESIGN.md §6): operator-facing code returns typed
// errors; `assert!` contract checks are the only sanctioned panics.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod matching;
pub mod reconstruct;
pub mod skew;
pub mod streams;
pub mod timeline;
pub mod windowed;

pub use matching::{
    match_downstream, EdgeMatch, EdgeOutcomes, EdgeSends, MatchConfig, MatchOutcome, MatchStats,
};
pub use reconstruct::{
    assemble, match_all, PathTrie, ReconstructedTrace, Reconstruction, ReconstructionConfig,
    ReconstructionReport, TraceHop, TraceOutcome, PATH_ROOT,
};
pub use skew::{
    correct_bundle, estimate_offsets_refined, estimate_offsets_refined_detailed, OffsetSettler,
    SkewConfig, SkewEstimates,
};
pub use streams::{EdgeStreams, NfStreams, RxBatchInfo, TxHop, TxNext};
pub use timeline::{Arrival, ArrivalKind, NfTimeline, QueuingPeriod, Timelines};
pub use windowed::{
    reconstruct, ChunkOrder, StreamError, WindowedReconstructor, DIAGNOSE_WINDOW_MS,
};
