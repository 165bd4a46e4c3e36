//! The Microscope runtime data collector.
//!
//! This is the reproduction of the ~200-LoC DPDK instrumentation of §5 of the
//! paper: hooks on the receive and transmit functions of every NF record,
//! per batch, a timestamp, the batch size and the IPIDs of the packets in the
//! batch ([`records`]). Only the *last* NF of the graph (and the traffic
//! source, which knows what it offered) records full five-tuples; interior
//! NFs record two-byte IPIDs, which is what makes the ~2-byte/packet
//! footprint possible ([`encode`]) and what forces the offline
//! reconstruction to disambiguate IPID collisions.
//!
//! The paper pushes records into a shared-memory ring drained by a
//! standalone dumper thread; the simulator is single-threaded, so here the
//! hooks append to per-NF logs directly and the collector's per-packet cost
//! is charged to NF service time so the §6.2 overhead experiment is
//! meaningful ([`Collector::batch_overhead_ns`]).

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

pub mod bundle_io;
pub mod collector;
pub mod encode;
pub mod records;

pub use bundle_io::{
    chunk_bundle, concat_chunks, load_bundle, read_bundle, save_bundle, save_bundle_chunked,
    write_bundle, write_bundle_chunked, BundleChunk, BundleChunkReader, BundleIoError, ChunkSource,
    WholeRunReader,
};
pub use collector::{Collector, CollectorConfig, NfLog, TraceBundle};
pub use encode::{decode_nf_log, encode_nf_log, EncodeError, Section};
pub use records::{FlowRecord, PacketMeta, RxBatch, RxLog, TxBatch, TxLog, MAX_BATCH};
