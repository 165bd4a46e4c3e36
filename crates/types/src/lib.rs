//! Shared vocabulary types for the Microscope reproduction.
//!
//! Everything downstream — the simulator, the runtime collector, the offline
//! trace reconstruction and the diagnosis core — speaks in terms of the types
//! defined here: nanosecond timestamps ([`Nanos`]), packets and their
//! [`FiveTuple`] flow keys, NF identities ([`NfId`], [`NfKind`]) and the
//! [`Topology`] DAG that connects traffic sources to NF instances.
//!
//! The crate has no dependencies, so that every other crate in the workspace
//! can depend on it without cycles.

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
// Lossy casts (DESIGN.md §6): this crate owns the NF id space, so a count or id
// that does not fit its type is a typed error, never a silent truncation.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod flow;
pub mod nf;
pub mod packet;
pub mod time;
pub mod topology;
pub mod topology_text;

pub use flow::{fmt_ip, parse_ip, FiveTuple, FlowAggregate, PortRange, Prefix, Proto, ProtoMatch};
pub use nf::{NfId, NfKind, NodeId};
pub use packet::{Ipid, Packet, PacketId};
pub use time::{Interval, Nanos, TimeDelta, MICROS, MILLIS, SECONDS};
pub use topology::{paper_topology, NfInfo, Topology, TopologyBuilder, TopologyError};
pub use topology_text::{emit_topology, parse_topology, TopologyTextError};
