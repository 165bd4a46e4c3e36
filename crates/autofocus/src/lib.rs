//! AutoFocus-style hierarchical heavy-hitter aggregation (§4.4 of the
//! paper, after Estan, Savage & Varghese, SIGCOMM'03).
//!
//! Microscope produces one packet-level causal relation per (culprit packet,
//! victim packet) pair — tens of thousands per run. Operators need a handful
//! of *patterns*: `<culprit flow aggregate, culprit location> → <victim flow
//! aggregate, victim location>: score`. This crate turns the relations into
//! patterns:
//!
//! * [`hierarchy`] — exact one-dimensional hierarchical heavy hitters over
//!   each generalisation ladder (IPv4 prefix bit-by-bit, exact port →
//!   static range → wildcard, exact protocol → wildcard, NF instance → NF
//!   kind → anywhere);
//! * [`cluster`] — multi-dimensional clustering of one side (flow ×
//!   location): candidates are the combinations of unidimensionally
//!   significant values that match at least one item, compressed
//!   most-specific-first with descendant-score exclusion;
//! * [`pattern`] — the paper's two-phase decoupling: aggregate victims per
//!   culprit first, then aggregate the culprit side, which keeps the
//!   12-dimensional problem tractable. Includes the adaptive port-range
//!   merging the paper lists as a future optimisation.

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

pub mod cluster;
pub mod hierarchy;
pub mod pattern;

pub use cluster::{aggregate_side, ClusterConfig, Location, LocationAgg, SideAggregate};
pub use pattern::{
    aggregate_patterns, merge_adjacent_port_patterns, CausalRelation, Pattern, PatternConfig,
};
