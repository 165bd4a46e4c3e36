//! The pre-rewrite AutoFocus aggregation, kept as the naive reference of
//! `tests/equivalence.rs`; nothing in the library reaches it.
//!
//! `cluster.rs` and `hierarchy.rs` are the function bodies of
//! `autofocus::{cluster, hierarchy}` as they stood before candidates were
//! enumerated from the items: every kept value of every dimension crossed
//! with every other (millions of candidates for forty items), stably sorted
//! by specificity and swept over the unclaimed items. `pattern.rs` is the
//! two-phase driver over that `aggregate_side`.

pub mod cluster;
pub mod hierarchy;
pub mod pattern;
