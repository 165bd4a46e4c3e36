//! Microscope: queue-based performance diagnosis for network functions.
//!
//! This crate is the paper's primary contribution (§3–§4). Given the
//! reconstructed traces and per-NF timelines from [`msc_trace`], it answers
//! *why* a packet suffered — which NFs, which flows, and how the blame
//! propagated through queues:
//!
//! 1. **Victim selection** ([`victim`]) — packets with abnormal local
//!    performance at an NF (delay beyond one standard deviation of that
//!    NF's recent history, §4.1) or packets that were dropped.
//! 2. **Local diagnosis** ([`local`]) — over the victim's queuing period of
//!    length `T`, split the queue build-up into an input score
//!    `Si = max(0, n_i − r_i·T)` and a processing score `Sp` (eqs. 1–2);
//!    `Si + Sp` equals the queue length the victim found.
//! 3. **Propagation diagnosis** ([`propagation`]) — trace the PreSet packets
//!    (everything that arrived during the queuing period) back through the
//!    DAG and attribute `Si` to upstream nodes by how much each *squeezed
//!    the timespan* of those packets (§4.2), with the paper's cancellation
//!    rule for NFs that stretched it back out.
//! 4. **Recursive diagnosis** ([`diagnose`]) — an upstream NF that squeezed
//!    the timespan is itself diagnosed over its own queuing period (§4.3),
//!    splitting its share into local and input parts, until the source is
//!    reached or no positive input score remains.
//! 5. **Pattern aggregation** — the per-victim culprits convert into
//!    [`autofocus::CausalRelation`]s and aggregate into the ranked causal
//!    patterns of §4.4 ([`report`]).

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

pub mod cache;
pub mod diagnose;
pub mod index;
pub mod local;
pub mod propagation;
pub mod report;
pub mod victim;

pub use cache::{CacheStats, DiagnosisCache, DiagnosisStep, StepKey};
pub use diagnose::{Culprit, CulpritKind, Diagnosis, DiagnosisConfig, Microscope};
pub use index::DiagnosisIndex;
pub use local::{local_scores, LocalScores};
pub use propagation::{
    attribute_upstream, attribute_upstream_with, credit_walk, UpstreamScratch, UpstreamShare,
};
pub use report::{diagnoses_to_relations, sample_relations, SampledRelations};
pub use victim::{find_victims, LatencyThreshold, Victim, VictimConfig, VictimKind};
