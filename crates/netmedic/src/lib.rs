//! Baselines for the evaluation: a NetMedic-style time-window correlation
//! tool (the paper's main comparison) and a PerfSight-style persistent-
//! bottleneck analyser ([`perfsight`], the §8 contrast for transient vs
//! persistent problems).
//!
//! A NetMedic-style time-window correlation baseline (Kandula et al.,
//! SIGCOMM 2009), adapted to NF chains exactly as §6.1 of the Microscope
//! paper describes: components are NF instances (plus the traffic source),
//! edges follow the NF DAG, and each component exposes per-window resource
//! and traffic variables (CPU use, input/output rates, queue length,
//! drops).
//!
//! The diagnosis is history-based correlation:
//!
//! * a component is *abnormal* in a window when a variable deviates from its
//!   own history;
//! * the weight of edge `S → D` "now" is computed by finding the historical
//!   windows where `S` looked most like it does now and checking whether
//!   `D` also looked like it does now (if yes, `S`'s state plausibly
//!   explains `D`'s);
//! * a culprit's score for a victim component is its abnormality times the
//!   strongest product-of-edge-weights path to the victim.
//!
//! Its fundamental limitation — the reason Microscope beats it in the
//! paper — is the fixed time window: microsecond-scale events whose impact
//! propagates milliseconds later (Fig. 15) fall outside any single good
//! window size.

#![forbid(unsafe_code)]

pub mod diagnose;
pub mod perfsight;
pub mod state;

pub use diagnose::{NetMedic, NetMedicConfig, RankedComponent};
pub use perfsight::{Bottleneck, ElementCounters, PerfSight};
pub use state::{ComponentState, History, Metric, METRIC_COUNT};
