//! Experiment harness reproducing every table and figure of the Microscope
//! paper (see DESIGN.md §3 for the experiment index).
//!
//! The harness ties the whole system together: synthesise traffic
//! (`nf-traffic`), inject known problems ([`inject`]), simulate the NF
//! chain (`nf-sim`), reconstruct traces from the collector bundle with the
//! windowed engine `microscope diagnose` runs, in its windows
//! (`msc_trace::reconstruct`), run Microscope (`microscope`) and the
//! NetMedic baseline (`netmedic`, fed by [`netmedic_adapter`]), and score
//! both tools against the injected ground truth ([`scoring`]).
//!
//! Each `src/bin/*.rs` binary regenerates one figure or table and prints
//! the same rows/series the paper reports (plus CSV output under
//! `results/`).

#![forbid(unsafe_code)]

pub mod accuracy;
pub mod cli;
pub mod inject;
pub mod netmedic_adapter;
pub mod runner;
pub mod scoring;
pub mod series;

pub use cli::Args;
pub use inject::{InjectionPlan, PlanConfig};
pub use netmedic_adapter::build_history;
pub use runner::{run_spec, RunResult, RunSpec};
pub use scoring::{rank_cdf, score_run, ScoredVictim};
