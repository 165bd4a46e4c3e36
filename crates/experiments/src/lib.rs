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
//! Each figure or table is a function in [`figures`] that returns the rows
//! and series the paper reports and its CSVs. The `figures` binary runs
//! them by name, or all of them, and writes each as `<name>.txt` plus its
//! CSVs under `results/`; `tests/golden.rs` checks every one against
//! checked-in goldens.

#![forbid(unsafe_code)]

mod accuracy;
pub mod cli;
pub mod figures;
pub mod inject;
pub mod netmedic_adapter;
pub mod runner;
pub mod scoring;
mod series;
