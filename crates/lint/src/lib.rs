//! `msc-lint` — the workspace's project-specific static-analysis pass.
//!
//! Rust's own tooling cannot see the invariants this reproduction lives and
//! dies by: clippy is happy with `for (k, v) in &map` even when the float
//! roll-up inside the loop makes the report depend on `HashMap` iteration
//! order (the PR 1 autofocus bug), and with `rx_ts - offset` even when a
//! skew-corrected offset makes the unsigned subtraction wrap (the PR 1 skew
//! bug). `msc-lint` encodes those shipped-and-fixed bug classes as hard
//! `cargo`-time errors:
//!
//! * **R1 order-sensitivity** — unordered-map iteration in output-producing
//!   crates must sort or be annotated order-insensitive.
//! * **R2 saturating time arithmetic** — bare `+`/`-` on timestamps.
//! * **R3 lossy casts** — `as u8`/`as u16`/`as u32` on wire quantities.
//! * **R9 bounded frontier** — growable collections on streaming-scope
//!   structs must be registered in `frontier-manifest.toml` with a
//!   verified eviction path (or a `fixed`/`retained` claim).
//! * **R10 float determinism** — float accumulation in output-producing
//!   crates requires a `// float: canonical-order(reason)` justification.
//!
//! Everything else the crate once checked is checked harder elsewhere
//! (DESIGN.md §6 has the ledger): the panic surface by clippy's restriction
//! lints denied on the pipeline crates' roots, `unsafe` by
//! `#![forbid(unsafe_code)]`, wire-format parity by the golden-bytes and
//! round-trip tests, clock reads reaching stdout by the golden reports.
//!
//! The crate is dependency-free: a small comment/string-aware lexer
//! ([`lexer`]) feeds per-rule token-stream visitors ([`rules`]); on top of
//! the lexer, [`parse`] extracts structs, fns and an intra-file call map for
//! the one item-aware rule ([`frontier`] R9); [`driver`] walks the workspace
//! and applies the frontier manifest.

#![forbid(unsafe_code)]

pub mod driver;
pub mod findings;
pub mod frontier;
pub mod lexer;
pub mod parse;
pub mod rules;

pub use driver::{lint_source, module_key, run, DriverError, LintRun};
pub use findings::{sort_findings, to_json, Finding, RuleId};
pub use frontier::{Bound, FrontierManifest};
pub use rules::FileCtx;
