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
//! * **R4 panic surface** — `unwrap`/`expect` in library code, ratcheted
//!   down by `lint-baseline.toml`.
//! * **R5 unsafe audit** — `unsafe` requires a `// SAFETY:` comment.
//! * **R9 bounded frontier** — growable collections on streaming-scope
//!   structs must be registered in `frontier-manifest.toml` with a
//!   verified eviction path (or a `fixed`/`retained` claim).
//! * **R10 float determinism** — float accumulation in output-producing
//!   crates requires a `// float: canonical-order(reason)` justification.
//! * **R11 wire parity** — paired encode/decode fns in the wire-format
//!   crates must touch struct fields in the same order and count.
//! * **R12 hot-path alloc** — fns registered in `hotpath-manifest.toml`
//!   must not transitively reach an allocating call through the workspace
//!   call graph (waived per-site with `// alloc: amortized(reason)`).
//! * **R13 panic-free kernels** — registered hot fns must not reach
//!   `panic!`/`unwrap`/`expect`/`unreachable!`.
//! * **R14 determinism taint** — nondeterminism sources must not flow
//!   through the call graph into wire writers or report builders.
//!
//! The crate is dependency-free: a small comment/string-aware lexer
//! ([`lexer`]) feeds per-rule token-stream visitors ([`rules`]); on top of
//! the lexer, [`parse`] extracts items (structs, fns, impls) and a call
//! map for the item-aware rules ([`frontier`] R9, [`wire`] R11); [`graph`]
//! builds the workspace-wide call graph for the interprocedural rules
//! (R12–R14, rooted at the [`hotpath`] manifest); [`driver`] walks the
//! workspace and applies the [`baseline`] and the two manifests.
//! See DESIGN.md "Determinism invariants and how msc-lint enforces them",
//! §10 for the item-aware layer, and §11 for the call graph.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod driver;
pub mod findings;
pub mod frontier;
pub mod graph;
pub mod hotpath;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod wire;

pub use baseline::Baseline;
pub use driver::{lint_source, module_key, run, DriverError, LintRun};
pub use findings::{sort_findings, to_json, Finding, RuleId};
pub use frontier::{Bound, FrontierManifest};
pub use hotpath::HotpathManifest;
pub use rules::{FileCtx, FileKind};
