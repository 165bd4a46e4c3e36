//! Lint wall-time budget: runs the full `msc-lint` workspace pass and
//! enforces the CI budget of 5 seconds.
//!
//! Runs standalone (`harness = false`): `cargo bench -p msc-bench --bench
//! lint -- --bench` takes the best of several full-workspace passes,
//! writes `results/BENCH_lint.json` at the workspace root, and exits
//! non-zero if the best pass exceeds the budget — the linter gates every
//! `cargo` invocation in CI, so it must stay cheap enough to never be
//! worth skipping. Without `--bench` it runs a single smoke pass and
//! skips the file.

use msc_lint::{Baseline, FrontierManifest, HotpathManifest};
use std::time::Instant;

/// CI wall-clock budget for one full workspace pass.
const BUDGET_MS: f64 = 5_000.0;

fn main() {
    let measure = std::env::args().any(|a| a == "--bench");
    let reps = if measure { 5 } else { 1 };

    // The bench runs from the workspace root in CI and from anywhere in
    // dev; anchor on the crate's own manifest dir instead of cwd.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let baseline = Baseline::load(&root.join("lint-baseline.toml")).expect("baseline");
    let frontier = FrontierManifest::load(&root.join("frontier-manifest.toml")).expect("frontier");
    let hotpath = HotpathManifest::load(&root.join("hotpath-manifest.toml")).expect("hotpath");

    let mut best_ms = f64::INFINITY;
    let mut graph_build_ms = f64::INFINITY;
    let mut files = 0usize;
    let mut findings = 0usize;
    let mut graph_nodes = 0usize;
    let mut graph_edges = 0usize;
    let mut graph_sccs = 0usize;
    for _ in 0..reps {
        let t0 = Instant::now();
        let run = msc_lint::run(&root, &baseline, &frontier, &hotpath).expect("lint run");
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1_000.0);
        graph_build_ms = graph_build_ms.min(run.graph_build_ms);
        files = run.files;
        findings = run.findings.len();
        graph_nodes = run.graph_nodes;
        graph_edges = run.graph_edges;
        graph_sccs = run.graph_sccs;
    }

    let json = format!(
        "{{\n  \"bench\": \"lint\",\n  \"files\": {files},\n  \"findings\": {findings},\n  \
         \"graph_nodes\": {graph_nodes},\n  \"graph_edges\": {graph_edges},\n  \
         \"graph_sccs\": {graph_sccs},\n  \"graph_build_ms\": {graph_build_ms:.2},\n  \
         \"wall_ms\": {best_ms:.2},\n  \"budget_ms\": {BUDGET_MS:.0}\n}}\n"
    );
    if measure {
        let path = root.join("results/BENCH_lint.json");
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir results/");
        std::fs::write(&path, &json).expect("write BENCH_lint.json");
        eprintln!("wrote {}", path.display());
    } else {
        eprintln!("smoke mode (no --bench): skipping results/BENCH_lint.json");
    }
    print!("{json}");

    assert!(
        best_ms <= BUDGET_MS,
        "msc-lint full pass took {best_ms:.0} ms, over the {BUDGET_MS:.0} ms CI budget"
    );
}
