//! Workspace walking, rule dispatch, baseline/manifest comparison, and
//! reporting.

use crate::baseline::{Baseline, BaselineError};
use crate::findings::{sort_findings, Finding, RuleId};
use crate::frontier::{self, FrontierError, FrontierManifest};
use crate::graph;
use crate::hotpath::{HotpathError, HotpathManifest};
use crate::lexer;
use crate::parse;
use crate::rules::{self, FileCtx, FileKind};
use crate::wire;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Crate directories that are vendored stand-ins for external dependencies
/// (see the workspace `Cargo.toml`): not part of this project's invariant
/// surface, so the linter does not walk them.
const VENDORED_DIRS: &[&str] = &["compat", "target"];

/// A driver error (I/O, baseline, or manifest syntax) — distinct from
/// findings.
#[derive(Debug)]
pub enum DriverError {
    Io(PathBuf, std::io::Error),
    Baseline(BaselineError),
    Frontier(FrontierError),
    Hotpath(HotpathError),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Io(p, e) => write!(f, "{}: {e}", p.display()),
            DriverError::Baseline(e) => write!(f, "{e}"),
            DriverError::Frontier(e) => write!(f, "{e}"),
            DriverError::Hotpath(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DriverError {}

impl From<BaselineError> for DriverError {
    fn from(e: BaselineError) -> Self {
        DriverError::Baseline(e)
    }
}

impl From<FrontierError> for DriverError {
    fn from(e: FrontierError) -> Self {
        DriverError::Frontier(e)
    }
}

impl From<HotpathError> for DriverError {
    fn from(e: HotpathError) -> Self {
        DriverError::Hotpath(e)
    }
}

/// The result of a workspace lint run.
#[derive(Debug, Default)]
pub struct LintRun {
    /// Gate-failing findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Current R4 site counts per file (before baselining) — what
    /// `--write-baseline` persists.
    pub r4_counts: BTreeMap<String, usize>,
    /// Growable frontier fields found in streaming scope (manifest key →
    /// file) — what `--write-frontier` scaffolds from.
    pub frontier_fields: BTreeMap<String, String>,
    /// `// hot:`-marked fns found in library code (call-graph key → file) —
    /// what `--write-hotpath` scaffolds from.
    pub hot_fns: BTreeMap<String, String>,
    /// Call-graph size: non-test fns in library files.
    pub graph_nodes: usize,
    /// Call-graph size: resolved call edges.
    pub graph_edges: usize,
    /// Call-graph size: strongly connected components.
    pub graph_sccs: usize,
    /// Wall-clock of graph construction alone (reported by `--bench lint`).
    pub graph_build_ms: f64,
    /// Files scanned.
    pub files: usize,
}

/// The module key of a workspace-relative `.rs` path: crate name plus
/// the module path under `src/`, e.g. `crates/trace/src/windowed.rs` →
/// `trace::windowed`. `lib.rs` / `main.rs` / `mod.rs` name their parent.
pub fn module_key(rel_path: &str, crate_name: &str) -> String {
    let mut segs: Vec<&str> = rel_path.split('/').collect();
    // Everything up to and including the `src` component is the crate root.
    if let Some(at) = segs.iter().position(|s| *s == "src") {
        segs.drain(..=at);
    }
    let mut key = String::from(crate_name);
    for (i, seg) in segs.iter().enumerate() {
        let s = if i + 1 == segs.len() {
            seg.strip_suffix(".rs").unwrap_or(seg)
        } else {
            seg
        };
        if matches!(s, "lib" | "main" | "mod") && i + 1 == segs.len() {
            continue;
        }
        key.push_str("::");
        key.push_str(s);
    }
    key
}

/// Discovers the `.rs` files of every non-vendored workspace crate:
/// `crates/*/src/**` plus the root crate's `src/**`. Test, bench, and
/// example *targets* are out of scope by construction (only `src/` trees
/// are walked); `#[cfg(test)]` items inside `src/` are excluded per-item
/// by the rules layer.
pub fn discover(root: &Path) -> Result<Vec<(PathBuf, String, FileKind)>, DriverError> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_roots: Vec<(PathBuf, String)> =
        vec![(root.join("src"), "microscope-repro".into())];
    if crates_dir.is_dir() {
        let entries =
            std::fs::read_dir(&crates_dir).map_err(|e| DriverError::Io(crates_dir.clone(), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| DriverError::Io(crates_dir.clone(), e))?;
            let name = entry.file_name().to_string_lossy().to_string();
            let src = entry.path().join("src");
            if src.is_dir() {
                crate_roots.push((src, name));
            }
        }
    }
    crate_roots.sort();
    for (src, crate_name) in crate_roots {
        if VENDORED_DIRS.contains(&crate_name.as_str()) {
            continue;
        }
        let mut files = Vec::new();
        walk_rs(&src, &mut files)?;
        files.sort();
        for f in files {
            let in_bin_dir = f.strip_prefix(&src).ok().is_some_and(|rel| {
                rel.components()
                    .next()
                    .is_some_and(|c| c.as_os_str() == "bin")
            });
            // `main.rs` is always a binary target root; `src/bin/*` files
            // are binaries in any crate. For bin crates with helper modules
            // (the CLI), those modules compile into the binary too — but
            // they are still held to the library rules except R4, which the
            // per-crate kind below decides.
            let is_main = f.file_name().is_some_and(|n| n == "main.rs");
            let crate_is_bin = !src.join("lib.rs").exists();
            let kind = if in_bin_dir || is_main || crate_is_bin {
                FileKind::Bin
            } else {
                FileKind::Lib
            };
            out.push((f, crate_name.clone(), kind));
        }
    }
    Ok(out)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), DriverError> {
    let entries = std::fs::read_dir(dir).map_err(|e| DriverError::Io(dir.to_path_buf(), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| DriverError::Io(dir.to_path_buf(), e))?;
        let p = entry.path();
        if p.is_dir() {
            walk_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Lints one already-loaded file. Exposed for the fixture tests.
pub fn lint_source(path: &str, crate_name: &str, kind: FileKind, source: &str) -> Vec<Finding> {
    let ctx = FileCtx::new(
        path.to_string(),
        crate_name.to_string(),
        kind,
        lexer::lex(source),
    );
    rules::run_all(&ctx)
}

/// Runs the full workspace lint rooted at `root` against `baseline` and the
/// frontier and hotpath manifests.
///
/// R1/R2/R3/R5/R10 findings always gate. R4 sites are folded into
/// per-file counts and compared against the baseline: a file over its
/// allowance contributes one summary finding; a file *under* its allowance
/// (or a baselined file that no longer exists) is stale drift, which also
/// gates so the checked-in counts can only ratchet down explicitly. R9
/// growable fields are compared against the frontier manifest the same
/// two-sided way (unregistered growth gates, stale or unverifiable entries
/// gate). R11 runs after the walk, once the
/// wire-format struct table spans every file in the collector/types
/// crates. R12/R13/R14 run last, over the workspace call graph built from
/// every library file (binaries are out of graph scope: a CLI may format
/// and time things freely), against the two-sided hotpath manifest.
pub fn run(
    root: &Path,
    baseline: &Baseline,
    frontier_manifest: &FrontierManifest,
    hotpath_manifest: &HotpathManifest,
) -> Result<LintRun, DriverError> {
    let files = discover(root)?;
    let mut run = LintRun {
        files: files.len(),
        ..Default::default()
    };
    let mut r4_lines: BTreeMap<String, Vec<u32>> = BTreeMap::new();
    // R11 needs the struct table from *all* wire-crate files, and R12–R14
    // need the call graph over *all* library files, before any check can
    // run — so every Lib file is parsed in the walk, stashed, and the
    // cross-file passes run after it.
    let mut lib_files: Vec<(String, String, FileCtx, parse::Parsed)> = Vec::new();
    let mut wire_structs: BTreeMap<String, Vec<String>> = BTreeMap::new();

    for (path, crate_name, kind) in files {
        let source =
            std::fs::read_to_string(&path).map_err(|e| DriverError::Io(path.clone(), e))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let ctx = FileCtx::new(rel.clone(), crate_name.clone(), kind, lexer::lex(&source));
        for f in rules::run_all(&ctx) {
            if f.rule == RuleId::PanicSurface {
                r4_lines.entry(rel.clone()).or_default().push(f.line);
            } else {
                run.findings.push(f);
            }
        }
        let key = module_key(&rel, &crate_name);
        let parsed = parse::parse(&ctx.lexed);
        // R9: streaming-scope files get the frontier check in-walk.
        if frontier::in_streaming_scope(&key) {
            for k in frontier::check_file(
                &rel,
                &key,
                &ctx.lexed.tokens,
                &parsed,
                frontier_manifest,
                &mut run.findings,
            ) {
                run.frontier_fields.insert(k, rel.clone());
            }
        }
        // R11: the struct table spans every wire-crate file.
        if wire::WIRE_CRATES.contains(&crate_name.as_str()) {
            wire::collect_structs(&parsed, &mut wire_structs);
        }
        if kind == FileKind::Lib {
            lib_files.push((rel, key, ctx, parsed));
        }
    }

    // R11 wire parity across the now-complete struct table.
    for (rel, _, ctx, parsed) in lib_files
        .iter()
        .filter(|(_, _, ctx, _)| wire::WIRE_CRATES.contains(&ctx.crate_name.as_str()))
    {
        wire::check_file(rel, &ctx.lexed, parsed, &wire_structs, &mut run.findings);
    }

    // R12/R13/R14 over the workspace call graph.
    let t0 = std::time::Instant::now();
    let graph_files: Vec<graph::GraphFile<'_>> = lib_files
        .iter()
        .map(|(_, key, ctx, parsed)| graph::GraphFile {
            module_key: key.clone(),
            ctx,
            parsed,
        })
        .collect();
    let g = graph::Graph::build(&graph_files);
    run.graph_build_ms = t0.elapsed().as_secs_f64() * 1_000.0;
    g.check(hotpath_manifest, &mut run.findings);
    let stats = g.stats();
    run.graph_nodes = stats.nodes;
    run.graph_edges = stats.edges;
    run.graph_sccs = stats.sccs;
    run.hot_fns = g.hot_fns();

    // Frontier staleness sweep (R9, second direction): every registered key
    // must still name an in-scope growable field somewhere in the tree.
    for key in frontier_manifest.fields.keys() {
        if !run.frontier_fields.contains_key(key) {
            run.findings.push(Finding {
                rule: RuleId::BoundedFrontier,
                file: format!("frontier-manifest.toml ({key})"),
                line: 1,
                message: format!(
                    "stale frontier manifest: `{key}` no longer names a growable \
                     field in streaming scope; run \
                     `cargo run -p msc-lint -- --write-frontier` and re-justify"
                ),
            });
        }
    }

    for (file, lines) in &r4_lines {
        run.r4_counts.insert(file.clone(), lines.len());
    }

    // Baseline comparison.
    for (file, lines) in &r4_lines {
        let allowed = baseline.r4.get(file).copied().unwrap_or(0);
        let actual = lines.len();
        if actual > allowed {
            let shown: Vec<String> = lines.iter().map(u32::to_string).collect();
            run.findings.push(Finding {
                rule: RuleId::PanicSurface,
                file: file.clone(),
                line: lines[0],
                message: format!(
                    "{actual} unwrap()/expect( site(s) but baseline allows {allowed} \
                     (lines {}); return a typed error instead, or regenerate the \
                     baseline only for grandfathered code",
                    shown.join(", ")
                ),
            });
        }
    }
    // Stale-drift: baselined files that improved or disappeared must be
    // re-recorded so the checked-in count is always exact.
    for (file, &allowed) in &baseline.r4 {
        let actual = r4_lines.get(file).map_or(0, Vec::len);
        if actual < allowed {
            run.findings.push(Finding {
                rule: RuleId::PanicSurface,
                file: file.clone(),
                line: 1,
                message: format!(
                    "stale baseline: allows {allowed} panic site(s) but found {actual}; \
                     run `cargo run -p msc-lint -- --write-baseline` to ratchet down"
                ),
            });
        }
    }

    sort_findings(&mut run.findings);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r4_over_baseline_gates_and_under_is_stale() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let findings = lint_source("crates/core/src/x.rs", "core", FileKind::Lib, src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RuleId::PanicSurface);
    }

    #[test]
    fn bin_files_have_no_panic_rule() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let findings = lint_source("crates/cli/src/main.rs", "cli", FileKind::Bin, src);
        assert!(findings.is_empty());
    }

    #[test]
    fn module_keys_name_files_and_roots() {
        assert_eq!(
            module_key("crates/trace/src/windowed.rs", "trace"),
            "trace::windowed"
        );
        assert_eq!(module_key("crates/core/src/lib.rs", "core"), "core");
        assert_eq!(module_key("crates/cli/src/main.rs", "cli"), "cli");
        assert_eq!(module_key("crates/x/src/a/mod.rs", "x"), "x::a");
        assert_eq!(module_key("crates/x/src/a/b.rs", "x"), "x::a::b");
        assert_eq!(
            module_key("src/lib.rs", "microscope-repro"),
            "microscope-repro"
        );
    }
}
