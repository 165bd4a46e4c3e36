//! Workspace walking, rule dispatch, frontier-manifest comparison, and
//! reporting.

use crate::findings::{sort_findings, Finding, RuleId};
use crate::frontier::{self, FrontierManifest};
use crate::lexer;
use crate::parse;
use crate::rules::{self, FileCtx};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Crate directories that are vendored stand-ins for external dependencies
/// (see the workspace `Cargo.toml`): not part of this project's invariant
/// surface, so the linter does not walk them.
const VENDORED_DIRS: &[&str] = &["compat", "target"];

/// A driver error (I/O on a source tree) — distinct from findings. The
/// manifest has its own [`frontier::FrontierError`]: the caller loads it.
#[derive(Debug)]
pub enum DriverError {
    Io(PathBuf, std::io::Error),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Io(p, e) => write!(f, "{}: {e}", p.display()),
        }
    }
}

impl std::error::Error for DriverError {}

/// The result of a workspace lint run.
#[derive(Debug, Default)]
pub struct LintRun {
    /// Gate-failing findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Growable frontier fields found in streaming scope (manifest key →
    /// file) — what `--write-frontier` scaffolds from.
    pub frontier_fields: BTreeMap<String, String>,
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
pub fn discover(root: &Path) -> Result<Vec<(PathBuf, String)>, DriverError> {
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
        out.extend(files.into_iter().map(|f| (f, crate_name.clone())));
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
pub fn lint_source(path: &str, crate_name: &str, source: &str) -> Vec<Finding> {
    let ctx = FileCtx::new(path.to_string(), crate_name.to_string(), lexer::lex(source));
    rules::run_all(&ctx)
}

/// Runs the full workspace lint rooted at `root` against the frontier
/// manifest.
///
/// R1/R2/R3/R10 findings always gate. R9 growable fields are compared
/// against the manifest two-sidedly: unregistered growth gates, and so do
/// stale or unverifiable entries.
pub fn run(root: &Path, frontier_manifest: &FrontierManifest) -> Result<LintRun, DriverError> {
    let files = discover(root)?;
    let mut run = LintRun {
        files: files.len(),
        ..Default::default()
    };

    for (path, crate_name) in files {
        let source =
            std::fs::read_to_string(&path).map_err(|e| DriverError::Io(path.clone(), e))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let ctx = FileCtx::new(rel.clone(), crate_name.clone(), lexer::lex(&source));
        run.findings.extend(rules::run_all(&ctx));
        // R9: streaming-scope files get the frontier check.
        let key = module_key(&rel, &crate_name);
        if frontier::in_streaming_scope(&key) {
            let parsed = parse::parse(&ctx.lexed);
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
    }

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

    sort_findings(&mut run.findings);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

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
