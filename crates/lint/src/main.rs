//! CLI driver: `cargo run -p msc-lint -- [--root DIR] [--baseline FILE]
//! [--frontier FILE] [--hotpath FILE]
//! [--format text|json] [--json] [--write-baseline]
//! [--write-frontier] [--write-hotpath] [--explain R<N>]`.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

#![forbid(unsafe_code)]

use msc_lint::{to_json, Baseline, Bound, FrontierManifest, HotpathManifest, RuleId};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
msc-lint — workspace static analysis for determinism/saturation/panic invariants

usage: cargo run -p msc-lint -- [options]
  --root DIR         workspace root to lint (default: .)
  --baseline FILE    R4 baseline file (default: <root>/lint-baseline.toml)
  --frontier FILE    R9 frontier manifest (default: <root>/frontier-manifest.toml)
  --hotpath FILE     R12/R13 hotpath manifest (default: <root>/hotpath-manifest.toml)
  --format text|json output format (default: text)
  --json             shorthand for --format json
  --write-baseline   record current R4 counts as the new baseline and exit
  --write-frontier   scaffold current frontier fields into the manifest and exit
  --write-hotpath    scaffold current `// hot:`-marked fns into the manifest and exit
  --explain R<N>     print one rule's doc and suppression syntax and exit";

struct Args {
    root: PathBuf,
    baseline: Option<PathBuf>,
    frontier: Option<PathBuf>,
    hotpath: Option<PathBuf>,
    format: Format,
    write_baseline: bool,
    write_frontier: bool,
    write_hotpath: bool,
    explain: Option<RuleId>,
}

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        baseline: None,
        frontier: None,
        hotpath: None,
        format: Format::Text,
        write_baseline: false,
        write_frontier: false,
        write_hotpath: false,
        explain: None,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = PathBuf::from(it.next().ok_or("--root wants a directory")?),
            "--baseline" => {
                args.baseline = Some(PathBuf::from(it.next().ok_or("--baseline wants a file")?));
            }
            "--frontier" => {
                args.frontier = Some(PathBuf::from(it.next().ok_or("--frontier wants a file")?));
            }
            "--hotpath" => {
                args.hotpath = Some(PathBuf::from(it.next().ok_or("--hotpath wants a file")?));
            }
            "--format" => {
                args.format = match it.next().map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    other => return Err(format!("--format wants text|json, got {other:?}")),
                }
            }
            "--json" => args.format = Format::Json,
            "--write-baseline" => args.write_baseline = true,
            "--write-frontier" => args.write_frontier = true,
            "--write-hotpath" => args.write_hotpath = true,
            "--explain" => {
                let id = it.next().ok_or("--explain wants a rule id (R1..R14)")?;
                args.explain = Some(
                    RuleId::from_id(id)
                        .ok_or_else(|| format!("--explain: unknown rule id {id:?} (R1..R14)"))?,
                );
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some(rule) = args.explain {
        println!("{}", rule.explain());
        return ExitCode::SUCCESS;
    }

    let baseline_path = args
        .baseline
        .clone()
        .unwrap_or_else(|| args.root.join("lint-baseline.toml"));
    let frontier_path = args
        .frontier
        .clone()
        .unwrap_or_else(|| args.root.join("frontier-manifest.toml"));
    let hotpath_path = args
        .hotpath
        .clone()
        .unwrap_or_else(|| args.root.join("hotpath-manifest.toml"));

    let baseline = match Baseline::load(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let frontier = match FrontierManifest::load(&frontier_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let hotpath = match HotpathManifest::load(&hotpath_path) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match msc_lint::run(&args.root, &baseline, &frontier, &hotpath) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if args.write_baseline {
        let new = Baseline {
            r4: run.r4_counts.clone(),
        };
        if let Err(e) = std::fs::write(&baseline_path, new.render()) {
            eprintln!("error: write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "wrote {} ({} grandfathered panic site(s) across {} file(s))",
            baseline_path.display(),
            new.total(),
            new.r4.len()
        );
        return ExitCode::SUCCESS;
    }

    if args.write_frontier {
        // Keep existing bounds; new fields get a `retained` placeholder the
        // reviewer must replace with the real eviction claim — scaffolding,
        // not an audit (the lint only verifies what the file then asserts).
        let mut new = FrontierManifest::default();
        for key in run.frontier_fields.keys() {
            let bound = frontier
                .fields
                .get(key)
                .cloned()
                .unwrap_or(Bound::Retained {
                    reason: "TODO: name the evictor or justify fixed/retained".into(),
                });
            new.fields.insert(key.clone(), bound);
        }
        if let Err(e) = std::fs::write(&frontier_path, new.render()) {
            eprintln!("error: write {}: {e}", frontier_path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "wrote {} ({} registered frontier field(s))",
            frontier_path.display(),
            new.fields.len()
        );
        return ExitCode::SUCCESS;
    }

    if args.write_hotpath {
        // Keep existing reasons; new fns get a placeholder the reviewer must
        // replace with the loop the fn serves (the parse rejects empty
        // reasons, not placeholders — the diff is the gate).
        let mut new = HotpathManifest::default();
        for key in run.hot_fns.keys() {
            let reason = hotpath
                .entries
                .get(key)
                .cloned()
                .unwrap_or_else(|| "TODO: name the hot inner loop this fn serves".into());
            new.entries.insert(key.clone(), reason);
        }
        if let Err(e) = std::fs::write(&hotpath_path, new.render()) {
            eprintln!("error: write {}: {e}", hotpath_path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "wrote {} ({} registered hot fn(s))",
            hotpath_path.display(),
            new.entries.len()
        );
        return ExitCode::SUCCESS;
    }

    match args.format {
        Format::Json => println!("{}", to_json(&run.findings)),
        Format::Text => {
            for f in &run.findings {
                println!("{f}");
            }
            eprintln!(
                "msc-lint: {} file(s), {} finding(s), R4 baseline {} site(s) in {} file(s), \
                 R9 frontier {} field(s), R12 hotpath {} fn(s), \
                 graph {} node(s) / {} edge(s) / {} scc(s) in {:.1} ms",
                run.files,
                run.findings.len(),
                baseline.total(),
                baseline.r4.len(),
                frontier.fields.len(),
                hotpath.entries.len(),
                run.graph_nodes,
                run.graph_edges,
                run.graph_sccs,
                run.graph_build_ms
            );
        }
    }
    if run.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
