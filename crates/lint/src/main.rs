//! CLI driver: `cargo run -p msc-lint -- [--root DIR] [--frontier FILE]
//! [--format text|json] [--json] [--write-frontier] [--explain R<N>]`.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

#![forbid(unsafe_code)]

use msc_lint::{to_json, Bound, FrontierManifest, RuleId};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
msc-lint — workspace static analysis for determinism/saturation/frontier invariants

usage: cargo run -p msc-lint -- [options]
  --root DIR         workspace root to lint (default: .)
  --frontier FILE    R9 frontier manifest (default: <root>/frontier-manifest.toml)
  --format text|json output format (default: text)
  --json             shorthand for --format json
  --write-frontier   scaffold current frontier fields into the manifest and exit
  --explain R<N>     print one rule's doc and suppression syntax and exit";

struct Args {
    root: PathBuf,
    frontier: Option<PathBuf>,
    format: Format,
    write_frontier: bool,
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
        frontier: None,
        format: Format::Text,
        write_frontier: false,
        explain: None,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = PathBuf::from(it.next().ok_or("--root wants a directory")?),
            "--frontier" => {
                args.frontier = Some(PathBuf::from(it.next().ok_or("--frontier wants a file")?));
            }
            "--format" => {
                args.format = match it.next().map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    other => return Err(format!("--format wants text|json, got {other:?}")),
                }
            }
            "--json" => args.format = Format::Json,
            "--write-frontier" => args.write_frontier = true,
            "--explain" => {
                let id = it.next().ok_or("--explain wants a rule id (R1..R10)")?;
                args.explain = Some(
                    RuleId::from_id(id)
                        .ok_or_else(|| format!("--explain: unknown rule id {id:?} (R1..R10)"))?,
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

    let frontier_path = args
        .frontier
        .clone()
        .unwrap_or_else(|| args.root.join("frontier-manifest.toml"));

    let frontier = match FrontierManifest::load(&frontier_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match msc_lint::run(&args.root, &frontier) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

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

    match args.format {
        Format::Json => println!("{}", to_json(&run.findings)),
        Format::Text => {
            for f in &run.findings {
                println!("{f}");
            }
            eprintln!(
                "msc-lint: {} file(s), {} finding(s), R9 frontier {} field(s)",
                run.files,
                run.findings.len(),
                frontier.fields.len()
            );
        }
    }
    if run.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
