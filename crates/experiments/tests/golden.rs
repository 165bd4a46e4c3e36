//! Every figure against its checked-in golden: the report and every CSV,
//! byte for byte, except the cells a run measures rather than computes
//! (the aggregation time on line 2 of `fig14.txt`, and `sec64`'s runtime
//! and per-relation columns and its ratio line).
//!
//! Each figure runs at a small size at which none of its tables is empty
//! (`fig12` at one where all three culprit kinds have victims);
//! `baseline_perfsight` runs at its default 300 ms, where its last check
//! fails (EXPERIMENTS.md), and that failure is the expected result. The
//! goldens under `tests/golden/` are what the `figures` binary writes at
//! the same sizes (seed 42, each figure's default rate):
//!
//! ```sh
//! target/release/figures fig11 --millis 26 --out crates/experiments/tests/golden
//! ```

use msc_experiments::cli::Params;
use msc_experiments::figures::{self, Figure, FIGURES};
use std::path::Path;

/// Runs `names` at `millis` (each at its default rate and seed 42) and
/// compares each with its golden; `failed` is the check the last of them
/// is expected to fail.
fn golden(names: &[&str], millis: u64, failed: Option<&str>) {
    let specs: Vec<_> = names
        .iter()
        .map(|n| FIGURES.iter().find(|s| s.name == *n).expect("a figure"))
        .collect();
    let mut figs: Vec<(&str, Figure)> = Vec::new();
    figures::run(
        &specs,
        |spec| Params {
            millis,
            rate_mpps: spec.rate_mpps,
            seed: 42,
        },
        |spec, fig| figs.push((spec.name, fig)),
    );
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut diffs = Vec::new();
    for (i, (name, fig)) in figs.iter().enumerate() {
        let want_failed = if i + 1 == figs.len() { failed } else { None };
        assert_eq!(fig.failed, want_failed, "{name}: failed check");
        let csvs = fig
            .csvs
            .iter()
            .map(|(n, text)| (n.to_string(), text.clone()));
        for (file, got) in std::iter::once((format!("{name}.txt"), fig.stdout.clone())).chain(csvs)
        {
            let want = std::fs::read_to_string(dir.join(&file))
                .unwrap_or_else(|e| panic!("golden {file}: {e}"));
            if mask(&file, &got) != mask(&file, &want) {
                diffs.push(format!("--- golden {file}\n{want}+++ got\n{got}"));
            }
        }
    }
    assert!(diffs.is_empty(), "{}", diffs.join("\n"));
}

/// `text` with the measured cells of `file` replaced by `~`.
fn mask(file: &str, text: &str) -> String {
    text.split('\n')
        .enumerate()
        .map(|(i, line)| {
            let first = line.split_whitespace().next().unwrap_or("");
            match file {
                "fig14.txt" if i == 1 => cells(line, ' ', &[6]),
                "sec64.txt" if first.parse::<f64>().is_ok() => cells(line, ' ', &[4]),
                "sec64.txt" if first.starts_with("<=") || first == "all" => {
                    cells(line, ' ', &[3, 4])
                }
                "sec64.txt" if first == "(us/relation," => cells(line, ' ', &[4, 8]),
                "sec64_aggregation.csv" if i > 0 => cells(line, ',', &[4]),
                "sec64_scaling.csv" if i > 0 => cells(line, ',', &[3, 4]),
                _ => line.to_string(),
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// `line`'s cells (0-based), its `masked` ones replaced by `~`, joined by
/// one `sep`. A `.txt` line (`sep` a space) is cut into its tokens, so the
/// padding that right-aligns a measured cell, which is as wide as the
/// measured value is short, is not compared either. A CSV line keeps every
/// cell, empty ones included.
fn cells(line: &str, sep: char, masked: &[usize]) -> String {
    let tokens: Vec<&str> = if sep == ' ' {
        line.split_whitespace().collect()
    } else {
        line.split(sep).collect()
    };
    tokens
        .iter()
        .enumerate()
        .map(|(i, &cell)| if masked.contains(&i) { "~" } else { cell })
        .collect::<Vec<_>>()
        .join(&sep.to_string())
}

#[test]
fn masking_hides_only_measured_cells() {
    let line = "         all        98687            4        478.0           4.84";
    assert_eq!(mask("sec64.txt", line), "all 98687 4 ~ ~");
    // A padded time that crosses 10 ms keeps the masked line; a computed
    // cell that moves does not.
    let golden = "      <=8000         5560           56         10.8           1.94";
    let faster = "      <=8000         5560           56          8.7           1.56";
    let other = "      <=8000         5561           56          8.7           1.56";
    assert_eq!(mask("sec64.txt", faster), mask("sec64.txt", golden));
    assert_ne!(mask("sec64.txt", other), mask("sec64.txt", golden));
    let ratio = "(us/relation, 16k / 4k: 1.35x; all / 4k: 2.05x)";
    let slower = "(us/relation, 16k / 4k: 12.35x; all / 4k: 2.05x)";
    assert_eq!(mask("sec64.txt", slower), mask("sec64.txt", ratio));
    assert_eq!(
        mask("sec64_scaling.csv", "a,b\nall,9,4,1.0,2.0"),
        "a,b\nall,9,4,~,~"
    );
    // A CSV row that gains an empty cell is not a measured change.
    let row = "a,b\nall,9,4,1.0,2.0";
    for extra in ["a,b\nall,,9,4,1.0,2.0", "a,b\nall,9,4,1.0,2.0,"] {
        for file in ["sec64_scaling.csv", "sec64_aggregation.csv"] {
            assert_ne!(mask(file, extra), mask(file, row), "{file}: {extra}");
        }
    }
    assert_eq!(mask("sec64.txt", "# 4 patterns"), "# 4 patterns");
}

#[test]
fn fig01() {
    golden(&["fig01"], 6, None);
}

#[test]
fn fig02() {
    golden(&["fig02"], 5, None);
}

#[test]
fn fig03() {
    golden(&["fig03"], 5, None);
}

#[test]
fn fig11() {
    golden(&["fig11"], 26, None);
}

#[test]
fn fig12() {
    golden(&["fig12"], 150, None);
}

#[test]
fn fig13() {
    golden(&["fig13"], 26, None);
}

#[test]
fn fig14() {
    golden(&["fig14"], 71, None);
}

/// The three views of one wild run.
#[test]
fn fig15_table2_table3() {
    golden(&["fig15", "table2", "table3"], 20, None);
}

#[test]
fn sec63() {
    golden(&["sec63"], 30, None);
}

#[test]
fn sec64() {
    golden(&["sec64"], 40, None);
}

#[test]
fn ablations() {
    golden(&["ablations"], 40, None);
}

#[test]
fn overhead() {
    golden(&["overhead"], 5, None);
}

/// At its default size, 29 of the 79 victims in the 10 ms after the stall
/// rank nat1 first: the check wants a majority (EXPERIMENTS.md, §8).
#[test]
fn baseline_perfsight() {
    golden(
        &["baseline_perfsight"],
        300,
        Some("Microscope must pin the stalled NF"),
    );
}
