//! `diagnose --skew` and `skew` used to print offset 0 for an NF with no
//! usable samples exactly as they print a synchronised clock. Each such
//! fallback must be named on stderr — and only those.

use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_microscope");

fn record(dir: &Path, millis: &str, rate: &str) {
    let _ = std::fs::remove_dir_all(dir);
    let out = Command::new(BIN)
        .args(["record", "--millis", millis, "--rate", rate, "--seed", "3"])
        .args(["--skew", "--out"])
        .arg(dir)
        .output()
        .expect("run microscope record");
    assert!(out.status.success(), "record failed: {out:?}");
}

/// The `note: skew estimate unavailable …` lines `cmd` prints on stderr.
fn fallback_notes(cmd: &[&str], dir: &Path) -> Vec<String> {
    let out = Command::new(BIN)
        .args(cmd)
        .arg("--topology")
        .arg(dir.join("topology.txt"))
        .arg("--bundle")
        .arg(dir.join("run.msc"))
        .output()
        .expect("run microscope");
    assert!(out.status.success(), "{cmd:?} failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("skew estimate unavailable"),
        "notes belong on stderr: {stdout}"
    );
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .filter(|l| l.starts_with("note: skew estimate unavailable for "))
        .map(str::to_string)
        .collect()
}

#[test]
fn offline_skew_commands_name_fallback_offsets_on_stderr() {
    let dir = std::env::temp_dir().join(format!("msc_cli_skew_notes_{}", std::process::id()));

    // 1 ms at 0.2 Mpps: some NFs see fewer packets than the estimator's sample floor.
    record(&dir, "1", "0.2");
    let notes = fallback_notes(&["skew"], &dir);
    assert!(!notes.is_empty(), "a starved NF must be named");
    assert!(
        notes.iter().all(|n| n.ends_with("; assumed offset 0")),
        "{notes:?}"
    );
    assert_eq!(fallback_notes(&["diagnose", "--skew"], &dir), notes);

    // 5 ms at 1 Mpps: every NF is estimable, so nothing is noted.
    record(&dir, "5", "1.0");
    assert!(fallback_notes(&["skew"], &dir).is_empty());
    assert!(fallback_notes(&["diagnose", "--skew"], &dir).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
