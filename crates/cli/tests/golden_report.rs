//! The checked-in golden reports: `diagnose`, `stream`, `diagnose --skew` and
//! `stream --skew` on the seed-11 recorded runs must print
//! `tests/fixtures/report_seed11*.txt` byte for byte. Two runs of one binary
//! agree even when a change alters the report deterministically — or lets a
//! clock read reach stdout on every run; this comparison against a file does
//! not. A change that is meant to alter the answer regenerates the fixture in
//! the same commit, on purpose.

use std::path::Path;
use std::process::Command;

const RECORD: [&str; 6] = ["--millis", "30", "--rate", "1.2", "--seed", "11"];

/// Records the seed-11 run with `extra` into a fresh directory.
fn record(tag: &str, extra: &[&str]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("msc_cli_golden_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_microscope"))
        .arg("record")
        .args(RECORD)
        .args(extra)
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("run microscope record");
    assert!(out.status.success(), "record failed: {out:?}");
    dir
}

/// Runs `microscope <cmd> --topology … --bundle … <extra>` on a recorded
/// directory and requires its stdout to equal the fixture.
fn assert_prints(dir: &Path, cmd: &str, extra: &[&str], fixture: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_microscope"))
        .args([cmd, "--topology"])
        .arg(dir.join("topology.txt"))
        .arg("--bundle")
        .arg(dir.join("run.msc"))
        .args(extra)
        .output()
        .expect("run microscope");
    assert!(out.status.success(), "{cmd} {extra:?} failed: {out:?}");
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let want = std::fs::read(&path).expect("read golden report");
    assert!(
        out.stdout == want,
        "{cmd} {extra:?} differs from {fixture}:\n--- got\n{}\n--- want\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&want)
    );
}

#[test]
fn diagnose_and_stream_print_the_golden_report() {
    let dir = record("plain", &["--interrupt", "nat2:15:1000"]);
    assert_prints(&dir, "diagnose", &[], "report_seed11.txt");
    assert_prints(&dir, "stream", &["--chunk-ms", "5"], "report_seed11.txt");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diagnose_skew_prints_the_golden_skew_report() {
    let dir = record("skew", &["--skew", "--interrupt", "nat2:15:2000"]);
    assert_prints(&dir, "diagnose", &["--skew"], "report_seed11_skew.txt");
    // One chunk: the offsets settle on the whole run, as offline's do.
    let one_chunk = ["--skew", "--chunk-ms", "1000"];
    assert_prints(&dir, "stream", &one_chunk, "report_seed11_skew.txt");
    let _ = std::fs::remove_dir_all(&dir);
}
