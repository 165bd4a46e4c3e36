//! `stream --skew` must reconstruct what `diagnose --skew` reconstructs.
//! Estimating the offsets from every window alone lost 1 856 – 31 627 of
//! these runs' ≈ 41 000 traces as false drops.

use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_microscope");

/// `[traces, dropped + unresolved]` of the report `cmd` prints for the run
/// recorded in `dir`.
fn lost(dir: &Path, cmd: &[&str]) -> [u64; 2] {
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
    let line = stdout
        .lines()
        .find(|l| l.starts_with("reconstructed "))
        .unwrap_or_else(|| panic!("no `reconstructed …` line in: {stdout}"));
    // reconstructed T traces: D delivered, X dropped, U unresolved, …
    let n: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|w| w.parse().ok())
        .collect();
    [n[0], n[2] + n[3]]
}

#[test]
fn stream_skew_loses_no_more_traces_than_diagnose_skew() {
    for seed in ["1", "3"] {
        let dir = std::env::temp_dir().join(format!(
            "msc_cli_stream_skew_offline_{seed}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let record = Command::new(BIN)
            .args(["record", "--millis", "60", "--rate", "0.7", "--seed", seed])
            .args(["--skew", "--interrupt", "fw3:30:2000", "--out"])
            .arg(&dir)
            .output()
            .expect("run microscope record");
        assert!(record.status.success(), "record failed: {record:?}");

        let [traces, offline] = lost(&dir, &["diagnose", "--skew"]);
        for chunk_ms in ["10", "50"] {
            let [streamed_traces, streamed] =
                lost(&dir, &["stream", "--skew", "--chunk-ms", chunk_ms]);
            assert_eq!(streamed_traces, traces);
            assert!(
                streamed <= offline + traces / 1_000,
                "seed {seed}, {chunk_ms} ms chunks: {streamed} of {traces} traces dropped or \
                 unresolved, offline {offline}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
