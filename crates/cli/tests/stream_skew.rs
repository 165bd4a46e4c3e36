//! Regression: `microscope stream --skew` used to panic in
//! `Microscope::attribute` (`interval end … before start …`) when per-window
//! offsets moved a source share's first arrival past its period's end.

use std::process::Command;

#[test]
fn stream_skew_reports_victims_instead_of_panicking() {
    let bin = env!("CARGO_BIN_EXE_microscope");
    let dir = std::env::temp_dir().join(format!("msc_cli_stream_skew_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let record = Command::new(bin)
        .args(["record", "--millis", "60", "--rate", "1.4", "--seed", "42"])
        .args(["--skew", "--chunk-ms", "50", "--out"])
        .arg(&dir)
        .output()
        .expect("run microscope record");
    assert!(record.status.success(), "record failed: {record:?}");

    let stream = Command::new(bin)
        .args(["stream", "--skew", "--topology"])
        .arg(dir.join("topology.txt"))
        .arg("--bundle")
        .arg(dir.join("run.mscs"))
        .output()
        .expect("run microscope stream");
    let stderr = String::from_utf8_lossy(&stream.stderr);
    assert!(stream.status.success(), "stream --skew failed: {stderr}");
    let stdout = String::from_utf8_lossy(&stream.stdout);
    let victims: usize = stdout
        .lines()
        .find_map(|l| {
            l.strip_prefix("diagnosed ")?
                .split(' ')
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or_else(|| panic!("no `diagnosed N victim` line in: {stdout}"));
    assert!(victims >= 1, "no victims diagnosed: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
