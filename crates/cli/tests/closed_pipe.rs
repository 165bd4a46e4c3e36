//! `microscope diagnose … | head -1` used to panic (`failed printing to
//! stdout`, exit 101) when the reader went away. A closed stdout pipe is
//! not an error: the command stops quietly.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn a_reader_that_closes_stdout_early_causes_no_panic() {
    let bin = env!("CARGO_BIN_EXE_microscope");
    let dir = std::env::temp_dir().join(format!("msc_cli_closed_pipe_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let record = Command::new(bin)
        .args(["record", "--millis", "20", "--rate", "1.0", "--seed", "7"])
        .args(["--interrupt", "nat2:8:800", "--out"])
        .arg(&dir)
        .output()
        .expect("run microscope record");
    assert!(record.status.success(), "record failed: {record:?}");

    // `diagnose` and `stream` diagnose between their first and second line,
    // so a reader that leaves after the first line is gone by the second
    // write. `skew` and `inspect` print everything at once: their reader
    // leaves before the first write, while the bundle is still loading.
    for (sub, read_first_line) in [
        ("diagnose", true),
        ("stream", true),
        ("skew", false),
        ("inspect", false),
    ] {
        let mut cmd = Command::new(bin);
        cmd.arg(sub).arg("--bundle").arg(dir.join("run.msc"));
        if sub != "inspect" {
            cmd.arg("--topology").arg(dir.join("topology.txt"));
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn microscope");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        if read_first_line {
            let mut first = String::new();
            stdout.read_line(&mut first).expect("first line");
            assert!(first.starts_with("reconstructed "), "{sub}: {first:?}");
        }
        drop(stdout);
        let out = child.wait_with_output().expect("wait for microscope");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{sub}: {stderr}");
        assert!(!stderr.contains("error:"), "{sub}: {stderr}");
        assert!(out.status.success(), "{sub}: {:?}", out.status);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
