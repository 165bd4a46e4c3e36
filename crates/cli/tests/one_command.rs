//! One report command: `stream` is another name for `diagnose`, and `skew`
//! prints the clock offsets `diagnose --skew` corrects by.
//!
//! On a `record --skew --chunk-ms 10` recording, `stream` and `diagnose`
//! must print the same bytes on stdout and on stderr, on the whole-run
//! `.msc` and on the chunked `.mscs`, with and without `--skew`; and `skew`
//! on either container must print the offsets `diagnose --skew` reports.
//! Both refuse a `.mscs` whose chunks are out of order, wherever the swap.

use msc_collector::{save_bundle_chunked, BundleChunkReader};
use std::path::Path;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_microscope");

/// `microscope <args> --topology … --bundle <bundle>` in `dir`, which must
/// succeed.
fn run(dir: &Path, bundle: &str, args: &[&str]) -> Output {
    let out = Command::new(BIN)
        .args(args)
        .arg("--topology")
        .arg(dir.join("topology.txt"))
        .arg("--bundle")
        .arg(dir.join(bundle))
        .output()
        .expect("run microscope");
    assert!(out.status.success(), "{args:?} on {bundle}: {out:?}");
    out
}

/// The offsets `diagnose --skew` reports on its first stdout line.
fn reported_offsets(stdout: &[u8]) -> Vec<i64> {
    let text = String::from_utf8_lossy(stdout);
    let line = text.lines().next().unwrap_or_default();
    let list = line
        .strip_prefix("estimated clock offsets (ns): [")
        .and_then(|rest| rest.strip_suffix(']'))
        .unwrap_or_else(|| panic!("no offsets line: {line:?}"));
    list.split(", ")
        .map(|v| v.parse().expect("an offset"))
        .collect()
}

/// The offsets column of `skew`'s table.
fn printed_offsets(stdout: &[u8]) -> Vec<i64> {
    let text = String::from_utf8_lossy(stdout);
    let rows = text.lines().skip(1);
    let offset = |row: &str| row.split_whitespace().nth(1)?.parse().ok();
    rows.map(|row| offset(row).unwrap_or_else(|| panic!("{row:?}")))
        .collect()
}

/// `record --skew --chunk-ms 10` of 30 ms into a fresh directory named
/// after `test`.
fn record(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("msc_cli_{test}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let record = Command::new(BIN)
        .args(["record", "--millis", "30", "--rate", "1.0", "--seed", "11"])
        .args(["--interrupt", "nat2:15:1000", "--skew", "--chunk-ms", "10"])
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("run microscope record");
    assert!(record.status.success(), "record failed: {record:?}");
    dir
}

#[test]
fn stream_is_diagnose_and_skew_prints_what_diagnose_skew_corrects_by() {
    let dir = record("one_command");

    for bundle in ["run.msc", "run.mscs"] {
        for skew in [&[][..], &["--skew"]] {
            let diagnosed = run(&dir, bundle, &[&["diagnose"], skew].concat());
            let streamed = run(&dir, bundle, &[&["stream"], skew].concat());
            let what = format!("{bundle} {skew:?}");
            assert_eq!(diagnosed.stdout, streamed.stdout, "stdout, {what}");
            assert_eq!(diagnosed.stderr, streamed.stderr, "stderr, {what}");
            assert!(
                String::from_utf8_lossy(&diagnosed.stderr).starts_with("streamed "),
                "{what}: {}",
                String::from_utf8_lossy(&diagnosed.stderr)
            );
        }

        let corrected = reported_offsets(&run(&dir, bundle, &["diagnose", "--skew"]).stdout);
        let printed = printed_offsets(&run(&dir, bundle, &["skew"]).stdout);
        assert_eq!(printed, corrected, "{bundle}");
        assert_eq!(printed.len(), 16, "{bundle}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every swap of two neighbouring chunks: `skew` settles its offsets after
/// the first chunks of this recording, and it used to stop reading there,
/// printing offsets for a file `diagnose` refuses. Now it checks the order
/// of every chunk to the end of the file, as `diagnose` does.
#[test]
fn skew_refuses_every_mscs_diagnose_refuses() {
    let dir = record("swapped_chunks");
    let mut rdr = BundleChunkReader::open(&dir.join("run.mscs")).expect("open run.mscs");
    let mut chunks = Vec::new();
    while let Some(chunk) = rdr.next_chunk().expect("read chunk") {
        chunks.push(chunk);
    }
    assert!(chunks.len() >= 3, "{} chunks", chunks.len());
    for i in 0..chunks.len() - 1 {
        let mut swapped = chunks.clone();
        swapped.swap(i, i + 1);
        save_bundle_chunked(&dir.join("swapped.mscs"), &swapped).expect("write swapped.mscs");
        for args in [&["diagnose"][..], &["diagnose", "--skew"], &["skew"]] {
            let out = Command::new(BIN)
                .args(args)
                .arg("--topology")
                .arg(dir.join("topology.txt"))
                .arg("--bundle")
                .arg(dir.join("swapped.mscs"))
                .output()
                .expect("run microscope");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let what = format!("{args:?}, chunks {i} and {} swapped", i + 1);
            assert!(!out.status.success(), "{what}: accepted");
            assert!(stderr.contains("out-of-order chunk"), "{what}: {stderr}");
            assert!(out.stdout.is_empty(), "{what}: stdout not empty");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
