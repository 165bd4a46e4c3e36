//! `microscope stream` on a chunked bundle whose chunks are out of order:
//! the report would be silently wrong, so there must be none — non-zero
//! exit, the reason on stderr, nothing on stdout.

use msc_collector::{save_bundle_chunked, BundleChunkReader};
use std::process::Command;

#[test]
fn stream_refuses_a_chunked_bundle_with_swapped_chunks() {
    let bin = env!("CARGO_BIN_EXE_microscope");
    let dir = std::env::temp_dir().join(format!("msc_cli_stream_order_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let record = Command::new(bin)
        .args(["record", "--millis", "20", "--rate", "1.0", "--seed", "7"])
        .args(["--chunk-ms", "4", "--out"])
        .arg(&dir)
        .output()
        .expect("run microscope record");
    assert!(record.status.success(), "record failed: {record:?}");

    let mut rdr = BundleChunkReader::open(&dir.join("run.mscs")).expect("open run.mscs");
    let mut chunks = Vec::new();
    while let Some(chunk) = rdr.next_chunk().expect("read chunk") {
        chunks.push(chunk);
    }
    assert!(chunks.len() >= 4, "{} chunks", chunks.len());
    chunks.swap(1, 2);
    let swapped = dir.join("swapped.mscs");
    save_bundle_chunked(&swapped, &chunks).expect("write swapped.mscs");

    let stream = Command::new(bin)
        .args(["stream", "--topology"])
        .arg(dir.join("topology.txt"))
        .arg("--bundle")
        .arg(&swapped)
        .output()
        .expect("run microscope stream");
    let stderr = String::from_utf8_lossy(&stream.stderr);
    assert!(!stream.status.success(), "swapped chunks were accepted");
    assert!(stderr.contains("out-of-order chunk"), "stderr: {stderr}");
    assert!(
        stream.stdout.is_empty(),
        "stdout: {}",
        String::from_utf8_lossy(&stream.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
