//! `microscope skew` on `record --millis 60 --skew` recordings at 1.2 and
//! 1.4 Mpps, where the clock-offset estimator used to be milliseconds wrong
//! on the VPNs: IPID aliases buried the true spike of their edges. Each gate
//! records a run at a seed and rate, estimates the offsets as `microscope
//! skew` does, and requires every NF's estimate within 50 µs of its true
//! offset. Two of the recordings also pin what `microscope skew` prints on
//! them byte for byte: the true offsets.

use microscope_cli::pipeline;
use nf_types::{parse_topology, MICROS, MILLIS};
use std::path::PathBuf;
use std::process::Command;

/// Records `record --millis 60 --skew` at `seed` and `rate` into a fresh
/// directory and returns it.
fn record(seed: u64, rate: &str, what: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "msc_cli_skew_offsets_{what}_{seed}_{rate}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let record = Command::new(env!("CARGO_BIN_EXE_microscope"))
        .args(["record", "--millis", "60", "--rate", rate, "--skew"])
        .args(["--seed", &seed.to_string(), "--out"])
        .arg(&dir)
        .output()
        .expect("run microscope record");
    assert!(record.status.success(), "record failed: {record:?}");
    dir
}

/// Records the run, estimates its offsets and checks every one of them.
fn assert_offsets_within_50_us(seed: u64, rate: &str) {
    let dir = record(seed, rate, "gate");
    let text = std::fs::read_to_string(dir.join("topology.txt")).expect("read topology");
    let (topology, _) = parse_topology(&text).expect("parse topology");
    let est = pipeline::skew(&topology, &dir.join("run.msc"), &mut |_, _| {}).expect("skew");
    let _ = std::fs::remove_dir_all(&dir);

    // `record --skew` puts NF `i`'s clock `(i % 5 - 2)` ms ahead.
    let wrong: Vec<String> = topology
        .nfs()
        .iter()
        .zip(&est.offsets)
        .enumerate()
        .map(|(i, (nf, &offset))| (nf, offset - (i as i64 % 5 - 2) * MILLIS as i64))
        .filter(|&(_, error)| error.unsigned_abs() > 50 * MICROS)
        .map(|(nf, error)| format!("{} off by {error} ns", nf.name))
        .collect();
    assert!(wrong.is_empty(), "seed {seed} at {rate} Mpps: {wrong:?}");
}

#[test]
fn seed_42_at_1_4_mpps() {
    assert_offsets_within_50_us(42, "1.4");
}

#[test]
fn seed_2_at_1_4_mpps() {
    assert_offsets_within_50_us(2, "1.4");
}

#[test]
fn seed_5_at_1_4_mpps() {
    assert_offsets_within_50_us(5, "1.4");
}

#[test]
fn seed_2_at_1_2_mpps() {
    assert_offsets_within_50_us(2, "1.2");
}

#[test]
fn seed_6_at_1_2_mpps() {
    assert_offsets_within_50_us(6, "1.2");
}

/// Records the run and requires `microscope skew` to print `expected`.
fn assert_skew_prints(seed: u64, rate: &str, expected: &str) {
    let dir = record(seed, rate, "pin");
    let skew = Command::new(env!("CARGO_BIN_EXE_microscope"))
        .args(["skew", "--topology"])
        .arg(dir.join("topology.txt"))
        .arg("--bundle")
        .arg(dir.join("run.msc"))
        .output()
        .expect("run microscope skew");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(skew.status.success(), "skew failed: {skew:?}");
    assert_eq!(
        String::from_utf8_lossy(&skew.stdout),
        expected,
        "seed {seed} at {rate} Mpps"
    );
}

/// What `microscope skew` prints for `record --skew`'s clocks, NF `i`
/// `(i % 5 - 2)` ms ahead.
const TRUE_OFFSETS: &str = "      nf        offset_ns
    nat1         -2000000
    nat2         -1000000
    nat3                0
    nat4          1000000
     fw1          2000000
     fw2         -2000000
     fw3         -1000000
     fw4                0
     fw5          1000000
    mon1          2000000
    mon2         -2000000
    mon3         -1000000
    vpn1                0
    vpn2          1000000
    vpn3          2000000
    vpn4         -2000000
";

#[test]
fn seed_42_at_1_4_mpps_prints_the_true_offsets() {
    assert_skew_prints(42, "1.4", TRUE_OFFSETS);
}

#[test]
fn seed_6_at_1_2_mpps_prints_the_true_offsets() {
    assert_skew_prints(6, "1.2", TRUE_OFFSETS);
}
