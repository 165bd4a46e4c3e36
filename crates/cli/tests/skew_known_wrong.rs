//! The recordings on which the clock-offset estimator is known to be wrong
//! (ROADMAP item 1a). Each test records `record --millis 60 --skew` at a
//! seed and rate, estimates the offsets as `microscope skew` does, and
//! requires every NF's estimate within 50 µs of its true offset — the gate
//! item 1b sets. They fail today, so they are ignored; each ignore reason
//! gives the measured errors (estimate minus true offset). `cargo test -p
//! microscope-cli --test skew_known_wrong -- --ignored` runs them.
//!
//! Two of the recordings also pin what `microscope skew` prints on them
//! today, byte for byte, and are not ignored: their wrong offsets come from
//! detached collision clusters in the histograms, so any change to which
//! pairs the estimator bins shows there first. A change meant to fix the
//! estimator (ROADMAP item 1b) regenerates the pins on purpose.

use microscope_cli::pipeline;
use nf_types::{parse_topology, MICROS, MILLIS};
use std::path::PathBuf;
use std::process::Command;

/// Records `record --millis 60 --skew` at `seed` and `rate` into a fresh
/// directory and returns it.
fn record(seed: u64, rate: &str, what: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "msc_cli_skew_known_wrong_{what}_{seed}_{rate}_{}",
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
#[ignore = "vpn1-4 off by -7.62, -4.70, -4.08, -4.16 ms"]
fn seed_42_at_1_4_mpps() {
    assert_offsets_within_50_us(42, "1.4");
}

#[test]
#[ignore = "vpn1-4 off by -4.59, -6.71, -7.16, -4.90 ms"]
fn seed_2_at_1_4_mpps() {
    assert_offsets_within_50_us(2, "1.4");
}

#[test]
#[ignore = "vpn1-4 off by -9.82, -8.28, -3.58, -8.16 ms"]
fn seed_5_at_1_4_mpps() {
    assert_offsets_within_50_us(5, "1.4");
}

#[test]
#[ignore = "vpn1-4 off by -4.96, -7.98, -7.52, -5.61 ms"]
fn seed_2_at_1_2_mpps() {
    assert_offsets_within_50_us(2, "1.2");
}

#[test]
#[ignore = "vpn2-4 off by -8.73, -4.65, -4.06 ms (vpn1 within 1 us)"]
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

#[test]
fn seed_42_at_1_4_mpps_prints_todays_offsets() {
    assert_skew_prints(
        42,
        "1.4",
        "      nf        offset_ns
    nat1         -2000000
    nat2         -1000000
    nat3                0
    nat4          1000000
     fw1          2000000
     fw2         -2000000
     fw3         -1000000
     fw4                0
     fw5          1000000
    mon1          1999990
    mon2         -2000000
    mon3         -1000386
    vpn1         -7619529
    vpn2         -3700081
    vpn3         -2081091
    vpn4         -6156324
",
    );
}

#[test]
fn seed_6_at_1_2_mpps_prints_todays_offsets() {
    assert_skew_prints(
        6,
        "1.2",
        "      nf        offset_ns
    nat1         -2000000
    nat2         -1000000
    nat3                0
    nat4          1000000
     fw1          2000000
     fw2         -2000000
     fw3         -1000000
     fw4                0
     fw5          1000000
    mon1          1999877
    mon2         -2000190
    mon3         -1000073
    vpn1             -563
    vpn2         -7726522
    vpn3         -2646594
    vpn4         -6063171
",
    );
}
