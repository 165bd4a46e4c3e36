//! The recordings on which the clock-offset estimator is known to be wrong
//! (ROADMAP item 1a). Each test records `record --millis 60 --skew` at a
//! seed and rate, estimates the offsets as `microscope skew` does, and
//! requires every NF's estimate within 50 µs of its true offset — the gate
//! item 1b sets. They fail today, so they are ignored; each ignore reason
//! gives the measured errors (estimate minus true offset). `cargo test -p
//! microscope-cli --test skew_known_wrong -- --ignored` runs them.

use microscope_cli::pipeline;
use nf_types::{parse_topology, MICROS, MILLIS};
use std::process::Command;

/// Records the run, estimates its offsets and checks every one of them.
fn assert_offsets_within_50_us(seed: u64, rate: &str) {
    let dir = std::env::temp_dir().join(format!(
        "msc_cli_skew_known_wrong_{seed}_{rate}_{}",
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
