//! The pipeline's stage hook sees exactly the documented stage names, in
//! call order — they are the rows of `results/mem_stages*.txt` — and a run
//! that is watched returns what an unwatched one does:
//!
//! * `diagnose` on either container, with or without `--skew`: `push 1` …
//!   `push N`, `finish`, `diagnose`, `relations`, `aggregate`;
//! * `skew`: `push 1` … `push K`, K the chunk after which `diagnose --skew`
//!   settled its offsets (or every push and `finish`, where it settled only
//!   at the end).

use microscope_cli::pipeline::{self, Hook, Run, Settled};
use nf_types::parse_topology;
use std::process::Command;

/// `run` with a hook that writes the stage names down and with one that does
/// nothing: the names, and the run both returned.
fn watched(run: impl Fn(Hook<'_>) -> Result<Run, String>) -> (Vec<String>, Run) {
    let mut names = Vec::new();
    let seen = run(&mut |stage, _| names.push(stage.to_string())).expect("watched run");
    let unseen = run(&mut |_, _| {}).expect("unwatched run");
    assert_eq!(seen, unseen);
    assert_eq!(seen.report.to_string(), unseen.report.to_string());
    (names, seen)
}

/// A run's names: `push 1` … `push N`, one per chunk, `finish`, then the
/// diagnosis stages.
fn assert_engine_stages(names: &[String], run: &Run) {
    let chunks = names.iter().take_while(|n| n.starts_with("push ")).count();
    assert!(chunks >= 2, "{chunks} chunks");
    assert_eq!(chunks as u64, run.streamed.chunks);
    for (i, name) in names[..chunks].iter().enumerate() {
        assert_eq!(*name, format!("push {}", i + 1));
    }
    assert_eq!(
        &names[chunks..],
        ["finish", "diagnose", "relations", "aggregate"]
    );
}

#[test]
fn the_hook_sees_the_documented_stages_in_order_and_changes_nothing() {
    let dir = std::env::temp_dir().join(format!("msc_cli_stage_hook_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let record = Command::new(env!("CARGO_BIN_EXE_microscope"))
        // 60 ms: six of `diagnose`'s 10 ms windows.
        .args(["record", "--millis", "60", "--rate", "1.0", "--seed", "7"])
        .args(["--interrupt", "nat2:8:800", "--chunk-ms", "10", "--out"])
        .arg(&dir)
        .output()
        .expect("run microscope record");
    assert!(record.status.success(), "record failed: {record:?}");
    let text = std::fs::read_to_string(dir.join("topology.txt")).expect("read topology");
    let deployment = parse_topology(&text).expect("parse topology");
    let (msc, mscs) = (dir.join("run.msc"), dir.join("run.mscs"));

    let (names, offline) =
        watched(|h| pipeline::diagnose(&deployment, &msc, None, false, 0.99, 10, h));
    assert_engine_stages(&names, &offline);

    let (names, skewed) =
        watched(|h| pipeline::diagnose(&deployment, &msc, None, true, 0.99, 10, h));
    assert_engine_stages(&names, &skewed);

    let (names, streamed) =
        watched(|h| pipeline::diagnose(&deployment, &mscs, None, false, 0.99, 10, h));
    assert_engine_stages(&names, &streamed);
    assert_eq!(streamed.report, offline.report);

    let (names, streamed) =
        watched(|h| pipeline::diagnose(&deployment, &msc, Some(5), false, 0.99, 10, h));
    assert_engine_stages(&names, &streamed);
    assert_eq!(streamed.report, offline.report);

    // `skew` reads `diagnose --skew`'s windows up to the one its offsets
    // settled on.
    let mut names = Vec::new();
    pipeline::skew(&deployment.0, &msc, &mut |stage, _| {
        names.push(stage.to_string())
    })
    .expect("skew");
    let pushes = |n: u64| (1..=n).map(|i| format!("push {i}"));
    let expected: Vec<String> = match skewed.settled {
        Some(Settled::After(held)) => pushes(held).collect(),
        Some(Settled::AtEnd(held)) => pushes(held).chain(["finish".to_string()]).collect(),
        None => panic!("diagnose --skew reports when its offsets settled"),
    };
    assert_eq!(names, expected);
    let _ = std::fs::remove_dir_all(&dir);
}
