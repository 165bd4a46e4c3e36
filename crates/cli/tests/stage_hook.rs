//! The pipeline's stage hook sees exactly the documented stage names, in
//! call order — they are the rows of `results/mem_stages*.txt` — and a run
//! that is watched returns what an unwatched one does:
//!
//! * `diagnose`, and `stream` on either container, with or without
//!   `--skew`: `push 1` … `push N`, `finish`, `diagnose`, `relations`,
//!   `aggregate`;
//! * `skew`: `load`, `offsets`.

use microscope_cli::pipeline::{self, Hook, Run};
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

/// The names after `before` — the stages of a run through the engine:
/// `push 1` … `push N`, `finish`, then the diagnosis stages. Returns N.
fn assert_engine_stages(names: &[String], before: &[&str]) -> usize {
    let (head, rest) = names.split_at(before.len());
    assert_eq!(head, before);
    let chunks = rest.iter().take_while(|n| n.starts_with("push ")).count();
    assert!(chunks >= 2, "{chunks} chunks");
    for (i, name) in rest[..chunks].iter().enumerate() {
        assert_eq!(*name, format!("push {}", i + 1));
    }
    assert_eq!(
        &rest[chunks..],
        ["finish", "diagnose", "relations", "aggregate"]
    );
    chunks
}

/// A `stream` run's names: the engine's stages, one push per chunk.
fn assert_streamed(names: &[String], run: &Run) {
    let chunks = run.streamed.expect("a streamed run").chunks;
    assert_eq!(assert_engine_stages(names, &[]) as u64, chunks);
}

#[test]
fn the_hook_sees_the_documented_stages_in_order_and_changes_nothing() {
    let dir = std::env::temp_dir().join(format!("msc_cli_stage_hook_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let record = Command::new(env!("CARGO_BIN_EXE_microscope"))
        // 60 ms: two of `diagnose`'s 50 ms windows.
        .args(["record", "--millis", "60", "--rate", "1.0", "--seed", "7"])
        .args(["--interrupt", "nat2:8:800", "--chunk-ms", "10", "--out"])
        .arg(&dir)
        .output()
        .expect("run microscope record");
    assert!(record.status.success(), "record failed: {record:?}");
    let text = std::fs::read_to_string(dir.join("topology.txt")).expect("read topology");
    let deployment = parse_topology(&text).expect("parse topology");
    let (msc, mscs) = (dir.join("run.msc"), dir.join("run.mscs"));

    let (names, offline) = watched(|h| pipeline::diagnose(&deployment, &msc, false, 0.99, 10, h));
    assert_engine_stages(&names, &[]);

    let (names, _) = watched(|h| pipeline::diagnose(&deployment, &msc, true, 0.99, 10, h));
    assert_engine_stages(&names, &[]);

    let (names, streamed) =
        watched(|h| pipeline::stream(&deployment, &mscs, None, false, 0.99, 10, h));
    assert_streamed(&names, &streamed);
    assert_eq!(streamed.report, offline.report);

    let (names, streamed) =
        watched(|h| pipeline::stream(&deployment, &msc, Some(10), false, 0.99, 10, h));
    assert_streamed(&names, &streamed);
    assert_eq!(streamed.report, offline.report);

    let mut names = Vec::new();
    pipeline::skew(&deployment.0, &msc, &mut |stage, _| {
        names.push(stage.to_string())
    })
    .expect("skew");
    assert_eq!(names, ["load", "offsets"]);
    let _ = std::fs::remove_dir_all(&dir);
}
