//! The pipeline's stage hook sees exactly the documented stage names, in
//! call order — they are the rows of `results/mem_stages*.txt` — and a run
//! that is watched returns what an unwatched one does.

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

/// A streamed run's names after `before`: one `push N` per chunk, `finish`,
/// then the diagnosis stages.
fn assert_streamed(names: &[String], before: &[&str], run: &Run) {
    let chunks = usize::try_from(run.streamed.expect("a streamed run").chunks).expect("fits");
    assert!(chunks >= 2, "{chunks} chunks");
    let (head, rest) = names.split_at(before.len());
    let (pushes, tail) = rest.split_at(chunks);
    assert_eq!(head, before);
    for (i, name) in pushes.iter().enumerate() {
        assert_eq!(*name, format!("push {}", i + 1));
    }
    assert_eq!(tail, ["finish", "diagnose", "relations", "aggregate"]);
}

#[test]
fn the_hook_sees_the_documented_stages_in_order_and_changes_nothing() {
    let dir = std::env::temp_dir().join(format!("msc_cli_stage_hook_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let record = Command::new(env!("CARGO_BIN_EXE_microscope"))
        .args(["record", "--millis", "20", "--rate", "1.0", "--seed", "7"])
        .args(["--interrupt", "nat2:8:800", "--chunk-ms", "10", "--out"])
        .arg(&dir)
        .output()
        .expect("run microscope record");
    assert!(record.status.success(), "record failed: {record:?}");
    let text = std::fs::read_to_string(dir.join("topology.txt")).expect("read topology");
    let deployment = parse_topology(&text).expect("parse topology");
    let (msc, mscs) = (dir.join("run.msc"), dir.join("run.mscs"));

    let (names, offline) = watched(|h| pipeline::diagnose(&deployment, &msc, false, 0.99, 10, h));
    assert_eq!(
        names,
        [
            "load",
            "streams",
            "match",
            "assemble",
            "timelines",
            "diagnose",
            "relations",
            "aggregate"
        ]
    );

    let (names, _) = watched(|h| pipeline::diagnose(&deployment, &msc, true, 0.99, 10, h));
    assert_eq!(
        names,
        [
            "load",
            "offsets",
            "correct",
            "streams",
            "match",
            "assemble",
            "timelines",
            "diagnose",
            "relations",
            "aggregate"
        ]
    );

    let (names, streamed) =
        watched(|h| pipeline::stream(&deployment, &mscs, None, false, 0.99, 10, h));
    assert_streamed(&names, &[], &streamed);
    assert_eq!(streamed.report, offline.report);

    let (names, streamed) =
        watched(|h| pipeline::stream(&deployment, &msc, Some(10), false, 0.99, 10, h));
    assert_streamed(&names, &["load", "chunk"], &streamed);
    assert_eq!(streamed.report, offline.report);

    let mut names = Vec::new();
    pipeline::skew(&deployment.0, &msc, &mut |stage, _| {
        names.push(stage.to_string())
    })
    .expect("skew");
    assert_eq!(names, ["load", "offsets"]);
    let _ = std::fs::remove_dir_all(&dir);
}
