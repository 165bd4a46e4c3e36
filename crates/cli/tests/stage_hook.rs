//! The pipeline's stage hook sees exactly the documented stage names, in
//! call order — they are the rows of `results/mem_stages*.txt` — and a run
//! that is watched returns what an unwatched one does:
//!
//! * `diagnose` on either container, with or without `--skew`: `push 1` …
//!   `push N`, `finish`, `diagnose`, `relations`, `aggregate`;
//! * `skew`: `push 1` … `push K`, K the chunk after which `diagnose --skew`
//!   settled its offsets, or every chunk of a run on which they settle only
//!   at the end — never `finish`: `skew` reconstructs nothing.

use microscope_cli::pipeline::{self, Deployment, Hook, Run, Settled};
use msc_collector::load_bundle;
use msc_trace::estimate_offsets_refined_detailed;
use nf_types::parse_topology;
use std::path::{Path, PathBuf};
use std::process::Command;

/// `microscope record` with `args` into a fresh directory named after
/// `name`: the directory and the recording's deployment.
fn record(name: &str, args: &str) -> (PathBuf, Deployment) {
    let dir = std::env::temp_dir().join(format!("msc_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let record = Command::new(env!("CARGO_BIN_EXE_microscope"))
        .arg("record")
        .args(args.split_whitespace())
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("run microscope record");
    assert!(record.status.success(), "record failed: {record:?}");
    let text = std::fs::read_to_string(dir.join("topology.txt")).expect("read topology");
    let deployment = parse_topology(&text).expect("parse topology");
    (dir, deployment)
}

/// `skew` on `bundle`: the stage names its hook saw, and the offsets.
fn skew_stages(deployment: &Deployment, bundle: &Path) -> (Vec<String>, Vec<i64>) {
    let mut names = Vec::new();
    let est = pipeline::skew(&deployment.0, bundle, &mut |stage, _| {
        names.push(stage.to_string())
    })
    .expect("skew");
    (names, est.offsets)
}

fn pushes(n: u64) -> Vec<String> {
    (1..=n).map(|i| format!("push {i}")).collect()
}

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
    // 60 ms: six of `diagnose`'s 10 ms windows.
    let (dir, deployment) = record(
        "stage_hook",
        "--millis 60 --rate 1.0 --seed 7 --interrupt nat2:8:800 --chunk-ms 10",
    );
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
    let expected = match skewed.settled {
        Some(Settled::After(held)) => pushes(held),
        other => panic!("diagnose --skew settles mid-run here, not {other:?}"),
    };
    for bundle in [&msc, &mscs] {
        let (names, offsets) = skew_stages(&deployment, bundle);
        assert_eq!(names, expected, "{}", bundle.display());
        assert_eq!(Some(offsets), skewed.report.offsets);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `--skew` run in which nat2 stalls for longer than the traffic lasts: it
/// reads only once the rest has drained, so no estimate before the last
/// covers it and the offsets settle only at the end. `skew` reads every
/// chunk, reconstructs nothing (no `finish`) and returns what `diagnose
/// --skew` corrects by: the estimate over the whole run.
#[test]
fn skew_reads_a_run_that_never_settles_to_its_end_without_finishing() {
    let (dir, deployment) = record(
        "stage_hook_unsettled",
        "--millis 60 --rate 1.0 --seed 7 --skew --interrupt nat2:0:70000 --chunk-ms 10",
    );
    let (msc, mscs) = (dir.join("run.msc"), dir.join("run.mscs"));
    let (names, diagnosed) =
        watched(|h| pipeline::diagnose(&deployment, &msc, None, true, 0.99, 10, h));
    assert_engine_stages(&names, &diagnosed);
    let chunks = diagnosed.streamed.chunks;
    assert_eq!(diagnosed.settled, Some(Settled::AtEnd(chunks)));
    let whole = load_bundle(&msc).expect("load the run");
    let loaded = estimate_offsets_refined_detailed(&deployment.0, &[&whole]).offsets;
    assert_eq!(diagnosed.report.offsets.as_ref(), Some(&loaded));
    for bundle in [&msc, &mscs] {
        let (names, offsets) = skew_stages(&deployment, bundle);
        assert_eq!(names, pushes(chunks), "{}", bundle.display());
        assert_eq!(offsets, loaded, "{}", bundle.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
