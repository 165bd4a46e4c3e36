//! Mutations of the one operator-written input, the deployment description:
//! every mutant of the `topology.txt` that `record` writes is either refused
//! by `parse_topology` with a typed error or carried through `diagnose` on
//! both recorded containers without a panic, to one report — and a
//! description that lost an edge the bundle's packets crossed is visible in
//! the run (`unmatched_rx`, the condition of the CLI's "recorded on this
//! topology?" note), where the description `record` wrote is not.

use microscope_cli::pipeline::{self, Run};
use nf_types::parse_topology;
use std::path::Path;
use std::process::Command;

/// `diagnose` on the `.msc` and on the `.mscs` with `text`, when it parses:
/// what both made of it.
/// A panic in either is the test's failure; the mutant's name is on stderr
/// just before it.
fn run_both(label: &str, text: &str, msc: &Path, mscs: &Path) -> Option<Result<Run, String>> {
    eprintln!("mutant: {label}");
    let deployment = parse_topology(text).ok()?;
    let offline = pipeline::diagnose(&deployment, msc, None, false, 0.99, 10, &mut |_, _| {});
    let streamed = pipeline::diagnose(&deployment, mscs, None, false, 0.99, 10, &mut |_, _| {});
    match (&offline, &streamed) {
        (Ok(a), Ok(b)) => assert_eq!(a.report, b.report, "{label}"),
        (Err(_), Err(_)) => {}
        _ => panic!("{label}: diagnose .msc {offline:?}, diagnose .mscs {streamed:?}"),
    }
    Some(offline)
}

/// `lines` with line `at` replaced by `with`, or dropped.
fn mutate(lines: &[&str], at: usize, with: Option<&str>) -> String {
    let kept = lines.iter().enumerate();
    let kept = kept.filter_map(|(i, &l)| if i == at { with } else { Some(l) });
    kept.map(|l| format!("{l}\n")).collect()
}

#[test]
fn no_mutant_of_the_recorded_topology_panics_and_a_missing_edge_shows() {
    let dir = std::env::temp_dir().join(format!("msc_cli_topology_mut_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let record = Command::new(env!("CARGO_BIN_EXE_microscope"))
        .args(["record", "--millis", "10", "--rate", "1.0", "--seed", "3"])
        .args(["--interrupt", "fw3:5:500", "--chunk-ms", "5", "--out"])
        .arg(&dir)
        .output()
        .expect("run microscope record");
    assert!(record.status.success(), "record failed: {record:?}");
    let text = std::fs::read_to_string(dir.join("topology.txt")).expect("read topology");
    let (msc, mscs) = (dir.join("run.msc"), dir.join("run.mscs"));
    let lines: Vec<&str> = text.lines().collect();

    let clean = run_both("none", &text, &msc, &mscs).expect("the recorded topology parses");
    let clean = clean.expect("the recorded topology runs");
    assert_eq!(clean.report.reconstruction.unmatched_rx, 0);

    // Each line dropped in turn.
    let mut edges_dropped = 0;
    for (i, line) in lines.iter().enumerate() {
        let mutant = mutate(&lines, i, None);
        let runs = run_both(&format!("drop {line:?}"), &mutant, &msc, &mscs);
        if line.starts_with("edge ") {
            edges_dropped += 1;
            let run = runs.expect("an edge less still parses");
            let run = run.expect("an edge less still runs");
            assert!(
                run.report.reconstruction.unmatched_rx > 0,
                "{line:?} dropped: its reads have no upstream send left"
            );
        }
    }
    assert!(edges_dropped > 0, "{text}");

    // No entry at all: refused, not a panic at the first source record.
    let no_entry: String = lines
        .iter()
        .filter(|l| !l.starts_with("entry "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(parse_topology(&no_entry).is_err());

    // Each peak rate replaced by something that is not a rate.
    let mut rates_replaced = 0;
    for (i, line) in lines.iter().enumerate() {
        let Some((head, _rate)) = line.rsplit_once(' ').filter(|_| line.starts_with("nf ")) else {
            continue;
        };
        rates_replaced += 1;
        for bad in ["nan", "inf", "-1", "0", "1e400"] {
            let mutant = format!("{head} {bad}");
            let text = mutate(&lines, i, Some(&mutant));
            assert!(parse_topology(&text).is_err(), "{mutant:?} was accepted");
        }
    }
    assert!(rates_replaced > 0, "{text}");

    // An entry declared twice is the same deployment.
    for line in lines.iter().filter(|l| l.starts_with("entry ")) {
        let text = format!("{text}{line}\n");
        let run = run_both(&format!("twice {line:?}"), &text, &msc, &mscs).expect("parses");
        assert_eq!(run.expect("runs").report, clean.report, "{line:?} twice");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
