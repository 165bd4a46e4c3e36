//! `run.sh --smoke`: the whole benchmark end to end on 40 ms inputs — both
//! builds, every workload untraced and traced, the probe, the result files.

use std::path::Path;
use std::process::Command;

#[test]
fn smoke_run_is_clean_and_writes_every_file() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let run = Command::new("bash")
        .arg(here.join("run.sh"))
        .arg("--smoke")
        .output()
        .expect("bash is installed");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "run.sh --smoke failed\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    for name in ["offline-250ms", "stream-250ms", "skew-120ms", "patterns-4k"] {
        assert!(
            stdout.contains(&format!("{name} — ")),
            "{name} missing\n{stdout}"
        );
        let trace = here.join(format!("out/trace-{name}.json"));
        let text = std::fs::read_to_string(&trace).expect("trace file written");
        assert!(text.contains("\"spans\""), "{trace:?} has no spans");
    }
    for metric in [
        "wall_s",
        "peak_rss_mb",
        "culprit_recall",
        "setup_s",
        "failed_share",
    ] {
        assert_eq!(
            stdout.matches(&format!("  {metric} ")).count(),
            4,
            "{metric}\n{stdout}"
        );
    }
    assert!(stdout.contains("cli.stream_skew_ok"), "{stdout}");
    assert!(!stdout.contains("FAILED"), "{stdout}");
    let results = std::fs::read_to_string(here.join("out/results.json")).expect("results written");
    assert!(results.contains("\"smoke\": true") && results.contains("\"end_to_end\""));
}
