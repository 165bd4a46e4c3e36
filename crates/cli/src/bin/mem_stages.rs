//! Resident memory of `microscope diagnose`, stage by stage.
//!
//! ```text
//! microscope record --out DIR --millis 250 --rate 1.4 --chunk-ms 50 \
//!     --interrupt nat2:60:2000 --interrupt fw3:125:2000 --interrupt vpn1:190:2000
//! mem_stages DIR [--stream] [--skew]
//! ```
//!
//! Runs the CLI's own pipeline (`microscope_cli::pipeline`) on `DIR/run.msc`
//! (`--stream`: `DIR/run.mscs`; `--skew`: as `diagnose --skew`) with a stage
//! hook that reads `VmRSS` / `VmHWM` from `/proc/self/status` and the fault
//! and CPU counters from `/proc/self/stat` — so the rows are the stages of
//! the command itself, in a process that never held a simulator page. The
//! table goes to stdout under a header naming the command and the file;
//! `results/mem_stages.txt` and `results/mem_stages_stream.txt` are the
//! `.msc` and the `.mscs` of the recording above (the benchmark's
//! `offline-250ms` / `stream-250ms` run), and DESIGN.md ("Memory: bytes per
//! hop, stage by stage") explains their rows structure by structure.
//! `results/mem_stages_skew.txt` is `--skew` on a `record --skew` run; the
//! clock-offset estimates run inside the `push` rows of the windows held
//! until the offsets settle.

#![forbid(unsafe_code)]

use microscope_cli::pipeline::{self, Produced};
use msc_collector::FlowRecord;
use msc_trace::{Arrival, ReconstructedTrace, RxBatchInfo, TraceHop};
use nf_types::parse_topology;
use std::fmt::Write as _;
use std::mem::size_of;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (switches, dirs): (Vec<&str>, Vec<&str>) = args
        .iter()
        .map(String::as_str)
        .partition(|a| a.starts_with("--"));
    let known = switches.iter().all(|s| ["--stream", "--skew"].contains(s));
    let result = match dirs[..] {
        [dir] if known => probe(
            Path::new(dir),
            switches.contains(&"--stream"),
            switches.contains(&"--skew"),
        ),
        _ => Err("usage: mem_stages DIR [--stream] [--skew] \
             (DIR: a `microscope record --out` directory)"
            .to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mem_stages: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `VmRSS` and `VmHWM` of this process, in MB.
fn resident_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            .map_or(0.0, |kb: f64| kb * 1024.0 / 1e6)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Minor page faults, user ms and system ms of this process so far, from
/// `/proc/self/stat` (fields 10, 14, 15; times in `USER_HZ` = 100 ticks).
fn faults_and_cpu_ms() -> (u64, u64, u64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let field = |n: usize| {
        rest.split_whitespace()
            .nth(n - 3)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0u64)
    };
    (field(10), field(14) * 10, field(15) * 10)
}

/// One table row per stage: wall, CPU and fault deltas since the previous
/// row, resident set now and at its peak.
struct Stages {
    out: String,
    clock: Instant,
    before: (u64, u64, u64),
}

impl Stages {
    /// The header row; `extra` names a column only some rows fill.
    fn new(extra: &str) -> Self {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>8} {:>8} {:>9} {:>10} {:>10}{extra}",
            "stage", "ms", "user_ms", "sys_ms", "minflt", "VmRSS_MB", "VmHWM_MB"
        );
        Self {
            out,
            clock: Instant::now(),
            before: faults_and_cpu_ms(),
        }
    }

    fn row(&mut self, name: &str, extra: &str) {
        let (rss, hwm) = resident_mb();
        let ms = self.clock.elapsed().as_secs_f64() * 1e3;
        let after = faults_and_cpu_ms();
        let (flt, user, sys) = (
            after.0 - self.before.0,
            after.1 - self.before.1,
            after.2 - self.before.2,
        );
        let _ = writeln!(
            self.out,
            "{name:<10} {ms:>8.1} {user:>8} {sys:>8} {flt:>9} {rss:>10.1} {hwm:>10.1}{extra}"
        );
        self.clock = Instant::now();
        self.before = after;
    }
}

/// Runs `diagnose` (with `skew`, `diagnose --skew`) on the recording in
/// `dir` — its `.mscs` when `chunked` — with the CLI's default flags, one
/// row per stage, then the input / output / `size_of` footer counted from
/// what the stages lent the hook.
fn probe(dir: &Path, chunked: bool, skew: bool) -> Result<(), String> {
    let mut stages = Stages::new(&format!(" {:>11}", "frontier_MB"));
    let topology = dir.join("topology.txt");
    let path = topology.display();
    let text = std::fs::read_to_string(&topology).map_err(|e| format!("read {path}: {e}"))?;
    let deployment = parse_topology(&text).map_err(|e| format!("{path}: {e}"))?;
    let bundle = dir.join(if chunked { "run.mscs" } else { "run.msc" });
    let file_mb = std::fs::metadata(&bundle).map_or(0, |m| m.len()) as f64 / 1e6;
    stages.row("start", "");

    let mut input = String::new();
    let (mut chunks, mut frontier_peak) = (0, 0);
    let mut hook = |stage: &str, produced: Produced<'_>| match produced {
        Produced::Engine(engine) => {
            let frontier = engine.working_set();
            stages.row(stage, &format!(" {:>11.1}", frontier as f64 / 1e6));
            chunks = engine.chunks();
            frontier_peak = engine.working_set_peak();
        }
        Produced::Finished(recon, timelines) => {
            stages.row(stage, "");
            let arrivals: usize = timelines.nfs.iter().map(|t| t.arrivals.len()).sum();
            let _ = write!(
                input,
                "{} packets, {} hops, {} rx batches, {} paths, {arrivals} arrivals, ",
                recon.traces.len(),
                recon.hops.len(),
                recon.reads.iter().map(Vec::len).sum::<usize>(),
                recon.paths.len()
            );
        }
        _ => stages.row(stage, ""),
    };
    let run = pipeline::diagnose(&deployment, &bundle, None, skew, 0.99, 10, &mut hook)?;

    let _ = write!(
        input,
        "{chunks} chunks, frontier peak {:.1} MB, ",
        frontier_peak as f64 / 1e6
    );
    let (_, hwm) = resident_mb();
    let packets = run.report.reconstruction.total.max(1);
    let mut out = stages.out;
    let _ = writeln!(out, "\n# input: {input}bundle file {file_mb:.1} MB");
    let _ = writeln!(
        out,
        "# output: {} victims, {} relations, {} patterns; peak {hwm:.1} MB = {:.0} B/packet",
        run.report.victims,
        run.relations_total,
        run.report.patterns_total,
        hwm * 1e6 / packets as f64
    );
    let _ = writeln!(
        out,
        "# size_of: TraceHop {} Arrival {} RxBatchInfo {} ReconstructedTrace {} FlowRecord {}; \
         per rx entry 8 + 2, per tx entry 2 + 4, per source record 2 + 4, per trace 4 \
         (path id)",
        size_of::<TraceHop>(),
        size_of::<Arrival>(),
        size_of::<RxBatchInfo>(),
        size_of::<ReconstructedTrace>(),
        size_of::<FlowRecord>(),
    );
    print!(
        "# resident memory of `microscope {}` on {}, stage by stage\n{out}",
        if skew { "diagnose --skew" } else { "diagnose" },
        bundle.display()
    );
    Ok(())
}
