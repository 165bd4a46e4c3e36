//! Resident memory of `microscope diagnose` (or, with `--stream`, of
//! `microscope stream`), stage by stage.
//!
//! Simulates the run of the benchmark's `offline-250ms` workload (1.4 Mpps,
//! three 2 ms interrupts), writes it to disk — as `stream-250ms` has it, in
//! 50 ms chunks, with `--stream` — then re-executes itself as a child that
//! only *analyses* the files — so no simulator page is ever part of the
//! numbers — making the public calls of `commands::diagnose` /
//! `commands::stream` one at a time with the same lifetimes, and reading
//! `VmRSS` / `VmHWM` from `/proc/self/status` after each. (For `stream`
//! those are the calls `StreamEngine::push_chunk` / `finish` make without
//! `--skew`: this crate is in the dependency closure of the frozen,
//! `--locked` `benchmark/` package and cannot take `msc-stream` on.) The
//! table goes to stdout and to `<out>/mem_stages.txt`
//! (`mem_stages_stream.txt`); DESIGN.md ("Memory: bytes per hop, stage by
//! stage") explains its rows structure by structure.

use microscope::{
    diagnoses_to_relations, DiagnosisConfig, LatencyThreshold, Microscope, PeriodTracker,
};
use msc_collector::{
    chunk_bundle, load_bundle, save_bundle, save_bundle_chunked, BundleChunkReader, FlowRecord,
};
use msc_experiments::cli::Args;
use msc_trace::{
    assemble, match_all, Arrival, EdgeStreams, MatchConfig, ReconstructedTrace, Reconstruction,
    ReconstructionConfig, RxBatchInfo, Timelines, TraceHop, WindowedReconstructor,
};
use nf_sim::{paper_nf_configs, Fault, SimConfig, Simulation};
use nf_traffic::{CaidaLike, CaidaLikeConfig};
use nf_types::{emit_topology, paper_topology, parse_topology, Topology, MICROS, MILLIS};
use std::fmt::Write as _;
use std::mem::size_of;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// The benchmark's interrupted NFs, at these shares of the run, 2 ms each.
const INTERRUPTS: [(&str, u64); 3] = [("nat2", 24), ("fw3", 50), ("vpn1", 76)];

/// The arguments that select the child's half of the program.
const PROBE: &str = "--probe";
const PROBE_STREAM: &str = "--probe-stream";

/// Measures `stream` on a chunked file instead of `diagnose` on a whole one.
const STREAM: &str = "--stream";
/// The chunk length of the benchmark's `stream-250ms` workload.
const CHUNK_MS: u64 = 50;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let dir = || {
        argv.get(2)
            .map(Path::new)
            .ok_or("the probe wants a directory".to_string())
    };
    let result = match argv.get(1).map(String::as_str) {
        Some(PROBE) => dir().and_then(probe),
        Some(PROBE_STREAM) => dir().and_then(probe_stream),
        _ => record_and_spawn(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mem_stages: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Simulates the run, saves it, and runs the probe on the files in a child.
fn record_and_spawn() -> Result<(), String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let stream = argv.iter().any(|a| a == STREAM);
    argv.retain(|a| a != STREAM);
    let args = Args::try_parse_from(250, 1.4, argv).map_err(|e| e.to_string())?;
    let topology = paper_topology();
    let cfgs = paper_nf_configs(&topology);
    let rates: Vec<f64> = cfgs.iter().map(|c| c.service.peak_rate_pps()).collect();
    let mut sim = Simulation::new(
        topology.clone(),
        cfgs,
        SimConfig {
            seed: args.seed,
            record_fates: false,
            ..Default::default()
        },
    );
    for (name, pct) in INTERRUPTS {
        sim.add_fault(Fault::Interrupt {
            nf: topology.by_name(name).ok_or("paper topology lost an NF")?,
            at: args.duration_ns() * pct / 100,
            duration: 2_000 * MICROS,
        });
    }
    let traffic = CaidaLikeConfig {
        rate_pps: args.rate_pps(),
        ..Default::default()
    };
    let packets = CaidaLike::new(traffic, args.seed)
        .generate(0, args.duration_ns())
        .finalize(0);
    let run = sim.run(&packets);

    let table_path = args.csv_path(if stream {
        "mem_stages_stream.txt"
    } else {
        "mem_stages.txt"
    });
    let dir = args
        .out
        .join(format!("mem_stages_input_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {dir:?}: {e}"))?;
    std::fs::write(dir.join("topology.txt"), emit_topology(&topology, &rates))
        .map_err(|e| format!("write topology: {e}"))?;
    if stream {
        let chunks = chunk_bundle(&run.bundle, CHUNK_MS * MILLIS);
        save_bundle_chunked(&dir.join("run.mscs"), &chunks)
    } else {
        save_bundle(&dir.join("run.msc"), &run.bundle)
    }
    .map_err(|e| format!("write bundle: {e}"))?;
    drop(run);

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let probe = if stream { PROBE_STREAM } else { PROBE };
    let child = Command::new(exe).arg(probe).arg(&dir).output();
    let _ = std::fs::remove_dir_all(&dir);
    let child = child.map_err(|e| format!("spawn probe: {e}"))?;
    if !child.status.success() {
        return Err(format!(
            "probe failed: {}",
            String::from_utf8_lossy(&child.stderr)
        ));
    }
    let table = format!(
        "# mem_stages{} --millis {} --rate {} --seed {}: resident memory of `{}`, stage by stage\n{}",
        if stream { " --stream" } else { "" },
        args.millis,
        args.rate_mpps,
        args.seed,
        if stream { "stream" } else { "diagnose" },
        String::from_utf8_lossy(&child.stdout)
    );
    print!("{table}");
    std::fs::write(&table_path, &table).map_err(|e| format!("write {table_path:?}: {e}"))
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
    /// The header row; `extra` names a column only some probes fill.
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

/// `commands::report_diagnosis` up to the relations, one row per call, then
/// the input / output / `size_of` footer. `input` is what the caller knows
/// of the file beyond the reconstruction.
fn diagnose_and_finish(
    mut stages: Stages,
    topology: Topology,
    rates: Vec<f64>,
    recon: &Reconstruction,
    timelines: &Timelines,
    input: &str,
) {
    let mut dc = DiagnosisConfig::default();
    dc.victims.latency = LatencyThreshold::Quantile(0.99);
    dc.victims.max_victims = Some(5_000);
    let engine = Microscope::new(topology, rates, dc);
    let (diagnoses, _) = engine.diagnose_all_stats(recon, timelines);
    stages.row("diagnose", "");
    let relations = diagnoses_to_relations(recon, &diagnoses);
    stages.row("relations", "");

    let mut out = stages.out;
    let packets = recon.traces.len();
    let hops = recon.hops.len();
    let arrivals: usize = timelines.nfs.iter().map(|t| t.arrivals.len()).sum();
    let reads: usize = recon.reads.iter().map(Vec::len).sum();
    let (_, hwm) = resident_mb();
    let _ = writeln!(
        out,
        "\n# input: {packets} packets, {hops} hops, {arrivals} arrivals, {reads} rx batches, \
         {} paths, {input}",
        recon.paths.len()
    );
    let _ = writeln!(
        out,
        "# output: {} victims, {} relations; peak {hwm:.1} MB = {:.0} B/packet",
        diagnoses.len(),
        relations.len(),
        hwm * 1e6 / packets.max(1) as f64
    );
    let _ = writeln!(
        out,
        "# size_of: TraceHop {} Arrival {} RxBatchInfo {} ReconstructedTrace {} FlowRecord {}; \
         per rx entry 8 + 2, per tx entry 2 + 4, per edge position 8 + 2 (+ 4 matched), \
         per source record 2 + 4, per trace 4 (path id)",
        size_of::<TraceHop>(),
        size_of::<Arrival>(),
        size_of::<RxBatchInfo>(),
        size_of::<ReconstructedTrace>(),
        size_of::<FlowRecord>(),
    );
    print!("{out}");
}

fn load_deployment(dir: &Path) -> Result<(Topology, Vec<f64>), String> {
    let text = std::fs::read_to_string(dir.join("topology.txt")).map_err(|e| e.to_string())?;
    parse_topology(&text).map_err(|e| e.to_string())
}

/// The child: `commands::diagnose` call by call on the files in `dir`.
fn probe(dir: &Path) -> Result<(), String> {
    let mut stages = Stages::new("");
    let (topology, rates) = load_deployment(dir)?;
    let bundle_path = dir.join("run.msc");
    let file_mb = std::fs::metadata(&bundle_path).map_or(0, |m| m.len()) as f64 / 1e6;
    stages.row("start", "");

    let bundle = load_bundle(&bundle_path).map_err(|e| e.to_string())?;
    stages.row("load", "");
    let tx_batches: usize = bundle.logs.iter().map(|l| l.tx.len()).sum();
    let appearances = bundle.packet_appearances();

    let cfg = ReconstructionConfig::default();
    let streams = EdgeStreams::build(&topology, &bundle);
    stages.row("streams", "");
    let matches = match_all(&streams, &topology, &cfg);
    stages.row("match", "");
    let edge_positions: usize = matches
        .iter()
        .flat_map(|m| {
            m.upstreams
                .iter()
                .map(|&u| m.outcome(u).map_or(0, |o| o.len()))
        })
        .sum();
    let recon = assemble(&topology, &bundle, streams, &matches);
    drop(matches);
    drop(bundle);
    stages.row("assemble", "");
    let timelines = Timelines::build(&recon);
    stages.row("timelines", "");

    let input = format!(
        "{appearances} appearances, {edge_positions} edge positions, {tx_batches} tx batches, \
         bundle file {file_mb:.1} MB"
    );
    diagnose_and_finish(stages, topology, rates, &recon, &timelines, &input);
    Ok(())
}

/// The child of `--stream`: `commands::stream` call by call on the chunked
/// file in `dir`, with the engine's evictable frontier beside each push.
fn probe_stream(dir: &Path) -> Result<(), String> {
    let mut stages = Stages::new(&format!(" {:>11}", "frontier_MB"));
    let (topology, rates) = load_deployment(dir)?;
    let bundle_path = dir.join("run.mscs");
    let file_mb = std::fs::metadata(&bundle_path).map_or(0, |m| m.len()) as f64 / 1e6;
    stages.row("start", "");

    let mut engine = WindowedReconstructor::new(&topology, MatchConfig::default());
    let mut periods = PeriodTracker::new(topology.len());
    let (mut chunks, mut frontier_peak) = (0, 0);
    let mut rdr = BundleChunkReader::open(&bundle_path).map_err(|e| e.to_string())?;
    while let Some(chunk) = rdr.next_chunk().map_err(|e| e.to_string())? {
        for log in &chunk.bundle.logs {
            for r in log.rx.iter() {
                periods.on_read(log.nf, r.ts, r.drained_queue());
            }
        }
        engine.ingest_chunk(&chunk).map_err(|e| e.to_string())?;
        drop(chunk);
        chunks += 1;
        frontier_peak = frontier_peak.max(engine.working_set());
        let frontier = format!(" {:>11.1}", engine.working_set() as f64 / 1e6);
        stages.row(&format!("push {chunks}"), &frontier);
    }
    let input = format!(
        "{chunks} chunks of {CHUNK_MS} ms, frontier peak {:.1} MB, bundle file {file_mb:.1} MB",
        frontier_peak as f64 / 1e6
    );
    let (recon, timelines) = engine.finish();
    stages.row("finish", "");
    diagnose_and_finish(stages, topology, rates, &recon, &timelines, &input);
    Ok(())
}
