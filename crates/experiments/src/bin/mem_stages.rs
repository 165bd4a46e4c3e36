//! Resident memory of `microscope diagnose`, stage by stage.
//!
//! Simulates the run of the benchmark's `offline-250ms` workload (1.4 Mpps,
//! three 2 ms interrupts), writes it to disk, then re-executes itself as a
//! child that only *analyses* the files — so no simulator page is ever part
//! of the numbers — making the public calls of `commands::diagnose` one at a
//! time with the same lifetimes, and reading `VmRSS` / `VmHWM` from
//! `/proc/self/status` after each. The table goes to stdout and to
//! `<out>/mem_stages.txt`; DESIGN.md ("Memory: bytes per hop, stage by
//! stage") explains its rows structure by structure.

use microscope::{diagnoses_to_relations, DiagnosisConfig, LatencyThreshold, Microscope};
use msc_collector::{load_bundle, save_bundle, FlowRecord};
use msc_experiments::cli::Args;
use msc_trace::{
    assemble, match_all, Arrival, EdgeStreams, ReconstructedTrace, ReconstructionConfig,
    RxBatchInfo, RxEntry, RxTraceRef, SourceEntry, Timelines, TraceHop, TxEntry,
};
use nf_sim::{paper_nf_configs, Fault, SimConfig, Simulation};
use nf_traffic::{CaidaLike, CaidaLikeConfig};
use nf_types::{emit_topology, paper_topology, parse_topology, MICROS};
use std::fmt::Write as _;
use std::mem::size_of;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// The benchmark's interrupted NFs, at these shares of the run, 2 ms each.
const INTERRUPTS: [(&str, u64); 3] = [("nat2", 24), ("fw3", 50), ("vpn1", 76)];

/// The argument that selects the child's half of the program.
const PROBE: &str = "--probe";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let result = match argv.get(1).map(String::as_str) {
        Some(PROBE) => argv
            .get(2)
            .ok_or("--probe wants a directory".to_string())
            .and_then(|d| probe(Path::new(d))),
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
    let args = Args::parse(250, 1.4);
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

    let table_path = args.csv_path("mem_stages.txt");
    let dir = args
        .out
        .join(format!("mem_stages_input_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {dir:?}: {e}"))?;
    std::fs::write(dir.join("topology.txt"), emit_topology(&topology, &rates))
        .map_err(|e| format!("write topology: {e}"))?;
    save_bundle(&dir.join("run.msc"), &run.bundle).map_err(|e| format!("write bundle: {e}"))?;
    drop(run);

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let child = Command::new(exe).arg(PROBE).arg(&dir).output();
    let _ = std::fs::remove_dir_all(&dir);
    let child = child.map_err(|e| format!("spawn probe: {e}"))?;
    if !child.status.success() {
        return Err(format!(
            "probe failed: {}",
            String::from_utf8_lossy(&child.stderr)
        ));
    }
    let table = format!(
        "# mem_stages --millis {} --rate {} --seed {}: resident memory of `diagnose`, stage by stage\n{}",
        args.millis,
        args.rate_mpps,
        args.seed,
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

/// The child: `commands::diagnose` call by call on the files in `dir`.
fn probe(dir: &Path) -> Result<(), String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>8} {:>8} {:>9} {:>10} {:>10}",
        "stage", "ms", "user_ms", "sys_ms", "minflt", "VmRSS_MB", "VmHWM_MB"
    );
    let mut clock = Instant::now();
    let mut before = faults_and_cpu_ms();
    let mut stage = |out: &mut String, name: &str| {
        let (rss, hwm) = resident_mb();
        let ms = clock.elapsed().as_secs_f64() * 1e3;
        let after = faults_and_cpu_ms();
        let (flt, user, sys) = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
        let _ = writeln!(
            out,
            "{name:<10} {ms:>8.1} {user:>8} {sys:>8} {flt:>9} {rss:>10.1} {hwm:>10.1}"
        );
        clock = Instant::now();
        before = after;
    };

    let text = std::fs::read_to_string(dir.join("topology.txt")).map_err(|e| e.to_string())?;
    let (topology, rates) = parse_topology(&text).map_err(|e| e.to_string())?;
    let bundle_path = dir.join("run.msc");
    let file_mb = std::fs::metadata(&bundle_path).map_or(0, |m| m.len()) as f64 / 1e6;
    stage(&mut out, "start");

    let bundle = load_bundle(&bundle_path).map_err(|e| e.to_string())?;
    stage(&mut out, "load");
    let packets = bundle.source_flows.len();
    let rx_batches: usize = bundle.logs.iter().map(|l| l.rx.len()).sum();
    let tx_batches: usize = bundle.logs.iter().map(|l| l.tx.len()).sum();
    let appearances = bundle.packet_appearances();

    let cfg = ReconstructionConfig::default();
    let streams = EdgeStreams::build(&topology, &bundle);
    stage(&mut out, "streams");
    let matches = match_all(&streams, &topology, &cfg);
    stage(&mut out, "match");
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
    stage(&mut out, "assemble");
    let timelines = Timelines::build(&recon);
    stage(&mut out, "timelines");

    let mut dc = DiagnosisConfig::default();
    dc.victims.latency = LatencyThreshold::Quantile(0.99);
    dc.victims.max_victims = Some(5_000);
    let engine = Microscope::new(topology, rates, dc);
    let (diagnoses, _) = engine.diagnose_all_stats(&recon, &timelines);
    stage(&mut out, "diagnose");
    let relations = diagnoses_to_relations(&recon, &diagnoses);
    stage(&mut out, "relations");

    let hops = recon.hops.len();
    let arrivals: usize = timelines.nfs.iter().map(|t| t.arrivals.len()).sum();
    let (_, hwm) = resident_mb();
    let _ = writeln!(
        out,
        "\n# input: {packets} packets, {hops} hops, {arrivals} arrivals, {appearances} appearances, \
         {edge_positions} edge positions, {rx_batches} rx + {tx_batches} tx batches, \
         bundle file {file_mb:.1} MB"
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
        "# size_of: TraceHop {} Arrival {} RxEntry {} TxEntry {} SourceEntry {} RxBatchInfo {} \
         ReconstructedTrace {} RxTraceRef {} FlowRecord {}",
        size_of::<TraceHop>(),
        size_of::<Arrival>(),
        size_of::<RxEntry>(),
        size_of::<TxEntry>(),
        size_of::<SourceEntry>(),
        size_of::<RxBatchInfo>(),
        size_of::<ReconstructedTrace>(),
        size_of::<RxTraceRef>(),
        size_of::<FlowRecord>(),
    );
    print!("{out}");
    Ok(())
}
