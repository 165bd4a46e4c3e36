//! The four workloads and the inputs they are measured on.
//!
//! Inputs come from the simulator crates' public API and from the seed
//! alone; the program under test only ever sees the files written here.

use crate::pipeline::Mode;
use crate::report::Truth;
use msc_collector::{chunk_bundle, save_bundle, save_bundle_chunked};
use msc_experiments::inject::{paper_bug_aggregate, paper_bug_flows, BugSpec, InjectionPlan};
use nf_sim::{paper_nf_configs, Fault, SimConfig, Simulation};
use nf_traffic::{CaidaLike, CaidaLikeConfig, Schedule};
use nf_types::{emit_topology, paper_topology, MICROS, MILLIS};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One workload of the benchmark.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line for BENCHMARK.json: why this workload is measured.
    pub why: &'static str,
    /// The call sequence it exercises.
    pub mode: Mode,
    /// Simulated run length and offered rate.
    pub millis: u64,
    pub rate_mpps: f64,
    /// One input per entry: the seed of its background traffic. The traffic
    /// profiles are fixed and `--seed` draws the simulator's service-time
    /// noise, because the flows a traffic seed draws move wall time by far
    /// more than any bound (README.md, "Noise"); several profiles per run
    /// keep one lucky or unlucky flow mix from deciding the result.
    pub traffic_seeds: &'static [u64],
    pub truth: Truth,
}

/// The NFs the three CLI workloads interrupt, at 24 %, 50 % and 76 % of
/// the run, [`INTERRUPT_US`] each.
const INTERRUPTED: &[&str] = &["nat2", "fw3", "vpn1"];
const INTERRUPT_AT_PERCENT: [u64; 3] = [24, 50, 76];
const INTERRUPT_US: u64 = 2_000;

/// `microscope stream` reads its bundle in chunks of this length.
pub const CHUNK_MS: u64 = 50;

/// The run length `--smoke` substitutes for every workload's own.
pub const SMOKE_MILLIS: u64 = 40;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "offline-250ms",
        why: "diagnose on a whole-run bundle: load, offline reconstruct and timelines dominate and set peak RSS; the windowed engine is bypassed",
        mode: Mode::Diagnose,
        millis: 250,
        rate_mpps: 1.4,
        traffic_seeds: &[1, 2, 3, 4, 5, 6, 7, 8],
        truth: Truth::Interrupted(INTERRUPTED),
    },
    Workload {
        name: "stream-250ms",
        why: "stream on the same run in 50 ms chunks: the windowed engine dominates and the offline reconstructor is bypassed; stdout must equal diagnose's",
        mode: Mode::Stream,
        millis: 250,
        rate_mpps: 1.4,
        traffic_seeds: &[1, 2, 3, 4],
        truth: Truth::Interrupted(INTERRUPTED),
    },
    Workload {
        name: "skew-120ms",
        why: "diagnose --skew on +-2 ms clock offsets: offset estimation, correct_bundle and matching under negative slack dominate, the unskewed matcher path is bypassed",
        mode: Mode::Skew,
        millis: 120,
        rate_mpps: 0.7,
        traffic_seeds: &[1, 3, 5, 6, 7, 8],
        truth: Truth::Interrupted(INTERRUPTED),
    },
    Workload {
        name: "patterns-4k",
        why: "Fig. 14 bug-trigger flows at fw2 with 4 000 relations aggregated: the only workload AutoFocus aggregation dominates; offline and stream bypass it at under 8 %",
        mode: Mode::Patterns,
        millis: 150,
        rate_mpps: 1.2,
        traffic_seeds: &[2, 3, 4, 9],
        truth: Truth::BugFlows {
            src: "100.0.0.1/32",
            loc: "nf5",
        },
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The noise seed of input `i` of a run: distinct for every (seed, i) with
/// `i < 64`, so no two runs with different `--seed` share an input.
fn input_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(64).wrapping_add(i as u64)
}

/// Where input `i` of a run lives under the run's directory.
pub fn input_dir(run_dir: &Path, i: usize) -> PathBuf {
    run_dir.join(format!("input{i}"))
}

/// Generates the first `count` inputs of `w` for run seed `seed`, one after
/// the other in this process (`msc-benchmark generate`).
pub fn generate_all(
    w: &Workload,
    millis: u64,
    seed: u64,
    count: usize,
    run_dir: &Path,
) -> Result<Vec<Input>, String> {
    w.traffic_seeds
        .iter()
        .take(count)
        .enumerate()
        .map(|(i, &traffic)| {
            generate(
                w,
                millis,
                traffic,
                input_seed(seed, i),
                &input_dir(run_dir, i),
            )
        })
        .collect()
}

/// One generated input on disk.
#[derive(Debug)]
pub struct Input {
    pub topology: PathBuf,
    /// What the measured command reads: `run.msc`, or `run.mscs` for
    /// [`Mode::Stream`].
    pub bundle: PathBuf,
    /// The whole-run bundle (the `stream` workload's reference is
    /// `diagnose` on this).
    pub whole: PathBuf,
    /// Packets the source emitted; every report must account for each.
    pub packets: u64,
    /// Seconds spent generating traffic and simulating.
    pub generate_s: f64,
    /// Seconds from nothing to all files written (includes `generate_s`).
    pub setup_s: f64,
}

impl Input {
    /// The file names [`generate`] uses under `dir`.
    fn paths(dir: &Path, mode: Mode) -> (PathBuf, PathBuf, PathBuf) {
        let whole = dir.join("run.msc");
        let bundle = if mode == Mode::Stream {
            dir.join("run.mscs")
        } else {
            whole.clone()
        };
        (dir.join("topology.txt"), bundle, whole)
    }

    /// The one line `msc-benchmark generate` prints.
    pub fn to_line(&self) -> String {
        format!(
            "packets={} generate_s={} setup_s={}",
            self.packets, self.generate_s, self.setup_s
        )
    }

    /// Reads [`Input::to_line`] back for the input generated into `dir`.
    pub fn from_line(line: &str, dir: &Path, mode: Mode) -> Result<Input, String> {
        let field = |key: &str| {
            line.split_whitespace()
                .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
                .ok_or_else(|| format!("no {key} in {line:?}"))
        };
        let num = |key: &str| {
            field(key)?
                .parse::<f64>()
                .map_err(|e| format!("{key}: {e}"))
        };
        let (topology, bundle, whole) = Input::paths(dir, mode);
        Ok(Input {
            topology,
            bundle,
            whole,
            packets: field("packets")?
                .parse()
                .map_err(|e| format!("packets: {e}"))?,
            generate_s: num("generate_s")?,
            setup_s: num("setup_s")?,
        })
    }
}

/// Simulates `w` for `millis` with background traffic from `traffic_seed`
/// and service-time noise from `seed`, and writes its files into `dir`.
///
/// This runs in a process of its own (`msc-benchmark generate`): a child
/// inherits the resident set of the process that spawns it into its own
/// `ru_maxrss`, so the driver must not be the one that held a simulation.
fn generate(
    w: &Workload,
    millis: u64,
    traffic_seed: u64,
    seed: u64,
    dir: &Path,
) -> Result<Input, String> {
    let start = Instant::now();
    let duration = millis * MILLIS;
    let topology = paper_topology();
    let cfgs = paper_nf_configs(&topology);
    let rates: Vec<f64> = cfgs.iter().map(|c| c.service.peak_rate_pps()).collect();

    let mut sim_cfg = SimConfig {
        seed,
        record_fates: false,
        ..Default::default()
    };
    if w.mode == Mode::Skew {
        // As `microscope record --skew`: "servers" with ±2 ms clock offsets.
        sim_cfg.clock_offsets_ns = (0..topology.len() as i64)
            .map(|i| (i % 5 - 2) * 1_000_000)
            .collect();
    }
    let mut sim = Simulation::new(topology.clone(), cfgs, sim_cfg);
    let mut extra = Schedule::new();
    match w.truth {
        Truth::Interrupted(nfs) => {
            for (name, pct) in nfs.iter().zip(INTERRUPT_AT_PERCENT) {
                sim.add_fault(Fault::Interrupt {
                    nf: topology.by_name(name).expect("paper topology NF"),
                    at: duration * pct / 100,
                    duration: INTERRUPT_US * MICROS,
                });
            }
        }
        Truth::BugFlows { .. } => {
            // The Fig. 14 set-up of `fig14_patterns`: a 0.05 Mpps slow path
            // at fw2 for the paper's trigger flows. One 150-packet episode
            // every 20 ms (there: 100 every 40 ms), so that the bug's
            // relations outweigh the background's and the aggregation's
            // work is the same from one noise seed to the next.
            let plan = InjectionPlan {
                bug: Some(BugSpec {
                    nf: topology.by_name("fw2").expect("paper topology NF"),
                    matches: paper_bug_aggregate(),
                    per_packet_ns: 20 * MICROS,
                    trigger_flows: paper_bug_flows(),
                    period: 20 * MILLIS,
                    flow_size: 150,
                }),
                ..Default::default()
            };
            extra = plan.extra_traffic(duration);
            for f in plan.faults() {
                sim.add_fault(f);
            }
        }
    }
    let traffic = CaidaLikeConfig {
        rate_pps: w.rate_mpps * 1e6,
        ..Default::default()
    };
    let background = CaidaLike::new(traffic, traffic_seed).generate(0, duration);
    let packets = Schedule::merge([background, extra]).finalize(0);
    let out = sim.run(&packets);
    let generate_s = start.elapsed().as_secs_f64();

    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {dir:?}: {e}"))?;
    let (topo_path, bundle, whole) = Input::paths(dir, w.mode);
    std::fs::write(&topo_path, emit_topology(&topology, &rates))
        .map_err(|e| format!("write {topo_path:?}: {e}"))?;
    save_bundle(&whole, &out.bundle).map_err(|e| format!("write {whole:?}: {e}"))?;
    if w.mode == Mode::Stream {
        save_bundle_chunked(&bundle, &chunk_bundle(&out.bundle, CHUNK_MS * MILLIS))
            .map_err(|e| format!("write {bundle:?}: {e}"))?;
    }
    let setup_s = start.elapsed().as_secs_f64();
    // Outside `setup_s`: force the write-back now, or tens of MB of it run
    // during the measurement. How long a sync takes says nothing about the
    // code (0.05 to 0.4 s for the same file on this VM).
    for path in [&whole, &bundle] {
        std::fs::File::open(path)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("sync {path:?}: {e}"))?;
    }
    Ok(Input {
        topology: topo_path,
        bundle,
        whole,
        packets: packets.len() as u64,
        generate_s,
        setup_s,
    })
}
