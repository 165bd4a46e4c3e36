//! `msc-benchmark` — the bundle-on-disk → report benchmark of the
//! `microscope` CLI. `run.sh` builds and starts it; README.md defines the
//! workloads and metrics.
//!
//! ```text
//! msc-benchmark run --microscope BIN --out DIR [--seed S] [--seconds N] [--smoke]
//!     Every workload, round-robin, with three traced children each; prints
//!     every metric, writes DIR/results.json and DIR/trace-<w>.json.
//! msc-benchmark run ... --workload W --trace 0|1
//!     One workload; the last stdout line is the result as one JSON object
//!     (end-to-end metrics with --trace 0, per-layer with --trace 1).
//! msc-benchmark compare A.json B.json
//!     Judges B against A by each end-to-end metric's bound and direction.
//! msc-benchmark child --mode M --topology F --bundle F [--trace-out F --run N]
//!     Internal: one pass of a call sequence, in a process of its own.
//! msc-benchmark generate --workload W --millis N --seed S --inputs K --dir D
//!     Internal: simulate the first K inputs of a workload and write their files.
//! ```

mod bench;
mod child;
mod compare;
mod json;
mod metrics;
mod pipeline;
mod report;
mod span;
mod stats;
mod workload;

use bench::{Config, Measured, Value};
use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `--key value` pairs and bare `--switch`es.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got {a:?}"))?;
            let value = it.next_if(|v| !v.starts_with("--")).cloned();
            out.push((key.to_string(), value));
        }
        Ok(Flags(out))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|(k, _)| k == key)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        self.get(key).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("bad value for --{key}: {v:?}"))
        })
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => Flags::parse(rest).and_then(|f| run(&f)),
        Some((cmd, rest)) if cmd == "child" => Flags::parse(rest).and_then(|f| child_pass(&f)),
        Some((cmd, rest)) if cmd == "generate" => Flags::parse(rest).and_then(|f| generate(&f)),
        Some((cmd, [a, b])) if cmd == "compare" => compare::run(a, b),
        _ => Err(
            "usage: msc-benchmark run|compare|child|generate ... (see benchmark/README.md)".into(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn child_pass(f: &Flags) -> Result<bool, String> {
    let mode = pipeline::Mode::parse(f.require("mode")?).ok_or("unknown --mode")?;
    let mut tracer = span::Tracer::new(f.num("run", 0)?);
    let report = pipeline::run(
        mode,
        Path::new(f.require("topology")?),
        Path::new(f.require("bundle")?),
        &mut tracer,
    )?;
    print!("{report}");
    if let Some(path) = f.get("trace-out") {
        std::fs::write(path, tracer.to_json().to_string())
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(true)
}

fn generate(f: &Flags) -> Result<bool, String> {
    let name = f.require("workload")?;
    let w = workload::by_name(name).ok_or_else(|| format!("no workload {name:?}"))?;
    let inputs = workload::generate_all(
        w,
        f.num("millis", w.millis)?,
        f.num("seed", 42)?,
        f.num("inputs", w.traffic_seeds.len())?,
        Path::new(f.require("dir")?),
    )?;
    for input in inputs {
        println!("{}", input.to_line());
    }
    Ok(true)
}

fn run(f: &Flags) -> Result<bool, String> {
    let single = f.get("workload");
    let traced = f.num::<u8>("trace", 0)? != 0;
    let cfg = Config {
        microscope: PathBuf::from(f.require("microscope")?),
        out: PathBuf::from(f.require("out")?),
        seed: f.num("seed", 42)?,
        seconds: if f.has("smoke") {
            0.0
        } else {
            f.num("seconds", bench::RUN_SECONDS)?
        },
        // The full run always traces; a single workload does as asked.
        trace: single.is_none() || traced,
        smoke: f.has("smoke"),
    };
    if !cfg.microscope.is_file() {
        return Err(format!("no microscope binary at {:?}", cfg.microscope));
    }
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("mkdir {:?}: {e}", cfg.out))?;

    let chosen: Vec<&'static workload::Workload> = match single {
        Some(name) => vec![workload::by_name(name).ok_or_else(|| format!("no workload {name:?}"))?],
        None => workload::WORKLOADS.iter().collect(),
    };
    let mut set = Vec::new();
    for w in chosen {
        eprintln!("setting up {} (seed {})", w.name, cfg.seed);
        set.push(Measured::set_up(&cfg, w)?);
    }
    bench::measure(&cfg, &mut set)?;
    match single {
        Some(_) => Ok(print_single(&set[0], traced)),
        None => print_all(&cfg, &set),
    }
}

/// A metric as the harness reads it.
fn metric_json(v: &Value) -> Json {
    Json::obj([("value", Json::Num(v.value)), ("unit", v.unit.into())])
}

fn print_values(values: &[Value]) {
    for v in values {
        println!("  {:<36} {:>14.4} {}", v.name, v.value, v.unit);
    }
}

fn print_failures(m: &Measured) {
    for fail in &m.failures {
        println!("  FAILED {}", fail.what);
        for line in fail.stderr_tail.lines() {
            println!("    | {line}");
        }
    }
    let unlisted = m.failed - m.failures.len() as u64;
    if unlisted > 0 {
        println!("  FAILED {unlisted} more, not listed");
    }
}

/// One workload for the driver: the result object is the last line.
fn print_single(m: &Measured, traced: bool) -> bool {
    let values = if traced {
        m.per_layer()
    } else {
        m.end_to_end()
    };
    println!("{}", m.workload.name);
    print_values(&values);
    let [walls, rss, recalls] = m.by_input();
    println!("  fastest run per input, s: {walls:.4?}");
    println!("  peak RSS per input, MB:   {rss:.1?}");
    println!("  culprit_recall per input: {recalls:.2?}");
    print_failures(m);
    let metrics = values.iter().map(|v| (v.name, metric_json(v)));
    let failed = m.failed;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(failed == 0)),
            ("attempted", m.attempted.into()),
            ("failed", failed.into()),
            ("metrics", Json::obj(metrics)),
        ])
    );
    failed == 0
}

/// `|cli.unaccounted_share|` above this prints a WARN line: the layer
/// spans no longer sum to the headline.
const UNACCOUNTED_WARN: f64 = 0.15;

/// The full run: every metric of every workload, the probe, the files.
fn print_all(cfg: &Config, set: &[Measured]) -> Result<bool, String> {
    let mut workloads = Vec::new();
    let mut clean = true;
    for m in set {
        let (e2e, layers) = (m.end_to_end(), m.per_layer());
        let failed = m.failed;
        clean &= failed == 0;
        println!(
            "{} — {} child runs, {failed} failed",
            m.workload.name, m.attempted
        );
        println!("  ({})", m.workload.why);
        print_values(&e2e);
        let failed_share = failed as f64 / m.attempted.max(1) as f64;
        println!("  {:<36} {:>14.4} share", "failed_share", failed_share);
        print_values(&layers);
        print_failures(m);
        let unaccounted = layers
            .iter()
            .find(|v| v.name == "cli.unaccounted_share")
            .map_or(0.0, |v| v.value);
        if m.workload.mode != pipeline::Mode::Patterns && unaccounted.abs() > UNACCOUNTED_WARN {
            println!(
                "  WARN {}: layer spans leave {:.1} % of wall_s unaccounted (limit {:.0} %)",
                m.workload.name,
                unaccounted * 100.0,
                UNACCOUNTED_WARN * 100.0
            );
        }
        println!();

        let gated = e2e
            .iter()
            .zip(metrics::END_TO_END)
            .map(|(v, (def, bound))| {
                let body = Json::obj([
                    ("value", Json::Num(v.value)),
                    ("unit", v.unit.into()),
                    ("better", def.better.as_str().into()),
                    ("bound", Json::Num(*bound)),
                    ("spread", Json::Num(v.spread)),
                ]);
                (v.name, body)
            })
            // Not in BENCHMARK.json, where a metric may never read 0, but
            // gated all the same: `compare` reads its row from here.
            .chain([(
                "failed_share",
                Json::obj([
                    ("value", Json::Num(failed_share)),
                    ("unit", "share".into()),
                    ("better", "lower".into()),
                    ("bound", Json::Num(0.0)),
                    ("spread", Json::Num(0.0)),
                ]),
            )]);
        let ungated = layers.iter().map(|v| (v.name, metric_json(v)));
        let failures = m.failures.iter().map(|fail| {
            Json::obj([
                ("what", fail.what.as_str().into()),
                ("stderr_tail", fail.stderr_tail.as_str().into()),
            ])
        });
        workloads.push((
            m.workload.name,
            Json::obj([
                ("attempted", m.attempted.into()),
                ("failed", failed.into()),
                ("end_to_end", Json::obj(gated)),
                ("per_layer", Json::obj(ungated)),
                ("failures", Json::Arr(failures.collect())),
            ]),
        ));
        let trace_path = cfg.out.join(format!("trace-{}.json", m.workload.name));
        std::fs::write(&trace_path, m.kept_traces().to_string())
            .map_err(|e| format!("write {trace_path:?}: {e}"))?;
    }

    let (skew_ok, skew_stderr) = bench::probe_stream_skew(cfg)?;
    println!("probe (outside the workloads and their failure counts)");
    println!("  {:<36} {:>14.4} bool", "cli.stream_skew_ok", skew_ok);
    for line in skew_stderr.lines().filter(|_| skew_ok == 0.0) {
        println!("    | {line}");
    }

    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let results = Json::obj([
        ("schema", 1u64.into()),
        ("seed", cfg.seed.into()),
        ("seconds_per_workload", Json::Num(cfg.seconds)),
        ("smoke", Json::Bool(cfg.smoke)),
        ("available_parallelism", cpus.into()),
        ("workloads", Json::obj(workloads)),
        (
            "probe",
            Json::obj([
                ("cli.stream_skew_ok", Json::Num(skew_ok)),
                ("stderr_tail", skew_stderr.as_str().into()),
            ]),
        ),
    ]);
    let path = cfg.out.join("results.json");
    std::fs::write(&path, results.to_string()).map_err(|e| format!("write {path:?}: {e}"))?;
    println!("\nwrote {}", path.display());
    Ok(clean)
}
