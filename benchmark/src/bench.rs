//! The measuring loop: set up inputs, run one child at a time, check every
//! output, and reduce the samples to the declared metrics.

use crate::child::{self, Exit, Outcome};
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::pipeline::Mode;
use crate::report::{self, Report};
use crate::span::{lookup, PassSummary};
use crate::stats;
use crate::workload::{self, Input, Workload, CHUNK_MS, SMOKE_MILLIS};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

/// Seconds one run measures for (BENCHMARK.json `run_seconds`).
pub const RUN_SECONDS: f64 = 20.0;

/// Every input is run at least this often, so that "stdout equals the
/// first run's" compares something.
const MIN_PASSES: usize = 2;

/// A child still running after this long is killed and counted as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

/// Traced passes per workload, all on its first input: after each of that
/// input's first three untraced runs. Three, so that the per-span minimum
/// has something to choose from; no more, because a traced child costs
/// what an untraced one does and the budget is for those.
const TRACED_PASSES: usize = 3;

/// The input the traced passes run on.
const TRACED_INPUT: usize = 0;

/// Failures kept with their stderr tail; all of them are counted.
const KEPT_FAILURES: usize = 16;

pub struct Config {
    /// The `microscope` binary under test.
    pub microscope: PathBuf,
    /// Directory for inputs, child output and result files.
    pub out: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// Also run the [`TRACED_PASSES`] traced children.
    pub trace: bool,
    /// One pass over one 40 ms input per workload, however long it takes.
    pub smoke: bool,
}

impl Config {
    /// Simulated milliseconds of `w`'s inputs.
    fn millis(&self, w: &Workload) -> u64 {
        if self.smoke {
            SMOKE_MILLIS
        } else {
            w.millis
        }
    }

    /// How many of `w`'s traffic profiles a run uses.
    fn inputs(&self, w: &Workload) -> usize {
        if self.smoke {
            1
        } else {
            w.traffic_seeds.len()
        }
    }
}

/// A failed child, kept for `results.json`.
#[derive(Debug, Clone)]
pub struct Failure {
    pub what: String,
    pub stderr_tail: String,
}

/// One child that ran and passed every check.
#[derive(Debug)]
struct Sample {
    input: usize,
    pass: usize,
    wall_s: f64,
    user_s: f64,
    sys_s: f64,
    rss_kib: f64,
    stdout_bytes: f64,
    recall: f64,
    /// Present for traced children.
    layers: Option<PassSummary>,
}

/// A workload with its inputs on disk and everything measured on it.
pub struct Measured {
    pub workload: &'static Workload,
    dir: PathBuf,
    inputs: Vec<Input>,
    /// Per input: the stdout every later run must reproduce. Seeded with
    /// `diagnose`'s report for the `stream` workload, else by the first run.
    expected: Vec<Option<String>>,
    /// The spans and counts of every traced pass, for
    /// `trace-<workload>.json`.
    kept_traces: Vec<Json>,
    samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// The first [`KEPT_FAILURES`] of the `failed`.
    pub failures: Vec<Failure>,
    /// Wall seconds of the measured children, failed ones too: what
    /// `--seconds` is a budget of.
    spent_s: f64,
    passes: usize,
}

/// `microscope <sub> --topology .. --bundle ..`.
fn cli_command(cfg: &Config, sub: &str, input: &Input, bundle: &Path) -> Command {
    let mut cmd = Command::new(&cfg.microscope);
    cmd.arg(sub)
        .arg("--topology")
        .arg(&input.topology)
        .arg("--bundle")
        .arg(bundle);
    cmd
}

/// The untraced command of a workload: the CLI, or for `patterns-4k` this
/// binary's own `child` (the CLI has no flag for its relation cap).
fn untraced_command(cfg: &Config, mode: Mode, input: &Input) -> Command {
    match mode {
        Mode::Patterns => child_command(mode, input, None),
        Mode::Stream => cli_command(cfg, "stream", input, &input.bundle),
        Mode::Diagnose => cli_command(cfg, "diagnose", input, &input.bundle),
        Mode::Skew => {
            let mut cmd = cli_command(cfg, "diagnose", input, &input.bundle);
            cmd.arg("--skew");
            cmd
        }
    }
}

fn child_command(mode: Mode, input: &Input, trace_out: Option<(&Path, u64)>) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("own path"));
    cmd.arg("child")
        .args(["--mode", mode.as_str()])
        .arg("--topology")
        .arg(&input.topology)
        .arg("--bundle")
        .arg(&input.bundle);
    if let Some((path, run)) = trace_out {
        cmd.arg("--trace-out").arg(path);
        cmd.args(["--run", &run.to_string()]);
    }
    cmd
}

/// Generates the first `count` inputs of `w` into `dir/input<i>`, in one
/// child (`msc-benchmark generate`), so that this process never holds a
/// simulation: see [`workload::generate`].
fn generate(
    w: &Workload,
    millis: u64,
    seed: u64,
    count: usize,
    dir: &Path,
) -> Result<Vec<Input>, String> {
    let mut cmd = Command::new(std::env::current_exe().expect("own path"));
    cmd.arg("generate")
        .args(["--workload", w.name])
        .args(["--millis", &millis.to_string()])
        .args(["--seed", &seed.to_string()])
        .args(["--inputs", &count.to_string()])
        .arg("--dir")
        .arg(dir);
    let o = child::run(&mut cmd, dir, CHILD_TIMEOUT).map_err(|e| format!("spawn generate: {e}"))?;
    if o.exit != Exit::Code(0) {
        return Err(format!(
            "generate {} failed: {:?}\n{}",
            w.name, o.exit, o.stderr_tail
        ));
    }
    let inputs: Vec<Input> = o
        .stdout
        .lines()
        .enumerate()
        .map(|(i, line)| Input::from_line(line, &workload::input_dir(dir, i), w.mode))
        .collect::<Result<_, _>>()?;
    if inputs.len() != count {
        return Err(format!(
            "generate {} wrote {} of {count} inputs",
            w.name,
            inputs.len()
        ));
    }
    Ok(inputs)
}

/// The failure conditions of one finished child.
fn check(o: &Outcome, packets: u64, expected: Option<&str>) -> Result<Report, String> {
    match o.exit {
        Exit::Code(0) => {}
        Exit::Code(c) => return Err(format!("exit code {c}")),
        Exit::Signal(s) => return Err(format!("killed by signal {s}")),
        Exit::TimedOut => return Err(format!("no exit within {} s", CHILD_TIMEOUT.as_secs())),
    }
    let r = report::parse(&o.stdout)?;
    if r.traces != packets {
        return Err(format!(
            "{} traces for {packets} generated packets",
            r.traces
        ));
    }
    if r.victims == 0 || r.patterns == 0 {
        return Err(format!("{} victims, {} patterns", r.victims, r.patterns));
    }
    if expected.is_some_and(|e| e != o.stdout) {
        return Err("stdout differs from the reference run of this input".into());
    }
    Ok(r)
}

impl Measured {
    /// Generates the inputs of `workload` (and, for `stream`, the reference
    /// reports from `diagnose`).
    pub fn set_up(cfg: &Config, workload: &'static Workload) -> Result<Measured, String> {
        let dir = cfg
            .out
            .join(format!("run-{}-{}", workload.name, std::process::id()));
        let mut m = Measured {
            workload,
            dir,
            inputs: Vec::new(),
            expected: Vec::new(),
            kept_traces: Vec::new(),
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            spent_s: 0.0,
            passes: 0,
        };
        std::fs::create_dir_all(&m.dir).map_err(|e| format!("mkdir {:?}: {e}", m.dir))?;
        let count = cfg.inputs(workload);
        m.inputs = generate(workload, cfg.millis(workload), cfg.seed, count, &m.dir)?;
        m.expected = vec![None; count];
        if workload.mode == Mode::Stream {
            for i in 0..m.inputs.len() {
                let cmd = cli_command(cfg, "diagnose", &m.inputs[i], &m.inputs[i].whole);
                if let Some((o, _)) = m.run_checked(cmd, i, "diagnose reference")? {
                    m.expected[i] = Some(o.stdout);
                }
            }
            // The references are set-up, not measurement.
            m.spent_s = 0.0;
        }
        Ok(m)
    }

    /// Runs one child, charges its wall time to the budget and applies the
    /// checks; a failure is recorded, not returned. `Err` is for the
    /// driver's own I/O only.
    fn run_checked(
        &mut self,
        mut cmd: Command,
        input: usize,
        what: &str,
    ) -> Result<Option<(Outcome, Report)>, String> {
        self.attempted += 1;
        let o = child::run(&mut cmd, &self.dir, CHILD_TIMEOUT)
            .map_err(|e| format!("spawn {:?}: {e}", cmd.get_program()))?;
        // Failed children too: a workload whose every child fails must
        // still use up its seconds and leave the loop.
        self.spent_s += o.wall_s;
        match check(
            &o,
            self.inputs[input].packets,
            self.expected[input].as_deref(),
        ) {
            Ok(r) => Ok(Some((o, r))),
            Err(why) => {
                self.failed += 1;
                if self.failures.len() < KEPT_FAILURES {
                    self.failures.push(Failure {
                        what: format!("{} input {input} ({what}): {why}", self.workload.name),
                        stderr_tail: o.stderr_tail,
                    });
                }
                Ok(None)
            }
        }
    }

    /// One untraced child on `input`, and after it a traced one if this is
    /// one of the [`TRACED_PASSES`].
    fn run_once(&mut self, cfg: &Config, input: usize, pass: usize) -> Result<(), String> {
        let mode = self.workload.mode;
        let cmd = untraced_command(cfg, mode, &self.inputs[input]);
        if let Some((o, r)) = self.run_checked(cmd, input, "untraced")? {
            self.expected[input].get_or_insert_with(|| o.stdout.clone());
            self.push_sample(input, pass, &o, &r, None);
        }
        if cfg.trace && input == TRACED_INPUT && pass < TRACED_PASSES {
            let trace_file = self.dir.join("trace.json");
            let cmd = child_command(mode, &self.inputs[input], Some((&trace_file, pass as u64)));
            if let Some((o, r)) = self.run_checked(cmd, input, "traced")? {
                let text = std::fs::read_to_string(&trace_file)
                    .map_err(|e| format!("read {trace_file:?}: {e}"))?;
                let trace = Json::parse(&text)?;
                let layers = PassSummary::from_json(&trace)?;
                self.kept_traces.push(trace);
                self.push_sample(input, pass, &o, &r, Some(layers));
            }
        }
        Ok(())
    }

    fn push_sample(
        &mut self,
        input: usize,
        pass: usize,
        o: &Outcome,
        r: &Report,
        layers: Option<PassSummary>,
    ) {
        self.samples.push(Sample {
            input,
            pass,
            wall_s: o.wall_s,
            user_s: o.user_s,
            sys_s: o.sys_s,
            rss_kib: o.max_rss_kib as f64,
            stdout_bytes: o.stdout.len() as f64,
            recall: report::culprit_recall(r, self.workload.truth),
            layers,
        });
    }

    /// Every traced pass, as one JSON array.
    pub fn kept_traces(&self) -> Json {
        Json::Arr(self.kept_traces.clone())
    }
}

/// Deletes the inputs and child output (bundles are tens of MB each), also
/// when set-up or measuring ends early with an error.
impl Drop for Measured {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Measures every workload in `set`: a closed loop of one child at a time,
/// round-robin over the workloads so that a slow phase of the shared
/// machine spreads over all of them, and within a workload round-robin
/// over its inputs. A workload leaves the loop once every input has had
/// its minimum of runs and its children, passed or failed, have used
/// `cfg.seconds`.
pub fn measure(cfg: &Config, set: &mut [Measured]) -> Result<(), String> {
    let min_passes = if cfg.smoke { 1 } else { MIN_PASSES };
    for slot in 0.. {
        let mut active = false;
        for m in set.iter_mut() {
            let (pass, input) = (slot / m.inputs.len(), slot % m.inputs.len());
            if pass >= min_passes && m.spent_s >= cfg.seconds {
                continue;
            }
            active = true;
            m.run_once(cfg, input, pass)?;
            if input + 1 == m.inputs.len() {
                m.passes = pass + 1;
            }
        }
        if !active {
            break;
        }
    }
    Ok(())
}

/// `reduce` over each input's values: the inputs are different traffic
/// profiles with different amounts of work, so each is reduced on its own.
fn per_input<'a>(
    samples: impl Iterator<Item = &'a Sample> + Clone,
    value: impl Fn(&Sample) -> f64,
    reduce: fn(&[f64]) -> f64,
) -> Vec<f64> {
    let inputs = samples.clone().map(|s| s.input + 1).max().unwrap_or(0);
    (0..inputs)
        .filter_map(|i| {
            let xs: Vec<f64> = samples
                .clone()
                .filter(|s| s.input == i)
                .map(&value)
                .collect();
            (!xs.is_empty()).then(|| reduce(&xs))
        })
        .collect()
}

/// The mean over inputs of [`per_input`].
fn pooled<'a>(
    samples: impl Iterator<Item = &'a Sample> + Clone,
    value: impl Fn(&Sample) -> f64,
    reduce: fn(&[f64]) -> f64,
) -> f64 {
    stats::mean(&per_input(samples, value, reduce))
}

/// A metric's value, and for gated metrics the spread of its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub spread: f64,
}

impl Measured {
    fn untraced(&self) -> impl Iterator<Item = &Sample> + Clone {
        self.samples.iter().filter(|s| s.layers.is_none())
    }

    fn traced(&self) -> impl Iterator<Item = &Sample> + Clone {
        self.samples.iter().filter(|s| s.layers.is_some())
    }

    /// `wall_s`: per input the fastest run, since interference on a shared
    /// box only ever adds time; then the mean over inputs.
    fn wall_s(&self) -> f64 {
        pooled(self.untraced(), |s| s.wall_s, stats::min)
    }

    /// Spread between complete passes of the mean over inputs of `value`.
    fn pass_spread(&self, value: impl Fn(&Sample) -> f64) -> f64 {
        let per_pass: Vec<f64> = (0..self.passes)
            .map(|p| {
                self.untraced()
                    .filter(|s| s.pass == p)
                    .map(&value)
                    .collect::<Vec<_>>()
            })
            .filter(|xs| xs.len() == self.inputs.len())
            .map(|xs| stats::mean(&xs))
            .collect();
        stats::spread(&per_pass)
    }

    /// Per input what the first three end-to-end metrics are the mean of:
    /// the fastest untraced run, the median peak RSS in MB, the recall.
    pub fn by_input(&self) -> [Vec<f64>; 3] {
        [
            per_input(self.untraced(), |s| s.wall_s, stats::min),
            per_input(self.untraced(), |s| s.rss_kib * 1024.0 / 1e6, stats::median),
            per_input(self.untraced(), |s| s.recall, stats::min),
        ]
    }

    /// The end-to-end metrics, in table order.
    pub fn end_to_end(&self) -> Vec<Value> {
        let setups: Vec<f64> = self.inputs.iter().map(|i| i.setup_s).collect();
        let values = [
            (self.wall_s(), self.pass_spread(|s| s.wall_s)),
            (
                pooled(self.untraced(), |s| s.rss_kib, stats::median) * 1024.0 / 1e6,
                self.pass_spread(|s| s.rss_kib),
            ),
            (pooled(self.untraced(), |s| s.recall, stats::min), 0.0),
            // One set-up per input and the inputs differ in size, so a run
            // has no spread of its own to report here.
            (stats::median(&setups), 0.0),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((def, _), (value, spread))| Value {
                name: def.name,
                unit: def.unit,
                value,
                spread,
            })
            .collect()
    }

    /// The per-layer metrics, in table order; a layer the workload does
    /// not run reads 0.
    pub fn per_layer(&self) -> Vec<Value> {
        let traced = self.traced();
        // The smallest value over the traced passes, all on one input.
        let least = |value: &dyn Fn(&Sample, &PassSummary) -> f64| {
            let xs: Vec<f64> = traced
                .clone()
                .map(|s| value(s, s.layers.as_ref().expect("traced")))
                .collect();
            stats::min(&xs)
        };
        let span = |list: fn(&PassSummary) -> &[(String, f64)], name: &str| {
            least(&|_, l| lookup(list(l), name).unwrap_or(0.0))
        };
        let ms = |name: &str| span(totals, name);
        let count = |name: &str| span(counts, name);
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

        // What is set against the traced passes uses their input's
        // untraced runs and size, not the mean over the inputs.
        let on_traced = self.untraced().filter(|s| s.input == TRACED_INPUT);
        let wall = stats::min(&on_traced.map(|s| s.wall_s).collect::<Vec<_>>());
        let traced_packets = self.inputs[TRACED_INPUT].packets as f64;
        let packets = stats::mean(
            &self
                .inputs
                .iter()
                .map(|i| i.packets as f64)
                .collect::<Vec<_>>(),
        );
        // What the traced sequence covers of the CLI's work: every
        // top-level span except the extra victim selection it adds.
        let covered_s = least(&|_, l| {
            (l.top_level_ms - lookup(&l.total_ms, "core.victims").unwrap_or(0.0)) / 1e3
        });
        let traced_wall = least(&|s, _| s.wall_s);
        let has_traces = traced.clone().next().is_some();

        let value = |name: &str| -> f64 {
            match name {
                "collector.load_ms" => ms("collector.load"),
                "collector.read_chunks_ms" => ms("collector.read_chunk"),
                "trace.reconstruct_ms" => ms("trace.reconstruct"),
                "trace.streams_build_ms" => ms("trace.streams_build"),
                "trace.match_ms" => ms("trace.match"),
                "trace.assemble_ms" => ms("trace.assemble"),
                "trace.reconstruct_ns_per_pkt" => {
                    per(ms("trace.reconstruct") * 1e6, traced_packets)
                }
                "trace.timelines_ms" => ms("trace.timelines"),
                "trace.skew_estimate_ms" => ms("trace.skew_estimate"),
                "trace.skew_correct_ms" => ms("trace.skew_correct"),
                "stream.push_ms" => ms("stream.push"),
                "stream.push_max_ms" => span(longest, "stream.push"),
                "stream.finish_ms" => ms("stream.finish"),
                "stream.kpps" => per(
                    count("trace.packets"),
                    ms("stream.push") + ms("stream.finish"),
                ),
                "core.victims_ms" => ms("core.victims"),
                "core.diagnose_ms" => ms("core.diagnose"),
                "core.us_per_victim" => per(ms("core.diagnose") * 1e3, count("core.victims")),
                "core.relations_ms" => ms("core.relations"),
                "autofocus.aggregate_ms" => ms("autofocus.aggregate"),
                "autofocus.us_per_relation" => per(
                    ms("autofocus.aggregate") * 1e3,
                    count("autofocus.relations_in"),
                ),
                "cli.wall_med_s" => pooled(self.untraced(), |s| s.wall_s, stats::median),
                "cli.wall_max_s" => pooled(self.untraced(), |s| s.wall_s, stats::max),
                "cli.cpu_user_s" => pooled(self.untraced(), |s| s.user_s, stats::min),
                "cli.cpu_sys_s" => pooled(self.untraced(), |s| s.sys_s, stats::min),
                "cli.rss_bytes_per_pkt" => per(
                    pooled(self.untraced(), |s| s.rss_kib, stats::median) * 1024.0,
                    packets,
                ),
                "cli.stdout_bytes" => pooled(self.untraced(), |s| s.stdout_bytes, stats::median),
                "cli.unaccounted_share" if has_traces => 1.0 - per(covered_s, wall),
                "cli.failed_share" => per(self.failed as f64, self.attempted as f64),
                "sim.generate_s" => {
                    stats::median(&self.inputs.iter().map(|i| i.generate_s).collect::<Vec<_>>())
                }
                "sim.packets" => packets,
                "bench.rounds" => self.passes as f64,
                "bench.trace_overhead_share" if has_traces => per(traced_wall - wall, wall),
                // Everything else is a count the traced child recorded
                // under the metric's own name.
                other => count(other),
            }
        };
        PER_LAYER
            .iter()
            .map(|def| Value {
                name: def.name,
                unit: def.unit,
                value: value(def.name),
                spread: 0.0,
            })
            .collect()
    }
}

fn totals(l: &PassSummary) -> &[(String, f64)] {
    &l.total_ms
}

fn longest(l: &PassSummary) -> &[(String, f64)] {
    &l.longest_ms
}

fn counts(l: &PassSummary) -> &[(String, f64)] {
    &l.counts
}

/// The known-failure probe, outside the workloads and their failure
/// counts: `microscope stream --skew` on the skewed bundle chunked at
/// 50 ms. Returns 1 or 0 for `cli.stream_skew_ok`, and the stderr tail.
pub fn probe_stream_skew(cfg: &Config) -> Result<(f64, String), String> {
    use msc_collector::{chunk_bundle, load_bundle, save_bundle_chunked};
    let skew = workload::WORKLOADS
        .iter()
        .find(|w| w.mode == Mode::Skew)
        .expect("a skew workload");
    let dir = cfg.out.join(format!("run-probe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {dir:?}: {e}"))?;
    let mut input = generate(skew, cfg.millis(skew), cfg.seed, 1, &dir)?.remove(0);
    let whole = load_bundle(&input.whole).map_err(|e| e.to_string())?;
    input.bundle = dir.join("run.mscs");
    save_bundle_chunked(
        &input.bundle,
        &chunk_bundle(&whole, CHUNK_MS * nf_types::MILLIS),
    )
    .map_err(|e| e.to_string())?;

    let mut cmd = cli_command(cfg, "stream", &input, &input.bundle);
    cmd.arg("--skew");
    let o = child::run(&mut cmd, &dir, CHILD_TIMEOUT).map_err(|e| e.to_string())?;
    let ok = o.exit == Exit::Code(0) && report::parse(&o.stdout).is_ok();
    let _ = std::fs::remove_dir_all(&dir);
    Ok((f64::from(u8::from(ok)), o.stderr_tail))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload whose every child fails still uses up its seconds: the
    /// loop ends, and every run is counted as attempted and failed.
    #[test]
    fn measure_ends_when_every_child_fails() {
        let dir = std::env::temp_dir().join(format!("msc_bench_allfail_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = Config {
            // Exits 1 whatever its arguments.
            microscope: PathBuf::from("false"),
            out: dir.clone(),
            seed: 1,
            seconds: 0.05,
            trace: false,
            smoke: false,
        };
        let workload = &workload::WORKLOADS[0];
        assert_eq!(workload.mode, Mode::Diagnose);
        let input = |i: usize| {
            Input::from_line(
                "packets=10 generate_s=0.1 setup_s=0.2",
                &workload::input_dir(&dir, i),
                workload.mode,
            )
            .unwrap()
        };
        let mut set = [Measured {
            workload,
            dir: dir.clone(),
            inputs: vec![input(0), input(1)],
            expected: vec![None, None],
            kept_traces: Vec::new(),
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            spent_s: 0.0,
            passes: 0,
        }];
        measure(&cfg, &mut set).unwrap();
        let m = &set[0];
        // Two passes over two inputs at the least.
        assert!(m.attempted >= 4, "{}", m.attempted);
        assert_eq!(m.failed, m.attempted);
        assert_eq!(m.failures.len() as u64, m.failed.min(KEPT_FAILURES as u64));
        assert!(
            m.failures[0].what.contains("exit code 1"),
            "{:?}",
            m.failures[0]
        );
        assert!(m.spent_s >= cfg.seconds);
        // With nothing measured the metrics read 0; they do not panic.
        assert!(m
            .end_to_end()
            .iter()
            .all(|v| v.name == "setup_s" || v.value == 0.0));
        assert_eq!(m.per_layer().len(), PER_LAYER.len());
    }
}
