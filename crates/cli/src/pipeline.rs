//! The `diagnose` / `diagnose --skew` / `stream` / `skew` call sequences —
//! bundle file → report — written once.
//!
//! Every command that reports runs one reconstructor, the windowed
//! [`StreamEngine`], on time chunks read straight from the file
//! ([`ChunkSource`]: a whole-run `.msc` in windows, a `.mscs` as it was
//! chunked). `diagnose --skew` first estimates the clock offsets over the
//! whole run, frees it and hands the estimate to the engine, which corrects
//! each window as it ingests it. `diagnose`'s windows are
//! [`DIAGNOSE_WINDOW_MS`] long, the windows `msc_trace::reconstruct` cuts an
//! in-memory bundle into for the figures and the tests: one engine, one
//! window size. The whole-run stages (`EdgeStreams::build` →
//! `match_all` → `assemble`) are not called here: they are the oracle the
//! equivalence suites compare the engine with.
//!
//! Each function takes the parsed deployment, the bundle path and the values
//! of the command's flags and calls the stages one at a time with the
//! lifetimes the report's peak memory depends on; a bundle recorded on
//! another topology is refused before anything indexes by NF. After each
//! stage it calls the caller's [`Hook`] with the stage's name and what the
//! stage produced: the CLI passes a hook that does nothing, `mem_stages` one
//! that reads `/proc/self/status`. Nothing here prints: the report and the
//! facts behind the CLI's stderr lines come back in a [`Run`].
//!
//! Stage names, in call order:
//!
//! * `diagnose` and `stream`: `push 1` … `push N`, `finish`, then the
//!   diagnosis stages;
//! * `diagnose --skew`: `load`, `offsets`, then as `diagnose`;
//! * `skew`: `load`, `offsets`;
//! * the diagnosis stages: `diagnose`, `relations`, `aggregate`.

use autofocus::{Pattern, PatternConfig};
use microscope::{
    CacheStats, Diagnosis, DiagnosisConfig, LatencyThreshold, Microscope, SampledRelations,
};
use msc_collector::{load_bundle, BundleChunk, BundleIoError, ChunkSource, TraceBundle};
use msc_stream::{StreamConfig, StreamEngine};
use msc_trace::{
    estimate_offsets_refined_detailed, Reconstruction, ReconstructionReport, SkewConfig,
    SkewEstimates, StreamError, Timelines, DIAGNOSE_WINDOW_MS,
};
use nf_types::{Nanos, NodeId, TimeDelta, Topology, MICROS, MILLIS};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// `stream`'s window on a whole-run `.msc` when `--chunk-ms` is not given.
/// (`stream --skew` settles its offsets on a prefix of the run, so this
/// value is part of its report.)
const STREAM_WINDOW_MS: u64 = 50;

/// The negative slack `--skew` gives the matcher: what is left of a clock
/// offset after the correction.
const SKEW_SLACK_NS: Nanos = 20 * MICROS;

/// What `parse_topology` returns: the topology and each NF's peak rate.
pub type Deployment = (Topology, Vec<f64>);

/// Called after every stage with the stage's name and its product.
pub type Hook<'a> = &'a mut dyn FnMut(&str, Produced<'_>);

/// What a stage just produced, lent to the [`Hook`].
pub enum Produced<'a> {
    /// `load`, `offsets`, `relations`, `aggregate`: nothing is lent.
    Done,
    /// `push N`: the engine after its N-th chunk (that chunk already freed).
    Engine(&'a StreamEngine),
    /// `finish`: the drained engine's traces and timelines.
    Finished(&'a Reconstruction, &'a Timelines),
    /// `diagnose`: one diagnosis per victim.
    Diagnoses(&'a [Diagnosis]),
}

/// The report both `diagnose` and `stream` print; [`fmt::Display`] renders
/// it, so the two commands stay byte-identical on equal reconstructions.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The estimated clock offsets, when `--skew` corrected by them.
    pub offsets: Option<Vec<TimeDelta>>,
    /// Trace counts by fate.
    pub reconstruction: ReconstructionReport,
    /// Victim (packet, NF) pairs diagnosed.
    pub victims: usize,
    /// The top culprit locations: name, blame mass, victims where ranked #1.
    pub culprits: Vec<(String, f64, usize)>,
    /// Causal relations aggregated (after sampling).
    pub relations: usize,
    /// Patterns the aggregation produced.
    pub patterns_total: usize,
    /// The top patterns.
    pub patterns: Vec<Pattern>,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(offsets) = &self.offsets {
            writeln!(f, "estimated clock offsets (ns): {offsets:?}\n")?;
        }
        let r = &self.reconstruction;
        writeln!(
            f,
            "reconstructed {} traces: {} delivered, {} dropped, {} unresolved, {} IPID ambiguities",
            r.total, r.delivered, r.inferred_drops, r.unresolved, r.ambiguities
        )?;
        writeln!(f, "diagnosed {} victim (packet, NF) pairs\n", self.victims)?;
        writeln!(f, "top culprit locations (victims where ranked #1):")?;
        for (name, score, victims) in &self.culprits {
            writeln!(
                f,
                "  {name:>16}: {victims:>6} victims, blame mass {score:.1}"
            )?;
        }
        writeln!(
            f,
            "\n{} causal relations -> {} patterns; top {}:",
            self.relations,
            self.patterns_total,
            self.patterns.len()
        )?;
        for p in &self.patterns {
            writeln!(f, "  {p}")?;
        }
        Ok(())
    }
}

/// What only `stream` knows about a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Streamed {
    /// Chunks consumed.
    pub chunks: u64,
    /// Traces whose outcome was final before `finish`.
    pub committed: usize,
    /// Largest evictable frontier at any chunk boundary, in bytes.
    pub working_set_peak: usize,
    /// With `--skew`: chunks held until the clock offsets settled. Equal to
    /// `chunks` when they settled only at the end, on the whole run.
    pub held_for_offsets: Option<u64>,
}

/// A finished `diagnose` or `stream`: the report for stdout and the facts
/// the CLI renders on stderr.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// What stdout carries.
    pub report: Report,
    /// `Some` for `stream`.
    pub streamed: Option<Streamed>,
    /// One note per NF whose clock offset is a fallback, not an estimate.
    pub skew_notes: Vec<String>,
    /// Step-cache statistics of the diagnosis pass.
    pub cache: CacheStats,
    /// Causal relations before sampling.
    pub relations_total: usize,
    /// Every `sample_stride`-th relation was aggregated (1: all of them).
    pub sample_stride: usize,
}

/// Loads a whole-run bundle and checks it was recorded on `topology`: the
/// estimator indexes by NF.
fn load_checked(topology: &Topology, path: &Path, hook: Hook) -> Result<TraceBundle, String> {
    let bundle = load_bundle(path).map_err(|e| format!("load {}: {e}", path.display()))?;
    if bundle.logs.len() != topology.len() {
        return Err(StreamError::TopologyMismatch {
            expected: topology.len(),
            got: bundle.logs.len(),
        }
        .to_string());
    }
    hook("load", Produced::Done);
    Ok(bundle)
}

/// Whole-run clock offsets. An NF with no usable samples gets offset 0,
/// which reads exactly like a synchronised clock — `SkewEstimates::notes`
/// names each such fallback.
fn estimate(topology: &Topology, bundle: &TraceBundle, hook: Hook) -> SkewEstimates {
    let est = estimate_offsets_refined_detailed(topology, bundle, &SkewConfig::default());
    hook("offsets", Produced::Done);
    est
}

/// `microscope skew` — clock-offset estimation only.
pub fn skew(topology: &Topology, bundle: &Path, hook: Hook) -> Result<SkewEstimates, String> {
    let bundle = load_checked(topology, bundle, hook)?;
    Ok(estimate(topology, &bundle, hook))
}

/// `microscope diagnose` — the whole-run `.msc` read in
/// [`DIAGNOSE_WINDOW_MS`] windows into the engine.
///
/// With `skew`, the clock offsets are first estimated over the whole run,
/// which is then freed; the engine corrects every window by that estimate
/// and matches with [`SKEW_SLACK_NS`] of negative slack for what the
/// correction leaves of each offset.
pub fn diagnose(
    deployment: &Deployment,
    bundle: &Path,
    skew: bool,
    quantile: f64,
    top: usize,
    hook: Hook,
) -> Result<Run, String> {
    let topology = &deployment.0;
    let mut cfg = StreamConfig::default();
    let estimate = if skew {
        let whole = load_checked(topology, bundle, hook)?;
        cfg.matching.negative_slack_ns = SKEW_SLACK_NS;
        Some(estimate(topology, &whole, hook))
    } else {
        None
    };
    let mut engine = StreamEngine::new(topology, cfg);
    if let Some(est) = estimate {
        engine.correct_by(est);
    }
    let path = bundle.display();
    let mut source =
        ChunkSource::open(bundle, DIAGNOSE_WINDOW_MS * MILLIS).map_err(|e| opening(&path, &e))?;
    if let ChunkSource::Chunked(_) = source {
        return Err(opening(&path, &BundleIoError::Chunked));
    }
    let next = move || source.next_chunk().map_err(|e| reading(&path, &e));
    let mut run = run_engine(deployment, engine, next, quantile, top, hook)?;
    run.streamed = None;
    Ok(run)
}

/// `microscope stream` — the same engine as [`diagnose`] over either
/// container: a chunked `.mscs` chunk by chunk, a whole-run `.msc` in
/// `chunk_ms` windows (default [`STREAM_WINDOW_MS`]). The report equals
/// `diagnose`'s; with `skew`, for the offsets the stream settled on (the
/// whole-run estimate when it ends first).
pub fn stream(
    deployment: &Deployment,
    bundle: &Path,
    chunk_ms: Option<u64>,
    skew: bool,
    quantile: f64,
    top: usize,
    hook: Hook,
) -> Result<Run, String> {
    let path = bundle.display();
    let chunk_ns = chunk_ms.unwrap_or(STREAM_WINDOW_MS) * MILLIS;
    let mut source = ChunkSource::open(bundle, chunk_ns).map_err(|e| opening(&path, &e))?;
    if let (ChunkSource::Chunked(_), Some(ms)) = (&source, chunk_ms) {
        return Err(format!(
            "--chunk-ms {ms} has no effect on {path}: a .mscs file was cut into chunks when \
             it was recorded (drop the flag, or stream the whole-run .msc)"
        ));
    }
    let mut cfg = StreamConfig::default();
    if skew {
        // The slack `diagnose --skew` gives the matcher; the engine also
        // takes it as the tolerance within which the offsets settle.
        cfg.matching.negative_slack_ns = SKEW_SLACK_NS;
        cfg.skew = Some(SkewConfig::default());
    }
    let engine = StreamEngine::new(&deployment.0, cfg);
    let next = move || source.next_chunk().map_err(|e| reading(&path, &e));
    run_engine(deployment, engine, next, quantile, top, hook)
}

fn opening(path: &impl fmt::Display, e: &BundleIoError) -> String {
    format!("open {path}: {e}")
}

fn reading(path: &impl fmt::Display, e: &BundleIoError) -> String {
    format!("read {path}: {e}")
}

/// Pushes every chunk `next` yields into `engine` — each chunk freed
/// before the hook looks — then drains the engine and runs the diagnosis
/// stages on what it reconstructed.
fn run_engine(
    deployment: &Deployment,
    mut engine: StreamEngine,
    mut next: impl FnMut() -> Result<Option<BundleChunk>, String>,
    quantile: f64,
    top: usize,
    hook: Hook,
) -> Result<Run, String> {
    while let Some(chunk) = next()? {
        engine.push_chunk(&chunk).map_err(|e| e.to_string())?;
        drop(chunk);
        hook(
            &format!("push {}", engine.chunks()),
            Produced::Engine(&engine),
        );
    }
    // The reader and its windows.
    drop(next);

    let mut streamed = Streamed {
        chunks: engine.chunks(),
        committed: engine.committed(),
        working_set_peak: engine.working_set_peak(),
        held_for_offsets: None,
    };
    let (mut recon, timelines, skewed) = engine.finish_skewed();
    hook("finish", Produced::Finished(&recon, &timelines));
    // The timelines hold what the diagnosis reads of the read batches.
    drop(std::mem::take(&mut recon.reads));

    let mut run = diagnose_and_aggregate(deployment, &recon, &timelines, quantile, top, hook);
    if let Some((est, held)) = skewed {
        streamed.held_for_offsets = Some(held);
        run.skew_notes = est.notes(&deployment.0);
        run.report.offsets = Some(est.offsets);
    }
    run.streamed = Some(streamed);
    Ok(run)
}

/// The diagnosis stages: victims, recursive diagnosis,
/// culprit ranking, causal relations, AutoFocus patterns.
fn diagnose_and_aggregate(
    (topology, rates): &Deployment,
    recon: &Reconstruction,
    timelines: &Timelines,
    quantile: f64,
    top: usize,
    hook: Hook,
) -> Run {
    let mut dc = DiagnosisConfig::default();
    dc.victims.latency = LatencyThreshold::Quantile(quantile);
    dc.victims.max_victims = Some(5_000);
    let engine = Microscope::new(topology.clone(), rates.clone(), dc);
    let (diagnoses, cache) = engine.diagnose_all_stats(recon, timelines);
    hook("diagnose", Produced::Diagnoses(&diagnoses));

    // Ranked culprit locations.
    let mut blame: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for d in &diagnoses {
        if let Some(c) = d.culprits.first() {
            let name = match c.node {
                NodeId::Source => "traffic-source".to_string(),
                NodeId::Nf(id) => topology.nf(id).name.clone(),
            };
            let e = blame.entry(name).or_default();
            e.0 += c.score;
            e.1 += 1;
        }
    }
    let mut culprits: Vec<(String, f64, usize)> = blame
        .into_iter()
        .map(|(name, (score, victims))| (name, score, victims))
        .collect();
    // Equal counts print in name order.
    culprits.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
    culprits.truncate(top);

    // Aggregated causal patterns (§4.4). Large relation sets are
    // subsampled at a uniform stride while they are emitted — scores stay
    // proportional, and only the sample is ever held. Aggregation costs
    // 1–5 µs/relation (`results/sec64.txt`), so the cap is not a speed
    // measure any more: removing it changes stdout and is ROADMAP item 5.
    const MAX_RELATIONS: usize = 2_000;
    let SampledRelations {
        relations,
        total: relations_total,
        stride: sample_stride,
    } = microscope::sample_relations(recon, &diagnoses, MAX_RELATIONS);
    hook("relations", Produced::Done);
    let mut patterns =
        autofocus::aggregate_patterns(&relations, &PatternConfig::default(), &|id| {
            topology.nf(id).kind
        });
    hook("aggregate", Produced::Done);
    let patterns_total = patterns.len();
    patterns.truncate(top);

    Run {
        report: Report {
            offsets: None,
            reconstruction: recon.report,
            victims: diagnoses.len(),
            culprits,
            relations: relations.len(),
            patterns_total,
            patterns,
        },
        streamed: None,
        skew_notes: Vec::new(),
        cache,
        relations_total,
        sample_stride,
    }
}
