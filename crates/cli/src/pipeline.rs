//! The `diagnose` / `skew` call sequences — bundle file → report — written
//! once. (`stream` is another name for `diagnose`.)
//!
//! Both read time chunks straight from the file ([`ChunkSource`]: a
//! whole-run `.msc` in windows, [`DIAGNOSE_WINDOW_MS`] long unless
//! `--chunk-ms` says otherwise, a `.mscs` as it was chunked). `diagnose` runs
//! them through one reconstructor, the windowed [`StreamEngine`]; with
//! `--skew` the engine holds windows until the clock offsets estimated over
//! them settle ([`OffsetSettler`]), then corrects every window by that
//! estimate. `skew` checks the same windows as the engine does
//! ([`ChunkOrder`]) and hands them to the same settler, and reconstructs
//! nothing: it returns the estimate `diagnose --skew` corrects by. The
//! in-memory `msc_trace::reconstruct` the figures and the tests run cuts its
//! bundle into the same windows: one engine, one window size. The whole-run
//! stages (`EdgeStreams::build` → `match_all` → `assemble`) are not called
//! here: they are the oracle the equivalence suites compare the engine with.
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
//! * `diagnose`, with or without `--skew`: `push 1` … `push N`, `finish`,
//!   then the diagnosis stages `diagnose`, `relations`, `aggregate`;
//! * `skew`: `push 1` … `push K`, where the offsets settled after chunk K,
//!   or every chunk of a run that ends before they settle. There is no
//!   `finish`: nothing is reconstructed.

use autofocus::{Pattern, PatternConfig};
use microscope::{
    CacheStats, Diagnosis, DiagnosisConfig, LatencyThreshold, Microscope, SampledRelations,
};
use msc_collector::ChunkSource;
use msc_stream::{StreamConfig, StreamEngine};
use msc_trace::{
    ChunkOrder, OffsetSettler, Reconstruction, ReconstructionReport, SkewEstimates, Timelines,
    DIAGNOSE_WINDOW_MS,
};
use nf_types::{Nanos, NodeId, TimeDelta, Topology, MICROS, MILLIS};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// The negative slack `--skew` gives the matcher: what is left of a clock
/// offset after the correction.
const SKEW_SLACK_NS: Nanos = 20 * MICROS;

/// What `parse_topology` returns: the topology and each NF's peak rate.
pub type Deployment = (Topology, Vec<f64>);

/// Called after every stage with the stage's name and its product.
pub type Hook<'a> = &'a mut dyn FnMut(&str, Produced<'_>);

/// What a stage just produced, lent to the [`Hook`].
pub enum Produced<'a> {
    /// `relations`, `aggregate` and `skew`'s `push N`: nothing is lent.
    Done,
    /// `diagnose`'s `push N`: the engine after its N-th chunk (that chunk
    /// already freed).
    Engine(&'a StreamEngine),
    /// `finish`: the drained engine's traces and timelines.
    Finished(&'a Reconstruction, &'a Timelines),
    /// `diagnose`: one diagnosis per victim.
    Diagnoses(&'a [Diagnosis]),
}

/// The report `diagnose` prints; [`fmt::Display`] renders it, so runs with
/// equal reconstructions print the same bytes.
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

/// How a run streamed through the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Streamed {
    /// Chunks consumed.
    pub chunks: u64,
    /// Traces whose outcome was final before `finish`.
    pub committed: usize,
    /// Largest evictable frontier at any chunk boundary, in bytes.
    pub working_set_peak: usize,
}

/// With `--skew`: when the clock offsets settled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Settled {
    /// After this many chunks were held; the rest were corrected as read.
    After(u64),
    /// Only at the end, on all this many chunks: the whole-run estimate.
    AtEnd(u64),
}

/// A finished `diagnose`: the report for stdout and the facts the CLI
/// renders on stderr.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// What stdout carries.
    pub report: Report,
    /// How the bundle streamed.
    pub streamed: Streamed,
    /// `Some` with `--skew`.
    pub settled: Option<Settled>,
    /// One note per NF whose clock offset is a fallback, not an estimate.
    pub skew_notes: Vec<String>,
    /// Step-cache statistics of the diagnosis pass.
    pub cache: CacheStats,
    /// Causal relations before sampling.
    pub relations_total: usize,
    /// Every `sample_stride`-th relation was aggregated (1: all of them).
    pub sample_stride: usize,
}

/// `microscope skew` — clock-offset estimation only: the offsets
/// `diagnose --skew` settles on, from the same windows of either container,
/// checked as `diagnose` checks them ([`ChunkOrder`]) and held by the same
/// [`OffsetSettler`]. Reading stops when they settle; a run that ends first
/// settles on the whole-run estimate, as `diagnose` does. Nothing is
/// corrected or reconstructed. An NF with no usable samples gets offset 0,
/// which reads exactly like a synchronised clock — `SkewEstimates::notes`
/// names each such fallback.
pub fn skew(topology: &Topology, bundle: &Path, hook: Hook) -> Result<SkewEstimates, String> {
    let mut source = open(bundle, None)?;
    let mut order = ChunkOrder::new(topology);
    let mut settler = OffsetSettler::new(SKEW_SLACK_NS);
    let read = |e| format!("read {}: {e}", bundle.display());
    while let Some(chunk) = source.next_chunk().map_err(read)? {
        order
            .admit(&chunk.bundle, chunk.until)
            .map_err(|e| e.to_string())?;
        let settled = settler.hold(topology, chunk);
        hook(&format!("push {}", settler.held()), Produced::Done);
        if settled {
            break;
        }
    }
    Ok(settler.finish(topology))
}

/// `microscope diagnose` (alias `stream`) — either container into the
/// engine: a chunked `.mscs` chunk by chunk, a whole-run `.msc` in
/// `chunk_ms` windows (default [`DIAGNOSE_WINDOW_MS`]). With `skew`, the
/// engine settles the clock offsets on a prefix of those chunks (on all of
/// them when the run ends first: the whole-run estimate) and corrects every
/// chunk by them.
pub fn diagnose(
    deployment: &Deployment,
    bundle: &Path,
    chunk_ms: Option<u64>,
    skew: bool,
    quantile: f64,
    top: usize,
    hook: Hook,
) -> Result<Run, String> {
    let mut source = open(bundle, chunk_ms)?;
    // With `skew` the engine holds chunks until the clock offsets settle,
    // and matches with negative slack for what the correction leaves of
    // each offset — also the tolerance within which two estimates agree.
    let mut cfg = StreamConfig {
        skew,
        ..Default::default()
    };
    if skew {
        cfg.matching.negative_slack_ns = SKEW_SLACK_NS;
    }
    let mut engine = StreamEngine::new(&deployment.0, cfg);
    while push_next(&mut source, bundle, &mut engine, hook)? {}
    // The reader and its windows.
    drop(source);

    let streamed = Streamed {
        chunks: engine.chunks(),
        committed: engine.committed(),
        working_set_peak: engine.working_set_peak(),
    };
    let (mut recon, timelines, skewed) = engine.finish_skewed();
    hook("finish", Produced::Finished(&recon, &timelines));
    // The timelines hold what the diagnosis reads of the read batches.
    drop(std::mem::take(&mut recon.reads));

    let mut run = diagnose_and_aggregate(
        deployment, &recon, &timelines, streamed, quantile, top, hook,
    );
    if let Some((est, held)) = skewed {
        run.settled = Some(if held == streamed.chunks {
            Settled::AtEnd(held)
        } else {
            Settled::After(held)
        });
        run.skew_notes = est.notes(&deployment.0);
        run.report.offsets = Some(est.offsets);
    }
    Ok(run)
}

/// Opens `bundle` for reading in `chunk_ms` windows (default
/// [`DIAGNOSE_WINDOW_MS`]); a window length for a `.mscs`, which was cut
/// into chunks when it was recorded, is an error.
fn open(bundle: &Path, chunk_ms: Option<u64>) -> Result<ChunkSource, String> {
    let path = bundle.display();
    let chunk_ns = chunk_ms.unwrap_or(DIAGNOSE_WINDOW_MS) * MILLIS;
    let source = ChunkSource::open(bundle, chunk_ns).map_err(|e| format!("open {path}: {e}"))?;
    if let (ChunkSource::Chunked(_), Some(ms)) = (&source, chunk_ms) {
        return Err(format!(
            "--chunk-ms {ms} has no effect on {path}: a .mscs file was cut into chunks when \
             it was recorded (drop the flag, or read the whole-run .msc)"
        ));
    }
    Ok(source)
}

/// Reads the next chunk of `bundle` into `engine` and, the chunk freed,
/// shows the hook the engine after it. False at the end of the file.
fn push_next(
    source: &mut ChunkSource,
    bundle: &Path,
    engine: &mut StreamEngine,
    hook: Hook,
) -> Result<bool, String> {
    let next = source.next_chunk();
    let Some(chunk) = next.map_err(|e| format!("read {}: {e}", bundle.display()))? else {
        return Ok(false);
    };
    engine.push_chunk(&chunk).map_err(|e| e.to_string())?;
    drop(chunk);
    hook(
        &format!("push {}", engine.chunks()),
        Produced::Engine(engine),
    );
    Ok(true)
}

/// The diagnosis stages: victims, recursive diagnosis,
/// culprit ranking, causal relations, AutoFocus patterns.
fn diagnose_and_aggregate(
    (topology, rates): &Deployment,
    recon: &Reconstruction,
    timelines: &Timelines,
    streamed: Streamed,
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
        streamed,
        settled: None,
        skew_notes: Vec::new(),
        cache,
        relations_total,
        sample_stride,
    }
}
