//! The `diagnose` / `diagnose --skew` / `stream` / `skew` call sequences —
//! bundle file → report — written once.
//!
//! Each function takes the parsed deployment, the bundle path and the values
//! of the command's flags, checks the bundle against the topology before
//! anything indexes by NF, and calls the stages one at a time with the
//! lifetimes the report's peak memory depends on. After each stage it calls
//! the caller's [`Hook`] with the stage's name and what the stage produced:
//! the CLI passes a hook that does nothing, `mem_stages` one that reads
//! `/proc/self/status`. Nothing here prints: the report and the facts behind
//! the CLI's stderr lines come back in a [`Run`].
//!
//! Stage names, in call order (`[…]` only with `--skew`):
//!
//! * `diagnose`: `load`, [`offsets`, `correct`,] `streams`, `match`,
//!   `assemble`, `timelines`, then the diagnosis stages;
//! * `stream` on a chunked `.mscs`: `push 1` … `push N`, `finish`, then the
//!   diagnosis stages; on a whole-run `.msc`, `load` and `chunk` come first;
//! * `skew`: `load`, `offsets`;
//! * the diagnosis stages: `diagnose`, `relations`, `aggregate`.

use autofocus::{CausalRelation, Pattern, PatternConfig};
use microscope::{
    CacheStats, Diagnosis, DiagnosisConfig, LatencyThreshold, Microscope, SampledRelations,
};
use msc_collector::{
    chunk_bundle, load_bundle, peek_format, BundleChunk, BundleChunkReader, BundleFormat,
    TraceBundle,
};
use msc_stream::{StreamConfig, StreamEngine};
use msc_trace::{
    assemble, correct_bundle, estimate_offsets_refined_detailed, match_all, EdgeMatch, EdgeStreams,
    Reconstruction, ReconstructionConfig, ReconstructionReport, SkewConfig, SkewEstimates,
    StreamError, Timelines,
};
use nf_types::{Nanos, NodeId, TimeDelta, Topology, MICROS, MILLIS};
use std::fmt;
use std::path::Path;

/// What `parse_topology` returns: the topology and each NF's peak rate.
pub type Deployment = (Topology, Vec<f64>);

/// Called after every stage with the stage's name and its product.
pub type Hook<'a> = &'a mut dyn FnMut(&str, Produced<'_>);

/// What a stage just produced, lent to the [`Hook`].
pub enum Produced<'a> {
    /// `load`, `correct`: the records, as loaded or on the source clock.
    Bundle(&'a TraceBundle),
    /// `offsets`: the whole-run clock-offset estimate.
    Offsets(&'a SkewEstimates),
    /// `chunk`: a whole-run bundle cut into time chunks in memory.
    Chunks(&'a [BundleChunk]),
    /// `streams`: the per-edge packet streams the matcher reads.
    Streams(&'a EdgeStreams),
    /// `match`: one match result per NF.
    Matches(&'a [EdgeMatch]),
    /// `assemble`: the traces (records and match results already freed).
    Reconstruction(&'a Reconstruction),
    /// `timelines`: the per-NF arrival timelines.
    Timelines(&'a Timelines),
    /// `push N`: the engine after its N-th chunk (that chunk already freed).
    Engine(&'a StreamEngine),
    /// `finish`: the drained engine's traces and timelines.
    Finished(&'a Reconstruction, &'a Timelines),
    /// `diagnose`: one diagnosis per victim.
    Diagnoses(&'a [Diagnosis]),
    /// `relations`: the sampled causal relations aggregation reads (the
    /// rest were counted, never held).
    Relations(&'a [CausalRelation]),
    /// `aggregate`: every pattern, before the report keeps its top few.
    Patterns(&'a [Pattern]),
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
    /// The chunk length, when a whole-run bundle was chunked in memory.
    pub chunked_in_memory_ms: Option<u64>,
    /// Chunks consumed.
    pub chunks: u64,
    /// Traces whose outcome was final before `finish`.
    pub committed: usize,
    /// Largest evictable frontier at any chunk boundary, in bytes.
    pub working_set_peak: usize,
    /// Queuing periods closed over all NFs.
    pub closed_periods: u64,
    /// The longest of them.
    pub longest_period_ns: Nanos,
    /// With `--skew`: chunks held until the clock offsets settled. Equal to
    /// `chunks` when they settled on the whole run, as `diagnose --skew`'s do.
    pub held_for_offsets: Option<u64>,
}

/// A finished `diagnose` or `stream`: the report for stdout and the facts
/// the CLI renders on stderr.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// What stdout carries.
    pub report: Report,
    /// `Some` for a streamed run.
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
/// estimator, `correct_bundle` and the matcher all index by NF.
fn load_checked(topology: &Topology, path: &Path, hook: Hook) -> Result<TraceBundle, String> {
    let bundle = load_bundle(path).map_err(|e| format!("load {}: {e}", path.display()))?;
    if bundle.logs.len() != topology.len() {
        return Err(StreamError::TopologyMismatch {
            expected: topology.len(),
            got: bundle.logs.len(),
        }
        .to_string());
    }
    hook("load", Produced::Bundle(&bundle));
    Ok(bundle)
}

/// Whole-run clock offsets. An NF with no usable samples gets offset 0,
/// which reads exactly like a synchronised clock — `SkewEstimates::notes`
/// names each such fallback.
fn estimate(topology: &Topology, bundle: &TraceBundle, hook: Hook) -> SkewEstimates {
    let est = estimate_offsets_refined_detailed(topology, bundle, &SkewConfig::default());
    hook("offsets", Produced::Offsets(&est));
    est
}

/// `microscope skew` — clock-offset estimation only.
pub fn skew(topology: &Topology, bundle: &Path, hook: Hook) -> Result<SkewEstimates, String> {
    let bundle = load_checked(topology, bundle, hook)?;
    Ok(estimate(topology, &bundle, hook))
}

/// `microscope diagnose` — the offline pipeline on saved artifacts.
pub fn diagnose(
    deployment: &Deployment,
    bundle: &Path,
    skew: bool,
    quantile: f64,
    top: usize,
    hook: Hook,
) -> Result<Run, String> {
    let topology = &deployment.0;
    let mut bundle = load_checked(topology, bundle, hook)?;
    let mut cfg = ReconstructionConfig::default();
    let mut offsets = None;
    let mut skew_notes = Vec::new();
    if skew {
        let est = estimate(topology, &bundle, hook);
        skew_notes = est.notes(topology);
        bundle = correct_bundle(&bundle, &est.offsets);
        hook("correct", Produced::Bundle(&bundle));
        cfg.matching.negative_slack_ns = 20 * MICROS;
        offsets = Some(est.offsets);
    }

    let streams = EdgeStreams::build(topology, &bundle);
    hook("streams", Produced::Streams(&streams));
    let matches = match_all(&streams, topology, &cfg);
    hook("match", Produced::Matches(&matches));
    let mut recon = assemble(topology, &bundle, streams, &matches);
    // Nothing reads the records or the match results again: give their
    // columns back before the timelines and the diagnosis index are built
    // on the traces.
    drop(matches);
    drop(bundle);
    hook("assemble", Produced::Reconstruction(&recon));
    let timelines = Timelines::build(&recon);
    hook("timelines", Produced::Timelines(&timelines));
    // The timelines hold what the diagnosis reads of the read batches.
    drop(std::mem::take(&mut recon.reads));

    let mut run = diagnose_and_aggregate(deployment, &recon, &timelines, quantile, top, hook);
    run.report.offsets = offsets;
    run.skew_notes = skew_notes;
    Ok(run)
}

/// `microscope stream` — the streaming pipeline: consume the bundle as a
/// sequence of time chunks with O(window) reconstruction state, then the
/// same diagnosis as [`diagnose`] — an equal report; with `skew`, for the
/// offsets the stream settled on (the whole-run estimate when it ends first).
///
/// A chunked `.mscs` is read chunk by chunk; a whole-run `.msc` is chunked in
/// memory at `chunk_ms` (default 50).
pub fn stream(
    deployment: &Deployment,
    bundle: &Path,
    chunk_ms: Option<u64>,
    skew: bool,
    quantile: f64,
    top: usize,
    hook: Hook,
) -> Result<Run, String> {
    let topology = &deployment.0;
    let path = bundle.display();
    let format = peek_format(bundle).map_err(|e| format!("{path}: {e}"))?;
    if let (BundleFormat::Chunked, Some(ms)) = (format, chunk_ms) {
        return Err(format!(
            "--chunk-ms {ms} has no effect on {path}: a .mscs file was cut into chunks when \
             it was recorded (drop the flag, or stream the whole-run .msc)"
        ));
    }

    let mut cfg = StreamConfig::default();
    if skew {
        // The slack the offline skew path gives the matcher; the engine
        // also takes it as the tolerance within which the offsets settle.
        cfg.matching.negative_slack_ns = 20 * MICROS;
        cfg.skew = Some(SkewConfig::default());
    }
    let mut engine = StreamEngine::new(topology, cfg);

    let mut chunked_in_memory_ms = None;
    match format {
        BundleFormat::Chunked => {
            let mut rdr =
                BundleChunkReader::open(bundle).map_err(|e| format!("open {path}: {e}"))?;
            while let Some(chunk) = rdr.next_chunk().map_err(|e| format!("read {path}: {e}"))? {
                push(&mut engine, chunk, hook)?;
            }
        }
        BundleFormat::Whole => {
            let ms = chunk_ms.unwrap_or(50);
            chunked_in_memory_ms = Some(ms);
            let whole = load_checked(topology, bundle, hook)?;
            let chunks = chunk_bundle(&whole, ms * MILLIS);
            drop(whole);
            hook("chunk", Produced::Chunks(&chunks));
            for chunk in chunks {
                push(&mut engine, chunk, hook)?;
            }
        }
    }

    let mut streamed = Streamed {
        chunked_in_memory_ms,
        chunks: engine.chunks(),
        committed: engine.committed(),
        working_set_peak: engine.working_set_peak(),
        closed_periods: engine.periods().closed_periods(),
        longest_period_ns: engine.periods().longest_ns(),
        held_for_offsets: None,
    };
    let (mut recon, timelines, skewed) = engine.finish_skewed();
    hook("finish", Produced::Finished(&recon, &timelines));
    // As in `diagnose`: the timelines hold what is read of the batches.
    drop(std::mem::take(&mut recon.reads));

    let mut run = diagnose_and_aggregate(deployment, &recon, &timelines, quantile, top, hook);
    if let Some((est, held)) = skewed {
        streamed.held_for_offsets = Some(held);
        run.skew_notes = est.notes(topology);
        run.report.offsets = Some(est.offsets);
    }
    run.streamed = Some(streamed);
    Ok(run)
}

/// One chunk into the engine; the chunk is freed before the hook looks.
fn push(engine: &mut StreamEngine, chunk: BundleChunk, hook: Hook) -> Result<(), String> {
    engine.push_chunk(&chunk).map_err(|e| e.to_string())?;
    drop(chunk);
    hook(
        &format!("push {}", engine.chunks()),
        Produced::Engine(engine),
    );
    Ok(())
}

/// The diagnosis half of both pipelines: victims, recursive diagnosis,
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
    let mut blame: std::collections::HashMap<String, (f64, usize)> = Default::default();
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
    // Tie-break on the name: the counts come out of a HashMap, so equal
    // counts would otherwise print in per-process-random order.
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
    hook("relations", Produced::Relations(&relations));
    let mut patterns =
        autofocus::aggregate_patterns(&relations, &PatternConfig::default(), &|id| {
            topology.nf(id).kind
        });
    hook("aggregate", Produced::Patterns(&patterns));
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
