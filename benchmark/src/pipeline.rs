//! The `diagnose` / `stream` call sequences of `crates/cli/src/commands.rs`,
//! made through the same public functions, with one span per call.
//!
//! This runs in a child of the driver (`msc-benchmark child ...`) so that a
//! traced pass pays the same cold start as the CLI. It prints the report
//! the CLI prints, byte for byte, which is how the driver checks that the
//! traced sequence has not drifted from the program it stands for. The
//! `patterns` mode is the one place the sequence departs from the CLI:
//! a victim cap of 3 000 and a relation cap of 4 000 in place of 5 000 and
//! 2 000, so that aggregation dominates (see README, workload patterns-4k).

use crate::span::Tracer;
use microscope::{find_victims, DiagnosisConfig, LatencyThreshold, Microscope};
use msc_collector::{load_bundle, BundleChunkReader};
use msc_stream::{StreamConfig, StreamEngine};
use msc_trace::{
    assemble, correct_bundle, estimate_offsets_refined, match_all, EdgeStreams, Reconstruction,
    ReconstructionConfig, SkewConfig, Timelines,
};
use nf_types::{parse_topology, NodeId, Topology, MICROS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Which call sequence to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `microscope diagnose`.
    Diagnose,
    /// `microscope diagnose --skew`.
    Skew,
    /// `microscope stream` on a chunked bundle.
    Stream,
    /// `diagnose` with the caps that make aggregation dominate.
    Patterns,
}

impl Mode {
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "diagnose" => Some(Mode::Diagnose),
            "skew" => Some(Mode::Skew),
            "stream" => Some(Mode::Stream),
            "patterns" => Some(Mode::Patterns),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Diagnose => "diagnose",
            Mode::Skew => "skew",
            Mode::Stream => "stream",
            Mode::Patterns => "patterns",
        }
    }

    fn max_victims(self) -> usize {
        match self {
            Mode::Patterns => 3_000,
            _ => 5_000,
        }
    }

    fn max_relations(self) -> usize {
        match self {
            Mode::Patterns => 4_000,
            _ => 2_000,
        }
    }
}

/// `--top`: the CLI's default.
const TOP: usize = 10;

/// Runs `mode` on the files and returns the report text for stdout.
pub fn run(mode: Mode, topology: &Path, bundle: &Path, t: &mut Tracer) -> Result<String, String> {
    let text = std::fs::read_to_string(topology).map_err(|e| format!("read {topology:?}: {e}"))?;
    let (topology, rates) = parse_topology(&text).map_err(|e| format!("{topology:?}: {e}"))?;
    let size = std::fs::metadata(bundle).map_err(|e| format!("stat {bundle:?}: {e}"))?;
    t.count("collector.bundle_mb", size.len() as f64 / 1e6);

    let mut out = String::new();
    let (recon, timelines) = if mode == Mode::Stream {
        stream(&topology, bundle, t)?
    } else {
        offline(mode, &topology, bundle, t, &mut out)?
    };
    let r = &recon.report;
    t.count("trace.packets", r.total as f64);
    t.count("trace.ambiguities", r.ambiguities as f64);
    t.count(
        "trace.delivered_share",
        r.delivered as f64 / (r.total as f64).max(1.0),
    );
    report(mode, &topology, rates, &recon, &timelines, t, &mut out);
    Ok(out)
}

fn offline(
    mode: Mode,
    topology: &Topology,
    path: &Path,
    t: &mut Tracer,
    out: &mut String,
) -> Result<(Reconstruction, Timelines), String> {
    let mut bundle = t
        .span("collector.load", |_| load_bundle(path))
        .map_err(|e| format!("load {path:?}: {e}"))?;
    let mut cfg = ReconstructionConfig::default();
    if mode == Mode::Skew {
        let offsets = t.span("trace.skew_estimate", |_| {
            estimate_offsets_refined(topology, &bundle, &SkewConfig::default())
        });
        let _ = writeln!(out, "estimated clock offsets (ns): {offsets:?}\n");
        bundle = t.span("trace.skew_correct", |_| correct_bundle(&bundle, &offsets));
        cfg.matching.negative_slack_ns = 20 * MICROS;
    }
    // `trace::reconstruct`, stage by stage.
    let recon = t.span("trace.reconstruct", |t| {
        let streams = t.span("trace.streams_build", |_| {
            EdgeStreams::build(topology, &bundle)
        });
        let matches = t.span("trace.match", |_| match_all(&streams, topology, &cfg));
        t.span("trace.assemble", |_| {
            assemble(topology, &bundle, streams, &matches)
        })
    });
    let timelines = t.span("trace.timelines", |_| Timelines::build(&recon));
    Ok((recon, timelines))
}

fn stream(
    topology: &Topology,
    path: &Path,
    t: &mut Tracer,
) -> Result<(Reconstruction, Timelines), String> {
    let mut engine = StreamEngine::new(topology, StreamConfig::default());
    let mut rdr = BundleChunkReader::open(path).map_err(|e| format!("open {path:?}: {e}"))?;
    while let Some(chunk) = t
        .span("collector.read_chunk", |_| rdr.next_chunk())
        .map_err(|e| format!("read {path:?}: {e}"))?
    {
        t.span("stream.push", |_| engine.push_chunk(&chunk))
            .map_err(|e| e.to_string())?;
    }
    t.count("collector.chunks", engine.chunks() as f64);
    t.count(
        "stream.frontier_peak_mb",
        engine.working_set_peak() as f64 / 1e6,
    );
    let committed = engine.committed() as f64;
    let (recon, timelines) = t.span("stream.finish", |_| engine.finish());
    t.count(
        "stream.committed_pre_finish_share",
        committed / (recon.report.total as f64).max(1.0),
    );
    Ok((recon, timelines))
}

/// `commands::report_diagnosis`: diagnosis, relations, aggregation, and
/// the text of the report.
fn report(
    mode: Mode,
    topology: &Topology,
    rates: Vec<f64>,
    recon: &Reconstruction,
    timelines: &Timelines,
    t: &mut Tracer,
    out: &mut String,
) {
    let r = &recon.report;
    let _ = writeln!(
        out,
        "reconstructed {} traces: {} delivered, {} dropped, {} unresolved, {} IPID ambiguities",
        r.total, r.delivered, r.inferred_drops, r.unresolved, r.ambiguities
    );

    let mut dc = DiagnosisConfig::default();
    dc.victims.latency = LatencyThreshold::Quantile(0.99);
    dc.victims.max_victims = Some(mode.max_victims());
    // Victim selection on its own, to split it from the causal walks; the
    // engine selects again inside `diagnose_all_stats`, as the CLI does.
    let selected = t.span("core.victims", |_| find_victims(recon, &dc.victims));
    let engine = Microscope::new(topology.clone(), rates, dc);
    let (diagnoses, cache) = t.span("core.diagnose", |_| {
        engine.diagnose_all_stats(recon, timelines)
    });
    debug_assert_eq!(selected.len(), diagnoses.len());
    t.count("core.victims", diagnoses.len() as f64);
    t.count("core.cache_hit_rate", cache.hit_rate());
    let _ = writeln!(
        out,
        "diagnosed {} victim (packet, NF) pairs\n",
        diagnoses.len()
    );

    let mut blame: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for c in diagnoses.iter().filter_map(|d| d.culprits.first()) {
        let name = match c.node {
            NodeId::Source => "traffic-source".to_string(),
            NodeId::Nf(id) => topology.nf(id).name.clone(),
        };
        let e = blame.entry(name).or_default();
        e.0 += c.score;
        e.1 += 1;
    }
    let mut ranked: Vec<(String, (f64, usize))> = blame.into_iter().collect();
    ranked.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then_with(|| a.0.cmp(&b.0)));
    let _ = writeln!(out, "top culprit locations (victims where ranked #1):");
    for (name, (score, victims)) in ranked.iter().take(TOP) {
        let _ = writeln!(
            out,
            "  {name:>16}: {victims:>6} victims, blame mass {score:.1}"
        );
    }

    let mut relations = t.span("core.relations", |_| {
        microscope::diagnoses_to_relations(recon, &diagnoses)
    });
    t.count("core.relations", relations.len() as f64);
    if relations.len() > mode.max_relations() {
        let stride = relations.len() / mode.max_relations() + 1;
        relations = relations.into_iter().step_by(stride).collect();
    }
    let patterns = t.span("autofocus.aggregate", |_| {
        autofocus::aggregate_patterns(&relations, &autofocus::PatternConfig::default(), &|id| {
            topology.nf(id).kind
        })
    });
    t.count("autofocus.relations_in", relations.len() as f64);
    t.count("autofocus.patterns_out", patterns.len() as f64);
    let _ = writeln!(
        out,
        "\n{} causal relations -> {} patterns; top {}:",
        relations.len(),
        patterns.len(),
        TOP.min(patterns.len())
    );
    for p in patterns.iter().take(TOP) {
        let _ = writeln!(out, "  {p}");
    }
}
