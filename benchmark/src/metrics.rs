//! The metric tables: what BENCHMARK.json declares, in one place.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics with the share of the parent's value by which each
/// may worsen before a change counts as a regression. The bounds of
/// `wall_s`, `setup_s` and `peak_rss_mb` are what the spread between ten
/// seeds on this class of VM demands (README.md, "Noise"), not what
/// ISSUE 11 asked for (0.10, 0.25, 0.03). `culprit_recall` repeats
/// exactly and the least it can lose is one culprit of 24 (4.2 %), so 0.01
/// gates every loss, as a bound of 0 would; it is not 0 so that the
/// harness never has to rule on a spread of 0 against a bound of 0.
pub const END_TO_END: &[(MetricDef, f64)] = &[
    (lower("wall_s", "s"), 0.25),
    (lower("peak_rss_mb", "MB"), 0.15),
    (higher("culprit_recall", "share"), 0.01),
    (lower("setup_s", "s"), 0.25),
];

/// Per-layer metrics, none gated. README.md has the table of which
/// end-to-end metric each should move, on which workload.
pub const PER_LAYER: &[MetricDef] = &[
    lower("collector.load_ms", "ms"),
    lower("collector.bundle_mb", "MB"),
    lower("collector.read_chunks_ms", "ms"),
    higher("collector.chunks", "count"),
    lower("trace.reconstruct_ms", "ms"),
    lower("trace.streams_build_ms", "ms"),
    lower("trace.match_ms", "ms"),
    lower("trace.assemble_ms", "ms"),
    lower("trace.reconstruct_ns_per_pkt", "ns"),
    lower("trace.timelines_ms", "ms"),
    lower("trace.skew_estimate_ms", "ms"),
    lower("trace.skew_correct_ms", "ms"),
    higher("trace.packets", "count"),
    lower("trace.ambiguities", "count"),
    higher("trace.delivered_share", "share"),
    lower("stream.push_ms", "ms"),
    lower("stream.push_max_ms", "ms"),
    lower("stream.finish_ms", "ms"),
    higher("stream.kpps", "kpkt/s"),
    lower("stream.frontier_peak_mb", "MB"),
    higher("stream.committed_pre_finish_share", "share"),
    lower("core.victims_ms", "ms"),
    lower("core.diagnose_ms", "ms"),
    lower("core.us_per_victim", "us"),
    higher("core.victims", "count"),
    higher("core.cache_hit_rate", "share"),
    lower("core.relations_ms", "ms"),
    higher("core.relations", "count"),
    lower("autofocus.aggregate_ms", "ms"),
    lower("autofocus.us_per_relation", "us"),
    higher("autofocus.relations_in", "count"),
    lower("autofocus.patterns_out", "count"),
    lower("cli.wall_med_s", "s"),
    lower("cli.wall_max_s", "s"),
    lower("cli.cpu_user_s", "s"),
    lower("cli.cpu_sys_s", "s"),
    lower("cli.rss_bytes_per_pkt", "B"),
    lower("cli.stdout_bytes", "B"),
    lower("cli.unaccounted_share", "share"),
    lower("cli.failed_share", "share"),
    lower("sim.generate_s", "s"),
    higher("sim.packets", "count"),
    higher("bench.rounds", "count"),
    lower("bench.trace_overhead_share", "share"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::stats::valid_name;
    use crate::workload::WORKLOADS;

    #[test]
    fn names_are_unique_and_in_charset() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|(m, _)| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "a name is used twice");
        for (m, bound) in END_TO_END {
            assert!((0.0..=0.25).contains(bound), "{}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
    }

    /// BENCHMARK.json is written by hand; this keeps it equal to the tables.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();

        let declared: Vec<(String, String)> = v
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(declared, ours);
        for (_, why) in &ours {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }

        let e2e = v.get("end_to_end").unwrap().as_arr();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, (def, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(m, "name"), def.name);
            assert_eq!(field(m, "unit"), def.unit);
            assert_eq!(field(m, "better"), def.better.as_str());
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(*bound));
        }
        let layers = v.get("per_layer").unwrap().as_arr();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, def) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(m, "name"), def.name);
            assert_eq!(field(m, "unit"), def.unit);
            assert_eq!(field(m, "better"), def.better.as_str());
        }
        assert_eq!(
            v.get("run_seconds").and_then(Json::as_f64),
            Some(crate::bench::RUN_SECONDS)
        );
    }
}
