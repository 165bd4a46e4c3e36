//! §6.4: effectiveness of pattern aggregation, quantitatively.
//!
//! Paper: 84K packet-level causal relations aggregate to ~80 patterns in
//! about three minutes; the bug-triggering flows appear among the top
//! culprit patterns. We measure relation count, pattern count, aggregation
//! runtime and the compression ratio, and how the runtime scales with the
//! number of relations.

use autofocus::{aggregate_patterns, PatternConfig};
use microscope::diagnoses_to_relations;
use msc_experiments::cli::{write_csv, Args};
use msc_experiments::inject::{paper_bug_aggregate, paper_bug_flows, BugSpec, InjectionPlan};
use msc_experiments::runner::{run_spec, RunSpec};
use nf_types::{paper_topology, MICROS, MILLIS};
use std::time::Instant;

fn main() {
    let args = Args::parse(500, 1.2);
    let topo = paper_topology();
    let fw2 = topo.by_name("fw2").expect("fw2 exists");

    let mut spec = RunSpec::new(args.duration_ns(), args.rate_pps(), args.seed);
    spec.diagnosis.victims.max_victims = Some(4_000);
    spec.plan = InjectionPlan {
        bug: Some(BugSpec {
            nf: fw2,
            matches: paper_bug_aggregate(),
            per_packet_ns: 20 * MICROS,
            trigger_flows: paper_bug_flows(),
            period: 30 * MILLIS,
            flow_size: 100,
        }),
        ..Default::default()
    };
    let run = run_spec(&spec);
    let relations = diagnoses_to_relations(&run.recon, &run.diagnoses);

    // Sweep the aggregation threshold to show the report-size trade-off
    // (§4.4: "operators can adjust the aggregation threshold th").
    println!("# §6.4: pattern aggregation effectiveness");
    println!(
        "{:>12} {:>12} {:>12} {:>14} {:>12}",
        "threshold", "relations", "patterns", "compression", "runtime_ms"
    );
    let mut rows = Vec::new();
    for th in [0.005f64, 0.01, 0.02, 0.05] {
        let mut cfg = PatternConfig::default();
        cfg.cluster.threshold = th;
        let t0 = Instant::now();
        let patterns = aggregate_patterns(&relations, &cfg, &run.kind_of());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let compression = relations.len() as f64 / patterns.len().max(1) as f64;
        println!(
            "{:>12} {:>12} {:>12} {:>13.0}x {:>12.1}",
            th,
            relations.len(),
            patterns.len(),
            compression,
            ms
        );
        rows.push(vec![
            th.to_string(),
            relations.len().to_string(),
            patterns.len().to_string(),
            format!("{compression:.1}"),
            format!("{ms:.2}"),
        ]);
    }
    write_csv(
        &args.csv_path("sec64_aggregation.csv"),
        &[
            "threshold",
            "relations",
            "patterns",
            "compression",
            "runtime_ms",
        ],
        &rows,
    );

    println!("\n(paper: 84K relations -> 80 patterns at th=1%; ours scale with the shorter run)");

    // Scaling at th = 1%: the same relations stride-sampled the way the CLI
    // samples them, then unsampled. Exact aggregation should cost the same
    // per relation at every size.
    println!("\n# aggregation cost by input size (th = 1%, best of 3)");
    println!(
        "{:>12} {:>12} {:>12} {:>12} {:>14}",
        "sampled_to", "relations", "patterns", "runtime_ms", "us_per_relation"
    );
    let mut rows = Vec::new();
    let mut per_relation = Vec::new();
    for cap in [4_000usize, 8_000, 16_000, usize::MAX] {
        let stride = relations.len().div_ceil(cap).max(1);
        let sampled: Vec<_> = relations.iter().copied().step_by(stride).collect();
        // Best of three: the small inputs take a few milliseconds, which
        // one page-fault burst doubles.
        let mut ms = f64::INFINITY;
        let mut patterns = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            patterns = aggregate_patterns(&sampled, &PatternConfig::default(), &run.kind_of());
            ms = ms.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        let us = ms * 1e3 / sampled.len().max(1) as f64;
        per_relation.push(us);
        let label = if cap == usize::MAX {
            "all".to_string()
        } else {
            format!("<={cap}")
        };
        println!(
            "{:>12} {:>12} {:>12} {:>12.1} {:>14.2}",
            label,
            sampled.len(),
            patterns.len(),
            ms,
            us
        );
        rows.push(vec![
            label,
            sampled.len().to_string(),
            patterns.len().to_string(),
            format!("{ms:.2}"),
            format!("{us:.2}"),
        ]);
    }
    write_csv(
        &args.csv_path("sec64_scaling.csv"),
        &[
            "sampled_to",
            "relations",
            "patterns",
            "runtime_ms",
            "us_per_relation",
        ],
        &rows,
    );
    println!(
        "\n(us/relation, 16k / 4k: {:.2}x; all / 4k: {:.2}x)",
        per_relation[2] / per_relation[0],
        per_relation[3] / per_relation[0]
    );
}
