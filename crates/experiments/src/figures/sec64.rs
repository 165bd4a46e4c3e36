//! §6.4: effectiveness of pattern aggregation, quantitatively.
//!
//! Paper: 84K packet-level causal relations aggregate to ~80 patterns in
//! about three minutes; the bug-triggering flows appear among the top
//! culprit patterns. We measure relation count, pattern count, aggregation
//! runtime and the compression ratio, and how the runtime scales with the
//! number of relations.

use super::{bug_run, Figure};
use crate::cli::Params;
use autofocus::{aggregate_patterns, PatternConfig};
use microscope::diagnoses_to_relations;
use nf_types::MILLIS;
use std::time::Instant;

pub(super) fn sec64(p: &Params) -> Figure {
    let mut fig = Figure::default();
    let (run, _) = bug_run(p, 30 * MILLIS, 4_000);
    let relations = diagnoses_to_relations(&run.recon, &run.diagnoses);

    // Sweep the aggregation threshold to show the report-size trade-off
    // (§4.4: "operators can adjust the aggregation threshold th").
    say!(fig, "# §6.4: pattern aggregation effectiveness");
    say!(
        fig,
        "   threshold    relations     patterns    compression   runtime_ms"
    );
    let mut csv = String::from("threshold,relations,patterns,compression,runtime_ms\n");
    let n = relations.len();
    for th in [0.005f64, 0.01, 0.02, 0.05] {
        let mut cfg = PatternConfig::default();
        cfg.cluster.threshold = th;
        let t0 = Instant::now();
        let patterns = aggregate_patterns(&relations, &cfg, &run.kind_of()).len();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let compression = n as f64 / patterns.max(1) as f64;
        say!(
            fig,
            "{th:>12} {n:>12} {patterns:>12} {compression:>13.0}x {ms:>12.1}"
        );
        say!(csv, "{th},{n},{patterns},{compression:.1},{ms:.2}");
    }
    fig.csvs.push(("sec64_aggregation.csv", csv));

    say!(
        fig,
        "\n(paper: 84K relations -> 80 patterns at th=1%; ours scale with the shorter run)"
    );

    // Scaling at th = 1%: the same relations stride-sampled the way the CLI
    // samples them, then unsampled. Exact aggregation should cost the same
    // per relation at every size.
    say!(
        fig,
        "\n# aggregation cost by input size (th = 1%, best of 3)"
    );
    say!(
        fig,
        "  sampled_to    relations     patterns   runtime_ms us_per_relation"
    );
    let mut csv = String::from("sampled_to,relations,patterns,runtime_ms,us_per_relation\n");
    let mut per_relation = Vec::new();
    for cap in [4_000usize, 8_000, 16_000, usize::MAX] {
        let sampled: Vec<_> = relations
            .iter()
            .copied()
            .step_by(n.div_ceil(cap).max(1))
            .collect();
        // Best of three: the small inputs take a few milliseconds, which
        // one page-fault burst doubles.
        let mut ms = f64::INFINITY;
        let mut patterns = 0;
        for _ in 0..3 {
            let t0 = Instant::now();
            patterns =
                aggregate_patterns(&sampled, &PatternConfig::default(), &run.kind_of()).len();
            ms = ms.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        let us = ms * 1e3 / sampled.len().max(1) as f64;
        per_relation.push(us);
        let label = if cap == usize::MAX {
            "all".to_string()
        } else {
            format!("<={cap}")
        };
        let m = sampled.len();
        say!(
            fig,
            "{label:>12} {m:>12} {patterns:>12} {ms:>12.1} {us:>14.2}"
        );
        say!(csv, "{label},{m},{patterns},{ms:.2},{us:.2}");
    }
    fig.csvs.push(("sec64_scaling.csv", csv));
    say!(
        fig,
        "\n(us/relation, 16k / 4k: {:.2}x; all / 4k: {:.2}x)",
        per_relation[2] / per_relation[0],
        per_relation[3] / per_relation[0]
    );
    fig
}
