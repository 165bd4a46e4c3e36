//! Running in the wild (§6.5): the full 16-NF topology at high load, no
//! injected problems — just the natural noise of a busy software dataplane.
//! Microscope digests the latency tail into a handful of actionable causal
//! patterns.
//!
//! ```sh
//! cargo run --release --example wild_run
//! ```

use autofocus::{aggregate_patterns, PatternConfig};
use microscope::diagnoses_to_relations;
use msc_experiments::runner::wild_run;
use nf_types::{NodeId, MILLIS};

fn main() {
    let run = wild_run(400 * MILLIS, 2_000_000.0, 3, 0.99);

    println!(
        "wild run: {} packets offered, {} delivered, {} dropped",
        run.recon.report.total, run.recon.report.delivered, run.recon.report.inferred_drops
    );
    println!("diagnosing {} tail victims...", run.diagnoses.len());

    // Who causes the tail?
    let mut by_node: std::collections::HashMap<String, (f64, usize)> = Default::default();
    for d in &run.diagnoses {
        if let Some(top) = d.culprits.first() {
            let name = match top.node {
                NodeId::Source => "traffic source".into(),
                NodeId::Nf(id) => run.topology.nf(id).name.clone(),
            };
            let e = by_node.entry(name).or_default();
            e.0 += top.score;
            e.1 += 1;
        }
    }
    let mut ranked: Vec<(String, (f64, usize))> = by_node.into_iter().collect();
    ranked.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then_with(|| a.0.cmp(&b.0)));
    println!("\ntop culprit locations (by victims where they rank #1):");
    for (name, (score, victims)) in ranked.iter().take(8) {
        println!("  {name:>14}: {victims:>5} victims, blame mass {score:.0}");
    }

    // Aggregate to operator-facing patterns.
    let relations = diagnoses_to_relations(&run.recon, &run.diagnoses);
    let patterns = aggregate_patterns(&relations, &PatternConfig::default(), &run.kind_of());
    println!(
        "\n{} causal relations aggregated into {} patterns; top 5:",
        relations.len(),
        patterns.len()
    );
    for p in patterns.iter().take(5) {
        println!("  {p}");
    }

    // The paper's headline observation: a noticeable share of tail victims
    // are caused by a *different* NF than the one where they suffer.
    let propagated = run
        .diagnoses
        .iter()
        .filter(|d| {
            d.culprits
                .first()
                .is_some_and(|c| c.node != NodeId::Nf(d.victim.nf))
        })
        .count();
    println!(
        "\npropagated victims: {propagated} of {} ({:.1}%) — blaming the local NF alone would mislead",
        run.diagnoses.len(),
        propagated as f64 / run.diagnoses.len().max(1) as f64 * 100.0
    );
}
