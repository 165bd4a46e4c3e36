//! The two-phase driver of `autofocus::pattern`, verbatim, over the
//! oracle's `aggregate_side` — so the end-to-end comparison covers the
//! phase-2 threshold scaling and the order in which groups feed it.

use super::cluster::aggregate_side;
use autofocus::cluster::{ClusterConfig, Location, SideAggregate, SideItem};
use autofocus::{merge_adjacent_port_patterns, CausalRelation, Pattern, PatternConfig};
use nf_types::{FiveTuple, NfId, NfKind};
use std::collections::HashMap;

/// Exact culprit key for phase-1 grouping.
type CulpritKey = (Option<FiveTuple>, Location);

/// Runs the two-phase aggregation.
pub fn aggregate_patterns(
    relations: &[CausalRelation],
    cfg: &PatternConfig,
    kind_of: &impl Fn(NfId) -> NfKind,
) -> Vec<Pattern> {
    if relations.is_empty() {
        return Vec::new();
    }

    // Phase 1: per exact culprit, aggregate the victim side. Groups are
    // kept in first-seen order (side index map), NOT HashMap iteration
    // order: group order decides the phase-2 item order and therefore every
    // downstream float accumulation and tie ordering — iterating the map
    // directly would leak the per-process hasher seed into the output.
    let mut group_idx: HashMap<CulpritKey, usize> = HashMap::new();
    let mut groups: Vec<(CulpritKey, Vec<SideItem>)> = Vec::new();
    for r in relations {
        let key = (r.culprit_flow, r.culprit_loc);
        let i = *group_idx.entry(key).or_insert_with(|| {
            groups.push((key, Vec::new()));
            groups.len() - 1
        });
        groups[i].1.push(SideItem {
            flow: r.victim_flow,
            loc: r.victim_loc,
            weight: r.score,
        });
    }
    // Intermediate: (victim aggregate) -> culprit-side items, again in
    // first-seen order.
    let mut victim_idx: HashMap<SideAggregate, usize> = HashMap::new();
    let mut by_victim: Vec<(SideAggregate, Vec<SideItem>)> = Vec::new();
    for ((c_flow, c_loc), victims) in groups {
        let aggs = aggregate_side(&victims, &cfg.cluster, kind_of);
        for (victim_agg, weight) in aggs {
            let i = *victim_idx.entry(victim_agg).or_insert_with(|| {
                by_victim.push((victim_agg, Vec::new()));
                by_victim.len() - 1
            });
            by_victim[i].1.push(SideItem {
                flow: c_flow,
                loc: c_loc,
                weight,
            });
        }
    }

    // Phase 2: per victim aggregate, aggregate the culprit side. The
    // threshold is applied against the global score mass so tiny victim
    // groups don't spawn patterns.
    // float: canonical-order(summed over the relations slice in input order)
    let total: f64 = relations.iter().map(|r| r.score).sum();
    let mut out: Vec<Pattern> = Vec::new();
    for (victim_agg, culprits) in by_victim {
        // float: canonical-order(summed over the per-victim Vec in insertion order)
        let group_total: f64 = culprits.iter().map(|c| c.weight).sum();
        // Scale the per-group threshold so that it corresponds to the
        // global `th * total` cut.
        let local_cfg = ClusterConfig {
            threshold: (cfg.cluster.threshold * total / group_total).min(1.0),
            ..cfg.cluster.clone()
        };
        for (culprit_agg, weight) in aggregate_side(&culprits, &local_cfg, kind_of) {
            if weight >= cfg.cluster.threshold * total {
                out.push(Pattern {
                    culprit: culprit_agg,
                    victim: victim_agg,
                    score: weight,
                });
            }
        }
    }
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("finite scores")
            .then_with(|| (a.culprit, a.victim).cmp(&(b.culprit, b.victim)))
    });
    if cfg.adaptive_ports {
        out = merge_adjacent_port_patterns(out, 16);
    }
    out
}
