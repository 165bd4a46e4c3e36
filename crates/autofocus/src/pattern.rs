//! The two-phase causal-pattern aggregation of §4.4.
//!
//! Input: packet-level causal relations
//! `<culprit flow?, culprit location> → <victim flow?, victim location>:
//! score`. Output: a short ranked list of [`Pattern`]s.
//!
//! Running AutoFocus over all twelve dimensions at once would be hopeless;
//! the paper's observation is that a culprit affects a limited set of
//! victims and vice versa, so the aggregation decouples: (1) group relations
//! by exact culprit and aggregate the *victim* side within each group;
//! (2) group the intermediate results by victim aggregate and aggregate the
//! *culprit* side across groups.

use crate::cluster::{aggregate_side, ClusterConfig, Location, SideAggregate, SideItem};
use nf_types::{FiveTuple, NfId, NfKind, PortRange};
use std::collections::HashMap;
use std::fmt;

/// One packet-level causal relation from the diagnosis core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CausalRelation {
    /// Culprit flow (None when the culprit is an NF-level event with no
    /// specific flow attached).
    pub culprit_flow: Option<FiveTuple>,
    /// Culprit location.
    pub culprit_loc: Location,
    /// Victim flow (None for victims whose flow could not be resolved).
    pub victim_flow: Option<FiveTuple>,
    /// Victim location.
    pub victim_loc: Location,
    /// Score mass (the paper's per-relation score; packets' worth of blame).
    pub score: f64,
}

/// One aggregated causal pattern: the Fig. 14 row format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pattern {
    /// Culprit side.
    pub culprit: SideAggregate,
    /// Victim side.
    pub victim: SideAggregate,
    /// Total claimed score.
    pub score: f64,
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} => {} {} : {:.1}",
            self.culprit.flow, self.culprit.loc, self.victim.flow, self.victim.loc, self.score
        )
    }
}

/// Pattern-aggregation parameters.
#[derive(Debug, Clone, Default)]
pub struct PatternConfig {
    /// Side-clustering parameters (threshold `th` etc.).
    pub cluster: ClusterConfig,
    /// Post-merge adjacent exact-port patterns into ranges (the adaptive
    /// port optimisation the paper suggests for Fig. 14).
    pub adaptive_ports: bool,
}

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
            .total_cmp(&a.score)
            .then_with(|| (a.culprit, a.victim).cmp(&(b.culprit, b.victim)))
    });
    if cfg.adaptive_ports {
        out = merge_adjacent_port_patterns(out, 16);
    }
    out
}

/// Merges patterns that are identical except for nearby exact culprit port
/// values into single range patterns — e.g. the paper's bug-trigger flows
/// `sport 2000-2008 / dport 6000-6008`, which the static hierarchy reports
/// as nine separate rows.
pub fn merge_adjacent_port_patterns(patterns: Vec<Pattern>, max_gap: u16) -> Vec<Pattern> {
    // Group key: everything except the culprit ports.
    #[derive(PartialEq, Eq, Hash)]
    struct Key {
        c_src: nf_types::Prefix,
        c_dst: nf_types::Prefix,
        c_proto: nf_types::ProtoMatch,
        c_loc: crate::cluster::LocationAgg,
        victim: SideAggregate,
    }
    // First-seen group order (index map), for the same reason as in
    // aggregate_patterns: map iteration order would randomise the relative
    // order of equal-score merged patterns.
    let mut grouped_idx: HashMap<Key, usize> = HashMap::new();
    let mut grouped: Vec<Vec<Pattern>> = Vec::new();
    let mut passthrough: Vec<Pattern> = Vec::new();
    for p in patterns {
        if p.culprit.flow.src_port.is_exact() || p.culprit.flow.dst_port.is_exact() {
            let key = Key {
                c_src: p.culprit.flow.src,
                c_dst: p.culprit.flow.dst,
                c_proto: p.culprit.flow.proto,
                c_loc: p.culprit.loc,
                victim: p.victim,
            };
            let i = *grouped_idx.entry(key).or_insert_with(|| {
                grouped.push(Vec::new());
                grouped.len() - 1
            });
            grouped[i].push(p);
        } else {
            passthrough.push(p);
        }
    }

    for mut group in grouped {
        group.sort_by_key(|p| (p.culprit.flow.src_port.lo, p.culprit.flow.dst_port.lo));
        let mut merged: Vec<Pattern> = Vec::new();
        for p in group {
            match merged.last_mut() {
                Some(last)
                    if p.culprit.flow.src_port.lo
                        <= last.culprit.flow.src_port.hi.saturating_add(max_gap)
                        && p.culprit.flow.dst_port.lo
                            <= last.culprit.flow.dst_port.hi.saturating_add(max_gap) =>
                {
                    last.culprit.flow.src_port = PortRange::new(
                        last.culprit
                            .flow
                            .src_port
                            .lo
                            .min(p.culprit.flow.src_port.lo),
                        last.culprit
                            .flow
                            .src_port
                            .hi
                            .max(p.culprit.flow.src_port.hi),
                    );
                    last.culprit.flow.dst_port = PortRange::new(
                        last.culprit
                            .flow
                            .dst_port
                            .lo
                            .min(p.culprit.flow.dst_port.lo),
                        last.culprit
                            .flow
                            .dst_port
                            .hi
                            .max(p.culprit.flow.dst_port.hi),
                    );
                    // float: canonical-order(merge walks patterns sorted by port range)
                    last.score += p.score;
                }
                _ => merged.push(p),
            }
        }
        passthrough.extend(merged);
    }
    passthrough.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| (a.culprit, a.victim).cmp(&(b.culprit, b.victim)))
    });
    passthrough
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::LocationAgg;
    use nf_types::{parse_ip, Proto};

    fn kind_of(id: NfId) -> NfKind {
        match id.0 {
            0..=3 => NfKind::Nat,
            4..=8 => NfKind::Firewall,
            _ => NfKind::Vpn,
        }
    }

    fn bug_flow(sport: u16, dport: u16) -> FiveTuple {
        FiveTuple::new(
            parse_ip("100.0.0.1").unwrap(),
            parse_ip("32.0.0.1").unwrap(),
            sport,
            dport,
            Proto::TCP,
        )
    }

    fn victim_flow(i: u16) -> FiveTuple {
        FiveTuple::new(
            parse_ip("100.0.0.1").unwrap(),
            parse_ip("1.2.3.4").unwrap(),
            10_000 + i,
            443,
            Proto::TCP,
        )
    }

    /// The §6.4 scenario in miniature: bug-trigger flows at fw2 (NfId 5)
    /// hurt many victim flows at fw2.
    fn bug_relations() -> Vec<CausalRelation> {
        let mut rels = Vec::new();
        for k in 0..5u16 {
            for v in 0..20u16 {
                rels.push(CausalRelation {
                    culprit_flow: Some(bug_flow(2000 + k, 6000 + k)),
                    culprit_loc: Location::Nf(NfId(5)),
                    victim_flow: Some(victim_flow(v)),
                    victim_loc: Location::Nf(NfId(5)),
                    score: 3.0,
                });
            }
        }
        // Background noise.
        for v in 0..30u16 {
            rels.push(CausalRelation {
                culprit_flow: None,
                culprit_loc: Location::Source,
                victim_flow: Some(victim_flow(100 + v)),
                victim_loc: Location::Nf(NfId(9)),
                score: 0.2,
            });
        }
        rels
    }

    #[test]
    fn bug_trigger_flows_surface_as_top_patterns() {
        let pats = aggregate_patterns(&bug_relations(), &PatternConfig::default(), &kind_of);
        assert!(!pats.is_empty());
        // Top patterns blame the bug flows at fw2 (NfId 5).
        let top = &pats[0];
        assert_eq!(top.culprit.loc, LocationAgg::Exact(Location::Nf(NfId(5))));
        assert!(
            top.culprit.flow.matches(&bug_flow(2000, 6000))
                || top.culprit.flow.matches(&bug_flow(2004, 6004)),
            "top culprit {:?}",
            top.culprit.flow
        );
        // Aggregation is concise: 100 bug relations + 30 noise collapse to
        // a handful of patterns.
        assert!(pats.len() < 30, "{} patterns", pats.len());
    }

    #[test]
    fn scores_roughly_conserved() {
        let rels = bug_relations();
        let total: f64 = rels.iter().map(|r| r.score).sum();
        let pats = aggregate_patterns(&rels, &PatternConfig::default(), &kind_of);
        let sum: f64 = pats.iter().map(|p| p.score).sum();
        // Patterns below the global threshold are suppressed, so the sum can
        // be below the total, but most of the mass must be covered.
        assert!(sum <= total + 1e-6);
        assert!(sum > 0.8 * total, "covered {sum} of {total}");
    }

    #[test]
    fn adaptive_ports_merge_the_fig14_rows() {
        let cfg = PatternConfig {
            adaptive_ports: true,
            ..Default::default()
        };
        let pats = aggregate_patterns(&bug_relations(), &cfg, &kind_of);
        // The 5 per-port patterns merge into one ranged pattern.
        let ranged: Vec<&Pattern> = pats
            .iter()
            .filter(|p| {
                p.culprit.flow.src_port.covers(&PortRange::new(2000, 2004))
                    && p.culprit.flow.dst_port.covers(&PortRange::new(6000, 6004))
            })
            .collect();
        assert!(
            !ranged.is_empty(),
            "expected a merged port-range pattern: {pats:?}"
        );
    }

    #[test]
    fn merge_respects_gap() {
        let mk = |sport: u16, score: f64| Pattern {
            culprit: SideAggregate {
                flow: nf_types::FlowAggregate::exact(&bug_flow(sport, 6000)),
                loc: LocationAgg::Exact(Location::Nf(NfId(5))),
            },
            victim: SideAggregate {
                flow: nf_types::FlowAggregate::ANY,
                loc: LocationAgg::Any,
            },
            score,
        };
        // 2000 and 2004 merge (gap 16), 40000 does not.
        let merged =
            merge_adjacent_port_patterns(vec![mk(2000, 1.0), mk(2004, 1.0), mk(40_000, 1.0)], 16);
        assert_eq!(merged.len(), 2);
        let big = merged
            .iter()
            .find(|p| p.culprit.flow.src_port.contains(2000))
            .unwrap();
        assert!(big.culprit.flow.src_port.contains(2004));
        assert!((big.score - 2.0).abs() < 1e-9);
    }

    #[test]
    fn nan_scored_pattern_is_ranked_not_a_panic() {
        let mk = |sport: u16, score: f64| Pattern {
            culprit: SideAggregate {
                flow: nf_types::FlowAggregate::exact(&bug_flow(sport, 6000)),
                loc: LocationAgg::Exact(Location::Nf(NfId(5))),
            },
            victim: SideAggregate {
                flow: nf_types::FlowAggregate::ANY,
                loc: LocationAgg::Any,
            },
            score,
        };
        let merged = merge_adjacent_port_patterns(
            vec![mk(2000, 1.0), mk(40_000, f64::NAN), mk(9000, 2.0)],
            16,
        );
        assert_eq!(merged.len(), 3);
        // `total_cmp` ranks NaN above every number; the rest keep their order.
        assert!(merged[0].score.is_nan());
        assert_eq!((merged[1].score, merged[2].score), (2.0, 1.0));
    }

    #[test]
    fn empty_relations() {
        assert!(aggregate_patterns(&[], &PatternConfig::default(), &kind_of).is_empty());
    }

    #[test]
    fn pattern_display_is_fig14_like() {
        let p = Pattern {
            culprit: SideAggregate {
                flow: nf_types::FlowAggregate::exact(&bug_flow(2004, 6004)),
                loc: LocationAgg::Exact(Location::Nf(NfId(5))),
            },
            victim: SideAggregate {
                flow: nf_types::FlowAggregate::ANY,
                loc: LocationAgg::Exact(Location::Nf(NfId(5))),
            },
            score: 12.5,
        };
        let s = p.to_string();
        assert!(s.contains("100.0.0.1/32"));
        assert!(s.contains("=>"));
        assert!(s.contains("nf5"));
    }
}
