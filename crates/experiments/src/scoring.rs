//! Accuracy scoring: the rank of the true (injected) culprit, §6.2.
//!
//! Each diagnosed victim is attributed to the injected event active shortly
//! before it (injections are spaced out precisely so this attribution is
//! unambiguous). The score of a tool on that victim is the 1-based rank of
//! the true culprit in the tool's ranked list; lower is better, rank 1 is a
//! correct diagnosis.

use microscope::{CulpritKind, Diagnosis};
use netmedic::{History, NetMedic};
use nf_sim::InjectedEvent;
use nf_types::{Interval, Nanos, NodeId, MILLIS};

/// One victim scored against ground truth.
#[derive(Debug, Clone)]
pub struct ScoredVictim {
    /// Index of the ground-truth event in the journal.
    event_idx: usize,
    /// Ground-truth event kind ("burst" / "interrupt" / "bug").
    pub(crate) event_kind: &'static str,
    /// Rank of the true culprit in Microscope's list (1 = top).
    pub microscope_rank: usize,
    /// Rank of the true culprit in NetMedic's list (1 = top).
    pub netmedic_rank: usize,
    /// Hops between the culprit node and the victim NF (0 = local), for
    /// the §6.3 propagation-distance analysis.
    pub(crate) hops: usize,
    /// Time gap between culprit activity and victim observation (Fig. 15).
    pub(crate) gap_ns: Nanos,
}

/// How long after an event ends its queues can still be hurting packets.
/// Fig. 15 shows gaps up to ~91 ms; 100 ms of slack covers it.
const INFLUENCE_SLACK: Nanos = 100 * MILLIS;

/// Attributes a victim to the injected event most plausibly responsible:
/// the latest event whose window started at or before the observation and
/// whose influence (window + slack) still covers it.
pub(crate) fn attribute_event(
    events: &[InjectedEvent],
    observed_ts: Nanos,
) -> Option<(usize, &InjectedEvent)> {
    events
        .iter()
        .enumerate()
        .filter(|(_, e)| {
            let w = e.window();
            w.start <= observed_ts && observed_ts <= w.end + INFLUENCE_SLACK
        })
        .max_by_key(|(_, e)| e.window().start)
}

/// Does a Microscope culprit entry name this event?
fn culprit_matches(
    event: &InjectedEvent,
    node: NodeId,
    kind: CulpritKind,
    window: Interval,
) -> bool {
    // Generous window check: culprit activity must overlap the event's
    // influence period.
    let ew = event.window();
    let influence = Interval::new(ew.start.saturating_sub(MILLIS), ew.end + INFLUENCE_SLACK);
    if !window.overlaps(&influence) {
        return false;
    }
    match event {
        InjectedEvent::Burst { .. } => node == NodeId::Source && kind == CulpritKind::SourceBurst,
        InjectedEvent::Interrupt { nf, .. } => {
            node == NodeId::Nf(*nf) && kind == CulpritKind::LocalProcessing
        }
        InjectedEvent::BugTrigger { nf, .. } => {
            node == NodeId::Nf(*nf) && kind == CulpritKind::LocalProcessing
        }
    }
}

/// Rank (1-based) of the true culprit in a Microscope diagnosis;
/// `list_len + 1` when absent.
pub(crate) fn microscope_rank(d: &Diagnosis, event: &InjectedEvent) -> usize {
    d.culprits
        .iter()
        .position(|c| culprit_matches(event, c.node, c.kind, c.window))
        .map_or(d.culprits.len() + 1, |p| p + 1)
}

/// Rank (1-based) of the true culprit node in a NetMedic ranking.
fn netmedic_rank(ranked: &[netmedic::RankedComponent], event: &InjectedEvent) -> usize {
    let want = event.culprit_node();
    ranked
        .iter()
        .position(|r| r.node == want)
        .map_or(ranked.len() + 1, |p| p + 1)
}

/// Hop distance in the NF DAG from the culprit node to the victim NF
/// (0 when the culprit *is* the victim NF; 1 for a direct upstream...).
pub(crate) fn hop_distance(
    topology: &nf_types::Topology,
    culprit: NodeId,
    victim: nf_types::NfId,
) -> usize {
    // BFS upstream from the victim.
    use std::collections::VecDeque;
    let mut dist = vec![usize::MAX; topology.len() + 1];
    let idx = |n: NodeId| match n {
        NodeId::Source => topology.len(),
        NodeId::Nf(id) => id.0 as usize,
    };
    let mut q = VecDeque::new();
    dist[victim.0 as usize] = 0;
    q.push_back(NodeId::Nf(victim));
    while let Some(n) = q.pop_front() {
        let d = dist[idx(n)];
        if let NodeId::Nf(nf) = n {
            for up in topology.upstream_nodes(nf) {
                if dist[idx(up)] == usize::MAX {
                    dist[idx(up)] = d + 1;
                    q.push_back(up);
                }
            }
        }
    }
    dist[idx(culprit)]
}

/// Scores every diagnosed victim of a run on `topology` against the
/// journaled ground truth `events` with both tools. Victims not attributable
/// to any injected event are skipped (natural noise; the paper's §6.2 counts
/// only injected problems).
pub fn score_run(
    topology: &nf_types::Topology,
    events: &[InjectedEvent],
    diagnoses: &[Diagnosis],
    nm: &NetMedic,
    hist: &History,
) -> Vec<ScoredVictim> {
    let mut out = Vec::new();
    for d in diagnoses {
        let Some((event_idx, event)) = attribute_event(events, d.victim.observed_ts) else {
            continue;
        };
        let nm_ranked = nm.diagnose(hist, d.victim.nf, d.victim.observed_ts);
        let gap = d.victim.observed_ts.saturating_sub(event.window().start);
        out.push(ScoredVictim {
            event_idx,
            event_kind: event.kind_str(),
            microscope_rank: microscope_rank(d, event),
            netmedic_rank: netmedic_rank(&nm_ranked, event),
            hops: hop_distance(topology, event.culprit_node(), d.victim.nf),
            gap_ns: gap,
        });
    }
    out
}

/// Caps the number of scored victims per injected event so one flood-type
/// event (bursts create orders of magnitude more victims than interrupts)
/// does not drown the others in the overall accuracy figures. Victims of
/// each event are evenly subsampled over time.
pub(crate) fn balance_by_event(scored: &[ScoredVictim], per_event: usize) -> Vec<ScoredVictim> {
    use std::collections::BTreeMap;
    let mut by_event: BTreeMap<usize, Vec<&ScoredVictim>> = BTreeMap::new();
    for s in scored {
        by_event.entry(s.event_idx).or_default().push(s);
    }
    let mut out = Vec::new();
    for (_, group) in by_event {
        if group.len() <= per_event {
            out.extend(group.into_iter().cloned());
        } else {
            let stride = group.len() as f64 / per_event as f64;
            for i in 0..per_event {
                out.push(group[(i as f64 * stride) as usize].clone());
            }
        }
    }
    out
}

/// The Fig. 11 CDF: sorted ranks, reported as (cumulative % of victims,
/// rank at that percentile).
pub(crate) fn rank_cdf(ranks: &[usize]) -> Vec<(f64, usize)> {
    let mut sorted: Vec<usize> = ranks.to_vec();
    sorted.sort_unstable();
    sorted
        .iter()
        .enumerate()
        .map(|(i, &r)| ((i + 1) as f64 / sorted.len() as f64 * 100.0, r))
        .collect()
}

/// Fraction of ranks equal to 1 (the "correct rate" of Fig. 13).
pub fn correct_rate(ranks: &[usize]) -> f64 {
    if ranks.is_empty() {
        return 0.0;
    }
    ranks.iter().filter(|&&r| r == 1).count() as f64 / ranks.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_types::{paper_topology, NfId};

    #[test]
    fn attribute_picks_latest_covering_event() {
        let events = vec![
            InjectedEvent::Interrupt {
                nf: NfId(0),
                window: Interval::new(10 * MILLIS, 11 * MILLIS),
            },
            InjectedEvent::Interrupt {
                nf: NfId(1),
                window: Interval::new(50 * MILLIS, 51 * MILLIS),
            },
        ];
        let (i, _) = attribute_event(&events, 55 * MILLIS).unwrap();
        assert_eq!(i, 1);
        let (i, _) = attribute_event(&events, 20 * MILLIS).unwrap();
        assert_eq!(i, 0);
        // Before everything: none.
        assert!(attribute_event(&events, MILLIS).is_none());
    }

    #[test]
    fn hop_distance_on_paper_topology() {
        let t = paper_topology();
        let nat1 = t.by_name("nat1").unwrap();
        let fw1 = t.by_name("fw1").unwrap();
        let vpn1 = t.by_name("vpn1").unwrap();
        assert_eq!(hop_distance(&t, NodeId::Nf(vpn1), vpn1), 0);
        assert_eq!(hop_distance(&t, NodeId::Nf(fw1), vpn1), 1);
        assert_eq!(hop_distance(&t, NodeId::Nf(nat1), vpn1), 2);
        assert_eq!(hop_distance(&t, NodeId::Source, vpn1), 3);
        assert_eq!(hop_distance(&t, NodeId::Nf(vpn1), nat1), usize::MAX);
    }

    #[test]
    fn cdf_and_correct_rate() {
        let ranks = vec![1, 1, 1, 2, 5];
        let cdf = rank_cdf(&ranks);
        assert_eq!(cdf.len(), 5);
        assert!((cdf[2].0 - 60.0).abs() < 1e-9);
        assert_eq!(cdf[2].1, 1);
        assert_eq!(cdf[4].1, 5);
        assert!((correct_rate(&ranks) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn empty_ranks() {
        assert!(rank_cdf(&[]).is_empty());
        assert_eq!(correct_rate(&[]), 0.0);
    }
}
