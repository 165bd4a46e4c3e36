//! A PerfSight-style baseline (Wu et al., IMC 2015) for *persistent*
//! dataplane problems.
//!
//! The Microscope paper positions PerfSight as the tool for long-lived
//! bottlenecks: it instruments packet counters (input, output, drops) per
//! dataplane element and localises the element that persistently loses or
//! throttles traffic. It has no notion of queuing periods or propagation,
//! so transient tail problems are invisible to it — the contrast §8 draws
//! and the `baseline_perfsight` experiment demonstrates.

use nf_types::{Nanos, NfId, Topology};

/// The per-element counters PerfSight collects (a strict subset of what a
/// real dataplane exposes; the simulator's `NfStats` maps 1:1).
#[derive(Debug, Clone, Copy, Default)]
pub struct ElementCounters {
    /// Packets read and processed.
    pub processed: u64,
    /// Packets dropped at the element's input.
    pub dropped: u64,
    /// Busy time in nanoseconds.
    pub busy_ns: Nanos,
}

/// One diagnosed bottleneck.
#[derive(Debug, Clone, PartialEq)]
pub struct Bottleneck {
    /// The element.
    pub nf: NfId,
    /// Fraction of its offered packets it dropped.
    pub drop_rate: f64,
    /// Busy fraction over the observation window.
    pub utilisation: f64,
    /// Combined severity score used for ranking.
    pub score: f64,
}

/// Utilisation above which an element counts as a persistent bottleneck
/// even without drops.
const UTILISATION_THRESHOLD: f64 = 0.95;
/// Drop rate above which an element is flagged regardless of load.
const DROP_THRESHOLD: f64 = 1e-4;

/// The PerfSight-style analyser.
#[derive(Debug, Default)]
pub struct PerfSight;

impl PerfSight {
    /// Creates the analyser.
    pub fn new() -> Self {
        Self
    }

    /// Ranks elements by persistent-bottleneck severity from whole-run
    /// counters. Elements below both thresholds are not reported at all —
    /// faithfully modelling why transient problems slip through: averaged
    /// over the run, a 1 ms stall moves no counter visibly.
    pub fn diagnose(
        &self,
        _topology: &Topology,
        counters: &[ElementCounters],
        duration: Nanos,
    ) -> Vec<Bottleneck> {
        let mut out: Vec<Bottleneck> = counters
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let offered = c.processed + c.dropped;
                if offered == 0 {
                    return None;
                }
                let drop_rate = c.dropped as f64 / offered as f64;
                let utilisation = if duration == 0 {
                    0.0
                } else {
                    (c.busy_ns as f64 / duration as f64).min(1.0)
                };
                if drop_rate < DROP_THRESHOLD && utilisation < UTILISATION_THRESHOLD {
                    return None;
                }
                Some(Bottleneck {
                    nf: NfId(i as u16),
                    drop_rate,
                    utilisation,
                    // Drops dominate; utilisation breaks ties among
                    // saturated elements.
                    score: drop_rate * 1e3 + utilisation,
                })
            })
            .collect();
        out.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite scores"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_types::NfKind;

    fn topo3() -> Topology {
        let mut b = Topology::builder();
        let a = b.add_nf(NfKind::Nat, "nat1");
        let f = b.add_nf(NfKind::Firewall, "fw1");
        let v = b.add_nf(NfKind::Vpn, "vpn1");
        b.add_entry(a);
        b.add_edge(a, f);
        b.add_edge(f, v);
        b.build().unwrap()
    }

    #[test]
    fn persistent_overload_is_found() {
        let t = topo3();
        let counters = vec![
            ElementCounters {
                processed: 1_000_000,
                dropped: 0,
                busy_ns: 300_000_000,
            },
            ElementCounters {
                processed: 1_000_000,
                dropped: 0,
                busy_ns: 400_000_000,
            },
            // The VPN drops 10% and is pegged.
            ElementCounters {
                processed: 900_000,
                dropped: 100_000,
                busy_ns: 999_000_000,
            },
        ];
        let ps = PerfSight::new();
        let found = ps.diagnose(&t, &counters, 1_000_000_000);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].nf, NfId(2));
        assert!((found[0].drop_rate - 0.1).abs() < 1e-9);
        assert!(found[0].utilisation > 0.95);
    }

    #[test]
    fn transient_problem_is_invisible() {
        // A 1 ms interrupt in a 1 s run: utilisation barely moves, no
        // drops — PerfSight reports nothing (the paper's point).
        let t = topo3();
        let counters = vec![
            ElementCounters {
                processed: 1_000_000,
                dropped: 0,
                busy_ns: 301_000_000,
            },
            ElementCounters {
                processed: 1_000_000,
                dropped: 0,
                busy_ns: 400_000_000,
            },
            ElementCounters {
                processed: 1_000_000,
                dropped: 0,
                busy_ns: 790_000_000,
            },
        ];
        let ps = PerfSight::new();
        assert!(ps.diagnose(&t, &counters, 1_000_000_000).is_empty());
    }

    #[test]
    fn droppier_element_ranks_first() {
        let t = topo3();
        let counters = vec![
            ElementCounters {
                processed: 990_000,
                dropped: 10_000,
                busy_ns: 500_000_000,
            },
            ElementCounters {
                processed: 900_000,
                dropped: 100_000,
                busy_ns: 500_000_000,
            },
            ElementCounters {
                processed: 0,
                dropped: 0,
                busy_ns: 0,
            },
        ];
        let ps = PerfSight::new();
        let found = ps.diagnose(&t, &counters, 1_000_000_000);
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].nf, NfId(1));
        assert_eq!(found[1].nf, NfId(0));
    }

    #[test]
    fn idle_elements_are_skipped() {
        let t = topo3();
        let counters = vec![ElementCounters::default(); 3];
        let ps = PerfSight::new();
        assert!(ps.diagnose(&t, &counters, 1_000_000_000).is_empty());
    }
}
