//! The NetMedic ranking: abnormality × strongest dependency path.

use crate::state::History;
use nf_types::{NfId, NodeId, Topology};

/// NetMedic configuration.
#[derive(Debug, Clone)]
pub struct NetMedicConfig {
    /// Correlation window length (the paper sweeps 1–100 ms; 10 ms is the
    /// best-performing value in §6.2).
    pub window_ns: u64,
}

impl Default for NetMedicConfig {
    fn default() -> Self {
        Self {
            window_ns: 10 * nf_types::MILLIS,
        }
    }
}

/// How many most-similar historical windows back each edge weight.
const SIMILAR_K: usize = 5;

/// One ranked culprit candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedComponent {
    /// The component (source or NF).
    pub node: NodeId,
    /// NetMedic score (higher = more likely culprit).
    pub score: f64,
}

/// The NetMedic diagnosis engine for one topology.
///
/// Component indexing convention: component `0` is the traffic source,
/// component `i + 1` is `NfId(i)`. Histories passed to
/// [`NetMedic::diagnose`] must follow it.
pub struct NetMedic {
    topology: Topology,
    cfg: NetMedicConfig,
}

impl NetMedic {
    /// Creates the engine.
    pub fn new(topology: Topology, cfg: NetMedicConfig) -> Self {
        Self { topology, cfg }
    }

    /// The configured window size.
    pub fn window_ns(&self) -> u64 {
        self.cfg.window_ns
    }

    /// Component index of a node.
    pub fn component_of(node: NodeId) -> usize {
        match node {
            NodeId::Source => 0,
            NodeId::Nf(id) => id.0 as usize + 1,
        }
    }

    /// Node of a component index.
    pub fn node_of(c: usize) -> NodeId {
        if c == 0 {
            NodeId::Source
        } else {
            NodeId::Nf(NfId((c - 1) as u16))
        }
    }

    /// Edge weight `src → dst` at window `w`: find the `SIMILAR_K`
    /// historical windows where `src` was most similar to its state at `w`,
    /// and average `dst`'s similarity between those windows and `w`.
    fn edge_weight(&self, hist: &History, src: usize, dst: usize, w: usize) -> f64 {
        let n = hist.windows();
        if n <= 1 {
            return 0.0;
        }
        let mut sims: Vec<(f64, usize)> = (0..n)
            .filter(|&h| h != w)
            .map(|h| (hist.similarity(src, h, w), h))
            .collect();
        sims.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite sims"));
        let k = SIMILAR_K.min(sims.len());
        if k == 0 {
            return 0.0;
        }
        // "When src looked like now, did dst look like now too?" — high
        // average similarity means src's state plausibly explains dst's.
        sims[..k]
            .iter()
            .map(|&(_, h)| hist.similarity(dst, h, w))
            .sum::<f64>()
            / k as f64
    }

    /// Ranks culprit components for a victim at NF `victim_nf` observed at
    /// time `victim_ts`.
    pub fn diagnose(
        &self,
        hist: &History,
        victim_nf: NfId,
        victim_ts: u64,
    ) -> Vec<RankedComponent> {
        let w = hist.window_of(victim_ts);
        let n_comp = hist.components();
        let victim_c = Self::component_of(NodeId::Nf(victim_nf));

        // Strongest dependency-path weight from every component to the
        // victim, via DP over the DAG (edges: source→entries, NF→NF).
        let mut path = vec![0.0f64; n_comp];
        if victim_c < n_comp {
            path[victim_c] = 1.0;
        }
        // Process NFs in reverse topological order so downstream values are
        // final before upstream reads them.
        for &nf in self.topology.topo_order().iter().rev() {
            let c = Self::component_of(NodeId::Nf(nf));
            if c >= n_comp {
                continue;
            }
            for &down in self.topology.downstream(nf) {
                let d = Self::component_of(NodeId::Nf(down));
                if d >= n_comp || path[d] <= 0.0 {
                    continue;
                }
                let wgt = self.edge_weight(hist, c, d, w) * path[d];
                if wgt > path[c] {
                    path[c] = wgt;
                }
            }
        }
        // Source.
        for &entry in self.topology.entries() {
            let e = Self::component_of(NodeId::Nf(entry));
            if e >= n_comp || path[e] <= 0.0 {
                continue;
            }
            let wgt = self.edge_weight(hist, 0, e, w) * path[e];
            if wgt > path[0] {
                path[0] = wgt;
            }
        }

        let mut ranked: Vec<RankedComponent> = (0..n_comp)
            .map(|c| RankedComponent {
                node: Self::node_of(c),
                score: hist.abnormality(c, w) * path[c],
            })
            .collect();
        ranked.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite scores"));
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{ComponentState, Metric};
    use nf_types::NfKind;

    /// source -> nat -> vpn chain, components [source, nat, vpn].
    fn topo() -> Topology {
        let mut b = Topology::builder();
        let a = b.add_nf(NfKind::Nat, "nat1");
        let v = b.add_nf(NfKind::Vpn, "vpn1");
        b.add_entry(a);
        b.add_edge(a, v);
        b.build().unwrap()
    }

    /// History where the NAT's CPU spikes in window 5 and the VPN's queue
    /// spikes in the SAME window (temporally correlated).
    fn correlated_history() -> History {
        let states = (0..10)
            .map(|w| {
                let nat_cpu = if w == 5 { 1.0 } else { 0.3 };
                let vpn_q = if w == 5 { 400.0 } else { 5.0 };
                vec![
                    ComponentState::default().with(Metric::OutputRate, 1000.0),
                    ComponentState::default()
                        .with(Metric::CpuUtil, nat_cpu)
                        .with(Metric::InputRate, 1000.0),
                    ComponentState::default()
                        .with(Metric::QueueLen, vpn_q)
                        .with(Metric::InputRate, 1000.0),
                ]
            })
            .collect();
        History::new(10_000_000, states)
    }

    #[test]
    fn correlated_upstream_abnormality_ranks_first() {
        let t = topo();
        let nm = NetMedic::new(t.clone(), NetMedicConfig::default());
        let hist = correlated_history();
        let vpn = t.by_name("vpn1").unwrap();
        // Victim in window 5 (t = 55 ms).
        let ranked = nm.diagnose(&hist, vpn, 55_000_000);
        assert_eq!(ranked.len(), 3);
        // NAT (abnormal + correlated) or VPN (abnormal itself) on top;
        // the source (quiet) must rank last.
        assert_ne!(ranked[0].node, NodeId::Source);
        assert_eq!(ranked[2].node, NodeId::Source);
        let nat_rank = ranked
            .iter()
            .position(|r| r.node == NodeId::Nf(NfId(0)))
            .unwrap();
        assert!(nat_rank <= 1, "NAT ranked {nat_rank}: {ranked:?}");
    }

    /// The failure mode the paper exploits: the NAT stalls in window 2 but
    /// the VPN's queue only spikes in window 5 (delayed impact) — with
    /// window-based correlation the NAT no longer looks abnormal *in the
    /// victim's window*, so NetMedic misses it.
    #[test]
    fn delayed_impact_defeats_time_correlation() {
        let t = topo();
        let nm = NetMedic::new(t.clone(), NetMedicConfig::default());
        let states = (0..10)
            .map(|w| {
                let nat_cpu = if w == 2 { 1.0 } else { 0.3 };
                let vpn_q = if w == 5 { 400.0 } else { 5.0 };
                vec![
                    ComponentState::default().with(Metric::OutputRate, 1000.0),
                    ComponentState::default().with(Metric::CpuUtil, nat_cpu),
                    ComponentState::default().with(Metric::QueueLen, vpn_q),
                ]
            })
            .collect();
        let hist = History::new(10_000_000, states);
        let vpn = t.by_name("vpn1").unwrap();
        let ranked = nm.diagnose(&hist, vpn, 55_000_000);
        // The true culprit (NAT) is NOT first — the victim NF blames itself.
        assert_ne!(ranked[0].node, NodeId::Nf(NfId(0)));
    }

    #[test]
    fn component_index_round_trip() {
        assert_eq!(NetMedic::component_of(NodeId::Source), 0);
        assert_eq!(NetMedic::component_of(NodeId::Nf(NfId(3))), 4);
        assert_eq!(NetMedic::node_of(0), NodeId::Source);
        assert_eq!(NetMedic::node_of(4), NodeId::Nf(NfId(3)));
    }

    #[test]
    fn every_component_gets_a_rank() {
        // §6.2: "NetMedic still gives it a rank because it gives every
        // possible culprit a rank".
        let t = topo();
        let nm = NetMedic::new(t.clone(), NetMedicConfig::default());
        let ranked = nm.diagnose(&correlated_history(), t.by_name("vpn1").unwrap(), 0);
        assert_eq!(ranked.len(), 3);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::state::{ComponentState, Metric};
    use nf_types::NfKind;

    fn diamond() -> Topology {
        // source -> a,b -> v : two parallel upstreams.
        let mut t = Topology::builder();
        let a = t.add_nf(NfKind::Nat, "a");
        let b = t.add_nf(NfKind::Nat, "b");
        let v = t.add_nf(NfKind::Vpn, "v");
        t.add_entry(a);
        t.add_entry(b);
        t.add_edge(a, v);
        t.add_edge(b, v);
        t.build().unwrap()
    }

    /// History where only component `hot` spikes in window `w`.
    fn spike(n_comp: usize, hot: usize, w: usize) -> History {
        let states = (0..10)
            .map(|win| {
                (0..n_comp)
                    .map(|c| {
                        let v = if c == hot && win == w { 1.0 } else { 0.2 };
                        ComponentState::default()
                            .with(Metric::CpuUtil, v)
                            .with(Metric::InputRate, 100.0)
                    })
                    .collect()
            })
            .collect();
        History::new(10_000_000, states)
    }

    #[test]
    fn abnormal_parallel_upstream_outranks_quiet_one() {
        let t = diamond();
        let nm = NetMedic::new(t.clone(), NetMedicConfig::default());
        // Component indices: 0 source, 1 a, 2 b, 3 v. Make `a` spike in the
        // victim's window.
        let hist = spike(4, 1, 6);
        let ranked = nm.diagnose(&hist, t.by_name("v").unwrap(), 65_000_000);
        let pos_a = ranked
            .iter()
            .position(|r| r.node == NodeId::Nf(NfId(0)))
            .unwrap();
        let pos_b = ranked
            .iter()
            .position(|r| r.node == NodeId::Nf(NfId(1)))
            .unwrap();
        assert!(pos_a < pos_b, "{ranked:?}");
    }

    #[test]
    fn disconnected_component_scores_zero() {
        // b has no path to a — diagnosing a victim at `a` must give b a
        // zero path weight.
        let mut t = Topology::builder();
        let a = t.add_nf(NfKind::Nat, "a");
        let _b = t.add_nf(NfKind::Nat, "b");
        t.add_entry(a);
        let topo = t.build().unwrap();
        let nm = NetMedic::new(topo, NetMedicConfig::default());
        let hist = spike(3, 2, 5); // b spikes
        let ranked = nm.diagnose(&hist, a, 55_000_000);
        let b_score = ranked
            .iter()
            .find(|r| r.node == NodeId::Nf(NfId(1)))
            .unwrap()
            .score;
        assert_eq!(b_score, 0.0);
    }

    #[test]
    fn window_size_changes_the_verdict() {
        // The same data at a larger window dilutes a short spike.
        let t = diamond();
        let hist_small = spike(4, 1, 6);
        let nm = NetMedic::new(
            t.clone(),
            NetMedicConfig {
                window_ns: 10_000_000,
            },
        );
        let r_small = nm.diagnose(&hist_small, t.by_name("v").unwrap(), 65_000_000);
        // Build the "same" signal averaged 5x (window 50 ms -> 2 windows).
        let states = (0..2)
            .map(|win| {
                (0..4)
                    .map(|c| {
                        let v = if c == 1 && win == 1 { 0.36 } else { 0.2 }; // 1.0 diluted 5:1
                        ComponentState::default().with(Metric::CpuUtil, v)
                    })
                    .collect()
            })
            .collect();
        let hist_big = History::new(50_000_000, states);
        let nm_big = NetMedic::new(
            t.clone(),
            NetMedicConfig {
                window_ns: 50_000_000,
            },
        );
        let r_big = nm_big.diagnose(&hist_big, t.by_name("v").unwrap(), 65_000_000);
        let score_small = r_small
            .iter()
            .find(|r| r.node == NodeId::Nf(NfId(0)))
            .unwrap()
            .score;
        let score_big = r_big
            .iter()
            .find(|r| r.node == NodeId::Nf(NfId(0)))
            .unwrap()
            .score;
        assert!(score_small >= score_big, "{score_small} vs {score_big}");
    }
}
