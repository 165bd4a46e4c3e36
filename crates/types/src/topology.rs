//! The NF DAG: which NF instances exist and who feeds whom.
//!
//! The topology is shared by the simulator (to route packets), the trace
//! reconstruction (the path side channel of §5) and the diagnosis core
//! (upstream walks in the propagation analysis of §4.2). Nodes are NF
//! instances; the traffic source is an implicit extra node that feeds every
//! entry NF.

use crate::nf::{NfId, NfKind, NodeId};
use std::collections::BTreeSet;
use std::fmt;

/// Errors from [`TopologyBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// An edge referenced an NF id that was never added.
    UnknownNf(NfId),
    /// A self-loop or duplicate edge was added.
    BadEdge(NfId, NfId),
    /// The directed graph has a cycle (the system requires a DAG).
    Cycle,
    /// Two NFs share a name; names must be unique for reporting.
    DuplicateName(String),
    /// No NF is fed by the traffic source ([`Topology::entry_for`] needs
    /// one to send a flow to).
    NoEntry,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownNf(id) => write!(f, "edge references unknown NF {id}"),
            TopologyError::BadEdge(a, b) => write!(f, "bad edge {a} -> {b}"),
            TopologyError::Cycle => write!(f, "topology contains a cycle"),
            TopologyError::DuplicateName(n) => write!(f, "duplicate NF name {n:?}"),
            TopologyError::NoEntry => write!(f, "no entry NF"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Static description of one NF instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NfInfo {
    /// Dense instance id.
    pub id: NfId,
    /// The NF type.
    pub kind: NfKind,
    /// Unique human-readable name (`"nat1"`, `"fw2"`, ...).
    pub name: String,
}

/// An immutable, validated DAG of NF instances.
#[derive(Debug, Clone)]
pub struct Topology {
    nfs: Vec<NfInfo>,
    /// `downstream[i]` = NFs fed by NF i.
    downstream: Vec<Vec<NfId>>,
    /// `upstream[i]` = NFs feeding NF i.
    upstream: Vec<Vec<NfId>>,
    /// NFs fed directly by the traffic source.
    entries: Vec<NfId>,
    /// NFs with no downstream (traffic exits here).
    exits: Vec<NfId>,
    /// Topological order over NF ids.
    topo_order: Vec<NfId>,
}

impl Topology {
    /// Starts building a topology.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// Number of NF instances.
    pub fn len(&self) -> usize {
        self.nfs.len()
    }

    /// True if the topology has no NFs.
    pub fn is_empty(&self) -> bool {
        self.nfs.is_empty()
    }

    /// Info for an NF id. Panics on out-of-range ids (they cannot be created
    /// legitimately).
    pub fn nf(&self, id: NfId) -> &NfInfo {
        &self.nfs[id.0 as usize]
    }

    /// All NFs in id order.
    pub fn nfs(&self) -> &[NfInfo] {
        &self.nfs
    }

    /// Looks an NF up by name.
    pub fn by_name(&self, name: &str) -> Option<NfId> {
        self.nfs.iter().find(|n| n.name == name).map(|n| n.id)
    }

    /// NFs directly downstream of `id`.
    pub fn downstream(&self, id: NfId) -> &[NfId] {
        &self.downstream[id.0 as usize]
    }

    /// NFs directly upstream of `id` (not including the source).
    pub fn upstream(&self, id: NfId) -> &[NfId] {
        &self.upstream[id.0 as usize]
    }

    /// Upstream *nodes* of `id`: its upstream NFs, plus the source if `id` is
    /// an entry NF. This is the neighbourhood the propagation analysis walks.
    pub fn upstream_nodes(&self, id: NfId) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.upstream(id).iter().map(|&u| u.into()).collect();
        if self.entries.contains(&id) {
            nodes.push(NodeId::Source);
        }
        nodes
    }

    /// Entry NFs (fed by the source).
    pub fn entries(&self) -> &[NfId] {
        &self.entries
    }

    /// Exit NFs (no downstream; the collector records five-tuples here).
    pub fn exits(&self) -> &[NfId] {
        &self.exits
    }

    /// A topological order (upstream before downstream).
    pub fn topo_order(&self) -> &[NfId] {
        &self.topo_order
    }

    /// Is `a` an ancestor of (or equal to) `b` in the DAG?
    pub fn reaches(&self, a: NfId, b: NfId) -> bool {
        if a == b {
            return true;
        }
        let mut seen = BTreeSet::new();
        let mut stack = vec![a];
        while let Some(n) = stack.pop() {
            for &d in self.downstream(n) {
                if d == b {
                    return true;
                }
                if seen.insert(d) {
                    stack.push(d);
                }
            }
        }
        false
    }

    /// The entry NF the flow-level load balancer sends `flow` to (§6.1:
    /// "Incoming traffic is load balanced at flow level based on the hash of
    /// packet header fields"). Both the simulator and the offline trace
    /// reconstruction use this one definition — the LB configuration is
    /// operator-known, which is what makes the path side channel of §5 work
    /// at the source hop.
    pub fn entry_for(&self, flow: &crate::flow::FiveTuple) -> NfId {
        assert!(!self.entries.is_empty(), "topology has no entry NFs");
        self.entries[(flow.stable_hash() % self.entries.len() as u64) as usize]
    }

    /// Sum over all NFs of their upstream-NF count — the paper's theoretical
    /// bound on the number of recursions (§5, "Offline diagnosis").
    pub fn recursion_bound(&self) -> usize {
        self.upstream.iter().map(|u| u.len()).sum::<usize>() + self.entries.len()
    }
}

/// Builder for [`Topology`]. Add NFs, then edges, then [`build`].
///
/// [`build`]: TopologyBuilder::build
#[derive(Default)]
pub struct TopologyBuilder {
    nfs: Vec<NfInfo>,
    edges: Vec<(NfId, NfId)>,
    entries: Vec<NfId>,
}

impl TopologyBuilder {
    /// Adds an NF instance and returns its id.
    pub fn add_nf(&mut self, kind: NfKind, name: impl Into<String>) -> NfId {
        // lint: lossy-cast-ok(topologies hold tens of NFs; NfId is u16 by wire-format design)
        let id = NfId(self.nfs.len() as u16);
        self.nfs.push(NfInfo {
            id,
            kind,
            name: name.into(),
        });
        id
    }

    /// Declares that the traffic source feeds `nf` directly.
    pub fn add_entry(&mut self, nf: NfId) -> &mut Self {
        if !self.entries.contains(&nf) {
            self.entries.push(nf);
        }
        self
    }

    /// Adds a directed edge `from -> to`.
    pub fn add_edge(&mut self, from: NfId, to: NfId) -> &mut Self {
        self.edges.push((from, to));
        self
    }

    /// Validates and freezes the topology.
    pub fn build(self) -> Result<Topology, TopologyError> {
        let n = self.nfs.len();
        let valid = |id: NfId| (id.0 as usize) < n;

        let mut names = BTreeSet::new();
        for nf in &self.nfs {
            if !names.insert(nf.name.clone()) {
                return Err(TopologyError::DuplicateName(nf.name.clone()));
            }
        }

        let mut downstream = vec![Vec::new(); n];
        let mut upstream = vec![Vec::new(); n];
        for &(a, b) in &self.edges {
            if !valid(a) {
                return Err(TopologyError::UnknownNf(a));
            }
            if !valid(b) {
                return Err(TopologyError::UnknownNf(b));
            }
            if a == b || downstream[a.0 as usize].contains(&b) {
                return Err(TopologyError::BadEdge(a, b));
            }
            downstream[a.0 as usize].push(b);
            upstream[b.0 as usize].push(a);
        }
        for e in &self.entries {
            if !valid(*e) {
                return Err(TopologyError::UnknownNf(*e));
            }
        }

        // Kahn's algorithm; nodes it never reaches sit on a cycle.
        let mut indeg: Vec<usize> = upstream.iter().map(|u| u.len()).collect();
        let mut queue: Vec<NfId> = (0..n as u16)
            .map(NfId)
            .filter(|i| indeg[i.0 as usize] == 0)
            .collect();
        let mut ordered = 0;
        while let Some(id) = queue.pop() {
            ordered += 1;
            for &d in &downstream[id.0 as usize] {
                indeg[d.0 as usize] -= 1;
                if indeg[d.0 as usize] == 0 {
                    queue.push(d);
                }
            }
        }
        if ordered != n {
            return Err(TopologyError::Cycle);
        }
        if self.entries.is_empty() {
            return Err(TopologyError::NoEntry);
        }
        // A deterministic topological order: longest distance from a root
        // (by relaxation), then id.
        let mut level = vec![0usize; n];
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                for &d in &downstream[i] {
                    if level[d.0 as usize] < level[i] + 1 {
                        level[d.0 as usize] = level[i] + 1;
                        changed = true;
                    }
                }
            }
        }
        let mut topo_order: Vec<NfId> = (0..n as u16).map(NfId).collect();
        topo_order.sort_by_key(|id| (level[id.0 as usize], id.0));

        let exits: Vec<NfId> = (0..n as u16)
            .map(NfId)
            .filter(|id| downstream[id.0 as usize].is_empty())
            .collect();

        Ok(Topology {
            nfs: self.nfs,
            downstream,
            upstream,
            entries: self.entries,
            exits,
            topo_order,
        })
    }
}

/// Builds the paper's evaluation topology (Fig. 10): 4 NATs, 5 Firewalls,
/// 3 Monitors and 4 VPNs — 16 NF instances. Traffic is load-balanced over the
/// NATs; every NAT feeds every Firewall; Firewalls send rule-matched flows to
/// the Monitors and the rest to the VPNs; Monitors feed the VPNs.
#[allow(
    clippy::expect_used,
    reason = "the builder is fed a constant, not input; every test that calls this would fail"
)]
pub fn paper_topology() -> Topology {
    let mut b = Topology::builder();
    let nats: Vec<NfId> = (1..=4)
        .map(|i| b.add_nf(NfKind::Nat, format!("nat{i}")))
        .collect();
    let fws: Vec<NfId> = (1..=5)
        .map(|i| b.add_nf(NfKind::Firewall, format!("fw{i}")))
        .collect();
    let mons: Vec<NfId> = (1..=3)
        .map(|i| b.add_nf(NfKind::Monitor, format!("mon{i}")))
        .collect();
    let vpns: Vec<NfId> = (1..=4)
        .map(|i| b.add_nf(NfKind::Vpn, format!("vpn{i}")))
        .collect();
    for &n in &nats {
        b.add_entry(n);
        for &f in &fws {
            b.add_edge(n, f);
        }
    }
    for &f in &fws {
        for &m in &mons {
            b.add_edge(f, m);
        }
        for &v in &vpns {
            b.add_edge(f, v);
        }
    }
    for &m in &mons {
        for &v in &vpns {
            b.add_edge(m, v);
        }
    }
    b.build().expect("paper topology is a valid DAG")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain3() -> Topology {
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
    fn chain_structure() {
        let t = chain3();
        assert_eq!(t.len(), 3);
        assert_eq!(t.entries(), &[NfId(0)]);
        assert_eq!(t.exits(), &[NfId(2)]);
        assert_eq!(t.downstream(NfId(0)), &[NfId(1)]);
        assert_eq!(t.upstream(NfId(2)), &[NfId(1)]);
        assert_eq!(t.topo_order(), &[NfId(0), NfId(1), NfId(2)]);
    }

    #[test]
    fn upstream_nodes_include_source_at_entry() {
        let t = chain3();
        assert_eq!(t.upstream_nodes(NfId(0)), vec![NodeId::Source]);
        assert_eq!(t.upstream_nodes(NfId(1)), vec![NodeId::Nf(NfId(0))]);
    }

    #[test]
    fn reaches_is_transitive_and_directed() {
        let t = chain3();
        assert!(t.reaches(NfId(0), NfId(2)));
        assert!(!t.reaches(NfId(2), NfId(0)));
        assert!(t.reaches(NfId(1), NfId(1)));
    }

    #[test]
    fn cycle_detection() {
        let mut b = Topology::builder();
        let a = b.add_nf(NfKind::Nat, "a");
        let c = b.add_nf(NfKind::Vpn, "c");
        b.add_edge(a, c);
        b.add_edge(c, a);
        assert_eq!(b.build().unwrap_err(), TopologyError::Cycle);
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = Topology::builder();
        let a = b.add_nf(NfKind::Nat, "a");
        b.add_edge(a, a);
        assert_eq!(b.build().unwrap_err(), TopologyError::BadEdge(a, a));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut b = Topology::builder();
        let a = b.add_nf(NfKind::Nat, "a");
        let c = b.add_nf(NfKind::Vpn, "c");
        b.add_edge(a, c);
        b.add_edge(a, c);
        assert_eq!(b.build().unwrap_err(), TopologyError::BadEdge(a, c));
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut b = Topology::builder();
        b.add_nf(NfKind::Nat, "x");
        b.add_nf(NfKind::Vpn, "x");
        assert!(matches!(b.build(), Err(TopologyError::DuplicateName(_))));
    }

    #[test]
    fn unknown_nf_in_edge_rejected() {
        let mut b = Topology::builder();
        let a = b.add_nf(NfKind::Nat, "a");
        b.add_edge(a, NfId(9));
        assert_eq!(b.build().unwrap_err(), TopologyError::UnknownNf(NfId(9)));
    }

    #[test]
    fn no_entry_rejected_after_the_graph_checks() {
        let mut b = Topology::builder();
        let a = b.add_nf(NfKind::Nat, "a");
        let c = b.add_nf(NfKind::Vpn, "c");
        b.add_edge(a, c);
        assert_eq!(b.build().unwrap_err(), TopologyError::NoEntry);
        assert_eq!(
            Topology::builder().build().unwrap_err(),
            TopologyError::NoEntry
        );
    }

    #[test]
    fn paper_topology_shape() {
        let t = paper_topology();
        assert_eq!(t.len(), 16);
        assert_eq!(t.entries().len(), 4);
        // VPNs are the exits.
        assert_eq!(t.exits().len(), 4);
        for &e in t.exits() {
            assert_eq!(t.nf(e).kind, NfKind::Vpn);
        }
        // Each firewall is fed by all 4 NATs.
        let fw1 = t.by_name("fw1").unwrap();
        assert_eq!(t.upstream(fw1).len(), 4);
        // Monitors sit between firewalls and VPNs.
        let mon1 = t.by_name("mon1").unwrap();
        assert_eq!(t.upstream(mon1).len(), 5);
        assert_eq!(t.downstream(mon1).len(), 4);
    }

    #[test]
    fn recursion_bound_matches_paper_formula() {
        let t = paper_topology();
        // Σ_f N_upstream(f) + entry count.
        let expected: usize = t
            .nfs()
            .iter()
            .map(|n| t.upstream(n.id).len())
            .sum::<usize>()
            + t.entries().len();
        assert_eq!(t.recursion_bound(), expected);
    }

    #[test]
    fn topo_order_respects_edges() {
        let t = paper_topology();
        let pos: std::collections::HashMap<_, _> = t
            .topo_order()
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        for nf in t.nfs() {
            for &d in t.downstream(nf.id) {
                assert!(pos[&nf.id] < pos[&d], "{} before {}", nf.id, d);
            }
        }
    }
}
