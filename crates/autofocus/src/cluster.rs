//! Multi-dimensional clustering of one side of a causal relation
//! (flow five-tuple × location).
//!
//! Following AutoFocus: first find the unidimensionally significant values
//! per dimension (exact 1-D HHH), then form candidate multi-dimensional
//! clusters from their cross product, then *compress* — walk candidates from
//! most specific to most general, report a candidate when the weight of the
//! items it matches that are not already claimed by a reported (more
//! specific) cluster reaches the threshold.
//!
//! Only the part of the cross product that matches some item is ever
//! formed: a candidate that matches nothing claims nothing. Each item
//! records which kept values match it (its *chains*, one per dimension);
//! the candidates are the products of those chains, and compression walks
//! per-candidate item lists instead of testing every candidate against
//! every item. DESIGN.md §4 has the argument and the numbers.

use crate::hierarchy::hhh_1d;
use nf_types::{FiveTuple, FlowAggregate, NfId, NfKind, PortRange, Prefix, ProtoMatch};
use std::collections::HashMap;
use std::fmt;

/// Where a culprit or victim lives: the traffic source or an NF instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Location {
    /// The traffic source.
    Source,
    /// One NF instance.
    Nf(NfId),
}

/// The location generalisation ladder: instance → NF kind → anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LocationAgg {
    /// Exactly this location.
    Exact(Location),
    /// Any instance of this NF kind.
    Kind(NfKind),
    /// Anywhere.
    Any,
}

impl LocationAgg {
    /// One generalisation step; needs the instance→kind mapping.
    pub fn parent(&self, kind_of: &impl Fn(NfId) -> NfKind) -> Option<LocationAgg> {
        match self {
            LocationAgg::Exact(Location::Nf(id)) => Some(LocationAgg::Kind(kind_of(*id))),
            LocationAgg::Exact(Location::Source) => Some(LocationAgg::Any),
            LocationAgg::Kind(_) => Some(LocationAgg::Any),
            LocationAgg::Any => None,
        }
    }

    /// Does this aggregate match a concrete location?
    pub fn matches(&self, loc: Location, kind_of: &impl Fn(NfId) -> NfKind) -> bool {
        match self {
            LocationAgg::Exact(l) => *l == loc,
            LocationAgg::Kind(k) => matches!(loc, Location::Nf(id) if kind_of(id) == *k),
            LocationAgg::Any => true,
        }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Source => write!(f, "source"),
            Location::Nf(id) => write!(f, "{id}"),
        }
    }
}

impl fmt::Display for LocationAgg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LocationAgg::Exact(l) => write!(f, "{l}"),
            LocationAgg::Kind(k) => write!(f, "{k}*"),
            LocationAgg::Any => write!(f, "*"),
        }
    }
}

/// An aggregated side: flow aggregate plus location aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SideAggregate {
    /// Flow-space part (ANY when the items carried no flow).
    pub flow: FlowAggregate,
    /// Location part.
    pub loc: LocationAgg,
}

impl SideAggregate {
    /// Does this aggregate match a concrete (flow, location) item?
    pub fn matches(
        &self,
        flow: Option<&FiveTuple>,
        loc: Location,
        kind_of: &impl Fn(NfId) -> NfKind,
    ) -> bool {
        let flow_ok = match flow {
            Some(ft) => self.flow.matches(ft),
            // Flow-less items are matched only by the ANY flow aggregate.
            None => self.flow == FlowAggregate::ANY,
        };
        flow_ok && self.loc.matches(loc, kind_of)
    }

    /// Specificity for most-specific-first compression ordering.
    pub fn specificity(&self) -> u32 {
        self.flow.specificity()
            + match self.loc {
                LocationAgg::Exact(_) => 16,
                LocationAgg::Kind(_) => 8,
                LocationAgg::Any => 0,
            }
    }
}

/// Clustering parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Fraction of the total weight a cluster must claim (the paper's `th`,
    /// 1% in the evaluation).
    pub threshold: f64,
    /// Cap on unidimensionally significant values kept per dimension,
    /// heaviest residual first. The lightest values of a longer list are
    /// dropped and their items fall to more general ones, so the cap can
    /// change the output.
    pub max_per_dim: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            threshold: 0.01,
            max_per_dim: 48,
        }
    }
}

/// One weighted input item for side aggregation.
#[derive(Debug, Clone, Copy)]
pub struct SideItem {
    /// Exact flow, if the relation carries one.
    pub flow: Option<FiveTuple>,
    /// Concrete location.
    pub loc: Location,
    /// Score mass.
    pub weight: f64,
}

/// The least common generalisation (meet) of a set of items in our
/// lattice: longest common IP prefixes, tightest static port level, exact
/// or wildcard protocol, and the location ladder (exact → kind → any).
fn meet_of(items: &[SideItem], kind_of: &impl Fn(NfId) -> NfKind) -> SideAggregate {
    fn common_prefix(a: Prefix, ip: u32) -> Prefix {
        let mut p = a;
        while !p.contains(ip) {
            match p.parent() {
                Some(q) => p = q,
                // /0 contains everything, so the loop guard has already
                // failed by the time parent() runs dry; stop widening.
                None => break,
            }
        }
        p
    }
    let mut it = items.iter();
    let Some(first) = it.next() else {
        // Meet of the empty set is the lattice top: matches nothing was
        // asked about, claims no weight.
        return SideAggregate {
            flow: FlowAggregate::ANY,
            loc: LocationAgg::Any,
        };
    };
    let mut loc = LocationAgg::Exact(first.loc);
    let mut flow = first
        .flow
        .map_or(FlowAggregate::ANY, |f| FlowAggregate::exact(&f));
    for i in it {
        if !loc.matches(i.loc, kind_of) {
            loc = match (loc, i.loc) {
                (LocationAgg::Exact(Location::Nf(a)), Location::Nf(b))
                    if kind_of(a) == kind_of(b) =>
                {
                    LocationAgg::Kind(kind_of(a))
                }
                (LocationAgg::Kind(k), Location::Nf(b)) if k == kind_of(b) => LocationAgg::Kind(k),
                _ => LocationAgg::Any,
            };
        }
        match i.flow {
            None => flow = FlowAggregate::ANY,
            Some(f) => {
                flow.src = common_prefix(flow.src, f.src_ip);
                flow.dst = common_prefix(flow.dst, f.dst_ip);
                if !flow.proto.contains(f.proto) {
                    flow.proto = ProtoMatch::Any;
                }
                while !flow.src_port.contains(f.src_port) {
                    match flow.src_port.static_parent() {
                        Some(p) => flow.src_port = p,
                        None => break, // ANY contains all; nothing wider exists
                    }
                }
                while !flow.dst_port.contains(f.dst_port) {
                    match flow.dst_port.static_parent() {
                        Some(p) => flow.dst_port = p,
                        None => break, // ANY contains all; nothing wider exists
                    }
                }
            }
        }
    }
    SideAggregate { flow, loc }
}

/// The clustering dimensions, in candidate-index order: src, dst, proto,
/// sport, dport, location.
const DIMS: usize = 6;

/// One dimension after its 1-D pass.
struct Dim<V> {
    /// The kept values in candidate-index order: the hierarchical heavy
    /// hitters, heaviest residual first, at most `max_per_dim` of them, plus
    /// the wildcard so the catch-all cluster exists.
    values: Vec<V>,
    /// Per kept value, the total weight of the items it matches. A cluster
    /// can never claim more than the weight of any single value it is built
    /// from, so the minimum over its dimensions is an upper bound —
    /// AutoFocus's candidate-pruning trick.
    weight: Vec<f64>,
    /// Per kept value, its share of [`SideAggregate::specificity`] (a sum
    /// over the dimensions; a wildcard contributes 0).
    spec: Vec<u32>,
}

impl<V: Ord + Clone> Dim<V> {
    fn new(
        leaves: impl Iterator<Item = (V, f64)>,
        parent: impl Fn(&V) -> Option<V>,
        any: V,
        spec_of: impl Fn(&V) -> u32,
        th: f64,
        cap: usize,
    ) -> Self {
        let mut hhh = hhh_1d(leaves, parent, th);
        hhh.sort_by(|a, b| b.1.total_cmp(&a.1));
        hhh.truncate(cap);
        let mut values: Vec<V> = hhh.into_iter().map(|(v, _)| v).collect();
        if !values.contains(&any) {
            values.push(any);
        }
        Dim {
            weight: vec![0.0; values.len()],
            spec: values.iter().map(spec_of).collect(),
            values,
        }
    }

    /// Appends one item's *chain* in this dimension to `sig` — a length,
    /// then the ids of the kept values that match the item (ancestors of
    /// its exact value) — and credits the item's weight to each of them.
    fn push_chain(&mut self, sig: &mut Vec<u32>, weight: f64, hit: impl Fn(&V) -> bool) {
        let at = sig.len();
        sig.push(0);
        for (id, v) in (0u32..).zip(&self.values) {
            if hit(v) {
                sig.push(id);
                sig[at] += 1;
                // float: canonical-order(called once per item in input-slice order, so each value sums its items in that order)
                self.weight[id as usize] += weight;
            }
        }
    }
}

/// A candidate cluster: one kept value per dimension, by id. The derived
/// order is the compression order — most specific first, ties by id, which
/// is the order a stable specificity sort of the full cross product gives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Candidate {
    rank: std::cmp::Reverse<u32>,
    ids: [u32; DIMS],
}

/// Everything the multi-dimensional step reads, built once per call: the
/// six dimensions and, per item, which kept values match it. Candidate
/// enumeration and compression test membership in these chains; nothing
/// after `build` calls `contains` on a prefix or a range again.
struct Lattice {
    src: Dim<Prefix>,
    dst: Dim<Prefix>,
    proto: Dim<ProtoMatch>,
    sport: Dim<PortRange>,
    dport: Dim<PortRange>,
    loc: Dim<LocationAgg>,
    /// The items' signatures, flat: item `i` owns
    /// `chains[starts[i]..starts[i + 1]]`, its six chains back to back.
    /// Items with equal signatures are matched by the same candidates.
    chains: Vec<u32>,
    starts: Vec<usize>,
}

impl Lattice {
    fn build(items: &[SideItem], th: f64, cap: usize, kind_of: &impl Fn(NfId) -> NfKind) -> Self {
        let flows = || items.iter().filter_map(|i| i.flow.map(|f| (f, i.weight)));
        let any = FlowAggregate::ANY;
        let mut lattice = Lattice {
            src: Dim::new(
                flows().map(|(f, w)| (Prefix::host(f.src_ip), w)),
                Prefix::parent,
                Prefix::ANY,
                |&src| FlowAggregate { src, ..any }.specificity(),
                th,
                cap,
            ),
            dst: Dim::new(
                flows().map(|(f, w)| (Prefix::host(f.dst_ip), w)),
                Prefix::parent,
                Prefix::ANY,
                |&dst| FlowAggregate { dst, ..any }.specificity(),
                th,
                cap,
            ),
            proto: Dim::new(
                flows().map(|(f, w)| (ProtoMatch::Exact(f.proto), w)),
                |p| match p {
                    ProtoMatch::Exact(_) => Some(ProtoMatch::Any),
                    ProtoMatch::Any => None,
                },
                ProtoMatch::Any,
                |&proto| FlowAggregate { proto, ..any }.specificity(),
                th,
                cap,
            ),
            sport: Dim::new(
                flows().map(|(f, w)| (PortRange::exact(f.src_port), w)),
                PortRange::static_parent,
                PortRange::ANY,
                |&src_port| FlowAggregate { src_port, ..any }.specificity(),
                th,
                cap,
            ),
            dport: Dim::new(
                flows().map(|(f, w)| (PortRange::exact(f.dst_port), w)),
                PortRange::static_parent,
                PortRange::ANY,
                |&dst_port| FlowAggregate { dst_port, ..any }.specificity(),
                th,
                cap,
            ),
            loc: Dim::new(
                items.iter().map(|i| (LocationAgg::Exact(i.loc), i.weight)),
                |l| l.parent(kind_of),
                LocationAgg::Any,
                |&loc| SideAggregate { flow: any, loc }.specificity(),
                th,
                cap,
            ),
            chains: Vec::new(),
            starts: vec![0],
        };
        for i in items {
            // A flow-less item is matched by the wildcard alone in every
            // flow dimension, as in `SideAggregate::matches`.
            let (sig, w, flow) = (&mut lattice.chains, i.weight, i.flow);
            lattice.src.push_chain(sig, w, |p| {
                flow.map_or(p.is_any(), |f| p.contains(f.src_ip))
            });
            lattice.dst.push_chain(sig, w, |p| {
                flow.map_or(p.is_any(), |f| p.contains(f.dst_ip))
            });
            lattice.proto.push_chain(sig, w, |p| {
                flow.map_or(*p == ProtoMatch::Any, |f| p.contains(f.proto))
            });
            lattice.sport.push_chain(sig, w, |r| {
                flow.map_or(r.is_any(), |f| r.contains(f.src_port))
            });
            lattice.dport.push_chain(sig, w, |r| {
                flow.map_or(r.is_any(), |f| r.contains(f.dst_port))
            });
            lattice
                .loc
                .push_chain(sig, w, |l| l.matches(i.loc, kind_of));
            lattice.starts.push(lattice.chains.len());
        }
        lattice
    }

    fn signature(&self, item: usize) -> &[u32] {
        &self.chains[self.starts[item]..self.starts[item + 1]]
    }

    /// The item indices sorted by signature, ties in input order, so every
    /// run of equal signatures lists its items ascending.
    fn items_by_signature(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.starts.len() - 1).collect();
        order.sort_by(|&a, &b| self.signature(a).cmp(self.signature(b)));
        order
    }

    /// Cuts [`Self::items_by_signature`] into its runs of equal signatures.
    fn groups<'a>(&self, order: &'a [usize]) -> Vec<&'a [usize]> {
        order
            .chunk_by(|&a, &b| self.signature(a) == self.signature(b))
            .collect()
    }

    /// Splits an item's signature back into its six chains.
    fn chains_of(&self, item: usize) -> [&[u32]; DIMS] {
        let mut rest = self.signature(item);
        std::array::from_fn(|_| {
            let [len, tail @ ..] = rest else {
                return rest;
            };
            let (chain, tail) = tail.split_at(*len as usize);
            rest = tail;
            chain
        })
    }

    /// The candidates that match at least one item, as `(candidate, group)`
    /// pairs in compression order: per signature group the product of its
    /// six chains, pruned by the weight bound. A candidate outside every
    /// such product matches no item, claims nothing and could never be
    /// reported, so the cross product of *all* kept values — millions of
    /// candidates for forty items — need not be formed. The `(ANY, ANY)`
    /// catch-all is in every product: its bound is the total weight.
    fn candidates(&self, groups: &[&[usize]], th: f64) -> Vec<(Candidate, u32)> {
        let mut pairs: Vec<(Candidate, u32)> = Vec::new();
        for (g, group) in (0u32..).zip(groups) {
            let [src, dst, proto, sport, dport, loc] = self.chains_of(group[0]);
            for &si in src {
                for &di in dst {
                    let b2 = self.src.weight[si as usize].min(self.dst.weight[di as usize]);
                    if b2 < th {
                        continue;
                    }
                    let r2 = self.src.spec[si as usize] + self.dst.spec[di as usize];
                    for &pi in proto {
                        let b3 = b2.min(self.proto.weight[pi as usize]);
                        if b3 < th {
                            continue;
                        }
                        let r3 = r2 + self.proto.spec[pi as usize];
                        for &spi in sport {
                            let b4 = b3.min(self.sport.weight[spi as usize]);
                            if b4 < th {
                                continue;
                            }
                            let r4 = r3 + self.sport.spec[spi as usize];
                            for &dpi in dport {
                                let b5 = b4.min(self.dport.weight[dpi as usize]);
                                if b5 < th {
                                    continue;
                                }
                                let r5 = r4 + self.dport.spec[dpi as usize];
                                for &li in loc {
                                    if b5.min(self.loc.weight[li as usize]) < th {
                                        continue;
                                    }
                                    let rank = std::cmp::Reverse(r5 + self.loc.spec[li as usize]);
                                    let ids = [si, di, pi, spi, dpi, li];
                                    pairs.push((Candidate { rank, ids }, g));
                                }
                            }
                        }
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }

    fn aggregate(&self, c: &Candidate) -> SideAggregate {
        let [si, di, pi, spi, dpi, li] = c.ids;
        SideAggregate {
            flow: FlowAggregate {
                src: self.src.values[si as usize],
                dst: self.dst.values[di as usize],
                proto: self.proto.values[pi as usize],
                src_port: self.sport.values[spi as usize],
                dst_port: self.dport.values[dpi as usize],
            },
            loc: self.loc.values[li as usize],
        }
    }
}

/// Aggregates one side of the relations into significant
/// (flow, location) clusters with descendant-exclusion scores.
///
/// Returned clusters are sorted by descending weight; their weights sum to
/// (almost) the input weight — every item is claimed by exactly one
/// reported cluster, with an `(ANY, ANY)` catch-all absorbing the scraps.
pub fn aggregate_side(
    items: &[SideItem],
    cfg: &ClusterConfig,
    kind_of: &impl Fn(NfId) -> NfKind,
) -> Vec<(SideAggregate, f64)> {
    // float: canonical-order(summed over the caller's slice in input order)
    let total: f64 = items.iter().map(|i| i.weight).sum();
    if total <= 0.0 {
        return Vec::new();
    }
    let th = cfg.threshold * total;

    // Fast path: when every distinct exact value already clears the
    // threshold (typical for the small per-culprit victim groups of the
    // §4.4 phase-1 pass), the full lattice machinery provably reports
    // exactly the distinct values — most-specific candidates claim their
    // items first and nothing is left to generalise. Emit them directly.
    {
        let mut exact: HashMap<(Option<FiveTuple>, Location), f64> = HashMap::new();
        for i in items {
            // float: canonical-order(per-key accumulation follows the input slice order)
            *exact.entry((i.flow, i.loc)).or_insert(0.0) += i.weight;
        }
        // `w > 0` only matters at `threshold <= 0`, where a weightless value
        // would otherwise come out as a zero-weight cluster.
        // lint: order-insensitive(`all` is a pure predicate — true/false regardless of visit order)
        if exact.len() <= 16 && exact.values().all(|&w| w >= th && w > 0.0) {
            let mut out: Vec<(SideAggregate, f64)> = exact
                .into_iter()
                .map(|((flow, loc), w)| {
                    (
                        SideAggregate {
                            flow: flow.map_or(FlowAggregate::ANY, |f| FlowAggregate::exact(&f)),
                            loc: LocationAgg::Exact(loc),
                        },
                        w,
                    )
                })
                .collect();
            // Full tie-break: the entries come out of a HashMap, so a
            // weight-only sort would leave equal-weight clusters in
            // per-process-random order.
            out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            return out;
        }
    }

    // Second fast path: when the threshold is at (or above) the whole
    // group's weight, only a cluster matching *every* item can be reported
    // and the most specific such cluster is the items' meet (least common
    // generalisation). This happens constantly in the §4.4 phase-2 pass,
    // where small victim groups get a globally-scaled threshold.
    if th >= total * 0.999 {
        return vec![(meet_of(items, kind_of), total)];
    }

    // 1. Unidimensional HHH per dimension, and per item the kept values
    // that match it.
    let lattice = Lattice::build(items, th, cfg.max_per_dim, kind_of);

    // 2. Candidates: the part of the kept values' cross product that
    // matches some item, each with the signature groups it matches.
    let order = lattice.items_by_signature();
    let groups = lattice.groups(&order);
    let candidates = lattice.candidates(&groups, th);

    // 3. Compression: most specific first; a candidate claims the items it
    // matches that no reported cluster has claimed; report if the claim
    // reaches the threshold. The (ANY, ANY) catch-all is always reported
    // last with the remainder. A group's items are matched and claimed
    // together, so a candidate visits only the items of its own unclaimed
    // groups.
    let catch_all = SideAggregate {
        flow: FlowAggregate::ANY,
        loc: LocationAgg::Any,
    };
    let mut claimed = vec![false; groups.len()];
    let mut unclaimed = groups.len();
    let mut open: Vec<usize> = Vec::new();
    let mut live: Vec<usize> = Vec::new();
    let mut out: Vec<(SideAggregate, f64)> = Vec::new();
    for matched in candidates.chunk_by(|a, b| a.0 == b.0) {
        if unclaimed == 0 {
            break;
        }
        open.clear();
        open.extend(
            matched
                .iter()
                .map(|m| m.1 as usize)
                .filter(|&g| !claimed[g]),
        );
        if open.is_empty() {
            continue;
        }
        live.clear();
        for &g in &open {
            live.extend_from_slice(groups[g]);
        }
        live.sort_unstable();
        let claim: f64 = live.iter().map(|&i| items[i].weight).sum(); // float: canonical-order(`live` holds item indices sorted ascending, i.e. input-slice order)
        let cand = lattice.aggregate(&matched[0].0);
        debug_assert_eq!(cand.specificity(), matched[0].0.rank.0);
        // `claim > 0` only matters off the documented threshold range
        // (0, 1]: at `threshold <= 0` it keeps zero-weight clusters out.
        if claim > 0.0 && (claim >= th || cand == catch_all) {
            for &g in &open {
                claimed[g] = true;
            }
            unclaimed -= open.len();
            out.push((cand, claim));
        }
    }
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_types::{parse_ip, Proto};

    fn kind_of(_: NfId) -> NfKind {
        NfKind::Firewall
    }

    fn ft(src: &str, sport: u16, dport: u16) -> FiveTuple {
        FiveTuple::new(
            parse_ip(src).unwrap(),
            parse_ip("32.0.0.1").unwrap(),
            sport,
            dport,
            Proto::TCP,
        )
    }

    #[test]
    fn single_hot_flow_reported_exactly() {
        let mut items = vec![SideItem {
            flow: Some(ft("100.0.0.1", 2004, 6004)),
            loc: Location::Nf(NfId(1)),
            weight: 90.0,
        }];
        // Background noise spread over many flows.
        for i in 0..10 {
            items.push(SideItem {
                flow: Some(ft("10.0.0.9", 5000 + i, 80)),
                loc: Location::Nf(NfId(2)),
                weight: 1.0,
            });
        }
        let out = aggregate_side(&items, &ClusterConfig::default(), &kind_of);
        let top = &out[0];
        assert!(top.1 >= 90.0);
        assert!(top.0.flow.matches(&ft("100.0.0.1", 2004, 6004)));
        assert_eq!(top.0.loc, LocationAgg::Exact(Location::Nf(NfId(1))));
        // And it is the *specific* flow, not a wildcard.
        assert_eq!(top.0.flow.src, Prefix::host(parse_ip("100.0.0.1").unwrap()));
    }

    #[test]
    fn sibling_flows_aggregate_to_shared_prefix() {
        // 8 hosts under 100.0.0.0/28 each carry 5% — individually below a
        // 10% threshold, only significant as prefix groups. Every other
        // dimension is identical across all items, so the src dimension is
        // the only one that can separate them.
        let mut items = Vec::new();
        for h in 1..=8u32 {
            items.push(SideItem {
                flow: Some(FiveTuple::new(
                    parse_ip("100.0.0.0").unwrap() + h,
                    parse_ip("32.0.0.1").unwrap(),
                    2000,
                    6000,
                    Proto::TCP,
                )),
                loc: Location::Nf(NfId(1)),
                weight: 5.0,
            });
        }
        // Background with a different src but everything else equal.
        for _ in 0..60 {
            items.push(SideItem {
                flow: Some(FiveTuple::new(
                    parse_ip("10.0.0.9").unwrap(),
                    parse_ip("32.0.0.1").unwrap(),
                    2000,
                    6000,
                    Proto::TCP,
                )),
                loc: Location::Nf(NfId(1)),
                weight: 1.0,
            });
        }
        let cfg = ClusterConfig {
            threshold: 0.1,
            ..Default::default()
        };
        let out = aggregate_side(&items, &cfg, &kind_of);
        // The sibling hosts' 40.0 of weight must be claimed by prefix
        // clusters under 100.0.0.0/24 (generalised, yet excluding the
        // 10.0.0.9 background).
        let umbrella = Prefix::new(parse_ip("100.0.0.0").unwrap(), 24);
        let sibling_weight: f64 = out
            .iter()
            .filter(|(agg, _)| umbrella.covers(&agg.flow.src))
            .map(|(_, w)| w)
            .sum();
        assert!(
            sibling_weight >= 40.0 - 1e-9,
            "prefix clusters claim {sibling_weight}, output {out:?}"
        );
        // At least one cluster generalised beyond a single host.
        assert!(
            out.iter()
                .any(|(agg, _)| umbrella.covers(&agg.flow.src) && agg.flow.src.len() < 32),
            "no generalised prefix cluster: {out:?}"
        );
    }

    #[test]
    fn weights_conserved_via_catch_all() {
        let items: Vec<SideItem> = (0..50)
            .map(|i| SideItem {
                flow: Some(ft("10.0.0.9", 1024 + i, 80)),
                loc: Location::Nf(NfId(i % 4)),
                weight: 1.0,
            })
            .collect();
        let out = aggregate_side(&items, &ClusterConfig::default(), &kind_of);
        let sum: f64 = out.iter().map(|(_, w)| w).sum();
        assert!((sum - 50.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn flowless_items_fall_into_any_flow_clusters() {
        let items = vec![
            SideItem {
                flow: None,
                loc: Location::Nf(NfId(3)),
                weight: 10.0,
            },
            SideItem {
                flow: None,
                loc: Location::Nf(NfId(3)),
                weight: 10.0,
            },
        ];
        let out = aggregate_side(&items, &ClusterConfig::default(), &kind_of);
        assert!(!out.is_empty());
        let top = &out[0];
        assert_eq!(top.0.flow, FlowAggregate::ANY);
        assert_eq!(top.0.loc, LocationAgg::Exact(Location::Nf(NfId(3))));
        assert!((top.1 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn location_generalises_to_kind() {
        // Weight spread over 6 firewall instances, none significant alone
        // with a high threshold, but the kind is.
        let items: Vec<SideItem> = (0..6)
            .map(|i| SideItem {
                flow: Some(ft("100.0.0.1", 2000, 6000)),
                loc: Location::Nf(NfId(i)),
                weight: 5.0,
            })
            .collect();
        let cfg = ClusterConfig {
            threshold: 0.3, // 9.0 absolute: single instances (5.0) miss it
            ..Default::default()
        };
        let out = aggregate_side(&items, &cfg, &kind_of);
        let top = &out[0];
        assert_eq!(top.0.loc, LocationAgg::Kind(NfKind::Firewall));
        assert!((top.1 - 30.0).abs() < 1e-9);
    }

    /// `n` distinct unit-weight flows at distinct instances.
    fn distinct_items(n: u16) -> Vec<SideItem> {
        (0..n)
            .map(|i| SideItem {
                flow: Some(FiveTuple::new(
                    parse_ip("100.0.0.0").unwrap() + u32::from(i) * 37,
                    parse_ip("32.0.0.0").unwrap() + u32::from(i % 7),
                    2000 + i,
                    6000 + i % 9,
                    Proto::TCP,
                )),
                loc: Location::Nf(NfId(i % 5)),
                weight: 1.0,
            })
            .collect()
    }

    #[test]
    fn candidates_grow_with_the_items_not_with_the_cross_product() {
        // Every item clears the 1% threshold, so every exact value and none
        // of their ancestors is kept, the weight bound prunes nothing, and
        // the full cross product is 41 * 8 * 2 * 41 * 10 * 6 = 1.6 M
        // candidates; the forty items' own chains reach 2 274 of them.
        let items = distinct_items(40);
        let lattice = Lattice::build(&items, 0.01 * 40.0, 48, &kind_of);
        let order = lattice.items_by_signature();
        let candidates = lattice.candidates(&lattice.groups(&order), 0.01 * 40.0);
        let distinct = candidates.chunk_by(|a, b| a.0 == b.0).count();
        assert!(distinct >= 40, "{distinct} candidates");
        assert!(distinct < 50_000, "{distinct} candidates");
        let out = aggregate_side(&items, &ClusterConfig::default(), &kind_of);
        assert_eq!(out.len(), 40);
    }

    #[test]
    fn non_positive_or_nan_threshold_never_reports_a_weightless_cluster() {
        let mut items = distinct_items(20);
        items.push(SideItem {
            flow: None,
            loc: Location::Source,
            weight: 0.0,
        });
        for threshold in [0.0, -1.0] {
            let cfg = ClusterConfig {
                threshold,
                ..Default::default()
            };
            // Nothing has to generalise: the twenty weighted values, exactly.
            let out = aggregate_side(&items, &cfg, &kind_of);
            assert_eq!(out.len(), 20, "threshold {threshold}: {out:?}");
            assert!(out
                .iter()
                .all(|(agg, w)| *w == 1.0 && agg.flow.src.len() == 32));
            // The same through the all-values-significant fast path.
            let out = aggregate_side(&items[15..], &cfg, &kind_of);
            assert_eq!(out.len(), 5, "threshold {threshold}: {out:?}");
            assert!(out.iter().all(|(_, w)| *w == 1.0));
        }
        // Nothing compares `>=` NaN: only the catch-all, with everything.
        let cfg = ClusterConfig {
            threshold: f64::NAN,
            ..Default::default()
        };
        let out = aggregate_side(&items, &cfg, &kind_of);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0.flow, FlowAggregate::ANY);
        assert_eq!(out[0].0.loc, LocationAgg::Any);
        assert_eq!(out[0].1, 20.0);
    }

    #[test]
    fn empty_input_is_empty_output() {
        let out = aggregate_side(&[], &ClusterConfig::default(), &kind_of);
        assert!(out.is_empty());
    }
}
