//! The pre-rewrite side clustering, moved verbatim out of
//! `autofocus::cluster`: six `weight_of` sweeps, the full six-dimensional
//! cross product of kept values as candidates, a stable sort of that
//! vector and a candidates × `remaining` compress sweep.

use super::hierarchy::hhh_1d;
use autofocus::cluster::{ClusterConfig, Location, LocationAgg, SideAggregate, SideItem};
use nf_types::{FiveTuple, FlowAggregate, NfId, NfKind, PortRange, Prefix, ProtoMatch};
use std::collections::HashMap;

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

fn top<K: Clone>(mut v: Vec<(K, f64)>, cap: usize) -> Vec<K> {
    v.sort_by(|a, b| b.1.total_cmp(&a.1));
    v.truncate(cap);
    v.into_iter().map(|(k, _)| k).collect()
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
            *exact.entry((i.flow, i.loc)).or_insert(0.0) += i.weight;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "`all` is a pure predicate: true or false whatever the visit order"
        )]
        let all_clear = exact.len() <= 16 && exact.values().all(|&w| w >= th);
        if all_clear {
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

    // 1. Unidimensional HHH per dimension.
    let src: Vec<Prefix> = top(
        hhh_1d(
            items
                .iter()
                .filter_map(|i| i.flow.map(|f| (Prefix::host(f.src_ip), i.weight))),
            |p: &Prefix| p.parent(),
            th,
        ),
        cfg.max_per_dim,
    );
    let dst: Vec<Prefix> = top(
        hhh_1d(
            items
                .iter()
                .filter_map(|i| i.flow.map(|f| (Prefix::host(f.dst_ip), i.weight))),
            |p: &Prefix| p.parent(),
            th,
        ),
        cfg.max_per_dim,
    );
    let sport: Vec<PortRange> = top(
        hhh_1d(
            items
                .iter()
                .filter_map(|i| i.flow.map(|f| (PortRange::exact(f.src_port), i.weight))),
            |p: &PortRange| p.static_parent(),
            th,
        ),
        cfg.max_per_dim,
    );
    let dport: Vec<PortRange> = top(
        hhh_1d(
            items
                .iter()
                .filter_map(|i| i.flow.map(|f| (PortRange::exact(f.dst_port), i.weight))),
            |p: &PortRange| p.static_parent(),
            th,
        ),
        cfg.max_per_dim,
    );
    let proto: Vec<ProtoMatch> = top(
        hhh_1d(
            items
                .iter()
                .filter_map(|i| i.flow.map(|f| (ProtoMatch::Exact(f.proto), i.weight))),
            |p: &ProtoMatch| match p {
                ProtoMatch::Exact(_) => Some(ProtoMatch::Any),
                ProtoMatch::Any => None,
            },
            th,
        ),
        cfg.max_per_dim,
    );
    let locs: Vec<LocationAgg> = top(
        hhh_1d(
            items.iter().map(|i| (LocationAgg::Exact(i.loc), i.weight)),
            |l: &LocationAgg| l.parent(kind_of),
            th,
        ),
        cfg.max_per_dim,
    );

    // Always include the wildcard in every dimension so the catch-all
    // cluster exists.
    let with_any = |mut v: Vec<Prefix>| {
        if !v.contains(&Prefix::ANY) {
            v.push(Prefix::ANY);
        }
        v
    };
    let src = with_any(src);
    let dst = with_any(dst);
    let add_any_port = |mut v: Vec<PortRange>| {
        if !v.contains(&PortRange::ANY) {
            v.push(PortRange::ANY);
        }
        v
    };
    let sport = add_any_port(sport);
    let dport = add_any_port(dport);
    let mut proto = proto;
    if !proto.contains(&ProtoMatch::Any) {
        proto.push(ProtoMatch::Any);
    }
    let mut locs = locs;
    if !locs.contains(&LocationAgg::Any) {
        locs.push(LocationAgg::Any);
    }

    // Per-dimension weight of each kept value (total weight of the items it
    // matches). A multi-dimensional cluster can never claim more than the
    // weight of any single value it is built from, so the minimum over its
    // dimensions is an upper bound — AutoFocus's candidate-pruning trick,
    // which keeps the cross product tractable.
    let weight_of = |pred: &dyn Fn(&SideItem) -> bool| -> f64 {
        items.iter().filter(|i| pred(i)).map(|i| i.weight).sum()
    };
    let src_w: Vec<f64> = src
        .iter()
        .map(|p| weight_of(&|i: &SideItem| i.flow.map_or(p.is_any(), |f| p.contains(f.src_ip))))
        .collect();
    let dst_w: Vec<f64> = dst
        .iter()
        .map(|p| weight_of(&|i: &SideItem| i.flow.map_or(p.is_any(), |f| p.contains(f.dst_ip))))
        .collect();
    let sport_w: Vec<f64> = sport
        .iter()
        .map(|r| weight_of(&|i: &SideItem| i.flow.map_or(r.is_any(), |f| r.contains(f.src_port))))
        .collect();
    let dport_w: Vec<f64> = dport
        .iter()
        .map(|r| weight_of(&|i: &SideItem| i.flow.map_or(r.is_any(), |f| r.contains(f.dst_port))))
        .collect();
    let proto_w: Vec<f64> = proto
        .iter()
        .map(|p| {
            weight_of(&|i: &SideItem| {
                i.flow
                    .map_or(matches!(p, ProtoMatch::Any), |f| p.contains(f.proto))
            })
        })
        .collect();
    let locs_w: Vec<f64> = locs
        .iter()
        .map(|l| weight_of(&|i: &SideItem| l.matches(i.loc, kind_of)))
        .collect();

    // 2. Candidate cross product, pruned by the upper bound.
    let mut candidates: Vec<SideAggregate> = Vec::new();
    for (si, &s) in src.iter().enumerate() {
        for (di, &d) in dst.iter().enumerate() {
            let b2 = src_w[si].min(dst_w[di]);
            if b2 < th {
                continue;
            }
            for (pi, &pr) in proto.iter().enumerate() {
                let b3 = b2.min(proto_w[pi]);
                if b3 < th {
                    continue;
                }
                for (spi, &sp) in sport.iter().enumerate() {
                    let b4 = b3.min(sport_w[spi]);
                    if b4 < th {
                        continue;
                    }
                    for (dpi, &dp) in dport.iter().enumerate() {
                        let b5 = b4.min(dport_w[dpi]);
                        if b5 < th {
                            continue;
                        }
                        for (li, &l) in locs.iter().enumerate() {
                            if b5.min(locs_w[li]) < th {
                                continue;
                            }
                            candidates.push(SideAggregate {
                                flow: FlowAggregate {
                                    src: s,
                                    dst: d,
                                    proto: pr,
                                    src_port: sp,
                                    dst_port: dp,
                                },
                                loc: l,
                            });
                        }
                    }
                }
            }
        }
    }
    // The catch-all must always be present even when its bound fell under
    // the threshold (weights must be conserved).
    let catch_all = SideAggregate {
        flow: FlowAggregate::ANY,
        loc: LocationAgg::Any,
    };
    if !candidates.contains(&catch_all) {
        candidates.push(catch_all);
    }

    // 3. Compression: most specific first; a candidate claims the items it
    // matches that no reported cluster has claimed; report if the claim
    // reaches the threshold. The (ANY, ANY) catch-all is always reported
    // last with the remainder. Claimed items leave the working list, so
    // later candidates scan ever-shorter lists.
    candidates.sort_by_key(|c| std::cmp::Reverse(c.specificity()));
    let mut remaining: Vec<&SideItem> = items.iter().collect();
    let mut out: Vec<(SideAggregate, f64)> = Vec::new();
    for cand in candidates {
        if remaining.is_empty() {
            break;
        }
        let is_catch_all = cand == catch_all;
        let claim: f64 = remaining
            .iter()
            .filter(|item| cand.matches(item.flow.as_ref(), item.loc, kind_of))
            .map(|item| item.weight)
            .sum();
        if claim >= th || (is_catch_all && claim > 0.0) {
            remaining.retain(|item| !cand.matches(item.flow.as_ref(), item.loc, kind_of));
            out.push((cand, claim));
        }
    }
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}
