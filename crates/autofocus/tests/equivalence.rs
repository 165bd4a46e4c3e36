//! Equivalence: the item-driven aggregation (`autofocus::cluster` enumerates
//! only the candidates some item's chains reach, `autofocus::hierarchy`
//! rolls levels up by sort-then-scan) must return exactly what the
//! implementation it replaced returns — the same clusters in the same
//! order, weights equal bit for bit. That implementation lives on verbatim
//! in `oracle/`: the full cross product of kept values, stably sorted and
//! swept over the unclaimed items.
//!
//! Equivalence is asserted for `threshold ∈ (0, 1]`, which is every caller
//! (0.005–0.05, and the phase-2 scaled value, `> 0` by construction and
//! capped at 1). At `threshold <= 0` the oracle also reports the candidates
//! that match nothing, with weight 0; the library's behaviour there is
//! pinned by the unit tests in `cluster.rs`.
//!
//! The oracle is what bounds the input sizes: its candidate count is the
//! product of the per-dimension kept values, so the random groups draw from
//! small value pools.

mod oracle;

use autofocus::cluster::{aggregate_side, ClusterConfig, Location, SideItem};
use autofocus::hierarchy::hhh_1d;
use autofocus::{aggregate_patterns, CausalRelation, PatternConfig};
use microscope::diagnoses_to_relations;
use msc_experiments::inject::{paper_bug_aggregate, paper_bug_flows, BugSpec, InjectionPlan};
use msc_experiments::runner::{run_spec, RunSpec};
use nf_types::{paper_topology, FiveTuple, NfId, NfKind, Prefix, Proto, MICROS, MILLIS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn kind_of(id: NfId) -> NfKind {
    match id.0 {
        0..=3 => NfKind::Nat,
        4..=6 => NfKind::Firewall,
        _ => NfKind::Vpn,
    }
}

fn pick<T: Copy>(rng: &mut StdRng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())]
}

/// One random group: a few source hosts in shared /16s, the bug-flow port
/// ladders next to ordinary ports, flow-less items, `Location::Source`,
/// zero and duplicate weights.
fn random_group(rng: &mut StdRng) -> Vec<SideItem> {
    let n = match rng.gen_range(0..4u32) {
        0 => rng.gen_range(1..=8usize),
        1 => rng.gen_range(9..=40),
        2 => rng.gen_range(41..=120),
        _ => rng.gen_range(121..=300),
    };
    let nets = [0x6400_0000u32, 0x6401_0000, 0x0a00_0000];
    let srcs: Vec<u32> = (0..rng.gen_range(1..=14))
        .map(|_| pick(rng, &nets) + rng.gen_range(0..600u32))
        .collect();
    let dsts: Vec<u32> = (0..rng.gen_range(1..=6))
        .map(|_| pick(rng, &[0x2000_0000u32, 0x1400_0000]) + rng.gen_range(1..4u32))
        .collect();
    let n_locs = rng.gen_range(1..=9u16);
    let ladder = rng.gen_range(1..=9u16);
    let weights = [0.0, 1.0, 1.0, 0.125, 3.0];
    (0..n)
        .map(|_| {
            let flow = if rng.gen_bool(0.08) {
                None
            } else if rng.gen_bool(0.4) {
                let k = rng.gen_range(0..ladder);
                let src = 0x6400_0001;
                Some(FiveTuple::new(
                    src,
                    0x2000_0001,
                    2000 + k,
                    6000 + k,
                    Proto::TCP,
                ))
            } else {
                Some(FiveTuple::new(
                    pick(rng, &srcs),
                    pick(rng, &dsts),
                    pick(rng, &[80, 443, 5000, 5001, 40_000]) + rng.gen_range(0..3u16),
                    pick(rng, &[53, 80, 8080]),
                    pick(rng, &[Proto::TCP, Proto::UDP]),
                ))
            };
            let loc = if rng.gen_bool(0.1) {
                Location::Source
            } else {
                Location::Nf(NfId(rng.gen_range(0..n_locs)))
            };
            let weight = if rng.gen_bool(0.5) {
                pick(rng, &weights)
            } else {
                rng.gen::<f64>() * 10.0
            };
            SideItem { flow, loc, weight }
        })
        .collect()
}

/// Does the group get past both fast paths of `aggregate_side`?
fn takes_lattice_path(items: &[SideItem], threshold: f64) -> bool {
    let total: f64 = items.iter().map(|i| i.weight).sum();
    let th = threshold * total;
    let mut exact: Vec<(Option<FiveTuple>, Location, f64)> = Vec::new();
    for i in items {
        match exact.iter_mut().find(|e| (e.0, e.1) == (i.flow, i.loc)) {
            Some(e) => e.2 += i.weight,
            None => exact.push((i.flow, i.loc, i.weight)),
        }
    }
    let all_significant = exact.len() <= 16 && exact.iter().all(|e| e.2 >= th);
    total > 0.0 && !all_significant && th < total * 0.999
}

#[test]
fn random_groups_cluster_exactly_as_the_oracle() {
    let thresholds = [0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.3, 0.6, 1.0];
    let mut lattice_cases = 0;
    let n = 600;
    for case in 0..n {
        let mut rng = StdRng::seed_from_u64(0xa070_f0c5 + case);
        let items = random_group(&mut rng);
        let cfg = ClusterConfig {
            threshold: pick(&mut rng, &thresholds),
            max_per_dim: pick(&mut rng, &[2, 5, 48]),
        };
        lattice_cases += u64::from(takes_lattice_path(&items, cfg.threshold));
        let got = aggregate_side(&items, &cfg, &kind_of);
        let want = oracle::cluster::aggregate_side(&items, &cfg, &kind_of);
        let bits = |out: &[(autofocus::SideAggregate, f64)]| -> Vec<_> {
            out.iter().map(|(agg, w)| (*agg, w.to_bits())).collect()
        };
        assert_eq!(
            bits(&got),
            bits(&want),
            "case {case}: {} items, {cfg:?}",
            items.len()
        );
    }
    // The fast paths are shared code; the comparison must mostly exercise
    // what was rewritten.
    assert!(
        lattice_cases * 2 > n,
        "only {lattice_cases} of {n} cases reach the lattice path"
    );
}

#[test]
fn hhh_1d_rolls_up_exactly_as_the_oracle() {
    // Prefix leaves are all at depth 32; the toy hierarchy (parent = n / 10)
    // mixes depths, so input keys meet rolled-up weight at inner nodes.
    let toy_parent = |n: &u32| if *n == 0 { None } else { Some(n / 10) };
    for case in 0..400 {
        let mut rng = StdRng::seed_from_u64(0x1d_0000 + case);
        let n = rng.gen_range(0..200usize);
        let threshold = pick(&mut rng, &[0.5, 2.0, 7.5, 40.0]);
        let weights: Vec<f64> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    pick(&mut rng, &[0.0, 1.0, 0.1])
                } else {
                    rng.gen::<f64>() * 4.0
                }
            })
            .collect();
        let bits = |w: f64| w.to_bits();

        let toy: Vec<(u32, f64)> = weights
            .iter()
            .map(|&w| {
                (
                    rng.gen_range(0..3000u32) / pick(&mut rng, &[1, 1, 10, 100]),
                    w,
                )
            })
            .collect();
        let got = hhh_1d(toy.clone(), toy_parent, threshold);
        let want = oracle::hierarchy::hhh_1d(toy, toy_parent, threshold);
        assert_eq!(
            got.iter().map(|e| (e.0, bits(e.1))).collect::<Vec<_>>(),
            want.iter().map(|e| (e.0, bits(e.1))).collect::<Vec<_>>(),
            "toy case {case}"
        );

        let hosts: Vec<(Prefix, f64)> = weights
            .iter()
            .map(|&w| {
                let net = pick(&mut rng, &[0x6400_0000u32, 0x6401_0000, 0x0a00_0000]);
                (Prefix::host(net + rng.gen_range(0..40u32)), w)
            })
            .collect();
        let got = hhh_1d(hosts.clone(), Prefix::parent, threshold);
        let want = oracle::hierarchy::hhh_1d(hosts, Prefix::parent, threshold);
        assert_eq!(
            got.iter().map(|e| (e.0, bits(e.1))).collect::<Vec<_>>(),
            want.iter().map(|e| (e.0, bits(e.1))).collect::<Vec<_>>(),
            "prefix case {case}"
        );
    }
}

/// Relations of one short run with the §6.4 bug-trigger flows at fw2,
/// stride-sampled to what the oracle can aggregate within the test budget.
fn bug_trigger_relations() -> (Vec<CausalRelation>, impl Fn(NfId) -> NfKind) {
    let topo = paper_topology();
    let fw2 = topo.by_name("fw2").expect("paper topology has fw2");
    let mut spec = RunSpec::new(30 * MILLIS, 1.2e6, 42);
    spec.diagnosis.victims.max_victims = Some(1_500);
    spec.plan = InjectionPlan {
        bug: Some(BugSpec {
            nf: fw2,
            matches: paper_bug_aggregate(),
            per_packet_ns: 20 * MICROS,
            trigger_flows: paper_bug_flows(),
            period: 10 * MILLIS,
            flow_size: 100,
        }),
        ..Default::default()
    };
    let run = run_spec(&spec);
    let relations = diagnoses_to_relations(&run.recon, &run.diagnoses);
    let cap = 3_000;
    let stride = relations.len().div_ceil(cap).max(1);
    let sampled: Vec<CausalRelation> = relations.into_iter().step_by(stride).collect();
    (sampled, move |id| topo.nf(id).kind)
}

#[test]
fn simulated_bug_run_aggregates_to_the_oracles_patterns() {
    let (relations, kind_of) = bug_trigger_relations();
    assert!(relations.len() >= 200, "{} relations", relations.len());
    for adaptive_ports in [false, true] {
        for threshold in [0.01, 0.002] {
            let mut cfg = PatternConfig {
                adaptive_ports,
                ..Default::default()
            };
            cfg.cluster.threshold = threshold;
            let got = aggregate_patterns(&relations, &cfg, &kind_of);
            let want = oracle::pattern::aggregate_patterns(&relations, &cfg, &kind_of);
            assert!(!got.is_empty());
            assert_eq!(
                got.len(),
                want.len(),
                "adaptive_ports {adaptive_ports}, th {threshold}"
            );
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(
                    (g.culprit, g.victim, g.score.to_bits()),
                    (w.culprit, w.victim, w.score.to_bits()),
                    "adaptive_ports {adaptive_ports}, th {threshold}: {g} vs {w}"
                );
            }
        }
    }
}
