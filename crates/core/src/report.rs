//! Turning diagnoses into causal relations.

use crate::diagnose::Diagnosis;
use autofocus::{CausalRelation, Location};
use msc_trace::Reconstruction;
use nf_types::NodeId;

/// Converts diagnoses into packet-level causal relations for §4.4 pattern
/// aggregation: [`for_each_relation`], collected.
pub fn diagnoses_to_relations(
    recon: &Reconstruction,
    diagnoses: &[Diagnosis],
) -> Vec<CausalRelation> {
    let mut out = Vec::new();
    for_each_relation(recon, diagnoses, |r| out.push(r));
    out
}

/// Calls `emit` with every causal relation of `diagnoses`, in order.
///
/// Each (victim, culprit) pair yields one relation per culprit flow, with
/// the culprit's score split proportionally to flow packet counts; culprits
/// without flow information yield a single flow-less relation.
fn for_each_relation(
    recon: &Reconstruction,
    diagnoses: &[Diagnosis],
    mut emit: impl FnMut(CausalRelation),
) {
    for d in diagnoses {
        let victim_flow = recon.traces.get(d.victim.trace).map(|t| t.flow);
        let victim_loc = Location::Nf(d.victim.nf);
        for c in &d.culprits {
            let culprit_loc = match c.node {
                NodeId::Source => Location::Source,
                NodeId::Nf(nf) => Location::Nf(nf),
            };
            // float: canonical-order(summed over the culprit's flow Vec in stored order)
            let flow_total: f64 = c.flows.iter().map(|(_, w)| w).sum();
            if c.flows.is_empty() || flow_total <= 0.0 {
                emit(CausalRelation {
                    culprit_flow: None,
                    culprit_loc,
                    victim_flow,
                    victim_loc,
                    score: c.score,
                });
            } else {
                for (f, w) in &c.flows {
                    emit(CausalRelation {
                        culprit_flow: Some(*f),
                        culprit_loc,
                        victim_flow,
                        victim_loc,
                        score: c.score * w / flow_total,
                    });
                }
            }
        }
    }
}

/// At most `max` causal relations of `diagnoses`, sampled at a uniform
/// stride while they are emitted — never all of them at once.
#[derive(Debug)]
pub struct SampledRelations {
    /// Every `stride`-th relation, starting with the first.
    pub relations: Vec<CausalRelation>,
    /// Relations before sampling.
    pub total: usize,
    /// 1 when `total <= max`, else `total / max + 1`.
    pub stride: usize,
}

/// Counts the relations in one pass, then keeps those whose index is a
/// multiple of the stride: what `diagnoses_to_relations(..)
/// .into_iter().step_by(stride)` keeps, without holding the rest.
pub fn sample_relations(
    recon: &Reconstruction,
    diagnoses: &[Diagnosis],
    max: usize,
) -> SampledRelations {
    let mut total = 0;
    for_each_relation(recon, diagnoses, |_| total += 1);
    let stride = if total > max { total / max + 1 } else { 1 };
    let mut relations = Vec::with_capacity(total.div_ceil(stride));
    let mut i = 0;
    for_each_relation(recon, diagnoses, |r| {
        if i % stride == 0 {
            relations.push(r);
        }
        i += 1;
    });
    SampledRelations {
        relations,
        total,
        stride,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnose::{Culprit, CulpritKind};
    use crate::victim::{Victim, VictimKind};
    use nf_types::{FiveTuple, Interval, NfId, Proto};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn flow(p: u16) -> FiveTuple {
        FiveTuple::new(1, 2, p, 80, Proto::TCP)
    }

    fn diag() -> Diagnosis {
        Diagnosis {
            victim: Victim {
                trace: 0,
                nf: NfId(1),
                hop: 0,
                arrival_ts: 100,
                observed_ts: 200,
                kind: VictimKind::HighLatency,
            },
            culprits: vec![
                Culprit {
                    node: NodeId::Nf(NfId(0)),
                    kind: CulpritKind::LocalProcessing,
                    score: 10.0,
                    window: Interval::new(0, 100),
                    flows: vec![(flow(1), 3.0), (flow(2), 1.0)],
                },
                Culprit {
                    node: NodeId::Source,
                    kind: CulpritKind::SourceBurst,
                    score: 4.0,
                    window: Interval::new(0, 50),
                    flows: vec![],
                },
            ],
            recursions: 1,
        }
    }

    fn recon_stub() -> Reconstruction {
        let mut b = nf_types::Topology::builder();
        let a = b.add_nf(nf_types::NfKind::Nat, "nat1");
        b.add_entry(a);
        let topo = b.build().unwrap();
        let bundle = msc_collector::TraceBundle {
            logs: vec![msc_collector::NfLog::new(NfId(0))],
            source_flows: vec![msc_collector::FlowRecord {
                ipid: 0,
                flow: flow(99),
                ts: 0,
            }],
        };
        msc_trace::reconstruct(&topo, &bundle, &msc_trace::ReconstructionConfig::default())
    }

    #[test]
    fn relations_split_scores_by_flow_weight() {
        let recon = recon_stub();
        let rels = diagnoses_to_relations(&recon, &[diag()]);
        assert_eq!(rels.len(), 3); // 2 flows + 1 flow-less
        let r1 = rels
            .iter()
            .find(|r| r.culprit_flow == Some(flow(1)))
            .unwrap();
        assert!((r1.score - 7.5).abs() < 1e-9); // 10 × 3/4
        let r2 = rels
            .iter()
            .find(|r| r.culprit_flow == Some(flow(2)))
            .unwrap();
        assert!((r2.score - 2.5).abs() < 1e-9);
        let r3 = rels.iter().find(|r| r.culprit_flow.is_none()).unwrap();
        assert!((r3.score - 4.0).abs() < 1e-9);
        assert_eq!(r3.culprit_loc, Location::Source);
        // Victim flow comes from the trace.
        assert_eq!(r1.victim_flow, Some(flow(99)));
        assert_eq!(r1.victim_loc, Location::Nf(NfId(1)));
    }

    /// Diagnoses that yield exactly `total` relations: culprits of one to
    /// six relations each — flow-less, zero-weight and weighted flows — on
    /// victims with and without a trace, some with no culprit at all.
    fn arb_diagnoses(rng: &mut StdRng, total: usize) -> Vec<Diagnosis> {
        let mut left = total;
        let mut out = Vec::new();
        while left > 0 || rng.gen_bool(0.1) {
            let mut d = diag();
            d.victim.trace = rng.gen_range(0..2);
            d.victim.nf = NfId(rng.gen_range(0..4));
            d.culprits.clear();
            for _ in 0..rng.gen_range(0..4) {
                if left == 0 {
                    break;
                }
                let n = rng.gen_range(1..=left.min(6));
                left -= n;
                let flows = match (n, rng.gen_range(0..3)) {
                    (1, 0) => vec![],
                    (1, 1) => vec![(flow(rng.gen()), 0.0), (flow(rng.gen()), 0.0)],
                    _ => (0..n)
                        .map(|_| (flow(rng.gen()), rng.gen_range(0.5..64.0)))
                        .collect(),
                };
                d.culprits.push(Culprit {
                    node: if rng.gen_bool(0.2) {
                        NodeId::Source
                    } else {
                        NodeId::Nf(NfId(rng.gen_range(0..4)))
                    },
                    kind: CulpritKind::LocalProcessing,
                    score: rng.gen_range(0.0..100.0),
                    window: Interval::new(0, 1),
                    flows,
                });
            }
            out.push(d);
        }
        out
    }

    #[test]
    fn sampling_while_emitting_is_the_stride_over_every_relation() {
        const MAX: usize = 2_000;
        let recon = recon_stub();
        for case in 0..64 {
            let mut rng = StdRng::seed_from_u64(case);
            let total = match case % 5 {
                0 => MAX - 1,
                1 => MAX,
                2 => MAX + 1,
                3 => 2 * MAX,
                _ => rng.gen_range(0..3 * MAX),
            };
            let diagnoses = arb_diagnoses(&mut rng, total);
            let all = diagnoses_to_relations(&recon, &diagnoses);
            assert_eq!(all.len(), total, "case {case}");
            let stride = if total > MAX { total / MAX + 1 } else { 1 };
            let want: Vec<_> = all.into_iter().step_by(stride).collect();
            let got = sample_relations(&recon, &diagnoses, MAX);
            assert_eq!((got.total, got.stride), (total, stride), "case {case}");
            assert_eq!(got.relations.len(), want.len(), "case {case}");
            for (i, (g, w)) in got.relations.iter().zip(&want).enumerate() {
                assert_eq!(g.score.to_bits(), w.score.to_bits(), "case {case} #{i}");
                assert_eq!(g, w, "case {case} #{i}");
            }
        }
    }
}
