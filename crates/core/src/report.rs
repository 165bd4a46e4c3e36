//! Turning diagnoses into causal relations.

use crate::diagnose::Diagnosis;
use autofocus::{CausalRelation, Location};
use msc_trace::Reconstruction;
use nf_types::NodeId;

/// Converts diagnoses into packet-level causal relations for §4.4 pattern
/// aggregation.
///
/// Each (victim, culprit) pair yields one relation per culprit flow, with
/// the culprit's score split proportionally to flow packet counts; culprits
/// without flow information yield a single flow-less relation.
pub fn diagnoses_to_relations(
    recon: &Reconstruction,
    diagnoses: &[Diagnosis],
) -> Vec<CausalRelation> {
    let mut out = Vec::new();
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
                out.push(CausalRelation {
                    culprit_flow: None,
                    culprit_loc,
                    victim_flow,
                    victim_loc,
                    score: c.score,
                });
            } else {
                for (f, w) in &c.flows {
                    out.push(CausalRelation {
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnose::{Culprit, CulpritKind};
    use crate::victim::{Victim, VictimKind};
    use nf_types::{FiveTuple, Interval, NfId, Proto};

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
}
