//! The recursive diagnosis driver (§4.3) and the [`Microscope`] facade.

use crate::cache::{CacheStats, DiagnosisCache, DiagnosisStep};
use crate::index::DiagnosisIndex;
use crate::local::local_scores;
use crate::propagation::{attribute_upstream_with, UpstreamScratch};
use crate::victim::{find_victims, Victim, VictimConfig};
use msc_trace::{Reconstruction, Timelines};
use nf_types::{FiveTuple, Interval, Nanos, NfId, NodeId, Topology};
use std::cell::OnceCell;
use std::rc::Rc;

/// How a culprit contributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CulpritKind {
    /// The node processed packets slower than its peak rate (interrupt,
    /// cache misses, a bug's slow path...). Never applies to the source.
    LocalProcessing,
    /// The node *is* the traffic source and offered a burst.
    SourceBurst,
}

/// One culprit of one victim, with its share of the blame.
#[derive(Debug, Clone, PartialEq)]
pub struct Culprit {
    /// The culprit node.
    pub node: NodeId,
    /// Local slowdown or source burst.
    pub kind: CulpritKind,
    /// Blame mass in packets (fractions of the victim's queue length).
    pub score: f64,
    /// The queuing period (or burst window) this blame was derived from —
    /// the culprit's activity window (Fig. 15 measures victim − culprit
    /// gaps from this).
    pub window: Interval,
    /// Flows of the culprit packets with packet counts (capped), for
    /// pattern aggregation. Empty when no flow information applies.
    pub flows: Vec<(FiveTuple, f64)>,
}

/// A diagnosed victim: ranked culprits.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    /// The victim.
    pub victim: Victim,
    /// Culprits sorted by descending score, merged per (node, kind).
    pub culprits: Vec<Culprit>,
    /// How many recursion steps the diagnosis took.
    pub recursions: usize,
}

/// Cap on distinct flows reported per culprit.
const MAX_FLOWS_PER_CULPRIT: usize = 64;

/// Diagnosis configuration.
#[derive(Debug, Clone)]
pub struct DiagnosisConfig {
    /// Victim selection.
    pub victims: VictimConfig,
    /// Stop attributing/recursing below this blame fraction (each victim
    /// starts with a total blame of 1.0 that splits across culprits). Keep
    /// this well under `1 / max_upstream_fanout` or multi-path propagation
    /// gets pruned at merge-heavy NFs.
    pub min_score: f64,
    /// Hard recursion-depth cap, a constant 16 by default. The paper's §5
    /// bound (the sum of upstream counts, `Topology::recursion_bound`) is
    /// not applied here; `tests/pipeline.rs` asserts that recursion stays
    /// within it.
    pub max_depth: usize,
    /// Memoize §4.1/§4.2 step results per `(nf, anchor)` across
    /// victims (see [`crate::cache`]). Cache entries are pure functions of
    /// their key, so this never changes the output — the uncached path is
    /// the reference `tests/cache_identity.rs` compares against.
    pub cache: bool,
}

impl Default for DiagnosisConfig {
    fn default() -> Self {
        Self {
            victims: VictimConfig::default(),
            min_score: 0.02,
            max_depth: 16,
            cache: true,
        }
    }
}

/// The Microscope diagnosis engine.
///
/// Construct once per deployment with the topology and the offline-measured
/// peak rates `r_i` (§4.1 footnote: stress-test each NF offline), then call
/// [`Microscope::diagnose_all`] on each run's reconstruction.
pub struct Microscope {
    /// Peak processing rate per NF, packets/second.
    peak_rates: Vec<f64>,
    cfg: DiagnosisConfig,
}

impl Microscope {
    /// Creates the engine. `peak_rates[i]` is `r_i` for `NfId(i)`; the
    /// topology is only checked against them (the diagnosis walks the paths
    /// the reconstruction recorded).
    // By value: every caller, the frozen `benchmark/` among them, hands it over.
    #[allow(clippy::needless_pass_by_value)]
    pub fn new(topology: Topology, peak_rates: Vec<f64>, cfg: DiagnosisConfig) -> Self {
        assert_eq!(
            peak_rates.len(),
            topology.len(),
            "need one peak rate per NF"
        );
        assert!(peak_rates.iter().all(|&r| r > 0.0));
        Self { peak_rates, cfg }
    }

    /// Finds and diagnoses all victims in a run, in victim order.
    pub fn diagnose_all(&self, recon: &Reconstruction, timelines: &Timelines) -> Vec<Diagnosis> {
        self.diagnose_all_stats(recon, timelines).0
    }

    /// [`Microscope::diagnose_all`], also returning the step-cache
    /// statistics of the run (all zeros when `cfg.cache` is off).
    pub fn diagnose_all_stats(
        &self,
        recon: &Reconstruction,
        timelines: &Timelines,
    ) -> (Vec<Diagnosis>, CacheStats) {
        let victims = find_victims(recon, &self.cfg.victims);
        let index = DiagnosisIndex::build(recon, timelines);
        // Neighbouring victims mostly land in the same queuing periods, so
        // one cache and one scratch allocation serve the whole run.
        let mut cache = self.cfg.cache.then(DiagnosisCache::default);
        let mut scratch = UpstreamScratch::default();
        let diagnoses = victims
            .iter()
            .map(|&v| {
                self.diagnose_indexed(recon, timelines, &index, cache.as_mut(), &mut scratch, v)
            })
            .collect();
        let stats = cache.map(|c| c.stats()).unwrap_or_default();
        (diagnoses, stats)
    }

    /// Diagnoses one victim (uncached).
    ///
    /// Builds a fresh [`DiagnosisIndex`] per call; batch callers should use
    /// [`Microscope::diagnose_all`], which builds it once per run.
    pub fn diagnose(
        &self,
        recon: &Reconstruction,
        timelines: &Timelines,
        victim: Victim,
    ) -> Diagnosis {
        let index = DiagnosisIndex::build(recon, timelines);
        let mut scratch = UpstreamScratch::default();
        self.diagnose_indexed(recon, timelines, &index, None, &mut scratch, victim)
    }

    /// The per-victim driver over a prebuilt index and per-run scratch.
    fn diagnose_indexed(
        &self,
        recon: &Reconstruction,
        timelines: &Timelines,
        index: &DiagnosisIndex,
        cache: Option<&mut DiagnosisCache>,
        scratch: &mut UpstreamScratch,
        victim: Victim,
    ) -> Diagnosis {
        // A plain Vec with a linear key scan, not a HashMap: a diagnosis
        // accumulates at most two kinds per node (a few dozen entries on
        // the widest topology), where the scan beats per-add SipHash —
        // and the merge order is the recursion order either way.
        let mut acc: Vec<Culprit> = Vec::new();
        let mut recursions = 0usize;
        let mut visited: Vec<(NfId, Nanos)> = Vec::new();
        self.attribute(
            recon,
            timelines,
            index,
            cache,
            scratch,
            victim.nf,
            victim.arrival_ts,
            1.0,
            0,
            &mut acc,
            &mut recursions,
            &mut visited,
        );
        let mut culprits: Vec<Culprit> = acc;
        // Full tie-break past the score, keeping the surfaced order a pure
        // function of the culprit set rather than of accumulator layout.
        // Scores are finite positive sums, so `total_cmp` matches the old
        // `partial_cmp(..).expect(..)` order without its panic surface.
        culprits.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.node.cmp(&b.node))
                .then_with(|| a.kind.cmp(&b.kind))
        });
        Diagnosis {
            victim,
            culprits,
            recursions,
        }
    }

    /// Recursive core: diagnoses the queuing period found at `nf` by a
    /// packet arriving at `t`, distributing `weight` (the victim's blame
    /// mass routed here) into local and upstream culprits.
    #[allow(clippy::too_many_arguments)]
    fn attribute(
        &self,
        recon: &Reconstruction,
        timelines: &Timelines,
        index: &DiagnosisIndex,
        mut cache: Option<&mut DiagnosisCache>,
        scratch: &mut UpstreamScratch,
        nf: NfId,
        t: Nanos,
        weight: f64,
        depth: usize,
        acc: &mut Vec<Culprit>,
        recursions: &mut usize,
        visited: &mut Vec<(NfId, Nanos)>,
    ) {
        if weight < self.cfg.min_score || depth > self.cfg.max_depth {
            return;
        }
        // The whole §4.1 step — period extraction, local scores and the
        // period's culprit flows — is a pure function of (nf, t), so it is
        // shared across every victim that lands in this period.
        let step = match cache.as_deref_mut() {
            Some(c) => c.step((nf, t), || self.make_step(timelines, index, nf, t, scratch)),
            None => Rc::new(self.make_step(timelines, index, nf, t, scratch)),
        };
        let qp = &step.qp;
        let preset_flows = &step.preset_flows;

        if qp.is_empty() || qp.queue_len() <= 0 {
            // No queue: the packet was delayed inside the NF itself
            // (misbehaving NF, §7) — all blame local.
            self.add(
                acc,
                NodeId::Nf(nf),
                CulpritKind::LocalProcessing,
                weight,
                qp.interval,
                preset_flows,
            );
            return;
        }

        let scores = step.scores;
        let total = scores.total().max(f64::EPSILON);
        let local_share = weight * (scores.sp.max(0.0) / total);
        let input_share = weight * (scores.si.max(0.0) / total);

        if local_share >= self.cfg.min_score {
            self.add(
                acc,
                NodeId::Nf(nf),
                CulpritKind::LocalProcessing,
                local_share,
                qp.interval,
                preset_flows,
            );
        }

        if input_share < self.cfg.min_score {
            return;
        }

        // §4.2: split the input share across upstream nodes by timespan
        // reduction. Lazy per period: only the first victim needing it
        // pays; later victims (and recursion steps) reuse the shares.
        let shares = step.shares_or_init(|| {
            attribute_upstream_with(
                recon,
                timelines.nf(nf),
                &qp.preset,
                nf,
                self.peak_rates[nf.0 as usize],
                scratch,
            )
        });
        if shares.is_empty() {
            // PreSet unresolvable: keep the blame at this NF's input —
            // attribute to source as a catch-all.
            self.add(
                acc,
                NodeId::Source,
                CulpritKind::SourceBurst,
                input_share,
                qp.interval,
                preset_flows,
            );
            return;
        }
        for share in shares {
            let s = input_share * share.fraction;
            if s < self.cfg.min_score {
                continue;
            }
            match share.node {
                NodeId::Source => {
                    self.add(
                        acc,
                        NodeId::Source,
                        CulpritKind::SourceBurst,
                        s,
                        // On clocks corrected by a wrong offset a source
                        // share's first arrival can land after the period's
                        // end.
                        Interval::new(
                            share
                                .first_arrival
                                .unwrap_or(qp.interval.start)
                                .min(qp.interval.end),
                            qp.interval.end,
                        ),
                        preset_flows,
                    );
                }
                NodeId::Nf(up) => {
                    // §4.3: recursively diagnose the queuing period the
                    // PreSet packets experienced at the upstream NF. The
                    // period is anchored at the *last* PreSet arrival there:
                    // it reaches back past the first PreSet arrival to the
                    // previous queue-empty point, so it covers both packets
                    // already queued ahead (Fig. 6's grey packets at C) and
                    // the build-up behind an interrupt at that NF.
                    let anchor = share.last_arrival.unwrap_or(qp.interval.start);
                    if visited.contains(&(up, anchor)) {
                        // Already expanded this (NF, period): credit the NF
                        // locally instead of looping.
                        self.add(
                            acc,
                            NodeId::Nf(up),
                            CulpritKind::LocalProcessing,
                            s,
                            qp.interval,
                            &[],
                        );
                        continue;
                    }
                    visited.push((up, anchor));
                    *recursions += 1;
                    self.attribute(
                        recon,
                        timelines,
                        index,
                        cache.as_deref_mut(),
                        scratch,
                        up,
                        anchor,
                        s,
                        depth + 1,
                        acc,
                        recursions,
                        visited,
                    );
                }
            }
        }
    }

    /// Computes one memoizable diagnosis step: the §4.1 queuing period at
    /// `(nf, t)`, its local scores and its PreSet flows. Pure in
    /// `(nf, t)` for a fixed reconstruction and config — the cache relies
    /// on that.
    fn make_step(
        &self,
        timelines: &Timelines,
        index: &DiagnosisIndex,
        nf: NfId,
        t: Nanos,
        scratch: &mut UpstreamScratch,
    ) -> DiagnosisStep {
        let qp = timelines.nf(nf).queuing_period(t);
        let scores = local_scores(&qp, self.peak_rates[nf.0 as usize]);
        let preset_flows = self.preset_flows(index, nf, &qp.preset, scratch);
        DiagnosisStep {
            qp,
            scores,
            preset_flows,
            shares: OnceCell::new(),
        }
    }

    /// The flows of PreSet packets with packet counts, capped.
    ///
    /// Counts accumulate in an epoch-stamped dense array keyed by the
    /// index's interned flow ids — exact `u64` adds, converted to `f64`
    /// once at the end. That equals the old per-packet `+= stride as f64`
    /// bit for bit (k additions of an integer stride sum to `k·stride`,
    /// well below 2^53), and the sort below imposes a total order, so the
    /// emitted list is independent of accumulation order either way.
    fn preset_flows(
        &self,
        index: &DiagnosisIndex,
        nf: NfId,
        preset: &std::ops::Range<usize>,
        scratch: &mut UpstreamScratch,
    ) -> Vec<(FiveTuple, f64)> {
        let flow_id = &index.flow_id[nf.0 as usize];
        // Sample huge presets (wild-run periods can hold 10^5+ arrivals);
        // per-flow weights stay proportional under a uniform stride.
        const MAX_PRESET_SAMPLES: usize = 16_384;
        let stride = (preset.len() / MAX_PRESET_SAMPLES).max(1);
        let generation = scratch.next_flow_gen(index.flow_table.len());
        let mut i = preset.start;
        while i < preset.end {
            let id = flow_id[i];
            // `u32::MAX` marks non-queued arrivals (dropped packets).
            if id != u32::MAX {
                let ix = id as usize;
                if scratch.flow_epoch[ix] != generation {
                    scratch.flow_epoch[ix] = generation;
                    scratch.flow_counts[ix] = 0;
                    scratch.flow_touched.push(id);
                }
                scratch.flow_counts[ix] += stride as u64;
            }
            i += stride;
        }
        let mut v: Vec<(FiveTuple, f64)> = scratch
            .flow_touched
            .iter()
            .map(|&id| {
                (
                    index.flow_table[id as usize],
                    scratch.flow_counts[id as usize] as f64,
                )
            })
            .collect();
        // Flow tie-break keeps the truncated set independent of
        // accumulation order.
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v.truncate(MAX_FLOWS_PER_CULPRIT);
        v
    }

    /// Merges one blame contribution into the accumulator. Flows come in
    /// by reference and are cloned only when the `(node, kind)` key is
    /// new — merges (the common case once a node has been credited) fold
    /// the slice in without allocating.
    #[allow(clippy::too_many_arguments)]
    fn add(
        &self,
        acc: &mut Vec<Culprit>,
        node: NodeId,
        kind: CulpritKind,
        score: f64,
        window: Interval,
        flows: &[(FiveTuple, f64)],
    ) {
        match acc.iter_mut().find(|c| c.node == node && c.kind == kind) {
            Some(cur) => {
                // Callers merge per-path credits in path-walk order, a deterministic Vec.
                cur.score += score;
                cur.window = cur.window.hull(&window);
                for &(f, w) in flows {
                    match cur.flows.iter_mut().find(|(g, _)| *g == f) {
                        Some((_, cw)) => *cw += w,
                        None => {
                            if cur.flows.len() < MAX_FLOWS_PER_CULPRIT {
                                cur.flows.push((f, w));
                            }
                        }
                    }
                }
            }
            None => acc.push(Culprit {
                node,
                kind,
                score,
                window,
                flows: flows.to_vec(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::victim::VictimKind;
    use msc_collector::{Collector, CollectorConfig, PacketMeta};
    use msc_trace::{reconstruct, ReconstructionConfig};
    use nf_types::{NfKind, Proto};

    /// Hand-built scenario: a NAT→VPN chain where the VPN's queue builds
    /// because the NAT released a squeezed burst after an interrupt.
    /// Peak rates: both 1 Mpps (1 µs/packet).
    fn build_interrupt_scenario() -> (Topology, Reconstruction, Timelines) {
        let mut b = Topology::builder();
        let nat = b.add_nf(NfKind::Nat, "nat1");
        let vpn = b.add_nf(NfKind::Vpn, "vpn1");
        b.add_entry(nat);
        b.add_edge(nat, vpn);
        let topo = b.build().unwrap();

        let mut c = Collector::new(&topo, CollectorConfig::default());
        let metas: Vec<PacketMeta> = (0..64u16)
            .map(|i| PacketMeta {
                ipid: i,
                flow: FiveTuple::new(0x0a000001, 0x14000001, 1000 + i, 80, Proto::TCP),
            })
            .collect();
        // Source emits 64 packets spread over 6.4 ms (100 µs apart) — well
        // under peak.
        for (i, m) in metas.iter().enumerate() {
            c.record_source(i as u64 * 100_000, m);
        }
        // NAT is interrupted until t = 7 ms: it reads everything in two
        // 32-batches and releases them squeezed back-to-back.
        c.record_rx(nat, 7_000_000, &metas[..32]);
        c.record_rx(nat, 7_100_000, &metas[32..]);
        c.record_tx(nat, 7_100_000, Some(vpn), &metas[..32]);
        c.record_tx(nat, 7_100_100, Some(vpn), &metas[32..]);
        // VPN receives the squeezed burst: its queue holds the second
        // batch while it drains the first at its 1 µs/packet pace.
        c.record_rx(vpn, 7_100_000, &metas[..32]);
        c.record_rx(vpn, 7_132_000, &metas[32..]);
        c.record_tx(vpn, 7_132_000, None, &metas[..32]);
        c.record_tx(vpn, 7_164_000, None, &metas[32..]);
        let (recon, timelines) =
            reconstruct(&topo, &c.into_bundle(), &ReconstructionConfig::default()).unwrap();
        (topo, recon, timelines)
    }

    #[test]
    fn interrupt_blame_propagates_to_upstream_nat() {
        let (topo, recon, timelines) = build_interrupt_scenario();
        let ms = Microscope::new(
            topo,
            vec![1e6, 1e6],
            DiagnosisConfig {
                victims: VictimConfig {
                    latency: crate::victim::LatencyThreshold::Absolute(0),
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        // Diagnose the last packet at the VPN: it arrived just behind the
        // squeezed burst and found a queue (the whole second batch).
        let victim = Victim {
            trace: 63,
            nf: NfId(1),
            hop: 1,
            arrival_ts: 7_100_100,
            observed_ts: 7_164_000,
            kind: VictimKind::HighLatency,
        };
        let d = ms.diagnose(&recon, &timelines, victim);
        assert!(!d.culprits.is_empty());
        // The top culprit must be the NAT (its squeezed release caused the
        // VPN queue), not the VPN itself and not the source (which sent at
        // a tame 10 kpps).
        let top = &d.culprits[0];
        assert_eq!(
            top.node,
            NodeId::Nf(NfId(0)),
            "culprits: {:?}",
            d.culprits
                .iter()
                .map(|c| (c.node, c.kind, c.score))
                .collect::<Vec<_>>()
        );
        assert_eq!(top.kind, CulpritKind::LocalProcessing);
        assert!(d.recursions >= 1, "must have recursed into the NAT");
    }

    #[test]
    fn source_burst_blamed_at_entry_nf() {
        // Source sends 64 packets back-to-back (50 ns apart = 20 Mpps) into
        // a 1 Mpps NAT: the queue is the source's fault.
        let mut b = Topology::builder();
        let nat = b.add_nf(NfKind::Nat, "nat1");
        b.add_entry(nat);
        let topo = b.build().unwrap();
        let mut c = Collector::new(&topo, CollectorConfig::default());
        let metas: Vec<PacketMeta> = (0..64u16)
            .map(|i| PacketMeta {
                ipid: i,
                flow: FiveTuple::new(0x0a000001, 0x14000001, 7777, 80, Proto::TCP),
            })
            .collect();
        for (i, m) in metas.iter().enumerate() {
            c.record_source(1_000_000 + i as u64 * 50, m);
        }
        c.record_rx(nat, 1_000_100, &metas[..32]);
        c.record_rx(nat, 1_032_100, &metas[32..]);
        c.record_tx(nat, 1_032_100, None, &metas[..32]);
        c.record_tx(nat, 1_064_100, None, &metas[32..]);
        let (recon, timelines) =
            reconstruct(&topo, &c.into_bundle(), &ReconstructionConfig::default()).unwrap();
        let ms = Microscope::new(topo, vec![1e6], DiagnosisConfig::default());
        let victim = Victim {
            trace: 63,
            nf: NfId(0),
            hop: 0,
            arrival_ts: 1_000_000 + 63 * 50,
            observed_ts: 1_064_100,
            kind: VictimKind::HighLatency,
        };
        let d = ms.diagnose(&recon, &timelines, victim);
        let top = &d.culprits[0];
        assert_eq!(top.node, NodeId::Source, "culprits: {:?}", d.culprits);
        assert_eq!(top.kind, CulpritKind::SourceBurst);
        // The culprit flows contain the bursting flow.
        assert!(top.flows.iter().any(|(f, _)| f.src_port == 7777));
    }

    #[test]
    fn slow_local_nf_blamed_locally() {
        // Source sends at a gentle 100 kpps, but the NF only manages
        // ~100 packets in 3.2 ms (peak says 3200): local problem.
        let mut b = Topology::builder();
        let nat = b.add_nf(NfKind::Nat, "nat1");
        b.add_entry(nat);
        let topo = b.build().unwrap();
        let mut c = Collector::new(&topo, CollectorConfig::default());
        let metas: Vec<PacketMeta> = (0..64u16)
            .map(|i| PacketMeta {
                ipid: i,
                flow: FiveTuple::new(0x0a000001, 0x14000001, 1000 + i, 80, Proto::TCP),
            })
            .collect();
        // 10 µs apart = 100 kpps, from t=1ms.
        for (i, m) in metas.iter().enumerate() {
            c.record_source(1_000_000 + i as u64 * 10_000, m);
        }
        // The NF reads them very slowly — one small batch every 200 µs
        // (but never drains the queue: batch == 32 means "not drained", so
        // use full batches late).
        c.record_rx(nat, 1_500_000, &metas[..32]);
        c.record_rx(nat, 2_200_000, &metas[32..]);
        c.record_tx(nat, 2_200_000, None, &metas[..32]);
        c.record_tx(nat, 2_900_000, None, &metas[32..]);
        let (recon, timelines) =
            reconstruct(&topo, &c.into_bundle(), &ReconstructionConfig::default()).unwrap();
        let ms = Microscope::new(topo, vec![1e6], DiagnosisConfig::default());
        let victim = Victim {
            trace: 63,
            nf: NfId(0),
            hop: 0,
            arrival_ts: 1_000_000 + 63 * 10_000,
            observed_ts: 2_900_000,
            kind: VictimKind::HighLatency,
        };
        let d = ms.diagnose(&recon, &timelines, victim);
        let top = &d.culprits[0];
        assert_eq!(top.node, NodeId::Nf(NfId(0)), "culprits: {:?}", d.culprits);
        assert_eq!(top.kind, CulpritKind::LocalProcessing);
    }

    #[test]
    fn min_score_prunes_noise() {
        let (topo, recon, timelines) = build_interrupt_scenario();
        let ms = Microscope::new(
            topo,
            vec![1e6, 1e6],
            DiagnosisConfig {
                min_score: 1e9, // absurd: nothing passes
                ..Default::default()
            },
        );
        let victim = Victim {
            trace: 63,
            nf: NfId(1),
            hop: 1,
            arrival_ts: 7_100_100,
            observed_ts: 7_164_000,
            kind: VictimKind::HighLatency,
        };
        let d = ms.diagnose(&recon, &timelines, victim);
        assert!(d.culprits.is_empty());
        assert_eq!(d.recursions, 0);
    }
}
