//! Diagnosis index: the PreSet flow histogram's dense keys, gathered once
//! per run instead of once per (victim × arrival).
//!
//! PreSet flow counting iterates queuing-period slices of
//! `timeline.arrivals` and needs each arrival's flow. [`DiagnosisIndex`]
//! interns the flows into dense ids and lays them out per NF, aligned with
//! `timeline.arrivals`, which turns the histogram from a
//! `HashMap<FiveTuple, f64>` per period into an epoch-stamped array
//! accumulate — the same counts, exact in `u64`.
//!
//! Arrivals that are not [`ArrivalKind::Queued`] carry `u32::MAX`; the
//! histogram skips on that sentinel, exactly where the old code skipped on
//! the arrival kind.
//!
//! Nothing else is copied per arrival. Earlier versions also laid out path
//! id, emission time, hop range and dense departure / arrival lanes for the
//! §4.2 walk (32 B per arrival + 16 B per hop); the walk samples at most
//! 8 192 arrivals of each *distinct* period, so gathering those for every
//! arrival cost more than it saved — DESIGN.md §12 has the measurement.

use msc_trace::{ArrivalKind, Reconstruction, Timelines};
use nf_types::FiveTuple;

/// Per-run flow index over `(recon, timelines)`. Pure data: building it
/// twice yields identical columns, so diagnosis output cannot depend on
/// whether an index is shared or rebuilt.
#[derive(Debug)]
pub struct DiagnosisIndex {
    /// Interned flows, in order of first appearance across `recon.traces`.
    /// `flow_table[flow_id]` recovers the five-tuple.
    pub flow_table: Vec<FiveTuple>,
    /// Per NF (indexed by `NfId`), aligned with
    /// `timelines.nf(nf).arrivals`: the interned flow of the arrival's
    /// trace; `u32::MAX` for non-queued arrivals (the skip sentinel).
    pub flow_id: Vec<Vec<u32>>,
}

/// A five-tuple packed into one integer key: 32+32+16+16+8 = 104 bits.
#[inline]
fn pack(f: &FiveTuple) -> u128 {
    (f.src_ip as u128) << 72
        | (f.dst_ip as u128) << 40
        | (f.src_port as u128) << 24
        | (f.dst_port as u128) << 8
        | f.proto.0 as u128
}

/// Multiply-shift hash of a packed five-tuple (linear probing absorbs the
/// residual clustering; the table never exceeds 50% load).
#[inline]
fn hash_packed(key: u128) -> usize {
    let folded = (key as u64) ^ ((key >> 64) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (folded.wrapping_mul(0xD1B5_4A32_D192_ED03) >> 24) as usize
}

impl DiagnosisIndex {
    /// Builds the index: one pass over the traces (flow interning) and one
    /// pass over every NF's arrivals (one gather each).
    ///
    /// Interning uses a hand-rolled open-addressing table keyed on the
    /// packed five-tuple — insertion order (and thus every id) is first
    /// appearance across `recon.traces`, exactly what a `HashMap` entry
    /// insert produced, at a fraction of the per-trace hashing cost.
    pub fn build(recon: &Reconstruction, timelines: &Timelines) -> Self {
        let cap = (recon.traces.len().max(8) * 2).next_power_of_two();
        let mask = cap - 1;
        // Slot holds a flow id, `u32::MAX` = empty; keys live in a table
        // parallel to `flow_table` so a probe compares one u128.
        let mut slots: Vec<u32> = vec![u32::MAX; cap];
        let mut keys: Vec<u128> = Vec::new();
        let mut flow_table: Vec<FiveTuple> = Vec::new();
        let trace_flow: Vec<u32> = recon
            .traces
            .iter()
            .map(|t| {
                let key = pack(&t.flow);
                let mut i = hash_packed(key) & mask;
                loop {
                    match slots[i] {
                        u32::MAX => {
                            // The slot count is bounded far below u32::MAX.
                            let id = flow_table.len() as u32;
                            slots[i] = id;
                            flow_table.push(t.flow);
                            keys.push(key);
                            break id;
                        }
                        id if keys[id as usize] == key => break id,
                        _ => i = (i + 1) & mask,
                    }
                }
            })
            .collect();

        let flow_id = timelines
            .nfs
            .iter()
            .map(|tl| {
                tl.arrivals
                    .iter()
                    .map(|a| match a.kind {
                        ArrivalKind::Queued => trace_flow[a.trace as usize],
                        ArrivalKind::Dropped => u32::MAX,
                    })
                    .collect()
            })
            .collect();

        Self {
            flow_table,
            flow_id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_collector::{Collector, CollectorConfig, PacketMeta};
    use msc_trace::{reconstruct, ReconstructionConfig};
    use nf_types::{NfKind, Proto, Topology};

    #[test]
    fn flow_ids_align_with_arrivals_and_intern_flows() {
        let mut b = Topology::builder();
        let nat = b.add_nf(NfKind::Nat, "nat1");
        let vpn = b.add_nf(NfKind::Vpn, "vpn1");
        b.add_entry(nat);
        b.add_edge(nat, vpn);
        let topo = b.build().unwrap();
        let mut c = Collector::new(&topo, CollectorConfig::default());
        let metas: Vec<PacketMeta> = (0..16u16)
            .map(|i| PacketMeta {
                ipid: i,
                // Two flows, alternating.
                flow: FiveTuple::new(0x0a000001, 0x14000001, 1000 + i % 2, 80, Proto::TCP),
            })
            .collect();
        for (i, m) in metas.iter().enumerate() {
            c.record_source(i as u64 * 10_000, m);
        }
        c.record_rx(nat, 200_000, &metas);
        c.record_tx(nat, 210_000, Some(vpn), &metas);
        c.record_rx(vpn, 210_000, &metas);
        c.record_tx(vpn, 230_000, None, &metas);
        let (recon, timelines) =
            reconstruct(&topo, &c.into_bundle(), &ReconstructionConfig::default()).unwrap();

        let index = DiagnosisIndex::build(&recon, &timelines);
        assert_eq!(index.flow_table.len(), 2);
        assert_eq!(index.flow_id.len(), 2);
        for (nf, flow_id) in index.flow_id.iter().enumerate() {
            let arrivals = &timelines.nfs[nf].arrivals;
            assert_eq!(flow_id.len(), arrivals.len());
            for (&id, a) in flow_id.iter().zip(arrivals) {
                if a.kind == ArrivalKind::Queued {
                    let tr = &recon.traces[a.trace as usize];
                    assert_eq!(index.flow_table[id as usize], tr.flow);
                } else {
                    assert_eq!(id, u32::MAX);
                }
            }
        }
    }
}
