//! The pre-rewrite clock-offset estimator, moved verbatim out of
//! `msc_trace::skew`: a fresh `EdgeStreams` and a deep `correct_bundle`
//! clone per refinement pass, a `HashMap<Ipid, Vec<_>>` of the downstream rx
//! stream per edge per pass, and every same-IPID (send, read) pair pushed
//! through a `Vec` and a `HashMap<i64, usize>` histogram.
//!
//! It is the naive reference of `tests/skew_equivalence.rs` and the
//! `baseline_skew_estimate_ms` row of `cargo bench -p msc-bench --bench
//! diagnose` (both include this file by path); nothing in the library
//! reaches it.

use msc_collector::TraceBundle;
use msc_trace::{correct_bundle, EdgeStreams, SkewConfig, SkewEstimates};
use nf_types::{Ipid, Nanos, NfId, NodeId, TimeDelta, Topology};
use std::collections::HashMap;

/// Per-edge raw estimate of `offset(down) − offset(up)`.
///
/// Pairs the edge's send stream with the downstream read stream by greedy
/// in-order IPID matching (both streams preserve the edge's relative packet
/// order), then takes a low percentile of the read−send deltas. The greedy
/// pairing occasionally grabs a same-IPID packet from *another* upstream
/// (collisions), and every true pair carries a non-negative queueing delay;
/// a percentile between those two failure modes is robust to both.
fn edge_delta(
    streams: &EdgeStreams,
    up: NodeId,
    down: NfId,
    cfg: &SkewConfig,
) -> Option<TimeDelta> {
    let rx = &streams.nfs[down.0 as usize];
    // Per-IPID positions in the rx stream for O(log) in-order lookup.
    let mut rx_by_ipid: HashMap<Ipid, Vec<usize>> = HashMap::new();
    for (i, &ipid) in rx.rx_ipid.iter().enumerate() {
        rx_by_ipid.entry(ipid).or_default().push(i);
    }
    // Pairs whose IPID recurs nearby in the rx stream are likely cross-edge
    // collisions; skip them (we only need *some* clean samples).
    const AMBIG_DIST: usize = 96;
    let mut cursor = 0usize;
    let mut deltas: Vec<TimeDelta> = Vec::new();
    for (tx_ts, ipid) in streams.edge_entries(up, down) {
        let Some(positions) = rx_by_ipid.get(&ipid) else {
            continue;
        };
        let i = positions.partition_point(|&p| p < cursor);
        let Some(&rx_idx) = positions.get(i) else {
            continue;
        };
        let prev_close = i > 0 && rx_idx.saturating_sub(positions[i - 1]) < AMBIG_DIST;
        let next_close = positions
            .get(i + 1)
            .is_some_and(|&n| n - rx_idx < AMBIG_DIST);
        cursor = rx_idx + 1;
        if prev_close || next_close {
            continue;
        }
        deltas.push(rx.rx_ts[rx_idx] as i64 - tx_ts as i64);
    }
    if deltas.len() < cfg.min_samples {
        return None;
    }
    deltas.sort_unstable();
    let idx = ((deltas.len() - 1) as f64 * cfg.percentile).round() as usize;
    Some(deltas[idx])
}

/// Estimates each NF's clock offset relative to the traffic source,
/// reporting which NFs actually had usable edge samples.
///
/// Subtracting an NF's offset from its record timestamps moves them onto
/// the source clock.
pub fn estimate_offsets_detailed(
    topology: &Topology,
    bundle: &TraceBundle,
    cfg: &SkewConfig,
) -> SkewEstimates {
    let streams = EdgeStreams::build(topology, bundle);
    let mut offsets: Vec<Option<TimeDelta>> = vec![None; topology.len()];

    for &nf in topology.topo_order() {
        let mut estimates: Vec<TimeDelta> = Vec::new();
        for up in topology.upstream_nodes(nf) {
            let up_offset = match up {
                NodeId::Source => Some(0),
                NodeId::Nf(u) => offsets[u.0 as usize],
            };
            let (Some(up_off), Some(delta)) = (up_offset, edge_delta(&streams, up, nf, cfg)) else {
                continue;
            };
            estimates.push(up_off + delta);
        }
        if !estimates.is_empty() {
            offsets[nf.0 as usize] = Some(estimates.iter().sum::<i64>() / estimates.len() as i64);
        }
    }
    SkewEstimates {
        available: offsets.iter().map(Option::is_some).collect(),
        offsets: offsets.into_iter().map(|o| o.unwrap_or(0)).collect(),
    }
}

/// [`estimate_offsets_refined`] plus per-NF availability: an NF counts as
/// estimated when the coarse pass had edge samples *or* any refinement
/// pass found a coherent cross-correlation spike on one of its edges —
/// which is what tells a refined zero from the zero fallback.
pub fn estimate_offsets_refined_detailed(
    topology: &Topology,
    bundle: &TraceBundle,
    cfg: &SkewConfig,
) -> SkewEstimates {
    let coarse = estimate_offsets_detailed(topology, bundle, cfg);
    let mut est = coarse.offsets;
    let mut available = coarse.available;

    for (bin_ns, search_ns) in [
        (100_000i64, 20_000_000i64),
        (10_000, 2_000_000),
        (1_000, 200_000),
    ] {
        let corrected = correct_bundle(bundle, &est);
        let streams = EdgeStreams::build(topology, &corrected);
        let mut residual = vec![0i64; topology.len()];
        for &nf in topology.topo_order() {
            let mut estimates: Vec<TimeDelta> = Vec::new();
            for up in topology.upstream_nodes(nf) {
                let Some(delta) = edge_residual(&streams, up, nf, bin_ns, search_ns, cfg) else {
                    continue;
                };
                let up_res = match up {
                    NodeId::Source => 0,
                    NodeId::Nf(u) => residual[u.0 as usize],
                };
                estimates.push(up_res + delta);
            }
            if !estimates.is_empty() {
                residual[nf.0 as usize] = estimates.iter().sum::<i64>() / estimates.len() as i64;
                available[nf.0 as usize] = true;
            }
        }
        for (e, r) in est.iter_mut().zip(&residual) {
            *e += r;
        }
    }
    SkewEstimates {
        offsets: est,
        available,
    }
}

/// One cross-correlation residual estimate for an edge (see
/// [`estimate_offsets_refined`]).
fn edge_residual(
    streams: &EdgeStreams,
    up: NodeId,
    down: NfId,
    bin_ns: i64,
    search_ns: i64,
    cfg: &SkewConfig,
) -> Option<TimeDelta> {
    let mut rx_by_ipid: HashMap<Ipid, Vec<Nanos>> = HashMap::new();
    for (ts, ipid) in streams.nfs[down.0 as usize].rx() {
        rx_by_ipid.entry(ipid).or_default().push(ts);
    }
    let mut deltas: Vec<TimeDelta> = Vec::new();
    for (tx_ts, ipid) in streams.edge_entries(up, down) {
        let Some(times) = rx_by_ipid.get(&ipid) else {
            continue;
        };
        let lo = times.partition_point(|&t| (t as i64) < tx_ts as i64 - search_ns);
        for &t in &times[lo..] {
            let d = t as i64 - tx_ts as i64;
            if d > search_ns {
                break;
            }
            deltas.push(d);
        }
    }
    if deltas.len() < cfg.min_samples {
        return None;
    }
    let mut bins: HashMap<i64, usize> = HashMap::new();
    for &d in &deltas {
        *bins.entry(d.div_euclid(bin_ns)).or_default() += 1;
    }
    let n_bins = (2 * search_ns / bin_ns) as usize;
    let noise = deltas.len() / n_bins.max(1) + 1;
    // Max over the composite key (count, bin): equal counts are broken by
    // the bin value, so the winner is independent of HashMap order.
    #[expect(
        clippy::disallowed_methods,
        reason = "a max over the total key (count, bin) does not depend on visit order"
    )]
    let (&peak_bin, &peak_n) = bins.iter().max_by_key(|&(&b, &n)| (n, b))?;
    if peak_n < 4 * noise {
        return None; // no coherent spike — refuse rather than guess
    }
    // The spike's lower boundary is its steepest rise: queueing delay is
    // non-negative, so the coherent mass starts abruptly at the residual.
    // Clamp the scan to the contiguously populated run of bins ending at
    // the peak: the coherent mass is contiguous by construction, so bins
    // past the first gap belong to detached collision clusters — scanning
    // into one used to pick its rise and drag the `min` below far under
    // the true spike edge (and a peak at the minimum populated bin must
    // simply scan itself).
    let mut lo = peak_bin - (1_000_000 / bin_ns).max(4);
    while lo < peak_bin && !bins.contains_key(&lo) {
        lo += 1;
    }
    let mut run_lo = peak_bin;
    while run_lo > lo && bins.contains_key(&(run_lo - 1)) {
        run_lo -= 1;
    }
    let edge_bin = (run_lo..=peak_bin)
        .max_by_key(|b| {
            bins.get(b).copied().unwrap_or(0) as i64
                - bins.get(&(b - 1)).copied().unwrap_or(0) as i64
        })
        .unwrap_or(peak_bin);
    deltas
        .iter()
        .filter(|&&d| {
            let b = d.div_euclid(bin_ns);
            b >= edge_bin && b <= peak_bin
        })
        .min()
        .copied()
}
