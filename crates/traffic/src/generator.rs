//! Workload generators: CAIDA-like background traffic and injectable
//! anomalies.

use crate::distributions::{Exponential, Pareto, Zipf};
use crate::schedule::Schedule;
use nf_types::{FiveTuple, Nanos, Proto};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// Configuration of the CAIDA-like background traffic.
///
/// Defaults approximate the paper's evaluation workload: 1.2 Mpps aggregate
/// of 64-byte packets, thousands of concurrent flows with heavy-tailed sizes.
#[derive(Debug, Clone, Copy)]
pub struct CaidaLikeConfig {
    /// Aggregate packet rate in packets/second.
    pub rate_pps: f64,
    /// Number of simultaneously active flow slots.
    pub active_flows: usize,
}

impl Default for CaidaLikeConfig {
    fn default() -> Self {
        Self {
            rate_pps: 1_200_000.0,
            active_flows: 2048,
        }
    }
}

/// Zipf exponent of flow-slot popularity (0 = uniform).
const ZIPF_EXPONENT: f64 = 1.0;
/// Pareto shape for flow sizes in packets (smaller = heavier tail).
const FLOW_SIZE_ALPHA: f64 = 1.3;
/// Pareto scale: minimum flow size in packets.
const FLOW_SIZE_MIN: f64 = 8.0;
/// Packet size in bytes (the paper uses 64).
const PACKET_SIZE: u16 = 64;
/// Number of distinct source /24 networks flows are drawn from.
const SRC_NETWORKS: u32 = 256;
/// Number of distinct destination /24 networks.
const DST_NETWORKS: u32 = 256;
/// Probability that a flow emission is a back-to-back clump (a TCP
/// window's worth of packets) instead of a single packet. Real CAIDA
/// traces are strongly bursty at the flow level; §6.5 of the paper
/// observes that "some flows are more likely to form bursts and lead to
/// problems".
const CLUMP_PROB: f64 = 0.04;
const _: () = assert!(CLUMP_PROB > 0.0 && CLUMP_PROB < 1.0);
/// Maximum clump size in packets (uniform 2..=max when clumping).
const CLUMP_MAX: u64 = 48;
/// Intra-clump packet gap in nanoseconds (near line rate).
const CLUMP_GAP_NS: Nanos = 300;

/// Deterministic CAIDA-like traffic generator.
///
/// Aggregate arrivals are Poisson at `rate_pps`; each arrival is charged to a
/// flow slot drawn from a Zipf popularity distribution; each slot holds a
/// five-tuple flow with a Pareto-distributed remaining budget and re-keys to
/// a fresh flow when the budget is exhausted (flow churn). The result has the
/// three properties the evaluation leans on: constant average rate,
/// fine-timescale burstiness, and a skewed flow mix.
pub struct CaidaLike {
    rng: StdRng,
    zipf: Zipf,
    gap: Exponential,
    sizes: Pareto,
    slots: Vec<SlotState>,
    next_ephemeral: u16,
}

struct SlotState {
    flow: FiveTuple,
    remaining: u64,
}

impl CaidaLike {
    /// Creates a generator with the given seed.
    pub fn new(cfg: CaidaLikeConfig, seed: u64) -> Self {
        assert!(cfg.rate_pps > 0.0, "rate must be positive");
        assert!(cfg.active_flows > 0, "need at least one flow slot");
        let mut rng = StdRng::seed_from_u64(seed);
        let zipf = Zipf::new(cfg.active_flows, ZIPF_EXPONENT);
        // Emission opportunities arrive Poisson; each yields one packet or
        // a clump, so scale the opportunity rate down by the expected
        // packets per opportunity to hold the aggregate rate at target.
        let mean_clump = 1.0 + (CLUMP_MAX as f64) / 2.0;
        let packets_per_opp = (1.0 - CLUMP_PROB) + CLUMP_PROB * mean_clump;
        let gap = Exponential::new(cfg.rate_pps / packets_per_opp / 1e9); // events per ns
        let sizes = Pareto::new(FLOW_SIZE_MIN, FLOW_SIZE_ALPHA);
        let mut next_ephemeral = 1024;
        let slots = (0..cfg.active_flows)
            .map(|_| SlotState {
                flow: random_flow(&mut rng, &mut next_ephemeral),
                remaining: sizes.sample(&mut rng).ceil() as u64,
            })
            .collect();
        Self {
            rng,
            zipf,
            gap,
            sizes,
            slots,
            next_ephemeral,
        }
    }

    /// Generates traffic for `[start, start+duration)`, in time order.
    ///
    /// Emission opportunities come in time order, but a clump's packets
    /// interleave with the opportunities after it. Each clump's unsent tail
    /// waits in a heap keyed by `(at, k)`, `k` being the packet's place had
    /// every clump been written out whole: the order a stable sort by time
    /// would give that list.
    pub fn generate(&mut self, start: Nanos, duration: Nanos) -> Schedule {
        let mut sched = Schedule::new();
        // (at, k, packets left, flow) of the next packet of each clump.
        let mut tails: BinaryHeap<Reverse<(Nanos, u64, u64, FiveTuple)>> = BinaryHeap::new();
        let mut k: u64 = 0;
        let mut t = start as f64;
        let end = (start + duration) as f64;
        loop {
            t += self.gap.sample(&mut self.rng);
            if t >= end {
                break;
            }
            let at = t as Nanos;
            // Tails due no later than `at` come first: `k` only grows.
            while tails.peek().is_some_and(|Reverse(tail)| tail.0 <= at) {
                pop_tail(&mut tails, &mut sched);
            }
            let slot_idx = self.zipf.sample(&mut self.rng);
            let clump = if self.rng.gen_bool(CLUMP_PROB) {
                self.rng.gen_range(2..=CLUMP_MAX)
            } else {
                1
            };
            let slot = &mut self.slots[slot_idx];
            // A clump may run past the flow's remaining budget (the flow
            // simply ends afterwards): truncating instead would bias the
            // aggregate rate below target.
            let n = clump;
            sched.push(at, slot.flow, PACKET_SIZE);
            if n > 1 {
                tails.push(Reverse((at + CLUMP_GAP_NS, k + 1, n - 1, slot.flow)));
            }
            k += n;
            slot.remaining = slot.remaining.saturating_sub(n);
            if slot.remaining == 0 {
                slot.flow = random_flow(&mut self.rng, &mut self.next_ephemeral);
                slot.remaining = self.sizes.sample(&mut self.rng).ceil() as u64;
            }
        }
        while !tails.is_empty() {
            pop_tail(&mut tails, &mut sched);
        }
        sched
    }

    /// A snapshot of the currently active flows (useful to pick burst
    /// victims from live traffic, as the paper does: "we randomly select 5
    /// five-tuple flows").
    pub fn active_flows(&self) -> Vec<FiveTuple> {
        self.slots.iter().map(|s| s.flow).collect()
    }
}

/// Emits the earliest clump tail's next packet and puts the rest back.
fn pop_tail(tails: &mut BinaryHeap<Reverse<(Nanos, u64, u64, FiveTuple)>>, sched: &mut Schedule) {
    if let Some(mut top) = tails.peek_mut() {
        let Reverse((at, k, left, flow)) = *top;
        sched.push(at, flow, PACKET_SIZE);
        if left > 1 {
            *top = Reverse((at + CLUMP_GAP_NS, k + 1, left - 1, flow));
        } else {
            PeekMut::pop(top);
        }
    }
}

fn random_flow(rng: &mut StdRng, next_ephemeral: &mut u16) -> FiveTuple {
    // Addresses: pick a /24 network and a host inside it. Networks are laid
    // out under 10.0.0.0/8 (sources) and 20.0.0.0/8 (destinations).
    let src_net: u32 = rng.gen_range(0..SRC_NETWORKS);
    let dst_net: u32 = rng.gen_range(0..DST_NETWORKS);
    let src_ip = (10 << 24) | (src_net << 8) | rng.gen_range(1..255);
    let dst_ip = (20 << 24) | (dst_net << 8) | rng.gen_range(1..255);
    let src_port = {
        let p = *next_ephemeral;
        *next_ephemeral = next_ephemeral.checked_add(1).unwrap_or(1024).max(1024);
        p
    };
    const SERVICES: [u16; 7] = [80, 443, 53, 22, 8080, 25, 993];
    let dst_port = SERVICES[rng.gen_range(0..SERVICES.len())];
    let proto = if rng.gen_bool(0.85) {
        Proto::TCP
    } else {
        Proto::UDP
    };
    FiveTuple::new(src_ip, dst_ip, src_port, dst_port, proto)
}

/// A line-rate traffic burst: `count` packets of `size` bytes from `flow`,
/// spaced `gap_ns` apart starting at `start`.
///
/// This reproduces the paper's injected bursts (§6.2: 500–2500 packets).
pub fn burst(flow: FiveTuple, start: Nanos, count: u64, gap_ns: Nanos, size: u16) -> Schedule {
    let mut s = Schedule::new();
    for i in 0..count {
        s.push(start + i * gap_ns, flow, size);
    }
    s
}

/// A constant-rate flow from `start` (inclusive) to `end` (exclusive) at
/// `rate_pps` — the paper's "flow A" probes and fixed-rate feeds (Fig. 2/3).
pub fn cbr(flow: FiveTuple, start: Nanos, end: Nanos, rate_pps: f64, size: u16) -> Schedule {
    assert!(rate_pps > 0.0, "rate must be positive");
    let gap = (1e9 / rate_pps) as Nanos;
    let mut s = Schedule::new();
    let mut t = start;
    while t < end {
        s.push(t, flow, size);
        t += gap.max(1);
    }
    s
}

/// Intermittent short flows (the §6.4 bug-trigger pattern): every `period`,
/// one of the `flows` (round-robin) sends `flow_size` packets back-to-back at
/// `burst_gap_ns` spacing.
pub fn intermittent_flows(
    flows: &[FiveTuple],
    start: Nanos,
    end: Nanos,
    period: Nanos,
    flow_size: u64,
    burst_gap_ns: Nanos,
    size: u16,
) -> Schedule {
    assert!(!flows.is_empty(), "need at least one flow");
    assert!(period > 0, "period must be positive");
    let mut parts = Vec::new();
    let mut t = start;
    let mut i = 0usize;
    while t < end {
        parts.push(burst(
            flows[i % flows.len()],
            t,
            flow_size,
            burst_gap_ns,
            size,
        ));
        i += 1;
        t += period;
    }
    Schedule::merge(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> FiveTuple {
        FiveTuple::new(0x64000001, 0x20000001, 2004, 6004, Proto::TCP)
    }

    #[test]
    fn caida_like_hits_target_rate() {
        let cfg = CaidaLikeConfig {
            rate_pps: 1_200_000.0,
            ..Default::default()
        };
        let mut g = CaidaLike::new(cfg, 7);
        let s = g.generate(0, 40 * nf_types::MILLIS);
        // Expect ~48000 packets in 40 ms; clumping widens the variance, so
        // allow ~5%.
        let n = s.len() as f64;
        assert!((n - 48_000.0).abs() < 2_400.0, "n = {n}");
    }

    /// The generator as it was written first: every clump pushed whole,
    /// then stable-sorted by time.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the same time and flow-size casts as `generate`"
    )]
    fn whole_clumps_then_sort(g: &mut CaidaLike, start: Nanos, duration: Nanos) -> Schedule {
        let mut entries = Vec::new();
        let mut t = start as f64;
        let end = (start + duration) as f64;
        loop {
            t += g.gap.sample(&mut g.rng);
            if t >= end {
                break;
            }
            let slot_idx = g.zipf.sample(&mut g.rng);
            let n = if g.rng.gen_bool(CLUMP_PROB) {
                g.rng.gen_range(2..=CLUMP_MAX)
            } else {
                1
            };
            let slot = &mut g.slots[slot_idx];
            for i in 0..n {
                entries.push(crate::ScheduledPacket {
                    at: t as Nanos + i * CLUMP_GAP_NS,
                    flow: slot.flow,
                    size: PACKET_SIZE,
                });
            }
            slot.remaining = slot.remaining.saturating_sub(n);
            if slot.remaining == 0 {
                slot.flow = random_flow(&mut g.rng, &mut g.next_ephemeral);
                slot.remaining = g.sizes.sample(&mut g.rng).ceil() as u64;
            }
        }
        Schedule::from_entries(entries)
    }

    #[test]
    fn caida_like_comes_out_in_stable_sort_order() {
        // Up to 20 Mpps, where most packets sit inside overlapping clumps.
        for seed in 0..8 {
            for rate_mpps in [0.05, 1.4, 5.0, 20.0] {
                let cfg = CaidaLikeConfig {
                    rate_pps: rate_mpps * 1e6,
                    ..Default::default()
                };
                let (mut a, mut b) = (CaidaLike::new(cfg, seed), CaidaLike::new(cfg, seed));
                for (start, len) in [(0, 2 * nf_types::MILLIS), (5_000_000, 300_000)] {
                    let got = a.generate(start, len);
                    assert!(got.pushed().is_sorted_by_key(|e| e.at), "seed {seed}");
                    let want = whole_clumps_then_sort(&mut b, start, len);
                    assert_eq!(
                        got.pushed(),
                        want.pushed(),
                        "seed {seed} at {rate_mpps} Mpps"
                    );
                }
            }
        }
    }

    #[test]
    fn caida_like_is_deterministic() {
        let mk = || {
            let mut g = CaidaLike::new(CaidaLikeConfig::default(), 99);
            g.generate(0, nf_types::MILLIS).entries()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn caida_like_seeds_differ() {
        let mk = |seed| {
            let mut g = CaidaLike::new(CaidaLikeConfig::default(), seed);
            g.generate(0, nf_types::MILLIS).entries()
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn caida_like_has_many_flows_with_skew() {
        let mut g = CaidaLike::new(CaidaLikeConfig::default(), 3);
        let s = g.generate(0, 5 * nf_types::MILLIS);
        let mut counts = std::collections::HashMap::new();
        for e in s.entries() {
            *counts.entry(e.flow).or_insert(0usize) += 1;
        }
        assert!(counts.len() > 200, "only {} flows", counts.len());
        #[expect(clippy::disallowed_methods, reason = "a max is order-insensitive")]
        let max = counts.values().max().unwrap();
        let mean = s.len() / counts.len();
        assert!(*max > 5 * mean, "max {max} mean {mean} — no skew?");
    }

    #[test]
    fn burst_is_back_to_back() {
        let s = burst(flow(), 1000, 5, 20, 64);
        let e = s.entries();
        assert_eq!(e.len(), 5);
        assert_eq!(e[0].at, 1000);
        assert_eq!(e[4].at, 1080);
        assert!(e.iter().all(|p| p.flow == flow()));
    }

    #[test]
    fn cbr_rate() {
        let s = cbr(flow(), 0, nf_types::MILLIS, 100_000.0, 64);
        // 100 kpps for 1 ms = 100 packets.
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn cbr_respects_window() {
        let s = cbr(flow(), 500, 1000, 1e9, 64);
        for e in s.entries() {
            assert!(e.at >= 500 && e.at < 1000);
        }
    }

    #[test]
    fn intermittent_flows_round_robin() {
        let f1 = flow();
        let mut f2 = flow();
        f2.src_port = 2005;
        let s = intermittent_flows(&[f1, f2], 0, 4000, 1000, 3, 10, 64);
        let e = s.entries();
        assert_eq!(e.len(), 12); // 4 bursts × 3 packets
        assert_eq!(e[0].flow, f1);
        assert_eq!(e[3].flow, f2);
        assert_eq!(e[6].flow, f1);
    }
}
