//! Per-packet service-cost models.
//!
//! Each NF kind gets a base per-packet cost (the inverse of its peak rate
//! `r_i`, which the paper measures by offline stress testing) plus two noise
//! terms that model real software dataplanes: small multiplicative jitter
//! (pipeline/cache variation) and rare additive spikes (LLC misses, TLB
//! shootdowns). Bug rules (per-flow slow paths) are handled by the fault
//! layer, not here.

use nf_types::{Nanos, NfKind};
use rand::rngs::StdRng;
use rand::Rng;

/// Service-cost model of one NF instance.
#[derive(Debug, Clone)]
pub struct ServiceModel {
    /// Deterministic base cost per packet in nanoseconds. The NF's peak
    /// processing rate is `1e9 / base_cost_ns` pps.
    pub base_cost_ns: Nanos,
    /// Multiplicative jitter amplitude as a fraction (0.05 = ±5% uniform).
    pub jitter_frac: f64,
    /// Probability that a packet takes a cache-miss spike.
    pub spike_prob: f64,
    /// Additional cost of a spike in nanoseconds.
    pub spike_ns: Nanos,
}

impl ServiceModel {
    /// A noiseless model (unit tests, calibration).
    pub fn deterministic(base_cost_ns: Nanos) -> Self {
        Self {
            base_cost_ns,
            jitter_frac: 0.0,
            spike_prob: 0.0,
            spike_ns: 0,
        }
    }

    /// The defaults we use for the paper's four NF kinds. Peak rates land in
    /// the band typical for single-core Click-DPDK NFs with 64-byte packets:
    /// stateless forwarding paths (NAT/firewall/monitor) near 1.6–2.5 Mpps,
    /// the crypto-bound VPN around 0.63 Mpps. The large headroom gap between
    /// the fast NFs and the VPN is what lets an upstream NF's post-stall
    /// release overwhelm a downstream VPN — the propagation regime of §2
    /// and Table 2.
    pub fn for_kind(kind: NfKind) -> Self {
        let (base, jitter, spike_prob, spike_ns) = match kind {
            NfKind::Nat => (520, 0.04, 2e-4, 2_600),
            NfKind::Firewall => (610, 0.05, 2e-4, 3_000),
            NfKind::Monitor => (400, 0.03, 1e-4, 2_000),
            NfKind::Vpn => (1_580, 0.05, 2e-4, 7_600),
            NfKind::Custom(_) => (600, 0.04, 2e-4, 3_000),
        };
        Self {
            base_cost_ns: base,
            jitter_frac: jitter,
            spike_prob,
            spike_ns,
        }
    }

    /// The peak processing rate `r_i` in packets/second implied by the base
    /// cost — what Microscope is configured with.
    pub fn peak_rate_pps(&self) -> f64 {
        1e9 / self.base_cost_ns as f64
    }

    /// Draws the cost of processing one packet.
    pub fn sample_cost(&self, rng: &mut StdRng) -> Nanos {
        let mut cost = self.base_cost_ns as f64;
        if self.jitter_frac > 0.0 {
            let j: f64 = rng.gen_range(-self.jitter_frac..=self.jitter_frac);
            cost *= 1.0 + j;
        }
        let mut total = cost.round() as Nanos;
        if self.spike_prob > 0.0 && rng.gen_bool(self.spike_prob) {
            total = total.saturating_add(self.spike_ns);
        }
        total.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn deterministic_model_is_exact() {
        let m = ServiceModel::deterministic(500);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(m.sample_cost(&mut rng), 500);
        }
    }

    #[test]
    fn jitter_stays_in_band() {
        let m = ServiceModel {
            base_cost_ns: 1000,
            jitter_frac: 0.1,
            spike_prob: 0.0,
            spike_ns: 0,
        };
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let c = m.sample_cost(&mut rng);
            assert!((900..=1100).contains(&c), "cost {c}");
        }
    }

    #[test]
    fn spikes_occur_at_roughly_configured_rate() {
        let m = ServiceModel {
            base_cost_ns: 1000,
            jitter_frac: 0.0,
            spike_prob: 0.01,
            spike_ns: 50_000,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let spikes = (0..n).filter(|_| m.sample_cost(&mut rng) > 10_000).count();
        let rate = spikes as f64 / n as f64;
        assert!((rate - 0.01).abs() < 0.003, "spike rate {rate}");
    }

    #[test]
    fn peak_rate_inverse_of_cost() {
        let m = ServiceModel::deterministic(500);
        assert!((m.peak_rate_pps() - 2_000_000.0).abs() < 1.0);
    }

    #[test]
    fn kind_defaults_ordering() {
        // VPN is the slowest, monitor the fastest — the shape the paper's
        // chain relies on (VPN queues build first).
        let vpn = ServiceModel::for_kind(NfKind::Vpn).peak_rate_pps();
        let mon = ServiceModel::for_kind(NfKind::Monitor).peak_rate_pps();
        let nat = ServiceModel::for_kind(NfKind::Nat).peak_rate_pps();
        assert!(vpn < nat && nat < mon);
    }
}
