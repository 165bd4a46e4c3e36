//! Small, self-contained samplers for the distributions the workload model
//! needs.
//!
//! `rand` ships uniform sampling; the heavy-tailed and skewed distributions
//! (Pareto flow sizes, Zipf address popularity, exponential inter-arrivals)
//! live in `rand_distr`, which is not on the approved dependency list — so we
//! implement the three samplers directly. All use inverse-transform sampling
//! and are deterministic given the RNG.

use rand::Rng;

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// Used for Poisson inter-arrival gaps of the background traffic.
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates the distribution. Panics unless `lambda > 0`.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda > 0.0 && lambda.is_finite(),
            "lambda must be positive"
        );
        Self { lambda }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse transform: -ln(U)/λ with U in (0,1].
        let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
        -u.ln() / self.lambda
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        1.0 / self.lambda
    }
}

/// Pareto (type I) distribution: `P(X > x) = (xm/x)^alpha` for `x >= xm`.
///
/// Used for flow sizes: most flows are mice, a few are elephants — the shape
/// that makes some flow aggregates dominate queue build-ups (§6.5 of the
/// paper observes exactly this).
#[derive(Debug, Clone, Copy)]
pub struct Pareto {
    xm: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates the distribution. Panics unless both parameters are positive.
    pub fn new(xm: f64, alpha: f64) -> Self {
        assert!(xm > 0.0 && xm.is_finite(), "xm must be positive");
        assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be positive");
        Self { xm, alpha }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
        self.xm / u.powf(1.0 / self.alpha)
    }

    /// The scale (minimum) parameter.
    pub fn min(&self) -> f64 {
        self.xm
    }

    /// The mean, infinite when `alpha <= 1`.
    pub fn mean(&self) -> f64 {
        if self.alpha <= 1.0 {
            f64::INFINITY
        } else {
            self.alpha * self.xm / (self.alpha - 1.0)
        }
    }
}

/// Zipf distribution over ranks `0..n` with exponent `s`:
/// `P(rank k) ∝ 1/(k+1)^s`.
///
/// Used for flow-slot popularity (which flows the next packet belongs to),
/// giving the skewed flow mix of real traces. Sampling is O(log n) via a
/// precomputed CDF table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates the distribution over `n` ranks. Panics if `n == 0` or `s`
    /// is negative/non-finite (`s == 0` degenerates to uniform, allowed).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!(s >= 0.0 && s.is_finite(), "exponent must be >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if there is a single rank.
    pub fn is_empty(&self) -> bool {
        false // `new` guarantees n > 0; kept for API symmetry with clippy.
    }

    /// Draws one rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Exponential::new(1.0 / 250.0);
        let mut r = rng();
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut r)).sum();
        let mean = sum / n as f64;
        assert!((mean - 250.0).abs() < 10.0, "mean {mean}");
    }

    #[test]
    fn exponential_is_positive() {
        let d = Exponential::new(3.0);
        let mut r = rng();
        for _ in 0..1000 {
            assert!(d.sample(&mut r) >= 0.0);
        }
    }

    #[test]
    fn pareto_respects_minimum() {
        let d = Pareto::new(50.0, 1.3);
        let mut r = rng();
        for _ in 0..1000 {
            assert!(d.sample(&mut r) >= 50.0);
        }
    }

    #[test]
    fn pareto_mean_converges_when_finite() {
        let d = Pareto::new(10.0, 3.0); // mean = 15
        let mut r = rng();
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 15.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn pareto_infinite_mean_flagged() {
        assert!(Pareto::new(1.0, 0.9).mean().is_infinite());
    }

    #[test]
    fn zipf_is_skewed() {
        let d = Zipf::new(100, 1.0);
        let mut r = rng();
        let mut counts = vec![0usize; 100];
        for _ in 0..100_000 {
            counts[d.sample(&mut r)] += 1;
        }
        // Rank 0 should be roughly 10x more popular than rank 9 under s=1...
        // (1/1)/(1/10) = 10. Allow generous slack.
        assert!(counts[0] > 5 * counts[9], "{} vs {}", counts[0], counts[9]);
        // Every rank reachable in principle; at least the head is hit.
        assert!(counts[99] < counts[0]);
    }

    #[test]
    fn zipf_zero_exponent_is_uniformish() {
        let d = Zipf::new(10, 0.0);
        let mut r = rng();
        let mut counts = vec![0usize; 10];
        for _ in 0..100_000 {
            counts[d.sample(&mut r)] += 1;
        }
        for &c in &counts {
            assert!((c as i64 - 10_000).abs() < 1_000, "{counts:?}");
        }
    }

    #[test]
    fn zipf_samples_in_range() {
        let d = Zipf::new(3, 2.0);
        let mut r = rng();
        for _ in 0..1000 {
            assert!(d.sample(&mut r) < 3);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let d = Pareto::new(1.0, 1.5);
        let a: Vec<f64> = {
            let mut r = rng();
            (0..10).map(|_| d.sample(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = rng();
            (0..10).map(|_| d.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
