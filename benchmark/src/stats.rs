//! Order statistics over run samples, and the metric-name rule.

/// Smallest sample (0 for an empty slice).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Largest sample (0 for an empty slice).
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median, averaging the two middle samples of an even count (0 if empty).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the "exclusive" method); needs two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median — the spread the
/// acceptance rule compares with a metric's bound. 0 when undefined.
pub fn spread(xs: &[f64]) -> f64 {
    let med = median(xs);
    match quartiles(xs) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// Metric and workload names: start with a letter or digit, then at most
/// 63 more of `[A-Za-z0-9_.-]`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_median_max() {
        let xs = [3.0, 1.0, 2.0, 10.0];
        assert_eq!(min(&xs), 1.0);
        assert_eq!(max(&xs), 10.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(mean(&xs), 4.0);
        assert_eq!(min(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn name_charset() {
        for ok in [
            "wall_s",
            "offline-250ms",
            "trace.reconstruct_ns_per_pkt",
            "4k",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
