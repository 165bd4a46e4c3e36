//! Simulation time.
//!
//! The whole system uses a single monotonically increasing nanosecond clock.
//! Nanosecond resolution comfortably covers the paper's regime: packet
//! service times are hundreds of nanoseconds to a few microseconds, interrupts
//! are hundreds of microseconds, and experiments run for seconds. A `u64`
//! nanosecond counter wraps after ~584 years of simulated time, so wrapping is
//! not a concern.

/// A point in simulated time, in nanoseconds since the start of the run.
pub type Nanos = u64;

/// A (signed) difference between two [`Nanos`] timestamps.
pub type TimeDelta = i64;

/// One microsecond in [`Nanos`].
pub const MICROS: Nanos = 1_000;
/// One millisecond in [`Nanos`].
pub const MILLIS: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SECONDS: Nanos = 1_000_000_000;

/// A half-open time interval `[start, end)`.
///
/// Used for queuing periods, injected-fault windows and victim windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Inclusive start of the interval.
    pub start: Nanos,
    /// Exclusive end of the interval.
    pub end: Nanos,
}

impl Interval {
    /// Creates `[start, end)`. Panics if `end < start`.
    pub fn new(start: Nanos, end: Nanos) -> Self {
        assert!(end >= start, "interval end {end} before start {start}");
        Self { start, end }
    }

    /// Length of the interval in nanoseconds.
    pub fn len(&self) -> Nanos {
        self.end - self.start
    }

    /// True if the interval contains no time at all.
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }

    /// True if `t` falls inside `[start, end)`.
    pub fn contains(&self, t: Nanos) -> bool {
        t >= self.start && t < self.end
    }

    /// True if the two intervals share any instant.
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// The intersection of two intervals, if non-empty.
    pub fn intersection(&self, other: &Interval) -> Option<Interval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start < end {
            Some(Interval { start, end })
        } else {
            None
        }
    }

    /// The smallest interval covering both inputs.
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

/// Converts a packets-per-second rate into the per-packet service time in
/// nanoseconds, rounding to the nearest nanosecond.
///
/// This is how NF peak processing rates (the paper's `r_i`, measured in pps)
/// are turned into simulator service costs and vice versa.
pub fn pps_to_ns_per_packet(pps: f64) -> Nanos {
    assert!(pps > 0.0, "rate must be positive");
    (1e9 / pps).round() as Nanos
}

/// Converts a per-packet service time in nanoseconds into packets per second.
pub fn ns_per_packet_to_pps(ns: Nanos) -> f64 {
    assert!(ns > 0, "service time must be positive");
    1e9 / ns as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_basics() {
        let i = Interval::new(10, 20);
        assert_eq!(i.len(), 10);
        assert!(!i.is_empty());
        assert!(i.contains(10));
        assert!(i.contains(19));
        assert!(!i.contains(20));
        assert!(!i.contains(9));
    }

    #[test]
    fn empty_interval() {
        let i = Interval::new(5, 5);
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
        assert!(!i.contains(5));
    }

    #[test]
    #[should_panic(expected = "interval end")]
    fn reversed_interval_panics() {
        let _ = Interval::new(20, 10);
    }

    #[test]
    fn interval_overlap() {
        let a = Interval::new(0, 10);
        let b = Interval::new(5, 15);
        let c = Interval::new(10, 20);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        // Half-open: touching at a point is not overlap.
        assert!(!a.overlaps(&c));
        assert_eq!(a.intersection(&b), Some(Interval::new(5, 10)));
        assert_eq!(a.intersection(&c), None);
    }

    #[test]
    fn interval_hull() {
        let a = Interval::new(0, 10);
        let c = Interval::new(30, 40);
        assert_eq!(a.hull(&c), Interval::new(0, 40));
    }

    #[test]
    fn rate_conversions_round_trip() {
        // 1 Mpps -> 1000 ns/pkt -> 1 Mpps.
        let ns = pps_to_ns_per_packet(1_000_000.0);
        assert_eq!(ns, 1000);
        let pps = ns_per_packet_to_pps(ns);
        assert!((pps - 1_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn rate_conversion_rounds() {
        // 3 Mpps -> 333.33 ns, rounds to 333.
        assert_eq!(pps_to_ns_per_packet(3_000_000.0), 333);
    }

    #[test]
    fn unit_constants() {
        assert_eq!(MICROS * 1000, MILLIS);
        assert_eq!(MILLIS * 1000, SECONDS);
    }
}
