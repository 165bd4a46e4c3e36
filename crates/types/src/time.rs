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

    /// The smallest interval covering both inputs.
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
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
    }

    #[test]
    fn interval_hull() {
        let a = Interval::new(0, 10);
        let c = Interval::new(30, 40);
        assert_eq!(a.hull(&c), Interval::new(0, 40));
    }

    #[test]
    fn unit_constants() {
        assert_eq!(MICROS * 1000, MILLIS);
        assert_eq!(MILLIS * 1000, SECONDS);
    }
}
