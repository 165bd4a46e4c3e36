//! Fault injection and the ground-truth journal.
//!
//! The paper's accuracy evaluation (§6.2) injects three problem types with
//! known ground truth: traffic bursts (created at the source — see
//! `nf_traffic::burst`), CPU interrupts that stall an NF, and NF bugs that
//! process specific flows at a crawl. This module implements the latter two
//! inside the simulator and defines the [`InjectedEvent`] journal that all
//! three share, which the accuracy scorer matches diagnosis output against.

use nf_types::{FiveTuple, FlowAggregate, Interval, Nanos, NfId, NodeId};

/// A fault to inject into the simulation.
#[derive(Debug, Clone, Copy)]
pub enum Fault {
    /// The NF's poll loop stalls for `[at, at + duration)` — a CPU
    /// interrupt / context switch (§6.2 injects 500–1000 µs).
    Interrupt {
        /// Stalled NF.
        nf: NfId,
        /// Stall start.
        at: Nanos,
        /// Stall length.
        duration: Nanos,
    },
    /// A bug: packets of flows matching `matches` are processed at
    /// `per_packet_ns` each instead of the NF's normal cost (§6.2 uses
    /// 0.05 Mpps = 20 µs/packet at one firewall).
    BugRule {
        /// Buggy NF.
        nf: NfId,
        /// Which flows trigger the slow path.
        matches: FlowAggregate,
        /// Slow-path cost per packet.
        per_packet_ns: Nanos,
    },
}

/// Ground truth about one injected problem, used only for scoring.
///
/// `culprit_node` is the location a correct diagnosis should blame, and
/// `window` the time when the problem was active (bursts and interrupts) or
/// each triggering episode (bugs).
#[derive(Debug, Clone, PartialEq)]
pub enum InjectedEvent {
    /// A traffic burst from the source.
    Burst {
        /// The bursting flows.
        flows: Vec<FiveTuple>,
        /// When the burst was emitted.
        window: Interval,
    },
    /// An NF stall.
    Interrupt {
        /// Stalled NF.
        nf: NfId,
        /// Stall window.
        window: Interval,
    },
    /// A bug-trigger episode: flows matching `matches` hit the slow path at
    /// `nf` during `window`.
    BugTrigger {
        /// Buggy NF.
        nf: NfId,
        /// Trigger-flow aggregate.
        matches: FlowAggregate,
        /// The episode window.
        window: Interval,
    },
}

impl InjectedEvent {
    /// The node a correct diagnosis blames for this event.
    pub fn culprit_node(&self) -> NodeId {
        match self {
            InjectedEvent::Burst { .. } => NodeId::Source,
            InjectedEvent::Interrupt { nf, .. } => NodeId::Nf(*nf),
            InjectedEvent::BugTrigger { nf, .. } => NodeId::Nf(*nf),
        }
    }

    /// When the event was active.
    pub fn window(&self) -> Interval {
        match self {
            InjectedEvent::Burst { window, .. } => *window,
            InjectedEvent::Interrupt { window, .. } => *window,
            InjectedEvent::BugTrigger { window, .. } => *window,
        }
    }

    /// A short human-readable tag for reports.
    pub fn kind_str(&self) -> &'static str {
        match self {
            InjectedEvent::Burst { .. } => "burst",
            InjectedEvent::Interrupt { .. } => "interrupt",
            InjectedEvent::BugTrigger { .. } => "bug",
        }
    }
}

/// The ground-truth journal of one run.
#[derive(Debug, Clone, Default)]
pub struct FaultJournal {
    /// All injected problems, in injection order.
    pub events: Vec<InjectedEvent>,
}

impl FaultJournal {
    /// Records an event.
    pub fn record(&mut self, e: InjectedEvent) {
        self.events.push(e);
    }

    /// Events whose window overlaps `[t - lookback, t]` — the candidates
    /// that could have caused a problem observed at `t` (queues make causes
    /// precede effects by up to tens of milliseconds; Fig. 15 measures the
    /// gap distribution).
    pub fn candidates(&self, t: Nanos, lookback: Nanos) -> Vec<&InjectedEvent> {
        let window = Interval::new(t.saturating_sub(lookback), t + 1);
        self.events
            .iter()
            .filter(|e| e.window().overlaps(&window))
            .collect()
    }
}

/// Per-NF interrupt timetable with O(log n) "when can I run" lookups.
#[derive(Debug, Clone, Default)]
pub struct InterruptSchedule {
    /// Sorted, non-overlapping stall windows.
    windows: Vec<Interval>,
}

impl InterruptSchedule {
    /// Adds a stall window; overlapping windows are merged.
    pub fn add(&mut self, w: Interval) {
        self.windows.push(w);
        self.windows.sort_by_key(|w| w.start);
        let mut merged: Vec<Interval> = Vec::with_capacity(self.windows.len());
        for w in self.windows.drain(..) {
            match merged.last_mut() {
                Some(last) if w.start <= last.end => {
                    last.end = last.end.max(w.end);
                }
                _ => merged.push(w),
            }
        }
        self.windows = merged;
    }

    /// Earliest time `>= t` at which the NF is not stalled.
    pub fn next_available(&self, t: Nanos) -> Nanos {
        // Binary search for the window that could contain t.
        let idx = self.windows.partition_point(|w| w.end <= t);
        match self.windows.get(idx) {
            Some(w) if w.contains(t) => w.end,
            _ => t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interrupt_schedule_pushes_start_time() {
        let mut s = InterruptSchedule::default();
        s.add(Interval::new(100, 200));
        assert_eq!(s.next_available(50), 50);
        assert_eq!(s.next_available(100), 200);
        assert_eq!(s.next_available(150), 200);
        assert_eq!(s.next_available(200), 200);
    }

    #[test]
    fn overlapping_windows_merge() {
        let mut s = InterruptSchedule::default();
        s.add(Interval::new(100, 200));
        s.add(Interval::new(150, 300));
        s.add(Interval::new(400, 500));
        assert_eq!(s.next_available(120), 300);
        assert_eq!(s.next_available(350), 350);
        assert_eq!(s.next_available(450), 500);
    }

    #[test]
    fn journal_candidates_respect_lookback() {
        let mut j = FaultJournal::default();
        j.record(InjectedEvent::Interrupt {
            nf: NfId(0),
            window: Interval::new(1_000, 2_000),
        });
        j.record(InjectedEvent::Interrupt {
            nf: NfId(1),
            window: Interval::new(50_000, 60_000),
        });
        // Observation at t=5000 with 10k lookback sees only the first.
        let c = j.candidates(5_000, 10_000);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].culprit_node(), NodeId::Nf(NfId(0)));
        // Observation at 55k sees only the second (first is too old).
        let c = j.candidates(55_000, 10_000);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].culprit_node(), NodeId::Nf(NfId(1)));
    }

    #[test]
    fn event_metadata() {
        let e = InjectedEvent::Burst {
            flows: vec![],
            window: Interval::new(1, 2),
        };
        assert_eq!(e.culprit_node(), NodeId::Source);
        assert_eq!(e.kind_str(), "burst");
    }
}
