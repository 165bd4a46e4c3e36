//! Rolling queuing-period tracking for the streaming engine.
//!
//! The offline pipeline derives queuing periods from the full per-NF
//! timeline after the run ends ([`msc_trace::NfTimeline`]). A streaming
//! consumer wants a cheap congestion signal *while* the run is in flight:
//! this module folds the collector's per-read drain bit (a read of fewer
//! than `MAX_BATCH` packets means the ring was emptied, §5) into per-NF
//! open/closed period counters in O(1) per read and O(NFs) memory.
//!
//! This is a monitoring proxy, not the diagnosis input: the final report
//! still runs the exact period-keyed diagnosis (and its
//! [`crate::DiagnosisCache`]) over the timelines built when the stream
//! finishes, so streamed diagnoses stay bit-identical to offline ones.

use nf_types::{Nanos, NfId};

/// Rolling period state for one NF.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NfPeriodStats {
    /// Start of the currently open queuing period, if congested now.
    pub open_since: Option<Nanos>,
    /// Queuing periods closed so far.
    pub closed: u64,
    /// Length of the longest closed period.
    pub longest_ns: Nanos,
    /// Total time spent inside closed queuing periods.
    pub busy_ns: Nanos,
    /// Timestamp of the last read observed.
    pub last_read: Option<Nanos>,
}

/// Folds the per-read drain signal into rolling queuing-period counters.
#[derive(Debug, Clone)]
pub struct PeriodTracker {
    nfs: Vec<NfPeriodStats>,
}

impl PeriodTracker {
    /// A tracker for `n_nfs` NFs with no periods open.
    pub fn new(n_nfs: usize) -> Self {
        Self {
            nfs: vec![NfPeriodStats::default(); n_nfs],
        }
    }

    /// Observes one read: a non-drained read opens a period (if none is
    /// open); a drained read closes the open one — the queue emptied, so
    /// whatever build-up existed is over.
    pub fn on_read(&mut self, nf: NfId, ts: Nanos, drained: bool) {
        let st = &mut self.nfs[nf.0 as usize];
        st.last_read = Some(ts);
        if drained {
            if let Some(start) = st.open_since.take() {
                let len = ts.saturating_sub(start);
                st.closed += 1;
                st.longest_ns = st.longest_ns.max(len);
                st.busy_ns = st.busy_ns.saturating_add(len);
            }
        } else if st.open_since.is_none() {
            st.open_since = Some(ts);
        }
    }

    /// Rolling stats for one NF.
    pub fn nf(&self, nf: NfId) -> &NfPeriodStats {
        &self.nfs[nf.0 as usize]
    }

    /// Rolling stats for every NF in `NfId` order.
    pub fn all(&self) -> &[NfPeriodStats] {
        &self.nfs
    }

    /// Total closed periods across all NFs.
    pub fn closed_periods(&self) -> u64 {
        self.nfs.iter().map(|s| s.closed).sum()
    }

    /// Longest closed period across all NFs.
    pub fn longest_ns(&self) -> Nanos {
        self.nfs.iter().map(|s| s.longest_ns).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periods_open_on_congestion_and_close_on_drain() {
        let mut t = PeriodTracker::new(2);
        let nf = NfId(0);
        t.on_read(nf, 100, true); // idle
        assert_eq!(t.nf(nf).closed, 0);
        assert_eq!(t.nf(nf).open_since, None);

        t.on_read(nf, 200, false); // congestion starts
        t.on_read(nf, 300, false); // still congested: same period
        assert_eq!(t.nf(nf).open_since, Some(200));

        t.on_read(nf, 500, true); // drained: period closes
        let st = *t.nf(nf);
        assert_eq!(st.open_since, None);
        assert_eq!(st.closed, 1);
        assert_eq!(st.longest_ns, 300);
        assert_eq!(st.busy_ns, 300);

        t.on_read(nf, 600, false);
        t.on_read(nf, 700, true);
        let st = *t.nf(nf);
        assert_eq!(st.closed, 2);
        assert_eq!(st.longest_ns, 300, "shorter period must not win");
        assert_eq!(st.busy_ns, 400);
        assert_eq!(t.closed_periods(), 2);
        assert_eq!(t.longest_ns(), 300);
    }

    #[test]
    fn repeated_drains_do_not_close_phantom_periods() {
        let mut t = PeriodTracker::new(1);
        let nf = NfId(0);
        for ts in [10, 20, 30] {
            t.on_read(nf, ts, true);
        }
        assert_eq!(t.nf(nf).closed, 0);
        assert_eq!(t.nf(nf).busy_ns, 0);
        assert_eq!(t.nf(nf).last_read, Some(30));
    }

    #[test]
    fn per_nf_state_is_independent() {
        let mut t = PeriodTracker::new(2);
        t.on_read(NfId(0), 100, false);
        t.on_read(NfId(1), 150, true);
        assert_eq!(t.nf(NfId(0)).open_since, Some(100));
        assert_eq!(t.nf(NfId(1)).open_since, None);
    }
}
