//! Emission schedules: composable plans of when which flow sends a packet.

use nf_types::{FiveTuple, Nanos, Packet};
use std::collections::HashMap;

/// One planned packet emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledPacket {
    /// Emission time at the traffic source.
    pub at: Nanos,
    /// Flow the packet belongs to.
    pub flow: FiveTuple,
    /// Wire size in bytes.
    pub size: u16,
}

/// A time-sorted emission plan.
///
/// Schedules from different generators are merged with [`Schedule::merge`]
/// and only converted into concrete packets (ids, IPIDs) at the very end via
/// [`Schedule::finalize`], so composition never has to worry about id spaces.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    packets: Vec<ScheduledPacket>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from raw entries (sorts them).
    pub fn from_entries(mut packets: Vec<ScheduledPacket>) -> Self {
        packets.sort_by_key(|p| p.at);
        Self { packets }
    }

    /// Appends one entry (keeps the schedule sorted lazily — sorting happens
    /// on merge/finalize).
    pub fn push(&mut self, at: Nanos, flow: FiveTuple, size: u16) {
        self.packets.push(ScheduledPacket { at, flow, size });
    }

    /// Number of planned packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// The planned entries in time order.
    pub fn entries(&self) -> Vec<ScheduledPacket> {
        let mut v = self.packets.clone();
        v.sort_by_key(|p| p.at);
        v
    }

    /// Merges any number of schedules into one.
    pub fn merge(parts: impl IntoIterator<Item = Schedule>) -> Schedule {
        let mut packets: Vec<ScheduledPacket> = parts.into_iter().flat_map(|s| s.packets).collect();
        packets.sort_by_key(|p| p.at);
        Schedule { packets }
    }

    /// Converts the plan into concrete packets.
    ///
    /// Ids are assigned in emission order starting at `first_id`. IPIDs are
    /// modelled the way end hosts set them: a per-source-host 16-bit counter,
    /// so packets from the same host get consecutive IPIDs and different
    /// hosts collide freely — the regime §5's disambiguation must handle.
    pub fn finalize(&self, first_id: u64) -> Vec<Packet> {
        let mut entries = self.packets.clone();
        entries.sort_by_key(|p| p.at);
        let mut ipid_counters: HashMap<u32, u16> = HashMap::new();
        let mut out = Vec::with_capacity(entries.len());
        for (i, e) in entries.iter().enumerate() {
            let ctr = ipid_counters.entry(e.flow.src_ip).or_insert(0);
            let ipid = *ctr;
            *ctr = ctr.wrapping_add(1);
            out.push(Packet::with_ipid(
                first_id + i as u64,
                e.flow,
                ipid,
                e.size,
                e.at,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_types::Proto;

    fn flow(src_ip: u32) -> FiveTuple {
        FiveTuple::new(src_ip, 0x20000001, 1000, 80, Proto::TCP)
    }

    #[test]
    fn merge_sorts_by_time() {
        let mut a = Schedule::new();
        a.push(300, flow(1), 64);
        a.push(100, flow(1), 64);
        let mut b = Schedule::new();
        b.push(200, flow(2), 64);
        let m = Schedule::merge([a, b]);
        let times: Vec<Nanos> = m.entries().iter().map(|e| e.at).collect();
        assert_eq!(times, vec![100, 200, 300]);
    }

    #[test]
    fn finalize_assigns_sequential_ids_in_time_order() {
        let mut s = Schedule::new();
        s.push(500, flow(1), 64);
        s.push(100, flow(1), 64);
        let pkts = s.finalize(10);
        assert_eq!(pkts[0].id.0, 10);
        assert_eq!(pkts[0].created_at, 100);
        assert_eq!(pkts[1].id.0, 11);
        assert_eq!(pkts[1].created_at, 500);
    }

    #[test]
    fn ipids_count_per_source_host() {
        let mut s = Schedule::new();
        s.push(0, flow(1), 64);
        s.push(1, flow(2), 64);
        s.push(2, flow(1), 64);
        s.push(3, flow(2), 64);
        let pkts = s.finalize(0);
        // Host 1's packets: ipid 0 then 1; host 2 likewise — collisions!
        assert_eq!(pkts[0].ipid, 0);
        assert_eq!(pkts[1].ipid, 0);
        assert_eq!(pkts[2].ipid, 1);
        assert_eq!(pkts[3].ipid, 1);
    }

    #[test]
    fn empty_schedule() {
        let s = Schedule::new();
        assert!(s.is_empty());
        assert!(s.finalize(0).is_empty());
    }
}
