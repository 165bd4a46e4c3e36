//! Emission schedules: composable plans of when which flow sends a packet.

use nf_types::{FiveTuple, Nanos, Packet};
use std::borrow::Cow;
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
        self.sorted().into_owned()
    }

    /// The entries in push order.
    #[cfg(test)]
    pub(crate) fn pushed(&self) -> &[ScheduledPacket] {
        &self.packets
    }

    /// The entries in time order, ties in push order: borrowed when they
    /// were pushed in time order, as every generator of this crate does.
    fn sorted(&self) -> Cow<'_, [ScheduledPacket]> {
        if self.packets.is_sorted_by_key(|p| p.at) {
            Cow::Borrowed(&self.packets)
        } else {
            let mut v = self.packets.clone();
            v.sort_by_key(|p| p.at);
            Cow::Owned(v)
        }
    }

    /// Merges any number of schedules into one. The sort is stable, so
    /// entries at the same time keep the order of `parts`; on parts in time
    /// order it only merges their runs. The first part's buffer is reused.
    pub fn merge(parts: impl IntoIterator<Item = Schedule>) -> Schedule {
        let mut parts = parts.into_iter();
        let mut packets = parts.next().unwrap_or_default().packets;
        for part in parts {
            packets.extend(part.packets);
        }
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
        let entries = self.sorted();
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

    /// What `merge(parts).finalize(first_id)` must equal: the parts' entries
    /// concatenated and stable-sorted by time, ids in that order, IPIDs
    /// counted per source host.
    fn reference(parts: &[Schedule], first_id: u64) -> Vec<Packet> {
        let mut all: Vec<ScheduledPacket> = parts.iter().flat_map(Schedule::entries).collect();
        all.sort_by_key(|e| e.at);
        let mut counters: HashMap<u32, u16> = HashMap::new();
        all.iter()
            .zip(first_id..)
            .map(|(e, id)| {
                let ctr = counters.entry(e.flow.src_ip).or_insert(0);
                let ipid = *ctr;
                *ctr = ctr.wrapping_add(1);
                Packet::with_ipid(id, e.flow, ipid, e.size, e.at)
            })
            .collect()
    }

    #[test]
    fn merge_then_finalize_equals_a_stable_sort_of_the_parts() {
        use crate::generator::{burst, cbr, CaidaLike, CaidaLikeConfig};
        let ms = nf_types::MILLIS;
        for seed in 0..6 {
            for rate_mpps in [0.2, 1.4, 8.0] {
                let cfg = CaidaLikeConfig {
                    rate_pps: rate_mpps * 1e6,
                    ..Default::default()
                };
                let mut gen = CaidaLike::new(cfg, seed);
                let bg = gen.generate(0, 3 * ms);
                assert!(bg.pushed().is_sorted_by_key(|e| e.at), "seed {seed}");
                let hot = gen.active_flows()[0];
                // Ties with the background on purpose: every 100 ns and 1 µs
                // on the grid the background's clumps fall on too.
                let parts = [
                    bg,
                    burst(hot, ms, 500, 100, 64),
                    cbr(flow(7), 0, 3 * ms, 1e6, 64),
                    gen.generate(ms, ms),
                ];
                let want = reference(&parts, 5);
                let got = Schedule::merge(parts).finalize(5);
                assert_eq!(got, want, "seed {seed} at {rate_mpps} Mpps");
            }
        }
    }

    #[test]
    fn finalize_sorts_a_plan_pushed_out_of_order() {
        let mut s = Schedule::new();
        for (i, at) in (0u32..).zip([30, 10, 20, 10, 0]) {
            s.push(at, flow(i % 2), 64);
        }
        assert_eq!(s.finalize(0), reference(&[s.clone()], 0));
    }

    #[test]
    fn empty_schedule() {
        let s = Schedule::new();
        assert!(s.is_empty());
        assert!(s.finalize(0).is_empty());
    }
}
