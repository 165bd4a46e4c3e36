//! Bounded drop-tail packet queues — the NF input rings.
//!
//! DPDK NFs receive through fixed-size descriptor rings; when the ring is
//! full the NIC drops arriving packets. The queue also keeps an optional
//! down-sampled length time series used by the Fig. 1/2 reproductions.

use nf_types::{Nanos, NfId, Packet};
use std::collections::VecDeque;

/// A packet the simulator had to drop because an input ring was full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropRecord {
    /// The packet that was lost.
    pub packet: Packet,
    /// The NF whose input ring was full.
    pub nf: NfId,
    /// When the drop happened.
    pub at: Nanos,
}

/// An entry sitting in an input ring: the packet plus its enqueue time
/// (ground truth for queueing-delay accounting) and its flow hash.
#[derive(Debug, Clone, Copy)]
pub struct Queued {
    /// The packet.
    pub packet: Packet,
    /// When it was enqueued.
    pub enqueued_at: Nanos,
    /// `packet.flow.stable_hash()`, computed once at emission: every
    /// routing decision along the path reuses it.
    pub hash: u64,
}

/// A bounded drop-tail FIFO with length-series sampling.
#[derive(Debug)]
pub struct PacketQueue {
    items: VecDeque<Queued>,
    capacity: usize,
    /// (time, length) samples, recorded at most once per `sample_every`.
    series: Vec<(Nanos, usize)>,
    sample_every: Option<Nanos>,
    last_sample: Nanos,
    /// Total packets ever enqueued.
    pub enqueued: u64,
    /// Total packets dropped at the tail.
    pub dropped: u64,
    /// Running maximum length.
    pub max_len: usize,
}

impl PacketQueue {
    /// Creates a queue holding at most `capacity` packets. `sample_every`
    /// enables the length time series at that granularity.
    pub fn new(capacity: usize, sample_every: Option<Nanos>) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            items: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            series: Vec::new(),
            sample_every,
            last_sample: 0,
            enqueued: 0,
            dropped: 0,
            max_len: 0,
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues `packet`, whose flow hashes to `hash`, at time `at`.
    /// Returns `false` (a drop) when full.
    pub fn push(&mut self, packet: Packet, hash: u64, at: Nanos) -> bool {
        self.maybe_sample(at);
        if self.items.len() >= self.capacity {
            self.dropped += 1;
            return false;
        }
        self.items.push_back(Queued {
            packet,
            enqueued_at: at,
            hash,
        });
        self.enqueued += 1;
        self.max_len = self.max_len.max(self.items.len());
        true
    }

    /// Dequeues up to `max` packets at time `at` (one DPDK rx burst) into
    /// `out`, replacing what it held.
    pub fn pop_batch(&mut self, max: usize, at: Nanos, out: &mut Vec<Queued>) {
        self.maybe_sample(at);
        let n = max.min(self.items.len());
        out.clear();
        out.extend(self.items.drain(..n));
    }

    fn maybe_sample(&mut self, at: Nanos) {
        if let Some(every) = self.sample_every {
            if self.series.is_empty() || at >= self.last_sample + every {
                self.series.push((at, self.items.len()));
                self.last_sample = at;
            }
        }
    }

    /// The recorded (time, length) series (empty unless sampling enabled).
    pub fn series(&self) -> &[(Nanos, usize)] {
        &self.series
    }

    /// Takes the series out of the queue.
    pub fn take_series(&mut self) -> Vec<(Nanos, usize)> {
        std::mem::take(&mut self.series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_types::{FiveTuple, Proto};

    fn pkt(id: u64) -> Packet {
        Packet::new(id, FiveTuple::new(1, 2, 3, 4, Proto::UDP), 64, 0)
    }

    fn pop(q: &mut PacketQueue, max: usize, at: Nanos) -> Vec<Queued> {
        let mut out = Vec::new();
        q.pop_batch(max, at, &mut out);
        out
    }

    #[test]
    fn fifo_batching() {
        let mut q = PacketQueue::new(8, None);
        for i in 0..5 {
            assert!(q.push(pkt(i), 0, i * 10));
        }
        let b = pop(&mut q, 3, 100);
        assert_eq!(b.len(), 3);
        assert_eq!(b[0].packet.id.0, 0);
        assert_eq!(b[2].packet.id.0, 2);
        assert_eq!(b[0].enqueued_at, 0);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn drop_tail_when_full() {
        let mut q = PacketQueue::new(2, None);
        assert!(q.push(pkt(0), 0, 0));
        assert!(q.push(pkt(1), 0, 0));
        assert!(!q.push(pkt(2), 0, 0));
        assert_eq!(q.dropped, 1);
        assert_eq!(q.enqueued, 2);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn batch_larger_than_queue_drains_it() {
        let mut q = PacketQueue::new(8, None);
        q.push(pkt(0), 0, 0);
        let b = pop(&mut q, 32, 1);
        assert_eq!(b.len(), 1);
        assert!(q.is_empty());
        assert!(pop(&mut q, 32, 2).is_empty());
    }

    #[test]
    fn series_sampling_is_rate_limited() {
        let mut q = PacketQueue::new(100, Some(100));
        for i in 0..50u64 {
            q.push(pkt(i), 0, i * 10); // 10 ns apart, sample every 100 ns
        }
        let s = q.series();
        assert!(s.len() <= 6, "{} samples", s.len());
        // Samples are monotonically timed.
        assert!(s.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn max_len_tracked() {
        let mut q = PacketQueue::new(10, None);
        for i in 0..7u64 {
            q.push(pkt(i), 0, 0);
        }
        pop(&mut q, 5, 1);
        assert_eq!(q.max_len, 7);
    }
}
