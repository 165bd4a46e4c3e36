//! Ground-truth run output: per-packet fates and per-NF counters.
//!
//! Everything here is simulator-side truth that the diagnosis pipeline never
//! sees. Experiments use it to (a) pick victims with known causes, (b) score
//! diagnosis accuracy and (c) draw the Fig. 1–3 time series.

use nf_types::{Nanos, NfId, Packet};

/// One hop of a packet's journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopRecord {
    /// The NF traversed.
    pub nf: NfId,
    /// When the packet was enqueued at the NF's input ring.
    pub enqueued_at: Nanos,
    /// When the NF read it (start of its batch).
    pub read_at: Nanos,
    /// When the NF emitted it downstream (end of its batch).
    pub sent_at: Nanos,
}

/// Terminal outcome of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketOutcome {
    /// Left the exit NF at this time.
    Delivered(Nanos),
    /// Dropped at this NF's full input ring at this time.
    Dropped {
        /// Where it was dropped.
        nf: NfId,
        /// When.
        at: Nanos,
    },
    /// Still in flight when the run ended.
    InFlight,
}

/// The full ground-truth journey of one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketFate {
    /// The packet.
    pub packet: Packet,
    /// NF hops completed, in path order.
    pub hops: Vec<HopRecord>,
    /// How the journey ended.
    pub outcome: PacketOutcome,
}

impl PacketFate {
    /// End-to-end latency for delivered packets.
    pub fn latency(&self) -> Option<Nanos> {
        match self.outcome {
            PacketOutcome::Delivered(at) => Some(at - self.packet.created_at),
            _ => None,
        }
    }

    /// True if the packet was dropped.
    pub fn dropped(&self) -> bool {
        matches!(self.outcome, PacketOutcome::Dropped { .. })
    }

    /// The NF ids along the path (including the drop NF if dropped).
    pub fn path(&self) -> Vec<NfId> {
        let mut p: Vec<NfId> = self.hops.iter().map(|h| h.nf).collect();
        if let PacketOutcome::Dropped { nf, .. } = self.outcome {
            p.push(nf);
        }
        p
    }
}

/// Aggregate counters for one NF.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NfStats {
    /// Packets read from the input ring.
    pub processed: u64,
    /// Packets dropped at the full input ring.
    pub dropped: u64,
    /// Number of rx batches.
    pub batches: u64,
    /// Nanoseconds spent processing (busy time).
    pub busy_ns: Nanos,
    /// Maximum input-ring occupancy observed.
    pub max_queue: usize,
}

impl NfStats {
    /// Mean achieved processing rate in pps over `duration`.
    pub fn rate_pps(&self, duration: Nanos) -> f64 {
        if duration == 0 {
            0.0
        } else {
            self.processed as f64 / (duration as f64 / 1e9)
        }
    }

    /// Mean batch size — near 32 means the NF is saturated, near 1 means it
    /// polls an almost-empty ring.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.processed as f64 / self.batches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_types::{FiveTuple, Proto};

    fn fate() -> PacketFate {
        let p = Packet::new(1, FiveTuple::new(1, 2, 3, 4, Proto::TCP), 64, 100);
        PacketFate {
            packet: p,
            hops: vec![
                HopRecord {
                    nf: NfId(0),
                    enqueued_at: 110,
                    read_at: 150,
                    sent_at: 200,
                },
                HopRecord {
                    nf: NfId(1),
                    enqueued_at: 210,
                    read_at: 220,
                    sent_at: 300,
                },
            ],
            outcome: PacketOutcome::Delivered(300),
        }
    }

    #[test]
    fn latency_and_path() {
        let f = fate();
        assert_eq!(f.latency(), Some(200));
        assert_eq!(f.path(), vec![NfId(0), NfId(1)]);
        assert!(!f.dropped());
    }

    #[test]
    fn dropped_fate() {
        let mut f = fate();
        f.outcome = PacketOutcome::Dropped {
            nf: NfId(2),
            at: 400,
        };
        assert!(f.dropped());
        assert_eq!(f.latency(), None);
        assert_eq!(f.path(), vec![NfId(0), NfId(1), NfId(2)]);
    }

    #[test]
    fn nf_stats_derivations() {
        let s = NfStats {
            processed: 1000,
            dropped: 10,
            batches: 100,
            busy_ns: 500_000,
            max_queue: 64,
        };
        // 1000 packets in 1 ms = 1 Mpps.
        assert!((s.rate_pps(1_000_000) - 1e6).abs() < 1.0);
        assert!((s.mean_batch() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_is_safe() {
        let s = NfStats::default();
        assert_eq!(s.rate_pps(0), 0.0);
        assert_eq!(s.mean_batch(), 0.0);
    }
}
