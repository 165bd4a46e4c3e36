//! Packets as the simulator and collector see them.
//!
//! Two identities coexist on purpose:
//!
//! * [`PacketId`] — a globally unique 64-bit id assigned by the traffic
//!   source. It exists **only** for ground truth: the simulator journals which
//!   packets were part of an injected fault, and accuracy scoring compares
//!   diagnosis output against that journal. The collector and the offline
//!   diagnosis never use it.
//! * [`Ipid`] — the 16-bit IP identification field, the only per-packet id the
//!   runtime collector records at interior NFs (§5 of the paper). It is *not*
//!   unique; the trace-reconstruction crate resolves collisions with the
//!   paper's three side channels.

use crate::flow::FiveTuple;
use crate::time::Nanos;
use std::fmt;

/// Globally unique packet id (ground truth only; see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkt#{}", self.0)
    }
}

/// The 16-bit IP identification field.
pub type Ipid = u16;

/// A packet travelling through the simulated NF DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Ground-truth unique id (never consulted by diagnosis).
    pub id: PacketId,
    /// Exact flow key.
    pub flow: FiveTuple,
    /// IP identification field; what interior NFs record.
    pub ipid: Ipid,
    /// Wire size in bytes (the evaluation uses 64-byte packets).
    pub size: u16,
    /// Timestamp at which the traffic source emitted the packet.
    pub created_at: Nanos,
}

impl Packet {
    /// Builds a packet, deriving the IPID from the unique id the way a host
    /// IP stack derives it from a per-destination counter: low 16 bits. This
    /// reproduces the paper's collision setting — 65,536 possible IPIDs, many
    /// concurrent packets.
    pub fn new(id: u64, flow: FiveTuple, size: u16, created_at: Nanos) -> Self {
        Self {
            id: PacketId(id),
            flow,
            ipid: (id & 0xffff) as Ipid,
            size,
            created_at,
        }
    }

    /// Same, but with an explicit IPID (used by tests that need engineered
    /// collisions).
    pub fn with_ipid(id: u64, flow: FiveTuple, ipid: Ipid, size: u16, created_at: Nanos) -> Self {
        Self {
            id: PacketId(id),
            flow,
            ipid,
            size,
            created_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Proto;

    fn flow() -> FiveTuple {
        FiveTuple::new(0x0a000001, 0x0a000002, 1234, 80, Proto::TCP)
    }

    #[test]
    fn ipid_is_low_16_bits_of_id() {
        let p = Packet::new(0x1_0005, flow(), 64, 0);
        assert_eq!(p.ipid, 0x0005);
        assert_eq!(p.id, PacketId(0x1_0005));
    }

    #[test]
    fn ipid_wraps_at_65536() {
        let a = Packet::new(7, flow(), 64, 0);
        let b = Packet::new(7 + 65_536, flow(), 64, 0);
        assert_eq!(a.ipid, b.ipid);
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn explicit_ipid_is_preserved() {
        let p = Packet::with_ipid(1, flow(), 0xbeef, 64, 5);
        assert_eq!(p.ipid, 0xbeef);
        assert_eq!(p.created_at, 5);
    }
}
