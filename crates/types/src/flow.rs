//! Flow identification: exact five-tuples and hierarchical flow aggregates.
//!
//! Microscope's pattern-aggregation stage (§4.4 of the paper) reports culprit
//! and victim *flow aggregates*: five-tuples generalised along each dimension
//! (IPv4 prefixes for addresses, ranges for ports, wildcard for protocol).
//! [`FiveTuple`] is the exact key carried by every packet; [`FlowAggregate`]
//! is a point in the generalisation lattice that AutoFocus climbs.

use std::fmt;

/// Transport protocol number (IANA). Only the value matters to Microscope;
/// the simulator uses TCP/UDP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Proto(pub u8);

impl Proto {
    /// TCP (6).
    pub const TCP: Proto = Proto(6);
    /// UDP (17).
    pub const UDP: Proto = Proto(17);
    /// ICMP (1).
    pub const ICMP: Proto = Proto(1);
}

impl fmt::Display for Proto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An exact five-tuple flow key.
///
/// IPv4 addresses are stored as host-order `u32` so that prefix arithmetic is
/// cheap; [`fmt::Display`] renders dotted-quad form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FiveTuple {
    /// Source IPv4 address (host byte order).
    pub src_ip: u32,
    /// Destination IPv4 address (host byte order).
    pub dst_ip: u32,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// Transport protocol.
    pub proto: Proto,
}

/// Renders a host-order IPv4 address as dotted quad.
pub fn fmt_ip(ip: u32) -> String {
    format!(
        "{}.{}.{}.{}",
        (ip >> 24) & 0xff,
        (ip >> 16) & 0xff,
        (ip >> 8) & 0xff,
        ip & 0xff
    )
}

/// Parses a dotted-quad IPv4 address into host order. Returns `None` on any
/// syntax error.
pub fn parse_ip(s: &str) -> Option<u32> {
    let mut parts = s.split('.');
    let mut ip: u32 = 0;
    for _ in 0..4 {
        let octet: u32 = parts.next()?.parse().ok()?;
        if octet > 255 {
            return None;
        }
        ip = (ip << 8) | octet;
    }
    if parts.next().is_some() {
        return None;
    }
    Some(ip)
}

impl FiveTuple {
    /// Convenience constructor.
    pub fn new(src_ip: u32, dst_ip: u32, src_port: u16, dst_port: u16, proto: Proto) -> Self {
        Self {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto,
        }
    }

    /// A stable, cheap hash used by the simulator's flow-level load balancer.
    ///
    /// FNV-1a over the tuple bytes: deterministic across runs (unlike
    /// `DefaultHasher`, which is seeded per-process), which the reproducible
    /// experiments require.
    pub fn stable_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        let mut h = OFFSET;
        let mut eat = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        };
        for b in self.src_ip.to_be_bytes() {
            eat(b);
        }
        for b in self.dst_ip.to_be_bytes() {
            eat(b);
        }
        for b in self.src_port.to_be_bytes() {
            eat(b);
        }
        for b in self.dst_port.to_be_bytes() {
            eat(b);
        }
        eat(self.proto.0);
        h
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} ({})",
            fmt_ip(self.src_ip),
            self.src_port,
            fmt_ip(self.dst_ip),
            self.dst_port,
            self.proto
        )
    }
}

/// An IPv4 prefix `addr/len`, the generalisation of an address dimension.
///
/// `len == 32` is an exact host; `len == 0` matches everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix {
    addr: u32,
    len: u8,
}

impl Prefix {
    /// The wildcard prefix `0.0.0.0/0`.
    pub const ANY: Prefix = Prefix { addr: 0, len: 0 };

    /// Creates a prefix, masking `addr` down to `len` bits. Panics if
    /// `len > 32`.
    pub fn new(addr: u32, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} > 32");
        Self {
            addr: addr & Self::mask(len),
            len,
        }
    }

    /// An exact /32 host prefix.
    pub fn host(addr: u32) -> Self {
        Self { addr, len: 32 }
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The network address (already masked).
    pub fn addr(&self) -> u32 {
        self.addr
    }

    /// The prefix length in bits (a /0 wildcard has length 0 — see
    /// [`Self::is_any`] — so a container-style `is_empty` has no meaning
    /// here).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True only for the /0 wildcard.
    pub fn is_any(&self) -> bool {
        self.len == 0
    }

    /// Does this prefix contain the address?
    pub fn contains(&self, ip: u32) -> bool {
        (ip & Self::mask(self.len)) == self.addr
    }

    /// Does this prefix contain (or equal) the other prefix?
    pub fn covers(&self, other: &Prefix) -> bool {
        self.len <= other.len && (other.addr & Self::mask(self.len)) == self.addr
    }

    /// The parent prefix one bit shorter, or `None` at /0.
    ///
    /// This single-bit step is the generalisation ladder AutoFocus climbs.
    pub fn parent(&self) -> Option<Prefix> {
        if self.len == 0 {
            None
        } else {
            Some(Prefix::new(self.addr, self.len - 1))
        }
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_any() {
            write!(f, "*")
        } else {
            write!(f, "{}/{}", fmt_ip(self.addr), self.len)
        }
    }
}

/// A port dimension value: an exact port or a closed range.
///
/// The paper's raw hierarchy (§6.4) is two-level — an exact port or the
/// registered/ephemeral split (`0-1023`, `1024-65535`) and the full wildcard.
/// Adaptive multi-port ranges (the paper's suggested optimisation) are
/// represented by arbitrary `lo..=hi` ranges produced by
/// `autofocus`' adaptive mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortRange {
    /// Lowest port in the range (inclusive).
    pub lo: u16,
    /// Highest port in the range (inclusive).
    pub hi: u16,
}

impl PortRange {
    /// The full wildcard `0-65535`.
    pub const ANY: PortRange = PortRange {
        lo: 0,
        hi: u16::MAX,
    };
    /// Well-known ports `0-1023`.
    pub const WELL_KNOWN: PortRange = PortRange { lo: 0, hi: 1023 };
    /// Registered + ephemeral ports `1024-65535`, the static range the
    /// paper's implementation reports (Fig. 14).
    pub const HIGH: PortRange = PortRange {
        lo: 1024,
        hi: u16::MAX,
    };

    /// An exact single-port range.
    pub fn exact(p: u16) -> Self {
        Self { lo: p, hi: p }
    }

    /// A closed range `lo..=hi`. Panics if reversed.
    pub fn new(lo: u16, hi: u16) -> Self {
        assert!(lo <= hi, "reversed port range {lo}-{hi}");
        Self { lo, hi }
    }

    /// True if this is a single port.
    pub fn is_exact(&self) -> bool {
        self.lo == self.hi
    }

    /// True if this is the full wildcard.
    pub fn is_any(&self) -> bool {
        *self == Self::ANY
    }

    /// Does the range contain the port?
    pub fn contains(&self, p: u16) -> bool {
        p >= self.lo && p <= self.hi
    }

    /// Does this range contain (or equal) the other range?
    pub fn covers(&self, other: &PortRange) -> bool {
        self.lo <= other.lo && self.hi >= other.hi
    }

    /// The static two-level parent: exact port -> its half of the
    /// well-known/high split -> wildcard.
    pub fn static_parent(&self) -> Option<PortRange> {
        if self.is_any() {
            None
        } else if self.is_exact() {
            Some(if self.lo < 1024 {
                Self::WELL_KNOWN
            } else {
                Self::HIGH
            })
        } else {
            Some(Self::ANY)
        }
    }

    /// Number of ports covered.
    pub fn width(&self) -> u32 {
        (self.hi as u32) - (self.lo as u32) + 1
    }
}

impl fmt::Display for PortRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_any() {
            write!(f, "*")
        } else if self.is_exact() {
            write!(f, "{}", self.lo)
        } else {
            write!(f, "{}-{}", self.lo, self.hi)
        }
    }
}

/// A protocol dimension value: exact protocol or wildcard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProtoMatch {
    /// Any protocol.
    Any,
    /// One exact protocol.
    Exact(Proto),
}

impl ProtoMatch {
    /// Does this value match the protocol?
    pub fn contains(&self, p: Proto) -> bool {
        match self {
            ProtoMatch::Any => true,
            ProtoMatch::Exact(q) => *q == p,
        }
    }

    /// Does this value cover (or equal) the other value?
    pub fn covers(&self, other: &ProtoMatch) -> bool {
        match (self, other) {
            (ProtoMatch::Any, _) => true,
            (ProtoMatch::Exact(a), ProtoMatch::Exact(b)) => a == b,
            (ProtoMatch::Exact(_), ProtoMatch::Any) => false,
        }
    }
}

impl fmt::Display for ProtoMatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoMatch::Any => write!(f, "*"),
            ProtoMatch::Exact(p) => write!(f, "{p}"),
        }
    }
}

/// A flow aggregate: one node in the five-dimensional generalisation lattice.
///
/// Printed in the paper's Fig. 14 layout:
/// `<src prefix> <dst prefix> <proto> <sport> <dport>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowAggregate {
    /// Source address generalisation.
    pub src: Prefix,
    /// Destination address generalisation.
    pub dst: Prefix,
    /// Protocol generalisation.
    pub proto: ProtoMatch,
    /// Source port generalisation.
    pub src_port: PortRange,
    /// Destination port generalisation.
    pub dst_port: PortRange,
}

impl FlowAggregate {
    /// The everything-wildcard aggregate.
    pub const ANY: FlowAggregate = FlowAggregate {
        src: Prefix::ANY,
        dst: Prefix::ANY,
        proto: ProtoMatch::Any,
        src_port: PortRange::ANY,
        dst_port: PortRange::ANY,
    };

    /// The most specific aggregate: exactly one five-tuple.
    pub fn exact(ft: &FiveTuple) -> Self {
        Self {
            src: Prefix::host(ft.src_ip),
            dst: Prefix::host(ft.dst_ip),
            proto: ProtoMatch::Exact(ft.proto),
            src_port: PortRange::exact(ft.src_port),
            dst_port: PortRange::exact(ft.dst_port),
        }
    }

    /// Does the aggregate match the exact flow?
    pub fn matches(&self, ft: &FiveTuple) -> bool {
        self.src.contains(ft.src_ip)
            && self.dst.contains(ft.dst_ip)
            && self.proto.contains(ft.proto)
            && self.src_port.contains(ft.src_port)
            && self.dst_port.contains(ft.dst_port)
    }

    /// Does this aggregate cover (dominate) the other in every dimension?
    pub fn covers(&self, other: &FlowAggregate) -> bool {
        self.src.covers(&other.src)
            && self.dst.covers(&other.dst)
            && self.proto.covers(&other.proto)
            && self.src_port.covers(&other.src_port)
            && self.dst_port.covers(&other.dst_port)
    }

    /// A rough specificity measure: total number of constrained bits. Used
    /// only for ordering reports (more specific first).
    pub fn specificity(&self) -> u32 {
        let port_bits = |r: &PortRange| -> u32 {
            if r.is_any() {
                0
            } else if r.is_exact() {
                16
            } else {
                16u32.saturating_sub(32 - r.width().leading_zeros())
            }
        };
        // lint: lossy-cast-ok(prefix lengths are 0..=32 bits by construction)
        self.src.len() as u32
            // lint: lossy-cast-ok(prefix lengths are 0..=32 bits by construction)
            + self.dst.len() as u32
            + match self.proto {
                ProtoMatch::Any => 0,
                ProtoMatch::Exact(_) => 8,
            }
            + port_bits(&self.src_port)
            + port_bits(&self.dst_port)
    }
}

impl fmt::Display for FlowAggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {}",
            self.src, self.dst, self.proto, self.src_port, self.dst_port
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ft() -> FiveTuple {
        FiveTuple::new(
            parse_ip("100.0.0.1").unwrap(),
            parse_ip("32.0.0.1").unwrap(),
            2004,
            6004,
            Proto::TCP,
        )
    }

    #[test]
    fn ip_round_trip() {
        for s in ["0.0.0.0", "255.255.255.255", "100.0.0.1", "10.1.2.3"] {
            assert_eq!(fmt_ip(parse_ip(s).unwrap()), s);
        }
    }

    #[test]
    fn ip_parse_rejects_garbage() {
        assert!(parse_ip("1.2.3").is_none());
        assert!(parse_ip("1.2.3.4.5").is_none());
        assert!(parse_ip("1.2.3.256").is_none());
        assert!(parse_ip("a.b.c.d").is_none());
    }

    #[test]
    fn stable_hash_is_stable_and_spreads() {
        let a = ft();
        let mut b = ft();
        b.src_port = 2005;
        assert_eq!(a.stable_hash(), ft().stable_hash());
        assert_ne!(a.stable_hash(), b.stable_hash());
    }

    #[test]
    fn prefix_contains_and_covers() {
        let p24 = Prefix::new(parse_ip("10.0.0.0").unwrap(), 24);
        assert!(p24.contains(parse_ip("10.0.0.200").unwrap()));
        assert!(!p24.contains(parse_ip("10.0.1.0").unwrap()));
        let p16 = Prefix::new(parse_ip("10.0.0.0").unwrap(), 16);
        assert!(p16.covers(&p24));
        assert!(!p24.covers(&p16));
        assert!(p24.covers(&p24));
    }

    #[test]
    fn prefix_masks_constructor_input() {
        let p = Prefix::new(parse_ip("10.0.0.255").unwrap(), 24);
        assert_eq!(p.addr(), parse_ip("10.0.0.0").unwrap());
    }

    #[test]
    fn prefix_parent_chain_reaches_any() {
        let mut p = Prefix::host(parse_ip("1.2.3.4").unwrap());
        let mut steps = 0;
        while let Some(q) = p.parent() {
            assert!(q.covers(&p));
            p = q;
            steps += 1;
        }
        assert_eq!(steps, 32);
        assert!(p.is_any());
    }

    #[test]
    fn port_range_static_parent() {
        assert_eq!(
            PortRange::exact(80).static_parent(),
            Some(PortRange::WELL_KNOWN)
        );
        assert_eq!(
            PortRange::exact(2004).static_parent(),
            Some(PortRange::HIGH)
        );
        assert_eq!(PortRange::WELL_KNOWN.static_parent(), Some(PortRange::ANY));
        assert_eq!(PortRange::ANY.static_parent(), None);
    }

    #[test]
    fn port_range_covers() {
        assert!(PortRange::ANY.covers(&PortRange::exact(80)));
        assert!(PortRange::new(2000, 2008).covers(&PortRange::exact(2004)));
        assert!(!PortRange::new(2000, 2008).covers(&PortRange::exact(1999)));
    }

    #[test]
    fn aggregate_exact_matches_only_itself() {
        let a = FlowAggregate::exact(&ft());
        assert!(a.matches(&ft()));
        let mut other = ft();
        other.dst_port = 6005;
        assert!(!a.matches(&other));
    }

    #[test]
    fn aggregate_any_matches_everything_and_covers_exact() {
        let a = FlowAggregate::ANY;
        assert!(a.matches(&ft()));
        assert!(a.covers(&FlowAggregate::exact(&ft())));
        assert!(!FlowAggregate::exact(&ft()).covers(&a));
    }

    #[test]
    fn aggregate_display_matches_paper_layout() {
        let a = FlowAggregate {
            src: Prefix::host(parse_ip("100.0.0.1").unwrap()),
            dst: Prefix::ANY,
            proto: ProtoMatch::Exact(Proto::TCP),
            src_port: PortRange::HIGH,
            dst_port: PortRange::exact(80),
        };
        assert_eq!(a.to_string(), "100.0.0.1/32 * 6 1024-65535 80");
    }

    #[test]
    fn specificity_orders_exact_above_any() {
        let exact = FlowAggregate::exact(&ft());
        assert!(exact.specificity() > FlowAggregate::ANY.specificity());
        assert_eq!(FlowAggregate::ANY.specificity(), 0);
    }
}
