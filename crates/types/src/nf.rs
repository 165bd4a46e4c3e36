//! Identities of network functions and topology nodes.

use std::fmt;

/// The kind (type) of a network function.
///
/// The paper's evaluation chain (Fig. 10) uses four kinds; `Custom` lets
/// examples and tests define additional ones without touching this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NfKind {
    /// Network address translator.
    Nat,
    /// Rule-matching firewall (routes matched flows to the Monitor).
    Firewall,
    /// Traffic monitor.
    Monitor,
    /// VPN endpoint (encrypting gateway).
    Vpn,
    /// Anything else, tagged with a small discriminator.
    Custom(u8),
}

impl NfKind {
    /// Short lowercase label used in reports (`fw2`, `nat1`, ...).
    pub fn label(&self) -> &'static str {
        match self {
            NfKind::Nat => "nat",
            NfKind::Firewall => "fw",
            NfKind::Monitor => "mon",
            NfKind::Vpn => "vpn",
            NfKind::Custom(_) => "nf",
        }
    }
}

impl fmt::Display for NfKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NfKind::Custom(d) => write!(f, "nf{d}"),
            other => write!(f, "{}", other.label()),
        }
    }
}

/// Identifier of one NF *instance* (the paper's "NF" means instance).
///
/// Indexes into [`crate::topology::Topology`] node tables; dense and cheap to
/// use as an array index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NfId(pub u16);

impl fmt::Display for NfId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nf{}", self.0)
    }
}

/// A node in the diagnosis graph: either the traffic source or an NF
/// instance.
///
/// The propagation analysis (§4.2) attributes scores to NFs *and* to the
/// traffic source, so the source is a first-class node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeId {
    /// The (aggregate) traffic source.
    Source,
    /// An NF instance.
    Nf(NfId),
}

impl NodeId {
    /// The NF id if this is an NF node.
    pub fn nf(&self) -> Option<NfId> {
        match self {
            NodeId::Source => None,
            NodeId::Nf(id) => Some(*id),
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Source => write!(f, "source"),
            NodeId::Nf(id) => write!(f, "{id}"),
        }
    }
}

impl From<NfId> for NodeId {
    fn from(id: NfId) -> Self {
        NodeId::Nf(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels() {
        assert_eq!(NfKind::Firewall.to_string(), "fw");
        assert_eq!(NfKind::Custom(3).to_string(), "nf3");
    }

    #[test]
    fn node_id_accessors() {
        assert_eq!(NodeId::Source.nf(), None);
        let n: NodeId = NfId(4).into();
        assert_eq!(n.nf(), Some(NfId(4)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(NodeId::Source.to_string(), "source");
        assert_eq!(NodeId::Nf(NfId(2)).to_string(), "nf2");
    }
}
