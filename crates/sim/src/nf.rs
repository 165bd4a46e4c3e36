//! Static per-NF configuration: service model, queueing and routing.

use crate::service::ServiceModel;
use nf_types::{FiveTuple, FlowAggregate, NfId};

/// Where an NF sends a processed packet.
///
/// All policies are *flow-stable*: a given five-tuple always takes the same
/// next hop, which matches real deployments (connection affinity) and is the
/// property §5's path side channel relies on.
#[derive(Debug, Clone)]
pub enum RoutePolicy {
    /// Send every packet to one fixed downstream NF.
    Fixed(NfId),
    /// Pick a downstream NF by flow hash (ECMP-style load balancing).
    HashAcross(Vec<NfId>),
    /// The firewall policy of the paper's chain (Fig. 10): flows matching
    /// `rule` are diverted to a monitor, everything else goes straight to a
    /// VPN; both sets are flow-hash balanced.
    FirewallSplit {
        /// The diversion rule.
        rule: FlowAggregate,
        /// Monitor instances for matching flows.
        monitors: Vec<NfId>,
        /// VPN instances for the rest.
        vpns: Vec<NfId>,
    },
    /// Packets leave the NF graph here (exit NF).
    Exit,
}

impl RoutePolicy {
    /// Resolves the next hop for `flow`, whose `stable_hash()` is `hash`.
    /// `None` means the packet exits.
    pub fn next_hop(&self, flow: &FiveTuple, hash: u64) -> Option<NfId> {
        debug_assert_eq!(hash, flow.stable_hash());
        match self {
            RoutePolicy::Fixed(nf) => Some(*nf),
            RoutePolicy::HashAcross(nfs) => {
                assert!(!nfs.is_empty(), "HashAcross with no targets");
                Some(nfs[(hash % nfs.len() as u64) as usize])
            }
            RoutePolicy::FirewallSplit {
                rule,
                monitors,
                vpns,
            } => {
                let set = if rule.matches(flow) { monitors } else { vpns };
                assert!(!set.is_empty(), "FirewallSplit with empty target set");
                // Use a different hash stream than the NAT level so the two
                // levels of balancing are independent.
                Some(set[(hash.rotate_left(17) % set.len() as u64) as usize])
            }
            RoutePolicy::Exit => None,
        }
    }
}

/// Full static configuration of one NF instance.
#[derive(Debug, Clone)]
pub struct NfConfig {
    /// Service-cost model (defines the peak rate `r_i`).
    pub service: ServiceModel,
    /// Input ring capacity (DPDK default: 1024).
    pub queue_capacity: usize,
    /// Routing policy for processed packets.
    pub route: RoutePolicy,
}

impl NfConfig {
    /// A config with the given service model, default 1024-slot ring and an
    /// explicit route.
    pub fn new(service: ServiceModel, route: RoutePolicy) -> Self {
        Self {
            service,
            queue_capacity: 1024,
            route,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_types::{PortRange, Prefix, Proto, ProtoMatch};

    fn flow(sport: u16) -> FiveTuple {
        FiveTuple::new(0x0a000001, 0x14000001, sport, 80, Proto::TCP)
    }

    fn hop(r: &RoutePolicy, f: FiveTuple) -> Option<NfId> {
        r.next_hop(&f, f.stable_hash())
    }

    #[test]
    fn fixed_route() {
        let r = RoutePolicy::Fixed(NfId(3));
        assert_eq!(hop(&r, flow(1)), Some(NfId(3)));
    }

    #[test]
    fn exit_route() {
        assert_eq!(hop(&RoutePolicy::Exit, flow(1)), None);
    }

    #[test]
    fn hash_route_is_flow_stable_and_spreads() {
        let r = RoutePolicy::HashAcross(vec![NfId(0), NfId(1), NfId(2)]);
        let mut seen = std::collections::HashSet::new();
        for sport in 0..200 {
            let a = hop(&r, flow(sport)).unwrap();
            let b = hop(&r, flow(sport)).unwrap();
            assert_eq!(a, b, "not flow-stable");
            seen.insert(a);
        }
        assert_eq!(seen.len(), 3, "hash does not spread: {seen:?}");
    }

    #[test]
    fn firewall_split_diverts_matching_flows() {
        let rule = FlowAggregate {
            src: Prefix::ANY,
            dst: Prefix::ANY,
            proto: ProtoMatch::Any,
            src_port: PortRange::new(1000, 1099),
            dst_port: PortRange::ANY,
        };
        let r = RoutePolicy::FirewallSplit {
            rule,
            monitors: vec![NfId(10)],
            vpns: vec![NfId(20), NfId(21)],
        };
        assert_eq!(hop(&r, flow(1050)), Some(NfId(10)));
        let out = hop(&r, flow(5000)).unwrap();
        assert!(out == NfId(20) || out == NfId(21));
    }
}
