//! # Microscope — queue-based performance diagnosis for network functions
//!
//! A comprehensive Rust reproduction of *Gong, Li, Anwer, Shaikh, Yu:
//! "Microscope: Queue-based Performance Diagnosis for Network Functions",
//! SIGCOMM 2020*.
//!
//! This facade crate re-exports the whole system; see `README.md` for a
//! tour, `DESIGN.md` for the architecture and substitutions, and
//! `EXPERIMENTS.md` for paper-vs-measured results. The underlying crates:
//!
//! * [`types`] (`nf-types`) — packets, flows, NF ids, the topology DAG;
//! * [`traffic`] (`nf-traffic`) — CAIDA-like synthetic workloads, bursts;
//! * [`sim`] (`nf-sim`) — a deterministic discrete-event simulator of
//!   DPDK-style NF chains with fault injection;
//! * [`collector`] (`msc-collector`) — the ~2-byte/packet runtime
//!   collector (Table 1, §5);
//! * [`trace`] (`msc-trace`) — offline trace reconstruction with IPID
//!   disambiguation, timelines and queuing periods;
//! * [`stream`] (`msc-stream`) — the streaming engine: windowed
//!   reconstruction over collector chunk streams with O(window) memory,
//!   bit-identical to the offline pipeline;
//! * [`diagnosis`] (`microscope`) — the paper's contribution: local +
//!   propagation + recursive diagnosis (§4.1–4.3);
//! * [`patterns`] (`autofocus`) — causal-pattern aggregation (§4.4);
//! * [`baseline`] (`netmedic`) — the NetMedic time-window baseline;
//! * [`experiments`] (`msc-experiments`) — one binary per paper figure
//!   and table.
//!
//! ## Quickstart
//!
//! ```
//! use microscope_repro::prelude::*;
//!
//! // A NAT -> VPN chain.
//! let mut sb = ScenarioBuilder::new();
//! let nat = sb.nf(NfKind::Nat, "nat1");
//! let vpn = sb.nf(NfKind::Vpn, "vpn1");
//! sb.entry(nat);
//! sb.edge(nat, vpn);
//! let (topology, nf_configs) = sb.build();
//! let peak_rates: Vec<f64> =
//!     nf_configs.iter().map(|c| c.service.peak_rate_pps()).collect();
//!
//! // Traffic with an injected stall at the NAT.
//! let mut gen = CaidaLike::new(
//!     CaidaLikeConfig { rate_pps: 400_000.0, ..Default::default() },
//!     7,
//! );
//! let packets = gen.generate(0, 20 * MILLIS).finalize(0);
//! let mut sim = Simulation::new(topology.clone(), nf_configs, SimConfig::default());
//! sim.add_fault(Fault::Interrupt { nf: nat, at: 5 * MILLIS, duration: MILLIS });
//! let out = sim.run(&packets);
//!
//! // Offline: reconstruct traces from the collector bundle and diagnose.
//! let recon = reconstruct(&topology, &out.bundle, &ReconstructionConfig::default());
//! let timelines = Timelines::build(&recon);
//! let engine = Microscope::new(topology, peak_rates, DiagnosisConfig::default());
//! let diagnoses = engine.diagnose_all(&recon, &timelines);
//! assert!(!diagnoses.is_empty());
//! ```

#![forbid(unsafe_code)]

pub use autofocus as patterns;
pub use microscope as diagnosis;
pub use msc_collector as collector;
pub use msc_experiments as experiments;
pub use msc_stream as stream;
pub use msc_trace as trace;
pub use netmedic as baseline;
pub use nf_sim as sim;
pub use nf_traffic as traffic;
pub use nf_types as types;

/// The most commonly used items in one import.
pub mod prelude {
    pub use autofocus::{aggregate_patterns, CausalRelation, Pattern, PatternConfig};
    pub use microscope::{
        diagnoses_to_relations, CacheStats, Diagnosis, DiagnosisCache, DiagnosisConfig,
        LatencyThreshold, Microscope, VictimConfig,
    };
    pub use msc_collector::{chunk_bundle, Collector, CollectorConfig, TraceBundle};
    pub use msc_stream::{StreamConfig, StreamEngine};
    pub use msc_trace::{reconstruct, Reconstruction, ReconstructionConfig, Timelines};
    pub use netmedic::{NetMedic, NetMedicConfig};
    pub use nf_sim::{
        paper_nf_configs, Fault, NfConfig, RoutePolicy, ScenarioBuilder, ServiceModel, SimConfig,
        Simulation,
    };
    pub use nf_traffic::{burst, cbr, CaidaLike, CaidaLikeConfig, Schedule};
    pub use nf_types::{
        paper_topology, FiveTuple, NfId, NfKind, NodeId, Packet, Proto, Topology, MICROS, MILLIS,
        SECONDS,
    };
}
