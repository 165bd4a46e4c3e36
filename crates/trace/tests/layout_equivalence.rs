//! The per-packet layout against the one it replaced.
//!
//! [`EdgeStreams::build`] used to copy every record into array-of-struct
//! streams and keep four position lists beside them, from which the matcher
//! gathered each edge's `(ts, ipid)` sequence; path prefixes were interned
//! by a separate pass that stored one id per *hop*, looked up through a
//! `HashMap`. Both live on below as [`oracle`], and the columns the pipeline
//! reads today must say the same thing: every edge column equals the
//! gathered sequence, every tx entry resolves to the `(to, position)` the
//! inverse lists held, and [`Reconstruction::path_before`] equals the old
//! per-hop id for every hop, with the interned paths equal as a whole.
//!
//! Inputs are simulated 16-NF runs and hand-shaped random bundles: empty
//! batches, sends to a node that is not a topology edge, NFs with no tx (or
//! no records at all), more sends than reads. (An entry NF without a source
//! edge — the fourth shape the old builder tolerated — cannot be built:
//! [`Topology::upstream_nodes`] lists the source for every entry.)

use msc_collector::{FlowRecord, NfLog, TraceBundle};
use msc_trace::{reconstruct, EdgeStreams, Reconstruction, ReconstructionConfig, TxNext};
use nf_sim::{paper_nf_configs, Fault, SimConfig, Simulation};
use nf_traffic::{CaidaLike, CaidaLikeConfig};
use nf_types::{paper_topology, FiveTuple, NfId, NfKind, NodeId, Proto, Topology, MILLIS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The layout of the parent commit, kept as it was (minus what nothing
/// below reads: the `PacketRef` accessors).
mod oracle {
    use msc_collector::TraceBundle;
    use msc_trace::{ReconstructedTrace, TraceHop};
    use nf_types::{Ipid, Nanos, NfId, NodeId, Topology};
    use std::collections::HashMap;

    pub struct RxEntry {
        pub ts: Nanos,
        pub ipid: Ipid,
    }

    pub struct TxEntry {
        pub ts: Nanos,
        pub ipid: Ipid,
        pub to: Option<NfId>,
    }

    pub struct SourceEntry {
        pub ts: Nanos,
        pub ipid: Ipid,
        pub entry: NfId,
    }

    #[derive(Default)]
    pub struct NfStreams {
        pub rx: Vec<RxEntry>,
        pub tx: Vec<TxEntry>,
    }

    pub struct OldStreams {
        pub nfs: Vec<NfStreams>,
        pub source: Vec<SourceEntry>,
        pub upstreams: Vec<Vec<NodeId>>,
        /// `edge_pos[down][slot]`: ordered indices into the upstream's tx
        /// stream (or the source stream) of the packets sent on that edge.
        pub edge_pos: Vec<Vec<Vec<u32>>>,
        /// `tx_edge_pos[nf][i]`: position of tx entry `i` within its edge
        /// stream (or among the exit sends).
        pub tx_edge_pos: Vec<Vec<u32>>,
        pub source_edge_pos: Vec<u32>,
        /// Per NF: ordered indices into its tx stream of its exit sends.
        pub exit_pos: Vec<Vec<u32>>,
    }

    impl OldStreams {
        pub fn build(topology: &Topology, bundle: &TraceBundle) -> Self {
            let mut nfs: Vec<NfStreams> = Vec::with_capacity(topology.len());
            for log in &bundle.logs {
                let mut s = NfStreams::default();
                for b in log.rx.iter() {
                    s.rx.extend(b.ipids.iter().map(|&ipid| RxEntry { ts: b.ts, ipid }));
                }
                for b in log.tx.iter() {
                    s.tx.extend(b.ipids.iter().map(|&ipid| TxEntry {
                        ts: b.ts,
                        ipid,
                        to: b.to,
                    }));
                }
                nfs.push(s);
            }
            let source: Vec<SourceEntry> = bundle
                .source_flows
                .iter()
                .map(|f| SourceEntry {
                    ts: f.ts,
                    ipid: f.ipid,
                    entry: topology.entry_for(&f.flow),
                })
                .collect();

            let n = topology.len();
            let upstreams: Vec<Vec<NodeId>> = (0..n)
                .map(|d| topology.upstream_nodes(NfId(d as u16)))
                .collect();
            let mut edge_pos: Vec<Vec<Vec<u32>>> = upstreams
                .iter()
                .map(|u| vec![Vec::new(); u.len()])
                .collect();
            let mut exit_pos: Vec<Vec<u32>> = vec![Vec::new(); n];

            let mut tx_edge_pos: Vec<Vec<u32>> = Vec::with_capacity(nfs.len());
            for (nf_idx, s) in nfs.iter().enumerate() {
                let me = NodeId::Nf(NfId(nf_idx as u16));
                let my_slot: Vec<Option<usize>> = upstreams
                    .iter()
                    .map(|u| u.iter().position(|&node| node == me))
                    .collect();
                let mut orphan_count: Vec<u32> = vec![0; n];
                let mut pos_within: Vec<u32> = Vec::with_capacity(s.tx.len());
                for (i, e) in (0u32..).zip(&s.tx) {
                    match e.to {
                        Some(d) => match my_slot[d.0 as usize] {
                            Some(slot) => {
                                let v = &mut edge_pos[d.0 as usize][slot];
                                pos_within.push(v.len() as u32);
                                v.push(i);
                            }
                            None => {
                                pos_within.push(orphan_count[d.0 as usize]);
                                orphan_count[d.0 as usize] += 1;
                            }
                        },
                        None => {
                            let v = &mut exit_pos[nf_idx];
                            pos_within.push(v.len() as u32);
                            v.push(i);
                        }
                    }
                }
                tx_edge_pos.push(pos_within);
            }

            let src_slot: Vec<Option<usize>> = upstreams
                .iter()
                .map(|u| u.iter().position(|&node| node == NodeId::Source))
                .collect();
            let mut source_edge_pos: Vec<u32> = Vec::with_capacity(source.len());
            for (i, e) in (0u32..).zip(&source) {
                let Some(slot) = src_slot[e.entry.0 as usize] else {
                    source_edge_pos.push(0);
                    continue;
                };
                let v = &mut edge_pos[e.entry.0 as usize][slot];
                source_edge_pos.push(v.len() as u32);
                v.push(i);
            }

            Self {
                nfs,
                source,
                upstreams,
                edge_pos,
                tx_edge_pos,
                source_edge_pos,
                exit_pos,
            }
        }

        /// The gather `match_downstream` ran per edge: the `(ts, ipid)` of
        /// every packet sent on slot `slot` of `down`, through `edge_pos`.
        pub fn edge_entries(&self, down: usize, slot: usize) -> Vec<(Nanos, Ipid)> {
            self.edge_pos[down][slot]
                .iter()
                .map(|&idx| match self.upstreams[down][slot] {
                    NodeId::Source => {
                        let e = &self.source[idx as usize];
                        (e.ts, e.ipid)
                    }
                    NodeId::Nf(u) => {
                        let e = &self.nfs[u.0 as usize].tx[idx as usize];
                        (e.ts, e.ipid)
                    }
                })
                .collect()
        }
    }

    pub const PATH_ROOT: u32 = 0;

    pub struct OldPathTrie {
        nodes: Vec<(u32, NodeId)>,
        children: HashMap<(u32, NodeId), u32>,
    }

    impl OldPathTrie {
        fn child(&mut self, parent: u32, node: NodeId) -> u32 {
            if let Some(&id) = self.children.get(&(parent, node)) {
                return id;
            }
            let id = self.nodes.len() as u32;
            self.nodes.push((parent, node));
            self.children.insert((parent, node), id);
            id
        }

        pub fn path(&self, id: u32) -> Vec<NodeId> {
            let mut v = Vec::new();
            let mut cur = id;
            loop {
                v.push(self.nodes[cur as usize].1);
                if cur == PATH_ROOT {
                    break;
                }
                cur = self.nodes[cur as usize].0;
            }
            v.reverse();
            v
        }

        pub fn len(&self) -> usize {
            self.nodes.len()
        }

        /// The id of `parent` extended by `node`, if some trace took it.
        pub fn get(&self, parent: u32, node: NodeId) -> Option<u32> {
            self.children.get(&(parent, node)).copied()
        }

        /// Interns every hop-prefix path of `traces`; per arena hop, the id
        /// of the node sequence strictly before that hop.
        pub fn index(traces: &[ReconstructedTrace], hops: &[TraceHop]) -> (Self, Vec<u32>) {
            let mut trie = Self {
                nodes: vec![(PATH_ROOT, NodeId::Source)],
                children: HashMap::new(),
            };
            let mut hop_path_ids = vec![PATH_ROOT; hops.len()];
            for tr in traces {
                let mut cur = PATH_ROOT;
                for i in tr.hops.start..tr.hops.end {
                    hop_path_ids[i as usize] = cur;
                    cur = trie.child(cur, NodeId::Nf(hops[i as usize].nf));
                }
            }
            (trie, hop_path_ids)
        }
    }
}

use oracle::{OldPathTrie, OldStreams};

/// Every column of `EdgeStreams::build` against the old streams and their
/// position lists.
fn assert_streams_equal_the_old_layout(topology: &Topology, bundle: &TraceBundle) {
    let new = EdgeStreams::build(topology, bundle);
    let old = OldStreams::build(topology, bundle);

    for (d, ups) in old.upstreams.iter().enumerate() {
        let down = NfId(d as u16);
        assert_eq!(new.upstreams(down), &ups[..]);
        for (slot, &node) in ups.iter().enumerate() {
            assert_eq!(new.slot_of(node, down), Some(slot));
            let gathered = old.edge_entries(d, slot);
            let column: Vec<_> = new.edge(down, slot).iter().collect();
            assert_eq!(column, gathered, "edge {node:?} -> {down:?}");
            let by_node: Vec<_> = new.edge_entries(node, down).collect();
            assert_eq!(by_node, gathered);
        }
    }

    for (u, (s_new, s_old)) in new.nfs.iter().zip(&old.nfs).enumerate() {
        let nf = NfId(u as u16);
        let rx_old: Vec<_> = s_old.rx.iter().map(|e| (e.ts, e.ipid)).collect();
        assert_eq!(s_new.rx().collect::<Vec<_>>(), rx_old, "rx of {nf:?}");
        let sizes: Vec<usize> = s_new.rx_batches.iter().map(|b| b.size as usize).collect();
        let logged: Vec<usize> = bundle.logs[u].rx.iter().map(|b| b.len()).collect();
        assert_eq!(sizes, logged);

        for (i, e) in s_old.tx.iter().enumerate() {
            let hop = new.tx(nf, i).expect("one tx entry per old one");
            assert_eq!(hop.ts, e.ts, "{nf:?} tx {i}");
            let old_pos = old.tx_edge_pos[u][i] as usize;
            let slot = e.to.and_then(|d| new.slot_of(NodeId::Nf(nf), d));
            match (e.to, slot) {
                (None, _) => {
                    assert_eq!(hop.next, TxNext::Exit { pos: old_pos });
                    assert_eq!(old.exit_pos[u][old_pos] as usize, i);
                }
                (Some(down), Some(slot)) => {
                    let pos = old_pos;
                    assert_eq!(hop.next, TxNext::Edge { down, slot, pos });
                    assert_eq!(old.edge_pos[down.0 as usize][slot][pos] as usize, i);
                    let sent = new.edge(down, slot).iter().nth(pos);
                    assert_eq!(sent, Some((e.ts, e.ipid)));
                }
                (Some(_), None) => assert_eq!(hop.next, TxNext::Stray),
            }
        }
        assert_eq!(new.tx(nf, s_old.tx.len()), None);
    }

    for (i, e) in old.source.iter().enumerate() {
        let at = new
            .slot_of(NodeId::Source, e.entry)
            .map(|slot| (slot, old.source_edge_pos[i] as usize));
        assert_eq!(new.source_send(i), (e.entry, at));
        let (slot, pos) = at.expect("entries have a source edge");
        let sent = new.edge(e.entry, slot).iter().nth(pos);
        assert_eq!(sent, Some((e.ts, e.ipid)));
    }
}

/// `paths` / `path_before` against the separate per-hop interning pass.
fn assert_paths_equal_the_old_index(recon: &Reconstruction) {
    let (old, hop_path_ids) = OldPathTrie::index(&recon.traces, &recon.hops);
    assert_eq!(recon.paths.len(), old.len());
    for id in 0..old.len() as u32 {
        assert_eq!(recon.paths.path(id), old.path(id), "path {id}");
    }
    assert_eq!(recon.path_ids.len(), recon.traces.len());
    for (t, tr) in recon.traces.iter().enumerate() {
        let old_ids = &hop_path_ids[tr.hops.start as usize..tr.hops.end as usize];
        for (h, &want) in old_ids.iter().enumerate() {
            assert_eq!(recon.path_before(t, h), want, "trace {t} hop {h}");
        }
        // One past the last hop: the whole path, which the old pass
        // interned but stored nowhere.
        let whole = match (old_ids.last(), recon.hops_of(t).last()) {
            (Some(&before), Some(last)) => old.get(before, NodeId::Nf(last.nf)),
            _ => Some(oracle::PATH_ROOT),
        };
        assert_eq!(Some(recon.path_before(t, tr.hop_count())), whole);
        assert_eq!(recon.path_ids[t], recon.path_before(t, tr.hop_count()));
    }
}

fn assert_layout_equals_oracle(topology: &Topology, bundle: &TraceBundle) {
    assert_streams_equal_the_old_layout(topology, bundle);
    let (recon, _) = reconstruct(topology, bundle, &ReconstructionConfig::default()).unwrap();
    assert_paths_equal_the_old_index(&recon);
}

#[test]
fn columns_and_paths_equal_the_old_layout_on_simulated_16_nf_runs() {
    let topology = paper_topology();
    let mut paths_seen = 0;
    for (seed, rate_pps, interrupt) in [(11u64, 1.2e6, true), (42, 1.6e6, false)] {
        let mut sim = Simulation::new(
            topology.clone(),
            paper_nf_configs(&topology),
            SimConfig {
                seed,
                ..Default::default()
            },
        );
        if interrupt {
            // Long enough to overflow nat2's ring: drops end traces mid-path.
            sim.add_fault(Fault::Interrupt {
                nf: topology.by_name("nat2").unwrap(),
                at: 4 * MILLIS,
                duration: 2 * MILLIS,
            });
        }
        let cfg = CaidaLikeConfig {
            rate_pps,
            ..Default::default()
        };
        let packets = CaidaLike::new(cfg, seed)
            .generate(0, 10 * MILLIS)
            .finalize(0);
        let out = sim.run(&packets);
        assert_layout_equals_oracle(&topology, &out.bundle);
        let (recon, _) =
            reconstruct(&topology, &out.bundle, &ReconstructionConfig::default()).unwrap();
        assert!(recon.report.delivered > 5_000, "{:?}", recon.report);
        paths_seen += recon.paths.len();
    }
    assert!(paths_seen > 100, "the runs fan out over {paths_seen} paths");
}

/// Two entries merging into a two-NF chain, plus an NF nothing connects to:
/// `0, 1 -> 2 -> 3`, `4` alone.
fn merge_topology() -> Topology {
    let mut b = Topology::builder();
    let n0 = b.add_nf(NfKind::Nat, "nat0");
    let n1 = b.add_nf(NfKind::Nat, "nat1");
    let fw = b.add_nf(NfKind::Firewall, "fw1");
    let vpn = b.add_nf(NfKind::Vpn, "vpn1");
    b.add_nf(NfKind::Monitor, "mon1");
    b.add_entry(n0);
    b.add_entry(n1);
    b.add_edge(n0, fw);
    b.add_edge(n1, fw);
    b.add_edge(fw, vpn);
    b.build().unwrap()
}

const N_NFS: u16 = 5;

/// The log shape of `tests/properties.rs`: time-ordered batches of 0..=32
/// IPIDs, a tx target that may be any NF of the topology (edge or not) or
/// the exit. A tiny IPID alphabet, so some reads do match.
fn arb_nf_log(rng: &mut StdRng, nf: u16) -> NfLog {
    let ipids = |rng: &mut StdRng| -> Vec<u16> {
        (0..rng.gen_range(0..=32))
            .map(|_| rng.gen_range(0..6))
            .collect()
    };
    let mut rx: Vec<(u64, Vec<u16>)> = (0..rng.gen_range(0..12))
        .map(|_| (rng.gen_range(0..1_000_000), ipids(rng)))
        .collect();
    let mut tx: Vec<(u64, Option<u16>, Vec<u16>)> = (0..rng.gen_range(0..12))
        .map(|_| {
            let ts = rng.gen_range(0..1_000_000);
            let to = rng.gen_bool(0.75).then(|| rng.gen_range(0..N_NFS));
            (ts, to, ipids(rng))
        })
        .collect();
    let mut log = NfLog::new(NfId(nf));
    rx.sort_by_key(|b| b.0);
    for (ts, ipids) in rx {
        log.rx.push(ts, ipids);
    }
    tx.sort_by_key(|b| b.0);
    for (ts, to, ipids) in tx {
        log.tx.push(ts, to.map(NfId), ipids);
    }
    log
}

fn arb_bundle(rng: &mut StdRng) -> TraceBundle {
    let logs = (0..N_NFS).map(|nf| arb_nf_log(rng, nf)).collect();
    let mut source_flows: Vec<FlowRecord> = (0..rng.gen_range(0..60))
        .map(|_| FlowRecord {
            ts: rng.gen_range(0..1_000_000),
            ipid: rng.gen_range(0..6),
            flow: FiveTuple::new(0x0a00_0001, 0x1400_0001, rng.gen(), 443, Proto::UDP),
        })
        .collect();
    source_flows.sort_by_key(|s| s.ts);
    TraceBundle { logs, source_flows }
}

#[test]
fn columns_and_paths_equal_the_old_layout_on_arbitrary_bundles() {
    let topology = merge_topology();
    for case in 0..96 {
        let bundle = arb_bundle(&mut StdRng::seed_from_u64(case));
        let equal = std::panic::catch_unwind(|| assert_layout_equals_oracle(&topology, &bundle));
        assert!(equal.is_ok(), "case {case}: {bundle:?}");
    }
}

#[test]
fn an_nf_without_records_and_a_bundle_without_any_are_handled() {
    let topology = merge_topology();
    let empty = TraceBundle {
        logs: (0..N_NFS).map(|i| NfLog::new(NfId(i))).collect(),
        source_flows: Vec::new(),
    };
    assert_layout_equals_oracle(&topology, &empty);
    // Sends with nothing read anywhere, one to a non-edge, one empty batch.
    let mut only_tx = empty;
    only_tx.logs[2].tx.push(10, Some(NfId(3)), [1, 2]);
    only_tx.logs[2].tx.push(20, Some(NfId(0)), [3]);
    only_tx.logs[2].tx.push(30, None, []);
    only_tx.logs[3].tx.push(40, None, [4]);
    assert_layout_equals_oracle(&topology, &only_tx);
}
