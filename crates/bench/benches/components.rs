//! Component benchmarks: the building blocks' costs.
//!
//! * `collector/*` — the runtime hot path (§5's "200 LoC in DPDK" whose
//!   cost is the §6.2 overhead) and the 2-byte/packet codec.
//! * `simulator/*` — DES throughput (packets simulated per second).
//! * `traffic/*` — workload synthesis rate.
//! * `matching/*` — cross-NF IPID matching speed.
//! * `reconstruct/*` — offline trace reconstruction, full and per stage.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use msc_bench::{fixture, packets};
use msc_collector::{decode_nf_log, encode_nf_log, Collector, CollectorConfig, PacketMeta};
use msc_trace::{
    assemble, match_all, match_downstream, reconstruct, EdgeStreams, MatchConfig,
    ReconstructionConfig,
};
use nf_sim::{paper_nf_configs, SimConfig, Simulation};
use nf_types::{paper_topology, FiveTuple, NfId, Proto};

fn bench_collector(c: &mut Criterion) {
    let topo = paper_topology();
    let metas: Vec<PacketMeta> = (0..32u16)
        .map(|i| PacketMeta {
            ipid: i,
            flow: FiveTuple::new(0x0a000001, 0x14000001, 1000 + i, 80, Proto::TCP),
        })
        .collect();

    let mut g = c.benchmark_group("collector");
    g.throughput(Throughput::Elements(32));
    g.bench_function("record_rx_batch32", |b| {
        let mut col = Collector::new(&topo, CollectorConfig::default());
        let mut ts = 0u64;
        b.iter(|| {
            ts += 17_000;
            col.record_rx(NfId(0), ts, &metas);
        });
    });
    g.bench_function("record_tx_batch32", |b| {
        let mut col = Collector::new(&topo, CollectorConfig::default());
        let mut ts = 0u64;
        b.iter(|| {
            ts += 17_000;
            col.record_tx(NfId(0), ts, Some(NfId(5)), &metas);
        });
    });
    g.finish();

    // Encoding: bytes/packet and speed on a realistic interior log.
    let fx = fixture(1_600_000.0, 10, 42);
    let log = fx.out.bundle.log(NfId(0)).clone();
    let apps = log.packet_appearances() as u64;
    let mut g = c.benchmark_group("encode");
    g.throughput(Throughput::Elements(apps));
    g.bench_function("encode_nf_log", |b| b.iter(|| encode_nf_log(&log)));
    let bytes = encode_nf_log(&log).expect("encodable");
    g.bench_function("decode_nf_log", |b| {
        b.iter(|| decode_nf_log(&bytes).expect("decodes"))
    });
    g.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    let pkts = packets(1_200_000.0, 10, 7);
    g.throughput(Throughput::Elements(pkts.len() as u64));
    g.bench_function("paper_topology_10ms_1.2mpps", |b| {
        b.iter_batched(
            || {
                let topo = paper_topology();
                let cfgs = paper_nf_configs(&topo);
                (
                    Simulation::new(topo, cfgs, SimConfig::default()),
                    pkts.clone(),
                )
            },
            |(sim, p)| sim.run(&p),
            BatchSize::LargeInput,
        );
    });
    g.finish();
}

fn bench_traffic(c: &mut Criterion) {
    use nf_traffic::{CaidaLike, CaidaLikeConfig};
    let mut g = c.benchmark_group("traffic");
    g.sample_size(20);
    g.bench_function("caida_like_10ms_1.2mpps", |b| {
        b.iter(|| {
            let mut gen = CaidaLike::new(
                CaidaLikeConfig {
                    rate_pps: 1_200_000.0,
                    ..Default::default()
                },
                9,
            );
            gen.generate(0, 10 * nf_types::MILLIS)
        });
    });
    g.finish();
}

fn bench_matching(c: &mut Criterion) {
    let fx = fixture(1_600_000.0, 10, 42);
    let streams = EdgeStreams::build(&fx.topology, &fx.out.bundle);
    let vpn = fx.topology.by_name("vpn1").expect("paper topology");
    let n = streams.nfs[vpn.0 as usize].rx_ts.len() as u64;
    let mut g = c.benchmark_group("matching");
    g.sample_size(20);
    g.throughput(Throughput::Elements(n));
    g.bench_function("match_downstream_vpn", |b| {
        b.iter(|| match_downstream(&streams, &fx.topology, vpn, &MatchConfig::default()));
    });
    g.finish();
}

fn bench_reconstruct(c: &mut Criterion) {
    // The full offline reconstruction plus its individual stages, so a
    // regression in any one stage shows up in isolation: edge-stream
    // building, per-NF matching (counting-sort IPID index), and trace
    // assembly into the hop arena (which interns the paths as it walks).
    let fx = fixture(1_600_000.0, 10, 42);
    let cfg = ReconstructionConfig::default();
    let n = fx.recon.traces.len() as u64;

    let mut g = c.benchmark_group("reconstruct");
    g.sample_size(20);
    g.throughput(Throughput::Elements(n));
    g.bench_function("full", |b| {
        b.iter(|| reconstruct(&fx.topology, &fx.out.bundle, &cfg));
    });
    g.bench_function("streams_build", |b| {
        b.iter(|| EdgeStreams::build(&fx.topology, &fx.out.bundle));
    });
    let streams = EdgeStreams::build(&fx.topology, &fx.out.bundle);
    g.bench_function("match_all", |b| {
        b.iter(|| match_all(&streams, &fx.topology, &cfg));
    });
    let matches = match_all(&streams, &fx.topology, &cfg);
    g.bench_function("assemble", |b| {
        // `assemble` consumes the streams, so each iteration gets a fresh
        // copy from the setup closure (its cost is excluded from the
        // measurement by `iter_batched`).
        b.iter_batched(
            || EdgeStreams::build(&fx.topology, &fx.out.bundle),
            |s| assemble(&fx.topology, &fx.out.bundle, s, &matches),
            BatchSize::LargeInput,
        );
    });
    g.finish();
}

fn bench_diagnosis_components(c: &mut Criterion) {
    use microscope::credit_walk_into;

    let fx = fixture(1_600_000.0, 10, 42);
    // The busiest NF timeline gives the indexed period lookup a realistic
    // arrival density; probe anchors stride across its arrivals.
    let tl = (0..fx.topology.len() as u16)
        .map(|i| fx.timelines.nf(NfId(i)))
        .max_by_key(|tl| tl.arrivals.len())
        .expect("paper topology has NFs");
    let probes: Vec<u64> = tl
        .arrivals
        .iter()
        .step_by((tl.arrivals.len() / 256).max(1))
        .map(|a| a.ts)
        .collect();

    let mut g = c.benchmark_group("diagnosis");
    g.throughput(Throughput::Elements(probes.len() as u64));
    g.bench_function("queuing_period_above_t0", |b| {
        b.iter(|| {
            probes
                .iter()
                .map(|&t| tl.queuing_period_above(t, 0).n_arrived)
                .sum::<u64>()
        });
    });
    g.bench_function("queuing_period_above_t32", |b| {
        b.iter(|| {
            probes
                .iter()
                .map(|&t| tl.queuing_period_above(t, 32).n_arrived)
                .sum::<u64>()
        });
    });

    // A realistic §4.2 walk: paper-depth chains with mixed squeezes and
    // stretches, through the reusable scratch buffers.
    let walks: Vec<Vec<u64>> = (0..256u64)
        .map(|i| {
            (0..6)
                .map(|j| 1_000_000 / (1 + (i * 7 + j * 13) % 97))
                .collect()
        })
        .collect();
    g.throughput(Throughput::Elements(walks.len() as u64));
    g.bench_function("credit_walk_depth6", |b| {
        let mut credits = Vec::new();
        let mut stack = Vec::new();
        b.iter(|| {
            walks
                .iter()
                .map(|w| {
                    credit_walk_into(2_000_000, w, &mut credits, &mut stack);
                    credits.iter().sum::<u64>()
                })
                .sum::<u64>()
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_collector,
    bench_simulator,
    bench_traffic,
    bench_matching,
    bench_reconstruct,
    bench_diagnosis_components
);
criterion_main!(benches);
