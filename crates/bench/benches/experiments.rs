//! Experiment-pipeline benchmarks: one per paper table/figure family,
//! measuring the offline analysis cost of regenerating it (the shapes
//! themselves are produced by the `msc-experiments` binaries; see
//! EXPERIMENTS.md).
//!
//! * `fig11/…` — the full offline diagnosis pass (reconstruction +
//!   victim selection + recursive diagnosis) behind Figs. 11–13.
//! * `fig14/…` — §6.4 pattern aggregation runtime (the paper reports
//!   ~3 minutes for 84K relations; ours is 1–5 µs per relation, 0.43 s
//!   for 99K — `results/sec64.txt`).
//! * `fig15/…` — queuing-period extraction behind the wild-run analyses
//!   (Fig. 15, Tables 2–3).
//! * `netmedic/…` — the baseline's per-victim ranking cost (Figs. 11–13).
//! * `overhead/…` — the §6.2 collector on/off simulator runs.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use microscope::{diagnoses_to_relations, DiagnosisConfig, Microscope};
use msc_bench::fixture;
use msc_collector::CollectorConfig;
use msc_experiments::build_history;
use msc_trace::{reconstruct, ReconstructionConfig, Timelines};
use netmedic::{NetMedic, NetMedicConfig};
use nf_sim::{single_nf_topology, Fault, SimConfig, Simulation};
use nf_types::{NfKind, MICROS, MILLIS};

fn bench_fig11_diagnosis(c: &mut Criterion) {
    // A run with an interrupt so there are real victims to diagnose.
    let topo = nf_types::paper_topology();
    let cfgs = nf_sim::paper_nf_configs(&topo);
    let rates: Vec<f64> = cfgs.iter().map(|x| x.service.peak_rate_pps()).collect();
    let mut gen = nf_traffic::CaidaLike::new(
        nf_traffic::CaidaLikeConfig {
            rate_pps: 1_200_000.0,
            ..Default::default()
        },
        3,
    );
    let packets = gen.generate(0, 20 * MILLIS).finalize(0);
    let mut sim = Simulation::new(topo.clone(), cfgs, SimConfig::default());
    sim.add_fault(Fault::Interrupt {
        nf: topo.by_name("nat1").expect("paper topo"),
        at: 8 * MILLIS,
        duration: 800 * MICROS,
    });
    let out = sim.run(&packets);

    let mut g = c.benchmark_group("fig11");
    g.sample_size(10);
    g.throughput(Throughput::Elements(out.bundle.source_flows.len() as u64));
    g.bench_function("reconstruct_20ms_run", |b| {
        b.iter(|| reconstruct(&topo, &out.bundle, &ReconstructionConfig::default()));
    });

    let recon = reconstruct(&topo, &out.bundle, &ReconstructionConfig::default());
    let timelines = Timelines::build(&recon);
    let mut cfg = DiagnosisConfig::default();
    cfg.victims.max_victims = Some(300);
    let engine = Microscope::new(topo.clone(), rates.clone(), cfg);
    g.bench_function("diagnose_all_300_victims", |b| {
        b.iter(|| engine.diagnose_all(&recon, &timelines));
    });
    g.finish();

    // NetMedic per-victim ranking (Figs. 11–13 baseline).
    let nm = NetMedic::new(topo.clone(), NetMedicConfig::default());
    let hist = build_history(&out, topo.len(), &rates, nm.window_ns());
    let vpn = topo.by_name("vpn1").expect("paper topo");
    let mut g = c.benchmark_group("netmedic");
    g.bench_function("diagnose_one_victim", |b| {
        b.iter(|| nm.diagnose(&hist, vpn, 9 * MILLIS));
    });
    g.finish();
}

fn bench_fig14_aggregation(c: &mut Criterion) {
    let fx = fixture(1_600_000.0, 20, 11);
    let mut cfg = DiagnosisConfig::default();
    cfg.victims.max_victims = Some(500);
    let engine = Microscope::new(fx.topology.clone(), fx.peak_rates.clone(), cfg);
    let diagnoses = engine.diagnose_all(&fx.recon, &fx.timelines);
    let relations = diagnoses_to_relations(&fx.recon, &diagnoses);
    let kind_of = |id: nf_types::NfId| fx.topology.nf(id).kind;

    let mut g = c.benchmark_group("fig14");
    g.sample_size(10);
    g.throughput(Throughput::Elements(relations.len() as u64));
    g.bench_function("aggregate_patterns_th1pct", |b| {
        b.iter(|| {
            autofocus::aggregate_patterns(
                &relations,
                &autofocus::PatternConfig::default(),
                &kind_of,
            )
        });
    });
    g.finish();
}

fn bench_fig15_queuing_periods(c: &mut Criterion) {
    let fx = fixture(1_900_000.0, 15, 5);
    let vpn = fx.topology.by_name("vpn1").expect("paper topo");
    let tl = fx.timelines.nf(vpn);
    let probes: Vec<u64> = (1..100).map(|i| i * 150 * MICROS).collect();
    let mut g = c.benchmark_group("fig15");
    g.throughput(Throughput::Elements(probes.len() as u64));
    g.bench_function("queuing_period_lookup", |b| {
        b.iter(|| {
            probes
                .iter()
                .map(|&t| tl.queuing_period(t).queue_len())
                .sum::<i64>()
        });
    });
    g.finish();
}

fn bench_overhead_runs(c: &mut Criterion) {
    // §6.2: the same saturated single-NF run with the collector on vs off.
    let mut g = c.benchmark_group("overhead");
    g.sample_size(10);
    for (name, enabled) in [("collector_on", true), ("collector_off", false)] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let (topo, cfgs) = single_nf_topology(NfKind::Firewall);
                    let sim = Simulation::new(
                        topo,
                        cfgs,
                        SimConfig {
                            collector: CollectorConfig {
                                enabled,
                                ..Default::default()
                            },
                            record_fates: false,
                            ..Default::default()
                        },
                    );
                    let mut gen = nf_traffic::CaidaLike::new(
                        nf_traffic::CaidaLikeConfig {
                            rate_pps: 2_200_000.0,
                            ..Default::default()
                        },
                        13,
                    );
                    (sim, gen.generate(0, 5 * MILLIS).finalize(0))
                },
                |(sim, p)| sim.run(&p),
                BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_fig11_diagnosis,
    bench_fig14_aggregation,
    bench_fig15_queuing_periods,
    bench_overhead_runs
);
criterion_main!(benches);
