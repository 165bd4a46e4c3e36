//! Pins everything `Simulation::run` produces on four seeded scenarios.
//!
//! Each scenario is reduced to FNV-1a digests of the `.msc` bytes
//! `write_bundle` writes and of the `Debug` text of every ground-truth
//! output (`fates`, `journal`, `drops`, `nf_stats`, `queue_series`), so a
//! change to the engine or to the traffic generators that moves one event,
//! one IPID or one timestamp fails here, naming the output that moved.
//! A change meant to alter the simulation replaces the digests with the
//! ones the failure message prints.

use msc_collector::write_bundle;
use nf_sim::{paper_nf_configs, Fault, SimConfig, SimOutput, Simulation};
use nf_traffic::{burst, intermittent_flows, CaidaLike, CaidaLikeConfig, Schedule};
use nf_types::{
    paper_topology, FiveTuple, FlowAggregate, Interval, Nanos, NfId, PortRange, Proto, MICROS,
    MILLIS,
};
use std::fmt::Write as _;

/// FNV-1a over everything written into it, as bytes or as text.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl std::io::Write for Fnv {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.eat(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.eat(s.as_bytes());
        Ok(())
    }
}

fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
    let mut h = Fnv::new();
    write!(h, "{value:?}").expect("hashing cannot fail");
    h.0
}

/// `(output, digest)` for every output of one run.
fn digests(out: &SimOutput) -> Vec<(&'static str, u64)> {
    let mut bundle = Fnv::new();
    write_bundle(&mut bundle, &out.bundle).expect("hashing cannot fail");
    vec![
        ("bundle", bundle.0),
        ("fates", debug_digest(&out.fates)),
        ("journal", debug_digest(&out.journal)),
        ("drops", debug_digest(&out.drops)),
        ("nf_stats", debug_digest(&out.nf_stats)),
        ("queue_series", debug_digest(&out.queue_series)),
    ]
}

fn check(scenario: &str, out: &SimOutput, pinned: [u64; 6]) {
    let got = digests(out);
    let all: Vec<String> = got.iter().map(|(_, d)| format!("{d:#018x}")).collect();
    for ((name, digest), want) in got.iter().zip(pinned) {
        assert_eq!(
            *digest,
            want,
            "{scenario}: `{name}` moved; every digest of this run: [{}]",
            all.join(", ")
        );
    }
}

fn background(rate_mpps: f64, seed: u64, duration: Nanos) -> Schedule {
    let cfg = CaidaLikeConfig {
        rate_pps: rate_mpps * 1e6,
        ..Default::default()
    };
    CaidaLike::new(cfg, seed).generate(0, duration)
}

fn paper_sim(cfg: SimConfig) -> Simulation {
    let topology = paper_topology();
    let cfgs = paper_nf_configs(&topology);
    Simulation::new(topology, cfgs, cfg)
}

fn nf(name: &str) -> NfId {
    paper_topology().by_name(name).expect("paper topology NF")
}

#[test]
fn paper_chain_with_three_interrupts() {
    let mut sim = paper_sim(SimConfig {
        seed: 3,
        ..Default::default()
    });
    for (name, at) in [("nat2", 5), ("fw3", 10), ("vpn1", 15)] {
        sim.add_fault(Fault::Interrupt {
            nf: nf(name),
            at: at * MILLIS,
            duration: 1_500 * MICROS,
        });
    }
    let packets = background(1.4, 7, 20 * MILLIS).finalize(0);
    let out = sim.run(&packets);
    check(
        "interrupts",
        &out,
        [
            0x45c4670001edee99,
            0x8ea48de596588541,
            0xf4660efd8c8b2862,
            0x09612b07b5ecb5a5,
            0x29d43eaae24c7f2b,
            0x5571733fdafb0461,
        ],
    );
}

#[test]
fn skewed_clocks_without_fates() {
    let topology = paper_topology();
    let offsets = (0..topology.len() as i64)
        .map(|i| (i % 5 - 2) * 1_000_000)
        .collect();
    let mut sim = paper_sim(SimConfig {
        seed: 5,
        record_fates: false,
        clock_offsets_ns: offsets,
        ..Default::default()
    });
    sim.add_fault(Fault::Interrupt {
        nf: nf("nat2"),
        at: 8 * MILLIS,
        duration: 2_000 * MICROS,
    });
    let packets = background(1.4, 5, 15 * MILLIS).finalize(0);
    let out = sim.run(&packets);
    assert!(out.fates.is_empty());
    check(
        "skew",
        &out,
        [
            0x14376d387987c6d1,
            0x09612b07b5ecb5a5,
            0x28320214586ffd82,
            0x09612b07b5ecb5a5,
            0x532aa3ff6d17aa4f,
            0x5571733fdafb0461,
        ],
    );
}

#[test]
fn bug_rule_with_fates_and_queue_samples() {
    let trigger: Vec<FiveTuple> = (0..9u16)
        .map(|k| FiveTuple::new(0x6400_0001, 0x2000_0001, 2000 + k, 6000 + k, Proto::TCP))
        .collect();
    let mut sim = paper_sim(SimConfig {
        seed: 9,
        record_fates: true,
        queue_sample_every: Some(50 * MICROS),
        ..Default::default()
    });
    for fw in ["fw1", "fw2"] {
        sim.add_fault(Fault::BugRule {
            nf: nf(fw),
            matches: FlowAggregate {
                src_port: PortRange::new(2000, 2008),
                dst_port: PortRange::new(6000, 6008),
                ..FlowAggregate::exact(&trigger[0])
            },
            per_packet_ns: 20 * MICROS,
        });
    }
    let duration = 20 * MILLIS;
    let triggers = intermittent_flows(&trigger, 2 * MILLIS, duration, 4 * MILLIS, 60, 1_000, 64);
    let packets = Schedule::merge([background(1.2, 11, duration), triggers]).finalize(0);
    let out = sim.run(&packets);
    assert!(out.journal.events.iter().any(|e| e.kind_str() == "bug"));
    assert!(out.queue_series.iter().all(|s| !s.is_empty()));
    check(
        "bug",
        &out,
        [
            0xb04310ecdab2b28d,
            0x64bb73eef52b8667,
            0x9831a1150491673a,
            0x09612b07b5ecb5a5,
            0x045c2590542ed499,
            0xcb17fc7927f2a9e3,
        ],
    );
}

#[test]
fn background_merged_with_a_burst() {
    let duration = 20 * MILLIS;
    let mut gen = CaidaLike::new(
        CaidaLikeConfig {
            rate_pps: 1.0e6,
            ..Default::default()
        },
        13,
    );
    let bg = gen.generate(0, duration);
    let victim = gen.active_flows()[17];
    let mut sim = paper_sim(SimConfig {
        seed: 13,
        ..Default::default()
    });
    let (at, count, gap) = (6 * MILLIS, 2_000, 100);
    sim.journal_burst(vec![victim], Interval::new(at, at + count * gap));
    let packets = Schedule::merge([bg, burst(victim, at, count, gap, 64)]).finalize(0);
    let out = sim.run(&packets);
    check(
        "burst",
        &out,
        [
            0x736c1955bdc9cbc1,
            0x64c02a63461399e5,
            0x67d7316c1910b68f,
            0x087bbd3051d2421c,
            0x019677d7c5f13b5d,
            0x5571733fdafb0461,
        ],
    );
}
