//! §6.2 runtime overhead: peak-throughput degradation caused by the
//! collector.
//!
//! Paper: "between 0.88% and 2.33% for different NFs", measured at peak
//! throughput (the worst case). We drive each NF kind past saturation with
//! the collector on and off and compare the achieved processing rates.

use super::Figure;
use crate::cli::Params;
use msc_collector::CollectorConfig;
use nf_sim::{single_nf_topology, SimConfig, Simulation};
use nf_traffic::{CaidaLike, CaidaLikeConfig};
use nf_types::NfKind;

fn peak_rate(kind: NfKind, enabled: bool, p: &Params) -> f64 {
    let (topo, cfgs) = single_nf_topology(kind);
    let sim = Simulation::new(
        topo,
        cfgs,
        SimConfig {
            seed: p.seed,
            collector: CollectorConfig { enabled },
            record_fates: false,
            ..Default::default()
        },
    );
    // Overdrive: the default 3 Mpps into every kind saturates all of them.
    let mut gen = CaidaLike::new(
        CaidaLikeConfig {
            rate_pps: p.rate_pps(),
            ..Default::default()
        },
        p.seed,
    );
    let out = sim.run(&gen.generate(0, p.duration_ns()).finalize(0));
    out.nf_stats[0].rate_pps(out.duration)
}

pub(super) fn overhead(p: &Params) -> Figure {
    let mut fig = Figure::default();
    say!(
        fig,
        "# §6.2: collector overhead at peak throughput per NF kind"
    );
    say!(fig, "   nf_kind       off_mpps        on_mpps     overhead");
    let mut csv = String::from("nf_kind,peak_off_mpps,peak_on_mpps,overhead_pct\n");
    for kind in [NfKind::Nat, NfKind::Firewall, NfKind::Monitor, NfKind::Vpn] {
        let off = peak_rate(kind, false, p) / 1e6;
        let on = peak_rate(kind, true, p) / 1e6;
        let overhead = (off - on) / off * 100.0;
        let kind = kind.to_string();
        say!(fig, "{kind:>10} {off:>14.3} {on:>14.3} {overhead:>11.2}%");
        say!(csv, "{kind},{off:.4},{on:.4},{overhead:.3}");
    }
    fig.csvs.push(("overhead.csv", csv));
    say!(
        fig,
        "\n(paper: 0.88%–2.33% depending on the NF; worst case, at peak load)"
    );
    fig
}
