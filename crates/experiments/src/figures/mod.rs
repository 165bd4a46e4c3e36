//! The paper's figures and tables, one function each.
//!
//! A figure returns what it prints and the CSVs it writes as a [`Figure`];
//! the `figures` binary writes both under `results/`. [`FIGURES`] names
//! each figure after its `results/` file and holds the size `results/` was
//! generated at. Table 2, Table 3 and Fig. 15 are three views of one wild
//! run, which [`run`] simulates once for all of them.

/// `println!` into a figure's stdout or a CSV's text.
macro_rules! say {
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        // Writing into a `String` cannot fail.
        let _ = writeln!($out, $($arg)*);
    }};
}

mod ablations;
mod baseline_perfsight;
mod fig01;
mod fig02;
mod fig03;
mod fig11;
mod fig12;
mod fig13;
mod fig14;
mod fig15;
mod overhead;
mod sec63;
mod sec64;
mod table2;
mod table3;

use crate::cli::Params;
use crate::inject::{paper_bug_aggregate, paper_bug_flows, BugSpec};
use crate::runner::{run_spec, wild_run, RunResult, RunSpec};
use nf_types::{paper_topology, Nanos, NfId, NfKind, MICROS};
use std::fmt;

/// What one figure prints and writes.
#[derive(Debug, Default)]
pub struct Figure {
    /// Its report, written as `<name>.txt`.
    pub stdout: String,
    /// Its CSVs: file name, then text (a header line and one line per row).
    pub csvs: Vec<(&'static str, String)>,
    /// The check it failed, if any; it reports nothing after that check.
    pub failed: Option<&'static str>,
}

impl fmt::Write for Figure {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.stdout.write_str(s)
    }
}

impl Figure {
    fn fail(mut self, check: &'static str) -> Figure {
        self.failed = Some(check);
        self
    }
}

/// The element at the `pct` percentile of `sorted`, by nearest rank.
fn at_pct<T: Copy>(sorted: &[T], pct: u32) -> T {
    let rank = (f64::from(pct) / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A run of the paper topology with the §6.4 bug at fw2: trigger flows
/// every `period` hit its 20 µs (0.05 Mpps) slow path. Returns the run and
/// fw2.
fn bug_run(p: &Params, period: Nanos, max_victims: usize) -> (RunResult, NfId) {
    let fw2 = paper_topology()
        .by_name("fw2")
        .expect("paper topology has fw2");
    let mut spec = RunSpec::new(p.duration_ns(), p.rate_pps(), p.seed);
    spec.diagnosis.victims.max_victims = Some(max_victims);
    spec.plan.bug = Some(BugSpec {
        nf: fw2,
        matches: paper_bug_aggregate(),
        per_packet_ns: 20 * MICROS,
        trigger_flows: paper_bug_flows(),
        period,
        flow_size: 100,
    });
    (run_spec(&spec), fw2)
}

/// Column of a victim NF kind in Tables 2 and 3.
fn kind_col(kind: NfKind) -> usize {
    [NfKind::Nat, NfKind::Firewall, NfKind::Monitor, NfKind::Vpn]
        .iter()
        .position(|&k| k == kind)
        .expect("known kind")
}

/// One row of Table 2 or 3: `counts` per victim kind as % of `total`, as
/// report columns and as CSV cells.
fn pcts(counts: &[f64; 4], total: f64) -> (String, String) {
    let (mut text, mut cells) = (String::new(), String::new());
    for c in counts {
        let pct = c / total * 100.0;
        text += &format!(" {pct:>8.2}%");
        cells += &format!(",{pct:.3}");
    }
    (text, cells)
}

/// A figure: its name and the size `results/` was generated at.
#[derive(Debug)]
pub struct Spec {
    /// Name of its `results/` report, without `.txt`.
    pub name: &'static str,
    /// Default `--millis`.
    pub millis: u64,
    /// Default `--rate`, in Mpps.
    pub rate_mpps: f64,
    kind: Kind,
}

#[derive(Debug)]
enum Kind {
    /// Simulates its own runs.
    Own(fn(&Params) -> Figure),
    /// A view of the wild run.
    Wild(fn(&RunResult) -> Figure),
}

const fn own(name: &'static str, millis: u64, rate_mpps: f64, f: fn(&Params) -> Figure) -> Spec {
    Spec {
        name,
        millis,
        rate_mpps,
        kind: Kind::Own(f),
    }
}

// The paper offers 1.6 Mpps, which put its crypto-bound VPNs at high
// utilisation. Our VPN peak is 0.633 Mpps, so 2.1 Mpps aggregate (~0.5 Mpps
// per VPN, ~80% util) matches the paper's *bottleneck utilisation* rather
// than its absolute packet rate.
const fn wild(name: &'static str, f: fn(&RunResult) -> Figure) -> Spec {
    Spec {
        name,
        millis: 1_500,
        rate_mpps: 2.1,
        kind: Kind::Wild(f),
    }
}

/// Every figure, in the order `figures` runs them all.
pub static FIGURES: [Spec; 15] = [
    own("fig01", 6, 1.44, fig01::fig01),
    own("fig02", 5, 0.42, fig02::fig02),
    own("fig03", 5, 0.25, fig03::fig03),
    own("fig11", 1_000, 1.2, fig11::fig11),
    own("fig12", 1_200, 1.2, fig12::fig12),
    own("fig13", 800, 1.2, fig13::fig13),
    own("fig14", 600, 1.2, fig14::fig14),
    wild("fig15", fig15::fig15),
    wild("table2", table2::table2),
    wild("table3", table3::table3),
    own("sec63", 300, 1.2, sec63::sec63),
    own("sec64", 500, 1.2, sec64::sec64),
    own("ablations", 150, 1.6, ablations::ablations),
    own(
        "baseline_perfsight",
        300,
        1.2,
        baseline_perfsight::baseline_perfsight,
    ),
    own("overhead", 300, 3.0, overhead::overhead),
];

/// Runs `specs` in order at the sizes `params` gives them and hands each
/// figure to `each` as it completes. The views share one wild run while
/// their size stays the same; it is dropped after the last view.
pub fn run(
    specs: &[&'static Spec],
    params: impl Fn(&Spec) -> Params,
    mut each: impl FnMut(&'static Spec, Figure),
) {
    let last_view = specs.iter().rposition(|s| matches!(s.kind, Kind::Wild(_)));
    let mut wild: Option<(Params, RunResult)> = None;
    for (i, spec) in specs.iter().enumerate() {
        let p = params(spec);
        let fig = match spec.kind {
            Kind::Own(figure) => figure(&p),
            Kind::Wild(view) => {
                if wild.as_ref().map(|(at, _)| at) != Some(&p) {
                    // The paper diagnoses the 99.9th percentile of a
                    // one-minute 96M-packet run (80K victims over many
                    // problem episodes). Our runs are ~100x shorter, so the
                    // 99th percentile gives the same *breadth* of episodes
                    // rather than just the single worst stall.
                    wild = Some((p, wild_run(p.duration_ns(), p.rate_pps(), p.seed, 0.99)));
                }
                let fig = view(&wild.as_ref().expect("simulated above").1);
                if Some(i) == last_view {
                    wild = None;
                }
                fig
            }
        };
        each(spec, fig);
    }
}
