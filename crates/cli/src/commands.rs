//! Subcommand implementations for the `microscope` CLI.

use microscope_cli::pipeline::{self, Deployment, Run, Settled};
use msc_collector::{chunk_bundle, load_bundle, save_bundle, save_bundle_chunked};
use msc_trace::MatchConfig;
use nf_sim::{paper_nf_configs, Fault, SimConfig, Simulation};
use nf_traffic::{CaidaLike, CaidaLikeConfig};
use nf_types::{emit_topology, paper_topology, parse_topology, MICROS, MILLIS};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Top-level usage text.
pub const USAGE: &str = "\
microscope — queue-based performance diagnosis for network functions

commands:
  record   --out DIR [--millis N] [--rate MPPS] [--seed S]
           [--interrupt NF:AT_MS:LEN_US]... [--skew] [--chunk-ms N]
  inspect  --bundle FILE
  diagnose --topology FILE --bundle FILE [--chunk-ms N] [--quantile Q]
           [--top N] [--skew]
  stream   another name for diagnose
  skew     --topology FILE --bundle FILE

diagnose reads the bundle in time windows as it goes: a whole-run .msc in
--chunk-ms windows (default 10), a chunked .mscs chunk by chunk. With --skew
it holds windows until the estimated clock offsets settle (at the latest
when the run ends, on the whole-run estimate), then corrects every window by
them. skew holds the same windows until the offsets settle and prints them;
like diagnose, it refuses a file whose chunks are out of order.

run `microscope <command>` with missing flags to see its specific errors.";

/// A tiny flag parser: `--key value` pairs (repeatable) plus boolean
/// switches, checked against the flags the subcommand defines.
struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    /// Parses `args`, where `valued` flags take one value and `switches`
    /// take none; any other flag is an error naming it.
    fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Flags, String> {
        let mut f = Flags {
            pairs: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got {a:?}"))?;
            if switches.contains(&key) {
                f.switches.push(key.to_string());
            } else if valued.contains(&key) {
                match it.next() {
                    Some(v) if !v.starts_with("--") => f.pairs.push((key.to_string(), v.clone())),
                    _ => return Err(format!("--{key} needs a value")),
                }
            } else {
                return Err(format!("unknown flag --{key}"));
            }
        }
        Ok(f)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_all(&self, key: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{key}: {v:?}")),
        }
    }

    /// `--chunk-ms`, when given: a whole number of milliseconds, at least 1
    /// (0 would cut the run into one chunk per nanosecond) and small enough
    /// to be a nanosecond count.
    fn chunk_ms(&self) -> Result<Option<u64>, String> {
        if self.get("chunk-ms").is_none() {
            return Ok(None);
        }
        match self.num("chunk-ms", 0u64)? {
            0 => Err("--chunk-ms must be at least 1".to_string()),
            ms => {
                scaled("--chunk-ms", ms, MILLIS)?;
                Ok(Some(ms))
            }
        }
    }

    /// `--quantile` (default 0.99): the victim latency quantile, strictly
    /// between 0 and 1.
    fn quantile(&self) -> Result<f64, String> {
        let q: f64 = self.num("quantile", 0.99)?;
        if q > 0.0 && q < 1.0 {
            Ok(q)
        } else {
            Err(format!("--quantile must be in (0, 1), got {q}"))
        }
    }
}

/// `value` of `unit` nanoseconds each, or an error naming `flag` when the
/// product does not fit the 64-bit nanosecond clock.
fn scaled(flag: &str, value: u64, unit: u64) -> Result<u64, String> {
    value
        .checked_mul(unit)
        .ok_or_else(|| format!("{flag} value {value} does not fit a 64-bit nanosecond count"))
}

/// Runs the part of a command that writes stdout. A reader that closed the
/// pipe (`microscope diagnose … | head -2`) ends the command quietly; any
/// other write error is the command's error.
fn emit(
    out: &mut dyn Write,
    body: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> Result<(), String> {
    match body(out).and_then(|()| out.flush()) {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => Err(format!("write stdout: {e}")),
        _ => Ok(()),
    }
}

fn load_deployment(path: &str) -> Result<Deployment, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse_topology(&text).map_err(|e| format!("{path}: {e}"))
}

/// `microscope help` — the usage text on stdout.
pub fn help(out: &mut dyn Write) -> Result<(), String> {
    emit(out, |out| writeln!(out, "{USAGE}"))
}

/// `microscope record` — simulate a run and write the operator-visible
/// artifacts (deployment description + collector bundle).
pub fn record(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let f = Flags::parse(
        args,
        &["out", "millis", "rate", "seed", "interrupt", "chunk-ms"],
        &["skew"],
    )?;
    let out_dir = PathBuf::from(f.require("out")?);
    let millis: u64 = f.num("millis", 200)?;
    let duration = scaled("--millis", millis, MILLIS)?;
    let rate: f64 = f.num("rate", 1.2)?;
    if !(rate.is_finite() && rate > 0.0) {
        return Err(format!(
            "--rate must be a positive number of Mpps, got {rate}"
        ));
    }
    let seed: u64 = f.num("seed", 42)?;
    let chunk_ms = f.chunk_ms()?;

    let topology = paper_topology();
    let cfgs = paper_nf_configs(&topology);
    let rates: Vec<f64> = cfgs.iter().map(|c| c.service.peak_rate_pps()).collect();

    let mut sim_cfg = SimConfig {
        seed,
        record_fates: false,
        ..Default::default()
    };
    if f.has("skew") {
        // Spread the NFs over "servers" with ±2 ms clock offsets.
        sim_cfg.clock_offsets_ns = (0..topology.len() as i64)
            .map(|i| (i % 5 - 2) * 1_000_000)
            .collect();
    }
    let mut sim = Simulation::new(topology.clone(), cfgs, sim_cfg);
    for spec in f.get_all("interrupt") {
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() != 3 {
            return Err(format!("--interrupt wants NF:AT_MS:LEN_US, got {spec:?}"));
        }
        let nf = topology
            .by_name(parts[0])
            .ok_or_else(|| format!("no NF named {:?}", parts[0]))?;
        let at: u64 = parts[1]
            .parse()
            .map_err(|_| format!("bad ms in {spec:?}"))?;
        let len: u64 = parts[2]
            .parse()
            .map_err(|_| format!("bad µs in {spec:?}"))?;
        sim.add_fault(Fault::Interrupt {
            nf,
            at: scaled("--interrupt", at, MILLIS)?,
            duration: scaled("--interrupt", len, MICROS)?,
        });
    }

    let mut gen = CaidaLike::new(
        CaidaLikeConfig {
            rate_pps: rate * 1e6,
            ..Default::default()
        },
        seed,
    );
    let packets = gen.generate(0, duration).finalize(0);
    let n = packets.len();
    let run = sim.run(&packets);

    std::fs::create_dir_all(&out_dir).map_err(|e| format!("mkdir {out_dir:?}: {e}"))?;
    let topo_path = out_dir.join("topology.txt");
    std::fs::write(&topo_path, emit_topology(&topology, &rates))
        .map_err(|e| format!("write {topo_path:?}: {e}"))?;
    let bundle_path = out_dir.join("run.msc");
    save_bundle(&bundle_path, &run.bundle).map_err(|e| format!("{e}"))?;
    let mut summary = String::new();
    if let Some(ms) = chunk_ms {
        let chunks = chunk_bundle(&run.bundle, ms * MILLIS);
        let chunked_path = out_dir.join("run.mscs");
        save_bundle_chunked(&chunked_path, &chunks).map_err(|e| format!("{e}"))?;
        summary = format!(
            "wrote {} ({} chunks of {ms} ms)\n",
            chunked_path.display(),
            chunks.len()
        );
    }
    summary += &format!(
        "recorded {n} packets over {millis} ms at {rate} Mpps (seed {seed})\n\
         wrote {} and {} ({} bytes, {:.2} B/packet-appearance)\n",
        topo_path.display(),
        bundle_path.display(),
        std::fs::metadata(&bundle_path).map_or(0, |m| m.len()),
        run.bundle.bytes_per_packet(),
    );
    emit(out, |out| out.write_all(summary.as_bytes()))
}

/// `microscope inspect` — bundle statistics.
pub fn inspect(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let f = Flags::parse(args, &["bundle"], &[])?;
    let path = f.require("bundle")?;
    let bundle = load_bundle(Path::new(path)).map_err(|e| format!("load {path}: {e}"))?;
    emit(out, |out| {
        writeln!(out, "source packets : {}", bundle.source_flows.len())?;
        writeln!(out, "nf logs        : {}", bundle.logs.len())?;
        writeln!(out, "appearances    : {}", bundle.packet_appearances())?;
        writeln!(out, "encoded size   : {} bytes", bundle.encoded_size())?;
        writeln!(out, "bytes/packet   : {:.2}", bundle.bytes_per_packet())?;
        writeln!(out)?;
        writeln!(
            out,
            "{:>5} {:>10} {:>10} {:>12} {:>12} {:>10}",
            "nf", "rx_batches", "tx_batches", "rx_packets", "mean_batch", "flows"
        )?;
        for log in &bundle.logs {
            let rx_pkts = log.rx.packets();
            let mean = if log.rx.is_empty() {
                0.0
            } else {
                rx_pkts as f64 / log.rx.len() as f64
            };
            writeln!(
                out,
                "{:>5} {:>10} {:>10} {:>12} {:>12.2} {:>10}",
                log.nf.0,
                log.rx.len(),
                log.tx.len(),
                rx_pkts,
                mean,
                log.flows.len()
            )?;
        }
        Ok(())
    })
}

/// Prints a finished run: the report on stdout, and [`stderr_lines`] on
/// stderr.
fn print_run(run: &Run, out: &mut dyn Write) -> Result<(), String> {
    for line in stderr_lines(run) {
        eprintln!("{line}");
    }
    emit(out, |out| write!(out, "{}", run.report))
}

/// What a finished run says on stderr: how the bundle was streamed, when
/// the clock offsets settled, the skew estimator's fallbacks, reads no
/// upstream send explains, the step cache and the relation sampling.
fn stderr_lines(run: &Run) -> Vec<String> {
    let s = &run.streamed;
    let mut lines = vec![format!(
        "streamed {} chunks: {} traces committed pre-finish, peak working set {} KiB",
        s.chunks,
        s.committed,
        s.working_set_peak / 1024,
    )];
    match run.settled {
        Some(Settled::AtEnd(held)) => lines.push(format!(
            "note: clock offsets settled on all {held} chunks: held the whole run and \
             corrected by the whole-run estimate"
        )),
        Some(Settled::After(held)) => {
            lines.push(format!("clock offsets settled after {held} chunks held"));
        }
        None => {}
    }
    lines.extend(run.skew_notes.iter().map(|note| format!("note: {note}")));
    let recon = &run.report.reconstruction;
    if recon.unmatched_rx > 0 {
        // Seen on a topology with an edge missing, on unsynchronised clocks
        // read without --skew, and where an NF stalled past the bound; on no
        // clean recording.
        let clocks = match run.report.offsets {
            Some(_) => "",
            None => ", and on one clock (if not: --skew)",
        };
        let bound_ms = MatchConfig::default().delay_bound_ns / MILLIS;
        lines.push(format!(
            "note: {} packets were read at an NF that no upstream send explains ({} of {} \
             traces unresolved): was the bundle recorded on this topology{clocks}? An NF that \
             stalls for longer than the {bound_ms} ms matching delay bound also leaves such reads",
            recon.unmatched_rx, recon.unresolved, recon.total
        ));
    }
    let cache = &run.cache;
    if cache.hits + cache.misses > 0 {
        lines.push(format!(
            "step cache: {} hits / {} misses ({:.1}% hit rate, {} periods)",
            cache.hits,
            cache.misses,
            cache.hit_rate() * 100.0,
            cache.entries
        ));
    }
    if run.sample_stride > 1 {
        lines.push(format!(
            "note: sampling {} of {} causal relations for aggregation (1/{})",
            run.report.relations, run.relations_total, run.sample_stride
        ));
    }
    lines
}

/// `microscope diagnose` (and `microscope stream`, another name for it) —
/// the whole pipeline on saved artifacts, read in time windows.
pub fn diagnose(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let f = Flags::parse(
        args,
        &["topology", "bundle", "chunk-ms", "quantile", "top"],
        &["skew"],
    )?;
    let chunk_ms = f.chunk_ms()?;
    let quantile = f.quantile()?;
    let top: usize = f.num("top", 10)?;
    let deployment = load_deployment(f.require("topology")?)?;
    let bundle = Path::new(f.require("bundle")?);
    let run = pipeline::diagnose(
        &deployment,
        bundle,
        chunk_ms,
        f.has("skew"),
        quantile,
        top,
        &mut |_, _| {},
    )?;
    print_run(&run, out)
}

/// `microscope skew` — clock-offset estimation only: the offsets
/// `diagnose --skew` settles on.
pub fn skew(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let f = Flags::parse(args, &["topology", "bundle"], &[])?;
    let (topology, _) = load_deployment(f.require("topology")?)?;
    let bundle = Path::new(f.require("bundle")?);
    let est = pipeline::skew(&topology, bundle, &mut |_, _| {})?;
    for note in est.notes(&topology) {
        eprintln!("note: {note}");
    }
    emit(out, |out| {
        writeln!(out, "{:>8} {:>16}", "nf", "offset_ns")?;
        for (nf, off) in topology.nfs().iter().zip(&est.offsets) {
            writeln!(out, "{:>8} {:>16}", nf.name, off)?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    // The commands with their stdout discarded (these shadow the glob
    // import), for the tests that only ask whether a command succeeds.
    fn record(args: &[String]) -> Result<(), String> {
        super::record(args, &mut io::sink())
    }
    fn inspect(args: &[String]) -> Result<(), String> {
        super::inspect(args, &mut io::sink())
    }
    fn diagnose(args: &[String]) -> Result<(), String> {
        super::diagnose(args, &mut io::sink())
    }
    fn skew(args: &[String]) -> Result<(), String> {
        super::skew(args, &mut io::sink())
    }

    /// Records a short chunked run into a fresh directory; returns the paths
    /// of its `topology.txt`, `run.msc` and `run.mscs`.
    fn recorded(tag: &str) -> [String; 3] {
        let dir = std::env::temp_dir().join(format!("msc_cli_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        record(&s(&[
            "--out",
            &out,
            "--millis",
            "20",
            "--seed",
            "3",
            "--interrupt",
            "nat1:8:800",
            "--chunk-ms",
            "10",
        ]))
        .unwrap();
        ["topology.txt", "run.msc", "run.mscs"].map(|f| dir.join(f).to_string_lossy().to_string())
    }

    #[test]
    fn flags_parser() {
        let f = Flags::parse(
            &s(&[
                "--out",
                "dir",
                "--skew",
                "--interrupt",
                "a:1:2",
                "--interrupt",
                "b:3:4",
            ]),
            &["out", "interrupt"],
            &["skew"],
        )
        .unwrap();
        assert_eq!(f.get("out"), Some("dir"));
        assert!(f.has("skew"));
        assert_eq!(f.get_all("interrupt"), vec!["a:1:2", "b:3:4"]);
        assert!(f.require("missing").is_err());
        assert_eq!(f.num::<u64>("nope", 7).unwrap(), 7);
        assert!(Flags::parse(&s(&["positional"]), &[], &[]).is_err());
        // A valued flag at the end of the line is not a switch.
        let err = Flags::parse(&s(&["--out"]), &["out"], &[]).err().unwrap();
        assert!(err.contains("--out"), "{err}");
    }

    #[test]
    fn undefined_flags_and_out_of_range_values_are_errors_naming_the_flag() {
        let files = ["--topology", "/nonexistent", "--bundle", "/nope"];
        let [topo, _, mscs] = recorded("chunk_ms_on_mscs");
        let mut cases: Vec<Vec<&str>> = vec![
            vec!["--threads", "4"],
            vec!["--threshold", "3"],
            vec!["--no-cache"],
            vec!["--bogus"],
            vec!["--chunk-ms", "0"],
            vec!["--chunk-ms", "-5"],
            vec!["--chunk-ms", "18446744073710"],
            // A .mscs was chunked at record time: the flag would be ignored.
            vec!["--chunk-ms", "5", "--topology", &topo, "--bundle", &mscs],
        ];
        for q in ["nan", "-1", "0", "1", "1.5", "inf", "x"] {
            cases.push(vec!["--quantile", q]);
        }
        for extra in cases {
            let mut stdout = Vec::new();
            let args = s(&[&files[..], &extra[..]].concat());
            let err = super::diagnose(&args, &mut stdout).unwrap_err();
            assert!(err.contains(extra[0]), "{extra:?}: {err}");
            assert!(
                !err.contains("/nonexistent"),
                "{extra:?} must fail first: {err}"
            );
            assert!(stdout.is_empty(), "{extra:?} wrote stdout");
        }
        for gone in ["--threads", "--no-cache", "--threshold"] {
            assert!(!USAGE.contains(gone), "USAGE still lists {gone}");
        }

        // `record` refuses a chunk length of 0, a rate that is not a positive
        // number and durations past the nanosecond clock before it simulates
        // or writes.
        let dir = std::env::temp_dir().join("msc_cli_record_rejects");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        for bad in [
            ["--chunk-ms", "0"],
            ["--chunk-ms", "18446744073710"],
            ["--rate", "0"],
            ["--rate", "-1"],
            ["--rate", "nan"],
            ["--rate", "inf"],
            ["--millis", "18446744073710"],
            ["--interrupt", "nat1:18446744073710:1"],
            ["--interrupt", "nat1:1:18446744073709552"],
        ] {
            let mut stdout = Vec::new();
            let err = super::record(&s(&["--out", &out, bad[0], bad[1]]), &mut stdout).unwrap_err();
            assert!(err.contains(bad[0]), "{bad:?}: {err}");
            assert!(stdout.is_empty() && !dir.exists(), "{bad:?}");
        }

        let f = |args: &[&str]| Flags::parse(&s(args), &["quantile", "chunk-ms"], &[]).unwrap();
        assert_eq!(f(&[]).quantile(), Ok(0.99));
        assert_eq!(f(&["--quantile", "0.5"]).quantile(), Ok(0.5));
        assert_eq!(f(&[]).chunk_ms(), Ok(None));
        assert_eq!(f(&["--chunk-ms", "1"]).chunk_ms(), Ok(Some(1)));
    }

    #[test]
    fn record_inspect_diagnose_round_trip() {
        let dir = std::env::temp_dir().join("msc_cli_roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        record(&s(&[
            "--out",
            &out,
            "--millis",
            "40",
            "--seed",
            "3",
            "--interrupt",
            "nat1:15:800",
        ]))
        .unwrap();
        assert!(dir.join("topology.txt").exists());
        assert!(dir.join("run.msc").exists());
        let bundle = dir.join("run.msc").to_string_lossy().to_string();
        let topo = dir.join("topology.txt").to_string_lossy().to_string();
        inspect(&s(&["--bundle", &bundle])).unwrap();
        diagnose(&s(&[
            "--topology",
            &topo,
            "--bundle",
            &bundle,
            "--top",
            "3",
        ]))
        .unwrap();
    }

    #[test]
    fn diagnose_round_trip_both_formats() {
        let [topo, whole, chunked] = recorded("streamtest");
        // Both containers are read chunk by chunk. Both must run the full
        // report.
        diagnose(&s(&[
            "--topology",
            &topo,
            "--bundle",
            &chunked,
            "--top",
            "3",
        ]))
        .unwrap();
        diagnose(&s(&[
            "--topology",
            &topo,
            "--bundle",
            &whole,
            "--chunk-ms",
            "10",
            "--top",
            "3",
        ]))
        .unwrap();
        // `inspect` takes whole bundles only, and says what reads the other.
        let err = inspect(&s(&["--bundle", &chunked])).unwrap_err();
        assert!(err.contains("chunked") && err.contains("diagnose"), "{err}");
    }

    #[test]
    fn a_topology_of_another_size_is_the_same_error_in_every_mode() {
        let [topo, msc, mscs] = recorded("nf_count_mismatch");
        let text = std::fs::read_to_string(&topo).unwrap();
        let fewer: String = text
            .lines()
            .filter(|l| !l.contains("vpn4"))
            .map(|l| format!("{l}\n"))
            .collect();
        let more = format!("{text}nf vpn5 vpn 632911\nedge mon1 vpn5\n");
        type Cmd = fn(&[String], &mut dyn Write) -> Result<(), String>;
        let modes: [(&str, Cmd, &str, &[&str]); 6] = [
            ("diagnose", super::diagnose, &msc, &[]),
            ("diagnose --skew", super::diagnose, &msc, &["--skew"]),
            ("skew", super::skew, &msc, &[]),
            ("diagnose .mscs", super::diagnose, &mscs, &[]),
            ("diagnose --skew .mscs", super::diagnose, &mscs, &["--skew"]),
            ("skew .mscs", super::skew, &mscs, &[]),
        ];
        for (nfs, text) in [(15, fewer), (17, more)] {
            let wrong = format!("{topo}.{nfs}");
            std::fs::write(&wrong, text).unwrap();
            for (mode, cmd, bundle, extra) in modes {
                let args = [&["--topology", &wrong, "--bundle", bundle], extra].concat();
                let mut stdout = Vec::new();
                let err = cmd(&s(&args), &mut stdout).unwrap_err();
                assert!(
                    err.contains("16 NF logs") && err.contains(&format!("{nfs} NFs")),
                    "{mode}, {nfs}-NF topology: {err}"
                );
                assert!(stdout.is_empty(), "{mode}, {nfs}-NF topology wrote stdout");
            }
        }
    }

    /// An NF stalled past the matcher's delay bound reads its ring long
    /// after the sends that filled it: the note on those reads names the
    /// stall and the bound, not only the topology and the clocks.
    #[test]
    fn a_stall_past_the_delay_bound_is_named_in_the_note() {
        let dir = std::env::temp_dir().join("msc_cli_long_stall");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        // nat2 stalls 60 ms from the start, past the 50 ms bound.
        let args = ["--millis", "40", "--rate", "0.3", "--seed", "1"];
        record(&s(&[
            &["--out", &out][..],
            &args,
            &["--interrupt", "nat2:0:60000"],
        ]
        .concat()))
        .unwrap();
        let deployment = load_deployment(&format!("{out}/topology.txt")).unwrap();
        let bundle = dir.join("run.msc");
        let run = pipeline::diagnose(&deployment, &bundle, None, false, 0.99, 10, &mut |_, _| {});
        let run = run.unwrap();
        assert!(run.report.reconstruction.unmatched_rx > 0);
        let bound_ms = MatchConfig::default().delay_bound_ns / MILLIS;
        let stall = format!("stalls for longer than the {bound_ms} ms matching delay bound");
        let notes: Vec<String> = stderr_lines(&run)
            .into_iter()
            .filter(|l| l.contains("no upstream send explains"))
            .collect();
        assert!(
            notes.len() == 1 && notes[0].contains(&stall) && notes[0].contains("50 ms"),
            "{notes:?}"
        );
    }

    #[test]
    fn record_rejects_bad_interrupt_spec() {
        let dir = std::env::temp_dir().join("msc_cli_badspec");
        let out = dir.to_string_lossy().to_string();
        assert!(record(&s(&["--out", &out, "--interrupt", "nat1:xx"])).is_err());
        assert!(record(&s(&["--out", &out, "--interrupt", "ghost:1:2"])).is_err());
    }

    #[test]
    fn diagnose_requires_files() {
        assert!(diagnose(&s(&["--topology", "/nonexistent", "--bundle", "/nope"])).is_err());
    }

    #[test]
    fn skew_round_trip() {
        let dir = std::env::temp_dir().join("msc_cli_skewtest");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        record(&s(&[
            "--out", &out, "--millis", "30", "--seed", "4", "--skew",
        ]))
        .unwrap();
        let bundle = dir.join("run.msc").to_string_lossy().to_string();
        let topo = dir.join("topology.txt").to_string_lossy().to_string();
        skew(&s(&["--topology", &topo, "--bundle", &bundle])).unwrap();
    }
}
