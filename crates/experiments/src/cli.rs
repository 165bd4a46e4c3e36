//! The command line of the `figures` binary and the files it writes.
//!
//! ```text
//! figures [NAME ...] [--millis N] [--rate R] [--seed S] [--out DIR]
//! ```
//!
//! `NAME`s are figure names ([`crate::figures::FIGURES`]); none runs them
//! all. `--millis` (simulated run length) and `--rate` (aggregate offered
//! rate in Mpps) override every named figure's default size; `--seed`
//! defaults to 42 and `--out` to `results`.

use crate::figures::{Figure, Spec, FIGURES};
use std::fmt;
use std::path::{Path, PathBuf};

/// A failure while parsing the command line or writing a figure's files.
#[derive(Debug)]
pub enum CliError {
    /// A flag was given without its value.
    MissingValue(String),
    /// A flag's value failed to parse.
    BadValue {
        /// The flag, e.g. `--millis`.
        flag: &'static str,
        /// What the flag wants, e.g. "an integer".
        want: &'static str,
        /// What was actually given.
        got: String,
    },
    /// Unrecognised flag or figure name.
    UnknownArg(String),
    /// `--help` was requested; the payload is the rendered usage text.
    Help(String),
    /// A filesystem operation failed, tagged with the path involved.
    Io {
        /// What was being attempted, e.g. "create output dir".
        what: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingValue(flag) => write!(f, "missing value after {flag}"),
            CliError::BadValue { flag, want, got } => {
                write!(f, "{flag} takes {want}, got {got:?}")
            }
            CliError::UnknownArg(a) => write!(f, "unknown argument {a}"),
            CliError::Help(usage) => write!(f, "{usage}"),
            CliError::Io { what, path, source } => {
                write!(f, "{what} {}: {source}", path.display())
            }
        }
    }
}

/// Prints a command-line failure (or the usage text, for `--help`) to
/// stderr and exits: status 0 for `--help`, 2 otherwise.
pub fn exit_with(e: &CliError) -> ! {
    if let CliError::Help(usage) = e {
        eprintln!("{usage}");
        std::process::exit(0);
    }
    eprintln!("error: {e}");
    std::process::exit(2);
}

/// The parsed command line.
#[derive(Debug)]
pub struct Args {
    /// The figures to run, in order.
    pub figures: Vec<&'static Spec>,
    /// `--millis`: overrides each figure's run length.
    millis: Option<u64>,
    /// `--rate`: overrides each figure's offered rate, in Mpps.
    rate_mpps: Option<f64>,
    /// Seed.
    seed: u64,
    /// Output directory.
    pub out: PathBuf,
}

/// The size one figure runs at: its defaults under the flags.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Simulated duration in milliseconds.
    pub millis: u64,
    /// Offered rate in Mpps.
    pub rate_mpps: f64,
    /// Seed.
    pub seed: u64,
}

impl Params {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.millis * nf_types::MILLIS
    }

    /// Rate in pps.
    pub fn rate_pps(&self) -> f64 {
        self.rate_mpps * 1e6
    }
}

impl Args {
    /// Parses figure names and flags from an argument iterator.
    pub fn try_parse_from<I>(argv: I) -> Result<Args, CliError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut args = Args {
            figures: Vec::new(),
            millis: None,
            rate_mpps: None,
            seed: 42,
            out: PathBuf::from("results"),
        };
        let mut it = argv.into_iter();
        while let Some(a) = it.next() {
            let mut val = |flag: &'static str| {
                it.next()
                    .ok_or_else(|| CliError::MissingValue(flag.to_string()))
            };
            match a.as_str() {
                "--millis" => {
                    args.millis = Some(parse("--millis", "an integer", val("--millis")?)?)
                }
                "--rate" => {
                    args.rate_mpps = Some(parse("--rate", "a float (Mpps)", val("--rate")?)?)
                }
                "--seed" => args.seed = parse("--seed", "an integer", val("--seed")?)?,
                "--out" => args.out = PathBuf::from(val("--out")?),
                "--help" | "-h" => return Err(CliError::Help(usage())),
                name => match FIGURES.iter().find(|s| s.name == name) {
                    Some(spec) => args.figures.push(spec),
                    None => return Err(CliError::UnknownArg(name.to_string())),
                },
            }
        }
        if args.figures.is_empty() {
            args.figures = FIGURES.iter().collect();
        }
        Ok(args)
    }

    /// The size `spec` runs at.
    pub fn params(&self, spec: &Spec) -> Params {
        Params {
            millis: self.millis.unwrap_or(spec.millis),
            rate_mpps: self.rate_mpps.unwrap_or(spec.rate_mpps),
            seed: self.seed,
        }
    }
}

fn parse<T: std::str::FromStr>(
    flag: &'static str,
    want: &'static str,
    got: String,
) -> Result<T, CliError> {
    got.parse()
        .map_err(|_| CliError::BadValue { flag, want, got })
}

fn usage() -> String {
    let mut u = String::from(
        "usage: figures [NAME ...] [--millis N] [--rate MPPS] [--seed S] [--out DIR]\n\
         runs every figure when no NAME is given; defaults: --seed 42 --out results\n\
         figures (default --millis / --rate):",
    );
    for s in &FIGURES {
        u += &format!(
            "\n  {:<20} {:>5} ms  {} Mpps",
            s.name, s.millis, s.rate_mpps
        );
    }
    u
}

/// Writes a figure as `<name>.txt` (its stdout) and its CSVs into `dir`,
/// creating `dir`.
pub fn try_write_figure(dir: &Path, name: &str, fig: &Figure) -> Result<(), CliError> {
    let io = |what: &'static str, path: PathBuf| {
        move |source: std::io::Error| CliError::Io { what, path, source }
    };
    std::fs::create_dir_all(dir).map_err(io("create output dir", dir.to_path_buf()))?;
    let txt = dir.join(format!("{name}.txt"));
    std::fs::write(&txt, &fig.stdout).map_err(io("write", txt.clone()))?;
    for (name, text) in &fig.csvs {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(io("write csv", path.clone()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| (*a).to_string()).collect()
    }

    #[test]
    fn defaults_and_conversions() {
        let a = Args::try_parse_from(argv(&["fig11", "table2"])).unwrap();
        let names: Vec<&str> = a.figures.iter().map(|s| s.name).collect();
        assert_eq!(names, ["fig11", "table2"]);
        let p = a.params(a.figures[1]);
        assert_eq!(
            p,
            Params {
                millis: 1_500,
                rate_mpps: 2.1,
                seed: 42
            }
        );
        assert_eq!(p.duration_ns(), 1_500_000_000);
        assert!((p.rate_pps() - 2.1e6).abs() < 1e-3);
        let all = Args::try_parse_from(argv(&[])).unwrap();
        assert_eq!(all.figures.len(), FIGURES.len());
        assert_eq!(all.out, PathBuf::from("results"));
    }

    #[test]
    fn try_parse_overrides_defaults() {
        let a = Args::try_parse_from(argv(&[
            "--millis", "20", "fig01", "--rate", "1.5", "--seed", "7", "--out", "/tmp/o",
        ]))
        .unwrap();
        assert_eq!(
            a.params(a.figures[0]),
            Params {
                millis: 20,
                rate_mpps: 1.5,
                seed: 7
            }
        );
        assert_eq!(a.out, PathBuf::from("/tmp/o"));
    }

    #[test]
    fn try_parse_reports_typed_errors() {
        match Args::try_parse_from(argv(&["--millis"])) {
            Err(CliError::MissingValue(f)) => assert_eq!(f, "--millis"),
            other => panic!("want MissingValue, got {other:?}"),
        }
        match Args::try_parse_from(argv(&["--seed", "many"])) {
            Err(CliError::BadValue { flag, got, .. }) => {
                assert_eq!(flag, "--seed");
                assert_eq!(got, "many");
            }
            other => panic!("want BadValue, got {other:?}"),
        }
        for unknown in ["--frobnicate", "fig99"] {
            match Args::try_parse_from(argv(&[unknown])) {
                Err(CliError::UnknownArg(f)) => assert_eq!(f, unknown),
                other => panic!("want UnknownArg, got {other:?}"),
            }
        }
        match Args::try_parse_from(argv(&["-h"])) {
            Err(CliError::Help(u)) => assert!(u.contains("--millis N") && u.contains("1200 ms")),
            other => panic!("want Help, got {other:?}"),
        }
    }

    #[test]
    fn try_write_csv_surfaces_io_context() {
        // A directory under a file cannot be made, not even by root.
        let dir = PathBuf::from("/dev/null/msc-test");
        match try_write_figure(&dir, "x", &Figure::default()) {
            Err(e @ CliError::Io { what, .. }) => {
                assert_eq!(what, "create output dir");
                assert!(e.to_string().contains("/dev/null/msc-test"));
            }
            other => panic!("want Io error, got {other:?}"),
        }
    }
}
