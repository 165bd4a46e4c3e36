//! Regenerates the paper's figures and tables: `figures [NAME ...]
//! [--millis N] [--rate R] [--seed S] [--out DIR]` writes each named figure
//! (every figure when none is named) as `<name>.txt` plus its CSVs into
//! `--out` (default `results`), at its `results/` size unless `--millis` /
//! `--rate` override it. Exits 1 after writing everything if a figure
//! failed its check, 2 on a bad command line or a failed write.

use msc_experiments::cli::{exit_with, try_write_figure, Args};
use msc_experiments::figures;
use std::time::Instant;

fn main() {
    let args = Args::try_parse_from(std::env::args().skip(1)).unwrap_or_else(|e| exit_with(&e));
    let mut failed = false;
    let mut t0 = Instant::now();
    figures::run(
        &args.figures,
        |spec| args.params(spec),
        |spec, fig| {
            if let Err(e) = try_write_figure(&args.out, spec.name, &fig) {
                exit_with(&e);
            }
            eprintln!("{}: {:.1} s", spec.name, t0.elapsed().as_secs_f64());
            t0 = Instant::now();
            if let Some(check) = fig.failed {
                eprintln!("error: {} failed its check: {check}", spec.name);
                failed = true;
            }
        },
    );
    if failed {
        std::process::exit(1);
    }
}
