//! `microscope` — the command-line front end.
//!
//! ```text
//! microscope record   --out DIR [--millis N] [--rate MPPS] [--seed S]
//!                     [--interrupt NF:MS:US]... [--skew] [--chunk-ms N]
//!     Simulate the paper's 16-NF deployment, write DIR/topology.txt and
//!     DIR/run.msc (the collector bundle an operator would have; with
//!     --chunk-ms also DIR/run.mscs, the same records in chunks).
//!
//! microscope inspect  --bundle FILE
//!     Print bundle statistics (packets, batches, bytes/packet, per NF).
//!
//! microscope diagnose --topology FILE --bundle FILE [--chunk-ms N]
//!                     [--quantile Q] [--top N] [--skew]
//!     Reconstruct traces, select tail victims, run the queue-based
//!     diagnosis and print ranked culprits + aggregated causal patterns.
//!     The bundle is read as a stream of time chunks, with O(window)
//!     reconstruction state: a whole-run .msc in --chunk-ms windows
//!     (default 10), a chunked .mscs chunk by chunk. With --skew, chunks
//!     are held until the estimated clock offsets settle.
//!
//! microscope stream   ...
//!     Another name for diagnose.
//!
//! microscope skew     --topology FILE --bundle FILE
//!     Estimate per-NF clock offsets from the records alone (§7): the
//!     offsets diagnose --skew settles on, read from the same windows.
//! ```

#![forbid(unsafe_code)]

mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    // One locked handle for everything a command prints: the commands
    // decide what a failed write means (a closed pipe is not an error).
    let out = &mut std::io::stdout().lock();
    let result = match cmd.as_str() {
        "record" => commands::record(rest, out),
        "inspect" => commands::inspect(rest, out),
        "diagnose" | "stream" => commands::diagnose(rest, out),
        "skew" => commands::skew(rest, out),
        "help" | "--help" | "-h" => commands::help(out),
        other => Err(format!("unknown command {other:?}\n{}", commands::USAGE)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
