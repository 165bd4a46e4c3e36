//! Mutations of the other operator input, the bundle bytes: every
//! truncation of the two golden recordings, every bit of every log header's
//! NF id, and seeded single-bit flips anywhere, run through `diagnose` on the
//! paper topology — and, in both containers, through the two commands that
//! estimate clock offsets, `diagnose --skew` and `skew` (every 64th
//! truncation). Each mutant must come back as a report or an error, never a
//! panic, and from every command alike — and a log whose NF id no longer
//! matches its position must be an error, not a run that indexes the wrong
//! NF's state by that id.

use microscope_cli::pipeline;
use msc_collector::{chunk_bundle, read_bundle, save_bundle, save_bundle_chunked};
use nf_sim::paper_nf_configs;
use nf_types::{emit_topology, paper_topology, parse_topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

const WHOLE: &[u8] = include_bytes!("../../collector/tests/fixtures/run.msc");
const CHUNKED: &[u8] = include_bytes!("../../collector/tests/fixtures/run.mscs");

/// Offsets of the two NF-id bytes of every log header. After the 5-byte
/// magic + version, a body is `n_logs u32`, per log `len u32` and the
/// encoded log (`version u8`, `nf u16`, …), then `n_src u32` and 23 bytes
/// per source record; a chunked file repeats `until u64` + body to the end.
fn nf_id_offsets(file: &[u8], chunked: bool) -> Vec<usize> {
    let u32_at = |at: usize| u32::from_le_bytes(file[at..at + 4].try_into().unwrap()) as usize;
    let mut offsets = Vec::new();
    let mut at = 5;
    while at < file.len() {
        if chunked {
            at += 8;
        }
        let n_logs = u32_at(at);
        at += 4;
        for _ in 0..n_logs {
            offsets.extend([at + 5, at + 6]);
            at += 4 + u32_at(at);
        }
        at += 4 + 23 * u32_at(at);
    }
    assert_eq!(at, file.len());
    offsets
}

/// The paper topology with its NFs' peak rates, as `record` writes it.
fn deployment() -> pipeline::Deployment {
    let topology = paper_topology();
    let rates: Vec<f64> = paper_nf_configs(&topology)
        .iter()
        .map(|c| c.service.peak_rate_pps())
        .collect();
    parse_topology(&emit_topology(&topology, &rates)).unwrap()
}

#[test]
fn no_bundle_mutant_panics_and_a_misplaced_log_is_refused() {
    let deployment = deployment();
    let dir = std::env::temp_dir().join(format!("msc_cli_bundle_mut_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let (mut mutants, mut panicked, mut accepted) = (0, Vec::new(), Vec::new());
    let mut disagree = Vec::new();
    for (clean, chunked) in [(WHOLE, false), (CHUNKED, true)] {
        let path = dir.join(if chunked { "run.mscs" } else { "run.msc" });
        // Whether each command returned `Ok` — `diagnose`, and with `skew`
        // also `diagnose --skew` and `skew`, which must all agree. `None`
        // if one panicked.
        let mut run = |label: String, bytes: &[u8], skew: bool| {
            mutants += 1;
            std::fs::write(&path, bytes).unwrap();
            let result = catch_unwind(AssertUnwindSafe(|| {
                let diagnose = |skew| {
                    let quiet = &mut |_: &str, _: pipeline::Produced<'_>| {};
                    pipeline::diagnose(&deployment, &path, None, skew, 0.99, 10, quiet).is_ok()
                };
                let mut ok = vec![diagnose(false)];
                if skew {
                    ok.push(diagnose(true));
                    ok.push(pipeline::skew(&deployment.0, &path, &mut |_, _| {}).is_ok());
                }
                ok
            }));
            let ok = result.map_err(|_| panicked.push(label.clone())).ok();
            if ok.as_ref().is_some_and(|ok| ok.iter().any(|&x| x != ok[0])) {
                disagree.push(label);
            }
            ok
        };
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let clean_run = run(format!("{name} clean"), clean, true).unwrap_or_default();
        assert!(
            !clean_run.is_empty() && clean_run.iter().all(|&ok| ok),
            "{name} clean: {clean_run:?}"
        );

        for len in 0..clean.len() {
            run(format!("{name} cut at {len}"), &clean[..len], len % 64 == 0);
        }

        let offsets = nf_id_offsets(clean, chunked);
        assert_eq!(offsets.len(), if chunked { 2 * 2 * 16 } else { 2 * 16 });
        for at in offsets {
            for bit in 0..8 {
                let mut bytes = clean.to_vec();
                bytes[at] ^= 1 << bit;
                let label = format!("{name} NF-id byte {at} bit {bit}");
                if run(label.clone(), &bytes, true).is_some_and(|ok| ok.contains(&true)) {
                    accepted.push(label);
                }
            }
        }

        let mut rng = StdRng::seed_from_u64(clean.len() as u64);
        for _ in 0..1_000 {
            let (at, bit) = (rng.gen_range(0..clean.len()), rng.gen_range(0..8));
            let mut bytes = clean.to_vec();
            bytes[at] ^= 1 << bit;
            run(format!("{name} byte {at} bit {bit}"), &bytes, true);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    eprintln!("{mutants} mutants");
    assert!(
        panicked.is_empty(),
        "{} of {mutants} mutants panicked: {:?}",
        panicked.len(),
        &panicked[..panicked.len().min(20)]
    );
    assert!(
        accepted.is_empty(),
        "a misplaced log was accepted: {accepted:?}"
    );
    assert!(
        disagree.is_empty(),
        "{} mutants accepted by one command and refused by another: {:?}",
        disagree.len(),
        &disagree[..disagree.len().min(20)]
    );
}

/// The last source record of the golden `.msc` moved 2^48 ns (about three
/// days) ahead by flipping bit 0 of its byte 6: no order check can catch
/// it, since nothing follows it. `diagnose --skew` used to cut the
/// corrected run into one chunk per 10 ms of that span and abort when an
/// allocation failed. Now every command that estimates clock offsets comes
/// back with a report or an error, and `diagnose --skew`, at its default
/// window and at 50 ms, pushes at most one chunk more than on the clean file.
#[test]
fn a_record_days_past_the_rest_costs_one_chunk_with_skew() {
    let deployment = deployment();
    let mut late = WHOLE.to_vec();
    let at = late.len() - 23 + 6;
    late[at] ^= 1;
    let dir = std::env::temp_dir().join(format!("msc_cli_days_late_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (clean, mutant) = (dir.join("clean.msc"), dir.join("late.msc"));
    std::fs::write(&clean, WHOLE).unwrap();
    std::fs::write(&mutant, &late).unwrap();

    // The chunks a command pushed, and whether it returned `Ok`.
    let pushes = |command: &dyn Fn(pipeline::Hook) -> bool| {
        let mut n = 0;
        let ok = command(&mut |stage, _| n += usize::from(stage.starts_with("push ")));
        (n, ok)
    };
    for path in [&clean, &mutant] {
        let quiet = &mut |_: &str, _: pipeline::Produced<'_>| {};
        pipeline::skew(&deployment.0, path, quiet).expect("skew");
    }
    let diagnose = |path: &std::path::Path| {
        pushes(&|hook| pipeline::diagnose(&deployment, path, None, true, 0.99, 10, hook).is_ok())
    };
    let at_50_ms = |path: &std::path::Path| {
        pushes(&|hook| {
            pipeline::diagnose(&deployment, path, Some(50), true, 0.99, 10, hook).is_ok()
        })
    };
    let (clean_diagnosed, late_diagnosed) = (diagnose(&clean), diagnose(&mutant));
    let (clean_streamed, late_streamed) = (at_50_ms(&clean), at_50_ms(&mutant));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(clean_diagnosed.1 && clean_streamed.1);
    assert!(
        late_diagnosed.0 <= clean_diagnosed.0 + 1,
        "diagnose --skew: {late_diagnosed:?} against {clean_diagnosed:?} on the clean file"
    );
    assert!(
        late_streamed.0 <= clean_streamed.0 + 1,
        "--chunk-ms 50: {late_streamed:?} against {clean_streamed:?} on the clean file"
    );
}

/// A log whose read batches go back in time — which the engine's `admit`
/// would take as the NF's oldest record first — is an error naming the NF
/// and the section from `diagnose` on the `.msc` and on a `.mscs` holding
/// the run in one chunk, not a report.
#[test]
fn a_section_that_goes_back_in_time_is_an_error_in_both_containers() {
    let deployment = parse_topology(&emit_topology(&paper_topology(), &[1e6; 16])).unwrap();
    let mut bundle = read_bundle(WHOLE).unwrap();
    let ts = bundle.logs[3].rx.ts_mut();
    ts.swap(1, 2);
    assert!(ts[1] > ts[2], "two distinct batch times");
    let dir = std::env::temp_dir().join(format!("msc_cli_backwards_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (msc, mscs) = (dir.join("run.msc"), dir.join("run.mscs"));
    save_bundle(&msc, &bundle).unwrap();
    save_bundle_chunked(&mscs, &chunk_bundle(&bundle, u64::MAX)).unwrap();

    let quiet = &mut |_: &str, _: pipeline::Produced<'_>| {};
    let diagnosed = pipeline::diagnose(&deployment, &msc, None, false, 0.99, 10, quiet);
    let streamed = pipeline::diagnose(&deployment, &mscs, None, false, 0.99, 10, quiet);
    let _ = std::fs::remove_dir_all(&dir);
    for (mode, result) in [("diagnose .msc", diagnosed), ("diagnose .mscs", streamed)] {
        let err = result.expect_err(mode);
        assert!(
            err.contains("the rx section of NF 3 goes back in time"),
            "{mode}: {err}"
        );
    }
}
