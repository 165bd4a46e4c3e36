//! A source host's 16-bit IPID counter wraps from 65 535 to 0 right at a
//! window boundary: the two packets either side of the wrap are read into
//! different chunks by every window length. `diagnose` must print the same
//! report, byte for byte, at its default 10 ms and at 1, 5 and 50 ms
//! windows, from the whole-run file and from files chunked at record time.

use microscope_cli::pipeline::{self, Deployment, Produced, Report};
use msc_collector::{chunk_bundle, save_bundle, save_bundle_chunked};
use nf_sim::{paper_nf_configs, PacketOutcome, SimConfig, Simulation};
use nf_traffic::{cbr, CaidaLike, CaidaLikeConfig, Schedule};
use nf_types::{paper_topology, FiveTuple, Proto, MICROS, MILLIS};
use std::path::Path;

/// The wrap lands just after this instant: a multiple of 1, 5, 10 (what
/// `diagnose` reads) and 50 ms.
const SEAM: u64 = 50 * MILLIS;
const RUN: u64 = 60 * MILLIS;
/// The wrapping host: four flows of 50 kpps, one send every 5 µs in all,
/// 2 µs past each multiple of 5 µs.
const HOST: u32 = 0xc0a8_6301;
const CHUNK_MS: [u64; 3] = [1, 5, 50];
/// Traces `diagnose` delivered on this run before `EdgeSlots` became
/// O(edges) — every packet the simulator delivered.
const DELIVERED: u64 = 58_522;

/// The report `diagnose --chunk-ms` prints on `bundle` (no `chunk_ms`: its
/// default window on a `.msc`, the recorded chunks of a `.mscs`).
fn report(deployment: &Deployment, bundle: &Path, chunk_ms: Option<u64>) -> Report {
    let hook = &mut |_: &str, _: Produced<'_>| {};
    pipeline::diagnose(deployment, bundle, chunk_ms, false, 0.99, 10, hook)
        .expect("pipeline run")
        .report
}

#[test]
fn ipid_wrap_at_a_window_seam_streams_like_offline() {
    let topology = paper_topology();
    let nf_configs = paper_nf_configs(&topology);
    let rates: Vec<f64> = nf_configs
        .iter()
        .map(|c| c.service.peak_rate_pps())
        .collect();
    let background = CaidaLike::new(
        CaidaLikeConfig {
            rate_pps: 800_000.0,
            ..Default::default()
        },
        3,
    )
    .generate(0, RUN);
    let host = (0..4u16).map(|j| {
        let flow = FiveTuple::new(HOST, 0x0a00_0001 + u32::from(j), 7_000 + j, 443, Proto::TCP);
        cbr(flow, (5 * u64::from(j) + 2) * MICROS, RUN, 50_000.0, 64)
    });
    let mut packets = Schedule::merge(std::iter::once(background).chain(host)).finalize(0);

    // Start the host's counter where its first send after the seam reads 0.
    let at_seam = packets
        .iter()
        .filter(|p| p.flow.src_ip == HOST)
        .position(|p| p.created_at >= SEAM)
        .expect("the host sends after the seam");
    let start = 0u16.wrapping_sub(u16::try_from(at_seam).expect("under 65 536 sends before it"));
    let mut k = 0u16;
    for p in packets.iter_mut().filter(|p| p.flow.src_ip == HOST) {
        p.ipid = start.wrapping_add(k);
        k = k.wrapping_add(1);
    }

    let out = Simulation::new(
        topology.clone(),
        nf_configs,
        SimConfig {
            seed: 4,
            ..Default::default()
        },
    )
    .run(&packets);

    // The source records either side of the wrap straddle the seam, a few
    // µs from it.
    let host_sends: Vec<_> = out
        .bundle
        .source_flows
        .iter()
        .filter(|f| f.flow.src_ip == HOST)
        .collect();
    let wrap = host_sends
        .windows(2)
        .find(|w| w[0].ipid == u16::MAX && w[1].ipid == 0)
        .expect("the host's counter wraps");
    assert!(
        SEAM - 3 * MICROS <= wrap[0].ts && wrap[0].ts < SEAM && wrap[1].ts <= SEAM + 2 * MICROS,
        "wrap at {} / {} ns",
        wrap[0].ts,
        wrap[1].ts
    );

    // The files `microscope record` writes, read as `diagnose` reads them.
    let dir = std::env::temp_dir().join(format!("msc_cli_ipid_wrap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let msc = dir.join("run.msc");
    save_bundle(&msc, &out.bundle).expect("write .msc");
    let deployment = (topology, rates);
    let offline = report(&deployment, &msc, None);
    let stdout = offline.to_string();
    for ms in CHUNK_MS {
        let mscs = dir.join(format!("run_{ms}.mscs"));
        save_bundle_chunked(&mscs, &chunk_bundle(&out.bundle, ms * MILLIS)).expect("write .mscs");
        let from_msc = report(&deployment, &msc, Some(ms)).to_string();
        assert_eq!(from_msc, stdout, "{ms} ms windows of the .msc");
        let from_mscs = report(&deployment, &mscs, None).to_string();
        assert_eq!(from_mscs, stdout, "the .mscs chunked at {ms} ms");
    }
    let recon = offline.reconstruction;
    let _ = std::fs::remove_dir_all(&dir);

    let delivered = out
        .fates
        .iter()
        .filter(|f| matches!(f.outcome, PacketOutcome::Delivered(_)))
        .count();
    assert_eq!(recon.delivered, DELIVERED, "{recon:?}");
    assert_eq!(delivered as u64, DELIVERED, "the simulator's count");
}
