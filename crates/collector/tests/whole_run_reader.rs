//! `ChunkSource` reads a whole-run file in exactly the chunks
//! `chunk_bundle` cuts the loaded bundle into, chunk for chunk — one
//! definition of a run's windows: on the golden recording
//! (`fixtures/run.msc`, whose chunks `fixtures/run.mscs` holds), on it moved
//! to the 10 s epoch `record --skew` puts every clock at, and on an empty
//! bundle, at windows from 1 µs to longer than the run.
//! The `WholeRunReader` under it skips the empty windows between records,
//! as `chunk_bundle` does, and leaves out nothing else. The reader takes
//! each window as a prefix of every section, which holds only because a
//! clean recording is time-ordered within each section: that is checked
//! here too.

use msc_collector::{
    chunk_bundle, read_bundle, write_bundle, BundleChunk, BundleChunkReader, ChunkSource, NfLog,
    TraceBundle,
};
use std::sync::atomic::{AtomicUsize, Ordering};

const WHOLE: &[u8] = include_bytes!("fixtures/run.msc");
const CHUNKED: &[u8] = include_bytes!("fixtures/run.mscs");
/// `record --skew` starts every clock here.
const EPOCH: u64 = 10_000_000_000;

fn recordings() -> Vec<(&'static str, TraceBundle)> {
    let whole = read_bundle(WHOLE).unwrap();
    // The chunked recording is the whole one in 1 ms windows.
    let chunks: Vec<BundleChunk> = BundleChunkReader::new(CHUNKED)
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(chunks, chunk_bundle(&whole, 1_000_000));
    let mut shifted = whole.clone();
    for log in &mut shifted.logs {
        log.rx.ts_mut().iter_mut().for_each(|ts| *ts += EPOCH);
        log.tx.ts_mut().iter_mut().for_each(|ts| *ts += EPOCH);
        log.flows.iter_mut().for_each(|f| f.ts += EPOCH);
    }
    shifted.source_flows.iter_mut().for_each(|f| f.ts += EPOCH);
    let empty = TraceBundle {
        logs: whole.logs.iter().map(|l| NfLog::new(l.nf)).collect(),
        source_flows: Vec::new(),
    };
    vec![
        ("run.msc", whole),
        ("run.msc at the 10 s epoch", shifted),
        ("an empty bundle", empty),
    ]
}

/// What `diagnose` and `stream` read: `ChunkSource` on the file.
fn read_from_file(file: &[u8], chunk_ns: u64) -> Vec<BundleChunk> {
    // One file per call: the tests run in parallel.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("msc_whole_run_reader_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("run_{}.msc", CALLS.fetch_add(1, Ordering::Relaxed)));
    std::fs::write(&path, file).unwrap();
    let mut source = ChunkSource::open(&path, chunk_ns).unwrap();
    let mut chunks = Vec::new();
    while let Some(chunk) = source.next_chunk().unwrap() {
        chunks.push(chunk);
    }
    std::fs::remove_file(&path).unwrap();
    chunks
}

#[test]
fn chunk_source_yields_the_chunks_chunk_bundle_cuts() {
    for (name, bundle) in recordings() {
        let mut file = Vec::new();
        write_bundle(&mut file, &bundle).unwrap();
        let loaded = read_bundle(&file[..]).unwrap();
        // 1 µs and 7 µs leave most windows of the 1 ms runs empty; 30 s is
        // longer than the shifted run and its epoch together.
        for chunk_ns in [1_000, 7_000, 5_000_000, 3 * EPOCH] {
            let read = read_from_file(&file, chunk_ns);
            let cut = chunk_bundle(&loaded, chunk_ns);
            assert_eq!(read.len(), cut.len(), "{name}, {chunk_ns} ns windows");
            for (i, (r, c)) in read.iter().zip(&cut).enumerate() {
                assert_eq!(r, c, "{name}, {chunk_ns} ns windows, chunk {i}");
            }
        }
    }
}

/// A record 18 minutes past the rest costs one chunk in `chunk_bundle` and
/// in `ChunkSource`.
#[test]
fn skipping_empty_windows_leaves_out_only_empty_chunks() {
    let mut late = read_bundle(WHOLE).unwrap();
    late.source_flows.last_mut().unwrap().ts += 1 << 40;
    let mut file = Vec::new();
    write_bundle(&mut file, &late).unwrap();
    let on_time = chunk_bundle(&read_bundle(WHOLE).unwrap(), 1_000).len();
    let cut = chunk_bundle(&late, 1_000);
    assert!(cut.len() <= on_time + 1, "{} chunks", cut.len());
    // Only empty windows are left out.
    let source = cut.iter().flat_map(|c| &c.bundle.source_flows);
    assert!(source.eq(&late.source_flows));
    let appearances: usize = cut.iter().map(|c| c.bundle.packet_appearances()).sum();
    assert_eq!(appearances, late.packet_appearances());
    assert_eq!(read_from_file(&file, 1_000), cut);
}

#[test]
fn every_section_of_a_clean_recording_is_time_ordered() {
    let ordered = |ts: &mut dyn Iterator<Item = u64>| {
        let ts: Vec<u64> = ts.collect();
        ts.windows(2).all(|w| w[0] <= w[1])
    };
    for (name, bundle) in recordings() {
        for log in &bundle.logs {
            let nf = log.nf.0;
            assert!(
                ordered(&mut log.rx.ts().iter().copied()),
                "{name}: rx of NF {nf}"
            );
            assert!(
                ordered(&mut log.tx.ts().iter().copied()),
                "{name}: tx of NF {nf}"
            );
            assert!(
                ordered(&mut log.flows.iter().map(|f| f.ts)),
                "{name}: flows of NF {nf}"
            );
        }
        let source = &mut bundle.source_flows.iter().map(|f| f.ts);
        assert!(ordered(source), "{name}: source");
    }
}
