//! The wire format, pinned to files written before the in-memory layout
//! changed: `fixtures/run.msc` and `fixtures/run.mscs` are the output of
//! `microscope record --millis 1 --rate 0.2 --seed 1 --interrupt nat2:0:200
//! --chunk-ms 1` at the commit that still stored one `Vec` per batch. Loading
//! and saving them must reproduce them byte for byte, whichever way the
//! chunks were produced. (CI's determinism job `cmp`s a fresh `record`
//! against the same two files.)

use msc_collector::{
    chunk_bundle, concat_chunks, read_bundle, write_bundle, write_bundle_chunked, BundleChunk,
    BundleChunkReader,
};

const WHOLE: &[u8] = include_bytes!("fixtures/run.msc");
const CHUNKED: &[u8] = include_bytes!("fixtures/run.mscs");
const CHUNK_NS: u64 = 1_000_000;

fn read_chunks() -> Vec<BundleChunk> {
    BundleChunkReader::new(CHUNKED)
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap()
}

#[test]
fn whole_bundle_round_trips_byte_for_byte() {
    let bundle = read_bundle(WHOLE).unwrap();
    assert!(bundle.packet_appearances() > 1_000);
    let mut out = Vec::new();
    write_bundle(&mut out, &bundle).unwrap();
    assert_eq!(out, WHOLE);
}

#[test]
fn chunked_bundle_round_trips_byte_for_byte() {
    let chunks = read_chunks();
    assert_eq!(chunks.len(), 2);
    let mut out = Vec::new();
    write_bundle_chunked(&mut out, &chunks).unwrap();
    assert_eq!(out, CHUNKED);
}

#[test]
fn chunking_the_whole_file_gives_the_chunked_one() {
    let bundle = read_bundle(WHOLE).unwrap();
    let chunks = chunk_bundle(&bundle, CHUNK_NS);
    assert_eq!(chunks, read_chunks());
    let mut out = Vec::new();
    write_bundle_chunked(&mut out, &chunks).unwrap();
    assert_eq!(out, CHUNKED);
    assert_eq!(concat_chunks(&chunks), bundle);
}
