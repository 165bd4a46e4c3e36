//! On-disk format for collector bundles — what the dumper writes and the
//! offline tools read.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic  "MSCB"            4 bytes
//! version u8               currently 1
//! n_logs  u32              number of NF logs
//! n_logs × { len u32, encoded NF log (see `encode`) }
//! n_src   u32              number of source flow records
//! n_src × { ts u64, ipid u16, tuple 13 }   23 bytes, fixed width
//! ```
//!
//! The per-NF logs reuse the compact wire encoding of [`crate::encode`];
//! the source section keeps fixed-width records (it is a small fraction of
//! the data and this keeps seeking trivial).
//!
//! ## Chunked bundles (`"MSCS"`)
//!
//! The streaming pipeline never wants the whole run in memory, so a second
//! container splits the same data into time-windowed chunks:
//!
//! ```text
//! magic  "MSCS"            4 bytes
//! version u8               currently 1
//! repeated until EOF:
//!   until  u64             exclusive upper time bound of the chunk
//!   bundle body            same framing as "MSCB" minus magic/version
//! ```
//!
//! Every record with timestamp `< until` (and `>=` the previous chunk's
//! `until`) lives in the chunk; per-NF batch order is preserved, so the
//! concatenation of all chunks reproduces the original bundle record for
//! record ([`chunk_bundle`] + [`concat_chunks`] round-trip, tested below).
//! [`BundleChunkReader`] iterates a chunked file holding one chunk in
//! memory at a time.

use crate::collector::{NfLog, TraceBundle};
use crate::encode::{decode_nf_log, encode_nf_log, EncodeError};
use crate::records::FlowRecord;
use nf_types::{FiveTuple, Nanos, NfId, Proto};
use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"MSCB";
const CHUNKED_MAGIC: &[u8; 4] = b"MSCS";
const VERSION: u8 = 1;

/// Errors from bundle (de)serialisation.
#[derive(Debug)]
pub enum BundleIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the bundle magic.
    BadMagic,
    /// A time-chunked `"MSCS"` file where a whole-run bundle was asked for.
    Chunked,
    /// Unsupported format version.
    BadVersion(u8),
    /// An embedded NF log failed to encode or decode.
    Log(EncodeError),
    /// The file ended prematurely.
    Truncated,
    /// A section has more entries (or bytes) than its u32 length field can
    /// describe; `what` names the section.
    SectionTooLarge { what: &'static str, len: usize },
    /// The NF log at `position` of the log section carries another NF's id.
    /// Every reader indexes the logs by NF id, so the two must agree.
    MisplacedLog { position: u32, nf: NfId },
}

impl fmt::Display for BundleIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleIoError::Io(e) => write!(f, "i/o error: {e}"),
            BundleIoError::BadMagic => write!(f, "not a Microscope bundle (bad magic)"),
            BundleIoError::Chunked => write!(
                f,
                "a time-chunked bundle (.mscs), not a whole-run one: `microscope stream` reads it"
            ),
            BundleIoError::BadVersion(v) => write!(f, "unsupported bundle version {v}"),
            BundleIoError::Log(e) => write!(f, "corrupt NF log: {e}"),
            BundleIoError::Truncated => write!(f, "truncated bundle"),
            BundleIoError::SectionTooLarge { what, len } => {
                write!(
                    f,
                    "{what} section ({len} entries/bytes) overflows its u32 length field"
                )
            }
            BundleIoError::MisplacedLog { position, nf } => write!(
                f,
                "NF log {position} carries NF id {}: a bundle holds the log of NF i at position i",
                nf.0
            ),
        }
    }
}

impl std::error::Error for BundleIoError {}

impl From<io::Error> for BundleIoError {
    fn from(e: io::Error) -> Self {
        BundleIoError::Io(e)
    }
}

/// Serialises a bundle to any writer.
pub fn write_bundle<W: Write>(mut w: W, bundle: &TraceBundle) -> Result<(), BundleIoError> {
    w.write_all(MAGIC)?;
    w.write_all(&[VERSION])?;
    write_bundle_body(&mut w, bundle)
}

/// The shared body of both containers: NF log section + source section.
fn write_bundle_body<W: Write>(w: &mut W, bundle: &TraceBundle) -> Result<(), BundleIoError> {
    let sec_len = |what: &'static str, len: usize| {
        u32::try_from(len).map_err(|_| BundleIoError::SectionTooLarge { what, len })
    };
    w.write_all(&sec_len("NF logs", bundle.logs.len())?.to_le_bytes())?;
    for log in &bundle.logs {
        let enc = encode_nf_log(log).map_err(BundleIoError::Log)?;
        w.write_all(&sec_len("NF log bytes", enc.len())?.to_le_bytes())?;
        w.write_all(&enc)?;
    }
    w.write_all(&sec_len("source flows", bundle.source_flows.len())?.to_le_bytes())?;
    for f in &bundle.source_flows {
        w.write_all(&f.ts.to_le_bytes())?;
        w.write_all(&f.ipid.to_le_bytes())?;
        w.write_all(&f.flow.src_ip.to_le_bytes())?;
        w.write_all(&f.flow.dst_ip.to_le_bytes())?;
        w.write_all(&f.flow.src_port.to_le_bytes())?;
        w.write_all(&f.flow.dst_port.to_le_bytes())?;
        w.write_all(&[f.flow.proto.0])?;
    }
    Ok(())
}

/// Deserialises a bundle from any reader.
pub fn read_bundle<R: Read>(mut r: R) -> Result<TraceBundle, BundleIoError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).map_err(eof)?;
    if &magic != MAGIC {
        return Err(if &magic == CHUNKED_MAGIC {
            BundleIoError::Chunked
        } else {
            BundleIoError::BadMagic
        });
    }
    let mut v = [0u8; 1];
    r.read_exact(&mut v).map_err(eof)?;
    if v[0] != VERSION {
        return Err(BundleIoError::BadVersion(v[0]));
    }
    read_bundle_body(&mut r)
}

/// Bytes of one fixed-width source flow record.
const SOURCE_RECORD_BYTES: usize = 23;

/// The shared body of both containers: NF log section + source section.
///
/// No length field is trusted with an allocation: a section is read through
/// [`read_section`], which grows its buffer with the bytes that actually
/// arrive, and only a section that arrived whole is decoded — so memory
/// stays within a small multiple of the input however large the header
/// claims the sections are. Each log must sit at the position of its NF id.
fn read_bundle_body<R: Read>(mut r: R) -> Result<TraceBundle, BundleIoError> {
    let n_logs = read_u32(&mut r)?;
    let mut logs = Vec::new();
    let mut buf = Vec::new();
    for position in 0..n_logs {
        let len = read_u32(&mut r)?;
        read_section(&mut r, u64::from(len), &mut buf)?;
        let log = decode_nf_log(&buf).map_err(BundleIoError::Log)?;
        if u32::from(log.nf.0) != position {
            return Err(BundleIoError::MisplacedLog {
                position,
                nf: log.nf,
            });
        }
        logs.push(log);
    }
    let n_src = read_u32(&mut r)?;
    read_section(
        &mut r,
        u64::from(n_src) * SOURCE_RECORD_BYTES as u64,
        &mut buf,
    )?;
    let mut source_flows = Vec::with_capacity(buf.len() / SOURCE_RECORD_BYTES);
    for mut rec in buf.chunks_exact(SOURCE_RECORD_BYTES) {
        let ts = read_u64(&mut rec)?;
        let ipid = read_u16(&mut rec)?;
        let src_ip = read_u32(&mut rec)?;
        let dst_ip = read_u32(&mut rec)?;
        let src_port = read_u16(&mut rec)?;
        let dst_port = read_u16(&mut rec)?;
        let mut proto = [0u8; 1];
        rec.read_exact(&mut proto).map_err(eof)?;
        source_flows.push(FlowRecord {
            ts,
            ipid,
            flow: FiveTuple::new(src_ip, dst_ip, src_port, dst_port, Proto(proto[0])),
        });
    }
    Ok(TraceBundle { logs, source_flows })
}

/// Reads exactly `len` bytes into `buf` (cleared first), or reports
/// truncation. The buffer grows as bytes arrive, never from `len` alone.
fn read_section<R: Read>(r: &mut R, len: u64, buf: &mut Vec<u8>) -> Result<(), BundleIoError> {
    buf.clear();
    r.take(len).read_to_end(buf)?;
    if buf.len() as u64 == len {
        Ok(())
    } else {
        Err(BundleIoError::Truncated)
    }
}

/// Writes a bundle to a file path.
pub fn save_bundle(path: &Path, bundle: &TraceBundle) -> Result<(), BundleIoError> {
    let f = std::fs::File::create(path)?;
    write_bundle(io::BufWriter::new(f), bundle)
}

/// Reads a bundle from a file path.
pub fn load_bundle(path: &Path) -> Result<TraceBundle, BundleIoError> {
    let f = std::fs::File::open(path)?;
    read_bundle(io::BufReader::new(f))
}

/// The container a file starts with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BundleFormat {
    /// Whole-run `"MSCB"` bundle.
    Whole,
    /// Time-chunked `"MSCS"` stream.
    Chunked,
}

/// Reads the magic of a bundle file without loading it.
pub fn peek_format(path: &Path) -> Result<BundleFormat, BundleIoError> {
    let mut f = std::fs::File::open(path)?;
    let mut magic = [0u8; 4];
    f.read_exact(&mut magic).map_err(eof)?;
    match &magic {
        m if m == MAGIC => Ok(BundleFormat::Whole),
        m if m == CHUNKED_MAGIC => Ok(BundleFormat::Chunked),
        _ => Err(BundleIoError::BadMagic),
    }
}

/// One time window of a chunked bundle: every record with
/// `previous until <= ts < until`, per-NF batch order preserved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleChunk {
    /// Exclusive upper time bound of the records in this chunk.
    pub until: Nanos,
    /// The records of the window, in the same per-log layout as a full
    /// bundle (one log per NF even when empty, so `NfId` indexing holds).
    pub bundle: TraceBundle,
}

/// Splits a whole-run bundle into fixed-duration chunks.
///
/// Batches are assigned by their batch timestamp and source/flow records by
/// their record timestamp; relative order within every log is preserved, so
/// [`concat_chunks`] reproduces the input exactly. Every boundary is a
/// multiple of `chunk_ns`; numbering starts at the chunk holding the
/// earliest record, so a run on clocks far from 0 (`record --skew` puts
/// every clock at a 10 s epoch) is not preceded by hundreds of empty chunks.
/// A `chunk_ns` of zero is treated as one chunk covering the whole run.
pub fn chunk_bundle(bundle: &TraceBundle, chunk_ns: Nanos) -> Vec<BundleChunk> {
    let chunk_ns = chunk_ns.max(1);
    let (min_ts, max_ts) = bundle
        .logs
        .iter()
        .flat_map(|l| {
            let batches = l.rx.ts().iter().chain(l.tx.ts()).copied();
            batches.chain(l.flows.iter().map(|f| f.ts))
        })
        .chain(bundle.source_flows.iter().map(|f| f.ts))
        // Empty run: one empty chunk keeps downstream loops uniform.
        .fold(None, |acc: Option<(Nanos, Nanos)>, t| {
            Some(acc.map_or((t, t), |(lo, hi)| (lo.min(t), hi.max(t))))
        })
        .unwrap_or((0, 0));
    // lint: time-arith-ok(chunk numbers, not timestamps; t/chunk_ns is far from u64::MAX)
    let first = min_ts / chunk_ns;
    // lint: time-arith-ok(chunk count: max_ts >= min_ts, so the difference is non-negative)
    let n_chunks = (max_ts / chunk_ns - first + 1) as usize;
    let empty_logs = || -> Vec<NfLog> { bundle.logs.iter().map(|l| NfLog::new(l.nf)).collect() };
    let mut chunks: Vec<BundleChunk> = (1..=n_chunks as u64)
        .map(|i| BundleChunk {
            until: (first + i) * chunk_ns,
            bundle: TraceBundle {
                logs: empty_logs(),
                source_flows: Vec::new(),
            },
        })
        .collect();
    // lint: time-arith-ok(chunk numbers: every ts >= min_ts, so ts/chunk_ns >= first)
    let slot = |ts: Nanos| (ts / chunk_ns - first) as usize;
    for (i, log) in bundle.logs.iter().enumerate() {
        for b in log.rx.iter() {
            let part = &mut chunks[slot(b.ts)].bundle.logs[i];
            part.rx.push(b.ts, b.ipids.iter().copied());
        }
        for b in log.tx.iter() {
            let part = &mut chunks[slot(b.ts)].bundle.logs[i];
            part.tx.push(b.ts, b.to, b.ipids.iter().copied());
        }
        for f in &log.flows {
            chunks[slot(f.ts)].bundle.logs[i].flows.push(*f);
        }
    }
    for f in &bundle.source_flows {
        chunks[slot(f.ts)].bundle.source_flows.push(*f);
    }
    chunks
}

/// Re-joins chunks into a whole-run bundle (the inverse of
/// [`chunk_bundle`] for chunks in time order).
pub fn concat_chunks(chunks: &[BundleChunk]) -> TraceBundle {
    let Some(first) = chunks.first() else {
        return TraceBundle {
            logs: Vec::new(),
            source_flows: Vec::new(),
        };
    };
    let mut out = first.bundle.clone();
    for c in &chunks[1..] {
        for (log, part) in out.logs.iter_mut().zip(&c.bundle.logs) {
            for b in part.rx.iter() {
                log.rx.push(b.ts, b.ipids.iter().copied());
            }
            for b in part.tx.iter() {
                log.tx.push(b.ts, b.to, b.ipids.iter().copied());
            }
            log.flows.extend(part.flows.iter().copied());
        }
        out.source_flows
            .extend(c.bundle.source_flows.iter().copied());
    }
    out
}

/// Serialises a chunk sequence to any writer in the `"MSCS"` container.
pub fn write_bundle_chunked<W: Write>(
    mut w: W,
    chunks: &[BundleChunk],
) -> Result<(), BundleIoError> {
    w.write_all(CHUNKED_MAGIC)?;
    w.write_all(&[VERSION])?;
    for c in chunks {
        w.write_all(&c.until.to_le_bytes())?;
        write_bundle_body(&mut w, &c.bundle)?;
    }
    Ok(())
}

/// Writes a chunked bundle to a file path.
pub fn save_bundle_chunked(path: &Path, chunks: &[BundleChunk]) -> Result<(), BundleIoError> {
    let f = std::fs::File::create(path)?;
    write_bundle_chunked(io::BufWriter::new(f), chunks)
}

/// Streaming reader over a `"MSCS"` file: one chunk in memory at a time.
#[derive(Debug)]
pub struct BundleChunkReader<R: Read> {
    r: R,
    failed: bool,
}

impl BundleChunkReader<io::BufReader<std::fs::File>> {
    /// Opens a chunked bundle file.
    pub fn open(path: &Path) -> Result<Self, BundleIoError> {
        let f = std::fs::File::open(path)?;
        Self::new(io::BufReader::new(f))
    }
}

impl<R: Read> BundleChunkReader<R> {
    /// Wraps any reader positioned at the start of a chunked bundle.
    pub fn new(mut r: R) -> Result<Self, BundleIoError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic).map_err(eof)?;
        if &magic != CHUNKED_MAGIC {
            return Err(BundleIoError::BadMagic);
        }
        let mut v = [0u8; 1];
        r.read_exact(&mut v).map_err(eof)?;
        if v[0] != VERSION {
            return Err(BundleIoError::BadVersion(v[0]));
        }
        Ok(Self { r, failed: false })
    }

    /// Reads the next chunk; `Ok(None)` at a clean end of file.
    pub fn next_chunk(&mut self) -> Result<Option<BundleChunk>, BundleIoError> {
        if self.failed {
            return Ok(None);
        }
        // A clean EOF is only legal exactly at a chunk boundary: read the
        // `until` field byte-wise so zero-bytes-read means "done" while a
        // partial header still reports truncation.
        let mut until = [0u8; 8];
        let mut got = 0usize;
        while got < 8 {
            let n = self.r.read(&mut until[got..])?;
            if n == 0 {
                if got == 0 {
                    return Ok(None);
                }
                self.failed = true;
                return Err(BundleIoError::Truncated);
            }
            got += n;
        }
        match read_bundle_body(&mut self.r) {
            Ok(bundle) => Ok(Some(BundleChunk {
                until: u64::from_le_bytes(until),
                bundle,
            })),
            Err(e) => {
                self.failed = true;
                Err(e)
            }
        }
    }
}

impl<R: Read> Iterator for BundleChunkReader<R> {
    type Item = Result<BundleChunk, BundleIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_chunk().transpose()
    }
}

fn eof(e: io::Error) -> BundleIoError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        BundleIoError::Truncated
    } else {
        BundleIoError::Io(e)
    }
}

fn read_u16<R: Read>(r: &mut R) -> Result<u16, BundleIoError> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b).map_err(eof)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, BundleIoError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b).map_err(eof)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, BundleIoError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b).map_err(eof)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{Collector, CollectorConfig};
    use crate::records::PacketMeta;
    use nf_types::{NfId, NfKind, Topology};

    fn sample_bundle() -> TraceBundle {
        let mut b = Topology::builder();
        let a = b.add_nf(NfKind::Nat, "nat1");
        let v = b.add_nf(NfKind::Vpn, "vpn1");
        b.add_entry(a);
        b.add_edge(a, v);
        let topo = b.build().unwrap();
        let mut c = Collector::new(&topo, CollectorConfig::default());
        for i in 0..50u16 {
            let m = PacketMeta {
                ipid: i,
                flow: FiveTuple::new(0x0a000001, 0x14000001, 1000 + i, 80, Proto::TCP),
            };
            let t = i as u64 * 1_000;
            c.record_source(t, &m);
            c.record_rx(NfId(0), t + 100, &[m]);
            c.record_tx(NfId(0), t + 600, Some(NfId(1)), &[m]);
            c.record_rx(NfId(1), t + 700, &[m]);
            c.record_tx(NfId(1), t + 1_500, None, &[m]);
        }
        c.into_bundle()
    }

    #[test]
    fn round_trip_in_memory() {
        let bundle = sample_bundle();
        let mut buf = Vec::new();
        write_bundle(&mut buf, &bundle).unwrap();
        let back = read_bundle(&buf[..]).unwrap();
        assert_eq!(back, bundle);
    }

    #[test]
    fn round_trip_on_disk() {
        let bundle = sample_bundle();
        let dir = std::env::temp_dir().join("msc_bundle_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("run.msc");
        save_bundle(&p, &bundle).unwrap();
        let back = load_bundle(&p).unwrap();
        assert_eq!(back, bundle);
    }

    #[test]
    fn chunk_concat_reproduces_original() {
        let bundle = sample_bundle();
        for chunk_ns in [1u64, 500, 5_000, 100_000] {
            let chunks = chunk_bundle(&bundle, chunk_ns);
            assert!(!chunks.is_empty());
            // Chunks respect their time bounds and tile the run.
            let mut prev = 0u64;
            for c in &chunks {
                assert!(c.until > prev, "until must be increasing");
                for log in &c.bundle.logs {
                    for &ts in log.rx.ts().iter().chain(log.tx.ts()) {
                        assert!(ts >= prev && ts < c.until);
                    }
                }
                for f in &c.bundle.source_flows {
                    assert!(f.ts >= prev && f.ts < c.until);
                }
                prev = c.until;
            }
            assert_eq!(concat_chunks(&chunks), bundle, "chunk_ns={chunk_ns}");
        }
    }

    /// Regression: chunks used to be numbered from t = 0, so a run on
    /// epoch-shifted clocks (`record --skew`: every clock at 10 s) was
    /// preceded by `epoch / chunk_ns` empty chunks — 200 of a 60 ms run's
    /// 202 at 50 ms. Only the leading empties go: boundaries stay multiples
    /// of `chunk_ns`, and a run starting in chunk 0 chunks as it always did.
    #[test]
    fn chunking_starts_at_the_first_record_not_at_zero() {
        const EPOCH: Nanos = 10_000_000_000;
        let base = sample_bundle();
        let mut shifted = base.clone();
        for log in &mut shifted.logs {
            log.rx.ts_mut().iter_mut().for_each(|ts| *ts += EPOCH);
            log.tx.ts_mut().iter_mut().for_each(|ts| *ts += EPOCH);
            log.flows.iter_mut().for_each(|f| f.ts += EPOCH);
        }
        shifted.source_flows.iter_mut().for_each(|f| f.ts += EPOCH);

        for chunk_ns in [5_000u64, 50_000] {
            let chunks = chunk_bundle(&shifted, chunk_ns);
            let plain = chunk_bundle(&base, chunk_ns);
            // EPOCH is a multiple of both widths, so the shifted run tiles
            // exactly like the unshifted one, `EPOCH / chunk_ns` chunks later.
            assert_eq!(chunks.len(), plain.len(), "chunk_ns={chunk_ns}");
            for (c, p) in chunks.iter().zip(&plain) {
                assert_eq!(c.until, p.until + EPOCH);
                assert_eq!(c.until % chunk_ns, 0);
            }
            assert!(
                !chunks[0].bundle.source_flows.is_empty(),
                "leading empty chunk"
            );
            assert_eq!(concat_chunks(&chunks), shifted, "chunk_ns={chunk_ns}");
        }
        // A run whose first record is in chunk 0 still starts at chunk 0.
        assert_eq!(chunk_bundle(&base, 7_000)[0].until, 7_000);
    }

    #[test]
    fn empty_bundle_chunks_to_one_empty_chunk() {
        let bundle = TraceBundle {
            logs: sample_bundle()
                .logs
                .iter()
                .map(|l| NfLog::new(l.nf))
                .collect(),
            source_flows: Vec::new(),
        };
        let chunks = chunk_bundle(&bundle, 1_000);
        assert_eq!(chunks.len(), 1);
        assert_eq!(concat_chunks(&chunks), bundle);
    }

    #[test]
    fn chunked_round_trip_on_disk() {
        let bundle = sample_bundle();
        let chunks = chunk_bundle(&bundle, 7_000);
        let dir = std::env::temp_dir().join("msc_bundle_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("run.mscs");
        save_bundle_chunked(&p, &chunks).unwrap();
        assert_eq!(peek_format(&p).unwrap(), BundleFormat::Chunked);
        let back: Vec<BundleChunk> = BundleChunkReader::open(&p)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(back, chunks);
        // The whole-run file still reports Whole. (Not `run.msc`: tests run
        // in parallel and `round_trip_on_disk` reads that one back.)
        let pw = dir.join("whole.msc");
        save_bundle(&pw, &bundle).unwrap();
        assert_eq!(peek_format(&pw).unwrap(), BundleFormat::Whole);
    }

    #[test]
    fn chunked_reader_detects_truncation() {
        let chunks = chunk_bundle(&sample_bundle(), 7_000);
        let mut buf = Vec::new();
        write_bundle_chunked(&mut buf, &chunks).unwrap();
        // Whole-bundle magic is rejected.
        assert!(matches!(
            BundleChunkReader::new(&b"MSCB\x01"[..]),
            Err(BundleIoError::BadMagic)
        ));
        // Cutting mid-chunk surfaces Truncated from the iterator.
        let cut = buf.len() - 3;
        let r = BundleChunkReader::new(&buf[..cut]).unwrap();
        assert!(
            r.into_iter().any(|item| item.is_err()),
            "truncation must not pass silently"
        );
    }

    /// Length fields far beyond the bytes that follow: each must come back
    /// as truncation, from the whole-file reader and from the chunk reader,
    /// without an allocation sized by the field. The inflated log counts
    /// aborted the process before the decoder bounded them; `len` and
    /// `n_src` cost a 4 GiB `vec![0; len]` / a 32 MB reservation.
    #[test]
    fn hostile_length_fields_are_truncation() {
        // "MSCB" v1, one log: version 1, NF 0, then the section counts.
        let whole = |log: &[u8], n_src: u32| {
            let mut file = b"MSCB\x01\x01\x00\x00\x00".to_vec();
            file.extend((log.len() as u32).to_le_bytes());
            file.extend(log);
            file.extend(n_src.to_le_bytes());
            file
        };
        let chunked = |file: &[u8]| {
            let mut s = b"MSCS\x01".to_vec();
            s.extend(77u64.to_le_bytes());
            s.extend(&file[5..]);
            s
        };
        let huge = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40]; // 2^62
        for section in 0..3 {
            let mut log = vec![1u8, 0, 0];
            log.extend(std::iter::repeat_n(0, section));
            log.extend(huge);
            let file = whole(&log, 0);
            assert!(
                matches!(
                    read_bundle(&file[..]),
                    Err(BundleIoError::Log(EncodeError::Truncated))
                ),
                "section {section}"
            );
            let stream = chunked(&file);
            let mut rdr = BundleChunkReader::new(&stream[..]).unwrap();
            assert!(
                matches!(
                    rdr.next_chunk(),
                    Err(BundleIoError::Log(EncodeError::Truncated))
                ),
                "section {section}, chunked"
            );
        }
        let empty_log = [1u8, 0, 0, 0, 0, 0];
        let mut cases = vec![whole(&empty_log, u32::MAX), whole(&empty_log, 1)];
        // A log section longer than the file.
        let mut long = whole(&empty_log, 0);
        long[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        cases.push(long);
        for file in &cases {
            assert!(matches!(
                read_bundle(&file[..]),
                Err(BundleIoError::Truncated)
            ));
            let stream = chunked(file);
            let mut rdr = BundleChunkReader::new(&stream[..]).unwrap();
            assert!(matches!(rdr.next_chunk(), Err(BundleIoError::Truncated)));
        }
        // More logs than the file holds: the reader runs into `n_src` and
        // the end of the file looking for them.
        let mut many = whole(&empty_log, 0);
        many[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_bundle(&many[..]),
            Err(BundleIoError::Log(EncodeError::Truncated))
        ));
        // Sanity: the same bytes with honest fields load.
        assert!(read_bundle(&whole(&empty_log, 0)[..]).is_ok());
    }

    /// Readers index logs by NF id: a log at another NF's position is an
    /// error in both containers, not a bundle whose ids disagree with its
    /// order.
    #[test]
    fn a_log_at_another_nfs_position_is_refused() {
        let mut bundle = sample_bundle();
        bundle.logs.swap(0, 1);
        let misplaced = |e: Option<BundleIoError>| {
            matches!(
                e,
                Some(BundleIoError::MisplacedLog {
                    position: 0,
                    nf: NfId(1)
                })
            )
        };
        let mut whole = Vec::new();
        write_bundle(&mut whole, &bundle).unwrap();
        assert!(misplaced(read_bundle(&whole[..]).err()));
        let mut chunked = Vec::new();
        write_bundle_chunked(&mut chunked, &chunk_bundle(&bundle, 7_000)).unwrap();
        assert!(misplaced(
            BundleChunkReader::new(&chunked[..])
                .unwrap()
                .next_chunk()
                .err()
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            read_bundle(&b"NOPE"[..]),
            Err(BundleIoError::BadMagic) | Err(BundleIoError::Truncated)
        ));
        // A chunked file is not garbage: the error says what it is and what
        // reads it.
        let mut chunked = Vec::new();
        write_bundle_chunked(&mut chunked, &chunk_bundle(&sample_bundle(), 7_000)).unwrap();
        let err = read_bundle(&chunked[..]).unwrap_err();
        assert!(matches!(err, BundleIoError::Chunked), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("chunked") && msg.contains("stream"), "{msg}");
        let mut buf = Vec::new();
        write_bundle(&mut buf, &sample_bundle()).unwrap();
        buf[4] = 99; // version
        assert!(matches!(
            read_bundle(&buf[..]),
            Err(BundleIoError::BadVersion(99))
        ));
        // Truncation at every section boundary is detected.
        for cut in [3usize, 6, 12, buf.len() / 2, buf.len() - 1] {
            assert!(read_bundle(&buf[..cut]).is_err(), "cut {cut}");
        }
    }
}
