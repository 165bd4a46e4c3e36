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
//!
//! ## Reading a whole-run file in time windows
//!
//! [`WholeRunReader`] yields the chunks [`chunk_bundle`] would cut a loaded
//! `"MSCB"` bundle into, straight from the file, with one cursor per
//! section; [`ChunkSource`] opens either container that way. Every section
//! is in time order — the record parser refuses one that is not
//! ([`EncodeError::OutOfOrder`]) — so a window is a prefix of each section.

use crate::collector::{NfLog, TraceBundle};
use crate::encode::{
    count_fits, decode_nf_log, encode_nf_log, get_log_header, get_varint, EncodeError, Section,
    SectionReader, LOG_HEADER_BYTES, MAX_RECORD_BYTES, SOURCE_RECORD_BYTES,
};
use nf_types::{Nanos, NfId};
use std::fmt;
use std::io::{self, Read, Seek, SeekFrom, Write};
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
    /// An embedded NF log failed to encode or decode, or a section's
    /// records are out of time order.
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
                "a time-chunked bundle (.mscs), not a whole-run one: `microscope diagnose` reads it"
            ),
            BundleIoError::BadVersion(v) => write!(f, "unsupported bundle version {v}"),
            BundleIoError::Log(e @ EncodeError::OutOfOrder { .. }) => write!(f, "{e}"),
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

impl From<EncodeError> for BundleIoError {
    fn from(e: EncodeError) -> Self {
        BundleIoError::Log(e)
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
        let enc = encode_nf_log(log)?;
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
        let log = decode_nf_log(&buf)?;
        check_position(position, log.nf)?;
        logs.push(log);
    }
    let n_src = read_u32(&mut r)?;
    read_section(
        &mut r,
        u64::from(n_src) * SOURCE_RECORD_BYTES as u64,
        &mut buf,
    )?;
    let mut source = NfLog::new(NfId(0));
    source.flows.reserve_exact(buf.len() / SOURCE_RECORD_BYTES);
    let mut records = SectionReader::new(Section::Source);
    let mut pos = 0;
    while pos < buf.len() {
        let ts = records.read_ts(&buf, &mut pos)?;
        records.read_body(&buf, &mut pos, ts, &mut source)?;
    }
    Ok(TraceBundle {
        logs,
        source_flows: source.flows,
    })
}

/// Every reader indexes the logs by NF id: the log at `position` must be
/// that NF's.
fn check_position(position: u32, nf: NfId) -> Result<(), BundleIoError> {
    if u32::from(nf.0) == position {
        Ok(())
    } else {
        Err(BundleIoError::MisplacedLog { position, nf })
    }
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
/// multiple of `chunk_ns`, and only the windows that hold a record become
/// chunks — the windows [`ChunkSource`] reads a whole-run file in — so a
/// run on clocks far from 0 (`record --skew` puts every clock at a 10 s
/// epoch) or a record stamped hours past the rest costs no empty chunks.
/// An empty run is one empty chunk. A `chunk_ns` of zero is 1 ns.
pub fn chunk_bundle(bundle: &TraceBundle, chunk_ns: Nanos) -> Vec<BundleChunk> {
    let chunk_ns = chunk_ns.max(1);
    let record_ts = bundle
        .logs
        .iter()
        .flat_map(|l| {
            let batches = l.rx.ts().iter().chain(l.tx.ts()).copied();
            batches.chain(l.flows.iter().map(|f| f.ts))
        })
        .chain(bundle.source_flows.iter().map(|f| f.ts));
    // The `[start, until)` of every window that holds a record. Each
    // section is in time order, so its records mostly fall in the window
    // of the one before: only a record outside it is divided, and each
    // section adds each of its windows once.
    // The multiple of `chunk_ns` at or below `ts` never underflows.
    let window = |ts: Nanos| (ts - ts % chunk_ns, window_end(ts, chunk_ns));
    let mut windows: Vec<(Nanos, Nanos)> = Vec::new();
    for ts in record_ts {
        if !windows
            .last()
            .is_some_and(|&(start, until)| start <= ts && ts < until)
        {
            windows.push(window(ts));
        }
    }
    windows.sort_unstable();
    windows.dedup();
    if windows.is_empty() {
        windows.push(window(0));
    }
    let mut chunks: Vec<BundleChunk> = windows
        .iter()
        .map(|&(_, until)| BundleChunk {
            until,
            bundle: TraceBundle {
                logs: bundle.logs.iter().map(|l| NfLog::new(l.nf)).collect(),
                source_flows: Vec::new(),
            },
        })
        .collect();
    // The chunk of `ts`, found from the one of the record before (`at`):
    // the same or a later one in a time-ordered section.
    let slot = |at: &mut usize, ts: Nanos| {
        while windows.get(*at).is_some_and(|&(_, until)| until <= ts) {
            *at += 1;
        }
        if windows.get(*at).is_none_or(|&(start, _)| start > ts) {
            *at = windows
                .partition_point(|&(start, _)| start <= ts)
                .saturating_sub(1);
        }
        *at
    };
    for (i, log) in bundle.logs.iter().enumerate() {
        let mut at = 0;
        for b in log.rx.iter() {
            let part = &mut chunks[slot(&mut at, b.ts)].bundle.logs[i];
            part.rx.push(b.ts, b.ipids.iter().copied());
        }
        let mut at = 0;
        for b in log.tx.iter() {
            let part = &mut chunks[slot(&mut at, b.ts)].bundle.logs[i];
            part.tx.push(b.ts, b.to, b.ipids.iter().copied());
        }
        let mut at = 0;
        for f in &log.flows {
            chunks[slot(&mut at, f.ts)].bundle.logs[i].flows.push(*f);
        }
    }
    let mut at = 0;
    for f in &bundle.source_flows {
        chunks[slot(&mut at, f.ts)].bundle.source_flows.push(*f);
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

/// The bytes of a file [`WholeRunReader`] keeps per section: any record
/// fits, and the 49 sections of a 16-NF bundle hold under 1 MB together.
const WINDOW_BYTES: usize = 16 * 1024;

/// A byte range of a file, read front to back through a bounded window.
#[derive(Debug)]
struct Window {
    /// `buf[at..len]` is read and not consumed yet.
    buf: Vec<u8>,
    at: usize,
    len: usize,
    /// The file offset of the byte after `buf[..len]`, and of the range's
    /// end.
    next: u64,
    end: u64,
}

impl Window {
    fn new(start: u64, end: u64) -> Self {
        Self {
            buf: Vec::new(),
            at: 0,
            len: 0,
            next: start,
            end,
        }
    }

    /// The unconsumed bytes: at least `want` of them, unless the range ends
    /// first. True when they are all the range has left.
    fn fill<R: Read + Seek>(
        &mut self,
        r: &mut R,
        want: usize,
    ) -> Result<(&[u8], bool), BundleIoError> {
        if self.len - self.at < want && self.next < self.end {
            // At most `cap` of what the range has left.
            let rest =
                |cap: usize| usize::try_from(self.end - self.next).map_or(cap, |n| n.min(cap));
            if self.buf.is_empty() {
                self.buf = vec![0; rest(WINDOW_BYTES).max(want)];
            }
            self.buf.copy_within(self.at..self.len, 0);
            self.len -= self.at;
            self.at = 0;
            let n = rest(self.buf.len() - self.len);
            r.seek(SeekFrom::Start(self.next))?;
            r.read_exact(&mut self.buf[self.len..self.len + n])
                .map_err(eof)?;
            self.len += n;
            self.next += n as u64;
        }
        Ok((&self.buf[self.at..self.len], self.next == self.end))
    }

    fn consume(&mut self, n: usize) {
        self.at += n;
    }

    /// The file offset of the first unconsumed byte.
    fn offset(&self) -> u64 {
        self.next - (self.len - self.at) as u64
    }
}

/// One section of a whole-run file, read record by record.
#[derive(Debug)]
struct Cursor {
    records: SectionReader,
    /// Records not read yet.
    left: usize,
    /// The timestamp of the next record, once read.
    next: Option<Nanos>,
    window: Window,
}

impl Cursor {
    fn new(section: Section, records: usize, window: Window) -> Self {
        Self {
            records: SectionReader::new(section),
            left: records,
            next: None,
            window,
        }
    }

    /// The timestamp of the next record; `None` past the last.
    fn peek<R: Read + Seek>(&mut self, r: &mut R) -> Result<Option<Nanos>, BundleIoError> {
        // No record is stamped below 0: this reads the next timestamp only.
        self.take_below(r, 0, None)?;
        Ok(self.next)
    }

    /// Moves every record stamped before `until` into `log`, or steps over
    /// them without `log`; the last chunk a `u64` can bound, `until ==
    /// Nanos::MAX`, takes the rest. Leaves the next record's timestamp read.
    fn take_below<R: Read + Seek>(
        &mut self,
        r: &mut R,
        until: Nanos,
        mut log: Option<&mut NfLog>,
    ) -> Result<(), BundleIoError> {
        while self.left > 0 {
            let (buf, whole) = self.window.fill(r, MAX_RECORD_BYTES)?;
            // A record starting before `fits` is in `buf` whole; once `buf`
            // holds the rest of the section, every record left is parsed
            // from it (and one the section has no bytes for is truncated).
            let fits = buf.len().saturating_sub(MAX_RECORD_BYTES - 1);
            let mut pos = 0;
            while self.left > 0 && (whole || pos < fits) {
                let ts = match self.next.take() {
                    Some(ts) => ts,
                    None => self.records.read_ts(buf, &mut pos)?,
                };
                if ts >= until && until != Nanos::MAX {
                    self.next = Some(ts);
                    self.window.consume(pos);
                    return Ok(());
                }
                match &mut log {
                    Some(log) => self.records.read_body(buf, &mut pos, ts, log)?,
                    None => self.records.skip_body(buf, &mut pos)?,
                }
                self.left -= 1;
            }
            self.window.consume(pos);
        }
        Ok(())
    }
}

/// Time windows of a whole-run `"MSCB"` file, read straight from it: one
/// cursor per section (each NF log's rx, tx and flow records, the source's)
/// through a bounded window, so memory holds one chunk plus ≈ 16 KiB per
/// section, never the file or the run.
///
/// [`WholeRunReader::next_chunk`] yields the windows of `chunk_ns` that hold
/// a record, from the one holding the earliest on: exactly the chunks
/// [`chunk_bundle`] cuts the loaded bundle into. That rests on each section
/// being in time order, which the cursors check as they read
/// ([`EncodeError::OutOfOrder`]).
#[derive(Debug)]
pub struct WholeRunReader<R> {
    r: R,
    /// Per NF log: its rx, tx and flow sections.
    logs: Vec<(NfId, [Cursor; 3])>,
    source: Cursor,
    chunk_ns: Nanos,
    /// The bound of the next chunk; `None` once the last one was yielded.
    until: Option<Nanos>,
}

impl WholeRunReader<std::fs::File> {
    /// Opens a whole-run bundle file, to be read in `chunk_ns` windows.
    pub fn open(path: &Path, chunk_ns: Nanos) -> Result<Self, BundleIoError> {
        Self::new(std::fs::File::open(path)?, chunk_ns)
    }
}

impl<R: Read + Seek> WholeRunReader<R> {
    /// Walks the framing of the bundle `r` holds, once: where each section
    /// starts and ends. It refuses what [`read_bundle`] refuses — bad magic,
    /// a chunked file, a bad version, a section past the end of the file, a
    /// log at another NF's position — and sizes no allocation by a header
    /// field. The rx and tx records are stepped over (that is where the
    /// next section starts), not decoded. A `chunk_ns` of zero is 1 ns.
    pub fn new(mut r: R, chunk_ns: Nanos) -> Result<Self, BundleIoError> {
        let file_len = r.seek(SeekFrom::End(0))?;
        r.seek(SeekFrom::Start(0))?;
        let mut head = [0u8; 5];
        r.read_exact(&mut head).map_err(eof)?;
        match &head[..4] {
            m if m == MAGIC => {}
            m if m == CHUNKED_MAGIC => return Err(BundleIoError::Chunked),
            _ => return Err(BundleIoError::BadMagic),
        }
        if head[4] != VERSION {
            return Err(BundleIoError::BadVersion(head[4]));
        }
        let mut at = head.len() as u64;
        let n_logs = read_u32(&mut r)?;
        at += 4;
        let mut logs = Vec::new();
        for position in 0..n_logs {
            let len = read_u32(&mut r)?;
            let (start, end) = (at + 4, at + 4 + u64::from(len));
            if end > file_len {
                return Err(BundleIoError::Truncated);
            }
            let (nf, cursors) = walk_log(&mut r, start, end)?;
            check_position(position, nf)?;
            logs.push((nf, cursors));
            at = end;
            r.seek(SeekFrom::Start(at))?;
        }
        let n_src = read_u32(&mut r)?;
        let start = at + 4;
        let end = start + u64::from(n_src) * SOURCE_RECORD_BYTES as u64;
        if end > file_len {
            return Err(BundleIoError::Truncated);
        }
        let source = Cursor::new(Section::Source, n_src as usize, Window::new(start, end));
        let mut reader = Self {
            r,
            logs,
            source,
            chunk_ns: chunk_ns.max(1),
            until: None,
        };
        // Sections are time-ordered, so the earliest record opens one of
        // them. An empty run is one empty chunk, as `chunk_bundle` has it.
        let mut earliest: Option<Nanos> = None;
        for c in cursors(&mut reader.logs, &mut reader.source) {
            if let Some(ts) = c.peek(&mut reader.r)? {
                earliest = Some(earliest.map_or(ts, |e| e.min(ts)));
            }
        }
        reader.until = Some(window_end(earliest.unwrap_or(0), reader.chunk_ns));
        Ok(reader)
    }

    /// The next time window; `Ok(None)` after the one holding the last
    /// record. The window is the one holding the earliest record not read
    /// yet, so a gap in the run costs one chunk, not one per `chunk_ns` of
    /// it; only empty windows are left out.
    pub fn next_chunk(&mut self) -> Result<Option<BundleChunk>, BundleIoError> {
        let Some(mut until) = self.until else {
            return Ok(None);
        };
        let earliest = cursors(&mut self.logs, &mut self.source)
            .filter_map(|c| c.next)
            .min();
        if let Some(ts) = earliest {
            until = until.max(window_end(ts, self.chunk_ns));
        }
        // A failed read ends the iteration: the cursors are mid-record.
        self.until = None;
        let mut logs = Vec::with_capacity(self.logs.len());
        for (nf, cursors) in &mut self.logs {
            let mut log = NfLog::new(*nf);
            for c in cursors {
                c.take_below(&mut self.r, until, Some(&mut log))?;
            }
            logs.push(log);
        }
        let mut source = NfLog::new(NfId(0));
        self.source
            .take_below(&mut self.r, until, Some(&mut source))?;
        // A cursor holds the timestamp of its next record, if it has one.
        if cursors(&mut self.logs, &mut self.source).any(|c| c.next.is_some()) {
            self.until = Some(until.saturating_add(self.chunk_ns));
        }
        Ok(Some(BundleChunk {
            until,
            bundle: TraceBundle {
                logs,
                source_flows: source.flows,
            },
        }))
    }
}

/// The bound of the `chunk_ns` window holding `ts`: the next multiple of
/// `chunk_ns` above it (`Nanos::MAX` past the last one a `u64` holds).
fn window_end(ts: Nanos, chunk_ns: Nanos) -> Nanos {
    // The multiple of `chunk_ns` at or below `ts` never underflows.
    (ts - ts % chunk_ns).saturating_add(chunk_ns)
}

/// Every section's cursor, the source last.
fn cursors<'a>(
    logs: &'a mut [(NfId, [Cursor; 3])],
    source: &'a mut Cursor,
) -> impl Iterator<Item = &'a mut Cursor> {
    let logs = logs.iter_mut().flat_map(|(_, c)| c.iter_mut());
    logs.chain(std::iter::once(source))
}

/// Walks the framing of the log in `start..end`: its NF id, and a cursor on
/// each of its three sections.
fn walk_log<R: Read + Seek>(
    r: &mut R,
    start: u64,
    end: u64,
) -> Result<(NfId, [Cursor; 3]), BundleIoError> {
    // One window over the whole log; its section is set per section below.
    let mut walk = Cursor::new(Section::Source, 0, Window::new(start, end));
    let (buf, _) = walk.window.fill(r, LOG_HEADER_BYTES)?;
    let mut pos = 0;
    let nf = get_log_header(buf, &mut pos)?;
    walk.window.consume(pos);
    let mut section_cursor = |section: Section| -> Result<Cursor, BundleIoError> {
        let (buf, _) = walk.window.fill(r, MAX_RECORD_BYTES)?;
        let mut pos = 0;
        let n = get_varint(buf, &mut pos)?;
        walk.window.consume(pos);
        let n = count_fits(n, end - walk.window.offset(), section)?;
        let from = walk.window.offset();
        if let Section::Flows(_) = section {
            // The last section: it runs to the end of the log.
            return Ok(Cursor::new(section, n, Window::new(from, end)));
        }
        (walk.records, walk.left) = (SectionReader::new(section), n);
        walk.take_below(r, Nanos::MAX, None)?;
        let to = walk.window.offset();
        Ok(Cursor::new(section, n, Window::new(from, to)))
    };
    let rx = section_cursor(Section::Rx(nf))?;
    let tx = section_cursor(Section::Tx(nf))?;
    let flows = section_cursor(Section::Flows(nf))?;
    Ok((nf, [rx, tx, flows]))
}

/// The time chunks of a bundle file of either container, one in memory at
/// a time — what `microscope diagnose` and `stream` read.
#[derive(Debug)]
pub enum ChunkSource {
    /// A whole-run `.msc`, cut into windows as it is read; the empty
    /// windows between records are skipped, so a file stamped hours apart
    /// costs a few chunks, not one per window of the gap.
    Whole(WholeRunReader<std::fs::File>),
    /// A `.mscs`, cut into chunks when it was written.
    Chunked(BundleChunkReader<io::BufReader<std::fs::File>>),
}

impl ChunkSource {
    /// Opens `path`, whichever container it is; a whole-run file is read in
    /// `chunk_ns` windows.
    pub fn open(path: &Path, chunk_ns: Nanos) -> Result<Self, BundleIoError> {
        let mut magic = [0u8; 4];
        std::fs::File::open(path)?
            .read_exact(&mut magic)
            .map_err(eof)?;
        Ok(if &magic == CHUNKED_MAGIC {
            Self::Chunked(BundleChunkReader::open(path)?)
        } else {
            Self::Whole(WholeRunReader::open(path, chunk_ns)?)
        })
    }

    /// The next chunk; `Ok(None)` at the end.
    pub fn next_chunk(&mut self) -> Result<Option<BundleChunk>, BundleIoError> {
        match self {
            Self::Whole(r) => r.next_chunk(),
            Self::Chunked(r) => r.next_chunk(),
        }
    }
}

fn eof(e: io::Error) -> BundleIoError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        BundleIoError::Truncated
    } else {
        BundleIoError::Io(e)
    }
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, BundleIoError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b).map_err(eof)?;
    Ok(u32::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{Collector, CollectorConfig};
    use crate::records::PacketMeta;
    use nf_types::{FiveTuple, NfId, NfKind, Proto, Topology};

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

    /// A section out of time order — which no file that loads has — still
    /// puts every record in the chunk whose window holds it, by a search
    /// where the forward cursor cannot find it, and loses none.
    #[test]
    fn a_section_out_of_time_order_is_still_chunked_by_window() {
        let mut bundle = sample_bundle();
        bundle.logs[1].rx.ts_mut().reverse();
        for chunk_ns in [1_000u64, 7_000] {
            let chunks = chunk_bundle(&bundle, chunk_ns);
            for c in &chunks {
                let start = c.until - chunk_ns;
                for log in &c.bundle.logs {
                    for &ts in log.rx.ts().iter().chain(log.tx.ts()) {
                        assert!((start..c.until).contains(&ts), "{ts} in {c:?}");
                    }
                }
            }
            let rx: usize = chunks.iter().map(|c| c.bundle.logs[1].rx.len()).sum();
            assert_eq!(rx, bundle.logs[1].rx.len(), "chunk_ns={chunk_ns}");
        }
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
        let back: Vec<BundleChunk> = BundleChunkReader::open(&p)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(back, chunks);
        // `ChunkSource` reads either container. (Not `run.msc`: tests run in
        // parallel and `round_trip_on_disk` reads that one back.)
        let pw = dir.join("whole.msc");
        save_bundle(&pw, &bundle).unwrap();
        for (path, whole) in [(&p, false), (&pw, true)] {
            let mut source = ChunkSource::open(path, 7_000).unwrap();
            assert_eq!(matches!(source, ChunkSource::Whole(_)), whole);
            let mut back = Vec::new();
            while let Some(chunk) = source.next_chunk().unwrap() {
                back.push(chunk);
            }
            assert_eq!(back, chunks, "whole-run file: {whole}");
        }
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

    /// Every cut of a bundle, and a section whose records outrun its bytes,
    /// is an error from the windowed reader — at open or at the chunk that
    /// reaches it — never a hang or a quiet end.
    #[test]
    fn the_windowed_reader_refuses_truncation() {
        let windowed = |bytes: &[u8]| {
            WholeRunReader::new(io::Cursor::new(bytes), 7_000).and_then(|mut r| {
                while r.next_chunk()?.is_some() {}
                Ok(())
            })
        };
        let mut file = Vec::new();
        write_bundle(&mut file, &sample_bundle()).unwrap();
        assert!(windowed(&file).is_ok());
        for cut in 0..file.len() {
            assert!(windowed(&file[..cut]).is_err(), "cut {cut}");
        }
        // Two rx batches fit the 4 bytes after the count at 2 bytes each,
        // but the first takes all 4.
        let log = [1u8, 0, 0, 2, 1, 1, 0, 0];
        let mut short = b"MSCB\x01\x01\x00\x00\x00".to_vec();
        short.extend(8u32.to_le_bytes());
        short.extend(log);
        short.extend(0u32.to_le_bytes());
        let truncated = |e: Option<BundleIoError>| {
            matches!(e, Some(BundleIoError::Log(EncodeError::Truncated)))
        };
        assert!(truncated(read_bundle(&short[..]).err()));
        assert!(truncated(windowed(&short).err()));
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

    /// A section whose timestamps go backwards is an error naming it, from
    /// every reader: the whole-file decoder, the windowed reader (at open
    /// for the sections it walks, at the chunk that reaches the record for
    /// the others) and the chunk decoder.
    #[test]
    fn a_section_that_goes_back_in_time_is_refused_by_every_reader() {
        let backwards = |bundle: &mut TraceBundle, section: Section| match section {
            Section::Rx(nf) => bundle.logs[nf.0 as usize].rx.ts_mut()[5] = 0,
            Section::Tx(nf) => bundle.logs[nf.0 as usize].tx.ts_mut()[5] = 0,
            Section::Flows(nf) => bundle.logs[nf.0 as usize].flows[5].ts = 0,
            Section::Source => bundle.source_flows[5].ts = 0,
        };
        let sections = [
            Section::Rx(NfId(1)),
            Section::Tx(NfId(0)),
            Section::Flows(NfId(1)),
            Section::Source,
        ];
        for section in sections {
            let mut bundle = sample_bundle();
            backwards(&mut bundle, section);
            let refused = |e: BundleIoError| match &e {
                BundleIoError::Log(EncodeError::OutOfOrder {
                    section: s, ts: 0, ..
                }) => *s == section && e.to_string().contains(&section.to_string()),
                _ => false,
            };
            let mut whole = Vec::new();
            write_bundle(&mut whole, &bundle).unwrap();
            assert!(refused(read_bundle(&whole[..]).unwrap_err()), "{section}");
            let windowed = WholeRunReader::new(io::Cursor::new(&whole), 7_000).and_then(|mut r| {
                while r.next_chunk()?.is_some() {}
                Ok(())
            });
            assert!(refused(windowed.unwrap_err()), "{section}, windowed");
            // One chunk holds the run: the section is out of order inside it.
            let mut chunked = Vec::new();
            write_bundle_chunked(&mut chunked, &chunk_bundle(&bundle, u64::MAX)).unwrap();
            let mut rdr = BundleChunkReader::new(&chunked[..]).unwrap();
            assert!(refused(rdr.next_chunk().unwrap_err()), "{section}, chunked");
        }
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
        assert!(msg.contains("chunked") && msg.contains("diagnose"), "{msg}");
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
