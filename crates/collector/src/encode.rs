//! Compact binary encoding of collector logs.
//!
//! §5 of the paper: "Directly collecting the data incurs a high overhead
//! because we need more than 15 bytes per packet. We compress the data down
//! to around two bytes per packet." The trick is that interior NFs store only
//! the 2-byte IPID per packet; timestamps are per *batch* and delta-encoded
//! as LEB128 varints; five-tuples appear once per packet only at flow-info
//! points (exit NFs / source).
//!
//! The format is versioned and self-contained so the dumper can write it to
//! disk and the offline analysis can read it back without shared state.
//!
//! Every section is in time order, and [`SectionReader`] — the one parser of
//! records, which every reader of a bundle goes through — refuses a record
//! stamped before the one it follows ([`EncodeError::OutOfOrder`]).

use crate::collector::NfLog;
use crate::records::{FlowRecord, RxLog, TxLog};
use nf_types::{FiveTuple, Ipid, Nanos, NfId, Proto};
use std::fmt;

/// Format version tag (first byte of every encoded log).
const VERSION: u8 = 1;
/// Marker for "batch left the NF graph" in the tx target field.
const TO_EXIT: u16 = u16::MAX;
/// Bytes of one fixed-width source record: `ts u64`, `ipid u16`, tuple 13.
pub(crate) const SOURCE_RECORD_BYTES: usize = 23;
/// The most bytes one record of any section takes: a 10-byte varint
/// timestamp, a tx target, a length byte and 255 IPIDs.
pub(crate) const MAX_RECORD_BYTES: usize = 10 + 2 + 1 + 2 * 255;
/// The most bytes a log header (version and NF id) takes.
pub(crate) const LOG_HEADER_BYTES: usize = 3;

/// A time-ordered section of a bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// An NF's read batches.
    Rx(NfId),
    /// An NF's send batches.
    Tx(NfId),
    /// An exit NF's flow records.
    Flows(NfId),
    /// The traffic source's flow records.
    Source,
}

impl Section {
    /// The fewest bytes one record of the section takes on the wire.
    fn min_record_bytes(self) -> usize {
        match self {
            Section::Rx(_) => 2,
            Section::Tx(_) => 4,
            Section::Flows(_) => 16,
            Section::Source => SOURCE_RECORD_BYTES,
        }
    }
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Section::Rx(nf) => write!(f, "the rx section of NF {}", nf.0),
            Section::Tx(nf) => write!(f, "the tx section of NF {}", nf.0),
            Section::Flows(nf) => write!(f, "the flow section of NF {}", nf.0),
            Section::Source => write!(f, "the source section"),
        }
    }
}

/// Errors from [`encode_nf_log`] / [`decode_nf_log`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// Input ended in the middle of a field.
    Truncated,
    /// Unknown format version byte.
    BadVersion(u8),
    /// A varint ran past 10 bytes.
    BadVarint,
    /// A batch holds more packets than the one-byte wire length can carry.
    BatchTooLarge(usize),
    /// The encoded log is longer than the u32 length of a bundle section.
    LogTooLarge(usize),
    /// A record of `section` stamped `ts` follows one stamped `after`.
    OutOfOrder {
        section: Section,
        ts: Nanos,
        after: Nanos,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::Truncated => write!(f, "truncated log"),
            EncodeError::BadVersion(v) => write!(f, "unknown log version {v}"),
            EncodeError::BadVarint => write!(f, "malformed varint"),
            EncodeError::BatchTooLarge(n) => {
                write!(f, "batch of {n} packets exceeds the 255-packet wire limit")
            }
            EncodeError::LogTooLarge(n) => {
                write!(
                    f,
                    "encoded log of {n} bytes exceeds the 4 GiB section limit"
                )
            }
            EncodeError::OutOfOrder { section, ts, after } => write!(
                f,
                "{section} goes back in time: a record at {ts} ns follows one at {after} ns"
            ),
        }
    }
}

impl std::error::Error for EncodeError {}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

#[inline(always)]
pub(crate) fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, EncodeError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos).ok_or(EncodeError::Truncated)?;
        *pos += 1;
        if shift >= 64 {
            return Err(EncodeError::BadVarint);
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u16(buf: &[u8], pos: &mut usize) -> Result<u16, EncodeError> {
    let b = buf.get(*pos..*pos + 2).ok_or(EncodeError::Truncated)?;
    *pos += 2;
    Ok(u16::from_le_bytes([b[0], b[1]]))
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(buf: &[u8], pos: &mut usize) -> Result<u32, EncodeError> {
    let b = buf.get(*pos..*pos + 4).ok_or(EncodeError::Truncated)?;
    *pos += 4;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64, EncodeError> {
    let b = buf.get(*pos..*pos + 8).ok_or(EncodeError::Truncated)?;
    *pos += 8;
    let mut le = [0u8; 8];
    le.copy_from_slice(b);
    Ok(u64::from_le_bytes(le))
}

fn put_tuple(out: &mut Vec<u8>, t: &FiveTuple) {
    put_u32(out, t.src_ip);
    put_u32(out, t.dst_ip);
    put_u16(out, t.src_port);
    put_u16(out, t.dst_port);
    out.push(t.proto.0);
}

fn get_tuple(buf: &[u8], pos: &mut usize) -> Result<FiveTuple, EncodeError> {
    let src_ip = get_u32(buf, pos)?;
    let dst_ip = get_u32(buf, pos)?;
    let src_port = get_u16(buf, pos)?;
    let dst_port = get_u16(buf, pos)?;
    let proto = *buf.get(*pos).ok_or(EncodeError::Truncated)?;
    *pos += 1;
    Ok(FiveTuple::new(
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        Proto(proto),
    ))
}

/// Upper-bound capacity estimate for [`encode_nf_log`]'s buffer. Kept as a
/// separate fn so the sizing arithmetic (which touches the sections in
/// storage order, not wire order) stays out of the encode body, which
/// reads top to bottom in the same field order as [`decode_nf_log`].
fn encoded_capacity(log: &NfLog) -> usize {
    8 + 4 * log.rx.len() + 7 * log.tx.len() + 2 * log.packet_appearances() + log.flows.len() * 17
}

/// Writes one batch's length byte and IPIDs.
fn put_ipids(out: &mut Vec<u8>, ipids: &[Ipid]) -> Result<(), EncodeError> {
    let n = ipids.len();
    out.push(u8::try_from(n).map_err(|_| EncodeError::BatchTooLarge(n))?);
    for &ipid in ipids {
        put_u16(out, ipid);
    }
    Ok(())
}

/// Reads one batch's length byte and returns its IPIDs.
#[inline(always)]
fn get_ipids<'a>(
    buf: &'a [u8],
    pos: &mut usize,
) -> Result<impl Iterator<Item = Ipid> + 'a, EncodeError> {
    let len = *buf.get(*pos).ok_or(EncodeError::Truncated)? as usize;
    let bytes = buf
        .get(*pos + 1..*pos + 1 + 2 * len)
        .ok_or(EncodeError::Truncated)?;
    *pos += 1 + 2 * len;
    Ok(bytes
        .chunks_exact(2)
        .map(|b| Ipid::from_le_bytes([b[0], b[1]])))
}

/// A section's record count `n`, refused when the `room` bytes after it
/// cannot hold that many records — so a count is never trusted with an
/// allocation larger than the input that claims it.
pub(crate) fn count_fits(n: u64, room: u64, section: Section) -> Result<usize, EncodeError> {
    usize::try_from(n)
        .ok()
        .filter(|&n| n as u64 <= room / section.min_record_bytes() as u64)
        .ok_or(EncodeError::Truncated)
}

/// Reads a log's version byte and NF id.
pub(crate) fn get_log_header(buf: &[u8], pos: &mut usize) -> Result<NfId, EncodeError> {
    let version = *buf.get(*pos).ok_or(EncodeError::Truncated)?;
    *pos += 1;
    if version != VERSION {
        return Err(EncodeError::BadVersion(version));
    }
    Ok(NfId(get_u16(buf, pos)?))
}

#[inline(always)]
fn get_target(buf: &[u8], pos: &mut usize) -> Result<Option<NfId>, EncodeError> {
    Ok(match get_u16(buf, pos)? {
        TO_EXIT => None,
        nf_id => Some(NfId(nf_id)),
    })
}

fn get_flow(buf: &[u8], pos: &mut usize, ts: Nanos) -> Result<FlowRecord, EncodeError> {
    let ipid = get_u16(buf, pos)?;
    let flow = get_tuple(buf, pos)?;
    Ok(FlowRecord { ipid, flow, ts })
}

/// Reads the records of one section in wire order. A record stamped before
/// the one it follows is [`EncodeError::OutOfOrder`]: every consumer of a
/// bundle — the matcher's per-edge streams, the chunker, the streaming
/// engine's `admit` — assumes each section is in time order, so the order
/// is checked here, where the records come in.
#[derive(Debug, Clone)]
pub(crate) struct SectionReader {
    section: Section,
    /// The timestamp of the last record read (0 before the first).
    last: Nanos,
}

impl SectionReader {
    pub(crate) fn new(section: Section) -> Self {
        Self { section, last: 0 }
    }

    /// Reads the timestamp that opens the next record: a delta from the
    /// last one, or a whole `u64` in the fixed-width source section.
    ///
    /// This, `skip_body` and the field readers they call are inlined into
    /// the windowed reader's loops in `bundle_io`: without it, stepping over
    /// the rx and tx records of the 250 ms recording took 10–11 ms instead
    /// of 6–7.
    #[inline(always)]
    pub(crate) fn read_ts(&mut self, buf: &[u8], pos: &mut usize) -> Result<Nanos, EncodeError> {
        let ts = match self.section {
            Section::Source => get_u64(buf, pos)?,
            // The writer stores `ts.wrapping_sub(last)`: a record from before
            // `last` wraps around to a timestamp below it.
            _ => self.last.wrapping_add(get_varint(buf, pos)?),
        };
        if ts < self.last {
            return Err(EncodeError::OutOfOrder {
                section: self.section,
                ts,
                after: self.last,
            });
        }
        self.last = ts;
        Ok(ts)
    }

    /// Reads the rest of the record [`Self::read_ts`] opened and appends it,
    /// stamped `ts`, to `log`. The source section holds flow records like an
    /// exit NF's, and they go to `log.flows` too.
    pub(crate) fn read_body(
        &self,
        buf: &[u8],
        pos: &mut usize,
        ts: Nanos,
        log: &mut NfLog,
    ) -> Result<(), EncodeError> {
        match self.section {
            Section::Rx(_) => log.rx.push(ts, get_ipids(buf, pos)?),
            Section::Tx(_) => {
                let to = get_target(buf, pos)?;
                log.tx.push(ts, to, get_ipids(buf, pos)?);
            }
            Section::Flows(_) | Section::Source => log.flows.push(get_flow(buf, pos, ts)?),
        }
        Ok(())
    }

    /// Steps over the rest of the record [`Self::read_ts`] opened.
    #[inline(always)]
    pub(crate) fn skip_body(&self, buf: &[u8], pos: &mut usize) -> Result<(), EncodeError> {
        match self.section {
            Section::Rx(_) => drop(get_ipids(buf, pos)?),
            Section::Tx(_) => {
                get_target(buf, pos)?;
                drop(get_ipids(buf, pos)?);
            }
            Section::Flows(_) | Section::Source => drop(get_flow(buf, pos, 0)?),
        }
        Ok(())
    }
}

/// Encodes one NF's log. Returns the byte buffer, or
/// [`EncodeError::BatchTooLarge`] if a batch cannot fit its one-byte wire
/// length (the collector's `MAX_BATCH` invariant keeps real logs far below
/// it; the check turns a corrupted log into a typed error instead of a
/// silently truncated length byte).
pub fn encode_nf_log(log: &NfLog) -> Result<Vec<u8>, EncodeError> {
    let mut out = Vec::with_capacity(encoded_capacity(log));
    out.push(VERSION);
    put_u16(&mut out, log.nf.0);

    put_varint(&mut out, log.rx.len() as u64);
    let mut prev_ts = 0u64;
    for b in log.rx.iter() {
        put_varint(&mut out, b.ts.wrapping_sub(prev_ts));
        prev_ts = b.ts;
        put_ipids(&mut out, b.ipids)?;
    }

    put_varint(&mut out, log.tx.len() as u64);
    let mut prev_ts = 0u64;
    for b in log.tx.iter() {
        put_varint(&mut out, b.ts.wrapping_sub(prev_ts));
        prev_ts = b.ts;
        put_u16(&mut out, b.to.map_or(TO_EXIT, |n| n.0));
        put_ipids(&mut out, b.ipids)?;
    }

    put_varint(&mut out, log.flows.len() as u64);
    let mut prev_ts = 0u64;
    for f in &log.flows {
        put_varint(&mut out, f.ts.wrapping_sub(prev_ts));
        prev_ts = f.ts;
        put_u16(&mut out, f.ipid);
        put_tuple(&mut out, &f.flow);
    }
    Ok(out)
}

/// Decodes a log produced by [`encode_nf_log`] straight into the flat
/// columns: its three sections, each read to the end by a [`SectionReader`].
///
/// Every count is checked against the bytes that remain before anything is
/// reserved for it (an rx batch is at least 2 bytes, a tx batch 4, a flow
/// record 16, an IPID 2), so the columns never reserve more than a small
/// multiple of `buf.len()` — 6× for a section of empty batches, ≈ 1.6× for a
/// recorded log — whatever the counts claim.
pub fn decode_nf_log(buf: &[u8]) -> Result<NfLog, EncodeError> {
    // A bundle section's length is a u32; this also keeps every packet
    // count within the columns' u32 `end`.
    if u32::try_from(buf.len()).is_err() {
        return Err(EncodeError::LogTooLarge(buf.len()));
    }
    let mut pos = 0usize;
    let nf = get_log_header(buf, &mut pos)?;
    let mut log = NfLog::new(nf);
    for section in [Section::Rx(nf), Section::Tx(nf), Section::Flows(nf)] {
        let n = get_varint(buf, &mut pos)?;
        let n = count_fits(n, (buf.len() - pos) as u64, section)?;
        // Bytes left once every record has its minimum: IPIDs at 2 each.
        let ipids = (buf.len() - pos - n * section.min_record_bytes()) / 2;
        match section {
            Section::Rx(_) => log.rx = RxLog::with_capacity(n, ipids),
            Section::Tx(_) => log.tx = TxLog::with_capacity(n, ipids),
            Section::Flows(_) | Section::Source => log.flows.reserve_exact(n),
        }
        let mut records = SectionReader::new(section);
        for _ in 0..n {
            let ts = records.read_ts(buf, &mut pos)?;
            records.read_body(buf, &mut pos, ts, &mut log)?;
        }
    }
    log.rx.shrink_to_fit();
    log.tx.shrink_to_fit();
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::MAX_BATCH;

    fn sample_log() -> NfLog {
        let flow = FiveTuple::new(0x64000001, 0x20000001, 2004, 6004, Proto::TCP);
        let mut log = NfLog::new(NfId(3));
        log.rx.push(1_000, 0..MAX_BATCH as u16);
        log.rx.push(2_500, [40, 41]);
        log.tx.push(1_800, Some(NfId(4)), [0, 1, 2]);
        log.tx.push(2_900, None, [40]);
        log.flows.push(FlowRecord {
            ipid: 40,
            flow,
            ts: 2_900,
        });
        log
    }

    #[test]
    fn round_trip() {
        let log = sample_log();
        let bytes = encode_nf_log(&log).unwrap();
        let back = decode_nf_log(&bytes).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn empty_log_round_trips() {
        let log = NfLog::new(NfId(0));
        assert_eq!(decode_nf_log(&encode_nf_log(&log).unwrap()).unwrap(), log);
    }

    /// The shapes a recorder never writes but a decoder must carry: empty
    /// batches in both directions, a batch at the one-byte length limit, and
    /// an NF that read packets and never sent any.
    #[test]
    fn defensive_shapes_round_trip() {
        let mut log = NfLog::new(NfId(7));
        log.rx.push(5, []);
        log.rx.push(9, 0..255);
        log.rx.push(9, []);
        assert_eq!(decode_nf_log(&encode_nf_log(&log).unwrap()).unwrap(), log);
        log.tx.push(11, None, []);
        log.tx.push(12, Some(NfId(0)), 0..255);
        let back = decode_nf_log(&encode_nf_log(&log).unwrap()).unwrap();
        assert_eq!(back, log);
        assert_eq!(back.rx.get(1).len(), 255);
        assert!(back.tx.get(0).is_empty());
    }

    /// A count the rest of the buffer cannot hold is `Truncated` before
    /// anything is reserved for it: these aborted the process (`capacity
    /// overflow`, or a failed 32 TiB allocation) when the count went
    /// straight into `Vec::with_capacity`.
    #[test]
    fn inflated_counts_are_truncation_not_allocation() {
        for count in [1u64 << 62, 1 << 40, u64::MAX, 3] {
            for section in 0..3 {
                // Version, NF id, then empty sections up to the inflated one.
                let mut bytes = vec![VERSION, 1, 0];
                bytes.extend(std::iter::repeat_n(0, section));
                put_varint(&mut bytes, count);
                bytes.extend([0u8; 4]);
                assert_eq!(
                    decode_nf_log(&bytes),
                    Err(EncodeError::Truncated),
                    "count {count} in section {section}"
                );
            }
        }
    }

    #[test]
    fn oversized_batch_rejected() {
        let mut log = NfLog::new(NfId(0));
        log.rx.push(1_000, 0..300u16);
        assert_eq!(encode_nf_log(&log), Err(EncodeError::BatchTooLarge(300)));
    }

    #[test]
    fn interior_nf_is_near_two_bytes_per_packet() {
        // A realistic interior log: full batches, delta timestamps of a few
        // microseconds. Count rx+tx record bytes per packet *appearance*.
        let mut log = NfLog::new(NfId(0));
        let mut ts = 0u64;
        let mut ipid = 0u16;
        for _ in 0..1_000 {
            ts += 17_000; // ~17 µs per 32-batch at 1.9 Mpps
            let first = ipid;
            let ipids = (0..MAX_BATCH as u16).map(move |i| first.wrapping_add(i));
            ipid = ipid.wrapping_add(MAX_BATCH as u16);
            log.rx.push(ts, ipids.clone());
            log.tx.push(ts + 9_000, Some(NfId(1)), ipids);
        }
        let bytes = encode_nf_log(&log).unwrap().len();
        let appearances = 2 * 1_000 * MAX_BATCH; // each packet in one rx and one tx
        let per_packet = bytes as f64 / appearances as f64;
        assert!(
            per_packet < 2.5,
            "interior encoding is {per_packet:.2} B/packet-appearance"
        );
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = encode_nf_log(&sample_log()).unwrap();
        for cut in [0, 1, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_nf_log(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = encode_nf_log(&sample_log()).unwrap();
        bytes[0] = 99;
        assert_eq!(decode_nf_log(&bytes), Err(EncodeError::BadVersion(99)));
    }

    #[test]
    fn varint_boundaries() {
        let mut out = Vec::new();
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            out.clear();
            put_varint(&mut out, v);
            let mut pos = 0;
            assert_eq!(get_varint(&out, &mut pos).unwrap(), v);
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn malformed_varint_rejected() {
        // 11 continuation bytes: shift overflows.
        let buf = vec![0x80u8; 11];
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos), Err(EncodeError::BadVarint));
    }
}
