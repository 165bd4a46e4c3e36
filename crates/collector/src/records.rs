//! Record formats — the runtime data of Table 1 of the paper.
//!
//! Batches are stored flat: an NF's reads are one [`RxLog`] — a timestamp
//! and a cumulative packet count per batch, and every batch's IPIDs back to
//! back in one column — and its writes one [`TxLog`] with the target beside
//! them. A batch is read as a borrowed [`RxBatch`] / [`TxBatch`] view; no
//! batch owns memory, so a log costs a handful of allocations however many
//! batches it holds, and dropping it returns whole mappings to the OS.

use nf_types::{FiveTuple, Ipid, Nanos, NfId};

/// The DPDK maximum receive batch size. A received batch smaller than this
/// means the input queue was drained empty — the signal the offline analysis
/// uses to segment queuing periods (§5).
pub const MAX_BATCH: usize = 32;

/// What the collector knows about one packet on the hot path.
///
/// The full five-tuple is available in the packet header but is *recorded*
/// only where [`crate::Collector`] is configured to keep flow info (exit NFs
/// and the source); everywhere else only the IPID is kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketMeta {
    /// IP identification field.
    pub ipid: Ipid,
    /// Exact flow key (recorded only at flow-info points).
    pub flow: FiveTuple,
}

/// One batch read from an input queue: "timestamps when an NF reads a batch
/// of packets" plus "the batch size" (Table 1). A view into an [`RxLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxBatch<'a> {
    /// Time the NF read the batch.
    pub ts: Nanos,
    /// IPIDs of the packets in the batch, in queue order.
    pub ipids: &'a [Ipid],
}

impl RxBatch<'_> {
    /// Batch size.
    pub fn len(&self) -> usize {
        self.ipids.len()
    }

    /// True for a zero-size poll (we do not record those, but decoding can
    /// produce them defensively).
    pub fn is_empty(&self) -> bool {
        self.ipids.is_empty()
    }

    /// Did this read drain the queue? (§5: batch < max ⇒ queue cleared.)
    pub fn drained_queue(&self) -> bool {
        self.ipids.len() < MAX_BATCH
    }
}

/// One batch written towards a downstream NF. A view into a [`TxLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxBatch<'a> {
    /// Time the NF wrote the batch.
    pub ts: Nanos,
    /// The downstream NF the batch was sent to, or `None` when the packets
    /// leave the NF graph (exit NF output).
    pub to: Option<NfId>,
    /// IPIDs of the packets in the batch, in wire order.
    pub ipids: &'a [Ipid],
}

impl TxBatch<'_> {
    /// Batch size.
    pub fn len(&self) -> usize {
        self.ipids.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.ipids.is_empty()
    }
}

/// The read batches of one NF, in record order, as flat columns.
///
/// Invariant: `ts` and `end` have one entry per batch, `end` is
/// nondecreasing and its last entry is `ipids.len()` — batch `i` is
/// `ipids[end[i - 1]..end[i]]`. Packet counts are `u32`: a log section's
/// byte length is a `u32` on the wire, so no decodable log holds more.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RxLog {
    ts: Vec<Nanos>,
    end: Vec<u32>,
    ipids: Vec<Ipid>,
}

impl RxLog {
    /// A log with room for `batches` batches holding `packets` packets.
    pub(crate) fn with_capacity(batches: usize, packets: usize) -> Self {
        Self {
            ts: Vec::with_capacity(batches),
            end: Vec::with_capacity(batches),
            ipids: Vec::with_capacity(packets),
        }
    }

    /// Number of batches.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// True when no batch was recorded.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Number of packets over all batches.
    pub fn packets(&self) -> usize {
        self.ipids.len()
    }

    /// Appends a batch.
    ///
    /// # Panics
    /// Panics if the log would hold more than `u32::MAX` packets.
    pub fn push(&mut self, ts: Nanos, ipids: impl IntoIterator<Item = Ipid>) {
        self.ipids.extend(ipids);
        assert!(
            u32::try_from(self.ipids.len()).is_ok(),
            "a log's packet count must fit u32"
        );
        self.ts.push(ts);
        // lint: lossy-cast-ok(guarded by the assert above)
        self.end.push(self.ipids.len() as u32);
    }

    /// Batch `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> RxBatch<'_> {
        let start = if i == 0 { 0 } else { self.end[i - 1] };
        RxBatch {
            ts: self.ts[i],
            ipids: &self.ipids[start as usize..self.end[i] as usize],
        }
    }

    /// The batches in record order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = RxBatch<'_>> + Clone {
        let mut start = 0usize;
        self.ts.iter().zip(&self.end).map(move |(&ts, &end)| {
            let ipids = &self.ipids[start..end as usize];
            start = end as usize;
            RxBatch { ts, ipids }
        })
    }

    /// The batch timestamps, one per batch.
    pub fn ts(&self) -> &[Nanos] {
        &self.ts
    }

    /// The batch timestamps, for rewriting a log onto another clock.
    pub fn ts_mut(&mut self) -> &mut [Nanos] {
        &mut self.ts
    }

    /// Every packet's IPID, batch after batch, for rewriting (the
    /// IPID-width ablation).
    pub fn ipids_mut(&mut self) -> &mut [Ipid] {
        &mut self.ipids
    }

    /// Gives the unused tail of every column back.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.ts.shrink_to_fit();
        self.end.shrink_to_fit();
        self.ipids.shrink_to_fit();
    }
}

/// The write batches of one NF, in record order: an [`RxLog`]'s columns
/// plus the target of every batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxLog {
    batches: RxLog,
    to: Vec<Option<NfId>>,
}

impl TxLog {
    /// A log with room for `batches` batches holding `packets` packets.
    pub(crate) fn with_capacity(batches: usize, packets: usize) -> Self {
        Self {
            batches: RxLog::with_capacity(batches, packets),
            to: Vec::with_capacity(batches),
        }
    }

    /// Number of batches.
    pub fn len(&self) -> usize {
        self.to.len()
    }

    /// True when no batch was recorded.
    pub fn is_empty(&self) -> bool {
        self.to.is_empty()
    }

    /// Number of packets over all batches.
    pub fn packets(&self) -> usize {
        self.batches.packets()
    }

    /// Appends a batch sent to `to` (`None` = leaves the graph).
    ///
    /// # Panics
    /// Panics if the log would hold more than `u32::MAX` packets.
    pub fn push(&mut self, ts: Nanos, to: Option<NfId>, ipids: impl IntoIterator<Item = Ipid>) {
        self.batches.push(ts, ipids);
        self.to.push(to);
    }

    /// Batch `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> TxBatch<'_> {
        let b = self.batches.get(i);
        TxBatch {
            ts: b.ts,
            to: self.to[i],
            ipids: b.ipids,
        }
    }

    /// The batches in record order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = TxBatch<'_>> + Clone {
        self.batches.iter().zip(&self.to).map(|(b, &to)| TxBatch {
            ts: b.ts,
            to,
            ipids: b.ipids,
        })
    }

    /// The batch timestamps, one per batch.
    pub fn ts(&self) -> &[Nanos] {
        self.batches.ts()
    }

    /// The batch timestamps, for rewriting a log onto another clock.
    pub fn ts_mut(&mut self) -> &mut [Nanos] {
        self.batches.ts_mut()
    }

    /// Every packet's IPID, batch after batch, for rewriting (the
    /// IPID-width ablation).
    pub fn ipids_mut(&mut self) -> &mut [Ipid] {
        self.batches.ipids_mut()
    }

    /// Gives the unused tail of every column back.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.batches.shrink_to_fit();
        self.to.shrink_to_fit();
    }
}

/// Five-tuple record kept at flow-info points (exit NFs / source), in
/// emission order so it can be zipped with the IPID stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRecord {
    /// IPID of the packet.
    pub ipid: Ipid,
    /// Its exact flow key.
    pub flow: FiveTuple,
    /// When it was seen at the flow-info point.
    pub ts: Nanos,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rx_batch_drained_signal() {
        let mut log = RxLog::default();
        log.push(0, vec![0; MAX_BATCH]);
        log.push(0, vec![0; MAX_BATCH - 1]);
        assert!(!log.get(0).drained_queue());
        assert!(log.get(1).drained_queue());
    }

    #[test]
    fn batch_lengths() {
        let mut log = TxLog::default();
        log.push(1, Some(NfId(2)), [1, 2, 3]);
        let b = log.get(0);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.to, Some(NfId(2)));
    }

    /// Views at the column seams: the first batch starts at 0 without an
    /// `end[-1]`, the last one ends at the column's end, an empty batch in
    /// the middle is an empty slice, and an empty log yields no batch.
    #[test]
    fn batch_views_at_the_column_seams() {
        let empty = RxLog::default();
        assert!(empty.is_empty());
        assert_eq!(empty.iter().len(), 0);
        assert_eq!(TxLog::default().iter().len(), 0);

        let mut rx = RxLog::default();
        rx.push(10, [1, 2]);
        rx.push(20, []);
        rx.push(30, [3]);
        assert_eq!((rx.len(), rx.packets()), (3, 3));
        assert_eq!(rx.get(0).ipids, [1, 2]);
        assert!(rx.get(1).is_empty());
        assert_eq!(rx.get(2).ipids, [3]);
        let walked: Vec<RxBatch<'_>> = rx.iter().collect();
        assert_eq!(walked, [rx.get(0), rx.get(1), rx.get(2)]);

        let mut tx = TxLog::default();
        tx.push(10, None, [7]);
        tx.push(20, Some(NfId(1)), [8, 9]);
        assert_eq!(tx.get(1).ipids, [8, 9]);
        assert_eq!(tx.iter().last().unwrap(), tx.get(1));
        assert_eq!(tx.ts(), [10, 20]);
        assert_eq!(tx.ipids_mut(), [7, 8, 9]);
    }
}
