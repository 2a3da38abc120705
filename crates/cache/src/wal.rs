//! The host-DMA write-ahead intent log (DESIGN.md §13).
//!
//! PR 4's write-back cache acknowledges buffered writes the moment they
//! land in host cache pages — if the DPU then dies, every
//! acknowledged-but-unflushed page dies with it. Following NVLog's
//! transparent WAL placement, the fix is a small ring-structured intent
//! log living in a [`HostRegion`]: host memory by construction survives a
//! DPU restart, and the DPU appends to it through its [`DmaEngine`] (so
//! the PCIe cost of logging is accounted like every other crossing).
//!
//! **Ordering rule (write-ahead):** the record for a mutation is appended
//! *before* the mutation touches the cache or the store. An acknowledged
//! op therefore always has a complete record; an op whose append died
//! mid-record was never acknowledged, and dropping its torn record on
//! recovery is exactly correct.
//!
//! **Pure redo:** *every* data-plane mutation is logged with its payload
//! — buffered writes, write-through and direct-mode writes, vectored
//! writes, truncates — and recovery replays the ring *positionally*, from
//! the tail word to the head word, in sequence order. Records are retired
//! out of order as their bytes become durable (extent flushes,
//! deliberate invalidations), but the tail only advances past a
//! fully-retired *prefix*; anything between tail and head — retired or
//! not — is replayed. Re-applying an already-durable record is idempotent
//! redo; skipping that rule (replaying only "live" records) would let an
//! earlier live write clobber a later, already-reclaimed overlapping
//! write. Positional replay makes that impossible: a later record is
//! physically behind the tail bound set by any earlier live one.
//!
//! **Torn-tail rule:** each record carries a CRC32C over its header and
//! payload. The recovery scan stops at the first record that fails CRC,
//! sequence-monotonicity, epoch or bounds validation — by the write-ahead
//! rule that record's op was never acknowledged, so the drop loses
//! nothing the host was promised.
//!
//! Appends are host-visible through six counters surfaced in
//! [`CacheStats`](crate::CacheStats); all six are zero when no log is
//! attached (the WAL-off dormancy proof).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpc_codec::crc32c;
use dpc_pcie::{DmaEngine, HostRegion};
use dpc_sim::CrashSwitch;
use parking_lot::Mutex;

/// Region header bytes preceding the record ring.
pub const WAL_HEADER: usize = 64;
/// Fixed record header: seq u64, ino u64, offset u64, len u32, epoch u32,
/// kind u32, crc u32.
pub const REC_HEADER: usize = 40;

const MAGIC: u64 = 0x4450_4357_414c_3038; // "DPCWAL08"
const OFF_MAGIC: usize = 0;
const OFF_CAP: usize = 8;
const OFF_EPOCH: usize = 16;
const OFF_HEAD: usize = 24;
const OFF_TAIL: usize = 32;

/// What a record describes.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum WalKind {
    /// A data write of `len` payload bytes at `(ino, offset)`.
    Write = 0,
    /// A truncate of `ino` to size `offset` (no payload).
    Truncate = 1,
    /// A reclaim checkpoint: the tail word advanced to `offset`. Skipped
    /// on replay; exists so the on-ring history records every reclaim.
    Checkpoint = 2,
}

impl WalKind {
    fn from_u32(v: u32) -> Option<WalKind> {
        match v {
            0 => Some(WalKind::Write),
            1 => Some(WalKind::Truncate),
            2 => Some(WalKind::Checkpoint),
            _ => None,
        }
    }
}

/// Why an append did not happen.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum WalError {
    /// The ring has no room until flushed records retire — the caller
    /// should force a flush (back-pressure, not data loss) and retry.
    WouldBlock,
    /// The record can never fit this ring (payload too large).
    TooLarge,
    /// The DPU crashed (possibly mid-append, leaving a torn record).
    Crashed,
}

/// One decoded record from a recovery scan.
#[derive(Clone, Debug)]
pub struct WalRecord {
    pub seq: u64,
    pub ino: u64,
    pub offset: u64,
    pub kind: WalKind,
    pub payload: Vec<u8>,
}

/// Result of scanning a surviving log region.
pub struct WalScan {
    /// Valid, replayable records (checkpoints excluded) in seq order.
    pub records: Vec<WalRecord>,
    /// The epoch the surviving log was written under.
    pub epoch: u32,
    /// 1 if the scan stopped at a torn/corrupt tail record, else 0.
    pub torn: u64,
}

/// Point-in-time WAL counters, merged into [`CacheStats`].
#[derive(Copy, Clone, Default, Debug)]
pub struct WalStats {
    pub appends: u64,
    pub bytes: u64,
    pub checkpoints: u64,
    pub replayed: u64,
    pub torn_drops: u64,
    pub stalls: u64,
}

/// One live (not fully retired) record's bookkeeping.
struct LiveRec {
    /// Monotonic ring position of the record's first byte.
    pos: u64,
    /// Durability obligations left: pages not yet flushed/acked. The
    /// record is retired (eligible for prefix reclaim) at zero.
    remaining: u32,
}

struct WalInner {
    /// Monotonic append frontier (byte position; ring offset = pos % cap).
    head: u64,
    /// Monotonic reclaim frontier: first byte recovery must replay from.
    tail: u64,
    next_seq: u64,
    /// Live records ordered by seq — which, with a single appender, is
    /// also ring-position order, so the first entry bounds the tail.
    live: BTreeMap<u64, LiveRec>,
    /// Which live records' bytes each dirty page carries: populated at
    /// `commit_dirty` time (under the entry write lock), consumed when
    /// the page durably lands (under the entry read lock) — the entry
    /// lock protocol orders the two, this map just records them.
    owers: HashMap<(u64, u64), Vec<u64>>,
}

/// The ring-structured intent log. One per `Dpc` instance, shared between
/// the host adapter (appends before ack, commit bookkeeping) and the DPU
/// control plane (durability retirement, checkpointing).
pub struct IntentLog {
    region: HostRegion,
    dma: DmaEngine,
    crash: Option<Arc<CrashSwitch>>,
    /// Ring capacity in bytes (region length minus [`WAL_HEADER`]).
    cap: u64,
    epoch: u32,
    inner: Mutex<WalInner>,
    appends: AtomicU64,
    bytes: AtomicU64,
    checkpoints: AtomicU64,
    replayed: AtomicU64,
    torn_drops: AtomicU64,
    stalls: AtomicU64,
}

impl IntentLog {
    /// Initialise `region` as a fresh (empty) log under `epoch` and
    /// return the handle. Overwrites whatever the region held — recovery
    /// must [`scan`](Self::scan) *first*, then `create` with the bumped
    /// epoch.
    pub fn create(
        region: HostRegion,
        dma: DmaEngine,
        crash: Option<Arc<CrashSwitch>>,
        epoch: u32,
    ) -> Arc<IntentLog> {
        assert!(
            region.len() > WAL_HEADER + REC_HEADER,
            "WAL region too small: {} bytes",
            region.len()
        );
        let cap = (region.len() - WAL_HEADER) as u64;
        dma.dma_write(&region, OFF_MAGIC, &MAGIC.to_le_bytes());
        dma.dma_write(&region, OFF_CAP, &cap.to_le_bytes());
        dma.dma_write(&region, OFF_EPOCH, &epoch.to_le_bytes());
        dma.dma_write(&region, OFF_HEAD, &0u64.to_le_bytes());
        dma.dma_write(&region, OFF_TAIL, &0u64.to_le_bytes());
        Arc::new(IntentLog {
            region,
            dma,
            crash,
            cap,
            epoch,
            inner: Mutex::new(WalInner {
                head: 0,
                tail: 0,
                next_seq: 1,
                live: BTreeMap::new(),
                owers: HashMap::new(),
            }),
            appends: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            torn_drops: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
        })
    }

    pub fn region(&self) -> &HostRegion {
        &self.region
    }

    pub fn capacity(&self) -> u64 {
        self.cap
    }

    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Bytes between tail and head (what recovery would replay).
    pub fn ring_used(&self) -> u64 {
        let inner = self.inner.lock();
        inner.head - inner.tail
    }

    /// Whether every record has been retired *and* reclaimed — the only
    /// state in which an unlogged durable write is safe (nothing replays).
    pub fn is_drained(&self) -> bool {
        let inner = self.inner.lock();
        inner.live.is_empty() && inner.head == inner.tail
    }

    pub fn stats(&self) -> WalStats {
        WalStats {
            appends: self.appends.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            replayed: self.replayed.load(Ordering::Relaxed),
            torn_drops: self.torn_drops.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
        }
    }

    /// Count records re-applied by recovery (shown as
    /// `wal_replayed_records`).
    pub fn add_replayed(&self, n: u64) {
        self.replayed.fetch_add(n, Ordering::Relaxed);
    }

    /// Count torn-tail records dropped by the recovery scan.
    pub fn add_torn(&self, n: u64) {
        self.torn_drops.fetch_add(n, Ordering::Relaxed);
    }

    // ---- append path ---------------------------------------------------

    /// Append one intent record *before* its mutation is applied.
    ///
    /// `obligations` is how many durability events must retire the record
    /// (pages spanned for a buffered write; 1 for ops durable at ack).
    /// Returns the record's sequence number.
    ///
    /// The append protocol makes every crash point recoverable:
    /// the head word is DMA'd first (reserving the space), then the
    /// header, then the payload — a crash between any two steps leaves a
    /// reserved-but-torn record that recovery's CRC check drops, which is
    /// correct because this function never returned and the op was never
    /// acknowledged.
    pub fn try_append(
        &self,
        kind: WalKind,
        ino: u64,
        offset: u64,
        payload: &[u8],
        obligations: u32,
    ) -> Result<u64, WalError> {
        let rec_len = (REC_HEADER + payload.len()) as u64;
        if rec_len > self.cap {
            return Err(WalError::TooLarge);
        }
        let mut inner = self.inner.lock();
        // Injection point: the DPU dies before touching the ring.
        if self.check_crash() {
            return Err(WalError::Crashed);
        }
        if inner.head + rec_len - inner.tail > self.cap {
            self.stalls.fetch_add(1, Ordering::Relaxed);
            return Err(WalError::WouldBlock);
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let pos = inner.head;
        inner.head += rec_len;
        // Step 1: reserve — recovery will consider bytes up to the new
        // head word.
        self.dma
            .dma_write(&self.region, OFF_HEAD, &inner.head.to_le_bytes());
        // Injection point: reserved, nothing written — a torn record of
        // garbage that recovery drops at the CRC check.
        if self.check_crash() {
            return Err(WalError::Crashed);
        }
        // Step 2: the record header.
        let header = self.encode_header(seq, ino, offset, payload, kind);
        self.write_ring(pos, &header);
        // Injection point: header landed, payload did not — CRC over the
        // missing payload fails on recovery.
        if self.check_crash() {
            return Err(WalError::Crashed);
        }
        // Step 3: the payload.
        if !payload.is_empty() {
            self.write_ring(pos + REC_HEADER as u64, payload);
        }
        if obligations > 0 {
            inner.live.insert(
                seq,
                LiveRec {
                    pos,
                    remaining: obligations,
                },
            );
        } else {
            // A zero-obligation record (checkpoint) retires instantly;
            // the tail may sweep it whenever it reaches it.
        }
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(rec_len, Ordering::Relaxed);
        Ok(seq)
    }

    fn encode_header(
        &self,
        seq: u64,
        ino: u64,
        offset: u64,
        payload: &[u8],
        kind: WalKind,
    ) -> [u8; REC_HEADER] {
        let mut h = [0u8; REC_HEADER];
        h[0..8].copy_from_slice(&seq.to_le_bytes());
        h[8..16].copy_from_slice(&ino.to_le_bytes());
        h[16..24].copy_from_slice(&offset.to_le_bytes());
        h[24..28].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        h[28..32].copy_from_slice(&self.epoch.to_le_bytes());
        h[32..36].copy_from_slice(&(kind as u32).to_le_bytes());
        // CRC over the header with the crc field zeroed, then the payload.
        let mut crc = crc32c(&h[..36]);
        if !payload.is_empty() {
            crc ^= crc32c(payload);
        }
        h[36..40].copy_from_slice(&crc.to_le_bytes());
        h
    }

    /// DMA `bytes` into the ring at monotonic position `pos`, splitting
    /// at the wrap point when needed.
    fn write_ring(&self, pos: u64, bytes: &[u8]) {
        let off = (pos % self.cap) as usize;
        let first = bytes.len().min(self.cap as usize - off);
        self.dma
            .dma_write(&self.region, WAL_HEADER + off, &bytes[..first]);
        if first < bytes.len() {
            self.dma
                .dma_write(&self.region, WAL_HEADER, &bytes[first..]);
        }
    }

    fn check_crash(&self) -> bool {
        self.crash.as_ref().is_some_and(|c| c.check_crash())
    }

    /// Whether the DPU behind this log has crashed (appends will refuse).
    pub fn crashed(&self) -> bool {
        self.crash.as_ref().is_some_and(|c| c.is_tripped())
    }

    // ---- retirement / reclaim ------------------------------------------

    /// Record that page `(ino, lpn)` now carries record `seq`'s bytes
    /// (called just before `commit_dirty`, under the entry write lock).
    pub fn note_committed(&self, ino: u64, lpn: u64, seq: u64) {
        let mut inner = self.inner.lock();
        if inner.live.contains_key(&seq) {
            inner.owers.entry((ino, lpn)).or_default().push(seq);
        }
    }

    /// Page `(ino, lpn)` was deliberately dropped (invalidate): every
    /// record it carried sheds one obligation. A flushed run sheds them
    /// through [`note_durable_run`](Self::note_durable_run).
    pub fn note_durable(&self, ino: u64, lpn: u64) {
        let mut inner = self.inner.lock();
        if let Some(seqs) = inner.owers.remove(&(ino, lpn)) {
            for seq in seqs {
                Self::dec_obligation(&mut inner, seq);
            }
            self.advance_tail(&mut inner);
        }
    }

    /// [`note_durable`](Self::note_durable) over a run of `n` adjacent
    /// pages (the coalesced-extent flush success path).
    pub fn note_durable_run(&self, ino: u64, start_lpn: u64, n: usize) {
        let mut inner = self.inner.lock();
        let mut any = false;
        for k in 0..n as u64 {
            if let Some(seqs) = inner.owers.remove(&(ino, start_lpn + k)) {
                for seq in seqs {
                    Self::dec_obligation(&mut inner, seq);
                }
                any = true;
            }
        }
        if any {
            self.advance_tail(&mut inner);
        }
    }

    /// One page of record `seq` became durable without a cache commit
    /// (the write-through fallback, or a replay bypass straight to the
    /// store).
    pub fn retire_page(&self, seq: u64) {
        let mut inner = self.inner.lock();
        Self::dec_obligation(&mut inner, seq);
        self.advance_tail(&mut inner);
    }

    /// Record `seq`'s op was durably acknowledged whole (direct-mode and
    /// vectored writes, truncates — all applied straight at the store).
    pub fn retire_all(&self, seq: u64) {
        let mut inner = self.inner.lock();
        if let Some(rec) = inner.live.get_mut(&seq) {
            rec.remaining = 0;
            inner.live.remove(&seq);
            self.advance_tail(&mut inner);
        }
    }

    /// Every remaining obligation of `ino` is void (the file was
    /// unlinked / its cache residency invalidated wholesale).
    pub fn drop_ino(&self, ino: u64) {
        let mut inner = self.inner.lock();
        let keys: Vec<(u64, u64)> = inner.owers.keys().filter(|k| k.0 == ino).copied().collect();
        if keys.is_empty() {
            return;
        }
        for key in keys {
            if let Some(seqs) = inner.owers.remove(&key) {
                for seq in seqs {
                    Self::dec_obligation(&mut inner, seq);
                }
            }
        }
        self.advance_tail(&mut inner);
    }

    fn dec_obligation(inner: &mut WalInner, seq: u64) {
        if let Some(rec) = inner.live.get_mut(&seq) {
            rec.remaining = rec.remaining.saturating_sub(1);
            if rec.remaining == 0 {
                inner.live.remove(&seq);
            }
        }
    }

    /// Advance the tail past the retired prefix: the new tail is the
    /// oldest live record's position (or the head when nothing is live).
    /// Each advance persists the tail word and emits a checkpoint record
    /// documenting the reclaim.
    fn advance_tail(&self, inner: &mut WalInner) {
        let new_tail = inner
            .live
            .values()
            .next()
            .map(|rec| rec.pos)
            .unwrap_or(inner.head);
        if new_tail == inner.tail {
            return;
        }
        inner.tail = new_tail;
        // Persist the reclaim *first* — the freed space must be visible
        // before anything (including the checkpoint below) reuses it.
        self.dma
            .dma_write(&self.region, OFF_TAIL, &inner.tail.to_le_bytes());
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        // Emit the checkpoint record when it fits; it carries no
        // obligations, so the next advance sweeps it.
        let rec_len = REC_HEADER as u64;
        if inner.head + rec_len - inner.tail <= self.cap && !self.crashed() {
            let seq = inner.next_seq;
            inner.next_seq += 1;
            let pos = inner.head;
            inner.head += rec_len;
            self.dma
                .dma_write(&self.region, OFF_HEAD, &inner.head.to_le_bytes());
            let header = self.encode_header(seq, 0, inner.tail, &[], WalKind::Checkpoint);
            self.write_ring(pos, &header);
            self.bytes.fetch_add(rec_len, Ordering::Relaxed);
            if inner.live.is_empty() {
                // Nothing live: the checkpoint itself (zero obligations)
                // is the whole ring — sweep the tail past it so a fully
                // retired log reads as drained and replays nothing.
                inner.tail = inner.head;
                self.dma
                    .dma_write(&self.region, OFF_TAIL, &inner.tail.to_le_bytes());
            }
        }
    }

    // ---- recovery ------------------------------------------------------

    /// Scan a surviving log region: walk the ring from the persisted tail
    /// word to the head word, validating every record (bounds, epoch,
    /// sequence monotonicity, CRC32C) with *fallible* region reads — a
    /// corrupt length can point anywhere, and must stop the scan, not
    /// panic it. Returns the replayable records in order; the first
    /// invalid record ends the scan as a torn tail.
    pub fn scan(region: &HostRegion) -> WalScan {
        let mut failed = WalScan {
            records: Vec::new(),
            epoch: 0,
            torn: 1,
        };
        let mut word8 = [0u8; 8];
        let mut word4 = [0u8; 4];
        if region.try_read_local(OFF_MAGIC, &mut word8).is_err()
            || u64::from_le_bytes(word8) != MAGIC
        {
            return failed;
        }
        if region.try_read_local(OFF_CAP, &mut word8).is_err() {
            return failed;
        }
        let cap = u64::from_le_bytes(word8);
        if cap == 0 || cap != (region.len() - WAL_HEADER) as u64 {
            return failed;
        }
        if region.try_read_local(OFF_EPOCH, &mut word4).is_err() {
            return failed;
        }
        let epoch = u32::from_le_bytes(word4);
        failed.epoch = epoch;
        if region.try_read_local(OFF_HEAD, &mut word8).is_err() {
            return failed;
        }
        let head = u64::from_le_bytes(word8);
        if region.try_read_local(OFF_TAIL, &mut word8).is_err() {
            return failed;
        }
        let tail = u64::from_le_bytes(word8);
        if tail > head || head - tail > cap {
            return failed;
        }

        let read_ring = |pos: u64, out: &mut [u8]| -> bool {
            let off = (pos % cap) as usize;
            let first = out.len().min(cap as usize - off);
            if region
                .try_read_local(WAL_HEADER + off, &mut out[..first])
                .is_err()
            {
                return false;
            }
            if first < out.len()
                && region
                    .try_read_local(WAL_HEADER, &mut out[first..])
                    .is_err()
            {
                return false;
            }
            true
        };

        let mut records = Vec::new();
        let mut torn = 0u64;
        let mut pos = tail;
        let mut last_seq = 0u64;
        while pos < head {
            if head - pos < REC_HEADER as u64 {
                torn = 1; // trailing sliver cannot hold a header
                break;
            }
            let mut h = [0u8; REC_HEADER];
            if !read_ring(pos, &mut h) {
                torn = 1;
                break;
            }
            let seq = u64::from_le_bytes(h[0..8].try_into().unwrap_or_default());
            let ino = u64::from_le_bytes(h[8..16].try_into().unwrap_or_default());
            let offset = u64::from_le_bytes(h[16..24].try_into().unwrap_or_default());
            let len = u32::from_le_bytes(h[24..28].try_into().unwrap_or_default()) as u64;
            let rec_epoch = u32::from_le_bytes(h[28..32].try_into().unwrap_or_default());
            let kind_raw = u32::from_le_bytes(h[32..36].try_into().unwrap_or_default());
            let crc = u32::from_le_bytes(h[36..40].try_into().unwrap_or_default());
            let kind = WalKind::from_u32(kind_raw);
            let end = pos + REC_HEADER as u64 + len;
            if rec_epoch != epoch
                || kind.is_none()
                || end > head
                || (last_seq > 0 && seq <= last_seq)
            {
                torn = 1;
                break;
            }
            let mut payload = vec![0u8; len as usize];
            if !read_ring(pos + REC_HEADER as u64, &mut payload) {
                torn = 1;
                break;
            }
            let mut expect = {
                let mut hz = h;
                hz[36..40].fill(0);
                crc32c(&hz[..36])
            };
            if !payload.is_empty() {
                expect ^= crc32c(&payload);
            }
            if expect != crc {
                torn = 1;
                break;
            }
            last_seq = seq;
            pos = end;
            if let Some(kind) = kind {
                if kind != WalKind::Checkpoint {
                    records.push(WalRecord {
                        seq,
                        ino,
                        offset,
                        kind,
                        payload,
                    });
                }
            }
        }
        WalScan {
            records,
            epoch,
            torn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::PAGE_SIZE;
    use dpc_sim::{FaultPlan, FaultSpec};

    fn fresh(ring_bytes: usize) -> Arc<IntentLog> {
        IntentLog::create(
            HostRegion::new(WAL_HEADER + ring_bytes),
            DmaEngine::new(),
            None,
            1,
        )
    }

    #[test]
    fn append_scan_round_trip() {
        let log = fresh(4096);
        let s1 = log.try_append(WalKind::Write, 7, 0, b"hello", 1).unwrap();
        let s2 = log.try_append(WalKind::Truncate, 7, 3, &[], 1).unwrap();
        assert!(s2 > s1);
        let scan = IntentLog::scan(log.region());
        assert_eq!(scan.torn, 0);
        assert_eq!(scan.epoch, 1);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].payload, b"hello");
        assert_eq!(scan.records[1].kind, WalKind::Truncate);
        assert_eq!(scan.records[1].offset, 3);
        let st = log.stats();
        assert_eq!(st.appends, 2);
        assert!(st.bytes >= (2 * REC_HEADER + 5) as u64);
    }

    #[test]
    fn retirement_advances_tail_and_checkpoints() {
        let log = fresh(4096);
        let seq = log
            .try_append(WalKind::Write, 1, 0, &[0xAA; 100], 1)
            .unwrap();
        log.note_committed(1, 0, seq);
        assert!(!log.is_drained());
        log.note_durable(1, 0);
        assert!(log.is_drained(), "retired prefix reclaims to head");
        assert_eq!(log.stats().checkpoints, 1);
        // Nothing left between tail and head: scan replays nothing.
        let scan = IntentLog::scan(log.region());
        assert_eq!(scan.records.len(), 0);
        assert_eq!(scan.torn, 0);
    }

    #[test]
    fn reclaim_is_prefix_ordered() {
        let log = fresh(4096);
        let s1 = log.try_append(WalKind::Write, 1, 0, &[1; 64], 1).unwrap();
        let s2 = log
            .try_append(WalKind::Write, 1, 1 << 13, &[2; 64], 1)
            .unwrap();
        log.note_committed(1, 0, s1);
        log.note_committed(1, 1, s2);
        // Retire the LATER record first: tail must not move past s1.
        log.note_durable(1, 1);
        let used_before = log.ring_used();
        assert!(used_before > 0, "s1 still pins the tail");
        // Both records (even the retired s2) still replay — positional.
        assert_eq!(IntentLog::scan(log.region()).records.len(), 2);
        log.note_durable(1, 0);
        assert!(log.is_drained());
    }

    #[test]
    fn ring_full_stalls_then_wraps_after_reclaim() {
        let ring = 1024;
        let log = fresh(ring);
        let payload = vec![3u8; 200];
        let mut seqs = Vec::new();
        loop {
            match log.try_append(WalKind::Write, 9, 0, &payload, 1) {
                Ok(seq) => {
                    log.note_committed(9, seqs.len() as u64, seq);
                    seqs.push(seq);
                }
                Err(WalError::WouldBlock) => break,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(log.stats().stalls >= 1);
        assert!(seqs.len() >= 3);
        // Drain everything, then the ring must accept (wrapped) appends.
        for (lpn, _) in seqs.iter().enumerate() {
            log.note_durable(9, lpn as u64);
        }
        assert!(log.is_drained());
        for k in 0..8 {
            log.try_append(WalKind::Write, 9, k, &payload, 1)
                .map(|seq| log.note_committed(9, 100 + k, seq))
                .unwrap();
            log.note_durable(9, 100 + k);
        }
        let st = log.stats();
        assert!(st.checkpoints >= 1);
    }

    #[test]
    fn oversized_record_is_rejected() {
        let log = fresh(256);
        assert_eq!(
            log.try_append(WalKind::Write, 1, 0, &[0; 512], 1),
            Err(WalError::TooLarge)
        );
    }

    #[test]
    fn torn_tail_is_detected_and_dropped() {
        let log = fresh(4096);
        log.try_append(WalKind::Write, 1, 0, &[7; 128], 1).unwrap();
        let s2 = log.try_append(WalKind::Write, 1, PAGE_SIZE as u64, &[8; 128], 1);
        s2.unwrap();
        // Corrupt one payload byte of the SECOND record.
        let second_payload_off = WAL_HEADER + (REC_HEADER + 128) + REC_HEADER + 5;
        let mut b = [0u8; 1];
        log.region().read_local(second_payload_off, &mut b);
        log.region().write_local(second_payload_off, &[b[0] ^ 0xFF]);
        let scan = IntentLog::scan(log.region());
        assert_eq!(scan.torn, 1, "corrupt record stops the scan");
        assert_eq!(scan.records.len(), 1, "records before the tear survive");
        assert_eq!(scan.records[0].payload, vec![7; 128]);
    }

    #[test]
    fn crash_mid_append_leaves_a_torn_tail() {
        let plan = FaultPlan::new(1);
        // Third crash-check fires: first append survives (checks 1–2 pass
        // for entry+reserve... each append draws up to 3 checks), so pick
        // the draw that lands mid-record for the second append.
        let crash = Arc::new(dpc_sim::CrashSwitch::armed_by(
            plan.arm("dpu.crash", FaultSpec::nth(5)),
        ));
        let log = IntentLog::create(
            HostRegion::new(WAL_HEADER + 4096),
            DmaEngine::new(),
            Some(crash.clone()),
            1,
        );
        // Append 1: draws checks 1,2,3 — none fire.
        log.try_append(WalKind::Write, 1, 0, &[1; 64], 1).unwrap();
        // Append 2: draws 4 (entry), 5 (post-reserve) — fires mid-append.
        let err = log.try_append(WalKind::Write, 1, 8192, &[2; 64], 1);
        assert_eq!(err, Err(WalError::Crashed));
        assert!(crash.is_tripped());
        // Further appends refuse outright.
        assert_eq!(
            log.try_append(WalKind::Write, 1, 0, &[3; 8], 1),
            Err(WalError::Crashed)
        );
        let scan = IntentLog::scan(log.region());
        assert_eq!(scan.records.len(), 1, "only the acked append replays");
        assert_eq!(scan.torn, 1, "reserved-but-unwritten space is torn");
    }

    #[test]
    fn fresh_epoch_ignores_prior_generation() {
        let region = HostRegion::new(WAL_HEADER + 2048);
        let log1 = IntentLog::create(region.clone(), DmaEngine::new(), None, 1);
        log1.try_append(WalKind::Write, 5, 0, &[9; 32], 1).unwrap();
        drop(log1);
        // Recovery: scan, then re-create with a bumped epoch.
        let scan = IntentLog::scan(&region);
        assert_eq!(scan.records.len(), 1);
        let log2 = IntentLog::create(region.clone(), DmaEngine::new(), None, scan.epoch + 1);
        log2.try_append(WalKind::Write, 5, 0, &[10; 32], 1).unwrap();
        let rescan = IntentLog::scan(&region);
        assert_eq!(rescan.epoch, 2);
        assert_eq!(rescan.records.len(), 1, "only epoch-2 records replay");
        assert_eq!(rescan.records[0].payload, vec![10; 32]);
    }
}
