//! The host-DMA intent log (DESIGN.md §13.5): the ops the page pool cannot
//! express.
//!
//! The hybrid cache's data plane is host memory, and host memory survives
//! the DPU reset this log exists for. A buffered write is therefore its
//! dirty pages: recovery adopts the surviving cache and flushes them
//! (`Dpc::recover`), and the write logs nothing. What the pool cannot hold
//! is an op that goes around it — an uncached write (direct, `writev`, a
//! buffered write too long to claim in one window) and a truncate. Each of
//! those appends a record to a ring in a [`HostRegion`] *before* it touches
//! the store, and retires it whole at ack. The [`DmaEngine`] a log is
//! created with counts its writes; `Dpc` gives it one of its own, because
//! the adapter writes the ring in host memory before its command leaves,
//! so no record crosses the link.
//!
//! **Retirement is written into the ring.** Retiring rewrites the record's
//! kind word, and its CRC, to [`WalKind::Retired`] in place. A record still
//! live in a surviving region is an op whose outcome the host never
//! learned; [`IntentLog::scan`] returns exactly those, in sequence order,
//! and recovery re-applies them. The tail word advances past a retired
//! prefix, and the ring reuses the space behind it.
//!
//! **Torn-tail rule:** each record carries a CRC32C over its header and
//! payload. The scan stops at the first record that fails CRC,
//! sequence-monotonicity, epoch or bounds validation. By the append-first
//! rule that record's op never ran, so dropping it loses nothing the host
//! was promised.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpc_codec::crc32c;
use dpc_fault::CrashSwitch;
use dpc_pcie::{DmaEngine, HostRegion};
use parking_lot::Mutex;

/// Region header bytes preceding the record ring.
pub const WAL_HEADER: usize = 64;
/// Fixed record header: seq u64, ino u64, offset u64, len u32, epoch u32,
/// kind u32, crc u32.
pub const REC_HEADER: usize = 40;
/// Where the kind word sits in a record header; the CRC follows it, so
/// retirement rewrites the two in one 8-byte write.
const REC_KIND: usize = 32;

const MAGIC: u64 = 0x4450_4357_414c_3039; // "DPCWAL09"
const OFF_MAGIC: usize = 0;
const OFF_CAP: usize = 8;
const OFF_EPOCH: usize = 16;
const OFF_HEAD: usize = 24;
const OFF_TAIL: usize = 32;

/// What a record describes.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum WalKind {
    /// An uncached write of `len` payload bytes at `(ino, offset)`.
    Write = 0,
    /// A truncate of `ino` to size `offset` (no payload).
    Truncate = 1,
    /// A record whose op was acknowledged: validated, never replayed.
    Retired = 2,
}

impl WalKind {
    fn from_u32(v: u32) -> Option<WalKind> {
        match v {
            0 => Some(WalKind::Write),
            1 => Some(WalKind::Truncate),
            2 => Some(WalKind::Retired),
            _ => None,
        }
    }
}

/// Why an append did not happen.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum WalError {
    /// The ring has no room until in-flight ops retire their records.
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
    /// Live records (retired ones excluded) in seq order.
    pub records: Vec<WalRecord>,
    /// The epoch the surviving log was written under.
    pub epoch: u32,
    /// 1 if the scan stopped at a torn/corrupt tail record, else 0.
    pub torn: u64,
}

/// Point-in-time log counters, merged into `CacheStats` by `Dpc::metrics`.
#[derive(Copy, Clone, Default, Debug)]
pub struct WalStats {
    pub appends: u64,
    pub bytes: u64,
    /// Tail advances: reclaims of a retired prefix.
    pub checkpoints: u64,
    pub replayed: u64,
    pub torn_drops: u64,
    pub stalls: u64,
}

/// A live record: where it starts, and its header as appended (the CRC of
/// its payload is recovered from it at retirement).
struct LiveRec {
    pos: u64,
    header: [u8; REC_HEADER],
}

struct WalInner {
    /// Monotonic append frontier (byte position; ring offset = pos % cap).
    head: u64,
    /// Monotonic reclaim frontier: everything before it is retired.
    tail: u64,
    next_seq: u64,
    /// Live records by seq — with appends serialised by this lock, also
    /// ring-position order, so the first entry bounds the tail.
    live: BTreeMap<u64, LiveRec>,
}

/// The ring-structured intent log. One per `Dpc` instance: the adapter
/// appends before an uncached op or a truncate and retires at ack.
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
    /// must [`scan`](Self::scan) and replay *first*, then `create` with
    /// the bumped epoch.
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

    /// Bytes between tail and head: live records, and retired ones a live
    /// record still holds the tail behind.
    pub fn ring_used(&self) -> u64 {
        let inner = self.inner.lock();
        inner.head - inner.tail
    }

    /// Whether every record has been retired *and* reclaimed.
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

    /// Append one intent record *before* its op touches the store. Returns
    /// the record's sequence number; the record stays live until
    /// [`retire_all`](Self::retire_all). `_pages` is unused: an op is
    /// retired whole, not page by page.
    ///
    /// The append protocol makes every crash point recoverable: the head
    /// word is DMA'd first (reserving the space), then the header, then the
    /// payload. A crash between any two steps leaves a reserved-but-torn
    /// record that the scan's CRC check drops — correct, because the op
    /// never ran. A crash after the payload leaves a whole live record for
    /// an op that never ran: replay runs it, and the host, which got an
    /// error, may see either outcome.
    pub fn try_append(
        &self,
        kind: WalKind,
        ino: u64,
        offset: u64,
        payload: &[u8],
        _pages: u32,
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
        inner.live.insert(seq, LiveRec { pos, header });
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(rec_len, Ordering::Relaxed);
        // Injection point: the record is whole and the op has not run.
        if self.check_crash() {
            return Err(WalError::Crashed);
        }
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
        h[REC_KIND..REC_KIND + 4].copy_from_slice(&(kind as u32).to_le_bytes());
        let payload_crc = if payload.is_empty() {
            0
        } else {
            crc32c(payload)
        };
        seal(&mut h, payload_crc);
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

    /// Record `seq`'s op was acknowledged — or failed by something other
    /// than a crash, which leaves it just as settled. Its kind word becomes
    /// [`WalKind::Retired`] in the ring, and the tail advances past the
    /// retired prefix.
    pub fn retire_all(&self, seq: u64) {
        let mut inner = self.inner.lock();
        let Some(rec) = inner.live.remove(&seq) else {
            return;
        };
        let mut h = rec.header;
        let payload_crc = u32::from_le_bytes([h[36], h[37], h[38], h[39]]) ^ crc32c(&h[..36]);
        h[REC_KIND..REC_KIND + 4].copy_from_slice(&(WalKind::Retired as u32).to_le_bytes());
        seal(&mut h, payload_crc);
        self.write_ring(rec.pos + REC_KIND as u64, &h[REC_KIND..]);
        self.advance_tail(&mut inner);
    }

    /// Advance the tail past the retired prefix: the new tail is the
    /// oldest live record's position (or the head when nothing is live),
    /// persisted in the tail word.
    fn advance_tail(&self, inner: &mut WalInner) {
        let new_tail = inner.live.values().next().map_or(inner.head, |rec| rec.pos);
        if new_tail == inner.tail {
            return;
        }
        inner.tail = new_tail;
        self.dma
            .dma_write(&self.region, OFF_TAIL, &inner.tail.to_le_bytes());
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
    }

    // ---- recovery ------------------------------------------------------

    /// Scan a surviving log region: walk the ring from the persisted tail
    /// word to the head word, validating every record (bounds, epoch,
    /// sequence monotonicity, CRC32C) with *fallible* region reads — a
    /// corrupt length can point anywhere, and must stop the scan, not
    /// panic it. Returns the live records in order; the first invalid
    /// record ends the scan as a torn tail.
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
        let ring = region.len().checked_sub(WAL_HEADER);
        if cap == 0 || ring != Some(cap as usize) {
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
            let payload_crc = if payload.is_empty() {
                0
            } else {
                crc32c(&payload)
            };
            let mut expect = h;
            seal(&mut expect, payload_crc);
            if expect[36..40] != crc.to_le_bytes() {
                torn = 1;
                break;
            }
            last_seq = seq;
            pos = end;
            if let Some(kind @ (WalKind::Write | WalKind::Truncate)) = kind {
                records.push(WalRecord {
                    seq,
                    ino,
                    offset,
                    kind,
                    payload,
                });
            }
        }
        WalScan {
            records,
            epoch,
            torn,
        }
    }
}

/// Write a record header's CRC: CRC32C over the header with the CRC field
/// zeroed, XOR the payload's CRC32C (0 for no payload).
fn seal(h: &mut [u8; REC_HEADER], payload_crc: u32) {
    h[36..40].fill(0);
    let crc = crc32c(&h[..36]) ^ payload_crc;
    h[36..40].copy_from_slice(&crc.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::PAGE_SIZE;
    use dpc_fault::{FaultPlan, FaultSpec};

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
        assert_eq!(st.bytes, (2 * REC_HEADER + 5) as u64);
    }

    #[test]
    fn retirement_advances_tail_and_checkpoints() {
        let log = fresh(4096);
        let seq = log
            .try_append(WalKind::Write, 1, 0, &[0xAA; 100], 1)
            .unwrap();
        assert!(!log.is_drained());
        log.retire_all(seq);
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
        // Retire the LATER record first: tail must not move past s1.
        log.retire_all(s2);
        assert!(log.ring_used() > 0, "s1 still pins the tail");
        // The retired s2 stays in the ring, validated but not replayed.
        let scan = IntentLog::scan(log.region());
        assert_eq!((scan.records.len(), scan.torn), (1, 0));
        assert_eq!(scan.records[0].seq, s1);
        log.retire_all(s1);
        assert!(log.is_drained());
    }

    #[test]
    fn a_retired_record_between_live_ones_is_skipped_not_torn() {
        let log = fresh(4096);
        let seqs: Vec<u64> = (0..3u8)
            .map(|k| {
                log.try_append(WalKind::Write, 1, k as u64, &[k; 32], 1)
                    .unwrap()
            })
            .collect();
        log.retire_all(seqs[1]);
        let scan = IntentLog::scan(log.region());
        assert_eq!(scan.torn, 0, "a retired record still passes its CRC");
        let live: Vec<u64> = scan.records.iter().map(|r| r.seq).collect();
        assert_eq!(live, [seqs[0], seqs[2]]);
        assert_eq!(scan.records[1].payload, [2; 32]);
    }

    #[test]
    fn ring_full_stalls_then_wraps_after_reclaim() {
        let ring = 1024;
        let log = fresh(ring);
        let payload = vec![3u8; 200];
        let mut seqs = Vec::new();
        loop {
            match log.try_append(WalKind::Write, 9, 0, &payload, 1) {
                Ok(seq) => seqs.push(seq),
                Err(WalError::WouldBlock) => break,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(log.stats().stalls >= 1);
        assert!(seqs.len() >= 3);
        // Retire everything, then the ring must accept (wrapped) appends.
        for seq in seqs {
            log.retire_all(seq);
        }
        assert!(log.is_drained());
        for k in 0..8 {
            let seq = log.try_append(WalKind::Write, 9, k, &payload, 1).unwrap();
            let scan = IntentLog::scan(log.region());
            assert_eq!(scan.records.len(), 1, "a wrapped record reads back");
            assert_eq!(scan.records[0].payload, payload);
            log.retire_all(seq);
        }
        assert!(log.stats().checkpoints >= 1);
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
    fn a_region_shorter_than_its_header_scans_torn() {
        // The magic word and a capacity, and nothing else: the scan must
        // call it torn, not underflow computing the ring's length.
        let region = HostRegion::new(16);
        region.write_local(OFF_MAGIC, &MAGIC.to_le_bytes());
        region.write_local(OFF_CAP, &8u64.to_le_bytes());
        let scan = IntentLog::scan(&region);
        assert_eq!((scan.records.len(), scan.torn), (0, 1));
    }

    #[test]
    fn crash_mid_append_leaves_a_torn_tail() {
        let plan = FaultPlan::new(1);
        // Each append draws up to four crash checks (entry, reserved,
        // header, whole); the sixth draw is the second append's reserve.
        let crash = Arc::new(dpc_fault::CrashSwitch::armed_by(
            plan.arm("dpu.crash", FaultSpec::nth(6)),
        ));
        let log = IntentLog::create(
            HostRegion::new(WAL_HEADER + 4096),
            DmaEngine::new(),
            Some(crash.clone()),
            1,
        );
        // Append 1: draws checks 1–4 — none fire.
        log.try_append(WalKind::Write, 1, 0, &[1; 64], 1).unwrap();
        // Append 2: draws 5 (entry), 6 (post-reserve) — fires mid-append.
        let err = log.try_append(WalKind::Write, 1, 8192, &[2; 64], 1);
        assert_eq!(err, Err(WalError::Crashed));
        assert!(crash.is_tripped());
        // Further appends refuse outright.
        assert_eq!(
            log.try_append(WalKind::Write, 1, 0, &[3; 8], 1),
            Err(WalError::Crashed)
        );
        let scan = IntentLog::scan(log.region());
        assert_eq!(scan.records.len(), 1, "only the whole record replays");
        assert_eq!(scan.torn, 1, "reserved-but-unwritten space is torn");
    }

    #[test]
    fn a_crash_after_the_payload_leaves_a_whole_live_record() {
        let plan = FaultPlan::new(1);
        let crash = Arc::new(dpc_fault::CrashSwitch::armed_by(
            plan.arm("dpu.crash", FaultSpec::nth(4)),
        ));
        let log = IntentLog::create(
            HostRegion::new(WAL_HEADER + 4096),
            DmaEngine::new(),
            Some(crash),
            1,
        );
        let err = log.try_append(WalKind::Truncate, 5, 100, &[], 1);
        assert_eq!(err, Err(WalError::Crashed));
        let scan = IntentLog::scan(log.region());
        assert_eq!((scan.records.len(), scan.torn), (1, 0));
        assert_eq!(scan.records[0].kind, WalKind::Truncate);
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
