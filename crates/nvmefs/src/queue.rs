//! NVMe queue pairs over DMA-able host memory.
//!
//! nvme-fs (§3.2) runs the host↔DPU conversation in producer–consumer mode
//! over NVMe queue pairs: the NVME-INI driver produces SQEs at the SQ tail
//! and consumes CQEs at the CQ head; the NVME-TGT driver consumes SQEs at
//! the SQ head and produces CQEs at the CQ tail. Both rings live in host
//! memory; the DPU side reaches them only through the counted
//! [`DmaEngine`], which is what makes the 4-DMA write path (Figure 4)
//! checkable in tests.
//!
//! Layout of one queue pair:
//!
//! ```text
//! sq_mem:    depth × 64 B SQEs          (host writes locally, DPU DMA-reads)
//! cq_mem:    depth × 16 B CQEs          (DPU DMA-writes, host reads locally)
//! data_pool: depth × 2 × max_io_bytes   (buffer b: [write buf][read buf])
//! ```
//!
//! Headers travel in the descriptors whenever they fit (the inline form,
//! `sqe.rs` module docs): a request header in the SQE's idle Dwords,
//! a reply header of up to [`CQE_INLINE_CAP`] bytes in the CQE. Neither
//! then costs a DMA of its own, and the write payload starts page-aligned
//! in its buffer. A header that does not fit takes the buffer: the
//! request header ahead of the payload, the reply header in the first
//! [`READ_HEADER_CAP`] bytes of the read half.
//!
//! Transport buffers belong to the initiator, not to ring slots: it keeps
//! the `depth` buffers on a LIFO free list, hands the most recently freed
//! one to the next command (so a lone outstanding command keeps reusing
//! one cache-hot buffer), names it in the SQE's PRP fields, and takes it
//! back once the reply has been read out of it — at once in
//! [`Initiator::poll`]; when a multiplexer says so, after a reap. A
//! command's CID is its buffer's index. The target trusts none of this:
//! it bounds every PRP range the SQE names against the pool before
//! touching it and answers [`CqeStatus::InvalidCommand`] otherwise.
//!
//! Doorbells are device registers (host-side MMIO writes, counted as
//! doorbells, read locally by the DPU — a register read crosses no DMA).
//! A target with nothing posted may sleep on its SQ doorbell
//! ([`Target::park`]); the doorbell write itself wakes it
//! ([`dpc_pcie::Sleeper`] has the handshake that loses no ring). A wake is
//! not a DMA and not a second doorbell: no count moves.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dpc_pcie::{DmaEngine, HostRegion, Sleeper};

use crate::sqe::{Cqe, CqeStatus, DispatchType, Psdt, Sqe, CQE_INLINE_CAP, CQE_SIZE, SQE_SIZE};

/// Reserved space at the start of every read buffer for a response
/// header too long for the CQE; payload follows at this offset.
pub const READ_HEADER_CAP: usize = 64;

/// What a command expects back through its transport buffer.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ReadSide {
    /// Nothing: every reply is a header the CQE holds
    /// ([`CQE_INLINE_CAP`] bytes) and no payload. The SQE's PRP-Read
    /// Dwords are then free for request-header bytes.
    None,
    /// Room for a [`READ_HEADER_CAP`]-byte response header and up to this
    /// many payload bytes. What a plain `read_len` means.
    Buffer(u32),
}

impl From<u32> for ReadSide {
    fn from(read_len: u32) -> ReadSide {
        ReadSide::Buffer(read_len)
    }
}

impl ReadSide {
    /// `(RH_len, Read_len)` as the SQE declares them.
    fn lens(self) -> (u16, u32) {
        match self {
            ReadSide::None => (0, 0),
            ReadSide::Buffer(read_len) => (READ_HEADER_CAP as u16, read_len),
        }
    }
}

/// Space reserved for the SGL descriptor list at the head of a command's
/// write buffer (16 bytes per descriptor).
pub const SGL_LIST_CAP: usize = 256;
/// Maximum data segments per SGL command (plus one header descriptor).
pub const SGL_MAX_SEGMENTS: usize = SGL_LIST_CAP / 16 - 1;

/// Queue pair configuration.
#[derive(Copy, Clone, Debug)]
pub struct QueuePairConfig {
    /// Ring depth (entries per SQ/CQ). One slot is always left open to
    /// distinguish full from empty, so at most `depth - 1` commands can be
    /// outstanding.
    pub depth: u16,
    /// Per-direction capacity of one transport buffer.
    pub max_io_bytes: usize,
}

impl Default for QueuePairConfig {
    fn default() -> Self {
        QueuePairConfig {
            depth: 64,
            max_io_bytes: 64 * 1024,
        }
    }
}

/// Shared ring state (host memory + doorbell registers).
pub(crate) struct QpShared {
    pub(crate) id: u16,
    pub(crate) cfg: QueuePairConfig,
    pub(crate) sq_mem: HostRegion,
    pub(crate) cq_mem: HostRegion,
    pub(crate) data_pool: HostRegion,
    /// SQ tail doorbell: host-written register polled by the DPU.
    pub(crate) sq_tail_db: AtomicU32,
    /// The target asleep on `sq_tail_db`, woken by the store to it.
    pub(crate) sq_sleeper: Sleeper,
    /// CQ head doorbell: host-written register (consumed CQE count).
    pub(crate) cq_head_db: AtomicU32,
    /// Commands the target refused with `InvalidCommand` because a range
    /// their SQE named fell outside the pool, or their reply outgrew the
    /// read buffer it described.
    pub(crate) rejected_sqes: AtomicU64,
}

/// One nvme-fs queue pair. Split into an initiator half and a target half
/// with [`QueuePair::split`]; the halves are independently `Send`.
pub struct QueuePair {
    shared: Arc<QpShared>,
}

impl QueuePair {
    pub fn new(id: u16, cfg: QueuePairConfig) -> QueuePair {
        assert!(cfg.depth >= 2, "queue depth must be at least 2");
        let depth = cfg.depth as usize;
        QueuePair {
            shared: Arc::new(QpShared {
                id,
                cfg,
                sq_mem: HostRegion::new(depth * SQE_SIZE),
                cq_mem: HostRegion::new(depth * CQE_SIZE),
                data_pool: HostRegion::new(depth * 2 * cfg.max_io_bytes),
                sq_tail_db: AtomicU32::new(0),
                sq_sleeper: Sleeper::new(),
                cq_head_db: AtomicU32::new(0),
                rejected_sqes: AtomicU64::new(0),
            }),
        }
    }

    /// Split into the host-side initiator and the DPU-side target.
    pub fn split(self, dma: DmaEngine) -> (Initiator, Target) {
        let depth = self.shared.cfg.depth;
        (
            Initiator {
                shared: self.shared.clone(),
                dma: dma.clone(),
                sq_tail: 0,
                sq_head_seen: 0,
                cq_head: 0,
                cq_phase: true,
                // Reversed so the first commands take buffers 0, 1, 2, …
                free_bufs: (0..depth).rev().collect(),
                in_flight: vec![false; depth as usize],
            },
            Target {
                shared: self.shared,
                dma,
                sq_head: 0,
                cq_tail: 0,
                cq_phase: true,
                reply_bufs: vec![ReplyBuf::default(); depth as usize],
                scratch: Vec::new(),
                sgl_scratch: Vec::new(),
            },
        )
    }
}

/// Offsets of transport buffer `buf`'s write and read halves inside the
/// data pool.
fn buffer_offsets(cfg: &QueuePairConfig, buf: u16) -> (usize, usize) {
    let base = buf as usize * 2 * cfg.max_io_bytes;
    (base, base + cfg.max_io_bytes)
}

/// Error returned when the submission ring (or every transport buffer)
/// is taken.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct QueueFull;

impl core::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "nvme-fs submission queue full")
    }
}

impl std::error::Error for QueueFull {}

/// A completed command as seen by the host.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Completion {
    pub cid: u16,
    pub status: CqeStatus,
    /// Command-specific result (bytes of read payload produced).
    pub result: u32,
    /// Raw response header bytes (empty when the target wrote none).
    pub header: Vec<u8>,
    /// Read payload produced by the target.
    pub payload: Vec<u8>,
}

impl Default for Completion {
    fn default() -> Self {
        Completion {
            cid: 0,
            status: CqeStatus::Success,
            result: 0,
            header: Vec::new(),
            payload: Vec::new(),
        }
    }
}

/// Reusable batch of [`Completion`]s filled by [`Initiator::poll_many`].
///
/// Keeps its `Completion`s (and their header/payload buffers) across
/// [`clear`](CompletionBatch::clear) calls, so a steady-state poll loop
/// stops allocating once the batch has warmed up.
#[derive(Default)]
pub struct CompletionBatch {
    items: Vec<Completion>,
    len: usize,
}

impl CompletionBatch {
    pub fn new() -> CompletionBatch {
        CompletionBatch::default()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop the contents but keep every buffer for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    pub fn as_slice(&self) -> &[Completion] {
        &self.items[..self.len]
    }

    pub fn iter(&self) -> core::slice::Iter<'_, Completion> {
        self.as_slice().iter()
    }

    /// Hand out the next recycled slot, growing only on first use.
    fn next_slot(&mut self) -> &mut Completion {
        if self.len == self.items.len() {
            self.items.push(Completion::default());
        }
        self.len += 1;
        &mut self.items[self.len - 1]
    }
}

impl<'a> IntoIterator for &'a CompletionBatch {
    type Item = &'a Completion;
    type IntoIter = core::slice::Iter<'a, Completion>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Host-side NVME-INI driver for one queue pair.
pub struct Initiator {
    shared: Arc<QpShared>,
    dma: DmaEngine,
    sq_tail: u16,
    /// Latest SQ head reported back via CQEs (flow control).
    sq_head_seen: u16,
    cq_head: u16,
    cq_phase: bool,
    /// Transport buffers no command holds, most recently freed last.
    free_bufs: Vec<u16>,
    /// Per-CID (== buffer index): is a command holding it in flight?
    in_flight: Vec<bool>,
}

impl Initiator {
    pub fn queue_id(&self) -> u16 {
        self.shared.id
    }

    pub fn depth(&self) -> u16 {
        self.shared.cfg.depth
    }

    /// Commands the target refused because their SQE named a range
    /// outside the data pool (or their reply outgrew the read buffer).
    pub fn rejected_sqes(&self) -> u64 {
        self.shared.rejected_sqes.load(Ordering::Relaxed)
    }

    /// Number of commands that can be staged right now without draining
    /// completions: bounded by the ring's free span and by the transport
    /// buffers whose completions have not been consumed yet.
    pub fn free_slots(&self) -> usize {
        let depth = self.shared.cfg.depth;
        let ring_free = (self.sq_head_seen + depth - self.sq_tail - 1) % depth;
        (ring_free as usize).min(self.free_bufs.len())
    }

    /// Wake-ups this queue's doorbell has delivered: rings that found the
    /// target asleep on it.
    pub fn doorbell_wakes(&self) -> u64 {
        self.shared.sq_sleeper.wakes()
    }

    /// Publish the staged SQ tail and ring the doorbell — exactly one MMIO
    /// doorbell regardless of how many SQEs were staged since the last
    /// publish. The one place a doorbell is rung, so the one place a
    /// target asleep on it is woken (`SeqCst`: the sleeper's contract).
    fn publish_tail(&mut self) {
        self.shared
            .sq_tail_db
            .store(self.sq_tail as u32, Ordering::SeqCst);
        self.dma.ring_doorbell();
        self.shared.sq_sleeper.wake();
    }

    /// The buffer the next command gets — the one freed last, so it is
    /// the one most likely still in cache — when the ring has room too.
    fn next_buffer(&self) -> Result<u16, QueueFull> {
        if self.free_slots() == 0 {
            return Err(QueueFull);
        }
        self.free_bufs.last().copied().ok_or(QueueFull)
    }

    /// Write `sqe` at the SQ tail (without publishing it) and take its
    /// buffer — the one [`next_buffer`](Self::next_buffer) named — off
    /// the free list until the completion has been consumed.
    fn enqueue(&mut self, sqe: &Sqe) {
        self.shared
            .sq_mem
            .write_local(self.sq_tail as usize * SQE_SIZE, &sqe.to_bytes());
        let buf = self.free_bufs.pop();
        debug_assert_eq!(buf, Some(sqe.cid()));
        self.in_flight[sqe.cid() as usize] = true;
        self.sq_tail = (self.sq_tail + 1) % self.shared.cfg.depth;
    }

    /// A fresh SQE for the command transport buffer `buf` will carry,
    /// every field set but the request header.
    fn sqe_for(&self, buf: u16, dispatch: DispatchType, write_len: usize, read: ReadSide) -> Sqe {
        let cfg = &self.shared.cfg;
        let (rh_len, read_len) = read.lens();
        assert!(
            rh_len as usize + read_len as usize <= cfg.max_io_bytes,
            "read side exceeds buffer capacity"
        );
        // The PRP fields are how the target learns which buffer this is.
        let (woff, roff) = buffer_offsets(cfg, buf);
        let mut sqe = Sqe::new();
        sqe.set_cid(buf)
            .set_dispatch(dispatch)
            .set_prp_write(woff as u64, 0)
            .set_prp_read(roff as u64, 0)
            .set_write_len(write_len as u32)
            .set_read_len(read_len)
            .set_rh_len(rh_len);
        sqe
    }

    /// Put `header` where it travels cheapest: in `sqe` itself when it
    /// fits (no DMA of its own), else at `at` in the data pool. Returns
    /// the bytes it took there. Host-local stores either way.
    fn place_header(&self, sqe: &mut Sqe, header: &[u8], at: usize) -> usize {
        if sqe.set_inline_header(header) {
            return 0;
        }
        assert!(header.len() <= u16::MAX as usize, "header too large");
        self.shared.data_pool.write_local(at, header);
        sqe.set_wh_len(header.len() as u16);
        header.len()
    }

    /// Stage one command into the ring without publishing the tail.
    fn stage(
        &mut self,
        dispatch: DispatchType,
        header: &[u8],
        write_payload: &[u8],
        read: ReadSide,
    ) -> Result<u16, QueueFull> {
        let buf = self.next_buffer()?;
        let (woff, _) = buffer_offsets(&self.shared.cfg, buf);
        let mut sqe = self.sqe_for(buf, dispatch, write_payload.len(), read);
        // Host CPU fills the write buffer (local stores, no DMA): the
        // payload page-aligned at its start when the header rode the SQE.
        let in_buffer = self.place_header(&mut sqe, header, woff);
        assert!(
            in_buffer + write_payload.len() <= self.shared.cfg.max_io_bytes,
            "write side exceeds buffer capacity"
        );
        if !write_payload.is_empty() {
            self.shared
                .data_pool
                .write_local(woff + in_buffer, write_payload);
        }
        self.enqueue(&sqe);
        Ok(buf)
    }

    /// Submit a bidirectional command: `write_payload` (behind `header`,
    /// when that does not fit the SQE) goes into a transport buffer's
    /// write half; `read` says what is expected back in its read half — a
    /// plain `read_len` is [`ReadSide::Buffer`]. Returns the CID (the
    /// buffer's index).
    pub fn submit(
        &mut self,
        dispatch: DispatchType,
        header: &[u8],
        write_payload: &[u8],
        read: impl Into<ReadSide>,
    ) -> Result<u16, QueueFull> {
        let cid = self.stage(dispatch, header, write_payload, read.into())?;
        self.publish_tail();
        Ok(cid)
    }

    /// Stage one SGL command into the ring without publishing the tail.
    fn stage_sgl(
        &mut self,
        dispatch: DispatchType,
        header: &[u8],
        segments: &[&[u8]],
        read: ReadSide,
    ) -> Result<u16, QueueFull> {
        assert!(!segments.is_empty(), "an SGL needs at least one segment");
        assert!(segments.len() <= SGL_MAX_SEGMENTS, "too many SGL segments");
        let payload_len: usize = segments.iter().map(|s| s.len()).sum();
        let buf = self.next_buffer()?;
        let (woff, _) = buffer_offsets(&self.shared.cfg, buf);
        let mut sqe = self.sqe_for(buf, dispatch, payload_len, read);
        // PRP-Write points at the SGL list.
        sqe.set_psdt(Psdt::SglWrite)
            .set_sgl_count(segments.len() as u32 + 1);

        // Write-buffer layout in SGL mode: [descriptor list][header]
        // [segments...]. Host-local stores throughout (the app's buffers
        // are already in DMA-able memory; we re-stage them here to give
        // each segment a distinct device-visible address). The list is
        // built on the stack: 16 bytes per descriptor, address, length
        // and four reserved zero bytes.
        let mut list = [0u8; SGL_LIST_CAP];
        let mut describe = |i: usize, addr: usize, len: usize| {
            list[16 * i..16 * i + 8].copy_from_slice(&(addr as u64).to_le_bytes());
            list[16 * i + 8..16 * i + 12].copy_from_slice(&(len as u32).to_le_bytes());
        };
        let mut cursor = woff + SGL_LIST_CAP;
        let in_buffer = self.place_header(&mut sqe, header, cursor);
        assert!(
            SGL_LIST_CAP + in_buffer + payload_len <= self.shared.cfg.max_io_bytes,
            "write side exceeds buffer capacity"
        );
        // First descriptor covers the header (zero-length when there is
        // none, or it rode the SQE).
        describe(0, cursor, in_buffer);
        cursor += in_buffer;
        for (i, seg) in segments.iter().enumerate() {
            self.shared.data_pool.write_local(cursor, seg);
            describe(i + 1, cursor, seg.len());
            cursor += seg.len();
        }
        self.shared
            .data_pool
            .write_local(woff, &list[..16 * (segments.len() + 1)]);
        self.enqueue(&sqe);
        Ok(buf)
    }

    /// Submit a bidirectional command whose write side is described by a
    /// scatter-gather list instead of a contiguous PRP range (PSDT =
    /// `SglWrite`). Each segment is an independently-addressed buffer; the
    /// target fetches the descriptor list (one DMA) and then each segment
    /// (one DMA per segment), as a real SGL engine would.
    ///
    /// The logical payload is the concatenation of `header` and all
    /// segments, exactly as in [`submit`](Initiator::submit).
    pub fn submit_sgl(
        &mut self,
        dispatch: DispatchType,
        header: &[u8],
        segments: &[&[u8]],
        read: impl Into<ReadSide>,
    ) -> Result<u16, QueueFull> {
        let cid = self.stage_sgl(dispatch, header, segments, read.into())?;
        self.publish_tail();
        Ok(cid)
    }

    /// Open a deferred-doorbell batch: every command staged through the
    /// guard is written into the ring immediately, but the tail doorbell is
    /// published (and rung) only once, when the guard commits or drops.
    pub fn batch(&mut self) -> DoorbellGuard<'_> {
        DoorbellGuard {
            ini: self,
            staged: 0,
        }
    }

    /// Consume the CQE at the head, if fresh, and take its command out of
    /// flight. Advances head/phase and flow control but does **not**
    /// publish the head doorbell — callers batch that into one store per
    /// poll pass — and does not give the transport buffer back: the reply
    /// is still in it for [`read_reply`](Self::read_reply), and its CID
    /// stays taken until [`release`](Self::release). A CQE naming a CID
    /// that is not in flight has nobody to go to (and no buffer to give
    /// back): it is consumed and skipped, inline header bytes and all.
    pub(crate) fn reap(&mut self) -> Option<Cqe> {
        loop {
            let mut raw = [0u8; CQE_SIZE];
            self.shared
                .cq_mem
                .read_local(self.cq_head as usize * CQE_SIZE, &mut raw);
            let cqe = Cqe::from_bytes(&raw);
            if cqe.phase != self.cq_phase {
                return None; // no fresh entry at the head
            }
            self.cq_head = (self.cq_head + 1) % self.shared.cfg.depth;
            if self.cq_head == 0 {
                self.cq_phase = !self.cq_phase;
            }
            self.sq_head_seen = cqe.sq_head;
            if let Some(live @ true) = self.in_flight.get_mut(cqe.cid as usize) {
                *live = false;
                return Some(cqe);
            }
        }
    }

    /// Publish the consumed CQ head back to the device (one register store).
    pub(crate) fn publish_cq_head(&mut self) {
        self.shared
            .cq_head_db
            .store(self.cq_head as u32, Ordering::Release);
    }

    /// Rebuild a reaped CQE's response header — from the CQE itself when
    /// it rode there, else from the command's buffer — and copy the
    /// payload out into `out` (reusing `out`'s own buffers; each byte is
    /// appended once, nothing is zero-filled first). Host-local reads; no
    /// DMA.
    pub(crate) fn read_reply(&self, cqe: &Cqe, out: &mut Completion) {
        let (_, roff) = buffer_offsets(&self.shared.cfg, cqe.cid);
        out.cid = cqe.cid;
        out.status = cqe.status;
        out.result = cqe.result;
        out.header.clear();
        out.payload.clear();
        let pool = &self.shared.data_pool;
        match cqe.inline_header() {
            Some(header) => out.header.extend_from_slice(header),
            None => pool.read_local_extend(roff, cqe.hdr_len as usize, &mut out.header),
        }
        pool.read_local_extend(
            roff + READ_HEADER_CAP,
            cqe.result as usize,
            &mut out.payload,
        );
    }

    /// Put a reaped command's transport buffer back on the free list: its
    /// CID may carry the next command.
    pub(crate) fn release(&mut self, cid: u16) {
        debug_assert!(!self.in_flight[cid as usize] && !self.free_bufs.contains(&cid));
        self.free_bufs.push(cid);
    }

    /// Poll the completion queue; returns at most one completion.
    pub fn poll(&mut self) -> Option<Completion> {
        let cqe = self.reap()?;
        self.publish_cq_head();
        let mut out = Completion::default();
        self.read_reply(&cqe, &mut out);
        self.release(cqe.cid);
        Some(out)
    }

    /// Drain every available completion into `out` (recycling its buffers)
    /// with a single CQ-head doorbell store at the end of the pass.
    /// Returns the number of completions drained.
    pub fn poll_many(&mut self, out: &mut CompletionBatch) -> usize {
        out.clear();
        while let Some(cqe) = self.reap() {
            self.read_reply(&cqe, out.next_slot());
            self.release(cqe.cid);
        }
        if !out.is_empty() {
            self.publish_cq_head();
        }
        out.len()
    }

    /// Poll until a completion arrives, yielding between polls
    /// (test/demo helper).
    pub fn wait(&mut self) -> Completion {
        loop {
            if let Some(c) = self.poll() {
                return c;
            }
            std::thread::yield_now();
        }
    }

    /// Commands currently in flight.
    pub fn outstanding(&self) -> usize {
        self.in_flight.len() - self.free_bufs.len()
    }
}

/// Deferred-doorbell submission batch from [`Initiator::batch`].
///
/// Commands staged through the guard land in the ring immediately; the SQ
/// tail doorbell is published exactly once when the guard commits (or is
/// dropped), so a batch of N commands costs one MMIO doorbell instead of N.
pub struct DoorbellGuard<'a> {
    ini: &'a mut Initiator,
    staged: usize,
}

impl DoorbellGuard<'_> {
    /// Stage one command; see [`Initiator::submit`].
    pub fn submit(
        &mut self,
        dispatch: DispatchType,
        header: &[u8],
        write_payload: &[u8],
        read: impl Into<ReadSide>,
    ) -> Result<u16, QueueFull> {
        let slot = self
            .ini
            .stage(dispatch, header, write_payload, read.into())?;
        self.staged += 1;
        Ok(slot)
    }

    /// Stage one SGL command; see [`Initiator::submit_sgl`].
    pub fn submit_sgl(
        &mut self,
        dispatch: DispatchType,
        header: &[u8],
        segments: &[&[u8]],
        read: impl Into<ReadSide>,
    ) -> Result<u16, QueueFull> {
        let slot = self
            .ini
            .stage_sgl(dispatch, header, segments, read.into())?;
        self.staged += 1;
        Ok(slot)
    }

    /// Commands staged so far in this batch.
    pub fn staged(&self) -> usize {
        self.staged
    }

    /// Publish the tail and ring the doorbell (once). Equivalent to
    /// dropping the guard; provided for explicit call sites.
    pub fn commit(self) {}
}

impl Drop for DoorbellGuard<'_> {
    fn drop(&mut self) {
        if self.staged > 0 {
            self.ini.publish_tail();
        }
    }
}

/// A command as seen by the DPU target.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Incoming {
    pub sqe: Sqe,
    /// The command's CID, to pass back to [`Target::complete`].
    pub slot: u16,
    /// The request header (`WH_len` bytes), wherever it travelled.
    pub header: Vec<u8>,
    /// The write payload.
    pub payload: Vec<u8>,
}

/// Reusable batch of [`Incoming`]s filled by [`Target::poll_many`];
/// recycles per-command header/payload buffers the same way
/// [`CompletionBatch`] does.
#[derive(Default)]
pub struct IncomingBatch {
    items: Vec<Incoming>,
    len: usize,
}

impl IncomingBatch {
    pub fn new() -> IncomingBatch {
        IncomingBatch::default()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop the contents but keep every buffer for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    pub fn as_slice(&self) -> &[Incoming] {
        &self.items[..self.len]
    }

    pub fn iter(&self) -> core::slice::Iter<'_, Incoming> {
        self.as_slice().iter()
    }

    fn next_slot(&mut self) -> &mut Incoming {
        if self.len == self.items.len() {
            self.items.push(Incoming::default());
        }
        self.len += 1;
        &mut self.items[self.len - 1]
    }

    /// Un-claim the most recently claimed slot (rejected command).
    fn pop_slot(&mut self) {
        self.len -= 1;
    }
}

impl<'a> IntoIterator for &'a IncomingBatch {
    type Item = &'a Incoming;
    type IntoIter = core::slice::Iter<'a, Incoming>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Where a fetched command's reply goes: the read range its SQE named,
/// bounds-checked against the pool when the SQE was fetched. All-zero for
/// a command that declared no read side: its reply has the CQE and nothing
/// else to ride.
#[derive(Copy, Clone, Default)]
struct ReplyBuf {
    offset: usize,
    header_cap: usize,
    payload_cap: usize,
}

/// DPU-side NVME-TGT driver for one queue pair.
pub struct Target {
    shared: Arc<QpShared>,
    dma: DmaEngine,
    sq_head: u16,
    cq_tail: u16,
    cq_phase: bool,
    /// Per-CID reply buffer of every fetched, not yet completed command.
    reply_bufs: Vec<ReplyBuf>,
    /// Reusable staging buffer for one command's contiguous
    /// `[header ‖ payload]` write side — DMA granularity (and therefore
    /// accounting) is over this contiguous view, the header/payload split
    /// happens locally afterwards.
    scratch: Vec<u8>,
    /// Reusable staging buffer for SGL descriptor lists.
    sgl_scratch: Vec<u8>,
}

impl Target {
    pub fn queue_id(&self) -> u16 {
        self.shared.id
    }

    /// `[addr, addr + len)` as a range of the data pool, if it is one no
    /// longer than a transport buffer. Every address and length an SQE
    /// (or an SGL descriptor) carries is host-written: nothing is read
    /// from or written to the pool before passing through here.
    fn pool_range(&self, addr: u64, len: usize) -> Option<usize> {
        let cfg = &self.shared.cfg;
        let start = usize::try_from(addr).ok()?;
        let end = start.checked_add(len)?;
        (len <= cfg.max_io_bytes && end <= cfg.depth as usize * 2 * cfg.max_io_bytes)
            .then_some(start)
    }

    /// Refuse command `cid`: a bare `InvalidCommand` CQE, and a count.
    /// Also how the layer above refuses a header that does not decode.
    pub fn reject(&mut self, cid: u16) {
        self.shared.rejected_sqes.fetch_add(1, Ordering::Relaxed);
        self.post_cqe(cid, CqeStatus::InvalidCommand, 0, b"");
    }

    /// Fetch the SQE at the current head and gather its write side into
    /// `out`, reusing `out`'s buffers and the target's scratch space.
    /// Advances the SQ head. The caller has already checked availability.
    /// Returns `false` when the command was refused instead (an
    /// out-of-range CID, PRP range or SGL descriptor, an inline header
    /// longer than the SQE has room for): it has been completed with
    /// `InvalidCommand` and `out` holds nothing to serve.
    ///
    /// DMA accounting: 1 op for the SQE fetch — which brings an inline
    /// request header with it — plus `ceil((buffered header + Write_len) /
    /// 4096)` ops for the write buffer (page-granularity PRP transfers),
    /// or list + per-segment ops in SGL mode.
    fn fill_incoming(&mut self, out: &mut Incoming) -> bool {
        // ① fetch the SQE.
        let mut raw = [0u8; SQE_SIZE];
        self.dma.dma_read(
            &self.shared.sq_mem,
            self.sq_head as usize * SQE_SIZE,
            &mut raw,
        );
        self.sq_head = (self.sq_head + 1) % self.shared.cfg.depth;
        let sqe = Sqe::from_bytes(&raw);
        let cid = sqe.cid();
        out.header.clear();
        out.payload.clear();
        out.slot = cid;
        if cid >= self.shared.cfg.depth {
            self.reject(cid);
            return false;
        }

        // ② the request header, if the SQE brought it along, and the
        // buffers the SQE names. A direction that moves no bytes names no
        // buffer: its PRP Dwords may be header bytes and are never read
        // as an address.
        let wh = if sqe.is_inline() {
            if !sqe.inline_header(&mut out.header) {
                self.reject(cid);
                return false;
            }
            0
        } else {
            sqe.wh_len() as usize
        };
        let total = wh + sqe.write_len() as usize;
        let (header_cap, payload_cap) = (sqe.rh_len() as usize, sqe.read_len() as usize);
        let reply = if header_cap + payload_cap == 0 {
            ReplyBuf::default()
        } else if let Some(offset) = self.pool_range(sqe.prp_read().0, header_cap + payload_cap) {
            ReplyBuf {
                offset,
                header_cap,
                payload_cap,
            }
        } else {
            self.reject(cid);
            return false;
        };

        // ③ read what the write buffer holds: a header that did not fit
        // the SQE, then the payload. PRP mode: page-granular DMAs over the
        // contiguous buffer. SGL mode: fetch the descriptor list, then one
        // DMA per scattered segment.
        let sgl_write = matches!(sqe.psdt(), Psdt::SglWrite | Psdt::SglBoth);
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        let gathered = if sgl_write {
            self.gather_sgl(&sqe, total, &mut buf)
        } else {
            total == 0 || self.gather_prp(&sqe, total, &mut buf)
        };
        if gathered {
            out.header.extend_from_slice(&buf[..wh]);
            out.payload.extend_from_slice(&buf[wh..]);
            out.sqe = sqe;
            self.reply_bufs[cid as usize] = reply;
        } else {
            self.reject(cid);
        }
        self.scratch = buf;
        gathered
    }

    /// Gather a contiguous write side of `total` bytes into `buf`, one
    /// DMA per 4 KiB page. `false` when the range is not inside the pool.
    fn gather_prp(&mut self, sqe: &Sqe, total: usize, buf: &mut Vec<u8>) -> bool {
        let Some(woff) = self.pool_range(sqe.prp_write().0, total) else {
            return false;
        };
        buf.resize(total, 0);
        let mut pos = 0;
        while pos < total {
            let n = (total - pos).min(4096);
            self.dma
                .dma_read(&self.shared.data_pool, woff + pos, &mut buf[pos..pos + n]);
            pos += n;
        }
        true
    }

    /// Gather a scattered write side into `buf`: the descriptor list (one
    /// DMA), then one DMA per non-empty segment. `false` when the list or
    /// a segment is not inside the pool, or the segments do not add up to
    /// the `total` the SQE declared.
    fn gather_sgl(&mut self, sqe: &Sqe, total: usize, buf: &mut Vec<u8>) -> bool {
        let count = sqe.sgl_count() as usize;
        if count > SGL_LIST_CAP / 16 {
            return false;
        }
        let Some(list_off) = self.pool_range(sqe.prp_write().0, count * 16) else {
            return false;
        };
        let mut list = std::mem::take(&mut self.sgl_scratch);
        list.clear();
        list.resize(count * 16, 0);
        self.dma
            .dma_read(&self.shared.data_pool, list_off, &mut list);
        let mut ok = true;
        for desc in list.chunks_exact(16) {
            let addr = u64::from_le_bytes(desc[..8].try_into().expect("8-byte address"));
            let len = u32::from_le_bytes(desc[8..12].try_into().expect("4-byte length")) as usize;
            if len == 0 {
                continue;
            }
            let start = buf.len();
            let Some(addr) = self.pool_range(addr, len) else {
                ok = false;
                break;
            };
            if start + len > total {
                ok = false;
                break;
            }
            buf.resize(start + len, 0);
            self.dma
                .dma_read(&self.shared.data_pool, addr, &mut buf[start..]);
        }
        self.sgl_scratch = list;
        ok && buf.len() == total
    }

    /// Poll the SQ doorbell; fetch and decode one SQE if available. A
    /// refused command yields `None` for this round.
    pub fn poll(&mut self) -> Option<Incoming> {
        let tail = self.shared.sq_tail_db.load(Ordering::Acquire) as u16;
        if tail == self.sq_head {
            return None;
        }
        let mut out = Incoming::default();
        self.fill_incoming(&mut out).then_some(out)
    }

    /// Sleep until the host rings this queue's SQ doorbell, somebody
    /// unparks the calling thread, or `timeout` passes. Returns at once
    /// (`false`) when the doorbell already stands past the last SQE
    /// fetched. A target that never calls this is never woken: polling
    /// servers work as before.
    pub fn park(&mut self, timeout: Duration) -> bool {
        let (shared, sq_head) = (&self.shared, self.sq_head);
        shared.sq_sleeper.sleep_unless(timeout, || {
            shared.sq_tail_db.load(Ordering::SeqCst) as u16 != sq_head
        })
    }

    /// Drain every SQE published by the last doorbell into `out`,
    /// recycling its buffers: one doorbell-register read per pass, however
    /// many commands arrived. Refused commands are completed inline and
    /// do not appear in the batch. Returns the number of commands fetched.
    pub fn poll_many(&mut self, out: &mut IncomingBatch) -> usize {
        out.clear();
        let tail = self.shared.sq_tail_db.load(Ordering::Acquire) as u16;
        while self.sq_head != tail {
            let slot = out.next_slot();
            if !self.fill_incoming(slot) {
                out.pop_slot();
            }
        }
        out.len()
    }

    /// Complete a command: the response header rides the CQE when it
    /// fits there, else it is DMA-written to the read buffer the SQE
    /// named, as the read payload is; then ④ post the CQE. A reply that
    /// fits neither the CQE nor the buffer the host described is not
    /// written anywhere: the command completes with `InvalidCommand`
    /// instead.
    ///
    /// DMA accounting: 1 op for a header longer than [`CQE_INLINE_CAP`],
    /// `ceil(payload / 4096)` ops for payload, plus 1 for the CQE. An
    /// acknowledgement — no payload, a short header or none — therefore
    /// costs exactly one CQE DMA, which is what keeps an 8 KiB write at
    /// the paper's 4 DMA operations.
    pub fn complete(&mut self, slot: u16, status: CqeStatus, header: &[u8], payload: &[u8]) {
        assert!(header.len() <= READ_HEADER_CAP, "response header too big");
        let reply = self
            .reply_bufs
            .get(slot as usize)
            .copied()
            .unwrap_or_default();
        let buffered = header.len() > CQE_INLINE_CAP;
        if (buffered && header.len() > reply.header_cap) || payload.len() > reply.payload_cap {
            self.reject(slot);
            return;
        }

        // Response header (single DMA: it fits one page).
        if buffered {
            self.dma
                .dma_write(&self.shared.data_pool, reply.offset, header);
        }

        // Payload, page by page.
        let mut pos = 0;
        while pos < payload.len() {
            let n = (payload.len() - pos).min(4096);
            self.dma.dma_write(
                &self.shared.data_pool,
                reply.offset + reply.header_cap + pos,
                &payload[pos..pos + n],
            );
            pos += n;
        }

        self.post_cqe(slot, status, payload.len() as u32, header);
    }

    /// ④ post one CQE at the CQ tail (one DMA), `header` inside it when
    /// it fits.
    fn post_cqe(&mut self, cid: u16, status: CqeStatus, result: u32, header: &[u8]) {
        let mut inline = [0u8; CQE_INLINE_CAP];
        if let Some(room) = inline.get_mut(..header.len()) {
            room.copy_from_slice(header);
        }
        let cqe = Cqe {
            result,
            hdr_len: header.len() as u8,
            inline,
            sq_head: self.sq_head,
            status,
            cid,
            phase: self.cq_phase,
        };
        self.dma.dma_write(
            &self.shared.cq_mem,
            self.cq_tail as usize * CQE_SIZE,
            &cqe.to_bytes(),
        );
        self.cq_tail = (self.cq_tail + 1) % self.shared.cfg.depth;
        if self.cq_tail == 0 {
            self.cq_phase = !self.cq_phase;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(depth: u16, max_io: usize) -> (Initiator, Target, DmaEngine) {
        let dma = DmaEngine::new();
        let (ini, tgt) = QueuePair::new(
            0,
            QueuePairConfig {
                depth,
                max_io_bytes: max_io,
            },
        )
        .split(dma.clone());
        (ini, tgt, dma)
    }

    /// Echo target: completes each command by returning the write payload.
    fn echo_one(tgt: &mut Target) {
        let inc = tgt.poll().expect("request pending");
        let reply = inc.payload.clone();
        let want = inc.sqe.read_len() as usize;
        let reply = if reply.len() >= want {
            reply[..want].to_vec()
        } else {
            reply
        };
        tgt.complete(inc.slot, CqeStatus::Success, b"", &reply);
    }

    #[test]
    fn single_command_round_trip() {
        let (mut ini, mut tgt, _) = pair(8, 16 * 1024);
        let data = vec![0x5A; 8192];
        let cid = ini
            .submit(DispatchType::Standalone, b"", &data, 8192)
            .unwrap();
        assert_eq!(ini.outstanding(), 1);
        echo_one(&mut tgt);
        let c = ini.wait();
        assert_eq!(c.cid, cid);
        assert_eq!(c.status, CqeStatus::Success);
        assert_eq!(c.payload, data);
        assert_eq!(ini.outstanding(), 0);
    }

    #[test]
    fn raw_8k_write_costs_exactly_4_dmas() {
        // The paper's headline: Figure 4 — an 8 KiB nvme-fs write involves
        // 4 DMA operations (SQE fetch, two 4 KiB data pages, CQE).
        let (mut ini, mut tgt, dma) = pair(8, 16 * 1024);
        let before = dma.snapshot();
        ini.submit(DispatchType::Standalone, b"", &[7u8; 8192], 0)
            .unwrap();
        let inc = tgt.poll().unwrap();
        tgt.complete(inc.slot, CqeStatus::Success, b"", b"");
        ini.wait();
        let delta = dma.snapshot().since(&before);
        // SQE fetch (1) + two 4 KiB data pages (2) + CQE (1) = 4.
        assert_eq!(delta.dma_ops, 4);
        assert_eq!(delta.doorbells, 1);
        assert_eq!(delta.dma_bytes, 64 + 8192 + 16);
    }

    #[test]
    fn raw_8k_read_costs_exactly_4_dmas() {
        // The symmetric read: SQE fetch (1) + CQE (1) + two response data
        // pages (2) = 4 DMA operations.
        let (mut ini, mut tgt, dma) = pair(8, 16 * 1024);
        let before = dma.snapshot();
        ini.submit(DispatchType::Standalone, b"", b"", 8192)
            .unwrap();
        let inc = tgt.poll().unwrap();
        tgt.complete(inc.slot, CqeStatus::Success, b"", &[3u8; 8192]);
        let c = ini.wait();
        assert_eq!(c.payload, vec![3u8; 8192]);
        let delta = dma.snapshot().since(&before);
        assert_eq!(delta.dma_ops, 4);
    }

    #[test]
    fn header_and_payload_delivered_separately() {
        let (mut ini, mut tgt, _) = pair(8, 16 * 1024);
        ini.submit(DispatchType::Distributed, b"HDR!", b"payload", 16)
            .unwrap();
        let inc = tgt.poll().unwrap();
        assert_eq!(inc.header, b"HDR!");
        assert_eq!(inc.payload, b"payload");
        assert_eq!(inc.sqe.dispatch(), DispatchType::Distributed);
        assert_eq!(inc.sqe.wh_len(), 4);
        assert_eq!(inc.sqe.write_len(), 7);
        tgt.complete(inc.slot, CqeStatus::Success, b"RESP", b"ok");
        let c = ini.wait();
        assert_eq!(c.header, b"RESP");
        assert_eq!(c.payload, b"ok");
    }

    #[test]
    fn ring_wraps_and_phase_flips() {
        let (mut ini, mut tgt, _) = pair(4, 4096);
        // Drive several times around the 4-deep ring.
        for round in 0..23u32 {
            let data = round.to_le_bytes();
            ini.submit(DispatchType::Standalone, b"", &data, 4).unwrap();
            echo_one(&mut tgt);
            let c = ini.wait();
            assert_eq!(c.payload, data);
        }
    }

    #[test]
    fn queue_full_reported() {
        let (mut ini, mut tgt, _) = pair(4, 4096);
        // depth-1 = 3 slots usable.
        for _ in 0..3 {
            ini.submit(DispatchType::Standalone, b"", b"x", 0).unwrap();
        }
        assert_eq!(
            ini.submit(DispatchType::Standalone, b"", b"x", 0),
            Err(QueueFull)
        );
        // Drain one; a slot frees up.
        echo_one(&mut tgt);
        ini.wait();
        ini.submit(DispatchType::Standalone, b"", b"y", 0).unwrap();
    }

    #[test]
    fn pipelined_commands_complete_in_order() {
        let (mut ini, mut tgt, _) = pair(16, 4096);
        let mut cids = Vec::new();
        for i in 0..10u8 {
            cids.push(ini.submit(DispatchType::Standalone, b"", &[i], 1).unwrap());
        }
        for _ in 0..10 {
            echo_one(&mut tgt);
        }
        for (i, want_cid) in cids.into_iter().enumerate() {
            let c = ini.wait();
            assert_eq!(c.cid, want_cid);
            assert_eq!(c.payload, vec![i as u8]);
        }
    }

    #[test]
    fn cross_thread_producer_consumer() {
        // Real host thread + real DPU thread over the shared rings.
        let (mut ini, mut tgt, _) = pair(32, 8192);
        const N: usize = 500;
        let dpu = std::thread::spawn(move || {
            let mut done = 0;
            while done < N {
                if let Some(inc) = tgt.poll() {
                    // Reverse the payload as a nontrivial transform.
                    let mut rev = inc.payload.clone();
                    rev.reverse();
                    tgt.complete(inc.slot, CqeStatus::Success, b"", &rev);
                    done += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        let mut completed = 0;
        let mut next = 0u32;
        while completed < N {
            while next < N as u32 {
                let msg = next.to_le_bytes();
                match ini.submit(DispatchType::Standalone, b"", &msg, 4) {
                    Ok(_) => next += 1,
                    Err(QueueFull) => break,
                }
            }
            if let Some(c) = ini.poll() {
                let mut rev = c.payload.clone();
                rev.reverse();
                let v = u32::from_le_bytes(rev.try_into().unwrap());
                assert!(v < N as u32);
                completed += 1;
            }
        }
        dpu.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "exceeds buffer capacity")]
    fn oversized_payload_rejected() {
        let (mut ini, _tgt, _) = pair(4, 4096);
        ini.submit(DispatchType::Standalone, b"", &[0; 8192], 0)
            .ok();
    }

    #[test]
    fn sgl_write_reassembles_scattered_segments() {
        let (mut ini, mut tgt, _) = pair(8, 64 * 1024);
        let seg_a = vec![1u8; 1000];
        let seg_b = vec![2u8; 3000];
        let seg_c = vec![3u8; 50];
        ini.submit_sgl(
            DispatchType::Standalone,
            b"HDR",
            &[&seg_a, &seg_b, &seg_c],
            0,
        )
        .unwrap();
        let inc = tgt.poll().unwrap();
        assert_eq!(inc.header, b"HDR");
        assert_eq!(inc.payload.len(), 4050);
        assert_eq!(&inc.payload[..1000], &seg_a[..]);
        assert_eq!(&inc.payload[1000..4000], &seg_b[..]);
        assert_eq!(&inc.payload[4000..], &seg_c[..]);
        assert_eq!(inc.sqe.psdt(), crate::sqe::Psdt::SglWrite);
        tgt.complete(inc.slot, CqeStatus::Success, b"", b"");
        let c = ini.wait();
        assert_eq!(c.status, CqeStatus::Success);
    }

    #[test]
    fn sgl_dma_count_is_list_plus_segments() {
        // SQE (1) + SGL list (1) + 3 segments (3) + CQE (1); a header the
        // SQE has no room for (12 bytes under SGL, beside a read side) is
        // one more descriptor, and one more DMA.
        let (mut ini, mut tgt, dma) = pair(8, 64 * 1024);
        let seg = vec![9u8; 2048];
        for (header, header_dmas) in [(&b"H"[..], 0), (&[0x48; 13][..], 1)] {
            let before = dma.snapshot();
            ini.submit_sgl(DispatchType::Standalone, header, &[&seg, &seg, &seg], 0)
                .unwrap();
            let inc = tgt.poll().unwrap();
            assert_eq!(inc.header, header);
            tgt.complete(inc.slot, CqeStatus::Success, b"", b"");
            ini.wait();
            let delta = dma.snapshot().since(&before);
            assert_eq!(delta.dma_ops, 1 + 1 + header_dmas + 3 + 1);
        }
    }

    /// The wire form of a command with neither payload: a 17-byte
    /// `Truncate`, well inside the SQE's 48 inline bytes. (The two `zc_`
    /// tests below keep the names they had when the header was the
    /// direct miss fill's; what they pin is the header-only command.)
    fn header_only(ino: u64, size: u64) -> Vec<u8> {
        let mut hdr = Vec::new();
        crate::FileRequest::Truncate { ino, size }.encode(&mut hdr);
        hdr
    }

    #[test]
    fn zc_read_fill_round_trip_is_2_dmas() {
        // A command with neither payload moves no bytes beside its
        // descriptors: its header rides the SQE and its reply the CQE.
        let (mut ini, mut tgt, dma) = pair(8, 16 * 1024);
        let before = dma.snapshot();
        let hdr = header_only(42, 8192);
        ini.submit(DispatchType::Standalone, &hdr, b"", ReadSide::None)
            .unwrap();
        let inc = tgt.poll().unwrap();
        assert!(inc.sqe.is_inline());
        assert_eq!(inc.header, hdr);
        assert!(inc.payload.is_empty());
        tgt.complete(inc.slot, CqeStatus::Success, b"\x03\x00\x10\x00\x00", b"");
        let c = ini.wait();
        assert_eq!(c.header, b"\x03\x00\x10\x00\x00");
        assert!(c.payload.is_empty());
        let delta = dma.snapshot().since(&before);
        assert_eq!(delta.dma_ops, 2);
        assert_eq!(delta.dma_bytes, 64 + 16);
    }

    #[test]
    fn zc_and_classic_commands_interleave_with_buffer_recycling() {
        // A recycled Incoming must not leak an SQE-borne header into a
        // command whose header sits in its buffer, and vice versa.
        let (mut ini, mut tgt, _) = pair(8, 16 * 1024);
        let mut batch = IncomingBatch::new();
        let bare = header_only(1, 4096);
        let long = [0x4C; 40]; // too long for the SQE beside a payload
        ini.submit(DispatchType::Standalone, &bare, b"", ReadSide::None)
            .unwrap();
        ini.submit(DispatchType::Standalone, &long, b"classic", 0)
            .unwrap();
        assert_eq!(tgt.poll_many(&mut batch), 2);
        let [z, c] = [0, 1].map(|i| &batch.as_slice()[i]);
        assert!(z.sqe.is_inline() && !c.sqe.is_inline());
        assert_eq!((z.header.as_slice(), z.payload.len()), (&bare[..], 0));
        assert_eq!(c.header, long);
        assert_eq!(c.payload, b"classic");
        let (s0, s1) = (z.slot, c.slot);
        tgt.complete(s0, CqeStatus::Success, b"", b"");
        tgt.complete(s1, CqeStatus::Success, b"", b"");
        ini.wait();
        ini.wait();
        // Round 2: recycle the batch the other way around.
        ini.submit(DispatchType::Standalone, &long, b"plain", 0)
            .unwrap();
        ini.submit(DispatchType::Standalone, &bare, b"", ReadSide::None)
            .unwrap();
        assert_eq!(tgt.poll_many(&mut batch), 2);
        let [c, z] = [0, 1].map(|i| &batch.as_slice()[i]);
        assert_eq!(
            (c.header.as_slice(), c.payload.as_slice()),
            (&long[..], &b"plain"[..])
        );
        assert_eq!((z.header.as_slice(), z.payload.len()), (&bare[..], 0));
        let (s0, s1) = (c.slot, z.slot);
        tgt.complete(s0, CqeStatus::Success, b"", b"");
        tgt.complete(s1, CqeStatus::Success, b"", b"");
        ini.wait();
        ini.wait();
    }

    #[test]
    fn a_header_takes_a_dma_only_when_it_does_not_fit() {
        // Both sides of every capacity boundary, each direction, with and
        // without payload, several times round a 4-deep ring.
        let (mut ini, mut tgt, dma) = pair(4, 16 * 1024);
        let bytes: Vec<u8> = (0..64).map(|i| 0xA0 ^ i).collect();
        // (payload, read side, header bytes the SQE has room for)
        let shapes: [(usize, ReadSide, usize); 4] = [
            (8192, ReadSide::Buffer(0), 16),
            (0, ReadSide::Buffer(8192), 32),
            (8192, ReadSide::None, 32),
            (0, ReadSide::None, 48),
        ];
        for (wlen, read, room) in shapes {
            for hdr_len in [0, 1, room - 1, room, room + 1, 64] {
                for reply_len in [0, 1, CQE_INLINE_CAP, CQE_INLINE_CAP + 1] {
                    let buffered_reply = reply_len > CQE_INLINE_CAP;
                    if buffered_reply && read == ReadSide::None {
                        continue; // refused: see the corrupt-SQE test
                    }
                    let payload = vec![0x5A; wlen];
                    let rlen = match read {
                        ReadSide::Buffer(n) => n as usize,
                        ReadSide::None => 0,
                    };
                    let before = dma.snapshot();
                    ini.submit(DispatchType::Standalone, &bytes[..hdr_len], &payload, read)
                        .unwrap();
                    let inc = tgt.poll().unwrap();
                    assert_eq!(inc.sqe.is_inline(), hdr_len <= room);
                    assert_eq!(inc.header, bytes[..hdr_len]);
                    assert_eq!(inc.payload, payload);
                    tgt.complete(
                        inc.slot,
                        CqeStatus::Success,
                        &bytes[32..32 + reply_len],
                        &vec![0xC3; rlen],
                    );
                    let done = ini.wait();
                    assert_eq!(done.header, bytes[32..32 + reply_len]);
                    assert_eq!(done.payload, vec![0xC3; rlen]);
                    let buffered = if hdr_len > room { hdr_len } else { 0 };
                    let want = 1
                        + (buffered + wlen).div_ceil(4096)
                        + usize::from(buffered_reply)
                        + rlen.div_ceil(4096)
                        + 1;
                    assert_eq!(
                        dma.snapshot().since(&before).dma_ops as usize,
                        want,
                        "payload {wlen}, {read:?}, header {hdr_len}, reply {reply_len}"
                    );
                }
            }
        }
    }

    /// Complete `inc` by echoing `fill` back, `read_len` bytes long.
    fn reply_filled(tgt: &mut Target, inc: &Incoming, fill: u8) {
        let reply = vec![fill; inc.sqe.read_len() as usize];
        tgt.complete(inc.slot, CqeStatus::Success, b"", &reply);
    }

    /// The pool ranges `[write buf, read buf]` a fetched command's SQE names.
    fn named_ranges(inc: &Incoming) -> [(u64, u64); 2] {
        let sqe = &inc.sqe;
        let wlen = sqe.wh_len() as u64 + sqe.write_len() as u64;
        let rlen = sqe.rh_len() as u64 + sqe.read_len() as u64;
        [
            (sqe.prp_write().0, sqe.prp_write().0 + wlen),
            (sqe.prp_read().0, sqe.prp_read().0 + rlen),
        ]
    }

    #[test]
    fn outstanding_commands_never_share_a_buffer() {
        let (mut ini, mut tgt, _) = pair(8, 4096);
        let mut cids = Vec::new();
        for i in 0..7u8 {
            cids.push(
                ini.submit(DispatchType::Standalone, b"H", &[i; 1000], 2000)
                    .unwrap(),
            );
        }
        let mut sorted = cids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 7, "seven commands, seven buffers: {cids:?}");

        let mut batch = IncomingBatch::new();
        assert_eq!(tgt.poll_many(&mut batch), 7);
        let mut ranges: Vec<(u64, u64)> = batch.iter().flat_map(named_ranges).collect();
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "buffers overlap: {w:?}");
        }
        // Each command's bytes arrived intact and its own reply comes back
        // to it, whatever order the target completes in.
        for (i, inc) in batch.iter().enumerate().rev() {
            assert_eq!(inc.payload, vec![i as u8; 1000]);
            reply_filled(&mut tgt, inc, 0x80 | i as u8);
        }
        for _ in 0..7 {
            let c = ini.wait();
            let i = cids.iter().position(|&cid| cid == c.cid).unwrap();
            assert_eq!(c.payload, vec![0x80 | i as u8; 2000]);
        }
        assert_eq!(ini.outstanding(), 0);
    }

    #[test]
    fn the_buffer_just_freed_is_the_next_one_handed_out() {
        let (mut ini, mut tgt, _) = pair(8, 4096);
        let a = ini.submit(DispatchType::Standalone, b"", b"a", 1).unwrap();
        let b = ini.submit(DispatchType::Standalone, b"", b"b", 1).unwrap();
        assert_ne!(a, b);
        let inc_a = tgt.poll().unwrap();
        let inc_b = tgt.poll().unwrap();
        // B completes first: the next command reuses B's buffer, not a
        // fresh (cold) one and not A's.
        reply_filled(&mut tgt, &inc_b, 2);
        assert_eq!(ini.wait().cid, b);
        let c = ini.submit(DispatchType::Standalone, b"", b"c", 1).unwrap();
        assert_eq!(c, b);
        let inc_c = tgt.poll().unwrap();
        assert_eq!(named_ranges(&inc_c), named_ranges(&inc_b));
        reply_filled(&mut tgt, &inc_a, 1);
        assert_eq!(ini.wait().cid, a);
        assert_eq!(
            ini.submit(DispatchType::Standalone, b"", b"d", 1).unwrap(),
            a
        );
        // A lone command in flight keeps reusing one buffer.
        let (mut ini, mut tgt, _) = pair(8, 4096);
        for _ in 0..20 {
            assert_eq!(
                ini.submit(DispatchType::Standalone, b"", b"x", 1).unwrap(),
                0
            );
            echo_one(&mut tgt);
            ini.wait();
        }
    }

    #[test]
    fn depth_minus_one_outstanding_never_exhausts_the_buffers() {
        let (mut ini, mut tgt, _) = pair(4, 4096);
        for i in 0..3u8 {
            ini.submit(DispatchType::Standalone, b"", &[i], 1).unwrap();
        }
        // The ring is what is full; a buffer is still free.
        assert_eq!(ini.free_slots(), 0);
        assert_eq!(ini.free_bufs.len(), 1);
        assert_eq!(
            ini.submit(DispatchType::Standalone, b"", b"x", 1),
            Err(QueueFull)
        );
        // The target fetches all three but answers only the first: the ring
        // drains, and what then bounds the host is its buffers — two are
        // free, a third command has none to take.
        let first = tgt.poll().unwrap();
        let held = [tgt.poll().unwrap(), tgt.poll().unwrap()];
        reply_filled(&mut tgt, &first, 9);
        ini.wait();
        assert_eq!(ini.free_slots(), 2);
        ini.submit(DispatchType::Standalone, b"", b"y", 1).unwrap();
        ini.submit(DispatchType::Standalone, b"", b"z", 1).unwrap();
        assert_eq!(ini.outstanding(), 4);
        assert_eq!(
            ini.submit(DispatchType::Standalone, b"", b"!", 1),
            Err(QueueFull)
        );
        // Everything still completes, each reply to its own command.
        for inc in &held {
            reply_filled(&mut tgt, inc, inc.payload[0]);
        }
        echo_one(&mut tgt);
        echo_one(&mut tgt);
        let mut got: Vec<u8> = (0..4).map(|_| ini.wait().payload[0]).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, b'y', b'z']);
        assert_eq!(ini.outstanding(), 0);
    }

    #[test]
    fn ring_wraps_and_phase_flips_with_buffer_unequal_to_slot() {
        // One command stays in flight (holding buffer 0) while 30 others
        // go several times round the 4-deep rings, all through buffer 1:
        // every ring position carries it, three of the four under a CID
        // that is not the position's index.
        let (mut ini, mut tgt, _) = pair(4, 4096);
        let mut slots = std::collections::BTreeSet::new();
        let pinned = ini
            .submit(DispatchType::Standalone, b"", b"pinned", 6)
            .unwrap();
        let pinned_inc = tgt.poll().unwrap();
        for round in 0..30u32 {
            slots.insert(ini.sq_tail);
            let data = round.to_le_bytes();
            let cid = ini.submit(DispatchType::Standalone, b"", &data, 4).unwrap();
            assert_eq!(cid, 1);
            echo_one(&mut tgt);
            let c = ini.wait();
            assert_eq!((c.cid, c.payload.as_slice()), (cid, &data[..]));
        }
        assert_eq!(slots.len(), 4);
        tgt.complete(pinned_inc.slot, CqeStatus::Success, b"", b"pinned");
        let c = ini.wait();
        assert_eq!((c.cid, c.payload.as_slice()), (pinned, &b"pinned"[..]));
    }

    #[test]
    fn classic_sgl_and_header_only_commands_interleave_over_the_pool() {
        let (mut ini, mut tgt, _) = pair(8, 16 * 1024);
        let mut batch = IncomingBatch::new();
        for round in 0..6u8 {
            let seg = vec![round; 700];
            let bare = header_only(7, round as u64 * 4096);
            let classic = ini
                .submit(DispatchType::Standalone, b"C", &[round; 300], 50)
                .unwrap();
            let bare_cid = ini
                .submit(DispatchType::Standalone, &bare, b"", ReadSide::None)
                .unwrap();
            let sgl = ini
                .submit_sgl(DispatchType::Standalone, b"S", &[&seg, &seg], 60)
                .unwrap();
            assert_eq!(tgt.poll_many(&mut batch), 3);
            let [c, z, s] = [0, 1, 2].map(|i| &batch.as_slice()[i]);
            assert_eq!((c.slot, z.slot, s.slot), (classic, bare_cid, sgl));
            assert_eq!((c.header.as_slice(), c.payload.len()), (&b"C"[..], 300));
            assert_eq!((z.header.as_slice(), z.payload.len()), (&bare[..], 0));
            assert_eq!((s.header.as_slice(), s.payload.len()), (&b"S"[..], 1400));
            // Out of order, the header-only one in the middle.
            tgt.complete(s.slot, CqeStatus::Success, b"", &[round; 60]);
            tgt.complete(z.slot, CqeStatus::Success, &[3, round, 0, 0, 0], b"");
            tgt.complete(c.slot, CqeStatus::Success, b"", &[round; 50]);
            for _ in 0..3 {
                let done = ini.wait();
                match done.cid {
                    cid if cid == classic => assert_eq!(done.payload, vec![round; 50]),
                    cid if cid == sgl => assert_eq!(done.payload, vec![round; 60]),
                    cid => {
                        assert_eq!(cid, bare_cid);
                        assert!(done.payload.is_empty());
                        assert_eq!(done.header, [3, round, 0, 0, 0]);
                    }
                }
            }
            assert_eq!(ini.outstanding(), 0);
        }
    }

    #[test]
    fn an_abandoned_commands_buffer_returns_only_when_its_late_cqe_drains() {
        // The caller of `lost` gives up waiting (a timeout, one layer up).
        // Its buffer must not go to anyone else while the target may still
        // write the late reply into it.
        let (mut ini, mut tgt, _) = pair(4, 4096);
        let lost = ini
            .submit(DispatchType::Standalone, b"", b"lost", 4096 - 64)
            .unwrap();
        let lost_inc = tgt.poll().unwrap();
        for round in 0..10u8 {
            let cid = ini
                .submit(DispatchType::Standalone, b"", &[round; 8], 8)
                .unwrap();
            assert_ne!(cid, lost);
            echo_one(&mut tgt);
            assert_eq!(ini.wait().payload, vec![round; 8]);
            assert_eq!(ini.outstanding(), 1);
        }
        // The late reply lands — a whole buffer of it — and hurts nobody.
        let live = ini
            .submit(DispatchType::Standalone, b"", b"live", 4)
            .unwrap();
        reply_filled(&mut tgt, &lost_inc, 0xEE);
        echo_one(&mut tgt);
        let late = ini.wait();
        assert_eq!((late.cid, late.payload.len()), (lost, 4096 - 64));
        let done = ini.wait();
        assert_eq!((done.cid, done.payload.as_slice()), (live, &b"live"[..]));
        // Only now is the buffer back, and first in line.
        assert_eq!(ini.outstanding(), 0);
        ini.submit(DispatchType::Standalone, b"", b"a", 0).unwrap();
        assert_eq!(
            ini.submit(DispatchType::Standalone, b"", b"b", 0).unwrap(),
            lost
        );
    }

    /// Stage a command with `header` and a 100-byte payload, let `corrupt`
    /// rewrite its SQE in host memory, then ring the doorbell. Returns the
    /// CID.
    fn submit_corrupted(
        ini: &mut Initiator,
        header: &[u8],
        read: ReadSide,
        corrupt: impl FnOnce(&mut Sqe),
    ) -> u16 {
        let at = ini.sq_tail as usize * SQE_SIZE;
        let cid = ini
            .stage(DispatchType::Standalone, header, &[7u8; 100], read)
            .unwrap();
        let mut raw = [0u8; SQE_SIZE];
        ini.shared.sq_mem.read_local(at, &mut raw);
        let mut sqe = Sqe::from_bytes(&raw);
        corrupt(&mut sqe);
        ini.shared.sq_mem.write_local(at, &sqe.to_bytes());
        ini.publish_tail();
        cid
    }

    #[test]
    fn corrupt_sqe_ranges_are_refused_not_followed() {
        // Regression: the target fed the SQE's PRP offsets and lengths to
        // `dma_read` / `dma_write` unchecked, so a corrupt SQE panicked
        // inside `HostRegion` and took the service thread with it.
        let (mut ini, mut tgt, _) = pair(4, 4096);
        let pool_len = 4 * 2 * 4096u64;
        type Corrupt = fn(&mut Sqe);
        let classic: [(&str, Corrupt); 7] = [
            ("write buffer past the pool", |s| {
                s.set_prp_write(4 * 2 * 4096 - 50, 0);
            }),
            ("write buffer address wraps", |s| {
                s.set_prp_write(u64::MAX - 10, 0);
            }),
            ("write length larger than a buffer", |s| {
                s.set_write_len(4097);
            }),
            ("write length larger than the pool", |s| {
                s.set_write_len(u32::MAX);
            }),
            ("read buffer past the pool", |s| {
                s.set_prp_read(4 * 2 * 4096 - 100, 0);
            }),
            ("read buffer address wraps", |s| {
                s.set_prp_read(u64::MAX, 0);
            }),
            ("read length larger than a buffer", |s| {
                s.set_read_len(4096);
            }),
        ];
        // The inline form's bytes are host-written like the rest. A
        // 3-byte header beside a payload and a read side has 16 bytes of
        // room (12 under an SGL PSDT: Dword 12 is not among them), a
        // 30-byte one needs the PRP-Read Dwords a read side would take.
        let with_read = ReadSide::Buffer(64);
        let inline: [(&str, &[u8], ReadSide, Corrupt); 6] = [
            (
                "inline header one byte past the room",
                b"HDR",
                with_read,
                |s| {
                    s.set_wh_len(17);
                },
            ),
            ("inline header of 65535 bytes", b"HDR", with_read, |s| {
                s.set_wh_len(u16::MAX);
            }),
            (
                "inline header claiming Dword 12 under SGL",
                b"HDR",
                with_read,
                |s| {
                    s.set_psdt(Psdt::SglWrite).set_wh_len(16);
                },
            ),
            // Bit 11 of Dword 0, which only `set_inline_header` ever sets.
            (
                "inline flag forged onto a buffered header",
                &[0x48; 40],
                with_read,
                |s| {
                    let mut raw = s.to_bytes();
                    raw[1] |= 1 << 3;
                    *s = Sqe::from_bytes(&raw);
                },
            ),
            (
                "inline header outgrowing a forged read side",
                &[0x48; 30],
                ReadSide::None,
                |s| {
                    s.set_rh_len(64).set_prp_read(u64::MAX, 0);
                },
            ),
            ("no such command id", b"HDR", with_read, |s| {
                s.set_cid(4);
            }),
        ];
        let corruptions = classic
            .into_iter()
            .map(|(what, corrupt)| (what, &b"HDR"[..], with_read, corrupt))
            .chain(inline);
        for (i, (what, header, read, corrupt)) in corruptions.enumerate() {
            let cid = submit_corrupted(&mut ini, header, read, corrupt);
            assert!(tgt.poll().is_none(), "{what}: nothing to serve");
            assert_eq!(ini.rejected_sqes(), i as u64 + 1, "{what}");
            if what == "no such command id" {
                // Nobody to answer: the host's command stays in flight
                // (its caller times out), the queue keeps working.
                assert!(ini.poll().is_none(), "{what}");
                assert_eq!(ini.outstanding(), 1, "{what}");
            } else {
                let done = ini.poll().expect(what);
                assert_eq!((done.cid, done.status), (cid, CqeStatus::InvalidCommand));
                assert!(done.header.is_empty() && done.payload.is_empty(), "{what}");
                assert_eq!(ini.outstanding(), 0, "{what}");
            }
        }
        // An SGL descriptor is host-written too.
        let (mut ini, mut tgt, _) = pair(4, 4096);
        let seg = [5u8; 64];
        ini.submit_sgl(DispatchType::Standalone, b"H", &[&seg], 0)
            .unwrap();
        ini.shared
            .data_pool
            .write_local(16, &(pool_len - 8).to_le_bytes()); // 2nd descriptor's address
        assert!(tgt.poll().is_none());
        assert_eq!(ini.wait().status, CqeStatus::InvalidCommand);
        ini.submit_sgl(DispatchType::Standalone, b"H", &[&seg], 0)
            .unwrap();
        ini.shared.data_pool.write_local(24, &65u32.to_le_bytes()); // … and its length
        assert!(tgt.poll().is_none());
        assert_eq!(ini.wait().status, CqeStatus::InvalidCommand);
        assert_eq!(ini.rejected_sqes(), 2);

        // A reply that outgrows the read buffer the SQE described is not
        // written anywhere either.
        ini.submit(DispatchType::Standalone, b"", b"", 16).unwrap();
        let inc = tgt.poll().unwrap();
        tgt.complete(inc.slot, CqeStatus::Success, b"", &[1u8; 17]);
        let done = ini.wait();
        assert_eq!(done.status, CqeStatus::InvalidCommand);
        assert!(done.payload.is_empty());
        assert_eq!(ini.rejected_sqes(), 3);

        // No read side declared, and a reply that needs one — a header
        // the CQE cannot hold, or any payload — is refused the same way;
        // a reply the CQE holds is all such a command can get.
        for (header, payload) in [(&b"6bytes"[..], &b""[..]), (b"", b"p"), (b"5byte", b"")] {
            let cid = ini
                .submit(DispatchType::Standalone, b"HDR", b"", ReadSide::None)
                .unwrap();
            let inc = tgt.poll().unwrap();
            let before = ini.rejected_sqes();
            tgt.complete(inc.slot, CqeStatus::Success, header, payload);
            let done = ini.wait();
            if header.len() <= CQE_INLINE_CAP && payload.is_empty() {
                assert_eq!((done.cid, done.status), (cid, CqeStatus::Success));
                assert_eq!(done.header, header);
                assert_eq!(ini.rejected_sqes(), before);
            } else {
                assert_eq!((done.cid, done.status), (cid, CqeStatus::InvalidCommand));
                assert!(done.header.is_empty() && done.payload.is_empty());
                assert_eq!(ini.rejected_sqes(), before + 1);
            }
        }

        // Header bytes in the PRP Dwords are never followed as addresses:
        // all-ones would be far outside the pool.
        let before = ini.rejected_sqes();
        for (len, read) in [(48, ReadSide::None), (32, ReadSide::Buffer(16))] {
            ini.submit(DispatchType::Standalone, &[0xFF; 48][..len], b"", read)
                .unwrap();
            let inc = tgt.poll().expect("served, not refused");
            assert_eq!(inc.header, [0xFF; 48][..len]);
            tgt.complete(inc.slot, CqeStatus::Success, b"ok", b"");
            assert_eq!(ini.wait().header, b"ok");
        }
        assert_eq!(ini.rejected_sqes(), before);

        // A CQE for a CID that is not in flight is skipped whole, inline
        // header bytes included; the one behind it is delivered.
        let cid = ini
            .submit(DispatchType::Standalone, b"", b"", ReadSide::None)
            .unwrap();
        let inc = tgt.poll().unwrap();
        tgt.post_cqe((cid + 1) % 4, CqeStatus::Success, 0, b"stale");
        tgt.complete(inc.slot, CqeStatus::Success, b"mine", b"");
        let done = ini.wait();
        assert_eq!((done.cid, done.header.as_slice()), (cid, &b"mine"[..]));
        assert_eq!(ini.outstanding(), 0);

        // And the pair still serves well-formed commands.
        ini.submit(DispatchType::Standalone, b"", b"fine", 4)
            .unwrap();
        echo_one(&mut tgt);
        assert_eq!(ini.wait().payload, b"fine");
    }

    #[test]
    fn sgl_round_trips_through_ring_wrap() {
        let (mut ini, mut tgt, _) = pair(4, 16 * 1024);
        for round in 0..10u8 {
            let seg = vec![round; 500];
            ini.submit_sgl(DispatchType::Standalone, b"", &[&seg, &seg], 100)
                .unwrap();
            let inc = tgt.poll().unwrap();
            assert_eq!(inc.payload, [vec![round; 500], vec![round; 500]].concat());
            tgt.complete(inc.slot, CqeStatus::Success, b"", &[round; 100]);
            let c = ini.wait();
            assert_eq!(c.payload, vec![round; 100]);
        }
    }
    const HOUR: Duration = Duration::from_secs(3600);

    #[test]
    fn a_doorbell_rung_between_the_targets_check_and_its_park_is_not_lost() {
        // The target has published itself asleep and re-read the doorbell
        // (nothing there); the host rings before it parks. The ring's
        // unpark makes that park return at once — not after the hour.
        let (mut ini, mut tgt, dma) = pair(8, 4096);
        let before = dma.snapshot();
        let shared = tgt.shared.clone();
        let slept = shared.sq_sleeper.sleep_unless(HOUR, || {
            ini.submit(DispatchType::Standalone, b"", b"ping", 4)
                .unwrap();
            false
        });
        assert!(slept);
        assert_eq!(ini.doorbell_wakes(), 1);
        // A wake is not a doorbell of its own, and not a DMA.
        let rung = dma.snapshot().since(&before);
        assert_eq!((rung.doorbells, rung.dma_ops), (1, 0));
        // With the doorbell standing past its head the target does not
        // sleep at all.
        assert!(!tgt.park(HOUR));
        echo_one(&mut tgt);
        assert_eq!(ini.wait().payload, b"ping");
    }

    #[test]
    fn a_target_that_never_parks_is_never_woken() {
        let (mut ini, mut tgt, _) = pair(4, 4096);
        for round in 0..23u8 {
            ini.submit(DispatchType::Standalone, b"", &[round], 1)
                .unwrap();
            echo_one(&mut tgt);
            assert_eq!(ini.wait().payload, [round]);
        }
        let mut batch = ini.batch();
        batch
            .submit(DispatchType::Standalone, b"", b"a", 1)
            .unwrap();
        batch
            .submit(DispatchType::Standalone, b"", b"b", 1)
            .unwrap();
        batch.commit();
        assert_eq!(ini.doorbell_wakes(), 0);
    }

    #[test]
    fn every_ring_reaches_a_target_that_parks_on_each_empty_poll() {
        // No yield tier in front of the park and no timeout to fall back
        // on: each of these round trips races the host's ring against the
        // target's check-then-park, and a single lost wake-up hangs it.
        let (mut ini, mut tgt, _) = pair(8, 4096);
        const N: u32 = 2_000;
        let dpu = std::thread::spawn(move || {
            let mut served = 0;
            while served < N {
                match tgt.poll() {
                    Some(inc) => {
                        tgt.complete(inc.slot, CqeStatus::Success, b"", &inc.payload);
                        served += 1;
                    }
                    None => {
                        tgt.park(HOUR);
                    }
                }
            }
        });
        for i in 0..N {
            ini.submit(DispatchType::Standalone, b"", &i.to_le_bytes(), 4)
                .unwrap();
            assert_eq!(ini.wait().payload, i.to_le_bytes());
        }
        dpu.join().unwrap();
        assert!(ini.doorbell_wakes() <= N as u64);
    }
}
