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
//! data_pool: depth × 2 × max_io_bytes   (slot i: [write buf][read buf])
//! ```
//!
//! Doorbells are device registers (host-side MMIO writes, counted as
//! doorbells, read locally by the DPU — a register read crosses no DMA).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use dpc_pcie::{DmaEngine, HostRegion};

use crate::sqe::{Cqe, CqeStatus, DispatchType, Sqe, ZcOp, CQE_SIZE, SQE_SIZE};

/// Reserved space at the start of every read buffer for the response
/// header: `[u16 actual-header-len][header bytes ...]`, payload follows at
/// this offset.
pub const READ_HEADER_CAP: usize = 64;

/// Space reserved for the SGL descriptor list at the head of a slot's
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
    /// Per-direction buffer capacity of one command slot.
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
    /// CQ head doorbell: host-written register (consumed CQE count).
    pub(crate) cq_head_db: AtomicU32,
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
                cq_head_db: AtomicU32::new(0),
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
                slot_busy: vec![false; depth as usize],
                slot_zc: vec![false; depth as usize],
            },
            Target {
                shared: self.shared,
                dma,
                sq_head: 0,
                cq_tail: 0,
                cq_phase: true,
                scratch: Vec::new(),
                sgl_scratch: Vec::new(),
            },
        )
    }
}

/// Offsets of slot `i`'s write and read buffers inside the data pool.
fn slot_offsets(cfg: &QueuePairConfig, slot: u16) -> (usize, usize) {
    let base = slot as usize * 2 * cfg.max_io_bytes;
    (base, base + cfg.max_io_bytes)
}

/// Error returned when the submission ring (or every slot) is full.
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
    /// The command was zero-copy: `result` is a byte count, not a
    /// payload length, and `header`/`payload` are empty by design.
    pub zc: bool,
}

impl Default for Completion {
    fn default() -> Self {
        Completion {
            cid: 0,
            status: CqeStatus::Success,
            result: 0,
            header: Vec::new(),
            payload: Vec::new(),
            zc: false,
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

/// One operation for [`Initiator::submit_many`].
#[derive(Copy, Clone, Debug)]
pub struct SubmitOp<'a> {
    pub dispatch: DispatchType,
    pub header: &'a [u8],
    pub write_payload: &'a [u8],
    pub read_len: u32,
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
    slot_busy: Vec<bool>,
    /// Slots whose in-flight command is zero-copy: their completions are
    /// CQE-only (`result` is a count, not a payload length).
    slot_zc: Vec<bool>,
}

impl Initiator {
    pub fn queue_id(&self) -> u16 {
        self.shared.id
    }

    pub fn depth(&self) -> u16 {
        self.shared.cfg.depth
    }

    fn ring_free(&self) -> bool {
        (self.sq_tail + 1) % self.shared.cfg.depth != self.sq_head_seen
    }

    /// Number of commands that can be staged right now without draining
    /// completions: bounded by the ring's free span and by busy slots whose
    /// completions have not been consumed yet.
    pub fn free_slots(&self) -> usize {
        let depth = self.shared.cfg.depth;
        let ring_free = (self.sq_head_seen + depth - self.sq_tail - 1) % depth;
        let mut n = 0usize;
        while n < ring_free as usize {
            let slot = (self.sq_tail as usize + n) % depth as usize;
            if self.slot_busy[slot] {
                break;
            }
            n += 1;
        }
        n
    }

    /// Publish the staged SQ tail and ring the doorbell — exactly one MMIO
    /// doorbell regardless of how many SQEs were staged since the last
    /// publish.
    fn publish_tail(&mut self) {
        self.shared
            .sq_tail_db
            .store(self.sq_tail as u32, Ordering::Release);
        self.dma.ring_doorbell();
    }

    /// Stage one command into the ring without publishing the tail.
    fn stage(
        &mut self,
        dispatch: DispatchType,
        header: &[u8],
        write_payload: &[u8],
        read_len: u32,
    ) -> Result<u16, QueueFull> {
        let cfg = &self.shared.cfg;
        assert!(
            header.len() + write_payload.len() <= cfg.max_io_bytes,
            "write side exceeds slot capacity"
        );
        assert!(
            READ_HEADER_CAP + read_len as usize <= cfg.max_io_bytes,
            "read side exceeds slot capacity"
        );
        assert!(header.len() <= u16::MAX as usize, "header too large");
        if !self.ring_free() {
            return Err(QueueFull);
        }
        let slot = self.sq_tail;
        if self.slot_busy[slot as usize] {
            return Err(QueueFull);
        }

        // Host CPU fills the slot's write buffer (local stores, no DMA).
        let (woff, roff) = slot_offsets(cfg, slot);
        if !header.is_empty() {
            self.shared.data_pool.write_local(woff, header);
        }
        if !write_payload.is_empty() {
            self.shared
                .data_pool
                .write_local(woff + header.len(), write_payload);
        }

        // Build the SQE with the paper's bidirectional layout.
        let mut sqe = Sqe::new();
        sqe.set_cid(slot)
            .set_dispatch(dispatch)
            .set_prp_write(woff as u64, 0)
            .set_prp_read(roff as u64, 0)
            .set_write_len(write_payload.len() as u32)
            .set_read_len(read_len)
            .set_wh_len(header.len() as u16)
            .set_rh_len(READ_HEADER_CAP as u16);
        self.shared
            .sq_mem
            .write_local(slot as usize * SQE_SIZE, &sqe.to_bytes());

        self.slot_busy[slot as usize] = true;
        self.slot_zc[slot as usize] = false;
        self.sq_tail = (self.sq_tail + 1) % cfg.depth;
        Ok(slot)
    }

    /// Submit a bidirectional command: `header ‖ write_payload` goes into
    /// the slot's write buffer; up to `read_len` payload bytes are expected
    /// back. Returns the CID (equal to the slot index).
    pub fn submit(
        &mut self,
        dispatch: DispatchType,
        header: &[u8],
        write_payload: &[u8],
        read_len: u32,
    ) -> Result<u16, QueueFull> {
        let slot = self.stage(dispatch, header, write_payload, read_len)?;
        self.publish_tail();
        Ok(slot)
    }

    /// Stage one SGL command into the ring without publishing the tail.
    fn stage_sgl(
        &mut self,
        dispatch: DispatchType,
        header: &[u8],
        segments: &[&[u8]],
        read_len: u32,
    ) -> Result<u16, QueueFull> {
        let cfg = &self.shared.cfg;
        assert!(!segments.is_empty(), "an SGL needs at least one segment");
        assert!(segments.len() <= SGL_MAX_SEGMENTS, "too many SGL segments");
        let payload_len: usize = segments.iter().map(|s| s.len()).sum();
        assert!(
            SGL_LIST_CAP + header.len() + payload_len <= cfg.max_io_bytes,
            "write side exceeds slot capacity"
        );
        assert!(
            READ_HEADER_CAP + read_len as usize <= cfg.max_io_bytes,
            "read side exceeds slot capacity"
        );
        if !self.ring_free() {
            return Err(QueueFull);
        }
        let slot = self.sq_tail;
        if self.slot_busy[slot as usize] {
            return Err(QueueFull);
        }

        // Slot layout in SGL mode: [descriptor list][header][segments...].
        // Host-local stores throughout (the app's buffers are already in
        // DMA-able memory; we re-stage them here to give each segment a
        // distinct device-visible address).
        let (woff, roff) = slot_offsets(cfg, slot);
        let mut desc_block = Vec::with_capacity(16 * (segments.len() + 1));
        let mut cursor = woff + SGL_LIST_CAP;
        if !header.is_empty() {
            self.shared.data_pool.write_local(cursor, header);
        }
        // First descriptor covers the header (zero-length allowed).
        desc_block.extend_from_slice(&(cursor as u64).to_le_bytes());
        desc_block.extend_from_slice(&(header.len() as u32).to_le_bytes());
        desc_block.extend_from_slice(&0u32.to_le_bytes());
        cursor += header.len();
        for seg in segments {
            self.shared.data_pool.write_local(cursor, seg);
            desc_block.extend_from_slice(&(cursor as u64).to_le_bytes());
            desc_block.extend_from_slice(&(seg.len() as u32).to_le_bytes());
            desc_block.extend_from_slice(&0u32.to_le_bytes());
            cursor += seg.len();
        }
        self.shared.data_pool.write_local(woff, &desc_block);

        let mut sqe = Sqe::new();
        sqe.set_cid(slot)
            .set_dispatch(dispatch)
            .set_psdt(crate::sqe::Psdt::SglWrite)
            .set_prp_write(woff as u64, 0) // points at the SGL list
            .set_prp_read(roff as u64, 0)
            .set_write_len(payload_len as u32)
            .set_read_len(read_len)
            .set_sgl_count(segments.len() as u32 + 1)
            .set_wh_len(header.len() as u16)
            .set_rh_len(READ_HEADER_CAP as u16);
        self.shared
            .sq_mem
            .write_local(slot as usize * SQE_SIZE, &sqe.to_bytes());

        self.slot_busy[slot as usize] = true;
        self.slot_zc[slot as usize] = false;
        self.sq_tail = (self.sq_tail + 1) % cfg.depth;
        Ok(slot)
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
        read_len: u32,
    ) -> Result<u16, QueueFull> {
        let slot = self.stage_sgl(dispatch, header, segments, read_len)?;
        self.publish_tail();
        Ok(slot)
    }

    /// Submit a zero-copy read-miss fill of `[offset, offset + len)`: the
    /// request rides entirely in the SQE (no header bytes, no staging
    /// copy, the slot's buffers are not touched), the DPU lands the
    /// backend extent straight in the cache page pool, and the reply is a
    /// bare CQE — SQE fetch + CQE are the only DMAs on the command path.
    pub fn submit_zc(&mut self, ino: u64, offset: u64, len: u32) -> Result<u16, QueueFull> {
        if !self.ring_free() {
            return Err(QueueFull);
        }
        let slot = self.sq_tail;
        if self.slot_busy[slot as usize] {
            return Err(QueueFull);
        }
        let mut sqe = Sqe::new();
        sqe.set_cid(slot)
            .set_dispatch(DispatchType::Standalone)
            .set_zc(ZcOp::ReadFill)
            .set_zc_ino(ino)
            .set_zc_offset(offset)
            .set_write_len(len)
            .set_wh_len(0)
            .set_rh_len(0);
        self.shared
            .sq_mem
            .write_local(slot as usize * SQE_SIZE, &sqe.to_bytes());

        self.slot_busy[slot as usize] = true;
        self.slot_zc[slot as usize] = true;
        self.sq_tail = (self.sq_tail + 1) % self.shared.cfg.depth;
        self.publish_tail();
        Ok(slot)
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

    /// Submit a batch of commands under a single doorbell. All-or-nothing:
    /// fails with [`QueueFull`] (staging nothing) when fewer than
    /// `ops.len()` slots are free. Returns the CID of the first op; the
    /// rest occupy consecutive slots modulo the ring depth.
    pub fn submit_many(&mut self, ops: &[SubmitOp<'_>]) -> Result<u16, QueueFull> {
        assert!(!ops.is_empty(), "submit_many needs at least one op");
        if self.free_slots() < ops.len() {
            return Err(QueueFull);
        }
        let mut batch = self.batch();
        let mut first = 0;
        for (i, op) in ops.iter().enumerate() {
            let cid = batch
                .submit(op.dispatch, op.header, op.write_payload, op.read_len)
                .expect("capacity checked up front");
            if i == 0 {
                first = cid;
            }
        }
        batch.commit();
        Ok(first)
    }

    /// Consume the CQE at the head, if fresh. Advances head/phase and flow
    /// control but does **not** publish the head doorbell — callers batch
    /// that into one store per poll pass.
    fn pop_cqe(&mut self) -> Option<Cqe> {
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
        self.slot_busy[cqe.cid as usize] = false;
        Some(cqe)
    }

    /// Publish the consumed CQ head back to the device (one register store).
    fn publish_cq_head(&mut self) {
        self.shared
            .cq_head_db
            .store(self.cq_head as u32, Ordering::Release);
    }

    /// Copy a consumed CQE's response header and payload into `out`,
    /// reusing its buffers. Host-local reads; no DMA.
    fn fill_completion(&mut self, cqe: &Cqe, out: &mut Completion) {
        let (_, roff) = slot_offsets(&self.shared.cfg, cqe.cid);
        out.cid = cqe.cid;
        out.status = cqe.status;
        out.result = cqe.result;
        out.header.clear();
        out.payload.clear();
        // A zero-copy completion is CQE-only: `result` is the filled
        // byte count, not the length of a payload in the slot.
        out.zc = std::mem::replace(&mut self.slot_zc[cqe.cid as usize], false);
        if out.zc {
            return;
        }
        if cqe.hdr_len > 0 {
            out.header.resize(cqe.hdr_len as usize, 0);
            self.shared.data_pool.read_local(roff, &mut out.header);
        }
        if cqe.result > 0 {
            out.payload.resize(cqe.result as usize, 0);
            self.shared
                .data_pool
                .read_local(roff + READ_HEADER_CAP, &mut out.payload);
        }
    }

    /// Poll the completion queue; returns at most one completion.
    pub fn poll(&mut self) -> Option<Completion> {
        let cqe = self.pop_cqe()?;
        self.publish_cq_head();
        let mut out = Completion::default();
        self.fill_completion(&cqe, &mut out);
        Some(out)
    }

    /// Drain every available completion into `out` (recycling its buffers)
    /// with a single CQ-head doorbell store at the end of the pass.
    /// Returns the number of completions drained.
    pub fn poll_many(&mut self, out: &mut CompletionBatch) -> usize {
        out.clear();
        while let Some(cqe) = self.pop_cqe() {
            // Split borrows: take the slot first, then fill it.
            let slot = out.next_slot();
            self.fill_completion(&cqe, slot);
        }
        if !out.is_empty() {
            self.publish_cq_head();
        }
        out.len()
    }

    /// Spin until a completion arrives (test/demo helper).
    pub fn wait(&mut self) -> Completion {
        loop {
            if let Some(c) = self.poll() {
                return c;
            }
            std::hint::spin_loop();
        }
    }

    /// Commands currently in flight.
    pub fn outstanding(&self) -> usize {
        self.slot_busy.iter().filter(|&&b| b).count()
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
        read_len: u32,
    ) -> Result<u16, QueueFull> {
        let slot = self.ini.stage(dispatch, header, write_payload, read_len)?;
        self.staged += 1;
        Ok(slot)
    }

    /// Stage one SGL command; see [`Initiator::submit_sgl`].
    pub fn submit_sgl(
        &mut self,
        dispatch: DispatchType,
        header: &[u8],
        segments: &[&[u8]],
        read_len: u32,
    ) -> Result<u16, QueueFull> {
        let slot = self.ini.stage_sgl(dispatch, header, segments, read_len)?;
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

/// A decoded zero-copy read-fill command (DESIGN.md §15): the SQE
/// carried the whole request; the dispatcher lands backend bytes for
/// `[offset, offset + len)` directly in pool pages.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ZcCmd {
    pub ino: u64,
    pub offset: u64,
    /// Requested fill length in bytes.
    pub len: u32,
}

/// A command as seen by the DPU target.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Incoming {
    pub sqe: Sqe,
    /// Slot index (== CID) to pass back to [`Target::complete`].
    pub slot: u16,
    /// The request header (`WH_len` bytes).
    pub header: Vec<u8>,
    /// The write payload.
    pub payload: Vec<u8>,
    /// Decoded zero-copy command, when the SQE carries one; `header`
    /// and `payload` stay empty (nothing was gathered).
    pub zc: Option<ZcCmd>,
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
}

impl<'a> IntoIterator for &'a IncomingBatch {
    type Item = &'a Incoming;
    type IntoIter = core::slice::Iter<'a, Incoming>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// DPU-side NVME-TGT driver for one queue pair.
pub struct Target {
    shared: Arc<QpShared>,
    dma: DmaEngine,
    sq_head: u16,
    cq_tail: u16,
    cq_phase: bool,
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

    /// Fetch the SQE at the current head and gather its write side into
    /// `out`, reusing `out`'s buffers and the target's scratch space.
    /// Advances the SQ head. The caller has already checked availability.
    ///
    /// DMA accounting: 1 op for the SQE fetch plus
    /// `ceil((WH_len + Write_len) / 4096)` ops for the write buffer
    /// (page-granularity PRP transfers), or list + per-segment ops in SGL
    /// mode.
    fn fill_incoming(&mut self, out: &mut Incoming) {
        let slot = self.sq_head;
        // ① fetch the SQE.
        let mut raw = [0u8; SQE_SIZE];
        self.dma
            .dma_read(&self.shared.sq_mem, slot as usize * SQE_SIZE, &mut raw);
        let sqe = Sqe::from_bytes(&raw);

        // Zero-copy command: there is no write side to gather — the SQE
        // fetch above is the only request-path DMA.
        if sqe.zc_op().is_some() {
            out.header.clear();
            out.payload.clear();
            out.zc = Some(ZcCmd {
                ino: sqe.zc_ino(),
                offset: sqe.zc_offset(),
                len: sqe.write_len(),
            });
            out.sqe = sqe;
            out.slot = slot;
            self.sq_head = (self.sq_head + 1) % self.shared.cfg.depth;
            return;
        }
        out.zc = None;

        // ② locate the write buffer and ③ read the request header +
        // payload. PRP mode: page-granular DMAs over the contiguous
        // buffer. SGL mode: fetch the descriptor list, then one DMA per
        // scattered segment.
        let woff = sqe.prp_write().0 as usize;
        let total = sqe.wh_len() as usize + sqe.write_len() as usize;
        let sgl_write = matches!(
            sqe.psdt(),
            crate::sqe::Psdt::SglWrite | crate::sqe::Psdt::SglBoth
        );
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        if sgl_write {
            let count = sqe.sgl_count() as usize;
            let mut list = std::mem::take(&mut self.sgl_scratch);
            list.clear();
            list.resize(count * 16, 0);
            self.dma.dma_read(&self.shared.data_pool, woff, &mut list);
            for d in 0..count {
                let addr =
                    u64::from_le_bytes(list[d * 16..d * 16 + 8].try_into().unwrap()) as usize;
                let len =
                    u32::from_le_bytes(list[d * 16 + 8..d * 16 + 12].try_into().unwrap()) as usize;
                if len == 0 {
                    continue;
                }
                let start = buf.len();
                buf.resize(start + len, 0);
                self.dma
                    .dma_read(&self.shared.data_pool, addr, &mut buf[start..]);
            }
            debug_assert_eq!(buf.len(), total, "SGL descriptors cover the payload");
            self.sgl_scratch = list;
        } else {
            buf.resize(total, 0);
            let mut pos = 0;
            while pos < total {
                let n = (total - pos).min(4096);
                self.dma
                    .dma_read(&self.shared.data_pool, woff + pos, &mut buf[pos..pos + n]);
                pos += n;
            }
        }
        let wh = sqe.wh_len() as usize;
        out.header.clear();
        out.header.extend_from_slice(&buf[..wh]);
        out.payload.clear();
        out.payload.extend_from_slice(&buf[wh..]);
        out.sqe = sqe;
        out.slot = slot;
        self.scratch = buf;

        self.sq_head = (self.sq_head + 1) % self.shared.cfg.depth;
    }

    /// Poll the SQ doorbell; fetch and decode one SQE if available.
    pub fn poll(&mut self) -> Option<Incoming> {
        let tail = self.shared.sq_tail_db.load(Ordering::Acquire) as u16;
        if tail == self.sq_head {
            return None;
        }
        let mut out = Incoming::default();
        self.fill_incoming(&mut out);
        Some(out)
    }

    /// Drain every SQE published by the last doorbell into `out`,
    /// recycling its buffers: one doorbell-register read per pass, however
    /// many commands arrived. Returns the number of commands fetched.
    pub fn poll_many(&mut self, out: &mut IncomingBatch) -> usize {
        out.clear();
        let tail = self.shared.sq_tail_db.load(Ordering::Acquire) as u16;
        while self.sq_head != tail {
            let slot = out.next_slot();
            self.fill_incoming(slot);
        }
        out.len()
    }

    /// Complete a command: DMA the response header and read payload into
    /// the slot's read buffer, then ④ post the CQE.
    ///
    /// DMA accounting: 1 op for the header when one is present,
    /// `ceil(payload / 4096)` ops for payload, plus 1 for the CQE. A
    /// header-less, payload-less completion (e.g. acknowledging a raw
    /// write) therefore costs exactly one CQE DMA — which is what keeps
    /// the raw 8 KiB write at the paper's 4 DMA operations.
    pub fn complete(&mut self, slot: u16, status: CqeStatus, header: &[u8], payload: &[u8]) {
        let cfg = &self.shared.cfg;
        assert!(header.len() <= READ_HEADER_CAP, "response header too big");
        assert!(
            READ_HEADER_CAP + payload.len() <= cfg.max_io_bytes,
            "read payload exceeds slot capacity"
        );
        let (_, roff) = slot_offsets(cfg, slot);

        // Response header (single DMA: it fits one page).
        if !header.is_empty() {
            self.dma.dma_write(&self.shared.data_pool, roff, header);
        }

        // Payload, page by page.
        let mut pos = 0;
        while pos < payload.len() {
            let n = (payload.len() - pos).min(4096);
            self.dma.dma_write(
                &self.shared.data_pool,
                roff + READ_HEADER_CAP + pos,
                &payload[pos..pos + n],
            );
            pos += n;
        }

        // ④ post the CQE.
        let cqe = Cqe {
            result: payload.len() as u32,
            hdr_len: header.len() as u16,
            sq_head: self.sq_head,
            status,
            cid: slot,
            phase: self.cq_phase,
        };
        self.dma.dma_write(
            &self.shared.cq_mem,
            self.cq_tail as usize * CQE_SIZE,
            &cqe.to_bytes(),
        );
        self.cq_tail = (self.cq_tail + 1) % cfg.depth;
        if self.cq_tail == 0 {
            self.cq_phase = !self.cq_phase;
        }
    }

    /// Complete a zero-copy command: the reply is a bare CQE whose
    /// `result` carries the filled byte count. Exactly one DMA.
    pub fn complete_zc(&mut self, slot: u16, status: CqeStatus, result: u32) {
        let cqe = Cqe {
            result,
            hdr_len: 0,
            sq_head: self.sq_head,
            status,
            cid: slot,
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
    #[should_panic(expected = "exceeds slot capacity")]
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
        // SQE (1) + SGL list (1) + header desc + 3 segments (4) + CQE (1).
        let (mut ini, mut tgt, dma) = pair(8, 64 * 1024);
        let seg = vec![9u8; 2048];
        let before = dma.snapshot();
        ini.submit_sgl(DispatchType::Standalone, b"H", &[&seg, &seg, &seg], 0)
            .unwrap();
        let inc = tgt.poll().unwrap();
        tgt.complete(inc.slot, CqeStatus::Success, b"", b"");
        ini.wait();
        let delta = dma.snapshot().since(&before);
        assert_eq!(delta.dma_ops, 1 + 1 + 4 + 1);
    }

    #[test]
    fn zc_read_fill_round_trip_is_2_dmas() {
        // A fill request moves no bytes over the SQE path: SQE + CQE.
        let (mut ini, mut tgt, dma) = pair(8, 16 * 1024);
        let before = dma.snapshot();
        ini.submit_zc(42, 8192, 4096).unwrap();
        let inc = tgt.poll().unwrap();
        let zc = inc.zc.unwrap();
        assert_eq!((zc.ino, zc.offset, zc.len), (42, 8192, 4096));
        assert!(inc.header.is_empty() && inc.payload.is_empty());
        tgt.complete_zc(inc.slot, CqeStatus::Success, 4096);
        let c = ini.wait();
        assert_eq!(c.result, 4096);
        assert_eq!(dma.snapshot().since(&before).dma_ops, 2);
    }

    #[test]
    fn zc_and_classic_commands_interleave_with_buffer_recycling() {
        // A recycled Incoming must not leak a stale `zc` into a classic
        // command, and vice versa; attribution stays dormant for classic
        // traffic.
        let (mut ini, mut tgt, dma) = pair(8, 16 * 1024);
        let mut batch = IncomingBatch::new();
        ini.submit_zc(1, 0, 4096).unwrap();
        ini.submit(DispatchType::Standalone, b"HDR", b"classic", 0)
            .unwrap();
        assert_eq!(tgt.poll_many(&mut batch), 2);
        assert!(batch.as_slice()[0].zc.is_some());
        assert!(batch.as_slice()[1].zc.is_none());
        assert_eq!(batch.as_slice()[1].header, b"HDR");
        assert_eq!(batch.as_slice()[1].payload, b"classic");
        let (s0, s1) = (batch.as_slice()[0].slot, batch.as_slice()[1].slot);
        tgt.complete_zc(s0, CqeStatus::Success, 0);
        tgt.complete(s1, CqeStatus::Success, b"", b"");
        ini.wait();
        ini.wait();
        // Round 2: recycle the batch the other way around.
        ini.submit(DispatchType::Standalone, b"", b"plain", 0)
            .unwrap();
        assert_eq!(tgt.poll_many(&mut batch), 1);
        assert!(batch.as_slice()[0].zc.is_none(), "recycled zc cleared");
        tgt.complete(batch.as_slice()[0].slot, CqeStatus::Success, b"", b"");
        ini.wait();
        // The queue layer moves no class-attributed data by itself.
        assert!(dma.attribution().is_zero());
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
}
