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
//! `sqe.rs` module docs): a request header in the SQE's idle Dwords, a
//! reply header in the CQE — up to
//! [`CQE_INLINE_CAP`](crate::sqe::CQE_INLINE_CAP) bytes beside a payload, up
//! to [`CQE_WIDE_CAP`](crate::CQE_WIDE_CAP) when there is none and the
//! CQE's Dword 0 is free. Neither then costs a DMA of its own, and the write
//! payload starts page-aligned in its buffer: a command with neither
//! payload whose headers fit crosses in exactly two DMAs, the SQE fetch
//! and the CQE. A header that does not fit takes the buffer: the request
//! header ahead of the payload, the reply header in the first
//! [`READ_HEADER_CAP`] bytes of the read half.
//!
//! Each end of the pair has one way across. The host stages commands
//! through [`Initiator::batch`] — one doorbell per batch — and reads each
//! reply where the DMA left it: `reap` takes a command out of flight, its
//! owner reads the reply through a [`Reply`], and `release` frees the
//! buffer. The target fetches a command and gathers its write side by DMA
//! straight into the buffer the command is served from: the payload is
//! written once on the DPU side, by the DMA.
//!
//! Transport buffers belong to the initiator, not to ring slots: it keeps
//! the `depth` buffers on a LIFO free list, hands the most recently freed
//! one to the next command (so a lone outstanding command keeps reusing
//! one cache-hot buffer), names it in the SQE's PRP fields, and takes it
//! back only once the reply has been read out of it. A command's CID is
//! its buffer's index. Neither side trusts the other's lengths: the
//! target bounds every PRP range the SQE names against the pool before
//! touching it and answers [`CqeStatus::InvalidCommand`] otherwise; the
//! initiator turns a CQE that claims more reply than its command declared
//! room for into a [`CqeStatus::TransportError`]. A command too large for
//! its own buffer never leaves the host: the initiator answers it with
//! the same `InvalidCommand` the target would.
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

use crate::sqe::{Cqe, CqeStatus, DispatchType, Psdt, Sqe, CQE_SIZE, SQE_SIZE};

/// Reserved space at the start of every read buffer for a response
/// header too long for the CQE; payload follows at this offset.
pub const READ_HEADER_CAP: usize = 64;

/// What a command expects back through its transport buffer.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ReadSide {
    /// Nothing: every reply is a header the CQE holds with no payload
    /// beside it ([`CQE_WIDE_CAP`](crate::CQE_WIDE_CAP) bytes). The SQE's
    /// PRP-Read Dwords are then free for request-header bytes.
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

/// A command's write payload: file data for writes, empty for the rest.
#[derive(Copy, Clone, Debug)]
pub enum Payload<'a> {
    /// One contiguous buffer, described by a PRP range.
    Flat(&'a [u8]),
    /// Scattered buffers (writev), described by an SGL (PSDT =
    /// `SglWrite`): each segment crosses the link as its own DMA, with no
    /// host-side coalescing copy.
    Gather(&'a [&'a [u8]]),
}

/// Space reserved for the SGL descriptor list at the head of a command's
/// write buffer (16 bytes per descriptor).
pub const SGL_LIST_CAP: usize = 256;
/// Maximum data segments per SGL command (plus one header descriptor).
pub const SGL_MAX_SEGMENTS: usize = SGL_LIST_CAP / 16 - 1;

/// DMA granularity of a PRP range.
const PAGE: usize = dpc_pcie::DMA_PAGE;

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
    /// Commands refused with `InvalidCommand`: by the target, because a
    /// range their SQE named fell outside the pool or their reply outgrew
    /// the read buffer it described; by the initiator, because they did
    /// not fit their transport buffer.
    pub(crate) rejected_sqes: AtomicU64,
}

/// One nvme-fs queue pair. Split into an initiator half and a target half
/// with [`QueuePair::split`]; the halves are independently `Send`.
pub struct QueuePair {
    shared: Arc<QpShared>,
}

impl QueuePair {
    pub fn new(cfg: QueuePairConfig) -> QueuePair {
        assert!(cfg.depth >= 2, "queue depth must be at least 2");
        let depth = cfg.depth as usize;
        QueuePair {
            shared: Arc::new(QpShared {
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
                in_flight: vec![None; depth as usize],
                refused: Vec::with_capacity(depth as usize),
                replies: Replies {
                    pool: self.shared.data_pool.clone(),
                    cfg: self.shared.cfg,
                },
            },
            Target {
                shared: self.shared,
                dma,
                sq_head: 0,
                cq_tail: 0,
                cq_phase: true,
                reply_bufs: vec![ReplyBuf::default(); depth as usize],
                header: Vec::new(),
                reply_header: Vec::with_capacity(READ_HEADER_CAP),
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

/// The read halves of a queue pair's transport buffers, as the host reads
/// replies out of them: the thread that owns a reaped command reads its
/// reply without the initiator or its queue's lock.
#[derive(Clone)]
pub(crate) struct Replies {
    pool: HostRegion,
    cfg: QueuePairConfig,
}

impl Replies {
    /// The reply a reaped `cqe` left: its header — the CQE's own bytes, or
    /// copied out of the buffer's header area into `hdr` — and its payload
    /// where the DMA put it. Valid until the CID is released: the next
    /// command on it overwrites both.
    pub(crate) fn open<'a>(
        &'a self,
        cqe: &'a Cqe,
        hdr: &'a mut [u8; READ_HEADER_CAP],
    ) -> (&'a [u8], Reply<'a>) {
        let (_, roff) = buffer_offsets(&self.cfg, cqe.cid);
        let header = match cqe.inline_header() {
            Some(header) => header,
            None => {
                // `reap` bounded `hdr_len` by the command's header area.
                let header = &mut hdr[..cqe.hdr_len as usize];
                self.pool.read_local(roff, header);
                header
            }
        };
        let payload = Reply {
            pool: &self.pool,
            cid: cqe.cid,
            at: roff + READ_HEADER_CAP,
            len: cqe.result as usize,
        };
        (header, payload)
    }
}

/// A reply's payload where the DMA left it: in the read half of its
/// command's transport buffer, leased to the reader until its CID is
/// released. Each read is one copy out under the pool's lock, which the
/// target's DMA writes wait on — so a reader copies and takes no other
/// lock while it does.
#[derive(Copy, Clone)]
pub struct Reply<'a> {
    pool: &'a HostRegion,
    cid: u16,
    at: usize,
    len: usize,
}

impl Reply<'_> {
    /// The command the reply answers (its transport buffer's index).
    pub fn cid(&self) -> u16 {
        self.cid
    }

    /// Payload bytes the target produced.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copy payload bytes `[from, from + dst.len())` into `dst`.
    ///
    /// # Panics
    ///
    /// When that range is not inside the payload.
    pub fn copy_to(&self, from: usize, dst: &mut [u8]) {
        assert!(
            from.checked_add(dst.len())
                .is_some_and(|end| end <= self.len),
            "reply range {from}+{} outside a {}-byte payload",
            dst.len(),
            self.len
        );
        self.pool.read_local(self.at + from, dst);
    }

    /// The payload, owned: one allocation, none for an empty payload,
    /// and each byte written once, with no zero-fill first.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.pool.read_local_extend(self.at, self.len, &mut out);
        out
    }
}

/// `cqe`, when the reply it claims fits the room its command declared,
/// `(RH_len, Read_len)`: at most `Read_len` payload bytes, and a header
/// the CQE's form holds — narrow or wide — or one of at most `RH_len`.
/// Otherwise a bare transport error: the lengths in a CQE are written by
/// the other side of the link, and believing them would read another
/// command's buffer, or past the pool.
fn within(cqe: Cqe, (rh_len, read_len): (u16, u32)) -> Cqe {
    let header = cqe.hdr_len as usize;
    if cqe.result <= read_len && (header <= cqe.inline_cap() || header <= rh_len as usize) {
        return cqe;
    }
    bare(cqe.cid, CqeStatus::TransportError)
}

/// A completion for `cid` with `status` and no reply, as `reap` hands it
/// up (its ring fields, `sq_head` and `phase`, are spent by then).
fn bare(cid: u16, status: CqeStatus) -> Cqe {
    Cqe::reply(cid, status, 0, b"")
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
    /// Per-CID (== buffer index): the `(RH_len, Read_len)` the SQE of the
    /// command holding it in flight declared — the most reply its CQE may
    /// claim — or `None`.
    in_flight: Vec<Option<(u16, u32)>>,
    /// CIDs of commands refused before they were sent, for `reap` to
    /// answer (room for every CID: refusing never allocates).
    refused: Vec<u16>,
    replies: Replies,
}

impl Initiator {
    pub fn depth(&self) -> u16 {
        self.shared.cfg.depth
    }

    /// Commands refused with `InvalidCommand`: by the target, because
    /// their SQE named a range outside the data pool (or their reply
    /// outgrew the read buffer); here, because they did not fit their
    /// transport buffer.
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

    /// Stage one command into the ring without publishing the tail, on the
    /// buffer freed last — the one most likely still in cache — and
    /// return its CID (the buffer's index). The host CPU fills the write
    /// half (local stores, no DMA): for a flat payload `[header ‖
    /// payload]`, the payload page-aligned at its start when the header
    /// rode the SQE; for an SGL `[descriptor list][header][segments…]`,
    /// each segment at an address of its own (the app's buffers are
    /// already in DMA-able memory; re-staging gives each a distinct
    /// device-visible address). `read` says what is expected back in the
    /// read half.
    ///
    /// A command whose sides do not fit the buffer — or an SGL of no
    /// segments or more than [`SGL_MAX_SEGMENTS`] — is refused instead:
    /// nothing is written, its CID is taken as if it went out, and `reap`
    /// answers it with a bare `InvalidCommand`, counted in
    /// `rejected_sqes`.
    fn stage(
        &mut self,
        dispatch: DispatchType,
        header: &[u8],
        write: Payload<'_>,
        read: ReadSide,
    ) -> Result<u16, QueueFull> {
        if self.free_slots() == 0 {
            return Err(QueueFull);
        }
        let buf = self.free_bufs.pop().ok_or(QueueFull)?;
        let cfg = self.shared.cfg;
        let flat;
        let (list_cap, segments): (usize, &[&[u8]]) = match write {
            Payload::Flat(data) => {
                flat = [data];
                (0, &flat)
            }
            Payload::Gather(segments) => (SGL_LIST_CAP, segments),
        };
        let payload_len: usize = segments.iter().map(|s| s.len()).sum();
        let (rh_len, read_len) = read.lens();
        // The PRP fields are how the target learns which buffer this is.
        let (woff, roff) = buffer_offsets(&cfg, buf);
        let mut sqe = Sqe::new();
        sqe.set_cid(buf)
            .set_dispatch(dispatch)
            .set_prp_write(woff as u64, 0)
            .set_prp_read(roff as u64, 0)
            .set_write_len(payload_len as u32)
            .set_read_len(read_len)
            .set_rh_len(rh_len);
        if list_cap > 0 {
            // PRP-Write points at the SGL list.
            sqe.set_psdt(Psdt::SglWrite)
                .set_sgl_count(segments.len() as u32 + 1);
        }
        // The header travels cheapest in the SQE itself (no DMA of its
        // own); else in the buffer.
        let in_buffer = if sqe.set_inline_header(header) {
            0
        } else {
            header.len()
        };
        let fits = rh_len as usize + read_len as usize <= cfg.max_io_bytes
            && list_cap + in_buffer + payload_len <= cfg.max_io_bytes
            && in_buffer <= u16::MAX as usize
            && (list_cap == 0 || (1..=SGL_MAX_SEGMENTS).contains(&segments.len()));
        if !fits {
            self.refused.push(buf);
            self.shared.rejected_sqes.fetch_add(1, Ordering::Relaxed);
            return Ok(buf);
        }
        let pool = &self.shared.data_pool;
        // The descriptor list, built on the stack: 16 bytes per
        // descriptor, address, length and four reserved zero bytes. The
        // first covers the header (zero-length when it rode the SQE).
        let mut list = [0u8; SGL_LIST_CAP];
        let mut describe = |i: usize, addr: usize, len: usize| {
            list[16 * i..16 * i + 8].copy_from_slice(&(addr as u64).to_le_bytes());
            list[16 * i + 8..16 * i + 12].copy_from_slice(&(len as u32).to_le_bytes());
        };
        let mut cursor = woff + list_cap;
        if in_buffer > 0 {
            pool.write_local(cursor, header);
            sqe.set_wh_len(in_buffer as u16);
        }
        describe(0, cursor, in_buffer);
        cursor += in_buffer;
        for (i, seg) in segments.iter().enumerate() {
            pool.write_local(cursor, seg);
            describe(i + 1, cursor, seg.len());
            cursor += seg.len();
        }
        if list_cap > 0 {
            pool.write_local(woff, &list[..16 * (segments.len() + 1)]);
        }
        self.shared
            .sq_mem
            .write_local(self.sq_tail as usize * SQE_SIZE, &sqe.to_bytes());
        self.in_flight[buf as usize] = Some((rh_len, read_len));
        self.sq_tail = (self.sq_tail + 1) % cfg.depth;
        Ok(buf)
    }

    /// Open a deferred-doorbell batch — the one way to stage commands:
    /// every command staged through the guard is written into the ring
    /// immediately, but the tail doorbell is published (and rung) only
    /// once, when the guard drops.
    pub fn batch(&mut self) -> DoorbellGuard<'_> {
        DoorbellGuard {
            opened_at: self.sq_tail,
            ini: self,
            staged: 0,
        }
    }

    /// Consume the next completion, if there is one, and take its command
    /// out of flight: a command refused before it was sent first, then
    /// the CQE at the head, if fresh. Advances head/phase and flow control
    /// but does **not** publish the head doorbell — callers batch that
    /// into one store per poll pass — and does not give the transport
    /// buffer back: the reply is still in it, and its CID stays taken until
    /// [`release`](Self::release). A CQE naming a CID that is not in
    /// flight has nobody to go to (and no buffer to give back): it is
    /// consumed and skipped, inline header bytes and all. One that claims
    /// more reply than its command declared room for comes back as a bare
    /// [`CqeStatus::TransportError`] ([`within`]).
    pub(crate) fn reap(&mut self) -> Option<Cqe> {
        if let Some(cid) = self.refused.pop() {
            return Some(bare(cid, CqeStatus::InvalidCommand));
        }
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
            let command = self.in_flight.get_mut(cqe.cid as usize);
            if let Some(declared) = command.and_then(Option::take) {
                return Some(within(cqe, declared));
            }
        }
    }

    /// Publish the consumed CQ head back to the device (one register store).
    pub(crate) fn publish_cq_head(&mut self) {
        self.shared
            .cq_head_db
            .store(self.cq_head as u32, Ordering::Release);
    }

    /// Where a reaped command's reply is read: its transport buffer, while
    /// its CID stays taken.
    pub(crate) fn replies(&self) -> &Replies {
        &self.replies
    }

    /// Put a reaped command's transport buffer back on the free list: its
    /// CID may carry the next command.
    pub(crate) fn release(&mut self, cid: u16) {
        debug_assert!(self.in_flight[cid as usize].is_none() && !self.free_bufs.contains(&cid));
        self.free_bufs.push(cid);
    }

    /// Commands whose CID is taken: in flight, or reaped and not yet
    /// released.
    pub fn outstanding(&self) -> usize {
        self.in_flight.len() - self.free_bufs.len()
    }
}

/// Deferred-doorbell submission batch from [`Initiator::batch`].
///
/// Commands staged through the guard land in the ring immediately; the SQ
/// tail doorbell is published exactly once when the guard is dropped, so a
/// batch of N commands costs one MMIO doorbell instead of N
/// — and a batch that wrote no SQE rings none.
pub struct DoorbellGuard<'a> {
    ini: &'a mut Initiator,
    staged: usize,
    /// The SQ tail when the guard opened.
    opened_at: u16,
}

impl DoorbellGuard<'_> {
    /// Stage one command: `write` (behind `header`, when that does not
    /// fit the SQE) goes into a transport buffer's write half — a flat
    /// payload as a PRP range, a gathered one as a scatter-gather list
    /// (PSDT = `SglWrite`) whose segments the target fetches one DMA
    /// each; `read` says what is expected back in its read half. Returns
    /// the CID (the buffer's index). A command that does not fit its
    /// buffer is refused, not sent: its CID comes back as
    /// `InvalidCommand`.
    pub fn stage(
        &mut self,
        dispatch: DispatchType,
        header: &[u8],
        write: Payload<'_>,
        read: ReadSide,
    ) -> Result<u16, QueueFull> {
        let cid = self.ini.stage(dispatch, header, write, read)?;
        self.staged += 1;
        Ok(cid)
    }

    /// Commands staged so far in this batch.
    pub fn staged(&self) -> usize {
        self.staged
    }
}

impl Drop for DoorbellGuard<'_> {
    fn drop(&mut self) {
        if self.ini.sq_tail != self.opened_at {
            self.ini.publish_tail();
        }
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
    /// The request header of the command fetched last, wherever it
    /// travelled: reused for every command.
    header: Vec<u8>,
    /// The response header of the command being completed: reused for
    /// every command.
    reply_header: Vec<u8>,
}

impl Target {
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
    pub(crate) fn reject(&mut self, cid: u16) {
        self.shared.rejected_sqes.fetch_add(1, Ordering::Relaxed);
        self.post_cqe(cid, CqeStatus::InvalidCommand, 0, b"");
    }

    /// SQEs the host has published past the last one fetched: one read of
    /// the SQ tail doorbell register, however many there are.
    pub(crate) fn posted(&self) -> usize {
        let depth = self.shared.cfg.depth as usize;
        let tail = self.shared.sq_tail_db.load(Ordering::Acquire) as usize;
        (tail + depth - self.sq_head as usize) % depth
    }

    /// Fetch the SQE at the head (the caller has checked
    /// [`posted`](Self::posted)) and gather its write side: the request
    /// header into the target's one header buffer, the payload by DMA
    /// straight into `payload` — the buffer the command is served from.
    /// `payload` is resized, not cleared: a warm buffer is not zero-filled
    /// first. Advances the SQ head. Returns the SQE and the request
    /// header, or `None` when the command was refused instead (an
    /// out-of-range CID, PRP range or SGL descriptor, an inline header
    /// longer than the SQE has room for): it has been completed with
    /// `InvalidCommand` and `payload` holds nothing to serve.
    ///
    /// DMA accounting: 1 op for the SQE fetch — which brings an inline
    /// request header with it — plus `ceil((buffered header + Write_len) /
    /// 4096)` ops for the write buffer (page-granularity PRP transfers
    /// over the contiguous `[header ‖ payload]`), or list + per-segment
    /// ops in SGL mode.
    pub(crate) fn fetch(&mut self, payload: &mut Vec<u8>) -> Option<(Sqe, &[u8])> {
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
        let mut header = std::mem::take(&mut self.header);
        header.clear();
        let gathered = cid < self.shared.cfg.depth && self.gather(&sqe, &mut header, payload);
        self.header = header;
        if !gathered {
            self.reject(cid);
            return None;
        }
        Some((sqe, &self.header))
    }

    /// ② The request header, if the SQE brought it along, and the buffers
    /// the SQE names — a direction that moves no bytes names no buffer:
    /// its PRP Dwords may be header bytes and are never read as an
    /// address — then ③ what the write buffer holds: a header that did
    /// not fit the SQE, then the payload. `false` when anything named is
    /// out of bounds.
    fn gather(&mut self, sqe: &Sqe, header: &mut Vec<u8>, payload: &mut Vec<u8>) -> bool {
        let wh = if sqe.is_inline() {
            if !sqe.inline_header(header) {
                return false;
            }
            0
        } else {
            sqe.wh_len() as usize
        };
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
            return false;
        };
        // Bounded before `payload` is sized by it.
        if wh + sqe.write_len() as usize > self.shared.cfg.max_io_bytes {
            return false;
        }
        payload.resize(sqe.write_len() as usize, 0);
        let gathered = match sqe.psdt() {
            Psdt::SglWrite | Psdt::SglBoth => self.gather_sgl(sqe, wh, header, payload),
            _ => self.gather_prp(sqe, wh, header, payload),
        };
        if gathered {
            self.reply_bufs[sqe.cid() as usize] = reply;
        }
        gathered
    }

    /// One DMA: pool bytes `[addr, addr + len)` become bytes `[at, at +
    /// len)` of the write side `[header ‖ payload]`, whose header is `wh`
    /// bytes. Transfers arrive in order. One that starts inside the header
    /// lands in `header` whole, and the payload bytes it carried — those
    /// sharing a page with the header's end — are copied on from there.
    fn land(
        &self,
        addr: usize,
        at: usize,
        len: usize,
        wh: usize,
        header: &mut Vec<u8>,
        payload: &mut [u8],
    ) {
        let pool = &self.shared.data_pool;
        if at >= wh {
            self.dma
                .dma_read(pool, addr, &mut payload[at - wh..at - wh + len]);
            return;
        }
        header.resize(at + len, 0);
        self.dma.dma_read(pool, addr, &mut header[at..]);
        if at + len > wh {
            payload[..at + len - wh].copy_from_slice(&header[wh..]);
            header.truncate(wh);
        }
    }

    /// Gather a contiguous write side, one DMA per 4 KiB page. `false`
    /// when the range is not inside the pool; a write side of no bytes
    /// names no range.
    fn gather_prp(&self, sqe: &Sqe, wh: usize, header: &mut Vec<u8>, payload: &mut [u8]) -> bool {
        let total = wh + payload.len();
        if total == 0 {
            return true;
        }
        let Some(woff) = self.pool_range(sqe.prp_write().0, total) else {
            return false;
        };
        for at in (0..total).step_by(PAGE) {
            self.land(woff + at, at, PAGE.min(total - at), wh, header, payload);
        }
        true
    }

    /// Gather a scattered write side: the descriptor list (one DMA), then
    /// one DMA per non-empty segment. `false` when the list or a segment
    /// is not inside the pool, or the segments do not add up to the
    /// header and payload the SQE declared.
    fn gather_sgl(&self, sqe: &Sqe, wh: usize, header: &mut Vec<u8>, payload: &mut [u8]) -> bool {
        let total = wh + payload.len();
        let count = sqe.sgl_count() as usize;
        if count > SGL_LIST_CAP / 16 {
            return false;
        }
        let Some(list_off) = self.pool_range(sqe.prp_write().0, count * 16) else {
            return false;
        };
        let mut list = [0u8; SGL_LIST_CAP];
        let list = &mut list[..count * 16];
        self.dma.dma_read(&self.shared.data_pool, list_off, list);
        let mut at = 0;
        for desc in list.chunks_exact(16) {
            let addr = u64::from_le_bytes(desc[..8].try_into().expect("8-byte address"));
            let len = u32::from_le_bytes(desc[8..12].try_into().expect("4-byte length")) as usize;
            if len == 0 {
                continue;
            }
            let Some(addr) = self.pool_range(addr, len) else {
                return false;
            };
            if at + len > total {
                return false;
            }
            self.land(addr, at, len, wh, header, payload);
            at += len;
        }
        at == total
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

    /// Complete a command, its reply produced in place: `fill` is lent the
    /// payload area of the read buffer the SQE named — `Read_len` bytes,
    /// none for a command that declared no read side — and the target's
    /// one reply-header buffer, empty. It writes the payload at the front
    /// of the one and the encoded response header into the other, and
    /// returns the status and the payload's length, or `None` to refuse
    /// the command. The payload is produced under the data pool's write
    /// guard. The header then rides the CQE when it fits there, else it
    /// is DMA-written to the header area of the read buffer; then ④ post
    /// the CQE. A reply whose header fits neither the CQE nor the buffer
    /// the host described is not delivered: the command completes with
    /// `InvalidCommand` instead, as a refused one does.
    ///
    /// DMA accounting: `ceil(payload / 4096)` ops for the payload, 1 for a
    /// header longer than the CQE holds beside that payload ([`Cqe::room`]:
    /// 5 bytes beside a payload, 9 with none), plus 1 for the CQE; a
    /// refused reply, only the CQE. An acknowledgement — no payload, a
    /// header of at most 9 bytes — therefore costs exactly one CQE DMA,
    /// which is what keeps an 8 KiB write at the paper's 4 DMA operations
    /// and a namespace mutation at 2.
    pub(crate) fn complete(
        &mut self,
        slot: u16,
        fill: impl FnOnce(&mut [u8], &mut Vec<u8>) -> Option<(CqeStatus, usize)>,
    ) {
        let reply = self
            .reply_bufs
            .get(slot as usize)
            .copied()
            .unwrap_or_default();
        let mut header = std::mem::take(&mut self.reply_header);
        header.clear();
        let mut done = None;
        let n = self.dma.dma_write_in_place(
            &self.shared.data_pool,
            reply.offset + reply.header_cap,
            reply.payload_cap,
            |payload| {
                let Some((status, n)) = fill(payload, &mut header) else {
                    return 0;
                };
                assert!(header.len() <= READ_HEADER_CAP, "response header too big");
                let rides = header.len() <= Cqe::room(n as u32);
                if !rides && header.len() > reply.header_cap {
                    return 0;
                }
                done = Some((status, rides));
                n
            },
        );
        match done {
            Some((status, rides)) => {
                // Response header (single DMA: it fits one page).
                if !rides {
                    self.dma
                        .dma_write(&self.shared.data_pool, reply.offset, &header);
                }
                self.post_cqe(slot, status, n as u32, &header);
            }
            None => self.reject(slot),
        }
        self.reply_header = header;
    }

    /// [`complete`](Self::complete) with a reply produced beforehand: its
    /// header and payload copied in. Refused when the payload outgrows the
    /// read buffer.
    pub(crate) fn complete_copy(
        &mut self,
        slot: u16,
        status: CqeStatus,
        header: &[u8],
        payload: &[u8],
    ) {
        self.complete(slot, |dst, hdr| {
            dst.get_mut(..payload.len())?.copy_from_slice(payload);
            hdr.extend_from_slice(header);
            Some((status, payload.len()))
        });
    }

    /// ④ post one CQE at the CQ tail (one DMA), `header` inside it when
    /// its form holds it ([`Cqe::reply`]).
    pub(crate) fn post_cqe(&mut self, cid: u16, status: CqeStatus, result: u32, header: &[u8]) {
        self.post(Cqe::reply(cid, status, result, header));
    }

    /// Post `cqe` at the CQ tail (one DMA), with this queue's SQ head and
    /// phase: every completion goes through here, and a test forges raw
    /// ones with it.
    pub(crate) fn post(&mut self, mut cqe: Cqe) {
        (cqe.sq_head, cqe.phase) = (self.sq_head, self.cq_phase);
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
    use crate::sqe::{CQE_INLINE_CAP, CQE_WIDE_CAP};
    use proptest::prelude::*;

    fn pair(depth: u16, max_io: usize) -> (Initiator, Target, DmaEngine) {
        let dma = DmaEngine::new();
        let (ini, tgt) = QueuePair::new(QueuePairConfig {
            depth,
            max_io_bytes: max_io,
        })
        .split(dma.clone());
        (ini, tgt, dma)
    }

    /// Stage one command under a doorbell of its own.
    fn submit(
        ini: &mut Initiator,
        dispatch: DispatchType,
        header: &[u8],
        payload: &[u8],
        read: impl Into<ReadSide>,
    ) -> Result<u16, QueueFull> {
        ini.batch()
            .stage(dispatch, header, Payload::Flat(payload), read.into())
    }

    /// Stage one SGL command under a doorbell of its own.
    fn submit_sgl(
        ini: &mut Initiator,
        dispatch: DispatchType,
        header: &[u8],
        segments: &[&[u8]],
        read: impl Into<ReadSide>,
    ) -> Result<u16, QueueFull> {
        ini.batch()
            .stage(dispatch, header, Payload::Gather(segments), read.into())
    }

    /// A command as the target fetched it.
    struct Fetched {
        sqe: Sqe,
        slot: u16,
        header: Vec<u8>,
        payload: Vec<u8>,
    }

    /// Fetch the next posted command into `payload` (the buffer it is
    /// served from); `None` when nothing is posted or it was refused.
    fn fetch_into(tgt: &mut Target, mut payload: Vec<u8>) -> Option<Fetched> {
        if tgt.posted() == 0 {
            return None;
        }
        let (sqe, header) = tgt.fetch(&mut payload)?;
        let header = header.to_vec();
        Some(Fetched {
            sqe,
            slot: sqe.cid(),
            header,
            payload,
        })
    }

    fn fetch(tgt: &mut Target) -> Option<Fetched> {
        fetch_into(tgt, Vec::new())
    }

    /// Every command the last doorbell published, refused ones left out.
    fn fetch_all(tgt: &mut Target) -> Vec<Fetched> {
        (0..tgt.posted()).filter_map(|_| fetch(tgt)).collect()
    }

    /// A reply as the host reads it.
    struct Done {
        cid: u16,
        status: CqeStatus,
        header: Vec<u8>,
        payload: Vec<u8>,
    }

    /// The host's one way to read a reply: reap, open, release.
    fn reap(ini: &mut Initiator) -> Option<Done> {
        let cqe = ini.reap()?;
        ini.publish_cq_head();
        let mut hdr = [0; READ_HEADER_CAP];
        let (header, payload) = ini.replies().open(&cqe, &mut hdr);
        let done = Done {
            cid: cqe.cid,
            status: cqe.status,
            header: header.to_vec(),
            payload: payload.to_vec(),
        };
        ini.release(cqe.cid);
        Some(done)
    }

    fn wait(ini: &mut Initiator) -> Done {
        loop {
            if let Some(done) = reap(ini) {
                return done;
            }
            std::thread::yield_now();
        }
    }

    /// Echo target: completes the next command by returning the write
    /// payload, cut to the read length.
    fn echo_one(tgt: &mut Target) {
        let inc = fetch(tgt).expect("request pending");
        let want = (inc.sqe.read_len() as usize).min(inc.payload.len());
        tgt.complete_copy(inc.slot, CqeStatus::Success, b"", &inc.payload[..want]);
    }

    #[test]
    fn single_command_round_trip() {
        let (mut ini, mut tgt, _) = pair(8, 16 * 1024);
        let data = vec![0x5A; 8192];
        let cid = submit(&mut ini, DispatchType::Standalone, b"", &data, 8192).unwrap();
        assert_eq!(ini.outstanding(), 1);
        echo_one(&mut tgt);
        let c = wait(&mut ini);
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
        submit(&mut ini, DispatchType::Standalone, b"", &[7u8; 8192], 0).unwrap();
        let inc = fetch(&mut tgt).unwrap();
        assert_eq!(inc.payload, [7u8; 8192]);
        tgt.complete_copy(inc.slot, CqeStatus::Success, b"", b"");
        wait(&mut ini);
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
        submit(&mut ini, DispatchType::Standalone, b"", b"", 8192).unwrap();
        let inc = fetch(&mut tgt).unwrap();
        tgt.complete_copy(inc.slot, CqeStatus::Success, b"", &[3u8; 8192]);
        let c = wait(&mut ini);
        assert_eq!(c.payload, vec![3u8; 8192]);
        let delta = dma.snapshot().since(&before);
        assert_eq!(delta.dma_ops, 4);
    }

    #[test]
    fn header_and_payload_delivered_separately() {
        let (mut ini, mut tgt, _) = pair(8, 16 * 1024);
        submit(&mut ini, DispatchType::Distributed, b"HDR!", b"payload", 16).unwrap();
        let inc = fetch(&mut tgt).unwrap();
        assert_eq!(inc.header, b"HDR!");
        assert_eq!(inc.payload, b"payload");
        assert_eq!(inc.sqe.dispatch(), DispatchType::Distributed);
        assert_eq!(inc.sqe.wh_len(), 4);
        assert_eq!(inc.sqe.write_len(), 7);
        tgt.complete_copy(inc.slot, CqeStatus::Success, b"RESP", b"ok");
        let c = wait(&mut ini);
        assert_eq!(c.header, b"RESP");
        assert_eq!(c.payload, b"ok");
    }

    #[test]
    fn ring_wraps_and_phase_flips() {
        let (mut ini, mut tgt, _) = pair(4, 4096);
        // Drive several times around the 4-deep ring.
        for round in 0..23u32 {
            let data = round.to_le_bytes();
            submit(&mut ini, DispatchType::Standalone, b"", &data, 4).unwrap();
            echo_one(&mut tgt);
            let c = wait(&mut ini);
            assert_eq!(c.payload, data);
        }
    }

    #[test]
    fn queue_full_reported() {
        let (mut ini, mut tgt, _) = pair(4, 4096);
        // depth-1 = 3 slots usable.
        for _ in 0..3 {
            submit(&mut ini, DispatchType::Standalone, b"", b"x", 0).unwrap();
        }
        assert_eq!(
            submit(&mut ini, DispatchType::Standalone, b"", b"x", 0),
            Err(QueueFull)
        );
        // Drain one; a slot frees up.
        echo_one(&mut tgt);
        wait(&mut ini);
        submit(&mut ini, DispatchType::Standalone, b"", b"y", 0).unwrap();
    }

    #[test]
    fn pipelined_commands_complete_in_order() {
        let (mut ini, mut tgt, _) = pair(16, 4096);
        let mut cids = Vec::new();
        for i in 0..10u8 {
            cids.push(submit(&mut ini, DispatchType::Standalone, b"", &[i], 1).unwrap());
        }
        for _ in 0..10 {
            echo_one(&mut tgt);
        }
        for (i, want_cid) in cids.into_iter().enumerate() {
            let c = wait(&mut ini);
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
                if let Some(mut inc) = fetch(&mut tgt) {
                    // Reverse the payload as a nontrivial transform.
                    inc.payload.reverse();
                    tgt.complete_copy(inc.slot, CqeStatus::Success, b"", &inc.payload);
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
                match submit(&mut ini, DispatchType::Standalone, b"", &msg, 4) {
                    Ok(_) => next += 1,
                    Err(QueueFull) => break,
                }
            }
            if let Some(mut c) = reap(&mut ini) {
                c.payload.reverse();
                let v = u32::from_le_bytes(c.payload.try_into().unwrap());
                assert!(v < N as u32);
                completed += 1;
            }
        }
        dpu.join().unwrap();
    }

    #[test]
    fn oversized_payload_rejected() {
        // A command whose sides do not fit its transport buffer never
        // leaves the host: no SQE, no doorbell, no DMA, nothing written to
        // the pool. Its CID comes back as a bare `InvalidCommand`, counted
        // in `rejected_sqes`, and the ring keeps working. Each shape one
        // byte past the edge, then the edge itself goes through.
        let (mut ini, mut tgt, dma) = pair(4, 4096);
        let page = [0x5Au8; 4096];
        let seg = [0x5Au8; 64];
        let many = [&seg[..]; SGL_MAX_SEGMENTS + 1];
        // (what, header, write side, read side): a 40-byte header has no
        // room in an SQE beside a payload and a read side.
        let oversized: [(&str, &[u8], Payload, ReadSide); 7] = [
            ("payload", b"", Payload::Flat(&[0; 4097]), ReadSide::None),
            (
                "buffered header + payload",
                &[0x48; 40],
                Payload::Flat(&page[..4096 - 39]),
                ReadSide::Buffer(0),
            ),
            (
                "read side",
                b"",
                Payload::Flat(b""),
                ReadSide::Buffer(4096 - 63),
            ),
            ("header", &[0x48; 4097], Payload::Flat(b""), ReadSide::None),
            (
                "SGL list + segments",
                b"",
                Payload::Gather(&[&page[..4096 - SGL_LIST_CAP + 1]]),
                ReadSide::None,
            ),
            (
                "SGL of no segments",
                b"",
                Payload::Gather(&[]),
                ReadSide::None,
            ),
            (
                "SGL of too many segments",
                b"",
                Payload::Gather(&many),
                ReadSide::None,
            ),
        ];
        for (i, (what, header, write, read)) in oversized.into_iter().enumerate() {
            let before = dma.snapshot();
            let cid = ini
                .batch()
                .stage(DispatchType::Standalone, header, write, read)
                .expect(what);
            assert_eq!(ini.outstanding(), 1, "{what}: the CID is taken");
            let done = reap(&mut ini).expect(what);
            assert_eq!((done.cid, done.status), (cid, CqeStatus::InvalidCommand));
            assert!(done.header.is_empty() && done.payload.is_empty(), "{what}");
            assert_eq!(ini.rejected_sqes(), i as u64 + 1, "{what}");
            assert_eq!(ini.outstanding(), 0, "{what}");
            let moved = dma.snapshot().since(&before);
            assert_eq!((moved.doorbells, moved.dma_ops), (0, 0), "{what}");
            assert_eq!(tgt.posted(), 0, "{what}");
        }
        // At the edge: a full page beside an SQE-borne header, a read side
        // of the whole read half, 15 segments filling the write half.
        let (full, fill) = (ReadSide::Buffer(4096 - 64), (4096 - SGL_LIST_CAP) / 15);
        submit(&mut ini, DispatchType::Standalone, b"HDR", &page, full).unwrap();
        let inc = fetch(&mut tgt).unwrap();
        assert_eq!(
            (inc.header.as_slice(), &inc.payload[..]),
            (&b"HDR"[..], &page[..])
        );
        tgt.complete_copy(inc.slot, CqeStatus::Success, b"", &page[..4096 - 64]);
        assert_eq!(wait(&mut ini).payload, page[..4096 - 64]);
        let fifteen = [&page[..fill]; SGL_MAX_SEGMENTS];
        submit_sgl(&mut ini, DispatchType::Standalone, b"", &fifteen, 0).unwrap();
        echo_one(&mut tgt);
        assert_eq!(wait(&mut ini).status, CqeStatus::Success);
        assert_eq!(ini.rejected_sqes(), 7);
    }

    #[test]
    fn sgl_write_reassembles_scattered_segments() {
        let (mut ini, mut tgt, _) = pair(8, 64 * 1024);
        let seg_a = vec![1u8; 1000];
        let seg_b = vec![2u8; 3000];
        let seg_c = vec![3u8; 50];
        submit_sgl(
            &mut ini,
            DispatchType::Standalone,
            b"HDR",
            &[&seg_a, &seg_b, &seg_c],
            0,
        )
        .unwrap();
        let inc = fetch(&mut tgt).unwrap();
        assert_eq!(inc.header, b"HDR");
        assert_eq!(inc.payload.len(), 4050);
        assert_eq!(&inc.payload[..1000], &seg_a[..]);
        assert_eq!(&inc.payload[1000..4000], &seg_b[..]);
        assert_eq!(&inc.payload[4000..], &seg_c[..]);
        assert_eq!(inc.sqe.psdt(), crate::sqe::Psdt::SglWrite);
        tgt.complete_copy(inc.slot, CqeStatus::Success, b"", b"");
        let c = wait(&mut ini);
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
            submit_sgl(
                &mut ini,
                DispatchType::Standalone,
                header,
                &[&seg, &seg, &seg],
                0,
            )
            .unwrap();
            let inc = fetch(&mut tgt).unwrap();
            assert_eq!(inc.header, header);
            tgt.complete_copy(inc.slot, CqeStatus::Success, b"", b"");
            wait(&mut ini);
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
        submit(
            &mut ini,
            DispatchType::Standalone,
            &hdr,
            b"",
            ReadSide::None,
        )
        .unwrap();
        let inc = fetch(&mut tgt).unwrap();
        assert!(inc.sqe.is_inline());
        assert_eq!(inc.header, hdr);
        assert!(inc.payload.is_empty());
        tgt.complete_copy(inc.slot, CqeStatus::Success, b"\x03\x00\x10\x00\x00", b"");
        let c = wait(&mut ini);
        assert_eq!(c.header, b"\x03\x00\x10\x00\x00");
        assert!(c.payload.is_empty());
        let delta = dma.snapshot().since(&before);
        assert_eq!(delta.dma_ops, 2);
        assert_eq!(delta.dma_bytes, 64 + 16);
    }

    #[test]
    fn zc_and_classic_commands_interleave_with_buffer_recycling() {
        // The target's one header buffer and a recycled payload buffer
        // must not leak an SQE-borne header into a command whose header
        // sits in its transport buffer, a longer payload into a shorter
        // one, or vice versa.
        let (mut ini, mut tgt, _) = pair(8, 16 * 1024);
        let mut slots = [Vec::new(), Vec::new()];
        let serve = |tgt: &mut Target, slots: &mut [Vec<u8>; 2]| -> [Fetched; 2] {
            assert_eq!(tgt.posted(), 2);
            let fetched = slots
                .each_mut()
                .map(|slot| fetch_into(tgt, std::mem::take(slot)).unwrap());
            for f in &fetched {
                tgt.complete_copy(f.slot, CqeStatus::Success, b"", b"");
            }
            fetched
        };
        let bare = header_only(1, 4096);
        let long = [0x4C; 40]; // too long for the SQE beside a payload
        submit(
            &mut ini,
            DispatchType::Standalone,
            &bare,
            b"",
            ReadSide::None,
        )
        .unwrap();
        submit(&mut ini, DispatchType::Standalone, &long, b"classic", 0).unwrap();
        let [z, c] = serve(&mut tgt, &mut slots);
        assert!(z.sqe.is_inline() && !c.sqe.is_inline());
        assert_eq!((z.header.as_slice(), z.payload.len()), (&bare[..], 0));
        assert_eq!(c.header, long);
        assert_eq!(c.payload, b"classic");
        wait(&mut ini);
        wait(&mut ini);
        // Round 2: recycle the buffers the other way around, the longer
        // payload's buffer first.
        slots = [c.payload, z.payload];
        submit(&mut ini, DispatchType::Standalone, &long, b"plain", 0).unwrap();
        submit(
            &mut ini,
            DispatchType::Standalone,
            &bare,
            b"",
            ReadSide::None,
        )
        .unwrap();
        let [c, z] = serve(&mut tgt, &mut slots);
        assert_eq!(
            (c.header.as_slice(), c.payload.as_slice()),
            (&long[..], &b"plain"[..])
        );
        assert_eq!((z.header.as_slice(), z.payload.len()), (&bare[..], 0));
        wait(&mut ini);
        wait(&mut ini);
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
                let rlen = match read {
                    ReadSide::Buffer(n) => n as usize,
                    ReadSide::None => 0,
                };
                let replies = [0, 1, CQE_INLINE_CAP, CQE_INLINE_CAP + 1, CQE_WIDE_CAP];
                for reply_len in replies.into_iter().chain([CQE_WIDE_CAP + 1]) {
                    // Beside a payload the narrow form, alone the wide one.
                    let buffered_reply = reply_len > Cqe::room(rlen as u32);
                    if buffered_reply && read == ReadSide::None {
                        continue; // refused: see the corrupt-SQE test
                    }
                    let payload = vec![0x5A; wlen];
                    let before = dma.snapshot();
                    submit(
                        &mut ini,
                        DispatchType::Standalone,
                        &bytes[..hdr_len],
                        &payload,
                        read,
                    )
                    .unwrap();
                    let inc = fetch(&mut tgt).unwrap();
                    assert_eq!(inc.sqe.is_inline(), hdr_len <= room);
                    assert_eq!(inc.header, bytes[..hdr_len]);
                    assert_eq!(inc.payload, payload);
                    tgt.complete_copy(
                        inc.slot,
                        CqeStatus::Success,
                        &bytes[32..32 + reply_len],
                        &vec![0xC3; rlen],
                    );
                    let done = wait(&mut ini);
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
    fn reply_filled(tgt: &mut Target, inc: &Fetched, fill: u8) {
        let reply = vec![fill; inc.sqe.read_len() as usize];
        tgt.complete_copy(inc.slot, CqeStatus::Success, b"", &reply);
    }

    /// The pool ranges `[write buf, read buf]` a fetched command's SQE names.
    fn named_ranges(inc: &Fetched) -> [(u64, u64); 2] {
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
            cids.push(submit(&mut ini, DispatchType::Standalone, b"H", &[i; 1000], 2000).unwrap());
        }
        let mut sorted = cids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 7, "seven commands, seven buffers: {cids:?}");

        let batch = fetch_all(&mut tgt);
        assert_eq!(batch.len(), 7);
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
            let c = wait(&mut ini);
            let i = cids.iter().position(|&cid| cid == c.cid).unwrap();
            assert_eq!(c.payload, vec![0x80 | i as u8; 2000]);
        }
        assert_eq!(ini.outstanding(), 0);
    }

    #[test]
    fn the_buffer_just_freed_is_the_next_one_handed_out() {
        let (mut ini, mut tgt, _) = pair(8, 4096);
        let a = submit(&mut ini, DispatchType::Standalone, b"", b"a", 1).unwrap();
        let b = submit(&mut ini, DispatchType::Standalone, b"", b"b", 1).unwrap();
        assert_ne!(a, b);
        let inc_a = fetch(&mut tgt).unwrap();
        let inc_b = fetch(&mut tgt).unwrap();
        // B completes first: the next command reuses B's buffer, not a
        // fresh (cold) one and not A's.
        reply_filled(&mut tgt, &inc_b, 2);
        assert_eq!(wait(&mut ini).cid, b);
        let c = submit(&mut ini, DispatchType::Standalone, b"", b"c", 1).unwrap();
        assert_eq!(c, b);
        let inc_c = fetch(&mut tgt).unwrap();
        assert_eq!(named_ranges(&inc_c), named_ranges(&inc_b));
        reply_filled(&mut tgt, &inc_a, 1);
        assert_eq!(wait(&mut ini).cid, a);
        assert_eq!(
            submit(&mut ini, DispatchType::Standalone, b"", b"d", 1).unwrap(),
            a
        );
        // A lone command in flight keeps reusing one buffer.
        let (mut ini, mut tgt, _) = pair(8, 4096);
        for _ in 0..20 {
            assert_eq!(
                submit(&mut ini, DispatchType::Standalone, b"", b"x", 1).unwrap(),
                0
            );
            echo_one(&mut tgt);
            wait(&mut ini);
        }
    }

    #[test]
    fn depth_minus_one_outstanding_never_exhausts_the_buffers() {
        let (mut ini, mut tgt, _) = pair(4, 4096);
        for i in 0..3u8 {
            submit(&mut ini, DispatchType::Standalone, b"", &[i], 1).unwrap();
        }
        // The ring is what is full; a buffer is still free.
        assert_eq!(ini.free_slots(), 0);
        assert_eq!(ini.free_bufs.len(), 1);
        assert_eq!(
            submit(&mut ini, DispatchType::Standalone, b"", b"x", 1),
            Err(QueueFull)
        );
        // The target fetches all three but answers only the first: the ring
        // drains, and what then bounds the host is its buffers — two are
        // free, a third command has none to take.
        let first = fetch(&mut tgt).unwrap();
        let held = [fetch(&mut tgt).unwrap(), fetch(&mut tgt).unwrap()];
        reply_filled(&mut tgt, &first, 9);
        wait(&mut ini);
        assert_eq!(ini.free_slots(), 2);
        submit(&mut ini, DispatchType::Standalone, b"", b"y", 1).unwrap();
        submit(&mut ini, DispatchType::Standalone, b"", b"z", 1).unwrap();
        assert_eq!(ini.outstanding(), 4);
        assert_eq!(
            submit(&mut ini, DispatchType::Standalone, b"", b"!", 1),
            Err(QueueFull)
        );
        // Everything still completes, each reply to its own command.
        for inc in &held {
            reply_filled(&mut tgt, inc, inc.payload[0]);
        }
        echo_one(&mut tgt);
        echo_one(&mut tgt);
        let mut got: Vec<u8> = (0..4).map(|_| wait(&mut ini).payload[0]).collect();
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
        let pinned = submit(&mut ini, DispatchType::Standalone, b"", b"pinned", 6).unwrap();
        let pinned_inc = fetch(&mut tgt).unwrap();
        for round in 0..30u32 {
            slots.insert(ini.sq_tail);
            let data = round.to_le_bytes();
            let cid = submit(&mut ini, DispatchType::Standalone, b"", &data, 4).unwrap();
            assert_eq!(cid, 1);
            echo_one(&mut tgt);
            let c = wait(&mut ini);
            assert_eq!((c.cid, c.payload.as_slice()), (cid, &data[..]));
        }
        assert_eq!(slots.len(), 4);
        tgt.complete_copy(pinned_inc.slot, CqeStatus::Success, b"", b"pinned");
        let c = wait(&mut ini);
        assert_eq!((c.cid, c.payload.as_slice()), (pinned, &b"pinned"[..]));
    }

    #[test]
    fn classic_sgl_and_header_only_commands_interleave_over_the_pool() {
        let (mut ini, mut tgt, _) = pair(8, 16 * 1024);
        for round in 0..6u8 {
            let seg = vec![round; 700];
            let bare = header_only(7, round as u64 * 4096);
            let classic =
                submit(&mut ini, DispatchType::Standalone, b"C", &[round; 300], 50).unwrap();
            let bare_cid = submit(
                &mut ini,
                DispatchType::Standalone,
                &bare,
                b"",
                ReadSide::None,
            )
            .unwrap();
            let sgl =
                submit_sgl(&mut ini, DispatchType::Standalone, b"S", &[&seg, &seg], 60).unwrap();
            let batch = fetch_all(&mut tgt);
            let [c, z, s] = [0, 1, 2].map(|i| &batch[i]);
            assert_eq!(batch.len(), 3);
            assert_eq!((c.slot, z.slot, s.slot), (classic, bare_cid, sgl));
            assert_eq!((c.header.as_slice(), c.payload.len()), (&b"C"[..], 300));
            assert_eq!((z.header.as_slice(), z.payload.len()), (&bare[..], 0));
            assert_eq!((s.header.as_slice(), s.payload.len()), (&b"S"[..], 1400));
            // Out of order, the header-only one in the middle.
            tgt.complete_copy(s.slot, CqeStatus::Success, b"", &[round; 60]);
            tgt.complete_copy(z.slot, CqeStatus::Success, &[3, round, 0, 0, 0], b"");
            tgt.complete_copy(c.slot, CqeStatus::Success, b"", &[round; 50]);
            for _ in 0..3 {
                let done = wait(&mut ini);
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
        let lost = submit(&mut ini, DispatchType::Standalone, b"", b"lost", 4096 - 64).unwrap();
        let lost_inc = fetch(&mut tgt).unwrap();
        for round in 0..10u8 {
            let cid = submit(&mut ini, DispatchType::Standalone, b"", &[round; 8], 8).unwrap();
            assert_ne!(cid, lost);
            echo_one(&mut tgt);
            assert_eq!(wait(&mut ini).payload, vec![round; 8]);
            assert_eq!(ini.outstanding(), 1);
        }
        // The late reply lands — a whole buffer of it — and hurts nobody.
        let live = submit(&mut ini, DispatchType::Standalone, b"", b"live", 4).unwrap();
        reply_filled(&mut tgt, &lost_inc, 0xEE);
        echo_one(&mut tgt);
        let late = wait(&mut ini);
        assert_eq!((late.cid, late.payload.len()), (lost, 4096 - 64));
        let done = wait(&mut ini);
        assert_eq!((done.cid, done.payload.as_slice()), (live, &b"live"[..]));
        // Only now is the buffer back, and first in line.
        assert_eq!(ini.outstanding(), 0);
        submit(&mut ini, DispatchType::Standalone, b"", b"a", 0).unwrap();
        assert_eq!(
            submit(&mut ini, DispatchType::Standalone, b"", b"b", 0).unwrap(),
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
        let payload = Payload::Flat(&[7u8; 100]);
        let cid = ini
            .stage(DispatchType::Standalone, header, payload, read)
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
            assert_eq!(tgt.posted(), 1, "{what}");
            assert!(fetch(&mut tgt).is_none(), "{what}: nothing to serve");
            assert_eq!(ini.rejected_sqes(), i as u64 + 1, "{what}");
            if what == "no such command id" {
                // Nobody to answer: the host's command stays in flight
                // (its caller times out), the queue keeps working.
                assert!(reap(&mut ini).is_none(), "{what}");
                assert_eq!(ini.outstanding(), 1, "{what}");
            } else {
                let done = reap(&mut ini).expect(what);
                assert_eq!((done.cid, done.status), (cid, CqeStatus::InvalidCommand));
                assert!(done.header.is_empty() && done.payload.is_empty(), "{what}");
                assert_eq!(ini.outstanding(), 0, "{what}");
            }
        }
        // An SGL descriptor is host-written too.
        let (mut ini, mut tgt, _) = pair(4, 4096);
        let seg = [5u8; 64];
        submit_sgl(&mut ini, DispatchType::Standalone, b"H", &[&seg], 0).unwrap();
        ini.shared
            .data_pool
            .write_local(16, &(pool_len - 8).to_le_bytes()); // 2nd descriptor's address
        assert!(fetch(&mut tgt).is_none());
        assert_eq!(wait(&mut ini).status, CqeStatus::InvalidCommand);
        submit_sgl(&mut ini, DispatchType::Standalone, b"H", &[&seg], 0).unwrap();
        ini.shared.data_pool.write_local(24, &65u32.to_le_bytes()); // … and its length
        assert!(fetch(&mut tgt).is_none());
        assert_eq!(wait(&mut ini).status, CqeStatus::InvalidCommand);
        assert_eq!(ini.rejected_sqes(), 2);

        // A reply that outgrows the read buffer the SQE described is not
        // written anywhere either.
        submit(&mut ini, DispatchType::Standalone, b"", b"", 16).unwrap();
        let inc = fetch(&mut tgt).unwrap();
        tgt.complete_copy(inc.slot, CqeStatus::Success, b"", &[1u8; 17]);
        let done = wait(&mut ini);
        assert_eq!(done.status, CqeStatus::InvalidCommand);
        assert!(done.payload.is_empty());
        assert_eq!(ini.rejected_sqes(), 3);

        // No read side declared, and a reply that needs one — a header
        // neither CQE form holds, or any payload — is refused the same
        // way; a reply the CQE holds is all such a command can get.
        let replies: [(&[u8], &[u8]); 5] = [
            (b"10 bytes!!", b""),
            (b"", b"p"),
            (b"5byte", b""),
            (b"6bytes", b""),
            (b"9 bytes!!", b""),
        ];
        for (header, payload) in replies {
            let cid = submit(
                &mut ini,
                DispatchType::Standalone,
                b"HDR",
                b"",
                ReadSide::None,
            )
            .unwrap();
            let inc = fetch(&mut tgt).unwrap();
            let before = ini.rejected_sqes();
            tgt.complete_copy(inc.slot, CqeStatus::Success, header, payload);
            let done = wait(&mut ini);
            if header.len() <= CQE_WIDE_CAP && payload.is_empty() {
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
            submit(
                &mut ini,
                DispatchType::Standalone,
                &[0xFF; 48][..len],
                b"",
                read,
            )
            .unwrap();
            let inc = fetch(&mut tgt).expect("served, not refused");
            assert_eq!(inc.header, [0xFF; 48][..len]);
            tgt.complete_copy(inc.slot, CqeStatus::Success, b"ok", b"");
            assert_eq!(wait(&mut ini).header, b"ok");
        }
        assert_eq!(ini.rejected_sqes(), before);

        // A CQE for a CID that is not in flight is skipped whole, inline
        // header bytes included; the one behind it is delivered.
        let cid = submit(&mut ini, DispatchType::Standalone, b"", b"", ReadSide::None).unwrap();
        let inc = fetch(&mut tgt).unwrap();
        tgt.post_cqe((cid + 1) % 4, CqeStatus::Success, 0, b"stale");
        tgt.complete_copy(inc.slot, CqeStatus::Success, b"mine", b"");
        let done = wait(&mut ini);
        assert_eq!((done.cid, done.header.as_slice()), (cid, &b"mine"[..]));
        assert_eq!(ini.outstanding(), 0);

        // And the pair still serves well-formed commands.
        submit(&mut ini, DispatchType::Standalone, b"", b"fine", 4).unwrap();
        echo_one(&mut tgt);
        assert_eq!(wait(&mut ini).payload, b"fine");
    }

    #[test]
    fn sgl_round_trips_through_ring_wrap() {
        let (mut ini, mut tgt, _) = pair(4, 16 * 1024);
        for round in 0..10u8 {
            let seg = vec![round; 500];
            submit_sgl(&mut ini, DispatchType::Standalone, b"", &[&seg, &seg], 100).unwrap();
            let inc = fetch(&mut tgt).unwrap();
            assert_eq!(inc.payload, [vec![round; 500], vec![round; 500]].concat());
            tgt.complete_copy(inc.slot, CqeStatus::Success, b"", &[round; 100]);
            let c = wait(&mut ini);
            assert_eq!(c.payload, vec![round; 100]);
        }
    }

    #[test]
    fn a_buffered_header_and_the_payload_sharing_its_page_land_apart() {
        // Each fetched byte is written by the DMA where it is served from,
        // except the payload bytes that share a page — one DMA — with a
        // header too long for the SQE: those land behind the header and
        // are copied on. Both sides of that page's end, PRP and SGL, with
        // the DMA count the contiguous view `[header ‖ payload]` gives.
        let (mut ini, mut tgt, dma) = pair(4, 16 * 1024);
        let header: Vec<u8> = (0..40).map(|i| 0x40 ^ i).collect();
        for wlen in [1usize, 4096 - 41, 4096 - 40, 4096 - 39, 8192, 12_000] {
            let payload: Vec<u8> = (0..wlen).map(|i| (i % 251) as u8).collect();
            let before = dma.snapshot();
            submit(&mut ini, DispatchType::Standalone, &header, &payload, 0).unwrap();
            let inc = fetch_into(&mut tgt, vec![0xEE; 16 * 1024]).unwrap();
            assert!(!inc.sqe.is_inline());
            assert_eq!(
                (inc.header.as_slice(), &inc.payload[..]),
                (&header[..], &payload[..])
            );
            tgt.complete_copy(inc.slot, CqeStatus::Success, b"", b"");
            wait(&mut ini);
            let dmas = dma.snapshot().since(&before).dma_ops as usize;
            assert_eq!(dmas, 1 + (40 + wlen).div_ceil(4096) + 1, "payload {wlen}");
            // The same bytes as two segments, the header a descriptor of
            // its own.
            let (a, b) = payload.split_at(wlen / 2);
            submit_sgl(&mut ini, DispatchType::Standalone, &header, &[a, b], 0).unwrap();
            let inc = fetch_into(&mut tgt, vec![0xEE; 3]).unwrap();
            assert_eq!(
                (inc.header.as_slice(), &inc.payload[..]),
                (&header[..], &payload[..])
            );
            tgt.complete_copy(inc.slot, CqeStatus::Success, b"", b"");
            wait(&mut ini);
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
            submit(&mut ini, DispatchType::Standalone, b"", b"ping", 4).unwrap();
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
        assert_eq!(wait(&mut ini).payload, b"ping");
    }

    #[test]
    fn a_target_that_never_parks_is_never_woken() {
        let (mut ini, mut tgt, _) = pair(4, 4096);
        for round in 0..23u8 {
            submit(&mut ini, DispatchType::Standalone, b"", &[round], 1).unwrap();
            echo_one(&mut tgt);
            assert_eq!(wait(&mut ini).payload, [round]);
        }
        let mut batch = ini.batch();
        batch
            .stage(DispatchType::Standalone, b"", Payload::Flat(b"a"), 1.into())
            .unwrap();
        batch
            .stage(DispatchType::Standalone, b"", Payload::Flat(b"b"), 1.into())
            .unwrap();
        drop(batch);
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
                match fetch(&mut tgt) {
                    Some(inc) => {
                        tgt.complete_copy(inc.slot, CqeStatus::Success, b"", &inc.payload);
                        served += 1;
                    }
                    None => {
                        tgt.park(HOUR);
                    }
                }
            }
        });
        for i in 0..N {
            submit(&mut ini, DispatchType::Standalone, b"", &i.to_le_bytes(), 4).unwrap();
            assert_eq!(wait(&mut ini).payload, i.to_le_bytes());
        }
        dpu.join().unwrap();
        assert!(ini.doorbell_wakes() <= N as u64);
    }

    /// One raw command: request-header length, write-payload length, read
    /// side, reply-header length.
    #[derive(Clone, Copy, Debug)]
    struct RawOp {
        hdr_len: usize,
        wlen: usize,
        read: ReadSide,
        reply_len: usize,
    }

    impl RawOp {
        /// Request-header bytes the SQE has room for (`sqe.rs` module docs).
        fn room(&self) -> usize {
            16 + 16 * usize::from(self.wlen == 0) + 16 * usize::from(self.read == ReadSide::None)
        }

        fn rlen(&self) -> usize {
            match self.read {
                ReadSide::Buffer(n) => n as usize,
                ReadSide::None => 0,
            }
        }

        /// SQE + the write buffer's pages (a header that did not fit the
        /// SQE, then the payload) + a reply header that did not fit the CQE
        /// (the narrow form beside a payload, the wide one alone) + the
        /// read payload's pages + CQE.
        fn dmas(&self) -> usize {
            let buffered = if self.hdr_len > self.room() {
                self.hdr_len
            } else {
                0
            };
            1 + (buffered + self.wlen).div_ceil(4096)
                + usize::from(self.reply_len > Cqe::room(self.rlen() as u32))
                + self.rlen().div_ceil(4096)
                + 1
        }
    }

    /// Header lengths on both sides of every capacity boundary, and anywhere.
    fn arb_hdr_len() -> impl Strategy<Value = usize> {
        const EDGES: [usize; 11] = [0, 1, 15, 16, 17, 31, 32, 33, 47, 48, 49];
        prop_oneof![
            3 => (0..EDGES.len()).prop_map(|i| EDGES[i]),
            1 => 0usize..=64,
        ]
    }

    fn arb_raw_op() -> impl Strategy<Value = RawOp> {
        const REPLIES: [usize; 8] = [0, 1, 4, 5, 6, 9, 10, 62];
        (
            arb_hdr_len(),
            prop_oneof![Just(0usize), 1usize..12_000],
            prop_oneof![
                Just(ReadSide::None),
                Just(ReadSide::Buffer(0)),
                (1u32..12_000).prop_map(ReadSide::Buffer),
            ],
            (0..REPLIES.len()).prop_map(|i| REPLIES[i]),
        )
            .prop_map(|(hdr_len, wlen, read, reply_len)| RawOp {
                hdr_len,
                wlen,
                read,
                // With no read side the CQE is all a reply can ride.
                reply_len: if read == ReadSide::None {
                    reply_len.min(CQE_WIDE_CAP)
                } else {
                    reply_len
                },
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Batched submission is wire-identical to one command per
        /// doorbell: the target observes the same SQE bytes, header, and
        /// payload for every op whichever way the host staged them.
        #[test]
        fn batched_and_single_submission_produce_identical_wire_bytes(
            n_ops in 1usize..=7,
            headers in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..16), 7),
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..256), 7),
            read_lens in proptest::collection::vec(0u32..512, 7),
        ) {
            let (mut ini_a, mut tgt_a, _) = pair(8, 4096);
            let (mut ini_b, mut tgt_b, _) = pair(8, 4096);

            // Pair A: one doorbell per op.
            for i in 0..n_ops {
                submit(&mut ini_a, DispatchType::Standalone, &headers[i], &payloads[i], read_lens[i])
                    .unwrap();
            }
            // Pair B: one doorbell for the whole batch.
            let mut batch = ini_b.batch();
            for i in 0..n_ops {
                let write = Payload::Flat(&payloads[i]);
                batch
                    .stage(DispatchType::Standalone, &headers[i], write, read_lens[i].into())
                    .unwrap();
            }
            drop(batch);

            let inb = fetch_all(&mut tgt_b);
            prop_assert_eq!(inb.len(), n_ops);
            for (i, inc_b) in inb.iter().enumerate() {
                let inc_a = fetch(&mut tgt_a).expect("op pending on single-submit pair");
                prop_assert_eq!(inc_a.sqe.to_bytes(), inc_b.sqe.to_bytes(), "SQE {}", i);
                prop_assert_eq!(&inc_a.header, &inc_b.header, "header {}", i);
                prop_assert_eq!(&inc_a.payload, &inc_b.payload, "payload {}", i);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn a_header_costs_a_dma_iff_it_does_not_fit(
            ops in proptest::collection::vec(arb_raw_op(), 1..24),
            seed in any::<u8>(),
        ) {
            // Pairs of commands in flight on a 4-deep ring (so the sequence
            // wraps it and flips the phase several times), completed in
            // reverse: SQE-borne and buffer-resident headers side by side.
            let (mut ini, mut tgt, dma) = pair(4, 16 * 1024);
            let bytes = |n: usize, salt: u8| -> Vec<u8> {
                (0..n).map(|i| (i as u8).wrapping_mul(7) ^ salt ^ seed).collect()
            };
            for pair in ops.chunks(2) {
                let before = dma.snapshot();
                let mut cids = Vec::new();
                for (i, op) in pair.iter().enumerate() {
                    let cid = submit(
                        &mut ini,
                        DispatchType::Standalone,
                        &bytes(op.hdr_len, i as u8),
                        &bytes(op.wlen, 0x10 | i as u8),
                        op.read,
                    )
                    .unwrap();
                    cids.push(cid);
                }
                let incs: Vec<_> = pair.iter().map(|_| fetch(&mut tgt).unwrap()).collect();
                for (i, (op, inc)) in pair.iter().zip(&incs).enumerate().rev() {
                    prop_assert_eq!(inc.slot, cids[i]);
                    prop_assert_eq!(inc.sqe.is_inline(), op.hdr_len <= op.room());
                    prop_assert_eq!(&inc.header, &bytes(op.hdr_len, i as u8));
                    prop_assert_eq!(&inc.payload, &bytes(op.wlen, 0x10 | i as u8));
                    tgt.complete_copy(
                        inc.slot,
                        CqeStatus::Success,
                        &bytes(op.reply_len, 0x20 | i as u8),
                        &bytes(op.rlen(), 0x30 | i as u8),
                    );
                }
                for (i, op) in pair.iter().enumerate().rev() {
                    let done = wait(&mut ini);
                    prop_assert_eq!(done.cid, cids[i]);
                    prop_assert_eq!(done.status, CqeStatus::Success);
                    prop_assert_eq!(&done.header, &bytes(op.reply_len, 0x20 | i as u8));
                    prop_assert_eq!(&done.payload, &bytes(op.rlen(), 0x30 | i as u8));
                }
                let want: usize = pair.iter().map(RawOp::dmas).sum();
                prop_assert_eq!(dma.snapshot().since(&before).dma_ops as usize, want);
            }
            prop_assert_eq!(ini.rejected_sqes(), 0);
        }

        /// A reply of every header length up to the buffer's header area,
        /// beside no payload, one byte or 8 KiB, with and without a read
        /// side: SQE + the payload's pages + 1 iff neither CQE form holds
        /// the header + CQE. A reply that needs a read side the command
        /// did not declare is refused for SQE + CQE.
        #[test]
        fn a_reply_header_costs_a_dma_iff_neither_cqe_form_holds_it(
            hdr_len in 0usize..=READ_HEADER_CAP,
            rlen in prop_oneof![Just(0usize), Just(1), Just(8192)],
            read_side in any::<bool>(),
            salt in any::<u8>(),
        ) {
            let (mut ini, mut tgt, dma) = pair(4, 16 * 1024);
            let header: Vec<u8> = (0..hdr_len).map(|i| i as u8 ^ salt).collect();
            let payload = vec![salt; rlen];
            let read = match read_side {
                true => ReadSide::Buffer(rlen as u32),
                false => ReadSide::None,
            };
            let before = dma.snapshot();
            let cid = submit(&mut ini, DispatchType::Standalone, b"H", b"", read).unwrap();
            let inc = fetch(&mut tgt).unwrap();
            tgt.complete_copy(inc.slot, CqeStatus::Success, &header, &payload);
            let done = wait(&mut ini);
            let rides = hdr_len <= Cqe::room(rlen as u32);
            let ops = dma.snapshot().since(&before).dma_ops as usize;
            prop_assert_eq!(done.cid, cid);
            if read_side || (rides && rlen == 0) {
                prop_assert_eq!(done.status, CqeStatus::Success);
                prop_assert_eq!(&done.header, &header);
                prop_assert_eq!(&done.payload, &payload);
                prop_assert_eq!(ops, 1 + rlen.div_ceil(4096) + usize::from(!rides) + 1);
            } else {
                prop_assert_eq!(done.status, CqeStatus::InvalidCommand);
                prop_assert!(done.header.is_empty() && done.payload.is_empty());
                prop_assert_eq!(ops, 2);
            }
        }

        /// Arbitrary segment lists reassemble exactly, and DMA accounting
        /// always equals `SQE + list + populated segments (+ header
        /// descriptor, iff the header does not fit the SQE) + CQE`.
        #[test]
        fn sgl_reassembles_and_counts_dmas(
            segments in proptest::collection::vec(
                (1usize..3000, any::<u8>()),
                1..10
            ),
            header in proptest::collection::vec(any::<u8>(), 0..48),
            // Both sides of the SQE's room under SGL: 12 bytes beside a read
            // side, 28 without one.
            edge in 0usize..8,
            read_side in any::<bool>(),
        ) {
            let header = match [0, 11, 12, 13, 27, 28, 29].get(edge) {
                Some(&len) => vec![0x48 ^ len as u8; len],
                None => header,
            };
            let (read, room) = if read_side {
                (ReadSide::Buffer(0), 12)
            } else {
                (ReadSide::None, 28)
            };
            let (mut ini, mut tgt, dma) = pair(8, 64 * 1024);

            let bufs: Vec<Vec<u8>> = segments
                .iter()
                .map(|&(len, fill)| vec![fill; len])
                .collect();
            let refs: Vec<&[u8]> = bufs.iter().map(|b| b.as_slice()).collect();

            let before = dma.snapshot();
            submit_sgl(&mut ini, DispatchType::Standalone, &header, &refs, read).unwrap();
            let inc = fetch(&mut tgt).unwrap();
            prop_assert_eq!(inc.sqe.is_inline(), header.len() <= room);
            prop_assert_eq!(&inc.header, &header);
            prop_assert_eq!(&inc.payload, &bufs.concat());
            prop_assert_eq!(inc.sqe.sgl_count() as usize, segments.len() + 1);
            tgt.complete_copy(inc.slot, CqeStatus::Success, b"", b"");
            let done = wait(&mut ini);
            prop_assert_eq!(done.status, CqeStatus::Success);

            // DMA ops: SQE (1) + SGL list (1) + header descriptor (1 iff the
            // header did not fit the SQE; zero-length descriptors cost
            // nothing) + one per data segment + CQE (1).
            let expect = 1 + 1 + usize::from(header.len() > room) + segments.len() + 1;
            let delta = dma.snapshot().since(&before);
            prop_assert_eq!(delta.dma_ops as usize, expect);
        }
    }
}
