//! File-semantic drivers over the nvme-fs queue pair.
//!
//! The host half is the [`ChannelPool`](crate::ChannelPool) over each
//! queue's [`Initiator`]: it frames [`FileRequest`]s into the
//! bidirectional command's write header, and decodes each
//! [`FileResponse`] from its reply header where the DMA left it.
//! [`FileTarget`] is the DPU half consumed by the IO-dispatch:
//! [`FileTarget::poll_many`] fetches every posted command into a
//! [`FileIncomingBatch`] — its payload DMA'd straight into the slot it is
//! served from — and [`FileTarget::reply`] takes typed replies. nvme-fs is
//! multi-queue by design (the paper contrasts this with virtio-fs's single
//! queue), so [`create_fabric`] builds any number of independent queue
//! pairs sharing one DMA engine.

use std::sync::Arc;
use std::time::Duration;

use dpc_fault::{FaultPlan, FaultSite};
use dpc_pcie::DmaEngine;

use crate::filemsg::{DecodeError, FileRequest, FileResponse};
use crate::queue::{Initiator, Payload, QueuePair, QueuePairConfig, Target};
use crate::sqe::{CqeStatus, DispatchType};

/// Whether reissuing `req` after a lost/failed completion is safe: the
/// request must produce the same outcome when executed twice. Namespace
/// mutations (create, unlink, rename, …) are not reissued — a duplicate
/// execution would double-apply them.
pub(crate) fn is_idempotent(req: &FileRequest) -> bool {
    matches!(
        req,
        FileRequest::Read { .. }
            | FileRequest::Write { .. }
            | FileRequest::GetAttr { .. }
            | FileRequest::Lookup { .. }
            | FileRequest::StatAt { .. }
            | FileRequest::Readdir { .. }
            | FileRequest::ReaddirAt { .. }
            | FileRequest::Readlink { .. }
            | FileRequest::Truncate { .. }
            | FileRequest::Fsync { .. }
    )
}

/// What a completion with `status` and response `header` says at the
/// file layer.
pub(crate) fn decode_reply(status: CqeStatus, header: &[u8]) -> Result<FileResponse, RecvError> {
    match status {
        CqeStatus::InvalidCommand => Ok(FileResponse::Err(22 /* EINVAL */)),
        CqeStatus::TransportError => Err(RecvError::Transport),
        _ => FileResponse::decode(header).map_err(RecvError::Decode),
    }
}

/// What a command carries besides its request: its dispatch class, its
/// write side and the payload room it expects back. Commands staged
/// together share one.
#[derive(Copy, Clone, Debug)]
pub struct Sides<'a> {
    pub dispatch: DispatchType,
    pub write: Payload<'a>,
    /// Payload capacity expected back (file data for reads, dirent bytes
    /// for readdir).
    pub read_len: u32,
}

/// Error surfaced by the blocking calls of
/// [`ChannelPool`](crate::ChannelPool) — the one way to make one.
#[derive(Debug)]
pub enum CallError {
    /// The response header failed to decode.
    Decode(DecodeError),
    /// The DPU posted a transport-level error completion and the retry
    /// budget (if any) is exhausted.
    Transport,
    /// The per-call deadline expired with no completion, and the retry
    /// budget is exhausted (or the request is unsafe to reissue).
    TimedOut,
}

impl CallError {
    /// The errno a POSIX surface would report for this error.
    pub fn errno(&self) -> i32 {
        match self {
            CallError::Decode(_) => 5,  // EIO
            CallError::Transport => 5,  // EIO
            CallError::TimedOut => 110, // ETIMEDOUT
        }
    }
}

impl core::fmt::Display for CallError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CallError::Decode(e) => write!(f, "response decode failed: {e}"),
            CallError::Transport => write!(f, "nvme-fs transport error (retries exhausted)"),
            CallError::TimedOut => write!(f, "nvme-fs call deadline expired (retries exhausted)"),
        }
    }
}

impl std::error::Error for CallError {}

impl From<DecodeError> for CallError {
    fn from(e: DecodeError) -> CallError {
        CallError::Decode(e)
    }
}

/// A reply, owned: what [`ChannelPool::call`](crate::ChannelPool::call)
/// returns.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FileCompletion {
    pub cid: u16,
    pub response: FileResponse,
    pub payload: Vec<u8>,
}

/// Why a completion carries no usable reply. The CID is still valid — the
/// pool routes the failure to the owning waiter, which decides whether the
/// command can be reissued.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum RecvError {
    /// The response header failed to decode.
    Decode(DecodeError),
    /// The DPU posted [`CqeStatus::TransportError`]: the command was shed
    /// at the transport layer and never executed.
    Transport,
}

impl From<RecvError> for CallError {
    fn from(e: RecvError) -> CallError {
        match e {
            RecvError::Decode(d) => CallError::Decode(d),
            RecvError::Transport => CallError::Transport,
        }
    }
}

/// A decoded request pending on the DPU side, in the batch slot it is
/// served from.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FileIncoming {
    pub slot: u16,
    pub dispatch: DispatchType,
    pub request: FileRequest,
    pub payload: Vec<u8>,
    /// Read-payload capacity the host reserved.
    pub read_len: u32,
}

impl Default for FileIncoming {
    fn default() -> Self {
        FileIncoming {
            slot: 0,
            dispatch: DispatchType::Standalone,
            request: FileRequest::GetAttr { ino: 0 },
            payload: Vec::new(),
            read_len: 0,
        }
    }
}

/// Reusable batch of decoded requests filled by [`FileTarget::poll_many`].
/// Each slot's payload buffer is where the DMA gathers the next command's
/// payload, recycled across [`clear`](FileIncomingBatch::clear) calls: a
/// warm batch neither allocates nor zero-fills.
#[derive(Default)]
pub struct FileIncomingBatch {
    items: Vec<FileIncoming>,
    len: usize,
}

impl FileIncomingBatch {
    pub fn new() -> FileIncomingBatch {
        FileIncomingBatch::default()
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

    pub fn as_slice(&self) -> &[FileIncoming] {
        &self.items[..self.len]
    }

    pub fn iter(&self) -> core::slice::Iter<'_, FileIncoming> {
        self.as_slice().iter()
    }

    fn next_slot(&mut self) -> &mut FileIncoming {
        if self.len == self.items.len() {
            self.items.push(FileIncoming::default());
        }
        self.len += 1;
        &mut self.items[self.len - 1]
    }

    /// Un-claim the most recently claimed slot (malformed request).
    fn pop_slot(&mut self) {
        self.len -= 1;
    }
}

impl<'a> IntoIterator for &'a FileIncomingBatch {
    type Item = &'a FileIncoming;
    type IntoIter = core::slice::Iter<'a, FileIncoming>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Fault sites a [`FileTarget`] consults per decoded request. Both only
/// ever fire for idempotent requests (the host reissues by CID, which
/// must be safe).
struct TargetFaults {
    /// "nvmefs.defer": hold the request back for `delay` poll ticks, then
    /// serve it normally. Models a stalled link — the completion always
    /// re-emerges, but possibly after the host's deadline (the host then
    /// sees a *dropped* completion, reissues, and the late CQE lands on
    /// an abandoned waiter).
    defer: Arc<FaultSite>,
    /// "nvmefs.sqe_error": shed the command with a
    /// [`CqeStatus::TransportError`] CQE instead of executing it.
    error: Arc<FaultSite>,
}

/// DPU-side file target: one nvme-fs queue pair's server half.
pub struct FileTarget {
    tgt: Target,
    faults: Option<TargetFaults>,
    /// Requests withheld by the defer site: (release tick, request).
    deferred: Vec<(u64, FileIncoming)>,
    tick: u64,
}

impl FileTarget {
    pub fn new(tgt: Target) -> FileTarget {
        FileTarget {
            tgt,
            faults: None,
            deferred: Vec::new(),
            tick: 0,
        }
    }

    /// Attach transport fault sites from `plan` ("nvmefs.defer" and
    /// "nvmefs.sqe_error"; both created `Off`).
    pub fn set_fault_plan(&mut self, plan: &Arc<FaultPlan>) {
        self.faults = Some(TargetFaults {
            defer: plan.site("nvmefs.defer"),
            error: plan.site("nvmefs.sqe_error"),
        });
    }

    /// Consult the fault sites for the request just decoded into `out`'s
    /// last slot. An injected fault consumes it: it is shed with a
    /// transport-error CQE, or moved — not copied — onto the deferral list.
    /// Either way it leaves the batch.
    fn inject(&mut self, out: &mut FileIncomingBatch) {
        let Some(faults) = &self.faults else {
            return;
        };
        let last = out.len - 1;
        let inc = &out.items[last];
        if !is_idempotent(&inc.request) {
            return;
        }
        if faults.error.fires() {
            self.tgt
                .complete_copy(inc.slot, CqeStatus::TransportError, b"", b"");
        } else if let Some(delay) = faults.defer.check() {
            let inc = std::mem::take(&mut out.items[last]);
            self.deferred.push((self.tick + delay.max(1), inc));
        } else {
            return;
        }
        out.pop_slot();
    }

    /// Sleep on this queue's SQ doorbell (see [`Target::park`]); `false`
    /// means it did not sleep. Refused while fault-injected requests sit
    /// on the deferral list: they are released by poll *ticks*, which only
    /// a caller that keeps polling produces.
    pub fn park(&mut self, timeout: Duration) -> bool {
        self.deferred.is_empty() && self.tgt.park(timeout)
    }

    /// Pop one deferred request whose release tick has passed.
    fn take_deferred(&mut self) -> Option<FileIncoming> {
        let tick = self.tick;
        let idx = self.deferred.iter().position(|(due, _)| *due <= tick)?;
        Some(self.deferred.swap_remove(idx).1)
    }

    /// Drain every request published by the last doorbell into `out`:
    /// one doorbell-register read per pass. Each command's payload is
    /// DMA'd straight into the slot it is served from, and its header
    /// decoded out of the target's one header buffer. Malformed headers are
    /// completed with `InvalidCommand` inline and do not appear in the
    /// batch; armed fault sites may shed or defer requests the same way.
    /// Returns the number of decoded requests.
    pub fn poll_many(&mut self, out: &mut FileIncomingBatch) -> usize {
        out.clear();
        self.tick += 1;
        // Release deferred requests whose stall has elapsed.
        while let Some(ready) = self.take_deferred() {
            *out.next_slot() = ready;
        }
        for _ in 0..self.tgt.posted() {
            let slot = out.next_slot();
            let Some((sqe, header)) = self.tgt.fetch(&mut slot.payload) else {
                out.pop_slot();
                continue;
            };
            let Ok(request) = FileRequest::decode(header) else {
                out.pop_slot();
                self.tgt.reject(sqe.cid());
                continue;
            };
            slot.request = request;
            slot.slot = sqe.cid();
            slot.dispatch = sqe.dispatch();
            slot.read_len = sqe.read_len();
            self.inject(out);
        }
        out.len()
    }

    /// Reply to a request [`poll_many`](Self::poll_many) handed out, its
    /// payload produced in place: `serve` is lent the read half of the
    /// command's transport buffer — the `read_len` bytes the host declared
    /// — and returns the response and how many payload bytes it wrote at
    /// the front, or `None` to refuse the command (`InvalidCommand`, and a
    /// `rejected_sqes`). It runs under the data pool's write guard, so it
    /// must not wait on anything a host thread holds while it reads a
    /// reply (DESIGN.md §7.2). The response header is encoded into the
    /// target's reused header buffer.
    pub fn reply_with(
        &mut self,
        slot: u16,
        serve: impl FnOnce(&mut [u8]) -> Option<(FileResponse, usize)>,
    ) {
        self.tgt.complete(slot, |payload, header| {
            let (response, n) = serve(payload)?;
            response.encode(header);
            let status = match response {
                FileResponse::Err(_) => CqeStatus::FsError,
                _ => CqeStatus::Success,
            };
            Some((status, n))
        });
    }

    /// Reply to a request [`poll_many`](Self::poll_many) handed out, with
    /// a payload produced beforehand: [`reply_with`](Self::reply_with),
    /// copying `payload` in. Refused when it outgrows the read buffer.
    pub fn reply(&mut self, slot: u16, response: &FileResponse, payload: &[u8]) {
        self.reply_with(slot, |dst| {
            dst.get_mut(..payload.len())?.copy_from_slice(payload);
            Some((response.clone(), payload.len()))
        });
    }
}

/// Build `queues` independent file-semantic queue pairs sharing one DMA
/// engine — nvme-fs's multi-queue deployment (one pair per host thread in
/// the paper's evaluation): the host halves for
/// [`ChannelPool::new`](crate::ChannelPool::new), and the DPU halves.
pub fn create_fabric(
    queues: usize,
    cfg: QueuePairConfig,
    dma: &DmaEngine,
) -> (Vec<Initiator>, Vec<FileTarget>) {
    assert!(queues > 0);
    let mut initiators = Vec::with_capacity(queues);
    let mut targets = Vec::with_capacity(queues);
    for _ in 0..queues {
        let (ini, tgt) = QueuePair::new(cfg).split(dma.clone());
        initiators.push(ini);
        targets.push(FileTarget::new(tgt));
    }
    (initiators, targets)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::filemsg::WireAttr;
    use crate::pool::{ChannelPool, Ticket};
    use crate::queue::ReadSide;

    /// One queue pair behind a pool, and its target.
    fn one_pair() -> (ChannelPool, FileTarget, DmaEngine) {
        let dma = DmaEngine::new();
        let (chans, mut tgts) = create_fabric(1, QueuePairConfig::default(), &dma);
        (ChannelPool::new(chans), tgts.pop().unwrap(), dma)
    }

    fn sides(dispatch: DispatchType, write: &[u8], read_len: u32) -> Sides<'_> {
        Sides {
            dispatch,
            write: Payload::Flat(write),
            read_len,
        }
    }

    /// Stage `req` on queue `qid` under a doorbell of its own.
    pub(crate) fn submit(
        pool: &ChannelPool,
        qid: usize,
        sides: &Sides,
        req: &FileRequest,
    ) -> Ticket {
        let mut ticket = Ticket::default();
        let one = std::slice::from_mut(&mut ticket);
        assert_eq!(pool.stage(qid, sides, std::slice::from_ref(req), one), 1);
        ticket
    }

    /// `ticket`'s reply, owned.
    fn reaped(
        pool: &ChannelPool,
        ticket: Ticket,
        sides: &Sides,
        req: &FileRequest,
    ) -> FileCompletion {
        let owned = |response, payload: crate::Reply<'_>| FileCompletion {
            cid: payload.cid(),
            response,
            payload: payload.to_vec(),
        };
        pool.wait(ticket, sides, req, owned).expect("reply decodes")
    }

    /// The one request the last doorbell posted, as the target serves it;
    /// `None` when nothing is there to serve.
    pub(crate) fn serve_one(tgt: &mut FileTarget) -> Option<FileIncoming> {
        let mut batch = FileIncomingBatch::new();
        match tgt.poll_many(&mut batch) {
            0 => None,
            1 => batch.iter().next().cloned(),
            n => panic!("{n} requests served, one expected"),
        }
    }

    #[test]
    fn file_write_round_trip() {
        let (pool, mut tgt, _) = one_pair();
        let req = FileRequest::Write {
            ino: 9,
            offset: 4096,
            len: 8192,
        };
        let data = vec![0xEE; 8192];
        let sides = sides(DispatchType::Standalone, &data, 0);
        let ticket = submit(&pool, 0, &sides, &req);

        let inc = serve_one(&mut tgt).unwrap();
        assert_eq!(inc.request, req);
        assert_eq!(inc.payload, data);
        assert_eq!(inc.dispatch, DispatchType::Standalone);
        tgt.reply(inc.slot, &FileResponse::Bytes(8192), b"");

        let done = reaped(&pool, ticket, &sides, &req);
        assert_eq!(done.cid, ticket.cid);
        assert_eq!(done.response, FileResponse::Bytes(8192));
    }

    #[test]
    fn file_read_round_trip() {
        let (pool, mut tgt, _) = one_pair();
        let req = FileRequest::Read {
            ino: 9,
            offset: 0,
            len: 4096,
        };
        let sides = sides(DispatchType::Distributed, b"", 4096);
        let ticket = submit(&pool, 0, &sides, &req);
        let inc = serve_one(&mut tgt).unwrap();
        assert_eq!(inc.dispatch, DispatchType::Distributed);
        assert_eq!(inc.read_len, 4096);
        tgt.reply(inc.slot, &FileResponse::Bytes(4096), &[0xAB; 4096]);
        let done = reaped(&pool, ticket, &sides, &req);
        assert_eq!(done.response, FileResponse::Bytes(4096));
        assert_eq!(done.payload, vec![0xAB; 4096]);
    }

    #[test]
    fn attr_response_round_trip() {
        let (pool, mut tgt, _) = one_pair();
        let attr = WireAttr {
            ino: 3,
            size: 12345,
            mode: 0o644,
            nlink: 1,
            kind: 0,
            ..Default::default()
        };
        let (req, sides) = (
            FileRequest::GetAttr { ino: 3 },
            sides(DispatchType::Standalone, b"", 0),
        );
        let ticket = submit(&pool, 0, &sides, &req);
        let inc = serve_one(&mut tgt).unwrap();
        tgt.reply(inc.slot, &FileResponse::Attr(attr), b"");
        let done = reaped(&pool, ticket, &sides, &req);
        assert_eq!(done.response, FileResponse::Attr(attr));
    }

    #[test]
    fn error_response_sets_fs_error_status() {
        let (pool, mut tgt, _) = one_pair();
        let (req, sides) = (
            FileRequest::GetAttr { ino: 404 },
            sides(DispatchType::Standalone, b"", 0),
        );
        let ticket = submit(&pool, 0, &sides, &req);
        let inc = serve_one(&mut tgt).unwrap();
        tgt.reply(inc.slot, &FileResponse::Err(2 /* ENOENT */), b"");
        let done = reaped(&pool, ticket, &sides, &req);
        assert_eq!(done.response, FileResponse::Err(2));
    }

    #[test]
    fn short_replies_ride_the_cqe_byte_exact() {
        // `Ok` (1 byte) and `Bytes`/`Entries`/`Err` (5) fit the CQE beside
        // `result`, `sq_head`, `cid` and the phase bit; `Ino` (9) fits only
        // the wide form, which a reply with a payload cannot use, and
        // `Attr` (58) fits neither: both keep their header DMA here. Four
        // times round a 4-deep ring, so every CQ position and both phases
        // carry each.
        let dma = DmaEngine::new();
        let cfg = QueuePairConfig {
            depth: 4,
            max_io_bytes: 8192,
        };
        let (chans, mut tgts) = create_fabric(1, cfg, &dma);
        let (pool, tgt) = (ChannelPool::new(chans), &mut tgts[0]);
        let attr = WireAttr {
            ino: u64::MAX,
            size: 1 << 40,
            mtime_ns: u64::MAX,
            kind: 1,
            ..Default::default()
        };
        let replies = [
            (FileResponse::Ok, 0),
            (FileResponse::Bytes(0), 0),
            (FileResponse::Bytes(u32::MAX), 0),
            (FileResponse::Entries(0x0102_0304), 0),
            (FileResponse::Err(i32::MIN), 0),
            (FileResponse::Err(-1), 0),
            (FileResponse::Ino(u64::MAX), 1),
            (FileResponse::Attr(attr), 1),
        ];
        let sides = sides(DispatchType::Standalone, b"", 100);
        for round in 0..16u8 {
            for (resp, header_dmas) in &replies {
                let before = dma.snapshot();
                let req = FileRequest::GetAttr { ino: round as u64 };
                let ticket = submit(&pool, 0, &sides, &req);
                let inc = serve_one(tgt).unwrap();
                assert_eq!(inc.request, req);
                let payload = vec![round; 1 + round as usize];
                tgt.reply(inc.slot, resp, &payload);
                let done = reaped(&pool, ticket, &sides, &req);
                assert_eq!((done.cid, &done.response), (ticket.cid, resp));
                assert_eq!(done.payload, payload);
                // SQE (request inside), header if too long, payload, CQE.
                let ops = dma.snapshot().since(&before).dma_ops;
                assert_eq!(ops, 1 + header_dmas + 1 + 1, "{resp:?}");
            }
        }
    }

    #[test]
    fn an_inline_header_that_does_not_decode_is_refused_and_counted() {
        let dma = DmaEngine::new();
        let (mut ini, tgt) = QueuePair::new(QueuePairConfig::default()).split(dma);
        let mut tgt = FileTarget::new(tgt);
        let mut good = Vec::new();
        FileRequest::Fsync { ino: 7 }.encode(&mut good);
        // An unknown tag, a truncated request, nothing, trailing bytes —
        // in the SQE and in the buffer.
        let mut long = good.clone();
        long.resize(60, 0);
        let bad: [&[u8]; 4] = [b"\xEE", &good[..good.len() - 1], b"", &long];
        for (i, header) in bad.into_iter().enumerate() {
            let cid = ini
                .batch()
                .stage(
                    DispatchType::Standalone,
                    header,
                    Payload::Flat(b""),
                    ReadSide::Buffer(0),
                )
                .unwrap();
            assert!(serve_one(&mut tgt).is_none());
            let done = ini.reap().expect("refusal posted");
            ini.release(done.cid);
            assert_eq!((done.cid, done.status), (cid, CqeStatus::InvalidCommand));
            assert_eq!(done.hdr_len, 0);
            assert_eq!(ini.rejected_sqes(), i as u64 + 1);
        }
        ini.batch()
            .stage(
                DispatchType::Standalone,
                &good,
                Payload::Flat(b""),
                ReadSide::Buffer(0),
            )
            .unwrap();
        assert_eq!(
            serve_one(&mut tgt).unwrap().request,
            FileRequest::Fsync { ino: 7 }
        );
    }

    #[test]
    fn multi_queue_fabric_is_independent() {
        let dma = DmaEngine::new();
        let (chans, mut tgts) = create_fabric(4, QueuePairConfig::default(), &dma);
        let pool = ChannelPool::new(chans);
        let sides = sides(DispatchType::Standalone, b"", 0);
        let reqs: Vec<FileRequest> = (0..4).map(|ino| FileRequest::GetAttr { ino }).collect();
        // Submit one request on each queue; serve them out of order.
        let tickets: Vec<Ticket> = (0..4).map(|q| submit(&pool, q, &sides, &reqs[q])).collect();
        for q in (0..4).rev() {
            let inc = serve_one(&mut tgts[q]).unwrap();
            assert_eq!(inc.request, reqs[q]);
            tgts[q].reply(inc.slot, &FileResponse::Ino(q as u64), b"");
        }
        for (q, (&ticket, req)) in tickets.iter().zip(&reqs).enumerate() {
            assert_eq!(ticket.qid as usize, q);
            let done = reaped(&pool, ticket, &sides, req);
            assert_eq!(done.response, FileResponse::Ino(q as u64));
        }
    }

    #[test]
    fn a_target_holding_deferred_requests_refuses_to_park() {
        // Deferred requests are released by poll ticks: a target asleep
        // on its doorbell would hold them until the next unrelated ring.
        use dpc_fault::FaultSpec;
        let (pool, mut tgt, _) = one_pair();
        let plan = FaultPlan::new(3);
        plan.arm("nvmefs.defer", FaultSpec::nth(1).with_delay(5));
        tgt.set_fault_plan(&plan);
        let hour = Duration::from_secs(3600);
        let req = FileRequest::GetAttr { ino: 1 };
        submit(&pool, 0, &sides(DispatchType::Standalone, b"", 0), &req);
        assert!(serve_one(&mut tgt).is_none(), "the request is withheld");
        let mut ticks = 0;
        let inc = loop {
            assert!(!tgt.park(hour), "parked on a deferred request");
            ticks += 1;
            if let Some(inc) = serve_one(&mut tgt) {
                break inc;
            }
        };
        assert_eq!((inc.request, ticks), (req, 5));
        // Nothing withheld any more, nothing posted: now it may sleep.
        assert!(tgt.park(Duration::from_millis(1)));
        assert_eq!(pool.stats().doorbell_wakes, 0);
    }
}
