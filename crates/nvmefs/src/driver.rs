//! File-semantic drivers over the nvme-fs queue pair.
//!
//! [`FileChannel`] is the host half used by the fs-adapter: it frames
//! [`FileRequest`]s into the bidirectional command's write header and
//! decodes [`FileResponse`]s from the read header. [`FileTarget`] is the
//! DPU half consumed by the IO-dispatch: it yields decoded requests and
//! accepts typed replies. nvme-fs is multi-queue by design (the paper
//! contrasts this with virtio-fs's single queue), so [`create_fabric`]
//! builds any number of independent queue pairs sharing one DMA engine.

use std::sync::Arc;
use std::time::Duration;

use dpc_pcie::DmaEngine;
use dpc_sim::fault::{FaultPlan, FaultSite};

use crate::filemsg::{DecodeError, FileRequest, FileResponse};
use crate::queue::{
    Incoming, IncomingBatch, Initiator, QueueFull, QueuePair, QueuePairConfig, ReadSide, Target,
};
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

/// The read side `req` needs when the caller expects `read_len` payload
/// bytes back: none at all when it expects none and every reply header
/// rides the CQE — which leaves the SQE's PRP-Read Dwords to the request
/// header.
fn read_side(req: &FileRequest, read_len: u32) -> ReadSide {
    if read_len == 0 && req.reply_rides_cqe() {
        ReadSide::None
    } else {
        ReadSide::Buffer(read_len)
    }
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

/// Host-side file channel: one nvme-fs queue pair speaking file semantics.
pub struct FileChannel {
    pub(crate) ini: Initiator,
    hdr_buf: Vec<u8>,
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

/// A decoded completion delivered by [`FileChannel::poll`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FileCompletion {
    pub cid: u16,
    pub response: FileResponse,
    pub payload: Vec<u8>,
}

/// Why a polled completion carries no usable [`FileCompletion`]. The CID
/// is still valid — multiplexers route the failure to the owning waiter,
/// which decides whether the command can be reissued.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RecvError {
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

impl FileChannel {
    pub fn new(ini: Initiator) -> FileChannel {
        FileChannel {
            ini,
            hdr_buf: Vec::with_capacity(64),
        }
    }

    pub fn queue_id(&self) -> u16 {
        self.ini.queue_id()
    }

    pub fn outstanding(&self) -> usize {
        self.ini.outstanding()
    }

    /// Commands this queue's target refused as malformed at the transport
    /// layer (see [`Initiator::rejected_sqes`]).
    pub fn rejected_sqes(&self) -> u64 {
        self.ini.rejected_sqes()
    }

    /// Doorbell rings that found this queue's target asleep and woke it
    /// (see [`Initiator::doorbell_wakes`]).
    pub fn doorbell_wakes(&self) -> u64 {
        self.ini.doorbell_wakes()
    }

    /// Ring depth of the underlying queue pair (at most `depth - 1`
    /// commands can be in flight).
    pub fn depth(&self) -> u16 {
        self.ini.depth()
    }

    /// Submit one file request (under its own doorbell). Returns its CID.
    pub fn submit(
        &mut self,
        dispatch: DispatchType,
        req: &FileRequest,
        write_payload: &[u8],
        read_len: u32,
    ) -> Result<u16, QueueFull> {
        let sides = Sides {
            dispatch,
            write: Payload::Flat(write_payload),
            read_len,
        };
        let mut cid = Err(QueueFull);
        self.stage(&sides, std::slice::from_ref(req), |_, c| cid = Ok(c));
        cid
    }

    /// Poll for one completion and decode its response header.
    pub fn poll(&mut self) -> Option<Result<FileCompletion, RecvError>> {
        let done = self.ini.poll()?;
        Some(
            decode_reply(done.status, &done.header).map(|response| FileCompletion {
                cid: done.cid,
                response,
                payload: done.payload,
            }),
        )
    }

    /// Stage `reqs`, each with `sides`, under one doorbell: as many as the
    /// ring takes right now. Hands each staged command's index and CID to
    /// `staged`, in order, and returns how many went — none when the ring
    /// is full, and then nothing was published.
    pub(crate) fn stage(
        &mut self,
        sides: &Sides<'_>,
        reqs: &[FileRequest],
        mut staged: impl FnMut(usize, u16),
    ) -> usize {
        let mut batch = self.ini.batch();
        for (i, req) in reqs.iter().enumerate() {
            self.hdr_buf.clear();
            req.encode(&mut self.hdr_buf);
            let (hdr, read) = (&self.hdr_buf, read_side(req, sides.read_len));
            let cid = match sides.write {
                Payload::Flat(data) => batch.submit(sides.dispatch, hdr, data, read),
                Payload::Gather(segments) => batch.submit_sgl(sides.dispatch, hdr, segments, read),
            };
            match cid {
                Ok(cid) => staged(i, cid),
                Err(QueueFull) => break,
            }
        }
        batch.staged()
    }
}

/// A decoded request pending on the DPU side.
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
/// Payload buffers are recycled across [`clear`](FileIncomingBatch::clear)
/// calls, like the queue-layer batches.
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
    hdr_buf: Vec<u8>,
    inc_batch: IncomingBatch,
    faults: Option<TargetFaults>,
    /// Requests withheld by the defer site: (release tick, request).
    deferred: Vec<(u64, FileIncoming)>,
    tick: u64,
}

impl FileTarget {
    pub fn new(tgt: Target) -> FileTarget {
        FileTarget {
            tgt,
            hdr_buf: Vec::with_capacity(64),
            inc_batch: IncomingBatch::new(),
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

    pub fn queue_id(&self) -> u16 {
        self.tgt.queue_id()
    }

    /// Consult the fault sites for a freshly decoded request. Returns
    /// `true` when the request was consumed by an injected fault (shed
    /// with a transport-error CQE, or parked on the deferral list).
    fn inject(&mut self, inc: &FileIncoming) -> bool {
        let Some(faults) = &self.faults else {
            return false;
        };
        if !is_idempotent(&inc.request) {
            return false;
        }
        if faults.error.fires() {
            self.tgt
                .complete(inc.slot, CqeStatus::TransportError, b"", b"");
            return true;
        }
        if let Some(delay) = faults.defer.check() {
            self.deferred.push((self.tick + delay.max(1), inc.clone()));
            return true;
        }
        false
    }

    /// Poll for one incoming request. Malformed headers are completed with
    /// an `InvalidCommand` CQE internally and skipped (returns `None` for
    /// this poll round), as are requests consumed by an armed fault site.
    pub fn poll(&mut self) -> Option<FileIncoming> {
        self.tick += 1;
        if let Some(ready) = self.take_deferred() {
            return Some(ready);
        }
        let Incoming {
            sqe,
            slot,
            header,
            payload,
        } = self.tgt.poll()?;
        match FileRequest::decode(&header) {
            Ok(request) => {
                let inc = FileIncoming {
                    slot,
                    dispatch: sqe.dispatch(),
                    request,
                    payload,
                    read_len: sqe.read_len(),
                };
                if self.inject(&inc) {
                    None
                } else {
                    Some(inc)
                }
            }
            Err(_) => {
                self.tgt.reject(slot);
                None
            }
        }
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

    /// Drain every request published by the last doorbell into `out`,
    /// recycling its buffers: one doorbell-register read per pass.
    /// Malformed headers are completed with `InvalidCommand` inline and do
    /// not appear in the batch; armed fault sites may shed or defer
    /// requests the same way. Returns the number of decoded requests.
    pub fn poll_many(&mut self, out: &mut FileIncomingBatch) -> usize {
        out.clear();
        self.tick += 1;
        // Release deferred requests whose stall has elapsed.
        while let Some(ready) = self.take_deferred() {
            *out.next_slot() = ready;
        }
        // Split borrow: poll into the queue-layer batch, then decode each
        // command into the caller's file-layer batch.
        let mut raw = std::mem::take(&mut self.inc_batch);
        self.tgt.poll_many(&mut raw);
        for inc in raw.iter() {
            let slot = out.next_slot();
            match FileRequest::decode(&inc.header) {
                Ok(request) => {
                    slot.request = request;
                    slot.slot = inc.slot;
                    slot.dispatch = inc.sqe.dispatch();
                    slot.read_len = inc.sqe.read_len();
                    slot.payload.clear();
                    slot.payload.extend_from_slice(&inc.payload);
                }
                Err(_) => {
                    out.pop_slot();
                    self.tgt.reject(inc.slot);
                    continue;
                }
            }
            if self.faults.is_some() {
                let decoded = out.items[out.len - 1].clone();
                if self.inject(&decoded) {
                    out.pop_slot();
                }
            }
        }
        self.inc_batch = raw;
        out.len()
    }

    /// Reply to a previously polled request.
    pub fn reply(&mut self, slot: u16, response: &FileResponse, payload: &[u8]) {
        self.hdr_buf.clear();
        response.encode(&mut self.hdr_buf);
        let status = match response {
            FileResponse::Err(_) => CqeStatus::FsError,
            _ => CqeStatus::Success,
        };
        self.tgt.complete(slot, status, &self.hdr_buf, payload);
    }
}

/// Build `queues` independent file-semantic queue pairs sharing one DMA
/// engine — nvme-fs's multi-queue deployment (one pair per host thread in
/// the paper's evaluation).
pub fn create_fabric(
    queues: usize,
    cfg: QueuePairConfig,
    dma: &DmaEngine,
) -> (Vec<FileChannel>, Vec<FileTarget>) {
    assert!(queues > 0);
    let mut channels = Vec::with_capacity(queues);
    let mut targets = Vec::with_capacity(queues);
    for q in 0..queues {
        let (ini, tgt) = QueuePair::new(q as u16, cfg).split(dma.clone());
        channels.push(FileChannel::new(ini));
        targets.push(FileTarget::new(tgt));
    }
    (channels, targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filemsg::WireAttr;

    fn one_pair() -> (FileChannel, FileTarget, DmaEngine) {
        let dma = DmaEngine::new();
        let (mut chans, mut tgts) = create_fabric(1, QueuePairConfig::default(), &dma);
        (chans.pop().unwrap(), tgts.pop().unwrap(), dma)
    }

    #[test]
    fn file_write_round_trip() {
        let (mut chan, mut tgt, _) = one_pair();
        let req = FileRequest::Write {
            ino: 9,
            offset: 4096,
            len: 8192,
        };
        let data = vec![0xEE; 8192];
        let cid = chan
            .submit(DispatchType::Standalone, &req, &data, 0)
            .unwrap();

        let inc = tgt.poll().unwrap();
        assert_eq!(inc.request, req);
        assert_eq!(inc.payload, data);
        assert_eq!(inc.dispatch, DispatchType::Standalone);
        tgt.reply(inc.slot, &FileResponse::Bytes(8192), b"");

        let done = loop {
            if let Some(d) = chan.poll() {
                break d.unwrap();
            }
        };
        assert_eq!(done.cid, cid);
        assert_eq!(done.response, FileResponse::Bytes(8192));
    }

    #[test]
    fn file_read_round_trip() {
        let (mut chan, mut tgt, _) = one_pair();
        let req = FileRequest::Read {
            ino: 9,
            offset: 0,
            len: 4096,
        };
        chan.submit(DispatchType::Distributed, &req, b"", 4096)
            .unwrap();
        let inc = tgt.poll().unwrap();
        assert_eq!(inc.dispatch, DispatchType::Distributed);
        assert_eq!(inc.read_len, 4096);
        tgt.reply(inc.slot, &FileResponse::Bytes(4096), &[0xAB; 4096]);
        let done = loop {
            if let Some(d) = chan.poll() {
                break d.unwrap();
            }
        };
        assert_eq!(done.response, FileResponse::Bytes(4096));
        assert_eq!(done.payload, vec![0xAB; 4096]);
    }

    #[test]
    fn attr_response_round_trip() {
        let (mut chan, mut tgt, _) = one_pair();
        let attr = WireAttr {
            ino: 3,
            size: 12345,
            mode: 0o644,
            nlink: 1,
            kind: 0,
            ..Default::default()
        };
        chan.submit(
            DispatchType::Standalone,
            &FileRequest::GetAttr { ino: 3 },
            b"",
            0,
        )
        .unwrap();
        let inc = tgt.poll().unwrap();
        tgt.reply(inc.slot, &FileResponse::Attr(attr), b"");
        let done = loop {
            if let Some(d) = chan.poll() {
                break d.unwrap();
            }
        };
        assert_eq!(done.response, FileResponse::Attr(attr));
    }

    #[test]
    fn error_response_sets_fs_error_status() {
        let (mut chan, mut tgt, _) = one_pair();
        chan.submit(
            DispatchType::Standalone,
            &FileRequest::GetAttr { ino: 404 },
            b"",
            0,
        )
        .unwrap();
        let inc = tgt.poll().unwrap();
        tgt.reply(inc.slot, &FileResponse::Err(2 /* ENOENT */), b"");
        let done = loop {
            if let Some(d) = chan.poll() {
                break d.unwrap();
            }
        };
        assert_eq!(done.response, FileResponse::Err(2));
    }

    #[test]
    fn short_replies_ride_the_cqe_byte_exact() {
        // `Ok` (1 byte) and `Bytes`/`Entries`/`Err` (5) fit the CQE beside
        // `result`, `sq_head`, `cid` and the phase bit; `Ino` (9) and
        // `Attr` (62) keep their header DMA. Four times round a 4-deep
        // ring, so every CQ position and both phases carry each.
        let dma = DmaEngine::new();
        let cfg = QueuePairConfig {
            depth: 4,
            max_io_bytes: 8192,
        };
        let (mut chans, mut tgts) = create_fabric(1, cfg, &dma);
        let (chan, tgt) = (&mut chans[0], &mut tgts[0]);
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
        for round in 0..16u8 {
            for (resp, header_dmas) in &replies {
                let before = dma.snapshot();
                let req = FileRequest::GetAttr { ino: round as u64 };
                let cid = chan
                    .submit(DispatchType::Standalone, &req, b"", 100)
                    .unwrap();
                let inc = tgt.poll().unwrap();
                assert_eq!(inc.request, req);
                let payload = vec![round; 1 + round as usize];
                tgt.reply(inc.slot, resp, &payload);
                let done = chan.poll().unwrap().unwrap();
                assert_eq!((done.cid, &done.response), (cid, resp));
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
        let (mut ini, tgt) = QueuePair::new(0, QueuePairConfig::default()).split(dma);
        let mut tgt = FileTarget::new(tgt);
        let mut batch = FileIncomingBatch::new();
        let mut good = Vec::new();
        FileRequest::Fsync { ino: 7 }.encode(&mut good);
        // An unknown tag, a truncated request, trailing bytes — through
        // `poll` and through `poll_many`, in the SQE and in the buffer.
        let mut long = good.clone();
        long.resize(60, 0);
        let bad: [&[u8]; 4] = [b"\xEE", &good[..good.len() - 1], b"", &long];
        for (i, header) in bad.into_iter().enumerate() {
            let cid = ini
                .submit(DispatchType::Standalone, header, b"", 0)
                .unwrap();
            if i % 2 == 0 {
                assert!(tgt.poll().is_none());
            } else {
                assert_eq!(tgt.poll_many(&mut batch), 0);
            }
            let done = ini.wait();
            assert_eq!((done.cid, done.status), (cid, CqeStatus::InvalidCommand));
            assert!(done.header.is_empty());
            assert_eq!(ini.rejected_sqes(), i as u64 + 1);
        }
        ini.submit(DispatchType::Standalone, &good, b"", 0).unwrap();
        assert_eq!(tgt.poll().unwrap().request, FileRequest::Fsync { ino: 7 });
    }

    #[test]
    fn multi_queue_fabric_is_independent() {
        let dma = DmaEngine::new();
        let (mut chans, mut tgts) = create_fabric(4, QueuePairConfig::default(), &dma);
        // Submit one request on each queue; serve them out of order.
        for (q, chan) in chans.iter_mut().enumerate() {
            chan.submit(
                DispatchType::Standalone,
                &FileRequest::GetAttr { ino: q as u64 },
                b"",
                0,
            )
            .unwrap();
        }
        for q in (0..4).rev() {
            let inc = tgts[q].poll().unwrap();
            assert_eq!(inc.request, FileRequest::GetAttr { ino: q as u64 });
            tgts[q].reply(inc.slot, &FileResponse::Ino(q as u64), b"");
        }
        for (q, chan) in chans.iter_mut().enumerate() {
            let done = chan.poll().unwrap().unwrap();
            assert_eq!(done.response, FileResponse::Ino(q as u64));
        }
    }
    #[test]
    fn a_target_holding_deferred_requests_refuses_to_park() {
        // Deferred requests are released by poll ticks: a target asleep
        // on its doorbell would hold them until the next unrelated ring.
        use dpc_sim::fault::FaultSpec;
        let (mut chan, mut tgt, _) = one_pair();
        let plan = FaultPlan::new(3);
        plan.arm("nvmefs.defer", FaultSpec::nth(1).with_delay(5));
        tgt.set_fault_plan(&plan);
        let hour = Duration::from_secs(3600);
        let req = FileRequest::GetAttr { ino: 1 };
        chan.submit(DispatchType::Standalone, &req, b"", 0).unwrap();
        assert!(tgt.poll().is_none(), "the request is withheld");
        let mut ticks = 0;
        let inc = loop {
            assert!(!tgt.park(hour), "parked on a deferred request");
            ticks += 1;
            if let Some(inc) = tgt.poll() {
                break inc;
            }
        };
        assert_eq!((inc.request, ticks), (req, 5));
        // Nothing withheld any more, nothing posted: now it may sleep.
        assert!(tgt.park(Duration::from_millis(1)));
        assert_eq!(chan.doorbell_wakes(), 0);
    }
}
