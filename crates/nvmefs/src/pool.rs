//! The host-side channel multiplexer.
//!
//! [`ChannelPool`] turns the fabric's queue pairs into one shared,
//! thread-safe transport: any number of host threads issue commands
//! concurrently, each queue carries many commands in flight, and
//! completions are matched back to their callers by CID. This is what the
//! paper's host scaling story (Fig 6/7) requires — and what the previous
//! big-lock-around-a-blocking-RPC host adapter (the DPFS/virtio-fs
//! pattern) made impossible.
//!
//! A round trip is two steps, and each is one function:
//!
//! - [`stage`](ChannelPool::stage) puts k ≥ 1 commands on the first queue
//!   with room, under one doorbell, and hands back one [`Ticket`] each;
//! - [`wait`](ChannelPool::wait) waits on one ticket and hands its reply
//!   to the caller — reissuing the command first, when it failed and a
//!   second execution is safe.
//!
//! [`call`](ChannelPool::call) is one of each. A read miss of several runs
//! stages them all, then waits each in order.
//!
//! Locking discipline, the whole point of this module:
//!
//! - Each queue has one small mutex over its [`Initiator`]. It is held
//!   only to stage commands, or to drain CQEs into their mailboxes. **It
//!   is never held across a link round-trip.**
//! - Each queue has one mailbox per CID, allocated with the queue: it
//!   holds the CQE, and nothing else. A CID is its command's
//!   transport-buffer index, and it stays taken from staging until the
//!   waiter has read the reply — out of the transport buffer, where the
//!   DMA left it — or, for a command whose waiter gave up, until its late
//!   CQE drains. So a mailbox and a buffer have one owner at a time, a
//!   late reply never lands in a newer command's mailbox or buffer, and
//!   no call allocates either. A waiter hands its CID back by setting a
//!   bit; the next thread to stage on that queue returns it to the
//!   initiator.
//! - A waiter checks its mailbox, opportunistically `try_lock`s the queue
//!   to poll-and-deliver, and yields. There is no spin tier: the reply is
//!   produced by another thread, and whenever that thread shares this
//!   one's core (one core, or more runnable threads than cores) it cannot
//!   run until the waiter gives the core up — while on a core of its own a
//!   yield with nobody else runnable returns in well under a microsecond,
//!   so polling again at once costs nothing either. Whichever thread
//!   happens to hold the queue while a CQE lands delivers it to its
//!   mailbox — there is no dedicated poller thread to bottleneck on.
//! - Per-thread queue affinity (thread-id hash → preferred qid) keeps the
//!   fast path on an uncontended queue; when the preferred queue's ring is
//!   full the submitter steals the next queue instead of blocking.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use parking_lot::{Mutex, MutexGuard};

use crate::driver::{decode_reply, is_idempotent, CallError, FileCompletion, RecvError, Sides};
use crate::filemsg::{FileRequest, FileResponse};
use crate::queue::{Initiator, Payload, QueueFull, ReadSide, Replies, Reply, READ_HEADER_CAP};
use crate::sqe::{Cqe, DispatchType, CQE_SIZE};

/// Mailbox states. A mailbox is `FREE` until a command is staged on its
/// CID, `WAITING` until the CQE is delivered, `READY` until the waiter has
/// read the reply; `ABANDONED` when the waiter gave up first.
const FREE: u8 = 0;
const WAITING: u8 = 1;
const READY: u8 = 2;
const ABANDONED: u8 = 3;

/// One CID's mailbox: the CQE, put there by whichever thread drains it,
/// taken by the waiter. The reply it describes stays in the transport
/// buffer.
#[derive(Default)]
struct Mailbox {
    /// Changed under the queue lock, but for the waiter's `READY` →
    /// `FREE`: `READY` is stored `Release` after the CQE is written and
    /// loaded `Acquire` before it is read; `FREE` reaches the next stager
    /// through the `taken` bit's `Release` / `Acquire`.
    state: AtomicU8,
    /// The CQE's 16 bytes. Never contended — the state says whose turn it
    /// is — so plain `Relaxed` words, ordered by `state`.
    cqe: [AtomicU64; 2],
}

impl Mailbox {
    fn put(&self, cqe: &Cqe) {
        let raw = cqe.to_bytes();
        for (word, bytes) in self.cqe.iter().zip(raw.chunks_exact(8)) {
            let bytes = bytes.try_into().expect("8-byte chunk");
            word.store(u64::from_le_bytes(bytes), Ordering::Relaxed);
        }
    }

    fn cqe(&self) -> Cqe {
        let mut raw = [0u8; CQE_SIZE];
        for (bytes, word) in raw.chunks_exact_mut(8).zip(&self.cqe) {
            bytes.copy_from_slice(&word.load(Ordering::Relaxed).to_le_bytes());
        }
        Cqe::from_bytes(&raw)
    }
}

/// A staged command's claim on its reply: the queue and the CID it went
/// out under. Redeem it with [`ChannelPool::wait`], exactly once.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Ticket {
    pub(crate) qid: u16,
    pub(crate) cid: u16,
}

/// Recovery knobs for the pool's waits. A waiter checks its mailbox, polls
/// its queue and yields — once per round, from the first round — and
/// deadlines are measured in those *yields* (scheduler round-trips), not
/// wall time, so an oversubscribed single-core host does not see spurious
/// timeouts just because the DPU service thread was descheduled.
#[derive(Copy, Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts per idempotent call (first try included).
    pub attempts: u32,
    /// Yields a waiter tolerates before declaring its completion lost.
    /// Generous on purpose: a false timeout on a non-idempotent request
    /// surfaces an error the caller cannot retry.
    pub deadline_yields: u64,
    /// First backoff sleep between attempts, in microseconds.
    pub backoff_base_us: u64,
    /// Backoff ceiling, in microseconds (doubling stops here).
    pub backoff_cap_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            deadline_yields: 2_000_000,
            backoff_base_us: 50,
            backoff_cap_us: 5_000,
        }
    }
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

/// One queue's host end, under the queue's lock: its initiator, and the
/// buffer each request header is encoded into on its way to the SQE.
struct HostEnd {
    ini: Initiator,
    hdr: Vec<u8>,
}

impl HostEnd {
    /// Stage `reqs`, each with `sides`, under one doorbell: as many as the
    /// ring takes right now. Hands each staged command's index and CID to
    /// `staged`, in order, and returns how many went — none when the ring
    /// is full, and then nothing was published.
    fn stage(
        &mut self,
        sides: &Sides<'_>,
        reqs: &[FileRequest],
        mut staged: impl FnMut(usize, u16),
    ) -> usize {
        let mut batch = self.ini.batch();
        for (i, req) in reqs.iter().enumerate() {
            self.hdr.clear();
            req.encode(&mut self.hdr);
            let read = read_side(req, sides.read_len);
            match batch.stage(sides.dispatch, &self.hdr, sides.write, read) {
                Ok(cid) => staged(i, cid),
                Err(QueueFull) => break,
            }
        }
        batch.staged()
    }
}

/// Per-queue state: the host end under its lock, and beside it — readable
/// without the lock — one mailbox per CID and the transport buffers the
/// replies sit in.
struct PoolQueue {
    chan: Mutex<HostEnd>,
    boxes: Box<[Mailbox]>,
    replies: Replies,
    /// CIDs whose replies their waiters have read, one bit each: the next
    /// stager on this queue gives them back to the initiator.
    taken: Box<[AtomicU64]>,
}

impl PoolQueue {
    /// Lock the queue, first giving back every CID its waiter is done
    /// with (so the buffer freed last is the next one handed out).
    fn lock(&self) -> MutexGuard<'_, HostEnd> {
        let mut chan = self.chan.lock();
        for (word, bits) in self.taken.iter().enumerate() {
            if bits.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let mut bits = bits.swap(0, Ordering::Acquire);
            while bits != 0 {
                chan.ini
                    .release((word * 64) as u16 + bits.trailing_zeros() as u16);
                bits &= bits - 1;
            }
        }
        chan
    }

    /// The waiter on `cid` is done with its mailbox and its buffer.
    fn give_back(&self, cid: u16) {
        self.boxes[cid as usize]
            .state
            .store(FREE, Ordering::Relaxed);
        self.taken[cid as usize / 64].fetch_or(1 << (cid % 64), Ordering::Release);
    }
}

/// Counters for observing the multiplexer (all monotonic).
#[derive(Copy, Clone, Default, Debug)]
pub struct PoolStats {
    /// Commands submitted through the pool.
    pub submitted: u64,
    /// Completions delivered to waiters.
    pub completed: u64,
    /// Submissions that left their preferred queue because it was full.
    pub steals: u64,
    /// Full passes over every queue that found no free slot anywhere.
    pub full_stalls: u64,
    /// Calls whose completion missed its deadline (waiter abandoned).
    pub timeouts: u64,
    /// Reissues of idempotent calls after a timeout or transport error.
    pub retries: u64,
    /// Transport-error CQEs handed back to callers.
    pub transport_errors: u64,
    /// Late completions that arrived after their waiter was abandoned.
    pub stale_completions: u64,
    /// Commands a target refused with `InvalidCommand`: their SQE named a
    /// buffer range outside the data pool or more inline header bytes than
    /// it has room for, their header did not decode, or their reply
    /// outgrew the read side they declared (the caller saw EINVAL).
    pub rejected_sqes: u64,
    /// Doorbell rings that found their queue's target asleep and woke it.
    /// Zero against targets that poll; zero across a closed-loop stream.
    pub doorbell_wakes: u64,
}

#[derive(Default)]
struct StatCells {
    submitted: AtomicU64,
    completed: AtomicU64,
    steals: AtomicU64,
    full_stalls: AtomicU64,
    timeouts: AtomicU64,
    retries: AtomicU64,
    transport_errors: AtomicU64,
    stale_completions: AtomicU64,
}

/// Shared, thread-safe multiplexer over all of the fabric's queue pairs.
///
/// Cheap to share (`Arc`); every host adapter (`dpc_core::DpcFs`) holds a
/// clone. See the module docs for the locking discipline.
pub struct ChannelPool {
    queues: Vec<PoolQueue>,
    stats: StatCells,
    retry: RetryPolicy,
}

impl ChannelPool {
    /// Wrap the fabric's host halves into one shared multiplexer.
    pub fn new(initiators: Vec<Initiator>) -> ChannelPool {
        assert!(!initiators.is_empty(), "a pool needs at least one queue");
        let queues = initiators
            .into_iter()
            .map(|ini| {
                let depth = ini.depth() as usize;
                PoolQueue {
                    replies: ini.replies().clone(),
                    chan: Mutex::new(HostEnd {
                        ini,
                        hdr: Vec::with_capacity(64),
                    }),
                    boxes: (0..depth).map(|_| Mailbox::default()).collect(),
                    taken: (0..depth.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
                }
            })
            .collect();
        ChannelPool {
            queues,
            stats: StatCells::default(),
            retry: RetryPolicy::default(),
        }
    }

    /// Replace the recovery policy (call before sharing the pool).
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Number of underlying queue pairs.
    pub fn queue_count(&self) -> usize {
        self.queues.len()
    }

    /// Commands on queue `qid` whose CID is taken: in flight, or replied
    /// to and not yet read.
    pub fn outstanding(&self, qid: usize) -> usize {
        self.queues[qid].lock().ini.outstanding()
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        let (mut rejected_sqes, mut doorbell_wakes) = (0, 0);
        for q in &self.queues {
            let ini = &q.chan.lock().ini;
            rejected_sqes += ini.rejected_sqes();
            doorbell_wakes += ini.doorbell_wakes();
        }
        PoolStats {
            submitted: self.stats.submitted.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            steals: self.stats.steals.load(Ordering::Relaxed),
            full_stalls: self.stats.full_stalls.load(Ordering::Relaxed),
            timeouts: self.stats.timeouts.load(Ordering::Relaxed),
            retries: self.stats.retries.load(Ordering::Relaxed),
            transport_errors: self.stats.transport_errors.load(Ordering::Relaxed),
            stale_completions: self.stats.stale_completions.load(Ordering::Relaxed),
            rejected_sqes,
            doorbell_wakes,
        }
    }

    /// The calling thread's preferred queue: a hash of its thread id. A
    /// stable choice keeps each thread on one (ideally uncontended) queue;
    /// correctness never depends on it.
    pub fn preferred_queue(&self) -> usize {
        use std::hash::{Hash, Hasher};
        thread_local! {
            static TID_HASH: u64 = {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                std::thread::current().id().hash(&mut h);
                h.finish()
            };
        }
        (TID_HASH.with(|h| *h) as usize) % self.queues.len()
    }

    /// Drain every available CQE on `queue` into its mailbox —
    /// the CQE only: the reply stays in the buffer for the waiter. A reply
    /// whose waiter gave up is dropped, and only now that its late CQE has
    /// drained is its CID free again. Caller holds the lock.
    fn deliver(&self, queue: &PoolQueue, chan: &mut HostEnd) -> usize {
        let (mut delivered, mut stale) = (0u64, 0u64);
        while let Some(cqe) = chan.ini.reap() {
            let mailbox = &queue.boxes[cqe.cid as usize];
            if mailbox.state.load(Ordering::Relaxed) == ABANDONED {
                mailbox.state.store(FREE, Ordering::Relaxed);
                chan.ini.release(cqe.cid);
                stale += 1;
            } else {
                mailbox.put(&cqe);
                mailbox.state.store(READY, Ordering::Release);
                delivered += 1;
            }
        }
        if delivered + stale > 0 {
            chan.ini.publish_cq_head();
            self.stats.completed.fetch_add(delivered, Ordering::Relaxed);
            self.stats
                .stale_completions
                .fetch_add(stale, Ordering::Relaxed);
        }
        (delivered + stale) as usize
    }

    /// Stage `reqs`, each with `sides`, on the first queue with room from
    /// `qid` on, under one doorbell: as many as that queue takes — at
    /// least one; while every ring is full, yield and sweep again. Each
    /// command's ticket goes to `tickets` (at least `reqs.len()` long), in
    /// order; returns how many were staged. Wait for those before staging
    /// the rest: a thread holding tickets must not sit here waiting for
    /// room they take up.
    pub fn stage(
        &self,
        qid: usize,
        sides: &Sides<'_>,
        reqs: &[FileRequest],
        tickets: &mut [Ticket],
    ) -> usize {
        let n = self.queues.len();
        loop {
            for attempt in 0..n {
                let q = (qid + attempt) % n;
                let queue = &self.queues[q];
                let mut chan = queue.lock();
                let mut register = |i: usize, cid: u16| {
                    let was = queue.boxes[cid as usize]
                        .state
                        .swap(WAITING, Ordering::Relaxed);
                    debug_assert_eq!(was, FREE, "CID {cid} staged while taken");
                    tickets[i] = Ticket { qid: q as u16, cid };
                };
                let mut staged = chan.stage(sides, reqs, &mut register);
                if staged == 0 {
                    // Consume the CQEs that already landed (ring slots,
                    // abandoned CIDs), then retry once before stealing
                    // the next queue.
                    self.deliver(queue, &mut chan);
                    staged = chan.stage(sides, reqs, &mut register);
                }
                if staged > 0 {
                    self.stats
                        .submitted
                        .fetch_add(staged as u64, Ordering::Relaxed);
                    if attempt > 0 {
                        self.stats.steals.fetch_add(1, Ordering::Relaxed);
                    }
                    return staged;
                }
            }
            // Every ring is full: other threads' replies are in flight.
            // Yield so the DPU side can run, then sweep again.
            self.stats.full_stalls.fetch_add(1, Ordering::Relaxed);
            std::thread::yield_now();
        }
    }

    /// Wait for `ticket`'s reply and hand it to `take`: the decoded
    /// response, and the payload where the DMA left it — copy it out where
    /// it is going. The CID, and so the buffer, stays taken until `take`
    /// returns. No lock is held while waiting: check the mailbox,
    /// `try_lock` the queue to deliver what has landed, yield. After the
    /// policy's deadline the command is abandoned (its late CQE is dropped
    /// as stale, never misrouted).
    ///
    /// The reissue rule: a transport error or a missed deadline on an
    /// idempotent `req` restages it (with `sides`, from the calling
    /// thread's preferred queue) after an exponential backoff, until the
    /// policy's attempts run out; the caller sees what ended the last one.
    pub fn wait<R>(
        &self,
        mut ticket: Ticket,
        sides: &Sides<'_>,
        req: &FileRequest,
        take: impl FnOnce(FileResponse, Reply<'_>) -> R,
    ) -> Result<R, CallError> {
        let (mut attempt, mut yields) = (1u32, 0u64);
        loop {
            let queue = &self.queues[ticket.qid as usize];
            let mailbox = &queue.boxes[ticket.cid as usize];
            let err = if mailbox.state.load(Ordering::Acquire) == READY {
                let cqe = mailbox.cqe();
                let mut hdr = [0; READ_HEADER_CAP];
                let (header, payload) = queue.replies.open(&cqe, &mut hdr);
                let err = match decode_reply(cqe.status, header) {
                    Ok(response) => {
                        let out = take(response, payload);
                        queue.give_back(ticket.cid);
                        return Ok(out);
                    }
                    Err(err) => err,
                };
                queue.give_back(ticket.cid);
                if err == RecvError::Transport {
                    self.stats.transport_errors.fetch_add(1, Ordering::Relaxed);
                }
                CallError::from(err)
            } else {
                if let Some(mut chan) = queue.chan.try_lock() {
                    if self.deliver(queue, &mut chan) > 0 {
                        continue;
                    }
                }
                yields += 1;
                if yields < self.retry.deadline_yields {
                    std::thread::yield_now();
                    continue;
                }
                // Final sweep under a blocking lock before giving up, and
                // abandon under that same lock so delivery can never race
                // the abandonment.
                let mut chan = queue.chan.lock();
                self.deliver(queue, &mut chan);
                if mailbox.state.load(Ordering::Acquire) == READY {
                    continue;
                }
                mailbox.state.store(ABANDONED, Ordering::Relaxed);
                drop(chan);
                self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                CallError::TimedOut
            };
            let retryable = matches!(err, CallError::Transport | CallError::TimedOut);
            if !retryable || !is_idempotent(req) || attempt >= self.retry.attempts {
                return Err(err);
            }
            self.stats.retries.fetch_add(1, Ordering::Relaxed);
            self.backoff(attempt);
            (attempt, yields) = (attempt + 1, 0);
            let again = std::slice::from_mut(&mut ticket);
            self.stage(
                self.preferred_queue(),
                sides,
                std::slice::from_ref(req),
                again,
            );
        }
    }

    /// Exponential backoff between reissues of an idempotent call.
    fn backoff(&self, attempt: u32) {
        let us = self
            .retry
            .backoff_base_us
            .checked_shl(attempt.saturating_sub(1).min(16))
            .unwrap_or(u64::MAX)
            .min(self.retry.backoff_cap_us);
        if us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
    }

    /// Synchronous round-trip from the calling thread's preferred queue
    /// (stealing a neighbour when its ring is full). Safe from any number
    /// of threads concurrently; no lock is held across the round-trip.
    pub fn call(
        &self,
        dispatch: DispatchType,
        req: &FileRequest,
        write_payload: &[u8],
        read_len: u32,
    ) -> Result<FileCompletion, CallError> {
        let write = Payload::Flat(write_payload);
        self.round_trip(
            req,
            &Sides {
                dispatch,
                write,
                read_len,
            },
        )
    }

    /// Synchronous scattered (writev-style) round-trip via SGL.
    pub fn call_sgl(
        &self,
        dispatch: DispatchType,
        req: &FileRequest,
        segments: &[&[u8]],
        read_len: u32,
    ) -> Result<FileCompletion, CallError> {
        let write = Payload::Gather(segments);
        self.round_trip(
            req,
            &Sides {
                dispatch,
                write,
                read_len,
            },
        )
    }

    /// Stage one command and wait for it. The reply is owned: its payload
    /// is copied out of the transport buffer, allocating only when there
    /// is one.
    fn round_trip(
        &self,
        req: &FileRequest,
        sides: &Sides<'_>,
    ) -> Result<FileCompletion, CallError> {
        let mut ticket = Ticket::default();
        let one = std::slice::from_mut(&mut ticket);
        self.stage(
            self.preferred_queue(),
            sides,
            std::slice::from_ref(req),
            one,
        );
        self.wait(ticket, sides, req, |response, payload| FileCompletion {
            cid: payload.cid(),
            response,
            payload: payload.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::tests::serve_one;
    use crate::driver::{create_fabric, FileIncomingBatch, FileTarget};
    use crate::queue::{QueuePair, QueuePairConfig};
    use crate::sqe::{Cqe, CqeStatus};
    use dpc_pcie::DmaEngine;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    const HEADER_ONLY: Sides<'static> = Sides {
        dispatch: DispatchType::Standalone,
        write: Payload::Flat(b""),
        read_len: 0,
    };

    fn pool_with_targets(queues: usize, depth: u16) -> (Arc<ChannelPool>, Vec<FileTarget>) {
        let dma = DmaEngine::new();
        let (chans, tgts) = create_fabric(
            queues,
            QueuePairConfig {
                depth,
                max_io_bytes: 16 * 1024,
            },
            &dma,
        );
        (Arc::new(ChannelPool::new(chans)), tgts)
    }

    /// Stage one header-only `req` from queue `qid` on; its ticket.
    fn stage_one(pool: &ChannelPool, qid: usize, req: &FileRequest) -> Ticket {
        let mut ticket = Ticket::default();
        let one = std::slice::from_mut(&mut ticket);
        assert_eq!(
            pool.stage(qid, &HEADER_ONLY, std::slice::from_ref(req), one),
            1
        );
        ticket
    }

    /// Wait for a header-only `req`'s reply.
    fn response(pool: &ChannelPool, ticket: Ticket, req: &FileRequest) -> FileResponse {
        pool.wait(ticket, &HEADER_ONLY, req, |resp, _| resp)
            .unwrap()
    }

    /// Serve every queue until `stop` flips: echo `GetAttr { ino }` back
    /// as `Ino(ino)`.
    fn spawn_echo_server(
        mut tgts: Vec<FileTarget>,
        stop: Arc<AtomicBool>,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let mut batch = FileIncomingBatch::new();
            while !stop.load(Ordering::Acquire) {
                let mut any = false;
                for tgt in tgts.iter_mut() {
                    any |= tgt.poll_many(&mut batch) > 0;
                    for inc in &batch {
                        let FileRequest::GetAttr { ino } = inc.request else {
                            panic!("echo server only speaks GetAttr");
                        };
                        tgt.reply(inc.slot, &FileResponse::Ino(ino), b"");
                    }
                }
                if !any {
                    std::thread::yield_now();
                }
            }
        })
    }

    #[test]
    fn concurrent_callers_share_one_queue() {
        let (pool, tgts) = pool_with_targets(1, 16);
        let stop = Arc::new(AtomicBool::new(false));
        let server = spawn_echo_server(tgts, stop.clone());

        std::thread::scope(|s| {
            for t in 0..8u64 {
                let pool = pool.clone();
                s.spawn(move || {
                    for i in 0..50u64 {
                        let ino = t * 1000 + i;
                        let done = pool
                            .call(
                                DispatchType::Standalone,
                                &FileRequest::GetAttr { ino },
                                b"",
                                0,
                            )
                            .unwrap();
                        assert_eq!(done.response, FileResponse::Ino(ino));
                    }
                });
            }
        });
        stop.store(true, Ordering::Release);
        server.join().unwrap();
        let stats = pool.stats();
        assert_eq!(stats.submitted, 8 * 50);
        assert_eq!(stats.completed, 8 * 50);
    }

    #[test]
    fn out_of_order_completions_route_by_cid() {
        // One queue, two in-flight commands, replies delivered in reverse
        // submission order: each caller must still get *its* reply.
        let (pool, mut tgts) = pool_with_targets(1, 8);
        let mut tgt = tgts.pop().unwrap();

        let server = std::thread::spawn(move || {
            // Gather both requests before replying to either.
            let (mut pending, mut batch) = (Vec::new(), FileIncomingBatch::new());
            while pending.len() < 2 {
                if tgt.poll_many(&mut batch) > 0 {
                    pending.extend(batch.iter().cloned());
                } else {
                    std::thread::yield_now();
                }
            }
            // Reply in reverse arrival order.
            for inc in pending.into_iter().rev() {
                let FileRequest::GetAttr { ino } = inc.request else {
                    panic!("unexpected request");
                };
                tgt.reply(inc.slot, &FileResponse::Ino(ino), b"");
            }
        });

        std::thread::scope(|s| {
            for ino in [111u64, 222u64] {
                let pool = pool.clone();
                s.spawn(move || {
                    let done = pool
                        .call(
                            DispatchType::Standalone,
                            &FileRequest::GetAttr { ino },
                            b"",
                            0,
                        )
                        .unwrap();
                    assert_eq!(done.response, FileResponse::Ino(ino), "caller {ino}");
                });
            }
        });
        server.join().unwrap();
    }

    #[test]
    fn full_preferred_queue_steals_a_neighbour() {
        // depth 2 → one usable slot per queue. Occupy queue 0 with a
        // command the server will not answer until queue 1 has served a
        // stolen call.
        let (pool, mut tgts) = pool_with_targets(2, 2);
        let tgt1 = tgts.pop().unwrap();
        let mut tgt0 = tgts.pop().unwrap();

        let release = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));

        // Queue 0's server: hold the reply until released.
        let r = release.clone();
        let server0 = std::thread::spawn(move || {
            let inc = loop {
                if let Some(inc) = serve_one(&mut tgt0) {
                    break inc;
                }
                std::thread::yield_now();
            };
            while !r.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let FileRequest::GetAttr { ino } = inc.request else {
                panic!();
            };
            tgt0.reply(inc.slot, &FileResponse::Ino(ino), b"");
        });
        let server1 = spawn_echo_server(vec![tgt1], stop.clone());

        // Occupant of queue 0's only slot.
        let first = FileRequest::GetAttr { ino: 1 };
        let held = stage_one(&pool, 0, &first);
        assert_eq!(pool.outstanding(0), 1);
        // Prefers queue 0, finds it full, must steal queue 1 — and
        // completes while queue 0's reply is still being held back.
        let second = FileRequest::GetAttr { ino: 2 };
        let stolen = stage_one(&pool, 0, &second);
        assert_eq!(response(&pool, stolen, &second), FileResponse::Ino(2));
        assert_eq!(pool.outstanding(0), 1, "queue 0's command still in flight");
        assert!(pool.stats().steals >= 1);

        release.store(true, Ordering::Release);
        assert_eq!(response(&pool, held, &first), FileResponse::Ino(1));
        stop.store(true, Ordering::Release);
        server0.join().unwrap();
        server1.join().unwrap();
    }

    #[test]
    fn a_reissued_command_restages_its_inline_header_on_the_fresh_cid() {
        // The first attempt's reply is held past the caller's deadline:
        // the caller abandons it and reissues. The abandoned command keeps
        // its CID (and buffer) until its late CQE drains, so the reissue
        // rides a different SQE — which must carry the request again.
        let dma = DmaEngine::new();
        let cfg = QueuePairConfig {
            depth: 8,
            max_io_bytes: 16 * 1024,
        };
        let (chans, mut tgts) = create_fabric(1, cfg, &dma);
        let mut pool = ChannelPool::new(chans);
        // Only the held first attempt may time out: the deadline and the
        // attempt budget (one per CID the ring has) are sized so a server
        // thread starved on a loaded box costs reissues, not the call.
        pool.set_retry(RetryPolicy {
            attempts: 7,
            deadline_yields: 20_000,
            backoff_base_us: 0,
            ..RetryPolicy::default()
        });
        let mut tgt = tgts.pop().unwrap();
        let req = FileRequest::Truncate {
            ino: 0x0102_0304_0506_0708,
            size: 0x1112_1314_1516_1718,
        };
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let (want, stop) = (req.clone(), stop.clone());
            std::thread::spawn(move || {
                // Sit on the first command; answer every later one.
                let (mut held, mut batch) = (None, FileIncomingBatch::new());
                while !stop.load(Ordering::Acquire) {
                    if tgt.poll_many(&mut batch) == 0 {
                        std::thread::yield_now();
                        continue;
                    }
                    for inc in &batch {
                        assert_eq!(inc.request, want);
                        match held {
                            None => held = Some(inc.slot),
                            Some(first) => {
                                assert_ne!(first, inc.slot);
                                tgt.reply(inc.slot, &FileResponse::Bytes(2), b"");
                            }
                        }
                    }
                }
                let first = held.expect("the first attempt arrived");
                tgt.reply(first, &FileResponse::Bytes(1), b"");
            })
        };
        let before = dma.snapshot();
        let done = pool.call(DispatchType::Standalone, &req, b"", 0).unwrap();
        assert_eq!(done.response, FileResponse::Bytes(2));
        stop.store(true, Ordering::Release);
        server.join().unwrap();
        // The late reply drains as stale; every attempt was SQE + CQE.
        let queue = &pool.queues[0];
        while pool.outstanding(0) > 0 {
            pool.deliver(queue, &mut queue.chan.lock());
        }
        let stats = pool.stats();
        assert!(stats.retries >= 1, "{stats:?}");
        assert_eq!(stats.timeouts, stats.retries);
        assert_eq!(stats.stale_completions, stats.timeouts);
        assert_eq!(
            dma.snapshot().since(&before).dma_ops,
            2 * (1 + stats.retries)
        );
    }

    #[test]
    fn a_cid_freed_by_a_late_cqe_carries_the_next_call_its_own_reply() {
        // One queue of depth 2: one command in flight at a time. The first
        // is abandoned at its deadline; its reply lands later, while a
        // second command waits for the only ring slot. The late CQE frees
        // the CID, the second command reuses it — and gets its own reply.
        let dma = DmaEngine::new();
        let cfg = QueuePairConfig {
            depth: 2,
            max_io_bytes: 4096,
        };
        let (chans, mut tgts) = create_fabric(1, cfg, &dma);
        let mut pool = ChannelPool::new(chans);
        pool.set_retry(RetryPolicy {
            attempts: 1,
            deadline_yields: 100,
            ..RetryPolicy::default()
        });
        let tgt = &mut tgts[0];
        let (old, new) = (
            FileRequest::GetAttr { ino: 1 },
            FileRequest::GetAttr { ino: 2 },
        );

        let abandoned = stage_one(&pool, 0, &old);
        let err = pool
            .wait(abandoned, &HEADER_ONLY, &old, |_, _| ())
            .unwrap_err();
        assert!(matches!(err, CallError::TimedOut), "{err:?}");
        let late = serve_one(tgt).unwrap();
        tgt.reply(late.slot, &FileResponse::Ino(1), b"");

        let reused = stage_one(&pool, 0, &new);
        assert_eq!(reused.cid, abandoned.cid, "the late CQE freed the CID");
        let inc = serve_one(tgt).unwrap();
        assert_eq!((inc.slot, &inc.request), (reused.cid, &new));
        tgt.reply(inc.slot, &FileResponse::Ino(2), b"");
        assert_eq!(response(&pool, reused, &new), FileResponse::Ino(2));

        let stats = pool.stats();
        assert_eq!((stats.timeouts, stats.stale_completions), (1, 1));
        assert_eq!((stats.submitted, stats.completed), (2, 1));
        assert_eq!(pool.outstanding(0), 0);
    }

    #[test]
    fn stage_n_wait_n_restores_request_order() {
        // Seven commands staged on each of two queues under one doorbell
        // apiece, then answered newest first, queue 1 before queue 0,
        // each with a payload of its own: each ticket, waited in request
        // order, redeems its own reply and reads its own bytes.
        let (pool, mut tgts) = pool_with_targets(2, 8);
        let reqs: Vec<FileRequest> = (0..14u64).map(|ino| FileRequest::GetAttr { ino }).collect();
        let sides = Sides {
            read_len: 32,
            ..HEADER_ONLY
        };
        let payload = |round: u8, ino: u64| [round << 4 | ino as u8; 32];
        let mut tickets = [Ticket::default(); 14];
        for round in 0..3 {
            assert_eq!(pool.stage(0, &sides, &reqs[..7], &mut tickets[..7]), 7);
            assert_eq!(pool.stage(1, &sides, &reqs[7..], &mut tickets[7..]), 7);
            assert!(tickets[..7].iter().all(|t| t.qid == 0), "round {round}");
            assert!(tickets[7..].iter().all(|t| t.qid == 1), "round {round}");
            let mut batch = FileIncomingBatch::new();
            for tgt in tgts.iter_mut().rev() {
                assert_eq!(tgt.poll_many(&mut batch), 7);
                let pending: Vec<_> = batch.iter().cloned().collect();
                for inc in pending.into_iter().rev() {
                    let FileRequest::GetAttr { ino } = inc.request else {
                        panic!("unexpected request");
                    };
                    tgt.reply(inc.slot, &FileResponse::Ino(ino), &payload(round, ino));
                }
            }
            for (i, (&ticket, req)) in tickets.iter().zip(&reqs).enumerate() {
                let (resp, got) = pool
                    .wait(ticket, &sides, req, |resp, reply| (resp, reply.to_vec()))
                    .unwrap();
                assert_eq!(resp, FileResponse::Ino(i as u64));
                assert_eq!(got, payload(round, i as u64), "round {round}, request {i}");
            }
        }
        let stats = pool.stats();
        assert_eq!((stats.submitted, stats.completed), (42, 42));
        assert_eq!((stats.steals, stats.full_stalls), (0, 0));
    }

    #[test]
    fn a_cid_stays_taken_while_its_reply_is_read() {
        // The waiter reads its reply in the transport buffer. While it
        // does, its CID — so its buffer — is nobody else's: a command
        // staged and answered meanwhile lands in another buffer, and the
        // bytes being read stay the first reply's.
        let (pool, mut tgts) = pool_with_targets(1, 4);
        let tgt = &mut tgts[0];
        let sides = Sides {
            read_len: 64,
            ..HEADER_ONLY
        };
        let stage = |req: &FileRequest| {
            let mut ticket = Ticket::default();
            let one = std::slice::from_mut(&mut ticket);
            assert_eq!(pool.stage(0, &sides, std::slice::from_ref(req), one), 1);
            ticket
        };
        let (first, second) = (
            FileRequest::GetAttr { ino: 1 },
            FileRequest::GetAttr { ino: 2 },
        );
        let mine = stage(&first);
        let inc = serve_one(tgt).unwrap();
        tgt.reply(inc.slot, &FileResponse::Ino(1), &[0xAA; 64]);
        let (got, other) = pool
            .wait(mine, &sides, &first, |resp, reply| {
                assert_eq!(resp, FileResponse::Ino(1));
                assert_eq!(pool.outstanding(0), 1, "the CID is the reader's");
                let other = stage(&second);
                assert_ne!(other.cid, mine.cid);
                let inc = serve_one(tgt).unwrap();
                tgt.reply(inc.slot, &FileResponse::Ino(2), &[0xBB; 64]);
                (reply.to_vec(), other)
            })
            .unwrap();
        assert_eq!(got, [0xAA; 64]);
        assert_eq!(pool.outstanding(0), 1, "given back once read");
        let got = pool
            .wait(other, &sides, &second, |_, reply| reply.to_vec())
            .unwrap();
        assert_eq!(got, [0xBB; 64]);
        assert_eq!(pool.outstanding(0), 0);
    }

    #[test]
    fn a_cqe_claiming_more_reply_than_its_command_declared_is_a_transport_error() {
        // The lengths in a CQE are the DPU's to write. A payload past the
        // command's read length would hand the caller the next buffer's
        // bytes (past the pool's end, panic the reader); a header past
        // the header area would be read out of the payload. Either is a
        // transport error: counted, reissued when the request is
        // idempotent, EIO when it is not.
        let dma = DmaEngine::new();
        let cfg = QueuePairConfig {
            depth: 4,
            max_io_bytes: 4096,
        };
        let (ini, mut tgt) = QueuePair::new(cfg).split(dma);
        let mut pool = ChannelPool::new(vec![ini]);
        pool.set_retry(RetryPolicy {
            attempts: 2,
            backoff_base_us: 0,
            ..RetryPolicy::default()
        });
        let mut bytes = Vec::new();
        FileResponse::Bytes(64).encode(&mut bytes);
        // Per command, in arrival order: forge `(result, header length)`
        // into a raw CQE, or answer truthfully.
        let script = [Some((4096, 5)), None, Some((0, 200)), None, Some((1, 5))];
        let server = std::thread::spawn(move || {
            let mut payload = Vec::new();
            for forged in script {
                while tgt.posted() == 0 {
                    std::thread::yield_now();
                }
                let (sqe, _) = tgt.fetch(&mut payload).expect("a well-formed command");
                match forged {
                    Some((result, hdr_len)) => {
                        let mut header = [0u8; 200];
                        header[..bytes.len()].copy_from_slice(&bytes);
                        let header = &header[..hdr_len];
                        tgt.post_cqe(sqe.cid(), CqeStatus::Success, result, header);
                    }
                    None => tgt.complete_copy(sqe.cid(), CqeStatus::Success, &bytes, &[0x11; 64]),
                }
            }
        });
        let read = FileRequest::Read {
            ino: 7,
            offset: 0,
            len: 64,
        };
        for forgery in ["a payload past the read length", "a header past its area"] {
            let before = pool.stats();
            let done = pool.call(DispatchType::Standalone, &read, b"", 64);
            let done = done.expect(forgery);
            assert_eq!(done.response, FileResponse::Bytes(64), "{forgery}");
            assert_eq!(done.payload, [0x11; 64], "{forgery}");
            let after = pool.stats();
            assert_eq!(after.transport_errors - before.transport_errors, 1);
            assert_eq!(after.retries - before.retries, 1, "{forgery}");
        }
        let unlink = FileRequest::Unlink {
            parent: 1,
            name: "x".into(),
        };
        let err = pool
            .call(DispatchType::Standalone, &unlink, b"", 0)
            .unwrap_err();
        assert!(matches!(err, CallError::Transport), "{err:?}");
        assert_eq!(err.errno(), 5);
        server.join().unwrap();
        let stats = pool.stats();
        assert_eq!((stats.transport_errors, stats.retries), (3, 2));
        assert_eq!(pool.outstanding(0), 0);
    }

    #[test]
    fn a_wide_cqe_claiming_more_header_than_it_holds_is_a_transport_error() {
        // A command with no read side has no header area: the 9 bytes of
        // the wide form are all its reply may claim. A wide CQE claiming
        // 10, or a narrow one claiming the 9 only the wide form holds,
        // would have the host read a header out of a buffer nobody wrote:
        // a transport error, counted, reissued when the request is
        // idempotent and EIO when it is not.
        let dma = DmaEngine::new();
        let cfg = QueuePairConfig {
            depth: 4,
            max_io_bytes: 4096,
        };
        let (ini, mut tgt) = QueuePair::new(cfg).split(dma);
        let mut pool = ChannelPool::new(vec![ini]);
        pool.set_retry(RetryPolicy {
            attempts: 2,
            backoff_base_us: 0,
            ..RetryPolicy::default()
        });
        let mut ino = Vec::new();
        FileResponse::Ino(0x0102_0304_0506_0708).encode(&mut ino);
        assert_eq!(ino.len(), 9);
        // Per command, in arrival order: forge `(wide, header length)`
        // into a raw CQE, or answer truthfully.
        let script = [
            Some((true, 10)),
            None,
            Some((false, 9)),
            None,
            Some((true, 10)),
        ];
        let server = std::thread::spawn(move || {
            let mut payload = Vec::new();
            for forged in script {
                while tgt.posted() == 0 {
                    std::thread::yield_now();
                }
                let (sqe, _) = tgt.fetch(&mut payload).expect("a well-formed command");
                assert_eq!((sqe.rh_len(), sqe.read_len()), (0, 0), "no read side");
                let truthful = Cqe::reply(sqe.cid(), CqeStatus::Success, 0, &ino);
                assert!(truthful.wide);
                match forged {
                    Some((wide, hdr_len)) => tgt.post(Cqe {
                        wide,
                        hdr_len,
                        ..truthful
                    }),
                    None => tgt.complete_copy(sqe.cid(), CqeStatus::Success, &ino, b""),
                }
            }
        });
        let lookup = FileRequest::Lookup {
            parent: 1,
            name: "x".into(),
        };
        for forgery in ["a wide CQE claiming 10 bytes", "a narrow CQE claiming 9"] {
            let before = pool.stats();
            let done = pool.call(DispatchType::Standalone, &lookup, b"", 0);
            let done = done.expect(forgery);
            assert_eq!(
                done.response,
                FileResponse::Ino(0x0102_0304_0506_0708),
                "{forgery}"
            );
            let after = pool.stats();
            assert_eq!(after.transport_errors - before.transport_errors, 1);
            assert_eq!(after.retries - before.retries, 1, "{forgery}");
        }
        let unlink = FileRequest::Unlink {
            parent: 1,
            name: "x".into(),
        };
        let err = pool
            .call(DispatchType::Standalone, &unlink, b"", 0)
            .unwrap_err();
        assert!(matches!(err, CallError::Transport), "{err:?}");
        server.join().unwrap();
        let stats = pool.stats();
        assert_eq!((stats.transport_errors, stats.retries), (3, 2));
        assert_eq!(pool.outstanding(0), 0);
    }
}
