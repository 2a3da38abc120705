//! The host-side channel multiplexer.
//!
//! [`ChannelPool`] turns the fabric's queue pairs into one shared,
//! thread-safe transport: any number of host threads issue synchronous
//! calls concurrently, each queue carries many commands in flight, and
//! completions are matched back to their callers by CID. This is what the
//! paper's host scaling story (Fig 6/7) requires — and what the previous
//! big-lock-around-a-blocking-RPC host adapter (the DPFS/virtio-fs
//! pattern) made impossible.
//!
//! Locking discipline, the whole point of this module:
//!
//! - Each queue has one small mutex covering its [`FileChannel`] *and* its
//!   CID→waiter table. The mutex is held only to stage/submit a command
//!   and register its waiter, or to drain completions and hand them to
//!   their waiters. **It is never held across a link round-trip.**
//! - A submitting thread registers a one-shot waiter slot under the queue
//!   lock (so a completion can never arrive unrouteable), releases the
//!   lock, and then waits: check the slot, opportunistically `try_lock`
//!   the queue to poll-and-deliver, yield. There is no spin tier: the
//!   reply is produced by another thread, and whenever that thread shares
//!   this one's core (one core, or more runnable threads than cores) it
//!   cannot run until the waiter gives the core up — while on a core of
//!   its own a yield with nobody else runnable returns in well under a
//!   microsecond, so polling again at once costs nothing either.
//!   Whichever thread happens to hold the queue while a CQE lands delivers
//!   it to the owning waiter — there is no dedicated poller thread to
//!   bottleneck on.
//! - Per-thread queue affinity (thread-id hash → preferred qid) keeps the
//!   fast path on an uncontended queue; when the preferred queue's ring is
//!   full the submitter steals the next queue instead of blocking.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::driver::{is_idempotent, CallError, FileChannel, FileCompletion, RecvError};
use crate::filemsg::FileRequest;
use crate::queue::QueueFull;
use crate::sqe::DispatchType;

/// One-shot completion mailbox: filled exactly once by whichever thread
/// drains the matching CQE, consumed exactly once by the submitting
/// thread. A waiter whose caller gave up (deadline expiry) is flagged
/// `abandoned` so the late completion can be counted and dropped instead
/// of wedging the routing table.
struct Waiter {
    ready: AtomicBool,
    abandoned: AtomicBool,
    done: Mutex<Option<Result<FileCompletion, RecvError>>>,
}

impl Waiter {
    fn new() -> Arc<Waiter> {
        Arc::new(Waiter {
            ready: AtomicBool::new(false),
            abandoned: AtomicBool::new(false),
            done: Mutex::new(None),
        })
    }

    fn fill(&self, result: Result<FileCompletion, RecvError>) {
        *self.done.lock() = Some(result);
        self.ready.store(true, Ordering::Release);
    }

    fn try_take(&self) -> Option<Result<FileCompletion, RecvError>> {
        if !self.ready.load(Ordering::Acquire) {
            return None;
        }
        Some(
            self.done
                .lock()
                .take()
                .expect("ready waiter holds a completion"),
        )
    }
}

/// Recovery knobs for the pool's synchronous calls. A waiter checks its
/// mailbox, polls its queue and yields — once per round, from the first
/// round — and deadlines are measured in those *yields* (scheduler
/// round-trips), not wall time, so an oversubscribed single-core host does
/// not see spurious timeouts just because the DPU service thread was
/// descheduled.
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

/// Per-queue state: the channel and the CID→waiter routing table, guarded
/// together so a published command always has its waiter registered before
/// anyone can poll its completion.
struct QueueInner {
    chan: FileChannel,
    /// CID-indexed one-shot waiters for in-flight commands.
    waiters: Vec<Option<Arc<Waiter>>>,
}

struct PoolQueue {
    inner: Mutex<QueueInner>,
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
/// Cheap to share (`Arc`); every [`DpcFs`-style] adapter holds a clone.
/// See the module docs for the locking discipline.
pub struct ChannelPool {
    queues: Vec<PoolQueue>,
    stats: StatCells,
    retry: RetryPolicy,
}

impl ChannelPool {
    /// Wrap the fabric's host halves into one shared multiplexer.
    pub fn new(channels: Vec<FileChannel>) -> ChannelPool {
        assert!(!channels.is_empty(), "a pool needs at least one queue");
        let queues = channels
            .into_iter()
            .map(|chan| {
                let depth = chan.depth() as usize;
                PoolQueue {
                    inner: Mutex::new(QueueInner {
                        chan,
                        waiters: (0..depth).map(|_| None).collect(),
                    }),
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

    /// The recovery policy in effect.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Number of underlying queue pairs.
    pub fn queue_count(&self) -> usize {
        self.queues.len()
    }

    /// Commands currently in flight on queue `qid`.
    pub fn outstanding(&self, qid: usize) -> usize {
        self.queues[qid].inner.lock().chan.outstanding()
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        let (mut rejected_sqes, mut doorbell_wakes) = (0, 0);
        for q in &self.queues {
            let g = q.inner.lock();
            rejected_sqes += g.chan.rejected_sqes();
            doorbell_wakes += g.chan.doorbell_wakes();
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

    /// Drain every available completion on `g`'s channel and hand each to
    /// its registered waiter. Caller holds the queue lock.
    fn deliver(&self, g: &mut QueueInner) -> usize {
        let mut n = 0usize;
        let mut delivered = 0u64;
        let mut stale = 0u64;
        while let Some((cid, result)) = g.chan.poll_cid() {
            match g.waiters[cid as usize].take() {
                Some(w) if !w.abandoned.load(Ordering::Acquire) => {
                    w.fill(result);
                    delivered += 1;
                }
                // The caller gave up on this command (deadline expiry and
                // reissue); its CID only becomes reusable now that the
                // late completion has drained, so count it and move on.
                Some(_) => stale += 1,
                // No waiter at all: a completion outlived even the
                // abandoned mailbox. Must not wedge delivery of the rest.
                None => stale += 1,
            }
            n += 1;
        }
        if delivered > 0 {
            self.stats.completed.fetch_add(delivered, Ordering::Relaxed);
        }
        if stale > 0 {
            self.stats
                .stale_completions
                .fetch_add(stale, Ordering::Relaxed);
        }
        n
    }

    /// Submit one command on the first queue with a free slot, starting at
    /// `start`, and register its waiter. Returns the queue it landed on.
    fn submit_slot<F>(&self, start: usize, mut stage: F) -> (usize, Arc<Waiter>)
    where
        F: FnMut(&mut FileChannel) -> Result<u16, QueueFull>,
    {
        let n = self.queues.len();
        loop {
            for attempt in 0..n {
                let qid = (start + attempt) % n;
                let mut g = self.queues[qid].inner.lock();
                let cid = match stage(&mut g.chan) {
                    Ok(cid) => Some(cid),
                    Err(QueueFull) => {
                        // Free slots whose completions already landed,
                        // then retry once before stealing the next queue.
                        self.deliver(&mut g);
                        stage(&mut g.chan).ok()
                    }
                };
                if let Some(cid) = cid {
                    let w = Waiter::new();
                    debug_assert!(g.waiters[cid as usize].is_none());
                    g.waiters[cid as usize] = Some(w.clone());
                    self.stats.submitted.fetch_add(1, Ordering::Relaxed);
                    if attempt > 0 {
                        self.stats.steals.fetch_add(1, Ordering::Relaxed);
                    }
                    return (qid, w);
                }
            }
            // Every ring is full: other threads' replies are in flight.
            // Yield so the DPU side can run, then sweep again.
            self.stats.full_stalls.fetch_add(1, Ordering::Relaxed);
            std::thread::yield_now();
        }
    }

    /// Translate a drained result into the caller-facing outcome,
    /// counting transport errors as they surface.
    fn finish(&self, done: Result<FileCompletion, RecvError>) -> Result<FileCompletion, CallError> {
        if matches!(done, Err(RecvError::Transport)) {
            self.stats.transport_errors.fetch_add(1, Ordering::Relaxed);
        }
        done.map_err(CallError::from)
    }

    /// Wait for `w` to be filled, opportunistically polling `qid` so that
    /// *somebody* always drains the queue. No lock is held while waiting.
    /// Gives up after the policy's yield budget: the waiter is flagged
    /// abandoned (so the late completion is dropped as stale, never
    /// misrouted) and the caller sees [`CallError::TimedOut`].
    fn wait(&self, qid: usize, w: &Waiter) -> Result<FileCompletion, CallError> {
        let mut yields = 0u64;
        loop {
            if let Some(done) = w.try_take() {
                return self.finish(done);
            }
            if let Some(mut g) = self.queues[qid].inner.try_lock() {
                if self.deliver(&mut g) > 0 {
                    continue;
                }
            }
            yields += 1;
            if yields >= self.retry.deadline_yields {
                // Final sweep under a blocking lock before giving up, and
                // abandon under that same lock so delivery can never race
                // the abandonment.
                let mut g = self.queues[qid].inner.lock();
                self.deliver(&mut g);
                if let Some(done) = w.try_take() {
                    return self.finish(done);
                }
                w.abandoned.store(true, Ordering::Release);
                drop(g);
                self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                return Err(CallError::TimedOut);
            }
            std::thread::yield_now();
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

    /// Is `err` an outcome a reissue can fix?
    fn retryable(err: &CallError) -> bool {
        matches!(err, CallError::Transport | CallError::TimedOut)
    }

    /// Synchronous round-trip on the calling thread's preferred queue
    /// (stealing a neighbour on `QueueFull`). Safe from any number of
    /// threads concurrently; no lock is held across the round-trip.
    pub fn call(
        &self,
        dispatch: DispatchType,
        req: &FileRequest,
        write_payload: &[u8],
        read_len: u32,
    ) -> Result<FileCompletion, CallError> {
        self.call_on(
            self.preferred_queue(),
            dispatch,
            req,
            write_payload,
            read_len,
        )
    }

    /// [`call`](ChannelPool::call) with an explicit preferred queue
    /// (tests, or callers with their own placement policy).
    pub fn call_on(
        &self,
        preferred: usize,
        dispatch: DispatchType,
        req: &FileRequest,
        write_payload: &[u8],
        read_len: u32,
    ) -> Result<FileCompletion, CallError> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let (qid, w) = self.submit_slot(preferred, |chan| {
                chan.submit(dispatch, req, write_payload, read_len)
            });
            match self.wait(qid, &w) {
                Ok(c) => return Ok(c),
                Err(e)
                    if Self::retryable(&e)
                        && is_idempotent(req)
                        && attempt < self.retry.attempts =>
                {
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    self.backoff(attempt);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Synchronous scattered (writev-style) round-trip via SGL.
    pub fn call_sgl(
        &self,
        dispatch: DispatchType,
        req: &FileRequest,
        segments: &[&[u8]],
        read_len: u32,
    ) -> Result<FileCompletion, CallError> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let (qid, w) = self.submit_slot(self.preferred_queue(), |chan| {
                chan.submit_sgl(dispatch, req, segments, read_len)
            });
            match self.wait(qid, &w) {
                Ok(c) => return Ok(c),
                Err(e)
                    if Self::retryable(&e)
                        && is_idempotent(req)
                        && attempt < self.retry.attempts =>
                {
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    self.backoff(attempt);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Batched synchronous fan-out: submit all `requests` (payload-less,
    /// each expecting up to `read_len` bytes back), coalescing as many as
    /// fit per doorbell, and return their completions in request order.
    /// Chunks may land on different queues when rings fill; ordering is
    /// restored by CID→index bookkeeping, not by arrival order.
    pub fn call_many(
        &self,
        dispatch: DispatchType,
        requests: &[FileRequest],
        read_len: u32,
    ) -> Result<Vec<FileCompletion>, CallError> {
        let mut results: Vec<Option<FileCompletion>> = Vec::new();
        results.resize_with(requests.len(), || None);
        let mut first_err: Option<CallError> = None;
        let n = self.queues.len();
        let mut next = 0usize;
        let mut cids: Vec<u16> = Vec::new();
        while next < requests.len() {
            // Stage one chunk under one doorbell on the first queue with
            // room, registering a waiter per command before unlocking.
            let start = self.preferred_queue();
            let mut staged: Vec<(usize, Arc<Waiter>)> = Vec::new();
            let mut chunk_qid = 0usize;
            for attempt in 0..n {
                let qid = (start + attempt) % n;
                let mut g = self.queues[qid].inner.lock();
                cids.clear();
                let gi = &mut *g;
                if gi
                    .chan
                    .submit_batch(dispatch, &requests[next..], read_len, &mut cids)
                    == 0
                {
                    self.deliver(gi);
                    gi.chan
                        .submit_batch(dispatch, &requests[next..], read_len, &mut cids);
                }
                if !cids.is_empty() {
                    for &cid in cids.iter() {
                        let w = Waiter::new();
                        debug_assert!(gi.waiters[cid as usize].is_none());
                        gi.waiters[cid as usize] = Some(w.clone());
                        staged.push((next, w));
                        next += 1;
                    }
                    self.stats
                        .submitted
                        .fetch_add(cids.len() as u64, Ordering::Relaxed);
                    if attempt > 0 {
                        self.stats.steals.fetch_add(1, Ordering::Relaxed);
                    }
                    chunk_qid = qid;
                    break;
                }
            }
            if staged.is_empty() {
                self.stats.full_stalls.fetch_add(1, Ordering::Relaxed);
                std::thread::yield_now();
                continue;
            }
            // Collect the whole chunk before staging the next one, so at
            // most one ring's worth of this call is in flight at a time.
            for (idx, w) in staged {
                match self.wait(chunk_qid, &w) {
                    Ok(c) => results[idx] = Some(c),
                    Err(e) if Self::retryable(&e) && is_idempotent(&requests[idx]) => {
                        // Reissue just this member as a single call; the
                        // rest of the chunk is unaffected.
                        match self.reissue(dispatch, &requests[idx], read_len) {
                            Ok(c) => results[idx] = Some(c),
                            Err(e) => {
                                if first_err.is_none() {
                                    first_err = Some(e);
                                }
                            }
                        }
                    }
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        Ok(results
            .into_iter()
            .map(|c| c.expect("every request completed"))
            .collect())
    }

    /// Reissue one payload-less idempotent request after its batched
    /// submission failed (batch attempt counts as attempt 1).
    fn reissue(
        &self,
        dispatch: DispatchType,
        req: &FileRequest,
        read_len: u32,
    ) -> Result<FileCompletion, CallError> {
        let mut attempt = 1u32;
        loop {
            if attempt >= self.retry.attempts {
                return Err(CallError::TimedOut);
            }
            self.stats.retries.fetch_add(1, Ordering::Relaxed);
            self.backoff(attempt);
            attempt += 1;
            let (qid, w) = self.submit_slot(self.preferred_queue(), |chan| {
                chan.submit(dispatch, req, b"", read_len)
            });
            match self.wait(qid, &w) {
                Ok(c) => return Ok(c),
                Err(e) if Self::retryable(&e) => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{create_fabric, FileTarget};
    use crate::filemsg::FileResponse;
    use crate::queue::QueuePairConfig;
    use dpc_pcie::DmaEngine;

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

    /// Serve every queue until `stop` flips: echo `GetAttr { ino }` back
    /// as `Ino(ino)`.
    fn spawn_echo_server(
        mut tgts: Vec<FileTarget>,
        stop: Arc<AtomicBool>,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                let mut any = false;
                for tgt in tgts.iter_mut() {
                    while let Some(inc) = tgt.poll() {
                        any = true;
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
            let mut pending = Vec::new();
            while pending.len() < 2 {
                if let Some(inc) = tgt.poll() {
                    pending.push(inc);
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
                if let Some(inc) = tgt0.poll() {
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

        std::thread::scope(|s| {
            // Occupant of queue 0's only slot.
            let p = pool.clone();
            let blocker = s.spawn(move || {
                let done = p
                    .call_on(
                        0,
                        DispatchType::Standalone,
                        &FileRequest::GetAttr { ino: 1 },
                        b"",
                        0,
                    )
                    .unwrap();
                assert_eq!(done.response, FileResponse::Ino(1));
            });
            // Wait until the slot is actually taken.
            while pool.outstanding(0) == 0 {
                std::thread::yield_now();
            }
            // Prefers queue 0, finds it full, must steal queue 1 — and
            // completes while queue 0's reply is still being held back.
            let done = pool
                .call_on(
                    0,
                    DispatchType::Standalone,
                    &FileRequest::GetAttr { ino: 2 },
                    b"",
                    0,
                )
                .unwrap();
            assert_eq!(done.response, FileResponse::Ino(2));
            assert_eq!(pool.outstanding(0), 1, "queue 0's command still in flight");
            assert!(pool.stats().steals >= 1);

            release.store(true, Ordering::Release);
            blocker.join().unwrap();
        });
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
                let mut held: Option<crate::FileIncoming> = None;
                while !stop.load(Ordering::Acquire) {
                    let Some(inc) = tgt.poll() else {
                        std::thread::yield_now();
                        continue;
                    };
                    assert_eq!(inc.request, want);
                    match &held {
                        None => held = Some(inc),
                        Some(first) => {
                            assert_ne!(first.slot, inc.slot);
                            tgt.reply(inc.slot, &FileResponse::Bytes(2), b"");
                        }
                    }
                }
                let first = held.expect("the first attempt arrived");
                tgt.reply(first.slot, &FileResponse::Bytes(1), b"");
            })
        };
        let before = dma.snapshot();
        let done = pool.call(DispatchType::Standalone, &req, b"", 0).unwrap();
        assert_eq!(done.response, FileResponse::Bytes(2));
        stop.store(true, Ordering::Release);
        server.join().unwrap();
        // The late reply drains as stale; every attempt was SQE + CQE.
        while pool.outstanding(0) > 0 {
            pool.deliver(&mut pool.queues[0].inner.lock());
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
    fn call_many_restores_request_order() {
        let (pool, tgts) = pool_with_targets(2, 8);
        let stop = Arc::new(AtomicBool::new(false));
        let server = spawn_echo_server(tgts, stop.clone());

        // More requests than one ring holds → multiple chunks.
        let requests: Vec<FileRequest> =
            (0..40u64).map(|ino| FileRequest::GetAttr { ino }).collect();
        let done = pool
            .call_many(DispatchType::Standalone, &requests, 0)
            .unwrap();
        assert_eq!(done.len(), 40);
        for (i, c) in done.iter().enumerate() {
            assert_eq!(c.response, FileResponse::Ino(i as u64), "slot {i}");
        }
        stop.store(true, Ordering::Release);
        server.join().unwrap();
    }
}
