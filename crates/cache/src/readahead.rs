//! Adaptive per-inode readahead state and the background prefetch queue.
//!
//! This replaces the old global sequential detector with the structure
//! the paper's control plane implies and Linux-style readahead refined:
//!
//! - a **sharded per-ino stream table** ([`ReadaheadTable`]) tracking the
//!   last access and an adaptive window that doubles on sequential
//!   progress (up to a cap) and resets to the initial size on any other
//!   access;
//! - an **async-trigger marker**: each emitted window nominates a marker
//!   page (the analogue of `PG_readahead`); the demand hit that consumes
//!   it prompts the host to hint the DPU, which plans the *next* window
//!   before the reader exhausts the cached one — steady-state streams
//!   never stall on a miss;
//! - a **bounded prefetch queue** ([`PrefetchQueue`]) decoupling window
//!   *planning* (on the dispatch path) from window *filling* (a
//!   `DpuRuntime` background thread) so the demand path never performs a
//!   backend read it wasn't asked for.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dpc_pcie::Sleeper;
use parking_lot::Mutex;

/// Shards of the readahead table (keyed by ino, like the dirty index).
const RA_SHARDS: usize = 16;

/// Tunables for the adaptive window logic.
#[derive(Copy, Clone, Debug)]
pub struct RaConfig {
    /// First window emitted when a stream is detected (pages).
    pub initial_window: u32,
    /// Cap the window doubles toward (pages).
    pub max_window: u32,
    /// Consecutive pattern-following accesses before the first window.
    pub trigger: u32,
}

impl Default for RaConfig {
    fn default() -> Self {
        RaConfig {
            initial_window: 4,
            max_window: 64,
            trigger: 2,
        }
    }
}

/// One prefetch decision: `pages` consecutive pages starting at `start`,
/// filled by one vectored backend read. `marker` is the page whose demand
/// hit should trigger planning of the next window.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RaWindow {
    pub start: u64,
    pub pages: u32,
    /// Always 1: the planner emits contiguous windows only, and
    /// [`fill_window`](crate::ControlPlane::fill_window) fills nothing of
    /// a window with any other stride. The field stays only because
    /// `dpc-e2e`'s probe builds a window with it.
    pub stride: i64,
    pub marker: Option<u64>,
}

/// Per-inode stream state.
struct RaStream {
    /// First LPN of the last observed access.
    last_start: u64,
    /// Pages the last access spanned (multi-page demand reads count as
    /// one sequential step of their full span).
    last_span: u32,
    /// Consecutive accesses that were sequential progress.
    run: u32,
    /// Current adaptive window size (pages).
    window: u32,
    /// First LPN not yet covered by an emitted window (the readahead
    /// frontier).
    planned_next: u64,
}

impl RaStream {
    /// Plan the next window: it starts at the frontier or at `from`,
    /// whichever is further, flags its middle page as the marker, and
    /// doubles the window after it up to `max_window`.
    fn plan(&mut self, from: u64, max_window: u32) -> RaWindow {
        let start = self.planned_next.max(from);
        let pages = self.window;
        self.planned_next = start + pages as u64;
        self.window = (pages * 2).min(max_window);
        RaWindow {
            start,
            pages,
            stride: 1,
            marker: Some(start + pages as u64 / 2),
        }
    }
}

/// Sharded per-ino readahead state table. Shared (via `Arc`) by every
/// dispatcher thread; a stream's state lives wherever its reads land.
pub struct ReadaheadTable {
    cfg: RaConfig,
    shards: Box<[Mutex<HashMap<u64, RaStream>>]>,
}

impl ReadaheadTable {
    pub fn new(cfg: RaConfig) -> ReadaheadTable {
        ReadaheadTable {
            cfg,
            shards: (0..RA_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, ino: u64) -> &Mutex<HashMap<u64, RaStream>> {
        &self.shards[(ino as usize) % RA_SHARDS]
    }

    /// Feed a demand read (`span` pages starting at `lpn`) into the
    /// stream detector; returns a window worth prefetching, if the
    /// pattern warrants one. Only *misses* reach the DPU, so between two
    /// calls the reader may have consumed any number of cached pages —
    /// a miss landing anywhere inside the planned frontier still counts
    /// as sequential progress. Any other miss starts the stream over.
    pub fn on_read(&self, ino: u64, lpn: u64, span: u32) -> Option<RaWindow> {
        let span = span.max(1);
        let cfg = self.cfg;
        let mut shard = self.shard(ino).lock();
        let s = shard.entry(ino).or_insert(RaStream {
            last_start: lpn,
            last_span: span,
            run: 0,
            window: cfg.initial_window,
            planned_next: 0,
        });
        if s.run == 0 {
            // Fresh stream: this access is its first evidence.
            s.run = 1;
        } else {
            if lpn == s.last_start {
                return None; // re-read of the same position: no evidence
            }
            let frontier = s.planned_next.max(s.last_start + s.last_span as u64);
            if lpn > s.last_start && lpn <= frontier {
                s.run += 1;
            } else {
                // Not sequential progress: shrink back to the initial
                // window and start over from this access.
                s.run = 1;
                s.window = cfg.initial_window;
                s.planned_next = 0;
            }
            s.last_start = lpn;
            s.last_span = span;
        }
        if s.run < cfg.trigger {
            return None;
        }
        let pos_end = lpn + span as u64;
        if s.planned_next > pos_end {
            // A window is already planned ahead; its marker page will
            // extend the stream asynchronously.
            return None;
        }
        Some(s.plan(pos_end, cfg.max_window))
    }

    /// The host consumed a window's async-trigger marker page: plan the
    /// next window from the frontier so it fills while the reader works
    /// through the current one. `None` when the stream has since reset
    /// (random access or truncate) — a stale marker must not resurrect
    /// a dead stream.
    pub fn on_marker(&self, ino: u64, lpn: u64) -> Option<RaWindow> {
        let cfg = self.cfg;
        let mut shard = self.shard(ino).lock();
        let s = shard.get_mut(&ino)?;
        if s.run < cfg.trigger {
            return None;
        }
        // Marker consumption is sequential progress in itself.
        if lpn >= s.last_start {
            s.last_start = lpn;
            s.last_span = 1;
        }
        Some(s.plan(lpn + 1, cfg.max_window))
    }

    /// The window [`on_read`](Self::on_read) or
    /// [`on_marker`](Self::on_marker) just returned was not queued (the
    /// cache was at its free-page floor, or the queue was full): take it
    /// back, so the stream's frontier covers only windows that were
    /// queued. The frontier returns to the window's start and the window
    /// to its size, and the next miss in it plans it again. A stream
    /// that has since reset or planned further is left as it is.
    pub fn withdraw(&self, ino: u64, window: &RaWindow) {
        let mut shard = self.shard(ino).lock();
        if let Some(s) = shard.get_mut(&ino) {
            if s.planned_next == window.start + window.pages as u64 {
                s.planned_next = window.start;
                s.window = window.pages;
            }
        }
    }

    /// Forget `ino`'s stream (truncate/unlink/invalidate): a stale
    /// stream must not prefetch beyond a new EOF or resurrect freed
    /// pages.
    pub fn reset(&self, ino: u64) {
        self.shard(ino).lock().remove(&ino);
    }

    /// Streams currently tracked (diagnostic).
    pub fn streams(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

/// One queued fill: a planned window for one inode.
#[derive(Copy, Clone, Debug)]
pub struct PrefetchJob {
    pub ino: u64,
    pub window: RaWindow,
}

/// Capacity, in jobs, of the product's prefetch queue.
pub const PREFETCH_QUEUE_CAP: usize = 256;

/// Bounded MPMC queue feeding the background prefetcher thread.
/// `push` never blocks: when full, the job is simply dropped (readahead
/// is best-effort; the demand path must never wait on it).
pub struct PrefetchQueue {
    jobs: Mutex<VecDeque<PrefetchJob>>,
    cap: usize,
    /// Jobs popped but not yet completed.
    in_flight: AtomicU64,
    /// Lock-free mirror of the queue length (for `is_idle`, and the word
    /// a consumer asleep in [`pop_or_park`](Self::pop_or_park) re-reads).
    queued: AtomicU64,
    /// The consumer asleep on an empty queue, woken by `push`: the SQ
    /// doorbell's handshake, `queued` its work word.
    sleeper: Sleeper,
}

impl PrefetchQueue {
    pub fn new(cap: usize) -> PrefetchQueue {
        PrefetchQueue {
            jobs: Mutex::new(VecDeque::new()),
            cap: cap.max(1),
            in_flight: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            sleeper: Sleeper::new(),
        }
    }

    /// Enqueue a job; `false` means the queue was full and the job was
    /// dropped.
    pub fn push(&self, job: PrefetchJob) -> bool {
        let mut jobs = self.jobs.lock();
        if jobs.len() >= self.cap {
            return false;
        }
        jobs.push_back(job);
        // `SeqCst`, then `wake`: the sleeper's contract.
        self.queued.store(jobs.len() as u64, Ordering::SeqCst);
        drop(jobs);
        self.sleeper.wake();
        true
    }

    /// Dequeue the next job; the caller owes a [`done`](Self::done) call
    /// once the fill completes.
    pub fn pop(&self) -> Option<PrefetchJob> {
        let mut jobs = self.jobs.lock();
        let job = jobs.pop_front()?;
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        self.queued.store(jobs.len() as u64, Ordering::Release);
        Some(job)
    }

    /// [`pop`](Self::pop), but an empty queue parks the calling thread —
    /// off the CPU, not polling — until a `push`, an `unpark` from
    /// elsewhere (shutdown), or `timeout`. `None` means "woke with
    /// nothing to do": the caller re-checks its exit conditions and
    /// calls again.
    pub fn pop_or_park(&self, timeout: Duration) -> Option<PrefetchJob> {
        if let Some(job) = self.pop() {
            return Some(job);
        }
        self.sleeper
            .sleep_unless(timeout, || self.queued.load(Ordering::SeqCst) != 0);
        self.pop()
    }

    /// Mark a popped job finished.
    pub fn done(&self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    /// Nothing queued and nothing mid-fill. (`queued` is read before
    /// `in_flight`: `pop` increments the latter before publishing the
    /// shorter length, so a job can never vanish between the two loads.)
    pub fn is_idle(&self) -> bool {
        self.queued.load(Ordering::Acquire) == 0 && self.in_flight.load(Ordering::Acquire) == 0
    }

    pub fn len(&self) -> usize {
        self.queued.load(Ordering::Acquire) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(initial: u32, max: u32) -> ReadaheadTable {
        ReadaheadTable::new(RaConfig {
            initial_window: initial,
            max_window: max,
            trigger: 2,
        })
    }

    #[test]
    fn sequential_stream_triggers_after_two_accesses() {
        let t = table(4, 64);
        assert_eq!(t.on_read(1, 10, 1), None);
        let w = t.on_read(1, 11, 1).unwrap();
        assert_eq!((w.start, w.pages, w.stride), (12, 4, 1));
        assert_eq!(w.marker, Some(14));
    }

    #[test]
    fn window_doubles_on_sequential_progress_up_to_cap() {
        let t = table(4, 16);
        t.on_read(1, 0, 1);
        let mut sizes = Vec::new();
        let w = t.on_read(1, 1, 1).unwrap();
        sizes.push(w.pages);
        // Consume each window's marker: the next window doubles.
        let mut marker = w.marker.unwrap();
        for _ in 0..4 {
            let w = t.on_marker(1, marker).unwrap();
            sizes.push(w.pages);
            marker = w.marker.unwrap();
        }
        assert_eq!(sizes, vec![4, 8, 16, 16, 16], "doubles then caps");
    }

    #[test]
    fn random_access_resets_window_and_run() {
        let t = table(4, 64);
        t.on_read(1, 0, 1);
        let w = t.on_read(1, 1, 1).unwrap();
        assert_eq!(w.pages, 4);
        t.on_marker(1, w.marker.unwrap()).unwrap(); // window now 8-ish
                                                    // Random jump far away: stream resets, needs re-triggering.
        assert_eq!(t.on_read(1, 5000, 1), None);
        assert_eq!(t.on_read(1, 5001, 1).map(|w| w.pages), Some(4));
    }

    #[test]
    fn multi_page_reads_count_as_sequential_spans() {
        let t = table(4, 64);
        // An 8-page buffered read followed by the next 8 pages is one
        // sequential stream, not a jump of 8.
        assert_eq!(t.on_read(1, 0, 8), None);
        let w = t.on_read(1, 8, 8).unwrap();
        assert_eq!((w.start, w.stride), (16, 1));
    }

    #[test]
    fn a_fixed_stride_starts_the_stream_over_at_every_miss() {
        let t = table(4, 64);
        // Forward and backward strides are random jumps, each one: no
        // window fires, however long the pattern holds.
        for lpn in [0, 100, 200, 300, 400, 1000, 990, 980, 970] {
            assert_eq!(t.on_read(1, lpn, 1), None, "lpn={lpn}");
        }
        // A sequential step after them triggers at the initial window.
        let w = t.on_read(1, 971, 1).unwrap();
        assert_eq!((w.start, w.pages, w.stride), (972, 4, 1));
    }

    #[test]
    fn a_withdrawn_window_is_planned_again_and_a_stale_one_is_ignored() {
        let t = table(4, 64);
        t.on_read(1, 0, 1);
        let w = t.on_read(1, 1, 1).unwrap();
        assert_eq!((w.start, w.pages), (2, 4));
        t.withdraw(1, &w);
        // The next miss inside the withdrawn window plans it again, at
        // the size it had.
        let again = t.on_read(1, 2, 1).unwrap();
        assert_eq!((again.start, again.pages), (3, 4));
        // Once the stream has planned past a window, withdrawing that
        // window moves nothing: the frontier stays where the later
        // window put it.
        let next = t.on_marker(1, again.marker.unwrap()).unwrap();
        assert_eq!((next.start, next.pages), (7, 8));
        t.withdraw(1, &again);
        assert_eq!(t.on_read(1, 8, 1), None, "a window is still planned");
    }

    #[test]
    fn marker_of_reset_stream_is_ignored() {
        let t = table(4, 64);
        t.on_read(1, 0, 1);
        let w = t.on_read(1, 1, 1).unwrap();
        let marker = w.marker.unwrap();
        t.reset(1);
        assert_eq!(t.on_marker(1, marker), None, "stale marker after reset");
    }

    #[test]
    fn inos_are_independent() {
        let t = table(4, 64);
        t.on_read(1, 0, 1);
        t.on_read(2, 50, 1);
        assert!(t.on_read(1, 1, 1).is_some());
        assert!(t.on_read(2, 51, 1).is_some());
        assert_eq!(t.streams(), 2);
        t.reset(1);
        assert_eq!(t.streams(), 1);
    }

    #[test]
    fn queue_bounds_and_idleness() {
        let q = PrefetchQueue::new(2);
        let job = PrefetchJob {
            ino: 1,
            window: RaWindow {
                start: 0,
                pages: 4,
                stride: 1,
                marker: None,
            },
        };
        assert!(q.is_idle());
        assert!(q.push(job));
        assert!(q.push(job));
        assert!(!q.push(job), "full queue drops");
        assert_eq!(q.len(), 2);
        let j = q.pop().unwrap();
        assert_eq!(j.ino, 1);
        assert!(!q.is_idle(), "popped job still in flight");
        q.done();
        q.pop().unwrap();
        q.done();
        assert!(q.is_idle());
        assert!(q.pop().is_none());
    }

    /// Whether this process's thread named `name` is asleep (procfs
    /// state `S`).
    #[cfg(target_os = "linux")]
    fn asleep(name: &str) -> bool {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .filter_map(|task| {
                let dir = task.ok()?.path();
                let comm = std::fs::read_to_string(dir.join("comm")).ok()?;
                let stat = std::fs::read_to_string(dir.join("stat")).ok()?;
                // The state follows the `(comm)` field.
                let state = stat.rsplit_once(") ")?.1.chars().next()?;
                Some((comm.trim() == name, state))
            })
            .any(|(named, state)| named && state == 'S')
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_parked_consumer_is_woken_by_push_and_by_nothing_else() {
        let job = PrefetchJob {
            ino: 9,
            window: RaWindow {
                start: 0,
                pages: 1,
                stride: 1,
                marker: None,
            },
        };
        let q = std::sync::Arc::new(PrefetchQueue::new(4));
        // A queued job is returned without parking, whatever the timeout,
        // and a push that finds nobody asleep wakes nobody.
        assert!(q.push(job));
        assert_eq!(q.pop_or_park(Duration::from_secs(3600)).unwrap().ino, 9);
        q.done();
        assert_eq!(q.sleeper.wakes(), 0);
        // An empty queue gives the thread back at the timeout.
        assert!(q.pop_or_park(Duration::from_millis(1)).is_none());
        // Parked for an hour: only `push` can end this wait. The producer
        // pushes once the consumer is asleep — the one place it blocks —
        // i.e. strictly after it found the queue empty.
        let consumer = {
            let q = q.clone();
            std::thread::Builder::new()
                .name("ra-consumer".into())
                .spawn(move || loop {
                    // `park_timeout` may return spuriously: ask again.
                    if let Some(job) = q.pop_or_park(Duration::from_secs(3600)) {
                        q.done();
                        return job.ino;
                    }
                })
                .expect("spawn consumer")
        };
        while !asleep("ra-consumer") {
            std::thread::yield_now();
        }
        assert!(q.push(job));
        assert_eq!(consumer.join().expect("consumer thread"), 9);
        assert_eq!(q.sleeper.wakes(), 1, "the push found it asleep");
        assert!(q.is_idle());
    }
}
