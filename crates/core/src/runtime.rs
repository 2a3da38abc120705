//! The DPU runtime: service threads polling nvme-fs targets, the
//! background prefetcher, and the teardown drain.
//!
//! In the real system these are processes on the DPU's 24 TaiShan cores;
//! here they are OS threads serving the same roles — each nvme-fs queue
//! pair gets a service loop running the [`Dispatcher`] (whose `Fsync` and
//! `CacheEvictBatch` arms are the paper's back-end write path), and one
//! prefetcher thread drains the readahead queue, filling planned windows
//! into the host cache (the paper's back-end read path).
//! When the runtime stops, a [`Drain`] persists what is still dirty.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use dpc_cache::{ControlPlane, PrefetchQueue};
use dpc_fault::CrashSwitch;
use dpc_kvfs::Kvfs;
use dpc_nvmefs::{FileIncomingBatch, FileTarget};

use crate::dispatch::{ra_floor, Dispatcher, KvfsFlush, KvfsRead};

/// A fault-free flush of every dirty page of a cache into KVFS: what an
/// instance's teardown and [`Dpc::recover`](crate::Dpc::recover) run. Its
/// control-plane slice (whose `max_extent_pages` is the coalescing policy)
/// carries no crash switch — whoever runs the drain has checked it.
pub struct Drain {
    pub control: ControlPlane,
    pub kvfs: Arc<Kvfs>,
}

impl Drain {
    /// Flush pass after pass while a pass lands pages and leaves some
    /// refused (the store's own faults stay armed). A page a writer holds
    /// through a pass, or dirties after it, is not waited for.
    pub fn run(&mut self) {
        let mut sink = KvfsFlush {
            kvfs: &self.kvfs,
            fault: None,
        };
        while self.control.flush_extents(&mut sink, None, true) > 0 && self.control.refused() > 0 {}
    }
}

/// Everything the background prefetcher thread needs: its own
/// control-plane slice, the KVFS page source and the shared job queue.
/// Its fills stop at the cache's free-page floor ([`ra_floor`]).
pub struct PrefetcherConfig {
    pub control: ControlPlane,
    pub kvfs: Arc<Kvfs>,
    pub queue: Arc<PrefetchQueue>,
}

/// Longest an idle DPU thread sleeps on its event between looks at the
/// shutdown flag and the crash switch. Both wake it themselves (`Drop`,
/// [`DpuRuntime::wake_all`]); the bound only covers a crash tripped from
/// inside another DPU thread, and keeps an idle instance at one wake-up
/// per thread per this long.
const IDLE_PARK: std::time::Duration = std::time::Duration::from_millis(10);

/// The live-stream tier of the DPU loops (service threads, prefetcher):
/// an empty poll yields the core and polls again, [`Self::YIELD_ROUNDS`]
/// times over, and only then does the loop sleep on its own event — the
/// queue's SQ doorbell, the prefetch queue's `push`.
///
/// There is no spin tier: a loop that shares the caller's core gets no
/// work until the caller runs, and on a core of its own a yield with
/// nobody else runnable returns in well under a microsecond. There is no
/// nap tier: a sleeping loop is woken by the event, not by a timer. The
/// yield tier is what keeps a closed-loop stream of calls from ever
/// sleeping between two of them — a futex wake per command costs more
/// than every yield it saves — and it is counted in yields, like the
/// pool's deadlines: on a shared core a round only passes when the
/// scheduler has gone round, however long the caller computes in between.
#[derive(Debug, Default)]
pub(crate) struct IdleBackoff {
    rounds: u32,
}

impl IdleBackoff {
    /// Consecutive empty polls before the loop sleeps on its event.
    const YIELD_ROUNDS: u32 = 256;

    pub(crate) fn new() -> IdleBackoff {
        IdleBackoff::default()
    }

    /// A productive poll: the stream is live again.
    pub(crate) fn reset(&mut self) {
        self.rounds = 0;
    }

    /// One empty poll. `true`: yielded the core — poll again. `false`:
    /// the stream has gone quiet — sleep on your event.
    pub(crate) fn idle(&mut self) -> bool {
        if self.rounds >= Self::YIELD_ROUNDS {
            return false;
        }
        self.rounds += 1;
        std::thread::yield_now();
        true
    }
}

/// Shared runtime state.
pub struct RuntimeShared {
    pub shutdown: AtomicBool,
    /// Requests served across all service threads.
    pub requests_served: AtomicU64,
    /// Pages inserted by the background prefetcher.
    pub pages_prefetched: AtomicU64,
    /// Times a service thread went to sleep on its queue's SQ doorbell.
    /// Each sleep ends with a doorbell or the [`IDLE_PARK`] re-check.
    pub svc_parks: AtomicU64,
}

/// Handle owning the DPU threads; joins them and drains the cache on drop.
pub struct DpuRuntime {
    pub shared: Arc<RuntimeShared>,
    threads: Vec<JoinHandle<()>>,
    /// Run once by [`stop`](Self::stop), unless the DPU crashed.
    drain: Option<Drain>,
    crash: Arc<CrashSwitch>,
}

impl DpuRuntime {
    /// Spawn one service thread per target (each with its own
    /// [`Dispatcher`]) and the prefetcher; `drain` runs at [`stop`](Self::stop).
    pub fn spawn(
        targets: Vec<(FileTarget, Dispatcher)>,
        drain: Drain,
        prefetcher: PrefetcherConfig,
        crash: Arc<CrashSwitch>,
    ) -> DpuRuntime {
        let shared = Arc::new(RuntimeShared {
            shutdown: AtomicBool::new(false),
            requests_served: AtomicU64::new(0),
            pages_prefetched: AtomicU64::new(0),
            svc_parks: AtomicU64::new(0),
        });
        let mut threads = Vec::new();

        for (qid, (mut target, mut dispatcher)) in targets.into_iter().enumerate() {
            let shared = shared.clone();
            let crash = crash.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("dpu-svc-{qid}"))
                    .spawn(move || {
                        // One recycled batch per service thread: the serve
                        // loop drains every posted SQE per doorbell read,
                        // replies in order, and allocates nothing once the
                        // batch's buffers are warm.
                        let mut batch = FileIncomingBatch::new();
                        let mut backoff = IdleBackoff::new();
                        // A tripped crash switch means the DPU is dead:
                        // the service loop exits, posted commands rot in
                        // the queue and the host's calls time out — the
                        // behaviour recovery tests simulate against.
                        while !shared.shutdown.load(Ordering::Acquire) && !crash.is_tripped() {
                            if target.poll_many(&mut batch) > 0 {
                                backoff.reset();
                                let served = dispatcher.handle_batch(&batch, &mut target);
                                shared
                                    .requests_served
                                    .fetch_add(served as u64, Ordering::Relaxed);
                            } else if backoff.idle() {
                                // Yielded: the next command of a live
                                // stream is one hand-off away.
                            } else if target.park(IDLE_PARK) {
                                shared.svc_parks.fetch_add(1, Ordering::Relaxed);
                            } else {
                                // No sleep: the doorbell moved since the
                                // poll, or deferred fault-injected requests
                                // are counting poll ticks. Keep ticking.
                                std::thread::yield_now();
                            }
                        }
                    })
                    .expect("spawn service thread"),
            );
        }

        {
            let shared = shared.clone();
            let crash = crash.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("dpu-prefetch".into())
                    .spawn(move || {
                        let mut p = prefetcher;
                        let floor = ra_floor(p.control.cache());
                        // Drain the job queue; fills are entirely off the
                        // request path (the dispatcher only plans windows
                        // and pushes jobs). `fill_window` applies the
                        // cache-pressure throttle, the no-clobber rule and
                        // the ino-epoch abort internally, so this loop is
                        // pure plumbing. Between the jobs of a live stream
                        // it yields like the service loops; once the queue
                        // has stayed empty through that tier it parks on
                        // the queue — a workload that never reads
                        // sequentially must not pay for a poller. `push`
                        // unparks it.
                        let mut backoff = IdleBackoff::new();
                        while !shared.shutdown.load(Ordering::Acquire) && !crash.is_tripped() {
                            let job = match p.queue.pop() {
                                None if !backoff.idle() => p.queue.pop_or_park(IDLE_PARK),
                                job => job,
                            };
                            if let Some(job) = job {
                                backoff.reset();
                                let mut backend = KvfsRead { kvfs: &p.kvfs };
                                let inserted = p.control.fill_window(&job, &mut backend, floor);
                                shared
                                    .pages_prefetched
                                    .fetch_add(inserted as u64, Ordering::Relaxed);
                                p.queue.done();
                            }
                        }
                        // Unqueued jobs die with the instance: prefetch is
                        // a hint, there is nothing to drain durably.
                    })
                    .expect("spawn prefetcher thread"),
            );
        }

        DpuRuntime {
            shared,
            threads,
            drain: Some(drain),
            crash,
        }
    }

    pub fn requests_served(&self) -> u64 {
        self.shared.requests_served.load(Ordering::Relaxed)
    }

    pub fn pages_prefetched(&self) -> u64 {
        self.shared.pages_prefetched.load(Ordering::Relaxed)
    }

    pub fn svc_parks(&self) -> u64 {
        self.shared.svc_parks.load(Ordering::Relaxed)
    }

    /// Bring every DPU thread asleep on its event back to its loop head,
    /// where it re-reads the shutdown flag and the crash switch. Call
    /// after setting either.
    pub fn wake_all(&self) {
        for t in &self.threads {
            t.thread().unpark();
        }
    }

    /// Stop every DPU thread and join it, then run the drain (DESIGN.md
    /// §8.4) unless the crash switch has tripped: a dead DPU persists
    /// nothing on its way out. What the threads and the drain held —
    /// dispatchers, control planes and the cache handles in them — is
    /// dropped by the time this returns.
    pub(crate) fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.wake_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Some(mut drain) = self.drain.take() {
            if !self.crash.is_tripped() {
                drain.run();
            }
        }
    }
}

impl Drop for DpuRuntime {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_cache::{CacheConfig, HybridCache, PAGE_SIZE};
    use dpc_kvstore::KvStore;
    use dpc_pcie::DmaEngine;

    /// A KVFS with two 32-page files, and a cache holding four dirty,
    /// non-adjacent overwrites of each: eight one-page extents, two inodes,
    /// a batch each.
    fn dirty_overwrites() -> (Arc<HybridCache>, Arc<Kvfs>, [u64; 2]) {
        let kvfs = Arc::new(Kvfs::new(Arc::new(KvStore::new())));
        let cache = Arc::new(HybridCache::new(CacheConfig {
            pages: 64,
            bucket_entries: 8,
            mode: 1,
            meta_lockfree: true,
        }));
        let inos = ["/a", "/b"].map(|p| kvfs.create(p, 0o644).unwrap());
        for ino in inos {
            kvfs.write(ino, 0, &vec![1u8; 32 * PAGE_SIZE]).unwrap();
            for lpn in [0, 4, 8, 12] {
                let mut page = cache.begin_write(ino, lpn).unwrap();
                page.write(0, &[2u8; PAGE_SIZE]);
                page.commit_dirty();
            }
        }
        (cache, kvfs, inos)
    }

    /// A runtime with no service thread and an idle prefetcher: what
    /// stopping it does is the drain.
    fn drain_only(cache: &Arc<HybridCache>, kvfs: &Arc<Kvfs>, crash: CrashSwitch) -> DpuRuntime {
        let control = || ControlPlane::new(cache.clone(), DmaEngine::new());
        let drain = Drain {
            control: control(),
            kvfs: kvfs.clone(),
        };
        let prefetcher = PrefetcherConfig {
            control: control(),
            kvfs: kvfs.clone(),
            queue: Arc::new(PrefetchQueue::new(1)),
        };
        DpuRuntime::spawn(vec![], drain, prefetcher, Arc::new(crash))
    }

    /// Each file's attribute as a fresh mount of the store reads it.
    fn stored(kvfs: &Kvfs, inos: [u64; 2]) -> [dpc_kvfs::FileAttr; 2] {
        let cold = Kvfs::open(kvfs.store().clone()).unwrap();
        inos.map(|ino| cold.get_attr(ino).unwrap())
    }

    #[test]
    fn the_shutdown_drain_puts_each_inode_attribute_once() {
        let (cache, kvfs, inos) = dirty_overwrites();
        let (attrs, before) = (stored(&kvfs, inos), kvfs.store().stats());
        let runtime = drain_only(&cache, &kvfs, CrashSwitch::inert());
        assert_eq!(kvfs.store().stats(), before, "nothing flushes before stop");
        drop(runtime);
        // One request per inode's batch, its four blocks and its
        // attribute.
        let after = kvfs.store().stats();
        assert_eq!(after.sub_writes - before.sub_writes, 2);
        assert_eq!(after.sub_write_keys - before.sub_write_keys, 10);
        assert_eq!(after.puts, before.puts, "the mtime rides each batch");
        assert_eq!(cache.dirty_count(), 0);
        assert_eq!(cache.stats().bg_flush_pages, 8);
        for (now, then) in stored(&kvfs, inos).iter().zip(&attrs) {
            assert!(now.mtime > then.mtime);
            assert_eq!(now.size, then.size);
        }
    }

    #[test]
    fn a_tripped_crash_switch_suppresses_the_drain() {
        let (cache, kvfs, _) = dirty_overwrites();
        let before = kvfs.store().stats();
        let crash = CrashSwitch::inert();
        crash.trip();
        drop(drain_only(&cache, &kvfs, crash));
        assert_eq!(kvfs.store().stats(), before);
        assert_eq!(cache.dirty_count(), 8, "recovery adopts these");
    }

    #[test]
    fn backoff_yields_a_bounded_tier_then_says_sleep() {
        let mut b = IdleBackoff::new();
        for round in 0..IdleBackoff::YIELD_ROUNDS {
            assert!(b.idle(), "round {round} is still in the yield tier");
        }
        // Past the tier it neither yields nor deepens: the caller sleeps
        // on its own event, however long the spell lasts.
        for _ in 0..10 {
            assert!(!b.idle());
        }
        assert_eq!(b.rounds, IdleBackoff::YIELD_ROUNDS);
    }

    #[test]
    fn backoff_resets_to_the_yield_tier_after_work() {
        let mut b = IdleBackoff {
            rounds: IdleBackoff::YIELD_ROUNDS,
        };
        assert!(!b.idle());
        b.reset();
        assert!(b.idle(), "a productive poll must re-arm the live tier");
    }
}
