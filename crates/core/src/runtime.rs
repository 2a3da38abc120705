//! The DPU runtime: service threads polling nvme-fs targets, plus the
//! background cache flusher and the background prefetcher.
//!
//! In the real system these are processes on the DPU's 24 TaiShan cores;
//! here they are OS threads serving the same roles — each nvme-fs queue
//! pair gets a service loop running the [`Dispatcher`], one flusher
//! thread periodically scans the hybrid cache's meta area and persists
//! dirty pages into KVFS (the paper's back-end write path), and one
//! prefetcher thread drains the readahead queue, filling planned windows
//! into the host cache (the paper's back-end read path).

use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use dpc_cache::{ControlPlane, HybridCache, IntentLog, PrefetchQueue, WalKind, WalScan, PAGE_SIZE};
use dpc_kvfs::Kvfs;
use dpc_nvmefs::{FileIncomingBatch, FileTarget};
use dpc_pcie::DmaEngine;
use dpc_sim::{CrashSwitch, FaultSite};

use crate::adapter::cache_write_page;
use crate::dispatch::{Dispatcher, KvfsFlush, KvfsRead};

/// Everything the background flusher thread needs: its own control-plane
/// slice (whose `max_extent_pages` is the coalescing policy) and the
/// KVFS sink.
pub struct FlusherConfig {
    pub control: ControlPlane,
    pub kvfs: Arc<Kvfs>,
    pub fault: Option<Arc<FaultSite>>,
}

/// Background flusher hysteresis band, as dirty ratios: start draining
/// back-to-back at the high watermark, fall back to trickling once the
/// ratio is down to the low one.
const FLUSH_HIGH_WATERMARK: f64 = 0.75;
const FLUSH_LOW_WATERMARK: f64 = 0.25;

/// Everything the background prefetcher thread needs: its own
/// control-plane slice, the KVFS page source, the shared job queue, and
/// the cache-pressure floor.
pub struct PrefetcherConfig {
    pub control: ControlPlane,
    pub kvfs: Arc<Kvfs>,
    pub queue: Arc<PrefetchQueue>,
    /// Free-page floor: window fills are dropped (or shrunk to the
    /// headroom) so prefetch never pushes `free` below this watermark —
    /// a reader must not be able to evict a writer's working set.
    pub throttle_free: u64,
}

/// Longest the idle prefetcher stays parked between looks at the
/// shutdown flag and the crash switch.
const PREFETCH_PARK: std::time::Duration = std::time::Duration::from_millis(10);

/// Adaptive idle backoff for the DPU polling loops (service threads,
/// and the prefetcher up to the point where it parks instead): spin
/// briefly (lowest wakeup latency), then yield the core, then nap with
/// exponentially growing, bounded sleeps.
///
/// The previous policy was a cliff — 4096 busy spins, then a fixed 20 µs
/// sleep — which burned a full timeslice of CPU before ever yielding and
/// then charged every request after a brief lull the whole 20 µs. Here a
/// queue that has been idle only a moment pays at most a 1 µs nap on its
/// next request; only a long-dead queue ramps to the 50 µs ceiling, and
/// one productive poll resets it to the spin tier.
#[derive(Debug, Default)]
pub(crate) struct IdleBackoff {
    rounds: u32,
}

impl IdleBackoff {
    /// Busy-spin rounds before yielding (latency tier).
    const SPIN_ROUNDS: u32 = 64;
    /// Spin + yield rounds before the first nap (sharing tier).
    const YIELD_ROUNDS: u32 = 256;
    /// First nap length; doubles every [`Self::NAPS_PER_STEP`] naps.
    const NAP_FLOOR_US: u64 = 1;
    /// Nap ceiling — the worst-case extra wakeup latency after a long
    /// idle spell (the old cliff charged 20 µs after *any* spell).
    const NAP_CEIL_US: u64 = 50;
    /// Naps taken at each length before the length doubles.
    const NAPS_PER_STEP: u32 = 8;

    pub(crate) fn new() -> IdleBackoff {
        IdleBackoff::default()
    }

    /// A productive poll: the next idle spell starts back in the spin tier.
    pub(crate) fn reset(&mut self) {
        self.rounds = 0;
    }

    /// The nap an idle round at the current depth takes, in µs
    /// (0 = still spinning or yielding). Pure, for the unit tests.
    fn nap_us(&self) -> u64 {
        if self.rounds < Self::YIELD_ROUNDS {
            return 0;
        }
        let step = (self.rounds - Self::YIELD_ROUNDS) / Self::NAPS_PER_STEP;
        (Self::NAP_FLOOR_US << step.min(16)).min(Self::NAP_CEIL_US)
    }

    /// Still in the spin/yield tiers (the next idle round will not nap)?
    pub(crate) fn polling(&self) -> bool {
        self.nap_us() == 0
    }

    /// One empty poll: block according to the current tier and deepen.
    pub(crate) fn idle(&mut self) {
        match self.nap_us() {
            0 if self.rounds < Self::SPIN_ROUNDS => std::hint::spin_loop(),
            0 => std::thread::yield_now(),
            us => std::thread::sleep(std::time::Duration::from_micros(us)),
        }
        self.rounds = self.rounds.saturating_add(1);
    }
}

/// Shared runtime state.
pub struct RuntimeShared {
    pub shutdown: AtomicBool,
    /// Requests served across all service threads.
    pub requests_served: AtomicU64,
    /// Pages persisted by the flusher.
    pub pages_flushed: AtomicU64,
    /// Pages inserted by the background prefetcher.
    pub pages_prefetched: AtomicU64,
}

/// Handle owning the DPU threads; joins them on drop.
pub struct DpuRuntime {
    pub shared: Arc<RuntimeShared>,
    threads: Vec<JoinHandle<()>>,
}

impl DpuRuntime {
    /// Spawn one service thread per target (each with its own
    /// [`Dispatcher`]) and one flusher thread.
    pub fn spawn(
        targets: Vec<(FileTarget, Dispatcher)>,
        flusher: Option<FlusherConfig>,
        prefetcher: Option<PrefetcherConfig>,
        crash: Arc<CrashSwitch>,
    ) -> DpuRuntime {
        let shared = Arc::new(RuntimeShared {
            shutdown: AtomicBool::new(false),
            requests_served: AtomicU64::new(0),
            pages_flushed: AtomicU64::new(0),
            pages_prefetched: AtomicU64::new(0),
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
                            } else {
                                // Adaptive backoff: spin (latency), yield
                                // (share the core with sibling queues),
                                // then growing bounded naps — a long-idle
                                // queue must not burn the timeslices of
                                // the queues doing work, but a briefly
                                // idle one keeps its wakeup latency.
                                backoff.idle();
                            }
                        }
                    })
                    .expect("spawn service thread"),
            );
        }

        if let Some(mut f) = flusher {
            let shared = shared.clone();
            let crash = crash.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("dpu-flusher".into())
                    .spawn(move || {
                        // Watermark pacing with hysteresis: below the
                        // high watermark the flusher trickles (one pass,
                        // then a nap — write-back proceeds but host I/O
                        // keeps the PCIe/KV bandwidth); once the dirty
                        // ratio crosses it, passes run back-to-back until
                        // the ratio falls to the low watermark. Foreground
                        // writes then always find clean evictable pages,
                        // and fsync only waits for the residual.
                        let cache = f.control.cache().clone();
                        let mut urgent = false;
                        while !shared.shutdown.load(Ordering::Acquire) && !crash.is_tripped() {
                            let ratio = cache.dirty_ratio();
                            if ratio >= FLUSH_HIGH_WATERMARK {
                                urgent = true;
                            }
                            if ratio <= FLUSH_LOW_WATERMARK {
                                urgent = false;
                            }
                            let mut backend = KvfsFlush {
                                kvfs: &f.kvfs,
                                fault: f.fault.as_ref(),
                            };
                            let flushed = f.control.flush_extents(&mut backend, None, true);
                            shared
                                .pages_flushed
                                .fetch_add(flushed as u64, Ordering::Relaxed);
                            if flushed == 0 {
                                // Nothing flushable (clean, or every dirty
                                // page pinned by a writer): back off.
                                std::thread::sleep(std::time::Duration::from_micros(200));
                            } else if !urgent {
                                std::thread::sleep(std::time::Duration::from_micros(200));
                            }
                        }
                        // Final drain so nothing dirty is lost at shutdown.
                        // Faults stay out of the way here: pages must not
                        // be abandoned in the quarantine at tear-down.
                        // A tripped crash switch suppresses the drain — a
                        // dead DPU cannot helpfully persist its dirty set
                        // on the way out, and doing so would make every
                        // crash-recovery test vacuous.
                        if !crash.is_tripped() {
                            let mut backend = KvfsFlush {
                                kvfs: &f.kvfs,
                                fault: None,
                            };
                            let flushed = f.control.flush_extents(&mut backend, None, true);
                            shared
                                .pages_flushed
                                .fetch_add(flushed as u64, Ordering::Relaxed);
                        }
                    })
                    .expect("spawn flusher thread"),
            );
        }

        if let Some(mut p) = prefetcher {
            let shared = shared.clone();
            let crash = crash.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("dpu-prefetch".into())
                    .spawn(move || {
                        // Drain the job queue; fills are entirely off the
                        // request path (the dispatcher only plans windows
                        // and pushes jobs). `fill_window` applies the
                        // cache-pressure throttle, the no-clobber rule and
                        // the ino-epoch abort internally, so this loop is
                        // pure plumbing. Between the jobs of a live stream
                        // it polls (spin, then yield) like the service
                        // loops; once the queue has stayed empty through
                        // both tiers it parks instead of napping — a hint
                        // has no wake-up latency to protect, and a workload
                        // that never reads sequentially must not pay for a
                        // poller. `push` unparks it, `Drop` unparks it for
                        // shutdown, and the timeout bounds how long a
                        // tripped crash switch goes unnoticed.
                        let mut backoff = IdleBackoff::new();
                        while !shared.shutdown.load(Ordering::Acquire) && !crash.is_tripped() {
                            let job = if backoff.polling() {
                                p.queue.pop()
                            } else {
                                p.queue.pop_or_park(PREFETCH_PARK)
                            };
                            match job {
                                Some(job) => {
                                    backoff.reset();
                                    let mut backend = KvfsRead { kvfs: &p.kvfs };
                                    let inserted =
                                        p.control.fill_window(&job, &mut backend, p.throttle_free);
                                    shared
                                        .pages_prefetched
                                        .fetch_add(inserted as u64, Ordering::Relaxed);
                                    p.queue.done();
                                }
                                None if backoff.polling() => backoff.idle(),
                                None => {} // parked, woke to an empty queue
                            }
                        }
                        // Unqueued jobs die with the instance: prefetch is
                        // a hint, there is nothing to drain durably.
                    })
                    .expect("spawn prefetcher thread"),
            );
        }

        DpuRuntime { shared, threads }
    }

    /// Replay a scanned intent log into a freshly built cache + KVFS pair.
    ///
    /// Called by [`crate::Dpc::recover`] after a simulated DPU crash: the
    /// old log region was scanned (CRC-validated, torn tail dropped) and
    /// the surviving records arrive here in sequence order. Replay is
    /// *positional redo*: every valid record is re-applied — writes
    /// re-enter the cache as dirty pages protected by the fresh log
    /// (`log`, running under the next epoch on the same region), truncates
    /// are applied durably on the spot. Redo is idempotent, so records
    /// whose effects already reached KVFS before the crash simply
    /// overwrite with identical bytes; replaying everything in order is
    /// what makes mixed write/truncate histories come out byte-exact.
    ///
    /// After the record sweep, each touched ino is flushed and its size
    /// reconciled, so recovery hands back a *clean* client: the dirty set
    /// is durable, the fresh log is drained, and a second crash loses
    /// nothing that was acknowledged.
    ///
    /// Returns the number of records replayed.
    pub fn recover(
        cache: &Arc<HybridCache>,
        kvfs: &Arc<Kvfs>,
        dma: DmaEngine,
        log: &Arc<IntentLog>,
        scan: WalScan,
    ) -> u64 {
        log.add_torn(scan.torn);
        // Per-ino logical size, threaded through the replay: writes grow
        // it, truncates reset it, and the final per-ino truncate below
        // reconciles KVFS (whole-page flushes round sizes up).
        let mut sizes: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut replayed = 0u64;
        for rec in &scan.records {
            // The record's ino may have been unlinked between append and
            // crash (the old log's in-memory retirement died with it).
            // A missing attr means the file is gone: nothing to redo.
            let size = match sizes.entry(rec.ino) {
                std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                std::collections::hash_map::Entry::Vacant(v) => match kvfs.get_attr(rec.ino) {
                    Ok(attr) => *v.insert(attr.size),
                    Err(_) => continue,
                },
            };
            match rec.kind {
                WalKind::Write => {
                    let end = rec.offset + rec.payload.len() as u64;
                    let pages = if rec.payload.is_empty() {
                        0
                    } else {
                        ((end - 1) / PAGE_SIZE as u64 - rec.offset / PAGE_SIZE as u64 + 1) as u32
                    };
                    match log.try_append(WalKind::Write, rec.ino, rec.offset, &rec.payload, pages) {
                        Ok(seq) => {
                            // Re-insert as dirty pages under the fresh
                            // log's protection, page chunk by page chunk —
                            // the front-end protocol the adapter runs, the
                            // old bytes read from KVFS instead of over the
                            // link.
                            let mut pos = 0usize;
                            while pos < rec.payload.len() {
                                let abs = rec.offset + pos as u64;
                                let lpn = abs / PAGE_SIZE as u64;
                                let in_page = (abs % PAGE_SIZE as u64) as usize;
                                let take = (PAGE_SIZE - in_page).min(rec.payload.len() - pos);
                                let chunk = &rec.payload[pos..pos + take];
                                let absorbed = cache_write_page(
                                    cache,
                                    rec.ino,
                                    lpn,
                                    in_page,
                                    chunk,
                                    Some((log, seq)),
                                    |old| {
                                        let base = lpn * PAGE_SIZE as u64;
                                        Ok::<_, Infallible>(
                                            kvfs.read(rec.ino, base, old).unwrap_or(0),
                                        )
                                    },
                                );
                                if let Ok(Err(_full_bucket)) = absorbed {
                                    // No slot free: write through durably
                                    // — that obligation is already met.
                                    let _ = kvfs.write(rec.ino, abs, chunk);
                                    log.retire_page(seq);
                                }
                                pos += take;
                            }
                        }
                        Err(_) => {
                            // Fresh ring can't hold the record (tiny ring
                            // or oversized payload): replay durably,
                            // bypassing the cache — durable data needs no
                            // log protection.
                            let _ = kvfs.write(rec.ino, rec.offset, &rec.payload);
                        }
                    }
                    sizes.insert(rec.ino, size.max(end));
                }
                WalKind::Truncate => {
                    // Durable at apply: no fresh record needed (recovery
                    // itself is atomic in the simulation).
                    let _ = kvfs.truncate(rec.ino, rec.offset);
                    if rec.offset < size {
                        // Drop replayed cache pages past the new end and
                        // clip the boundary page, exactly as the adapter's
                        // truncate does — a later flush must not
                        // resurrect clipped bytes.
                        let first = rec.offset.div_ceil(PAGE_SIZE as u64);
                        let last = size.div_ceil(PAGE_SIZE as u64);
                        for lpn in first..=last {
                            cache.invalidate(rec.ino, lpn);
                        }
                        let tail = (rec.offset % PAGE_SIZE as u64) as usize;
                        if tail != 0 {
                            if let Ok(mut g) =
                                cache.begin_write(rec.ino, rec.offset / PAGE_SIZE as u64)
                            {
                                if g.claimed_free() {
                                    drop(g);
                                } else {
                                    g.set_valid(tail);
                                    g.commit_dirty();
                                }
                            }
                        }
                    }
                    sizes.insert(rec.ino, rec.offset);
                }
                WalKind::Checkpoint => continue,
            }
            replayed += 1;
        }
        log.add_replayed(replayed);

        // Drain what replay re-dirtied: flush every touched ino, then
        // reconcile its logical size (whole-page flushes round up). The
        // per-page durable hook retires the fresh records as they land,
        // so a fully replayed + flushed log reads as drained.
        let mut control = ControlPlane::new(cache.clone(), dma);
        let mut backend = KvfsFlush { kvfs, fault: None };
        while control.flush_extents(&mut backend, None, false) > 0 {}
        let mut inos: Vec<(u64, u64)> = sizes.into_iter().collect();
        inos.sort_unstable();
        for (ino, size) in inos {
            let _ = kvfs.truncate(ino, size);
        }
        replayed
    }

    pub fn requests_served(&self) -> u64 {
        self.shared.requests_served.load(Ordering::Relaxed)
    }

    pub fn pages_flushed(&self) -> u64 {
        self.shared.pages_flushed.load(Ordering::Relaxed)
    }

    pub fn pages_prefetched(&self) -> u64 {
        self.shared.pages_prefetched.load(Ordering::Relaxed)
    }
}

impl Drop for DpuRuntime {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            // The prefetcher may be parked on its empty queue.
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::IdleBackoff;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn backoff_tiers_progress_and_stay_bounded() {
        let mut b = IdleBackoff::new();
        // The spin and yield tiers never sleep.
        for _ in 0..IdleBackoff::YIELD_ROUNDS {
            assert_eq!(b.nap_us(), 0);
            b.rounds += 1;
        }
        // Naps grow monotonically from the floor to the ceiling and cap
        // there — no overflow, no cliff past the cap.
        let mut last = 0u64;
        for _ in 0..100_000 {
            let us = b.nap_us();
            assert!(us >= last, "naps must not shrink while idle");
            assert!(us <= IdleBackoff::NAP_CEIL_US, "nap exceeds ceiling");
            last = us;
            b.rounds = b.rounds.saturating_add(1);
        }
        assert_eq!(last, IdleBackoff::NAP_CEIL_US);
        // First nap after the yield tier is the 1 µs floor — the old
        // policy charged 20 µs after any idle spell.
        let fresh = IdleBackoff {
            rounds: IdleBackoff::YIELD_ROUNDS,
        };
        assert_eq!(fresh.nap_us(), IdleBackoff::NAP_FLOOR_US);
    }

    #[test]
    fn backoff_resets_to_spin_tier_after_work() {
        let mut b = IdleBackoff::new();
        b.rounds = 1_000_000;
        assert_eq!(b.nap_us(), IdleBackoff::NAP_CEIL_US);
        b.reset();
        assert_eq!(b.nap_us(), 0, "a productive poll must re-arm spinning");
    }

    #[test]
    fn wakeup_latency_after_short_idle_spell_is_low() {
        // A poller that has idled briefly (past the spin tier, into
        // yields) must notice new work quickly: the adaptive policy is
        // still nap-free there, so the wakeup is scheduler-bounded. The
        // assert is deliberately generous (CI schedulers jitter) — the
        // regression it guards against is a fixed multi-ms sleep cliff.
        let flag = Arc::new(AtomicBool::new(false));
        let poller = {
            let flag = flag.clone();
            std::thread::spawn(move || {
                let mut b = IdleBackoff::new();
                // Pre-idle past the spin tier but short of the nap tier.
                for _ in 0..IdleBackoff::SPIN_ROUNDS + 32 {
                    b.idle();
                }
                while !flag.load(Ordering::Acquire) {
                    b.idle();
                }
                std::time::Instant::now()
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(2));
        let set_at = std::time::Instant::now();
        flag.store(true, Ordering::Release);
        let woke_at = poller.join().expect("poller thread");
        let latency = woke_at.duration_since(set_at);
        assert!(
            latency < std::time::Duration::from_millis(50),
            "wakeup took {latency:?}"
        );
    }

    #[test]
    fn wakeup_latency_after_long_idle_spell_is_nap_bounded() {
        // Even a deeply idle poller wakes within a few nap ceilings.
        let flag = Arc::new(AtomicBool::new(false));
        let poller = {
            let flag = flag.clone();
            std::thread::spawn(move || {
                let mut b = IdleBackoff {
                    rounds: 1_000_000, // parked at the nap ceiling
                };
                while !flag.load(Ordering::Acquire) {
                    b.idle();
                }
                std::time::Instant::now()
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(2));
        let set_at = std::time::Instant::now();
        flag.store(true, Ordering::Release);
        let woke_at = poller.join().expect("poller thread");
        let latency = woke_at.duration_since(set_at);
        // Ceiling is 50 µs; 50 ms allows for three orders of scheduler
        // noise while still catching any return to unbounded sleeps.
        assert!(
            latency < std::time::Duration::from_millis(50),
            "wakeup took {latency:?}"
        );
    }
}
