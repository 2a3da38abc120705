//! One sleeping consumer, woken by the store that gives it work.
//!
//! A DPU service thread with nothing posted on its queue must not burn a
//! core polling the doorbell register, and must not nap on a timer either:
//! it sleeps, and the host's doorbell write wakes it (on a real device the
//! register write raises an event on the queue's handler; here it unparks
//! the thread). The hazard is the classic lost wake-up — the doorbell
//! rings after the consumer last looked and before it sleeps — and the
//! cure is the classic store-then-load handshake on both sides:
//!
//! ```text
//! consumer: asleep = true ; re-read the work word ; park
//! producer: store the work word ; read asleep ; unpark
//! ```
//!
//! Every access is `SeqCst`, so the four sit in one total order: either
//! the consumer's re-read sees the producer's store (it does not sleep), or
//! the producer's read sees `asleep` (it unparks — and an unpark delivered
//! before the park makes that park return at once). **The contract that
//! makes this hold is the callers':** the producer publishes its work with
//! a `SeqCst` store or read-modify-write *before* calling [`Sleeper::wake`],
//! and the consumer's `pending` check reads that word with a `SeqCst` load.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread::Thread;
use std::time::Duration;

use parking_lot::Mutex;

/// The sleeper word and handle of one consumer thread (see module docs).
#[derive(Default)]
pub struct Sleeper {
    asleep: AtomicBool,
    /// The consumer, registered before `asleep` is published. Locked only
    /// on the sleep and wake slow paths, never by a producer that finds
    /// nobody asleep.
    thread: Mutex<Option<Thread>>,
    wakes: AtomicU64,
}

impl Sleeper {
    pub fn new() -> Sleeper {
        Sleeper::default()
    }

    /// Consumer side: sleep until [`wake`](Sleeper::wake), an `unpark` from
    /// elsewhere (shutdown), or `timeout` — unless `pending` (evaluated
    /// after this sleeper is published as asleep) says there is work
    /// already. Returns whether the thread slept. A `true` says nothing
    /// about why it woke: the caller re-checks its work and exit
    /// conditions and calls again.
    pub fn sleep_unless(&self, timeout: Duration, pending: impl FnOnce() -> bool) -> bool {
        *self.thread.lock() = Some(std::thread::current());
        self.asleep.store(true, Ordering::SeqCst);
        let sleep = !pending();
        if sleep {
            std::thread::park_timeout(timeout);
        }
        self.asleep.store(false, Ordering::SeqCst);
        sleep
    }

    /// Producer side, called after the work is published: wake the
    /// consumer if it is (about to be) asleep. One load when it is not.
    pub fn wake(&self) {
        if self.asleep.load(Ordering::SeqCst) && self.asleep.swap(false, Ordering::SeqCst) {
            self.wakes.fetch_add(1, Ordering::Relaxed);
            if let Some(consumer) = self.thread.lock().as_ref() {
                consumer.unpark();
            }
        }
    }

    /// Wake-ups delivered so far (producers that found the consumer asleep).
    pub fn wakes(&self) -> u64 {
        self.wakes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;
    use std::time::Instant;

    const FOREVER: Duration = Duration::from_secs(3600);

    #[test]
    fn pending_work_is_not_slept_on_and_costs_no_wake() {
        let s = Sleeper::new();
        s.wake();
        assert_eq!(s.wakes(), 0, "nobody asleep: nothing to wake");
        assert!(!s.sleep_unless(FOREVER, || true));
        s.wake();
        assert_eq!(s.wakes(), 0, "it stood down before returning");
    }

    #[test]
    fn a_wake_between_the_check_and_the_park_is_not_lost() {
        // The producer rings after the consumer published `asleep` and
        // looked (finding nothing) but before it parks: the park must
        // return at once, not after the hour.
        let s = Sleeper::new();
        let start = Instant::now();
        let slept = s.sleep_unless(FOREVER, || {
            s.wake();
            false
        });
        assert!(slept);
        assert_eq!(s.wakes(), 1);
        assert!(start.elapsed() < Duration::from_secs(60));
    }

    #[test]
    fn a_sleeping_consumer_is_woken_by_the_publishing_store() {
        let s = Arc::new(Sleeper::new());
        let work = Arc::new(AtomicU32::new(0));
        let consumer = {
            let (s, work) = (s.clone(), work.clone());
            std::thread::spawn(move || {
                // `park_timeout` may return spuriously: ask again.
                while work.load(Ordering::SeqCst) == 0 {
                    s.sleep_unless(FOREVER, || work.load(Ordering::SeqCst) != 0);
                }
            })
        };
        // The consumer has published itself asleep. Whether its check runs
        // before or after this store, and whether it has parked yet or
        // not, it must come back.
        while !s.asleep.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        work.store(1, Ordering::SeqCst);
        s.wake();
        consumer.join().expect("consumer thread");
        assert!(s.wakes() <= 1);
    }

    #[test]
    fn timeout_bounds_a_sleep_nobody_wakes() {
        let s = Sleeper::new();
        assert!(s.sleep_unless(Duration::from_millis(1), || false));
        s.wake();
        assert_eq!(s.wakes(), 0);
    }
}
