//! Who waits on the link, on what event, and what wakes it (DESIGN.md §5.4).
//!
//! A host waiter checks, polls and yields; a DPU service thread yields
//! through a short live-stream tier and then sleeps on its queue's SQ
//! doorbell; the prefetcher sleeps on its job queue. Nothing spins and
//! nothing naps on a timer: a closed-loop stream never puts the service
//! thread to sleep, and an idle instance is woken by work — not more
//! often than the 10 ms flag re-check otherwise.
//!
//! Every test here is about scheduling, so they run one at a time
//! ([`serial`]): a sibling test's threads must not be what an "idle"
//! instance is measured against.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use dpc::core::{Dpc, DpcConfig};
use dpc::nvmefs::RetryPolicy;

fn serial() -> MutexGuard<'static, ()> {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// Long enough for every DPU thread to leave its yield tier and sleep.
const IDLE: Duration = Duration::from_millis(50);
/// Sleeps one thread may start inside [`IDLE`] when nothing wakes it but
/// the 10 ms flag re-check (5, plus slack for a late timer).
const PARKS_PER_IDLE: u64 = 8;

#[test]
fn a_closed_loop_stream_never_parks_the_service_thread() {
    const CALLS: u64 = 10_000;
    let _one = serial();
    let dpc = Dpc::new(DpcConfig {
        queues: 1,
        ..DpcConfig::default()
    });
    let fs = dpc.fs();
    // `readlink` crosses every time: the host caches no link target.
    fs.symlink("/l", "/d").unwrap();
    // The first call of the stream may find the thread asleep; none after.
    fs.readlink("/l").unwrap();
    let before = dpc.metrics();
    let preempted_before = preemptions();
    for _ in 0..CALLS {
        fs.readlink("/l").unwrap();
    }
    let preempted = preemptions() - preempted_before;
    let after = dpc.metrics();
    assert_eq!(after.requests_served - before.requests_served, CALLS);
    let parks = after.svc_parks - before.svc_parks;
    let wakes = after.doorbell_wakes - before.doorbell_wakes;
    // Sharing the caller's core (`taskset -c 0`, as CI runs this), an idle
    // round passes only when the scheduler has gone round: the count is
    // exact. On a core of its own the tier is ≈ 80 µs of yields, and each
    // time another task takes the host thread's core for longer than that
    // mid-stream, the service thread parks once: such stalls come at a
    // rate per second, not per call, so they are counted, not assumed
    // away (a debug stream lasts ≈ 7× a release one; one on a busy 2-vCPU
    // box read 321 parks). A park per command would read `CALLS`.
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    if cores == 1 {
        assert_eq!((parks, wakes), (0, 0), "parked mid-stream");
    } else {
        assert!(
            parks.max(wakes) <= CALLS / 100 + preempted,
            "{parks} parks, {wakes} wakes, the host preempted {preempted} times"
        );
    }
}

/// Times the calling thread has been taken off its core while it could
/// still run (`nonvoluntary_ctxt_switches`); 0 where procfs does not say.
/// Where the service thread shares that core, every hand-off counts too.
fn preemptions() -> u64 {
    let status = std::fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix("nonvoluntary_ctxt_switches:")?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

#[test]
fn an_idle_instance_sleeps_until_a_call_wakes_it() {
    let _one = serial();
    let dpc = Dpc::new(DpcConfig::default());
    let queues = dpc.queue_count() as u64;
    let fs = dpc.fs();
    fs.mkdir("/d").unwrap();

    std::thread::sleep(IDLE);
    let asleep = dpc.metrics();
    assert!(asleep.svc_parks >= queues, "{asleep:?}");

    // Nothing rings: nobody is woken, and the flag
    // re-check is the only reason a thread runs at all.
    std::thread::sleep(IDLE);
    let idle = dpc.metrics();
    assert_eq!(idle.doorbell_wakes, asleep.doorbell_wakes);
    assert!(idle.svc_parks - asleep.svc_parks <= queues * PARKS_PER_IDLE);
    assert_eq!(idle.requests_served, asleep.requests_served);

    // The doorbell write is the wake-up.
    let start = Instant::now();
    fs.stat("/d").unwrap();
    let latency = start.elapsed();
    assert!(latency < Duration::from_millis(50), "woke in {latency:?}");
    let woken = dpc.metrics();
    assert_eq!(woken.requests_served, idle.requests_served + 1);
    assert!(woken.doorbell_wakes <= idle.doorbell_wakes + 1);
}

/// `(thread name, timeslices it has run)` of this process's `dpu-*`
/// threads — the scheduler's own count of how often each was woken.
#[cfg(target_os = "linux")]
fn dpu_timeslices() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = task.expect("task entry").path();
        let Ok(name) = std::fs::read_to_string(dir.join("comm")) else {
            continue; // the thread exited under us
        };
        let Ok(stat) = std::fs::read_to_string(dir.join("schedstat")) else {
            continue;
        };
        let slices = stat.split_whitespace().nth(2).and_then(|n| n.parse().ok());
        if let (true, Some(slices)) = (name.starts_with("dpu-"), slices) {
            out.push((name.trim().to_string(), slices));
        }
    }
    out.sort();
    out
}

#[cfg(target_os = "linux")]
#[test]
fn no_idle_dpu_thread_runs_more_often_than_its_park_expires() {
    let _one = serial();
    let dpc = Dpc::new(DpcConfig::default());
    dpc.fs().mkdir("/d").unwrap();
    std::thread::sleep(IDLE);
    let before = dpu_timeslices();
    // Two service threads and the prefetcher.
    assert_eq!(before.len(), dpc.queue_count() + 1, "{before:?}");
    std::thread::sleep(IDLE);
    let after = dpu_timeslices();
    for ((name, was), (_, now)) in before.iter().zip(&after) {
        // A 50 µs nap tier would read ≈ 1000 here, a 200 µs one ≈ 250.
        assert!(now - was <= PARKS_PER_IDLE, "{name}: {was} -> {now}");
    }
}

#[test]
fn drop_with_every_dpu_thread_asleep_returns_promptly() {
    let _one = serial();
    let dpc = Dpc::new(DpcConfig::default());
    dpc.fs().mkdir("/d").unwrap();
    std::thread::sleep(IDLE);
    assert!(dpc.metrics().svc_parks >= dpc.queue_count() as u64);
    let start = Instant::now();
    drop(dpc);
    let took = start.elapsed();
    assert!(took < Duration::from_millis(50), "drop took {took:?}");
}

#[test]
fn a_crash_tripped_on_an_idle_instance_times_the_next_call_out() {
    let _one = serial();
    let dpc = Dpc::new(DpcConfig {
        retry: RetryPolicy {
            attempts: 2,
            deadline_yields: 20_000,
            backoff_base_us: 0,
            ..RetryPolicy::default()
        },
        ..DpcConfig::default()
    });
    let fs = dpc.fs();
    fs.mkdir("/d").unwrap();
    std::thread::sleep(IDLE);
    assert!(dpc.metrics().svc_parks >= dpc.queue_count() as u64);

    // The dead DPU's threads are asleep on their doorbells: the next ring
    // must not raise one to serve a last command.
    dpc.trip_crash();
    let served = dpc.requests_served();
    assert_eq!(fs.stat("/d").unwrap_err().errno(), 110);
    assert_eq!(dpc.requests_served(), served);
    assert!(dpc.metrics().recovery.link_timeouts >= 1);
}
