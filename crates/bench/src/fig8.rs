//! **Figure 8** — contribution of caching to random/sequential IOPS:
//! direct vs buffered for both local Ext4 (kernel page cache) and KVFS
//! (the hybrid cache), plus the sequential-read prefetch result the paper
//! quotes: "boosting read IOPS by 100× with a single thread and 3× with
//! 32 threads".
//!
//! Model:
//! - *direct* numbers come from the Fig 7 paths (same DES);
//! - *buffered random* ops run a hit/miss mixture: hits cost only the
//!   host fast path (VFS + cache probe + page copy); misses pay the full
//!   direct path plus the cache fill. The experiment uses a working set
//!   4× the cache, i.e. a 25% hit rate — enough to show the benefit
//!   without hiding the backend;
//! - *buffered writes* are absorbed by the cache's host-resident data
//!   plane; the DPU flusher drains them off the critical path
//!   (working set fits the cache, so re-dirtied pages coalesce);
//! - *buffered sequential read* throughput is the foreground hit path
//!   gated by the DPU prefetcher's delivery capacity — a fraction of the
//!   disaggregated cluster's streaming bandwidth (prefetch over-fetch and
//!   per-page insert overhead cost ~28%).

use crate::link::Link;
use crate::Testbed;
use dpc_sim::{Nanos, Plan, Simulation, StationCfg, StationId};

use crate::fig7::{self, System, SSD_RAND_READ_SERVERS};
use crate::table::{fmt_iops, Table};

/// Host fast path for a cache hit — the *entire* cached-read op: light
/// syscall entry + meta probe/lock + 8K copy (fio reads served from a
/// page cache run at this class of cost, ~770K IOPS single-thread).
const HIT_COST: Nanos = Nanos(1_300);
/// Buffered-write absorb cost: VFS + entry lock + 8K copy + dirty mark.
const ABSORB_COST: Nanos = Nanos(2_300);
/// Random-workload hit rate (working set = 4× cache).
const RAND_HIT_PCT: u64 = 25;
/// Fraction of the cluster's streaming bandwidth the prefetch pipeline
/// delivers to the host cache (over-fetch + per-page insert overhead).
const PREFETCH_EFFICIENCY: f64 = 0.72;

struct St {
    host: StationId,
    ssd_r: StationId,
    link: Link,
    dpu: StationId,
    nic: StationId,
    kv: StationId,
}

fn build(tb: &Testbed) -> (Simulation, St) {
    let mut sim = Simulation::new();
    let st = St {
        host: sim.add_station(StationCfg::new("host-cpu", tb.host.threads)),
        ssd_r: sim.add_station(StationCfg::new("ssd-rand-read", SSD_RAND_READ_SERVERS)),
        link: Link::new(&mut sim, tb.pcie),
        dpu: sim.add_station(StationCfg::new("dpu-cores", tb.dpu.cores)),
        nic: sim.add_station(StationCfg::new("storage-nic", 1)),
        kv: sim.add_station(StationCfg::new("kv-backend", tb.kv.servers)),
    };
    (sim, st)
}

fn miss_legs_kvfs(tb: &Testbed, st: &St, plan: &mut Plan) {
    let c = &tb.costs;
    st.link.submit(0, plan);
    plan.service(st.dpu, c.dpu_request + c.kvfs_request);
    plan.delay(tb.kv.network.rtt);
    plan.service(
        st.nic,
        Nanos::for_transfer(8192 + 128, tb.kv.network.bandwidth_bytes_per_sec),
    );
    plan.service(st.kv, tb.kv.random_read_service);
    st.link.complete(8192, plan);
}

fn miss_legs_ext4(tb: &Testbed, st: &St, plan: &mut Plan) {
    plan.service(st.ssd_r, tb.ssd.read_time(8192));
}

/// Buffered 8K random-read IOPS (hit/miss mixture) for either system.
pub fn buffered_rand_read(tb: &Testbed, system: System, threads: usize) -> f64 {
    let (mut sim, st) = build(tb);
    let tb2 = *tb;
    let mut flow = move |_c: usize, cycle: u64, _now: Nanos, plan: &mut Plan| {
        let c = &tb2.costs;
        // Deterministic 25% hit pattern.
        let hit = cycle.wrapping_mul(0x9E3779B97F4A7C15) % 100 < RAND_HIT_PCT;
        plan.service(st.host, HIT_COST);
        if !hit {
            plan.service(st.host, c.host_syscall);
            match system {
                System::Kvfs => miss_legs_kvfs(&tb2, &st, plan),
                System::Ext4 => miss_legs_ext4(&tb2, &st, plan),
            }
            plan.service(st.host, c.host_complete);
        }
    };
    sim.run(
        &mut flow,
        threads,
        Nanos::from_millis(5.0),
        Nanos::from_millis(40.0),
    )
    .total_throughput()
}

/// Buffered 8K random-write IOPS: the cache absorbs writes on the host;
/// the flusher drains coalesced pages in the background (modelled as
/// background customers so they contend for the DPU/backend but not for
/// the application's critical path).
pub fn buffered_rand_write(tb: &Testbed, system: System, threads: usize) -> f64 {
    let (mut sim, st) = build(tb);
    let tb2 = *tb;
    // One background flusher pipeline per 8 foreground threads.
    let flushers = (threads / 8).max(1);
    let total = threads + flushers;
    let mut flow = move |cust: usize, _cy: u64, _now: Nanos, plan: &mut Plan| {
        let c = &tb2.costs;
        if cust < threads {
            // Foreground: absorb into the (host-resident) cache.
            plan.service(st.host, c.host_syscall + ABSORB_COST);
            match system {
                // Ext4's page cache is also host-managed, but its
                // management (LRU, write-back scheduling) burns extra
                // host CPU; the hybrid cache pushed that to the DPU.
                System::Ext4 => plan.service(st.host, c.ext4_page_cpu * 2),
                System::Kvfs => {}
            }
        } else {
            // Background flusher: drain one 128K chunk of coalesced pages.
            plan.background = true;
            match system {
                System::Kvfs => {
                    plan.service(st.dpu, c.dpu_request);
                    plan.delay(tb2.kv.network.rtt);
                    plan.service(
                        st.nic,
                        Nanos::for_transfer(128 * 1024, tb2.kv.network.bandwidth_bytes_per_sec),
                    );
                    plan.service(st.kv, tb2.kv.random_write_service);
                }
                System::Ext4 => {
                    plan.service(st.host, c.ext4_page_cpu * 32); // host write-back
                    plan.service(st.ssd_r, tb2.ssd.write_time(128 * 1024));
                }
            }
        }
    };
    sim.run(
        &mut flow,
        total,
        Nanos::from_millis(5.0),
        Nanos::from_millis(40.0),
    )
    .total_throughput()
}

/// Buffered sequential-read IOPS with the DPU prefetcher: the host fast
/// path gated by the prefetch pipeline's delivery capacity.
pub fn buffered_seq_read(tb: &Testbed, threads: usize) -> f64 {
    let hit_path = threads as f64 / HIT_COST.as_secs();
    let delivery = PREFETCH_EFFICIENCY * tb.kv.stream_read_bw / 8192.0;
    hit_path.min(delivery)
}

/// Direct sequential-read IOPS baseline (no cache, no prefetch): same
/// per-op path as a random read — the backend sees 8K gets either way.
pub fn direct_seq_read(tb: &Testbed, threads: usize) -> f64 {
    fig7::run_point(tb, System::Kvfs, true, threads).iops
}

pub fn run(tb: &Testbed) -> Vec<Table> {
    let mut t = Table::new(
        "Fig 8: contribution of caching to random IOPS (32 threads)",
        &["workload", "direct", "buffered", "boost"],
    );
    let dr_e = fig7::run_point(tb, System::Ext4, true, 32).iops;
    let br_e = buffered_rand_read(tb, System::Ext4, 32);
    let dr_k = fig7::run_point(tb, System::Kvfs, true, 32).iops;
    let br_k = buffered_rand_read(tb, System::Kvfs, 32);
    let dw_e = fig7::run_point(tb, System::Ext4, false, 32).iops;
    let bw_e = buffered_rand_write(tb, System::Ext4, 32);
    let dw_k = fig7::run_point(tb, System::Kvfs, false, 32).iops;
    let bw_k = buffered_rand_write(tb, System::Kvfs, 32);
    for (label, d, b) in [
        ("ext4 8K rnd read", dr_e, br_e),
        ("kvfs 8K rnd read", dr_k, br_k),
        ("ext4 8K rnd write", dw_e, bw_e),
        ("kvfs 8K rnd write", dw_k, bw_k),
    ] {
        t.row(vec![
            label.into(),
            fmt_iops(d),
            fmt_iops(b),
            format!("{:.1}x", b / d),
        ]);
    }
    t.note("paper: both Ext4 and KVFS benefit from their local caches (25% hit working set here)");

    let mut p = Table::new(
        "Fig 8: KVFS sequential-read prefetch boost",
        &["threads", "direct", "buffered+prefetch", "boost", "paper"],
    );
    for (threads, paper) in [(1usize, "100x"), (32, "3x")] {
        let d = direct_seq_read(tb, threads);
        let b = buffered_seq_read(tb, threads);
        p.row(vec![
            threads.to_string(),
            fmt_iops(d),
            fmt_iops(b),
            format!("{:.0}x", b / d),
            paper.into(),
        ]);
    }
    p.note("paper: \"boosting read IOPS by 100x with a single thread and 3x with 32 threads\"");
    vec![t, p]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tb() -> Testbed {
        Testbed::default()
    }

    #[test]
    fn a_kvfs_miss_crosses_the_link_once() {
        let t = tb();
        let (_sim, st) = build(&t);
        let mut plan = Plan::default();
        miss_legs_kvfs(&t, &st, &mut plan);
        st.link.assert_crosses_once(&plan, st.dpu, 0, 8192);
    }

    #[test]
    fn buffered_beats_direct_for_random_io() {
        let t = tb();
        for system in [System::Ext4, System::Kvfs] {
            let d = fig7::run_point(&t, system, true, 32).iops;
            let b = buffered_rand_read(&t, system, 32);
            assert!(b > d, "{system:?} read: buffered {b} <= direct {d}");
            let dw = fig7::run_point(&t, system, false, 32).iops;
            let bw = buffered_rand_write(&t, system, 32);
            assert!(bw > dw, "{system:?} write: buffered {bw} <= direct {dw}");
        }
    }

    #[test]
    fn prefetch_boost_is_about_100x_at_one_thread() {
        let t = tb();
        let d = direct_seq_read(&t, 1);
        let b = buffered_seq_read(&t, 1);
        let boost = b / d;
        assert!(
            (60.0..160.0).contains(&boost),
            "boost {boost} vs paper 100x"
        );
    }

    #[test]
    fn prefetch_boost_is_about_3x_at_32_threads() {
        let t = tb();
        let d = direct_seq_read(&t, 32);
        let b = buffered_seq_read(&t, 32);
        let boost = b / d;
        assert!((2.0..4.5).contains(&boost), "boost {boost} vs paper 3x");
    }

    #[test]
    fn hybrid_cache_buffered_write_uses_less_host_cpu_than_page_cache() {
        // Not an IOPS claim: the hybrid cache's win on buffered writes is
        // that management moved to the DPU. Absorb costs are equal; Ext4
        // pays extra page-cache management on the host.
        let t = tb();
        let e = buffered_rand_write(&t, System::Ext4, 32);
        let k = buffered_rand_write(&t, System::Kvfs, 32);
        // KVFS absorbs at least as fast (no host-side management tax).
        assert!(k >= e * 0.95, "kvfs {k} vs ext4 {e}");
    }
}
