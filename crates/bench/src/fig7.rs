//! **Figure 7** — standalone file performance: local Ext4 vs KVFS,
//! 8 KiB random read/write with direct I/O, 1–256 threads: latency (a),
//! IOPS (b) and host CPU usage (c).
//!
//! Paper anchors: Ext4 wins at ≤32 threads; KVFS wins at ≥64; Ext4's
//! IOPS pin to the single NVMe SSD past 32 threads while KVFS scales to
//! 128 threads where the *DPU's* CPU saturates; at 256 threads Ext4 is at
//! 779/1009 µs R/W and >90% host CPU, KVFS at 363/410 µs and <20% host
//! CPU, saving 86%/65% CPU for reads/writes at high concurrency.
//!
//! Model notes (fig-local constants below):
//! - Ext4's host CPU per op includes a per-runnable-thread scheduling/
//!   context-switch term — this is what blows up its CPU usage at 256
//!   sync-I/O threads, exactly the "huge amount of host CPU cycles" the
//!   paper reports;
//! - the single SSD's random-read parallelism and sustained random-write
//!   capacity are calibrated to land the 779/1009 µs saturation
//!   latencies;
//! - KVFS's per-op DPU work (`dpu_request + kvfs_request`) makes the
//!   24-core DPU the binding resource around 700 K IOPS — matching the
//!   paper's "CPU usage of DPU reaches 100% [at 128 threads]".

use crate::link::Link;
use crate::Testbed;
use dpc_sim::{Nanos, Plan, Simulation, StationCfg, StationId};

use crate::table::{fmt_iops, fmt_pct, fmt_us, Table};

/// Random-read parallelism of the local SSD (deeper than the write path:
/// reads hit many dies concurrently).
pub(crate) const SSD_RAND_READ_SERVERS: usize = 28;
/// Sustained random-write capacity: 8 write-back units at 30 µs each
/// (≈267 K IOPS sustained — the SLC-cache/GC-limited steady state).
const SSD_RAND_WRITE_SERVERS: usize = 8;
const SSD_RAND_WRITE_SERVICE: Nanos = Nanos(30_000);
/// Ext4 per-runnable-thread scheduler tax per op.
const EXT4_SCHED_PER_THREAD: Nanos = Nanos(500);
/// KVFS host-side per-thread tax (threads mostly sleep on the DPU).
const KVFS_SCHED_PER_THREAD: Nanos = Nanos(30);

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum System {
    Ext4,
    Kvfs,
}

/// One measured sweep point.
#[derive(Copy, Clone, Debug)]
pub struct Fig7Point {
    pub system: System,
    pub is_read: bool,
    pub threads: usize,
    pub iops: f64,
    pub mean_latency: Nanos,
    /// Host CPU utilisation in `[0,1]` (fraction of the 52 hw threads busy).
    pub host_cpu: f64,
    /// DPU utilisation in `[0,1]` (KVFS only; 0 for Ext4).
    pub dpu_cpu: f64,
}

struct St {
    host: StationId,
    ssd_r: StationId,
    ssd_w: StationId,
    link: Link,
    dpu: StationId,
    net: StationId,
    kv: StationId,
}

fn build(tb: &Testbed) -> (Simulation, St) {
    let mut sim = Simulation::new();
    let st = St {
        host: sim.add_station(StationCfg::new("host-cpu", tb.host.threads)),
        ssd_r: sim.add_station(StationCfg::new("ssd-rand-read", SSD_RAND_READ_SERVERS)),
        ssd_w: sim.add_station(StationCfg::new("ssd-rand-write", SSD_RAND_WRITE_SERVERS)),
        link: Link::new(&mut sim, tb.pcie),
        // KVFS runs a fixed DPU worker pool (one service loop per queue),
        // so host-thread counts beyond the pool queue in nvme-fs rather
        // than oversubscribing DPU cores — no scheduling penalty here
        // (unlike Fig 6's thread-per-queue raw test).
        dpu: sim.add_station(StationCfg::new("dpu-cores", tb.dpu.cores)),
        net: sim.add_station(StationCfg::new("storage-net", 1)),
        kv: sim.add_station(StationCfg::new("kv-backend", tb.kv.servers)),
    };
    (sim, st)
}

/// One 8 KiB DIO op on local Ext4.
fn plan_ext4(tb: &Testbed, st: &St, threads: usize, is_read: bool, plan: &mut Plan) {
    let c = &tb.costs;
    // Syscall + block layer + 2 pages of fs work + scheduler tax.
    let cpu = c.ext4_request_cpu
        + c.ext4_page_cpu * 2
        + Nanos(EXT4_SCHED_PER_THREAD.as_nanos() * threads as u64);
    plan.service(st.host, cpu);
    if is_read {
        plan.service(st.ssd_r, tb.ssd.read_time(8192));
    } else {
        plan.service(st.ssd_w, SSD_RAND_WRITE_SERVICE);
    }
    plan.service(st.host, c.host_complete);
}

/// One 8 KiB DIO op on KVFS (full DPC path: nvme-fs → DPU → KV backend).
fn plan_kvfs(tb: &Testbed, st: &St, threads: usize, is_read: bool, plan: &mut Plan) {
    let c = &tb.costs;
    let host_cpu =
        c.host_syscall + c.fs_adapter + Nanos(KVFS_SCHED_PER_THREAD.as_nanos() * threads as u64);
    let (write, read) = if is_read { (0, 8192) } else { (8192, 0) };
    plan.service(st.host, host_cpu);
    st.link.submit(write, plan);
    // DPU: dispatch + KVFS request processing.
    let dpu = if is_read {
        c.dpu_request + c.kvfs_request
    } else {
        c.dpu_request + c.kvfs_request + c.dpu_write_extra
    };
    plan.service(st.dpu, dpu);
    // Fabric to the disaggregated KV store: the RTT is pure latency, the
    // payload serialisation occupies the (fast) storage NIC.
    plan.delay(tb.kv.network.rtt);
    plan.service(
        st.net,
        Nanos::for_transfer(8192 + 128, tb.kv.network.bandwidth_bytes_per_sec),
    );
    plan.service(
        st.kv,
        if is_read {
            tb.kv.random_read_service
        } else {
            tb.kv.random_write_service
        },
    );
    st.link.complete(read, plan);
    plan.service(st.host, c.host_complete);
}

pub fn run_point(tb: &Testbed, system: System, is_read: bool, threads: usize) -> Fig7Point {
    let (mut sim, st) = build(tb);
    let tb2 = *tb;
    let mut flow = move |_c: usize, _cy: u64, _now: Nanos, plan: &mut Plan| match system {
        System::Ext4 => plan_ext4(&tb2, &st, threads, is_read, plan),
        System::Kvfs => plan_kvfs(&tb2, &st, threads, is_read, plan),
    };
    let report = sim.run(
        &mut flow,
        threads,
        Nanos::from_millis(5.0),
        Nanos::from_millis(40.0),
    );
    let c = report.class(0).unwrap();
    Fig7Point {
        system,
        is_read,
        threads,
        iops: c.throughput,
        mean_latency: c.latency.mean(),
        host_cpu: report.busy_cores("host-cpu") / tb.host.threads as f64,
        dpu_cpu: report.busy_cores("dpu-cores") / tb.dpu.cores as f64,
    }
}

pub fn run(tb: &Testbed) -> (Vec<Table>, Vec<Fig7Point>) {
    let threads = [1usize, 2, 4, 8, 16, 32, 64, 128, 256];
    let mut points = Vec::new();

    let mut lat = Table::new(
        "Fig 7 (a): 8K random latency, DIO (mean us)",
        &["threads", "ext4 rd", "kvfs rd", "ext4 wr", "kvfs wr"],
    );
    let mut iops = Table::new(
        "Fig 7 (b): 8K random IOPS, DIO",
        &["threads", "ext4 rd", "kvfs rd", "ext4 wr", "kvfs wr"],
    );
    let mut cpu = Table::new(
        "Fig 7 (c): host CPU usage (and KVFS's DPU usage)",
        &[
            "threads",
            "ext4 rd",
            "kvfs rd",
            "kvfs rd DPU",
            "ext4 wr",
            "kvfs wr",
            "kvfs wr DPU",
        ],
    );

    for &t in &threads {
        let er = run_point(tb, System::Ext4, true, t);
        let kr = run_point(tb, System::Kvfs, true, t);
        let ew = run_point(tb, System::Ext4, false, t);
        let kw = run_point(tb, System::Kvfs, false, t);
        lat.row(vec![
            t.to_string(),
            fmt_us(er.mean_latency),
            fmt_us(kr.mean_latency),
            fmt_us(ew.mean_latency),
            fmt_us(kw.mean_latency),
        ]);
        iops.row(vec![
            t.to_string(),
            fmt_iops(er.iops),
            fmt_iops(kr.iops),
            fmt_iops(ew.iops),
            fmt_iops(kw.iops),
        ]);
        cpu.row(vec![
            t.to_string(),
            fmt_pct(er.host_cpu),
            fmt_pct(kr.host_cpu),
            fmt_pct(kr.dpu_cpu),
            fmt_pct(ew.host_cpu),
            fmt_pct(kw.host_cpu),
            fmt_pct(kw.dpu_cpu),
        ]);
        points.extend([er, kr, ew, kw]);
    }

    lat.note("paper @256 threads: ext4 779/1009us, kvfs 363/410us R/W");
    lat.note("paper: ext4 wins <=32 threads, kvfs wins >=64");
    iops.note("paper: ext4 pins to the SSD past 32 threads; kvfs scales to 128 (DPU CPU 100%)");
    cpu.note("paper: ext4 >90% @256; kvfs <20% at all concurrency (86%/65% CPU saved R/W)");

    (vec![lat, iops, cpu], points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tb() -> Testbed {
        Testbed::default()
    }

    #[test]
    fn a_kvfs_op_crosses_the_link_once() {
        let t = tb();
        for is_read in [true, false] {
            let (_sim, st) = build(&t);
            let mut plan = Plan::default();
            plan_kvfs(&t, &st, 1, is_read, &mut plan);
            let (write, read) = if is_read { (0, 8192) } else { (8192, 0) };
            st.link.assert_crosses_once(&plan, st.dpu, write, read);
        }
    }

    #[test]
    fn ext4_wins_low_concurrency_kvfs_wins_high() {
        let t = tb();
        for is_read in [true, false] {
            // <=32: Ext4 lower latency.
            for th in [1usize, 8, 32] {
                let e = run_point(&t, System::Ext4, is_read, th);
                let k = run_point(&t, System::Kvfs, is_read, th);
                assert!(
                    e.mean_latency < k.mean_latency,
                    "th={th} read={is_read}: ext4 {} vs kvfs {}",
                    e.mean_latency,
                    k.mean_latency
                );
            }
            // >=64: KVFS lower latency and higher IOPS.
            for th in [64usize, 128, 256] {
                let e = run_point(&t, System::Ext4, is_read, th);
                let k = run_point(&t, System::Kvfs, is_read, th);
                assert!(
                    k.mean_latency < e.mean_latency,
                    "th={th} read={is_read}: kvfs {} vs ext4 {}",
                    k.mean_latency,
                    e.mean_latency
                );
                assert!(k.iops > e.iops, "th={th} read={is_read}");
            }
        }
    }

    #[test]
    fn saturation_latencies_near_paper() {
        let t = tb();
        let er = run_point(&t, System::Ext4, true, 256);
        let ew = run_point(&t, System::Ext4, false, 256);
        let kr = run_point(&t, System::Kvfs, true, 256);
        let kw = run_point(&t, System::Kvfs, false, 256);
        let us = |p: &Fig7Point| p.mean_latency.as_micros();
        assert!(
            (700.0..900.0).contains(&us(&er)),
            "ext4 rd {} vs paper 779",
            us(&er)
        );
        assert!(
            (880.0..1150.0).contains(&us(&ew)),
            "ext4 wr {} vs paper 1009",
            us(&ew)
        );
        assert!(
            (320.0..420.0).contains(&us(&kr)),
            "kvfs rd {} vs paper 363",
            us(&kr)
        );
        assert!(
            (360.0..470.0).contains(&us(&kw)),
            "kvfs wr {} vs paper 410",
            us(&kw)
        );
    }

    #[test]
    fn ext4_iops_flat_past_32_threads() {
        let t = tb();
        let i32t = run_point(&t, System::Ext4, true, 32).iops;
        let i256 = run_point(&t, System::Ext4, true, 256).iops;
        assert!(
            (i256 - i32t).abs() / i32t < 0.15,
            "SSD-pinned: {i32t} vs {i256}"
        );
    }

    #[test]
    fn kvfs_scales_until_dpu_saturates() {
        let t = tb();
        let i64t = run_point(&t, System::Kvfs, true, 64);
        let i128 = run_point(&t, System::Kvfs, true, 128);
        let i256 = run_point(&t, System::Kvfs, true, 256);
        assert!(i128.iops > i64t.iops * 1.15, "still scaling to 128");
        assert!(i256.iops < i128.iops * 1.1, "flat after DPU saturation");
        assert!(
            i128.dpu_cpu > 0.9,
            "DPU ~100% at 128 threads: {}",
            i128.dpu_cpu
        );
    }

    #[test]
    fn cpu_usage_shape_matches_fig7c() {
        let t = tb();
        let e = run_point(&t, System::Ext4, true, 256);
        let k = run_point(&t, System::Kvfs, true, 256);
        assert!(
            e.host_cpu > 0.75,
            "ext4 @256 must burn most of the host: {}",
            e.host_cpu
        );
        assert!(k.host_cpu < 0.20, "kvfs stays under 20%: {}", k.host_cpu);
        // CPU savings at >=64 threads (paper: 86% read).
        let e64 = run_point(&t, System::Ext4, true, 64);
        let k64 = run_point(&t, System::Kvfs, true, 64);
        let saving = 1.0 - (k64.host_cpu / e64.host_cpu);
        assert!(saving > 0.5, "read CPU saving at 64 threads: {saving}");
    }
}
