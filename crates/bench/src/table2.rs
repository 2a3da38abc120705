//! **Table 2** — sequential bandwidth: 1 MiB read/write on local Ext4 vs
//! KVFS, single thread and 32 threads.
//!
//! | paper          | Ext4    | KVFS    |
//! |----------------|---------|---------|
//! | 1 thr seq rd   | 1.8GB/s | 5.0GB/s |
//! | 1 thr seq wr   | 1.6GB/s | 3.1GB/s |
//! | 32 thr seq rd  | 3.0GB/s | 7.6GB/s |
//! | 32 thr seq wr  | 2.0GB/s | 5.0GB/s |
//!
//! Model: sequential streams move in 128 KiB chunks (the fs-adapter's and
//! readahead's natural unit). Readahead / the DPU prefetcher keeps
//! `READ_DEPTH` chunks in flight per stream; write-back keeps
//! `WRITE_DEPTH`. Each pipeline slot is a closed-loop customer. Single-
//! stream bandwidth is therefore `depth × chunk / chunk_latency`, and at
//! 32 threads the aggregate pipes bind: Ext4 on the SSD's media bandwidth,
//! KVFS on the disaggregated cluster's streaming bandwidth (the paper
//! says exactly this: "limited by the read/write performance of our
//! disaggregated KV store").

use crate::link::Link;
use crate::Testbed;
use dpc_sim::{Nanos, Plan, Simulation, StationCfg, StationId};

use crate::fig7::System;
use crate::table::{fmt_gbps, Table};

/// Streaming chunk size.
pub const CHUNK: u64 = 128 * 1024;
/// Prefetch/readahead pipeline depth per stream.
const READ_DEPTH: usize = 3;
/// Write-back pipeline depth per stream.
const WRITE_DEPTH: usize = 2;

/// SSD media write bandwidth (ES3600P-class: ~2.1 GB/s; the read side
/// is `SsdModel::bandwidth_bytes_per_sec`).
const SSD_MEDIA_WRITE_BW: f64 = 2.1e9;

struct St {
    host: StationId,
    ssd_cmd: StationId,
    ssd_media_r: StationId,
    ssd_media_w: StationId,
    link: Link,
    dpu: StationId,
    nic: StationId,
    kv_units: StationId,
    kv_stream_r: StationId,
    kv_stream_w: StationId,
}

fn build(tb: &Testbed) -> (Simulation, St) {
    let mut sim = Simulation::new();
    let st = St {
        host: sim.add_station(StationCfg::new("host-cpu", tb.host.threads)),
        ssd_cmd: sim.add_station(StationCfg::new("ssd-cmd", tb.ssd.channels)),
        ssd_media_r: sim.add_station(StationCfg::new("ssd-media-read", 1)),
        ssd_media_w: sim.add_station(StationCfg::new("ssd-media-write", 1)),
        link: Link::new(&mut sim, tb.pcie),
        dpu: sim.add_station(StationCfg::new("dpu-cores", tb.dpu.cores)),
        nic: sim.add_station(StationCfg::new("storage-nic", 1)),
        kv_units: sim.add_station(StationCfg::new("kv-units", tb.kv.servers)),
        kv_stream_r: sim.add_station(StationCfg::new("kv-stream-read", 1)),
        kv_stream_w: sim.add_station(StationCfg::new("kv-stream-write", 1)),
    };
    (sim, st)
}

/// One 128 KiB chunk on Ext4 (readahead / write-back unit).
fn plan_ext4(tb: &Testbed, st: &St, is_read: bool, plan: &mut Plan) {
    let c = &tb.costs;
    // Batch CPU: page-cache bookkeeping for 32 pages, amortised.
    plan.service(st.host, c.ext4_request_cpu + c.ext4_page_cpu * 8);
    if is_read {
        plan.service(st.ssd_cmd, tb.ssd.read_time(CHUNK));
        plan.service(
            st.ssd_media_r,
            Nanos::for_transfer(CHUNK, tb.ssd.bandwidth_bytes_per_sec),
        );
    } else {
        plan.service(st.ssd_cmd, tb.ssd.write_time(CHUNK));
        plan.service(
            st.ssd_media_w,
            Nanos::for_transfer(CHUNK, SSD_MEDIA_WRITE_BW),
        );
    }
    plan.service(st.host, c.host_complete);
}

/// One 128 KiB chunk on KVFS (prefetcher / flusher unit).
fn plan_kvfs(tb: &Testbed, st: &St, is_read: bool, plan: &mut Plan) {
    let c = &tb.costs;
    // The chunk crosses PCIe out of the hybrid cache on a write, into it
    // on a read.
    let (write, read) = if is_read { (0, CHUNK) } else { (CHUNK, 0) };
    plan.service(st.host, c.host_syscall + c.fs_adapter);
    st.link.submit(write, plan);
    // DPU handles the chunk as one streaming request.
    plan.service(st.dpu, c.dpu_request);
    plan.delay(tb.kv.network.rtt);
    plan.service(
        st.nic,
        Nanos::for_transfer(CHUNK, tb.kv.network.bandwidth_bytes_per_sec),
    );
    // Backend: one streaming unit op + occupancy of the aggregate pipe.
    plan.service(st.kv_units, Nanos::from_micros(20.0));
    if is_read {
        plan.service(st.kv_stream_r, tb.kv.stream_read_time(CHUNK));
    } else {
        plan.service(st.kv_stream_w, tb.kv.stream_write_time(CHUNK));
    }
    st.link.complete(read, plan);
    plan.service(st.host, c.host_complete);
}

/// Sequential bandwidth (bytes/sec) for `threads` streams.
pub fn run_seq(tb: &Testbed, system: System, is_read: bool, threads: usize) -> f64 {
    let (mut sim, st) = build(tb);
    let tb2 = *tb;
    let depth = if is_read { READ_DEPTH } else { WRITE_DEPTH };
    let customers = threads * depth;
    let mut flow = move |_c: usize, _cy: u64, _now: Nanos, plan: &mut Plan| match system {
        System::Ext4 => plan_ext4(&tb2, &st, is_read, plan),
        System::Kvfs => plan_kvfs(&tb2, &st, is_read, plan),
    };
    let report = sim.run(
        &mut flow,
        customers,
        Nanos::from_millis(5.0),
        Nanos::from_millis(50.0),
    );
    report.total_throughput() * CHUNK as f64
}

/// One measured cell: (system, is_read, threads, bytes/sec).
pub type BwPoint = (System, bool, usize, f64);

pub fn run(tb: &Testbed) -> (Vec<Table>, Vec<BwPoint>) {
    let mut table = Table::new(
        "Table 2: sequential bandwidth (1MB I/O)",
        &["workload", "ext4", "kvfs", "paper ext4", "paper kvfs"],
    );
    let cases = [
        (true, 1usize, "1 thread, 1MB seq read", "1.8GB/s", "5.0GB/s"),
        (false, 1, "1 thread, 1MB seq write", "1.6GB/s", "3.1GB/s"),
        (true, 32, "32 threads, 1MB seq read", "3.0GB/s", "7.6GB/s"),
        (false, 32, "32 threads, 1MB seq write", "2.0GB/s", "5.0GB/s"),
    ];
    let mut points = Vec::new();
    for (is_read, threads, label, pe, pk) in cases {
        let e = run_seq(tb, System::Ext4, is_read, threads);
        let k = run_seq(tb, System::Kvfs, is_read, threads);
        table.row(vec![
            label.into(),
            fmt_gbps(e),
            fmt_gbps(k),
            pe.into(),
            pk.into(),
        ]);
        points.push((System::Ext4, is_read, threads, e));
        points.push((System::Kvfs, is_read, threads, k));
    }
    table.note("paper: KVFS beats Ext4 in every cell; its ceiling is the disaggregated KV store");
    (vec![table], points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tb() -> Testbed {
        Testbed::default()
    }

    #[test]
    fn a_kvfs_chunk_crosses_the_link_once() {
        let t = tb();
        for is_read in [true, false] {
            let (_sim, st) = build(&t);
            let mut plan = Plan::default();
            plan_kvfs(&t, &st, is_read, &mut plan);
            let (write, read) = if is_read { (0, CHUNK) } else { (CHUNK, 0) };
            st.link.assert_crosses_once(&plan, st.dpu, write, read);
        }
    }

    #[test]
    fn kvfs_beats_ext4_in_every_cell() {
        let t = tb();
        for is_read in [true, false] {
            for threads in [1usize, 32] {
                let e = run_seq(&t, System::Ext4, is_read, threads);
                let k = run_seq(&t, System::Kvfs, is_read, threads);
                assert!(
                    k > e,
                    "kvfs {k:.2e} <= ext4 {e:.2e} (read={is_read}, threads={threads})"
                );
            }
        }
    }

    #[test]
    fn magnitudes_near_paper() {
        let t = tb();
        let gb = 1e9;
        let cases: [(bool, usize, System, f64, f64); 8] = [
            (true, 1, System::Ext4, 1.3 * gb, 2.4 * gb),  // paper 1.8
            (false, 1, System::Ext4, 1.2 * gb, 2.2 * gb), // paper 1.6
            (true, 32, System::Ext4, 2.5 * gb, 3.4 * gb), // paper 3.0
            (false, 32, System::Ext4, 1.6 * gb, 2.3 * gb), // paper 2.0
            (true, 1, System::Kvfs, 3.8 * gb, 6.2 * gb),  // paper 5.0
            (false, 1, System::Kvfs, 2.3 * gb, 4.0 * gb), // paper 3.1
            (true, 32, System::Kvfs, 6.8 * gb, 8.2 * gb), // paper 7.6
            (false, 32, System::Kvfs, 4.3 * gb, 5.4 * gb), // paper 5.0
        ];
        for (is_read, threads, system, lo, hi) in cases {
            let bw = run_seq(&t, system, is_read, threads);
            assert!(
                (lo..hi).contains(&bw),
                "{system:?} read={is_read} threads={threads}: {:.2} GB/s not in [{:.1}, {:.1}]",
                bw / gb,
                lo / gb,
                hi / gb
            );
        }
    }

    #[test]
    fn thirty_two_threads_bind_on_the_aggregate_pipes() {
        let t = tb();
        // Ext4 reads at 32 threads sit at the SSD media bandwidth.
        let e = run_seq(&t, System::Ext4, true, 32);
        let media = t.ssd.bandwidth_bytes_per_sec;
        assert!((e - media).abs() / media < 0.12, "{e:.3e}");
        // KVFS reads at the cluster streaming bandwidth.
        let k = run_seq(&t, System::Kvfs, true, 32);
        assert!(
            (k - t.kv.stream_read_bw).abs() / t.kv.stream_read_bw < 0.12,
            "{k:.3e}"
        );
    }
}
