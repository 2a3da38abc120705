//! **Figure 6** — raw host↔DPU transmission: IOPS and latency of nvme-fs
//! vs virtio-fs under a 1–64 thread sweep, plus the §4.1 bandwidth test
//! (1 MiB sequential, 16 threads).
//!
//! Reproduction method: the functional protocol layer is exercised once
//! per configuration to *measure the DMA-op structure* (using the
//! counting DMA engine), then a closed-loop simulation replays that
//! structure through the contended stations: host CPU, the DPU's DMA
//! engines, the PCIe wire, and the DPU cores (nvme-fs) or the single
//! DPFS-HAL thread (virtio-fs).
//!
//! Paper anchors: nvme-fs best R/W latency 20.6/26.6 µs; virtio-fs
//! 36.5/34 µs; both peak at 32 threads; nvme-fs 2–3× at high concurrency;
//! bandwidth 15.1/14.3 GB/s (nvme-fs) vs 6.3/5.1 GB/s (virtio-fs).

use std::sync::OnceLock;

use crate::link::Link;
use crate::Testbed;
use dpc_nvmefs::{
    create_fabric, ChannelPool, DispatchType, FileIncomingBatch, FileRequest, FileResponse,
    Payload, QueuePairConfig, Sides, Ticket,
};
use dpc_pcie::DmaEngine;
use dpc_sim::{Nanos, Plan, RunReport, Simulation, StationCfg, StationId};
use dpc_virtiofs::{create_device, VirtioFsConfig};

use crate::table::{fmt_gbps, fmt_iops, fmt_us, Table};

/// Which transport a run models.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Transport {
    NvmeFs,
    VirtioFs,
}

/// Measured numbers for one (transport, size, direction, threads) point.
#[derive(Copy, Clone, Debug)]
pub struct RawPoint {
    pub transport: Transport,
    pub threads: usize,
    pub is_read: bool,
    pub size: usize,
    pub iops: f64,
    pub mean_latency: Nanos,
    pub p99_latency: Nanos,
}

/// virtio-fs read-completion detour through the FUSE queue (calibrates
/// the paper's 36.5 µs read vs 34 µs write asymmetry).
const FUSE_READ_EXTRA: Nanos = Nanos(2_500);
/// DPFS-HAL CPU-copy bandwidth (the HAL moves payload bytes itself; the
/// nvme-fs path is zero-copy via PRP-described DMA).
const HAL_COPY_READ_BPS: f64 = 6.6e9;
const HAL_COPY_WRITE_BPS: f64 = 5.33e9;

struct Stations {
    host: StationId,
    link: Link,
    dpu: StationId,
    hal: StationId,
}

fn build_sim(tb: &Testbed) -> (Simulation, Stations) {
    let mut sim = Simulation::new();
    let host =
        sim.add_station(StationCfg::new("host-cpu", tb.host.threads).with_oversub_penalty(0.25));
    let link = Link::new(&mut sim, tb.pcie);
    let dpu = sim.add_station(
        StationCfg::new("dpu-cores", tb.dpu.cores).with_oversub_penalty(tb.dpu.oversub_penalty),
    );
    let hal = sim.add_station(StationCfg::new("hal-thread", 1).with_oversub_penalty(0.0));
    (
        sim,
        Stations {
            host,
            link,
            dpu,
            hal,
        },
    )
}

/// Append the legs of one raw nvme-fs command.
fn plan_nvmefs(tb: &Testbed, st: &Stations, size: usize, is_read: bool, plan: &mut Plan) {
    let c = &tb.costs;
    let bytes = size as u64;
    let (write, read) = if is_read { (0, bytes) } else { (bytes, 0) };
    plan.service(st.host, c.host_syscall + c.fs_adapter);
    st.link.submit(write, plan);
    // The DPU-side virtual client (in-memory echo).
    plan.service(
        st.dpu,
        if is_read {
            c.dpu_request
        } else {
            c.dpu_request + c.dpu_write_extra
        },
    );
    st.link.complete(read, plan);
    plan.service(st.host, c.host_complete);
}

/// Append the legs of one raw virtio-fs (DPFS) request.
fn plan_virtiofs(tb: &Testbed, st: &Stations, size: usize, is_read: bool, plan: &mut Plan) {
    let c = &tb.costs;
    plan.service(st.host, c.host_syscall + c.fuse_overhead);
    // The chain walk: the serial control DMAs, issued one by one. They
    // hold one DMA engine for the whole walk (strictly sequential by
    // design).
    plan.service(
        st.link.engines,
        Nanos(tb.pcie.dma_setup.as_nanos() * measure_dma_counts().virtio_control),
    );
    // The single HAL thread processes the request and copies payload
    // itself (virtio-fs is not zero-copy).
    let copy = if is_read {
        Nanos::for_transfer(size as u64, HAL_COPY_READ_BPS)
    } else {
        Nanos::for_transfer(size as u64, HAL_COPY_WRITE_BPS)
    };
    plan.service(st.hal, c.hal_request + copy);
    if is_read {
        // The read completion re-enters the FUSE queue before the app
        // wakes — latency, not HAL occupancy.
        plan.delay(FUSE_READ_EXTRA);
    }
    // Payload still crosses the link.
    plan.service(st.link.wire, tb.pcie.transfer_time(size as u64));
    plan.service(st.host, c.host_complete);
}

/// Run one closed-loop point.
fn run_point(
    tb: &Testbed,
    transport: Transport,
    size: usize,
    is_read: bool,
    threads: usize,
) -> RawPoint {
    let (mut sim, st) = build_sim(tb);
    let tb2 = *tb;
    let mut flow = move |_c: usize, _cy: u64, _now: Nanos, plan: &mut Plan| match transport {
        Transport::NvmeFs => plan_nvmefs(&tb2, &st, size, is_read, plan),
        Transport::VirtioFs => plan_virtiofs(&tb2, &st, size, is_read, plan),
    };
    let report: RunReport = sim.run(
        &mut flow,
        threads,
        Nanos::from_millis(2.0),
        Nanos::from_millis(20.0),
    );
    let c = report.class(0).expect("one class");
    RawPoint {
        transport,
        threads,
        is_read,
        size,
        iops: c.throughput,
        mean_latency: c.latency.mean(),
        p99_latency: c.latency.p99(),
    }
}

/// The DMA ops of one 8 KiB write on each functional transport — the
/// Figure 2 vs Figure 4 comparison.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DmaCounts {
    /// nvme-fs: the command the product sends, a `FileRequest::Write`
    /// naming its file, acknowledged with `FileResponse::Bytes`.
    pub nvme: u64,
    /// virtio-fs (DPFS): the chain walk, the HAL's page-granular payload
    /// DMAs and the completion.
    pub virtio: u64,
    /// The virtio-fs ops that are not payload DMAs: `virtio` less one per
    /// payload page, a page's worth measured as the 8 KiB write's ops over
    /// a 4 KiB write's.
    pub virtio_control: u64,
}

/// Drive the *functional* transports once and report their DMA-op counts
/// ([`DmaCounts`]); every figure and ablation that quotes a count reads it
/// here. Measured on the first call, then remembered.
pub fn measure_dma_counts() -> DmaCounts {
    static COUNTS: OnceLock<DmaCounts> = OnceLock::new();
    *COUNTS.get_or_init(|| {
        let virtio = virtio_write_dmas(8192);
        let per_page = virtio - virtio_write_dmas(4096);
        DmaCounts {
            nvme: nvmefs_write_dmas(),
            virtio,
            virtio_control: virtio - 2 * per_page,
        }
    })
}

/// DMA ops of one 8 KiB nvme-fs write.
fn nvmefs_write_dmas() -> u64 {
    let dma = DmaEngine::new();
    let cfg = QueuePairConfig {
        depth: 8,
        max_io_bytes: 16 * 1024,
    };
    let (chans, mut tgts) = create_fabric(1, cfg, &dma);
    let (pool, tgt) = (ChannelPool::new(chans), &mut tgts[0]);
    let req = FileRequest::Write {
        ino: 1,
        offset: 0,
        len: 8192,
    };
    let sides = Sides {
        dispatch: DispatchType::Standalone,
        write: Payload::Flat(&[7u8; 8192]),
        read_len: 0,
    };
    let before = dma.snapshot();
    let mut ticket = [Ticket::default()];
    assert_eq!(
        pool.stage(0, &sides, std::slice::from_ref(&req), &mut ticket),
        1
    );
    let mut inb = FileIncomingBatch::new();
    assert_eq!(tgt.poll_many(&mut inb), 1);
    let inc = &inb.as_slice()[0];
    assert_eq!((&inc.request, inc.payload.len()), (&req, 8192));
    tgt.reply(inc.slot, &FileResponse::Bytes(8192), b"");
    let resp = pool.wait(ticket[0], &sides, &req, |resp, _| resp);
    assert_eq!(resp.expect("reply decodes"), FileResponse::Bytes(8192));
    dma.snapshot().since(&before).dma_ops
}

/// DMA ops the DPFS HAL spends serving one virtio-fs write of `len` bytes.
fn virtio_write_dmas(len: usize) -> u64 {
    let dma = DmaEngine::new();
    let (mut front, mut hal) = create_device(VirtioFsConfig::default(), &dma);
    front.submit_write(1, 0, &vec![7u8; len]).unwrap();
    let before = dma.snapshot();
    let inc = hal.poll().unwrap();
    hal.complete(&inc, 0, &[]);
    dma.snapshot().since(&before).dma_ops
}

/// The full Figure 6 sweep.
pub fn run(tb: &Testbed) -> (Vec<Table>, Vec<RawPoint>) {
    let threads = [1usize, 2, 4, 8, 16, 32, 64];
    let mut points = Vec::new();

    let mut lat_table = Table::new(
        "Fig 6 (a,b): raw transmission latency, 8K (mean us, virtio vs nvme)",
        &["threads", "virtio rd", "virtio wr", "nvme rd", "nvme wr"],
    );
    let mut iops_table = Table::new(
        "Fig 6 (c,d): raw transmission IOPS, 4K",
        &[
            "threads",
            "virtio rd",
            "virtio wr",
            "nvme rd",
            "nvme wr",
            "nvme/virtio rd",
        ],
    );

    for &t in &threads {
        let mut row_lat = vec![t.to_string()];
        let mut row_iops = vec![t.to_string()];
        let mut cells = Vec::new();
        for (transport, is_read) in [
            (Transport::VirtioFs, true),
            (Transport::VirtioFs, false),
            (Transport::NvmeFs, true),
            (Transport::NvmeFs, false),
        ] {
            let p8 = run_point(tb, transport, 8192, is_read, t);
            let p4 = run_point(tb, transport, 4096, is_read, t);
            row_lat.push(fmt_us(p8.mean_latency));
            row_iops.push(fmt_iops(p4.iops));
            cells.push(p4.iops);
            points.push(p8);
            points.push(p4);
        }
        row_iops.push(format!("{:.1}x", cells[2] / cells[0]));
        lat_table.row(row_lat);
        iops_table.row(row_iops);
    }

    let DmaCounts { nvme, virtio, .. } = measure_dma_counts();
    lat_table
        .note("paper: 1-thread best latency nvme 20.6/26.6us R/W, virtio 36.5/34us".to_string());
    lat_table.note(format!(
        "functional DMA count for an 8K write: nvme-fs {nvme} ops (paper: 4), virtio-fs {virtio} ops (paper: 11)"
    ));
    iops_table.note("paper: both peak at 32 threads; nvme-fs 2-3x virtio-fs at high concurrency");

    // ---- §4.1 bandwidth: 1 MiB sequential, 16 threads -------------------
    let mut bw_table = Table::new(
        "Fig 6 (§4.1): bandwidth, 1MB sequential x 16 threads",
        &["transport", "read", "write", "paper read", "paper write"],
    );
    for (transport, pr, pw) in [
        (Transport::VirtioFs, "6.3GB/s", "5.1GB/s"),
        (Transport::NvmeFs, "15.1GB/s", "14.3GB/s"),
    ] {
        let rd = run_point(tb, transport, 1 << 20, true, 16);
        let wr = run_point(tb, transport, 1 << 20, false, 16);
        bw_table.row(vec![
            format!("{transport:?}"),
            fmt_gbps(rd.iops * (1 << 20) as f64),
            fmt_gbps(wr.iops * (1 << 20) as f64),
            pr.into(),
            pw.into(),
        ]);
        points.push(rd);
        points.push(wr);
    }
    bw_table.note(
        "paper: nvme-fs nearly saturates PCIe 3.0 x16 (~15.7GB/s); single-queue virtio-fs cannot",
    );

    (vec![lat_table, iops_table, bw_table], points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tb() -> Testbed {
        Testbed::default()
    }

    #[test]
    fn one_thread_latencies_match_paper_anchors() {
        let t = tb();
        let nr = run_point(&t, Transport::NvmeFs, 8192, true, 1);
        let nw = run_point(&t, Transport::NvmeFs, 8192, false, 1);
        let vr = run_point(&t, Transport::VirtioFs, 8192, true, 1);
        let vw = run_point(&t, Transport::VirtioFs, 8192, false, 1);
        let us = |p: &RawPoint| p.mean_latency.as_micros();
        assert!((18.0..24.0).contains(&us(&nr)), "nvme read {}", us(&nr));
        assert!((24.0..30.0).contains(&us(&nw)), "nvme write {}", us(&nw));
        assert!((32.0..41.0).contains(&us(&vr)), "virtio read {}", us(&vr));
        assert!((30.0..38.0).contains(&us(&vw)), "virtio write {}", us(&vw));
        // nvme-fs consistently lower latency at low concurrency.
        assert!(us(&nr) < us(&vr));
        assert!(us(&nw) < us(&vw));
    }

    #[test]
    fn nvme_wins_2_to_3x_at_high_concurrency() {
        let t = tb();
        let n = run_point(&t, Transport::NvmeFs, 4096, true, 32);
        let v = run_point(&t, Transport::VirtioFs, 4096, true, 32);
        let ratio = n.iops / v.iops;
        assert!((1.8..4.5).contains(&ratio), "IOPS ratio {ratio}");
    }

    #[test]
    fn both_peak_at_32_threads() {
        let t = tb();
        for transport in [Transport::NvmeFs, Transport::VirtioFs] {
            let i16 = run_point(&t, transport, 4096, false, 16).iops;
            let i32t = run_point(&t, transport, 4096, false, 32).iops;
            let i64t = run_point(&t, transport, 4096, false, 64).iops;
            assert!(i32t >= i16 * 0.95, "{transport:?} grows to 32");
            assert!(i64t <= i32t * 1.05, "{transport:?} declines past 32");
        }
    }

    #[test]
    fn bandwidth_shape_matches_paper() {
        let t = tb();
        let n = run_point(&t, Transport::NvmeFs, 1 << 20, true, 16);
        let v = run_point(&t, Transport::VirtioFs, 1 << 20, true, 16);
        let n_gbps = n.iops * (1 << 20) as f64 / 1e9;
        let v_gbps = v.iops * (1 << 20) as f64 / 1e9;
        assert!((13.0..16.0).contains(&n_gbps), "nvme {n_gbps} GB/s");
        assert!((4.0..8.0).contains(&v_gbps), "virtio {v_gbps} GB/s");
    }

    #[test]
    fn a_raw_nvmefs_command_crosses_the_link_once() {
        let t = tb();
        for is_read in [true, false] {
            let (_sim, st) = build_sim(&t);
            let mut plan = Plan::default();
            plan_nvmefs(&t, &st, 8192, is_read, &mut plan);
            let (write, read) = if is_read { (0, 8192) } else { (8192, 0) };
            st.link.assert_crosses_once(&plan, st.dpu, write, read);
        }
    }

    #[test]
    fn functional_dma_counts_match_figures_2_and_4() {
        let counts = measure_dma_counts();
        assert_eq!(
            (counts.nvme, counts.virtio, counts.virtio_control),
            (4, 11, 9)
        );
    }
}

#[cfg(test)]
mod probe {
    use super::*;
    #[test]
    #[ignore]
    fn print_sweep() {
        let t = Testbed::default();
        for th in [1, 2, 4, 8, 16, 32, 64] {
            let v = run_point(&t, Transport::VirtioFs, 4096, false, th);
            let n = run_point(&t, Transport::NvmeFs, 4096, false, th);
            println!("threads {th}: virtio {:.0} nvme {:.0}", v.iops, n.iops);
        }
    }
}
