//! Batched vs single-op submission through one nvme-fs queue pair with a
//! live DPU-side echo thread: `ChannelPool::stage` puts `batch` commands
//! under one doorbell, the file target drains them with `poll_many`, and
//! the host waits each ticket. The cross-thread round trip is the cost
//! being amortized: at batch=1 every op pays a full submit→serve→complete
//! ping-pong (plus its own doorbell); at batch=16 sixteen ops share one
//! doorbell and one wakeup in each direction.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dpc_nvmefs::{
    create_fabric, ChannelPool, DispatchType, FileIncomingBatch, FileRequest, FileResponse,
    Payload, QueuePairConfig, Sides, Ticket,
};
use dpc_pcie::DmaEngine;

fn bench_batch_submit(c: &mut Criterion) {
    let mut g = c.benchmark_group("batch_submit");
    for &batch in &[1usize, 16] {
        let cfg = QueuePairConfig {
            depth: 32,
            max_io_bytes: 16 * 1024,
        };
        let (chans, mut tgts) = create_fabric(1, cfg, &DmaEngine::new());
        let (pool, mut tgt) = (ChannelPool::new(chans), tgts.pop().unwrap());

        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut inb = FileIncomingBatch::new();
                let mut idle = 0u32;
                while !stop.load(Ordering::Acquire) {
                    if tgt.poll_many(&mut inb) > 0 {
                        idle = 0;
                        for inc in &inb {
                            tgt.reply(inc.slot, &FileResponse::Bytes(4096), b"");
                        }
                    } else {
                        idle += 1;
                        if idle > 256 {
                            std::thread::yield_now();
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                }
            })
        };

        let payload = vec![0x42u8; 4096];
        let sides = Sides {
            dispatch: DispatchType::Standalone,
            write: Payload::Flat(&payload),
            read_len: 0,
        };
        let reqs: Vec<FileRequest> = (0..batch as u64)
            .map(|i| FileRequest::Write {
                ino: 1,
                offset: i * 4096,
                len: 4096,
            })
            .collect();
        let mut tickets = vec![Ticket::default(); batch];
        g.throughput(Throughput::Elements(batch as u64));
        g.bench_function(&format!("4k_write_echo_batch_{batch}"), |b| {
            b.iter(|| {
                assert_eq!(pool.stage(0, &sides, &reqs, &mut tickets), batch);
                for (&ticket, req) in tickets.iter().zip(&reqs) {
                    pool.wait(ticket, &sides, req, |_, _| ()).unwrap();
                }
            })
        });

        stop.store(true, Ordering::Release);
        server.join().unwrap();
    }
    g.finish();
}

criterion_group!(batch_submit, bench_batch_submit);
criterion_main!(batch_submit);
