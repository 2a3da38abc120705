//! Steady-state allocation accounting for the batched fast path.
//!
//! Claim under test: once its recycled buffers are warm, the batched
//! nvme-fs machinery — SQE staging (PRP and SGL) through the pool, the
//! target's drain with each payload DMA'd into its batch slot and each
//! request decoded, reply framing, and the pool's waits reading each reply
//! where the DMA left it — performs **zero** heap allocations per
//! read/write op, with or without a fault plan attached to the target;
//! and so does the channel pool on its own, for a header-only `call` and
//! for eight reads staged together and waited in order. (The filesystem
//! behind the dispatcher owns its own allocation story; this test pins
//! down the transport.)
//!
//! The counting allocator hook is per-binary, which is why this lives in
//! its own integration-test file.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dpc_fault::FaultPlan;
use dpc_nvmefs::{
    create_fabric, decode_dirents_into, dirent_iter, encode_dirents, ChannelPool, DispatchType,
    FileIncomingBatch, FileRequest, FileResponse, FileTarget, Payload, QueuePairConfig, Sides,
    Ticket, WireDirent,
};
use dpc_pcie::alloc::{counting_enabled, thread_alloc_count, CountingAllocator};
use dpc_pcie::DmaEngine;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Both ends of one queue pair, driven from one thread.
struct Loop {
    pool: ChannelPool,
    tgt: FileTarget,
    writes: [FileRequest; 8],
    reads: [FileRequest; 8],
    page: Vec<u8>,
    inb: FileIncomingBatch,
}

impl Loop {
    fn new() -> Loop {
        let (chans, mut tgts) = create_fabric(
            1,
            QueuePairConfig {
                depth: 32,
                max_io_bytes: 8192,
            },
            &DmaEngine::new(),
        );
        let at = |i: usize| i as u64 * 4096;
        Loop {
            pool: ChannelPool::new(chans),
            tgt: tgts.pop().unwrap(),
            writes: std::array::from_fn(|i| FileRequest::Write {
                ino: 1,
                offset: at(i),
                len: 4096,
            }),
            reads: std::array::from_fn(|i| FileRequest::Read {
                ino: 1,
                offset: at(i),
                len: 4096,
            }),
            page: vec![0xABu8; 4096],
            inb: FileIncomingBatch::new(),
        }
    }

    /// One batched round: 8 writes, 8 reads and a write gathered from two
    /// segments (SGL) staged before the target looks, served by the
    /// batched target loop in one drain, each reply waited in turn.
    fn round(&mut self) {
        let (a, b) = self.page.split_at(1000);
        let segments = [a, b];
        let side = |write, read_len| Sides {
            dispatch: DispatchType::Standalone,
            write,
            read_len,
        };
        let writes = side(Payload::Flat(&self.page), 0);
        let reads = side(Payload::Flat(b""), 4096);
        let gathered = side(Payload::Gather(&segments), 0);
        let mut tickets = [Ticket::default(); 17];
        let (w, rest) = tickets.split_at_mut(8);
        let (r, g) = rest.split_at_mut(8);
        assert_eq!(self.pool.stage(0, &writes, &self.writes, w), 8);
        assert_eq!(self.pool.stage(0, &reads, &self.reads, r), 8);
        let sgl = std::slice::from_ref(&self.writes[0]);
        assert_eq!(self.pool.stage(0, &gathered, sgl, g), 1);

        assert_eq!(self.tgt.poll_many(&mut self.inb), 17);
        for inc in self.inb.iter() {
            match &inc.request {
                FileRequest::Write { len, .. } => {
                    assert_eq!(inc.payload.len(), *len as usize);
                    self.tgt.reply(inc.slot, &FileResponse::Bytes(*len), b"");
                }
                FileRequest::Read { len, .. } => {
                    self.tgt
                        .reply(inc.slot, &FileResponse::Bytes(*len), &self.page);
                }
                other => panic!("unexpected request {other:?}"),
            }
        }

        let staged = [
            (&writes, &self.writes[..]),
            (&reads, &self.reads[..]),
            (&gathered, sgl),
        ];
        let waits = staged
            .into_iter()
            .flat_map(|(sides, reqs)| reqs.iter().map(move |req| (sides, req)));
        for (&ticket, (sides, req)) in tickets.iter().zip(waits) {
            let resp = self.pool.wait(ticket, sides, req, |resp, _| resp).unwrap();
            assert!(matches!(resp, FileResponse::Bytes(4096)));
        }
    }
}

/// Four warm rounds, then 64 counted on this thread: both ends run on it,
/// so its own count is the loop's — the other tests of this binary,
/// running beside it, cannot dirty it.
fn allocations_per_warm_round(mut l: Loop) -> u64 {
    assert!(
        counting_enabled(),
        "counting allocator must be installed in this binary"
    );
    // Warm-up: grow every recycled buffer (batch slots and their payload
    // buffers, the target's header buffer) to steady-state capacity.
    for _ in 0..4 {
        l.round();
    }
    const ROUNDS: u64 = 64; // 1088 ops
    let before = thread_alloc_count();
    for _ in 0..ROUNDS {
        l.round();
    }
    thread_alloc_count() - before
}

#[test]
fn warm_batched_serve_loop_allocates_nothing_per_op() {
    let allocs = allocations_per_warm_round(Loop::new());
    assert_eq!(allocs, 0, "warm batched serve loop, {} ops", 64 * 17);
}

#[test]
fn warm_serve_loop_with_a_fault_plan_attached_allocates_nothing() {
    // Every site of the plan is off: offering a request to the fault
    // sites must not copy it (a clone of each decoded request to offer it
    // is one allocation per write).
    let mut l = Loop::new();
    l.tgt.set_fault_plan(&FaultPlan::new(7));
    let allocs = allocations_per_warm_round(l);
    assert_eq!(allocs, 0, "plan attached, every site off, {} ops", 64 * 17);
}

#[test]
fn warm_pool_call_and_eight_staged_reads_allocate_nothing_on_the_host_thread() {
    assert!(counting_enabled());
    let dma = DmaEngine::new();
    let cfg = QueuePairConfig {
        depth: 32,
        max_io_bytes: 16 * 1024,
    };
    let (chans, mut tgts) = create_fabric(1, cfg, &dma);
    let pool = ChannelPool::new(chans);
    let mut tgt = tgts.pop().unwrap();
    // An echo target on the service loop's pattern: `poll_many` into a
    // recycled `FileIncomingBatch`. A read gets its length in bytes back,
    // anything else `Ok`.
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let (page, mut inb) = (vec![0x5Au8; 8192], FileIncomingBatch::new());
            while !stop.load(Ordering::Acquire) {
                if tgt.poll_many(&mut inb) == 0 {
                    std::thread::yield_now();
                }
                for inc in inb.iter() {
                    match inc.request {
                        FileRequest::Read { len, .. } => {
                            let data = &page[..len as usize];
                            tgt.reply(inc.slot, &FileResponse::Bytes(len), data);
                        }
                        _ => tgt.reply(inc.slot, &FileResponse::Ok, b""),
                    }
                }
            }
        })
    };

    let bare = FileRequest::Truncate { ino: 7, size: 0 };
    let reads: [FileRequest; 8] = std::array::from_fn(|i| FileRequest::Read {
        ino: 7,
        offset: i as u64 * 8192,
        len: 8192,
    });
    let sides = Sides {
        dispatch: DispatchType::Standalone,
        write: Payload::Flat(b""),
        read_len: 8192,
    };
    let mut tickets = [Ticket::default(); 8];
    let mut got = [0u8; 8192];
    let mut round = || {
        let done = pool.call(DispatchType::Standalone, &bare, b"", 0).unwrap();
        assert_eq!(done.response, FileResponse::Ok);
        let q = pool.preferred_queue();
        assert_eq!(pool.stage(q, &sides, &reads, &mut tickets), 8);
        for (&ticket, req) in tickets.iter().zip(&reads) {
            got.fill(0);
            let whole = pool.wait(ticket, &sides, req, |resp, payload| {
                payload.copy_to(0, &mut got);
                resp == FileResponse::Bytes(8192) && payload.len() == got.len()
            });
            assert!(whole.unwrap());
            assert!(got.iter().all(|&b| b == 0x5A));
        }
    };
    // No warm-up: a mailbox holds a CQE and nothing grows. The first
    // round is counted too.
    let before = thread_alloc_count();
    for _ in 0..256 {
        round();
    }
    let allocs = thread_alloc_count() - before;
    stop.store(true, Ordering::Release);
    server.join().unwrap();
    assert_eq!(allocs, 0, "256 warm rounds of one call + 8 staged reads");
}

#[test]
fn warm_dirent_decode_allocates_nothing_per_listing() {
    assert!(counting_enabled());

    // A realistic listing: 64 entries, names up to 24 bytes.
    let entries: Vec<WireDirent> = (0..64)
        .map(|i| WireDirent {
            ino: 100 + i,
            kind: (i % 2) as u8,
            name: format!("entry-{i:04}-{}", "x".repeat((i % 12) as usize)),
        })
        .collect();
    let mut buf = Vec::new();
    encode_dirents(&entries, &mut buf);

    // Warm the reused output: slots and their name buffers grow once.
    let mut out: Vec<WireDirent> = Vec::new();
    decode_dirents_into(&buf, entries.len(), &mut out).unwrap();
    assert_eq!(out, entries);

    // Counted on this thread only, as above.
    let before = thread_alloc_count();
    for _ in 0..256 {
        // The borrowed streaming walk (probe-sized consumers)...
        let live = dirent_iter(&buf, entries.len())
            .filter(|e| e.as_ref().is_ok_and(|d| d.kind == 0))
            .count();
        assert_eq!(live, 32);
        // ...and the full in-place rebuild into warmed slots.
        decode_dirents_into(&buf, entries.len(), &mut out).unwrap();
        assert_eq!(out.len(), entries.len());
    }
    let allocs = thread_alloc_count() - before;
    assert_eq!(allocs, 0, "warm dirent decode, 256 listings");
}
