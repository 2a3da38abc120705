//! Steady-state allocation accounting for the batched fast path.
//!
//! Claim under test: once its recycled buffers are warm, the batched
//! nvme-fs machinery — SQE staging (PRP and SGL) under a deferred
//! doorbell, target-side drain and request decoding, reply framing, and
//! host-side completion drain — performs **zero** heap allocations per
//! read/write op; and so does the channel pool on top of it, for a
//! header-only `call` and for eight reads staged together and waited in
//! order. (The filesystem behind the dispatcher owns its own allocation
//! story; this test pins down the transport.)
//!
//! The counting allocator hook is per-binary, which is why this lives in
//! its own integration-test file.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dpc_nvmefs::{
    create_fabric, decode_dirents_into, dirent_iter, encode_dirents, ChannelPool, CompletionBatch,
    DispatchType, FileIncomingBatch, FileRequest, FileResponse, FileTarget, Initiator, Payload,
    QueuePair, QueuePairConfig, Sides, Ticket, WireDirent,
};
use dpc_pcie::alloc::{counting_enabled, thread_alloc_count, CountingAllocator};
use dpc_pcie::DmaEngine;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

struct Loop {
    ini: Initiator,
    tgt: FileTarget,
    wr_hdr: Vec<u8>,
    rd_hdr: Vec<u8>,
    page: Vec<u8>,
    inb: FileIncomingBatch,
    comp: CompletionBatch,
}

impl Loop {
    fn new() -> Loop {
        let dma = DmaEngine::new();
        let (ini, tgt) = QueuePair::new(
            0,
            QueuePairConfig {
                depth: 32,
                max_io_bytes: 8192,
            },
        )
        .split(dma.clone());
        let mut wr_hdr = Vec::new();
        FileRequest::Write {
            ino: 1,
            offset: 0,
            len: 4096,
        }
        .encode(&mut wr_hdr);
        let mut rd_hdr = Vec::new();
        FileRequest::Read {
            ino: 1,
            offset: 0,
            len: 4096,
        }
        .encode(&mut rd_hdr);
        Loop {
            ini,
            tgt: FileTarget::new(tgt),
            wr_hdr,
            rd_hdr,
            page: vec![0xABu8; 4096],
            inb: FileIncomingBatch::new(),
            comp: CompletionBatch::new(),
        }
    }

    /// One batched round: 8 writes, 8 reads and a write gathered from two
    /// segments (SGL) staged under one doorbell, served by the batched
    /// target loop, completions drained in one pass.
    fn round(&mut self) {
        {
            let mut guard = self.ini.batch();
            for _ in 0..8 {
                guard
                    .submit(DispatchType::Standalone, &self.wr_hdr, &self.page, 0)
                    .unwrap();
            }
            for _ in 0..8 {
                guard
                    .submit(DispatchType::Standalone, &self.rd_hdr, b"", 4096)
                    .unwrap();
            }
            let (a, b) = self.page.split_at(1000);
            guard
                .submit_sgl(DispatchType::Standalone, &self.wr_hdr, &[a, b], 0)
                .unwrap();
        }
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
        assert_eq!(self.ini.poll_many(&mut self.comp), 17);
        for c in self.comp.iter() {
            assert!(matches!(
                FileResponse::decode(&c.header),
                Ok(FileResponse::Bytes(4096))
            ));
        }
    }
}

#[test]
fn warm_batched_serve_loop_allocates_nothing_per_op() {
    assert!(
        counting_enabled(),
        "counting allocator must be installed in this binary"
    );
    let mut l = Loop::new();

    // Warm-up: grow every recycled buffer (batch slots, per-slot scratch,
    // reply header buffer) to steady-state capacity.
    for _ in 0..4 {
        l.round();
    }

    // Both ends run on this thread, so its own count is the loop's: the
    // other tests of this binary, running beside it, cannot dirty it.
    const ROUNDS: u64 = 64; // 1088 ops
    let before = thread_alloc_count();
    for _ in 0..ROUNDS {
        l.round();
    }
    let allocs = thread_alloc_count() - before;
    assert_eq!(allocs, 0, "warm batched serve loop, {} ops", ROUNDS * 17);
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
    let mut round = || {
        let done = pool.call(DispatchType::Standalone, &bare, b"", 0).unwrap();
        assert_eq!(done.response, FileResponse::Ok);
        let q = pool.preferred_queue();
        assert_eq!(pool.stage(q, &sides, &reads, &mut tickets), 8);
        for (&ticket, req) in tickets.iter().zip(&reads) {
            let whole = pool.wait(ticket, &sides, req, |resp, done| {
                resp == FileResponse::Bytes(8192) && done.payload.iter().all(|&b| b == 0x5A)
            });
            assert!(whole.unwrap());
        }
    };
    // Warm-up: every CID the rounds cycle through grows its mailbox's
    // reply buffers once.
    for _ in 0..16 {
        round();
    }
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
