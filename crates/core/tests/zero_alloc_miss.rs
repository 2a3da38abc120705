//! Steady-state allocation accounting for the warm read-miss path.
//!
//! Claim under test: a buffered 8 KiB read that misses the host cache —
//! its runs staged through the channel pool, waited in order, each reply
//! landed from its transport buffer — makes **no heap allocation on the
//! calling thread**. No result or request vector, no waiter per command,
//! no completion buffer (DESIGN.md §5.1, §12.2). An `IoMode::Direct` read —
//! every read a crossing, landed the same way — makes none either. Those
//! two count the host CPU only. The DPU's side has its own claim: a warm
//! `Read`, served straight into its transport buffer and answered with a
//! header encoded into the target's reused buffer, allocates nothing
//! either. The counting allocator hook is per-binary, which is why this
//! lives in its own integration-test file.

use std::sync::Arc;

use dpc_cache::{CacheConfig, ControlPlane, HybridCache};
use dpc_core::{Dispatcher, Dpc, DpcConfig, IoMode};
use dpc_dfs::{ClientCore, DfsBackend, DfsConfig};
use dpc_kvfs::Kvfs;
use dpc_kvstore::KvStore;
use dpc_nvmefs::{
    create_fabric, ChannelPool, DispatchType, FileIncomingBatch, FileRequest, FileResponse,
    FileTarget, Payload, QueuePairConfig, Sides, Ticket,
};
use dpc_pcie::alloc::{counting_enabled, thread_alloc_count, CountingAllocator};
use dpc_pcie::DmaEngine;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const FILE_BYTES: usize = 8 << 20;
const READ: usize = 8192;

/// The byte at file offset `at`.
fn byte_at(at: usize) -> u8 {
    (at / READ) as u8 ^ (at % 251) as u8
}

/// An 8 MiB file `/miss` written through one instance, and a second one
/// over the same store — its cache an eighth of the file, cold — with
/// the file's bytes.
fn cold_instance() -> (Dpc, Vec<u8>) {
    let data: Vec<u8> = (0..FILE_BYTES).map(byte_at).collect();
    let store = {
        let dpc = Dpc::new(DpcConfig::default());
        let fs = dpc.fs();
        let fd = fs.create("/miss").unwrap();
        assert_eq!(fs.write(fd, 0, &data).unwrap(), FILE_BYTES);
        fs.fsync(fd).unwrap();
        fs.close(fd).unwrap();
        dpc.kv_store()
    };
    let cfg = DpcConfig {
        cache_pages: 256,
        ..DpcConfig::default()
    };
    (Dpc::with_shared_storage(cfg, Some(store), None), data)
}

/// `warm` then `counted` uniform 8 KiB reads of `/miss` through an
/// adapter in `mode`: the host-thread allocations and pool calls of the
/// counted ones.
fn count_reads(mode: IoMode, warm: usize, counted: usize) -> (u64, u64) {
    assert!(counting_enabled(), "counting allocator must be installed");
    let (dpc, data) = cold_instance();
    let mut fs = dpc.fs();
    fs.mode = mode;
    let fd = fs.open("/miss").unwrap();
    let mut buf = vec![0u8; READ];
    let mut rng = 0x2545_f491_4f6c_dd1du64;
    let mut read_one = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let at = (rng as usize % (FILE_BYTES / READ)) * READ;
        assert_eq!(fs.read(fd, at as u64, &mut buf).unwrap(), READ);
        assert_eq!(buf, data[at..at + READ], "bytes at {at}");
    };
    for _ in 0..warm {
        read_one();
    }
    let (allocs, calls) = (thread_alloc_count(), dpc.pool_stats().submitted);
    for _ in 0..counted {
        read_one();
    }
    (
        thread_alloc_count() - allocs,
        dpc.pool_stats().submitted - calls,
    )
}

#[test]
fn a_warm_8k_read_miss_allocates_nothing_on_the_host_thread() {
    let (allocs, calls) = count_reads(IoMode::Buffered, 4_000, 4_000);
    assert!(calls > 3_000, "only {calls} of 4 000 reads crossed");
    assert_eq!(
        allocs, 0,
        "{allocs} host-thread allocations over {calls} misses"
    );
}

#[test]
fn a_warm_8k_direct_read_allocates_nothing_on_the_host_thread() {
    let (allocs, calls) = count_reads(IoMode::Direct, 1_000, 2_000);
    assert_eq!(calls, 2_000, "every direct read is one crossing");
    assert_eq!(
        allocs, 0,
        "{allocs} host-thread allocations over {calls} direct reads"
    );
}

/// One request through the queue pair, served by `d`.
fn call(
    pool: &ChannelPool,
    tgt: &mut FileTarget,
    d: &mut Dispatcher,
    sides: &Sides,
    req: FileRequest,
) -> FileResponse {
    let mut ticket = [Ticket::default()];
    assert_eq!(
        pool.stage(0, sides, std::slice::from_ref(&req), &mut ticket),
        1
    );
    let mut batch = FileIncomingBatch::new();
    assert_eq!(tgt.poll_many(&mut batch), 1);
    d.handle_batch(&batch, tgt);
    pool.wait(ticket[0], sides, &req, |resp, _| resp).unwrap()
}

#[test]
fn a_warm_read_served_in_place_allocates_nothing_on_the_dpu() {
    assert!(counting_enabled(), "counting allocator must be installed");
    const K128: usize = 128 * 1024;
    const FILE: usize = 1 << 20;
    let kvfs = Arc::new(Kvfs::new(Arc::new(KvStore::new())));
    let file = kvfs.create("/f", 0o644).unwrap();
    let data: Vec<u8> = (0..FILE).map(byte_at).collect();
    kvfs.write(file, 0, &data).unwrap();
    let cache = Arc::new(HybridCache::new(CacheConfig {
        pages: 64,
        bucket_entries: 8,
        mode: 1,
        meta_lockfree: true,
    }));
    let control = ControlPlane::new(cache, DmaEngine::new());
    let dfs = ClientCore::new(DfsBackend::new(DfsConfig::default()), 1);
    let mut d = Dispatcher::new(kvfs, control, Some(dfs));
    let blocks = 8u64;
    let (chans, mut tgts) = create_fabric(
        1,
        QueuePairConfig {
            depth: 8,
            max_io_bytes: 2 * K128,
        },
        &DmaEngine::new(),
    );
    let (pool, mut tgt) = (ChannelPool::new(chans), tgts.pop().unwrap());
    // A DFS file of `blocks` 8 KiB blocks, block `b` filled with `b + 1`.
    let dist = DispatchType::Distributed;
    let create = FileRequest::Create {
        parent: 0,
        name: "blocks".into(),
        mode: 0o644,
    };
    let meta = Sides {
        dispatch: dist,
        write: Payload::Flat(b""),
        read_len: 0,
    };
    let FileResponse::Ino(dfs_file) = call(&pool, &mut tgt, &mut d, &meta, create) else {
        panic!("no DFS file")
    };
    for b in 0..blocks {
        let block = [b as u8 + 1; 8192];
        let write = Sides {
            dispatch: dist,
            write: Payload::Flat(&block),
            read_len: 0,
        };
        let req = FileRequest::Write {
            ino: dfs_file,
            offset: b * 8192,
            len: 8192,
        };
        assert_eq!(
            call(&pool, &mut tgt, &mut d, &write, req),
            FileResponse::Bytes(8192)
        );
    }

    // One round: an 8 KiB and a 128 KiB KVFS read and an 8 KiB DFS read,
    // staged together, served by one `handle_batch`. Returns the
    // allocations of the DPU side — poll and serve — and checks every
    // byte on the host.
    let (mut batch, mut got) = (FileIncomingBatch::new(), vec![0u8; K128]);
    let mut round = |i: u64| -> u64 {
        let (small, big) = ((i * 8192) % FILE as u64, (i * K128 as u64) % FILE as u64);
        let block = i % blocks;
        let sides = |dispatch, read_len: usize| Sides {
            dispatch,
            write: Payload::Flat(b""),
            read_len: read_len as u32,
        };
        let reads = [
            (
                sides(DispatchType::Standalone, 8192),
                FileRequest::Read {
                    ino: file,
                    offset: small,
                    len: 8192,
                },
            ),
            (
                sides(DispatchType::Standalone, K128),
                FileRequest::Read {
                    ino: file,
                    offset: big,
                    len: K128 as u32,
                },
            ),
            (
                sides(dist, 8192),
                FileRequest::Read {
                    ino: dfs_file,
                    offset: block * 8192,
                    len: 8192,
                },
            ),
        ];
        let mut tickets = [Ticket::default(); 3];
        for ((sides, req), ticket) in reads.iter().zip(&mut tickets) {
            let one = std::slice::from_mut(ticket);
            assert_eq!(pool.stage(0, sides, std::slice::from_ref(req), one), 1);
        }
        let before = thread_alloc_count();
        assert_eq!(tgt.poll_many(&mut batch), 3);
        assert_eq!(d.handle_batch(&batch, &mut tgt), 3);
        let allocs = thread_alloc_count() - before;
        for ((sides, req), &ticket) in reads.iter().zip(&tickets) {
            let FileRequest::Read { offset, len, .. } = *req else {
                unreachable!()
            };
            let len = len as usize;
            let resp = pool
                .wait(ticket, sides, req, |resp, reply| {
                    reply.copy_to(0, &mut got[..len]);
                    resp
                })
                .unwrap();
            assert_eq!(resp, FileResponse::Bytes(len as u32));
            if sides.dispatch == dist {
                assert!(got[..len].iter().all(|&b| b == block as u8 + 1));
            } else {
                let at = offset as usize;
                assert_eq!(&got[..len], &data[at..at + len], "bytes at {at}");
            }
        }
        allocs
    };
    for i in 0..4 {
        round(i);
    }
    let allocs: u64 = (4..68).map(&mut round).sum();
    assert_eq!(
        allocs, 0,
        "{allocs} DPU-side allocations over 64 warm rounds"
    );
}
