//! Steady-state allocation accounting for the DFS block data path.
//!
//! Claim under test: once the client's recycled swap and delta buffers,
//! the caller's read buffer and the data servers' stored cells exist, a
//! healthy `read_block_into` and an in-place overwrite `write_block` —
//! lazy metadata flushes included — perform **zero** heap allocations;
//! the read is exactly one data-server RPC and the overwrite `1 + m`.
//!
//! The counting allocator hook is per-binary, which is why this is one
//! test in a file of its own. It counts the calling thread's allocations:
//! the client, the metadata servers and the data servers all run on that
//! thread (the backend spawns none), so the claim keeps its reach, and
//! another thread of the process — the harness's — cannot dirty it. The
//! process-wide count once read 4 for the overwrites in 1 of 300 runs
//! beside a busy box, with 0 on this thread.

use std::sync::atomic::Ordering;

use dpc_dfs::{ClientCore, DfsBackend, DfsConfig, DFS_BLOCK};
use dpc_pcie::alloc::{counting_enabled, thread_alloc_count, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn warm_block_reads_and_overwrites_allocate_nothing() {
    assert!(
        counting_enabled(),
        "counting allocator must be installed in this binary"
    );
    const BLOCKS: u64 = 32;
    let backend = DfsBackend::new(DfsConfig::default());
    let ds_rpcs = || -> u64 {
        (0..backend.data_server_count())
            .map(|i| backend.data_server(i).rpcs.load(Ordering::Relaxed))
            .sum()
    };
    let mut core = ClientCore::new(backend.clone(), 1);
    let (attr, _) = core.create(0, "f").unwrap();
    let data: Vec<u8> = (0..DFS_BLOCK).map(|i| (i * 31 % 251) as u8).collect();
    let mut out = Vec::new();
    // Warm-up: first writes insert the cells and size every buffer; two
    // passes so the lazy metadata batch has flushed at least once.
    for _ in 0..2 {
        for b in 0..BLOCKS {
            core.write_block(attr.ino, b, &data).unwrap();
            core.read_block_into(attr.ino, b, &mut out).unwrap();
        }
    }

    let (before, rpcs_before) = (thread_alloc_count(), ds_rpcs());
    for b in 0..BLOCKS {
        core.read_block_into(attr.ino, b, &mut out).unwrap();
    }
    assert_eq!(thread_alloc_count() - before, 0, "healthy reads allocated");
    assert_eq!(
        ds_rpcs() - rpcs_before,
        BLOCKS,
        "a healthy read is exactly one data-server RPC"
    );
    assert_eq!(out, data);

    let (before, rpcs_before) = (thread_alloc_count(), ds_rpcs());
    for b in 0..BLOCKS {
        // 32 writes at a metadata batch of 16: two flushes included.
        core.write_block(attr.ino, b, &data).unwrap();
    }
    assert_eq!(
        thread_alloc_count() - before,
        0,
        "in-place overwrites allocated"
    );
    assert_eq!(
        ds_rpcs() - rpcs_before,
        BLOCKS * (1 + backend.cfg.ec_m as u64),
        "an overwrite is one swap and m deltas"
    );
}
