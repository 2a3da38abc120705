//! Steady-state allocation accounting for a big-file read.
//!
//! Claim under test (DESIGN.md §9.4): a warm `Kvfs::read` of a big file is
//! one multi-key sub-read whose block keys (`0x04 ‖ ino ‖ lbn`) are built
//! on the stack, so 16 blocks read **without a heap allocation** — one key
//! per block was allocated when every block was its own request. The
//! counting allocator hook is per-binary, which is why this lives in its
//! own integration-test file.

use std::sync::Arc;

use dpc_kvfs::{Kvfs, BIG_BLOCK};
use dpc_kvstore::KvStore;
use dpc_pcie::alloc::{counting_enabled, thread_alloc_count, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn a_warm_16_block_read_allocates_nothing() {
    assert!(counting_enabled(), "counting allocator must be installed");
    let fs = Kvfs::new(Arc::new(KvStore::new()));
    let ino = fs.create("/big", 0o644).unwrap();
    let data: Vec<u8> = (0..64 * BIG_BLOCK).map(|i| (i % 251) as u8).collect();
    fs.write(ino, 0, &data).unwrap();
    let mut buf = vec![0u8; 16 * BIG_BLOCK];
    // Aligned, and unaligned: 17 blocks, the first and last partial.
    let round = |buf: &mut [u8]| {
        for offset in [0, 16 * BIG_BLOCK, 40 * BIG_BLOCK + 123] {
            assert_eq!(fs.read(ino, offset as u64, buf).unwrap(), buf.len());
            assert_eq!(buf, &data[offset..offset + buf.len()]);
        }
    };
    // Cold: the attribute is fetched and cached.
    round(&mut buf);

    let (kv, allocs) = (fs.store().stats(), thread_alloc_count());
    for _ in 0..10 {
        round(&mut buf);
    }
    assert_eq!(thread_alloc_count() - allocs, 0, "a warm read allocated");
    let now = fs.store().stats();
    assert_eq!(now.sub_reads - kv.sub_reads, 30, "one request a read");
    assert_eq!(now.sub_read_keys - kv.sub_read_keys, 10 * (16 + 16 + 17));
    assert_eq!(now.gets, kv.gets);
}
