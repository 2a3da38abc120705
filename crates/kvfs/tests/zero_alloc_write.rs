//! Steady-state allocation accounting for a flush batch.
//!
//! Claim under test (DESIGN.md §9.4): a warm `Kvfs::write_blocks` of
//! scattered in-place runs over a big file's existing blocks is one
//! multi-key sub-write whose keys — the blocks', then the attribute's —
//! are built on the stack, and the store updates each existing key in
//! place without allocating it — so a batch writes **without a heap
//! allocation**, as one `write_sub` of one existing block always did. The
//! counting allocator hook is per-binary, which is why this lives in its
//! own integration-test file.

use std::sync::Arc;

use dpc_kvfs::{Kvfs, BIG_BLOCK};
use dpc_kvstore::KvStore;
use dpc_pcie::alloc::{counting_enabled, thread_alloc_count, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn a_warm_in_place_batch_allocates_nothing() {
    assert!(counting_enabled(), "counting allocator must be installed");
    let fs = Kvfs::new(Arc::new(KvStore::new()));
    let ino = fs.create("/big", 0o644).unwrap();
    fs.write(ino, 0, &vec![1u8; 64 * BIG_BLOCK]).unwrap();
    let page = [7u8; 4096];
    // Sixteen one-page runs on every fourth page (a block each, first or
    // second half), and one aligned 3-block run: 19 block keys and the
    // attribute's, none new.
    let mut runs = [(0u64, &page[..]); 17];
    for (k, run) in runs.iter_mut().take(16).enumerate() {
        run.0 = (k * 4 + k % 2) as u64 * 4096;
    }
    let three = vec![9u8; 3 * BIG_BLOCK];
    runs[16] = (40 * BIG_BLOCK as u64, &three[..]);
    // Cold: the attribute is fetched and cached.
    assert_eq!(
        fs.write_blocks(ino, runs).unwrap(),
        16 * 4096 + 3 * BIG_BLOCK
    );

    let (keys, kv, allocs) = (fs.store().len(), fs.store().stats(), thread_alloc_count());
    for _ in 0..10 {
        fs.write_blocks(ino, runs).unwrap();
    }
    assert_eq!(thread_alloc_count() - allocs, 0, "a warm batch allocated");
    let now = fs.store().stats();
    assert_eq!(now.sub_writes - kv.sub_writes, 10, "one request a batch");
    assert_eq!(now.sub_write_keys - kv.sub_write_keys, 10 * 20);
    assert_eq!((now.gets, now.puts), (kv.gets, kv.puts));
    assert_eq!(fs.store().len(), keys, "no block was created");
    assert_eq!(fs.big_file_blocks(ino), 64);
    let mut back = [0u8; 4096];
    fs.read(ino, 5 * 4096, &mut back).unwrap();
    assert_eq!(back, page);
}
