//! Steady-state allocation accounting for the DPU-side path walk.
//!
//! Claim under test (DESIGN.md §9.2): once KVFS's name and
//! attribute caches hold a path, `walk`, `lookup` and `get_attr` answer
//! **without a heap allocation** — no `String` per component to key the
//! probe — and so does a `lookup` of a name that is not there, which
//! misses the cache and asks the store with a key built on the stack. The
//! host half has the same pin in `crates/core/tests/zero_alloc_meta.rs`;
//! the counting allocator hook is per-binary, which is why this lives in
//! its own integration-test file.

use std::sync::Arc;

use dpc_kvfs::{FsError, Kvfs, ROOT_INO};
use dpc_kvstore::KvStore;
use dpc_pcie::alloc::{alloc_count, counting_enabled, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn a_warm_walk_lookup_and_get_attr_allocate_nothing() {
    assert!(counting_enabled(), "counting allocator must be installed");
    let fs = Kvfs::new(Arc::new(KvStore::new()));
    fs.mkdir("/a", 0o755).unwrap();
    fs.mkdir("/a/b", 0o755).unwrap();
    let c = fs.mkdir("/a/b/c", 0o755).unwrap();
    let leaf = fs.create("/a/b/c/leaf", 0o644).unwrap();
    let round = || {
        assert_eq!(fs.walk(ROOT_INO, "/a/b/c/leaf", &mut |_| {}), Ok(leaf));
        assert_eq!(fs.lookup(c, "leaf"), Ok(leaf));
        assert_eq!(fs.get_attr(leaf).map(|a| a.ino), Ok(leaf));
        assert_eq!(fs.lookup(c, "ghost"), Err(FsError::NotFound));
    };
    // Cold: the root's attribute is fetched and cached.
    round();

    let (stats, kv, allocs) = (fs.lookup_stats(), fs.store().stats(), alloc_count());
    for _ in 0..10 {
        round();
    }
    assert_eq!(alloc_count() - allocs, 0, "a warm round allocated");
    // Nothing but the ghost went to the store, once a round.
    let (now, kv_now) = (fs.lookup_stats(), fs.store().stats());
    assert_eq!(now.dentry_hits - stats.dentry_hits, 10 * 5);
    assert_eq!(now.dentry_misses - stats.dentry_misses, 10);
    assert_eq!(now.inode_misses, stats.inode_misses);
    assert_eq!(kv_now.gets - kv.gets, 10);
}
