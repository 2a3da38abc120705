//! Steady-state allocation accounting for the warm metadata path.
//!
//! Claim under test (DESIGN.md §4.7): once the host metadata cache holds a
//! path, `stat`, `open` + `close` and `readdir_into` (into a recycled
//! buffer) answer without a crossing **and without a heap allocation** —
//! no `String` per path component, no `Arc` per descriptor, no clone per
//! directory entry. The transport has the same pin in
//! `crates/nvmefs/tests/zero_alloc.rs`; the counting allocator hook is
//! per-binary, which is why this lives in its own integration-test file.

use dpc_core::{Dpc, DpcConfig};
use dpc_pcie::alloc::{alloc_count, counting_enabled, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn warm_stat_open_close_and_readdir_allocate_nothing() {
    assert!(counting_enabled(), "counting allocator must be installed");
    let dpc = Dpc::new(DpcConfig::default());
    let fs = dpc.fs();
    fs.mkdir("/deep").unwrap();
    fs.mkdir("/deep/dir").unwrap();
    let paths: Vec<String> = (0..64).map(|i| format!("/deep/dir/file{i:02}")).collect();
    for p in &paths {
        let fd = fs.create(p).unwrap();
        fs.close(fd).unwrap();
    }
    let mut listing = Vec::new();
    let mut round = |fs: &dpc_core::DpcFs| {
        fs.readdir_into("/deep/dir", &mut listing).unwrap();
        assert_eq!(listing.len(), paths.len());
        for p in &paths {
            assert_eq!(fs.stat(p).unwrap().kind, 0);
            let fd = fs.open(p).unwrap();
            fs.close(fd).unwrap();
        }
        assert_eq!(fs.stat("/deep/dir/ghost").unwrap_err().errno(), 2);
    };
    // Cold: fills the cache, the listing buffer and the descriptor table.
    round(&fs);
    round(&fs);

    let (calls, allocs) = (dpc.pool_stats().submitted, alloc_count());
    for _ in 0..10 {
        round(&fs);
    }
    assert_eq!(dpc.pool_stats().submitted, calls, "a warm round crossed");
    assert_eq!(alloc_count() - allocs, 0, "a warm round allocated");
}
