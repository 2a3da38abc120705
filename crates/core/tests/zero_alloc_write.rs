//! Steady-state allocation accounting for the warm buffered write.
//!
//! Claim under test: an aligned 8 KiB buffered overwrite of resident pages
//! makes **no heap allocation on the calling thread**. The write claims
//! its two pages in a fixed array, crosses nothing, logs nothing (the
//! dirty pages are the record, DESIGN.md §4.4) and commits. The counting
//! allocator hook is per-binary, which is why this lives in its own
//! integration-test file.

use dpc_core::{Dpc, DpcConfig, DpcFs, Fd};
use dpc_pcie::alloc::{counting_enabled, thread_alloc_count, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const FILE_BYTES: usize = 8 << 20;
const WRITE: usize = 8192;

/// An 8 MiB file, written and fsynced: every page resident and clean.
fn resident_file(dpc: &Dpc) -> (DpcFs, Fd) {
    let fs = dpc.fs();
    let fd = fs.create("/w").unwrap();
    assert_eq!(fs.write(fd, 0, &vec![1u8; FILE_BYTES]).unwrap(), FILE_BYTES);
    fs.fsync(fd).unwrap();
    (fs, fd)
}

/// `n` uniform aligned 8 KiB overwrites: the host-thread allocations the
/// writes made.
fn count_writes(fs: &DpcFs, fd: Fd, n: usize) -> u64 {
    let buf = [7u8; WRITE];
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut allocs = 0;
    for _ in 0..n {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let at = (rng as usize % (FILE_BYTES / WRITE)) * WRITE;
        let before = thread_alloc_count();
        assert_eq!(fs.write(fd, at as u64, &buf).unwrap(), WRITE);
        allocs += thread_alloc_count() - before;
    }
    allocs
}

#[test]
fn a_warm_8k_overwrite_allocates_nothing_on_the_host_thread() {
    assert!(counting_enabled(), "counting allocator must be installed");
    let dpc = Dpc::new(DpcConfig::default());
    let (fs, fd) = resident_file(&dpc);
    // Dirty every page once, so the counted writes re-dirty dirty pages.
    for at in (0..FILE_BYTES).step_by(WRITE) {
        fs.write(fd, at as u64, &[3u8; WRITE]).unwrap();
    }
    assert_eq!(count_writes(&fs, fd, 1_000), 0);
    assert_eq!(dpc.metrics().cache.wal_appends, 0);
}
