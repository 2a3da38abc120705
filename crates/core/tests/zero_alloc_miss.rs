//! Steady-state allocation accounting for the warm read-miss path.
//!
//! Claim under test: a buffered 8 KiB read that misses the host cache —
//! its runs staged through the channel pool, waited in order, each reply
//! landed from its CID's mailbox — makes **no heap allocation on the
//! calling thread** once the pool's mailboxes are warm. No result or
//! request vector, no waiter per command, no fresh completion buffers
//! (DESIGN.md §7). The DPU threads are not counted: the claim is the host
//! CPU's. The counting allocator hook is per-binary, which is why this
//! lives in its own integration-test file.

use dpc_core::{Dpc, DpcConfig};
use dpc_pcie::alloc::{counting_enabled, thread_alloc_count, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const FILE_BYTES: usize = 8 << 20;
const READ: usize = 8192;

/// The byte at file offset `at`.
fn byte_at(at: usize) -> u8 {
    (at / READ) as u8 ^ (at % 251) as u8
}

#[test]
fn a_warm_8k_read_miss_allocates_nothing_on_the_host_thread() {
    assert!(counting_enabled(), "counting allocator must be installed");
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
    // Reopened cold, with a cache an eighth of the file: most reads miss.
    let cfg = DpcConfig {
        cache_pages: 256,
        ..DpcConfig::default()
    };
    let dpc = Dpc::with_shared_storage(cfg, Some(store), None);
    let fs = dpc.fs();
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
    for _ in 0..4_000 {
        read_one();
    }
    let (allocs, calls) = (thread_alloc_count(), dpc.pool_stats().submitted);
    for _ in 0..4_000 {
        read_one();
    }
    let (allocs, calls) = (
        thread_alloc_count() - allocs,
        dpc.pool_stats().submitted - calls,
    );
    assert!(calls > 3_000, "only {calls} of 4 000 reads crossed");
    assert_eq!(
        allocs, 0,
        "{allocs} host-thread allocations over {calls} misses"
    );
}
