//! Steady-state allocation accounting for the warm read-miss path.
//!
//! Claim under test: a buffered 8 KiB read that misses the host cache —
//! its runs staged through the channel pool, waited in order, each reply
//! landed from its transport buffer — makes **no heap allocation on the
//! calling thread**. No result or request vector, no waiter per command,
//! no completion buffer (DESIGN.md §7, §17). An `IoMode::Direct` read —
//! every read a crossing, landed the same way — makes none either. The
//! DPU threads are not counted: the claim is the host CPU's. The counting
//! allocator hook is per-binary, which is why this lives in its own
//! integration-test file.

use dpc_core::{Dpc, DpcConfig, IoMode};
use dpc_pcie::alloc::{counting_enabled, thread_alloc_count, CountingAllocator};

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
