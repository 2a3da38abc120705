//! A counting global allocator for zero-allocation assertions.
//!
//! The batched nvme-fs fast path promises no heap allocation per op once
//! its recycled buffers are warm. That claim is only checkable from a
//! binary that installs [`CountingAllocator`] as its `#[global_allocator]`
//! (the hook is per-binary), so the counters live here in the measurement
//! crate and the binaries that want them opt in:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: dpc_pcie::alloc::CountingAllocator =
//!     dpc_pcie::alloc::CountingAllocator;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The calling thread's share of `ALLOCS`. Const-initialised with no
    /// destructor, so touching it never allocates (no recursion).
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation, globally and for the calling thread (skipped for
/// a thread whose locals are already torn down).
fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Pass-through wrapper over the system allocator that counts every
/// allocation and reallocation (frees are not counted — the invariant
/// under test is "no new memory requested").
pub struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Number of allocations since process start (0 unless the counting
/// allocator is installed in this binary).
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations the calling thread has made: [`alloc_count`] without the
/// other threads' noise (the test harness, a server thread).
pub fn thread_alloc_count() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Bytes requested since process start.
pub fn alloc_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}

/// Whether this binary actually routes allocations through the counting
/// allocator (probe with a real allocation; reports `false` under the
/// default system allocator so callers can print "-" instead of a bogus
/// zero).
pub fn counting_enabled() -> bool {
    let before = alloc_count();
    let v: Vec<u8> = Vec::with_capacity(64);
    std::hint::black_box(&v);
    drop(v);
    alloc_count() != before
}
