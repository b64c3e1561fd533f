//! Counting global allocator for steady-state allocation audits.
//!
//! Compiled only under the `alloc-audit` feature: enabling it installs a
//! [`GlobalAlloc`] wrapper around the system allocator that counts every
//! allocation event (alloc + realloc) and the bytes requested. The
//! counters let tests pin "zero allocations per committed fast-path
//! transaction" as a regression gate and let `engine_baseline` report an
//! `allocs_per_txn` column.
//!
//! The wrapper costs two relaxed atomic increments per allocation, so it
//! stays out of default builds; run audits with
//! `cargo test -p dvp-bench --features alloc-audit`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
thread_local! {
    // Const-initialised and drop-free, so touching it never allocates.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapped with relaxed event counters.
pub struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the counters are side effects
// with no influence on the returned pointers or layouts.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        count_thread_alloc();
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow-in-place still moves the high-water mark: count it as an
        // allocation event so Vec doublings are visible to audits.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        count_thread_alloc();
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn count_thread_alloc() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events so far (allocs + reallocs, process-wide).
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocation events so far on the calling thread only. Gates that run
/// a single-threaded simulation measure with this, so other threads —
/// the test harness, concurrently running tests — cannot pollute them.
pub fn thread_alloc_count() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Deallocation events so far.
pub fn dealloc_count() -> u64 {
    DEALLOCS.load(Ordering::Relaxed)
}

/// Total bytes requested so far.
pub fn bytes_allocated() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_observe_an_allocation() {
        let before = alloc_count();
        let v: Vec<u64> = Vec::with_capacity(32);
        assert!(alloc_count() > before, "Vec::with_capacity must be counted");
        drop(v);
        assert!(dealloc_count() > 0);
        assert!(bytes_allocated() >= 32 * 8);
    }
}
