//! A counting global allocator for the zero-allocation prove-path gates.
//!
//! The analysis crates (`abcd-ir`, `abcd`, `abcd-bench`) all
//! `forbid(unsafe_code)`, and a `GlobalAlloc` impl is necessarily unsafe —
//! so the instrument lives in this leaf crate, which nothing on the prove
//! path depends on. Register it in a test or bench binary:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: abcd_alloc::CountingAlloc = abcd_alloc::CountingAlloc;
//! ```
//!
//! then bracket the region under measurement with [`snapshot`]/[`delta`].
//! Counters are global and monotonic; concurrent allocations from other
//! threads are counted too, so gates should measure on a single thread.

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts every allocation.
///
/// `realloc` counts as one allocation of the new size (it may move and
/// copy, which is exactly the steady-state cost the gates exist to catch);
/// `dealloc` is not counted — the gates assert on acquisition, not
/// lifetime.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// A point-in-time reading of the global counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocations (including reallocs) observed so far.
    pub allocs: u64,
    /// Bytes requested so far.
    pub bytes: u64,
}

/// Reads the current counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Counter movement since `before`.
pub fn delta(before: Snapshot) -> Snapshot {
    let now = snapshot();
    Snapshot {
        allocs: now.allocs - before.allocs,
        bytes: now.bytes - before.bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary registers the allocator itself so the counters move.
    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    #[test]
    fn counts_a_vec_allocation() {
        let before = snapshot();
        let v: Vec<u64> = Vec::with_capacity(1024);
        let d = delta(before);
        assert!(d.allocs >= 1, "{d:?}");
        assert!(d.bytes >= 8 * 1024, "{d:?}");
        drop(v);
    }
}
