//! The zero-reading half of the instrument's self-test. It lives in its
//! own test binary because the counters are global: here it is the only
//! test in the process, so no sibling test allocates inside its window
//! and the harness's main thread sits idle waiting for it.

use abcd_alloc::{delta, snapshot, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn warm_vec_reuse_counts_zero() {
    let mut v: Vec<u64> = Vec::with_capacity(1024);
    v.extend(0..1024);
    v.clear();
    let before = snapshot();
    v.extend(0..1024); // into retained capacity
    let d = delta(before);
    assert_eq!(d.allocs, 0, "{d:?}");
}
