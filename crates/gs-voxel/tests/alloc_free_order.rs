//! Proves the VSU ordering path is allocation-free in steady state.
//!
//! A counting global allocator wraps the system allocator; after warming an
//! [`OrderScratch`] with the workload, re-running the exact ordering must
//! perform **zero** heap allocations. This is the strong form of the
//! capacity-stability unit test in `order.rs` — it catches hidden
//! allocations (heap growth, temporary collections) that capacity checks on
//! known buffers would miss.
//!
//! The counting allocator is process-global, so this lives in its own
//! integration-test binary, and every test holds [`MEASURE`] for its whole
//! body so a test added later cannot allocate inside this one's window.

use gs_voxel::order::{topological_order_into, OrderScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Serializes the tests of this binary (see the module docs).
static MEASURE: Mutex<()> = Mutex::new(());

#[test]
fn warm_order_scratch_performs_zero_allocations() {
    let _alone = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    // A group-sized workload: overlapping forward chains plus a couple of
    // contradictory rays so the cycle-break path is exercised too.
    let mut lists: Vec<Vec<u32>> = (0..32u32).map(|r| (r..r + 48).collect()).collect();
    lists.push((0..40u32).rev().collect());
    let depth_of = |v: u32| v as f32 * 0.25;

    let mut scratch = OrderScratch::new();
    let mut out = Vec::new();
    // Warm-up: grows every buffer to its steady-state size.
    topological_order_into(&lists, depth_of, &mut scratch, &mut out);
    let warm_len = out.len();

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..8 {
        let stats = topological_order_into(&lists, depth_of, &mut scratch, &mut out);
        assert_eq!(out.len(), warm_len);
        assert!(stats.edges > 0);
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state topological ordering must not allocate"
    );
}
