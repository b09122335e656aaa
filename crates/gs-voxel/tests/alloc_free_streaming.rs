//! Proves the whole warm group render is allocation-free in steady state.
//!
//! PR 2's counting-allocator test covered the ordering path alone; the CSR
//! group-loop rework extends the zero-alloc property to the entire frame:
//! after warming a [`StreamingScene`] and a reusable [`StreamingOutput`],
//! re-rendering the same camera through [`StreamingScene::render_into`]
//! must perform **zero** heap allocations — resident store, cache on or
//! off. Paged stores are covered too: after the page set and the staging
//! buffer pool warmed up, paged coarse fetches (and whole paged frames)
//! allocate nothing either — and neither does a bounded page budget that
//! evicts and re-faults pages every frame, because page frames are
//! recycled.
//!
//! The counting allocator is process-global, so this lives in its own
//! integration-test binary, and every test holds [`MEASURE`] for its whole
//! body: libtest runs tests on parallel threads, and one test's setup
//! must not allocate inside another test's measured window.

use gs_mem::cache::CacheConfig;
use gs_mem::TrafficLedger;
use gs_scene::{SceneConfig, SceneKind};
use gs_voxel::{PageConfig, QualityPolicy, StreamingConfig, StreamingOutput, StreamingScene};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

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

fn measure_alone() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the others still measure alone.
    MEASURE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Renders `frames` warm frames and returns the allocations they made.
fn allocs_over_warm_frames(scene: &StreamingScene, frames: u32) -> u64 {
    let cam = gs_core::camera::Camera::look_at(
        gs_core::vec::Vec3::new(0.4, 0.3, -7.5),
        gs_core::vec::Vec3::ZERO,
        gs_core::vec::Vec3::Y,
        160,
        120,
        0.9,
    );
    let mut out = StreamingOutput::default();
    // Warm-up: grows every scratch buffer, the output's buffers, and (for
    // cached configs) the working-set cache's per-set tag lists.
    scene.render_into(&cam, &mut out);
    scene.render_into(&cam, &mut out);
    assert!(out.workload.totals().gaussians_streamed > 0);

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..frames {
        scene.render_into(&cam, &mut out);
    }
    ALLOCS.load(Ordering::Relaxed) - before
}

fn scene_with(cache: Option<CacheConfig>) -> StreamingScene {
    scene_from(|base| StreamingConfig { cache, ..base })
}

/// The Truck test scene with `tweak` applied to its base configuration.
fn scene_from(tweak: impl FnOnce(StreamingConfig) -> StreamingConfig) -> StreamingScene {
    let scene = SceneKind::Truck.build(&SceneConfig::tiny());
    StreamingScene::new(
        scene.trained.clone(),
        tweak(StreamingConfig {
            voxel_size: scene.voxel_size,
            // One explicit worker: the serial group loop, no
            // `available_parallelism` query inside the measured region.
            threads: 1,
            ..Default::default()
        }),
    )
}

#[test]
fn warm_resident_render_performs_zero_allocations() {
    let _alone = measure_alone();
    let scene = scene_with(None);
    assert_eq!(
        allocs_over_warm_frames(&scene, 4),
        0,
        "steady-state resident streaming render must not allocate"
    );
}

#[test]
fn warm_cached_render_performs_zero_allocations() {
    let _alone = measure_alone();
    let scene = scene_with(Some(CacheConfig::default()));
    assert_eq!(
        allocs_over_warm_frames(&scene, 4),
        0,
        "steady-state cached streaming render must not allocate"
    );
}

#[test]
fn warm_paged_render_performs_zero_allocations() {
    let _alone = measure_alone();
    // Unbounded page budget: after warm-up every page is resident and the
    // staging-buffer pool covers the largest voxel, so even the paged
    // backing renders without allocating.
    let mut scene = scene_with(None);
    scene.page_out(PageConfig {
        slots_per_page: 64,
        max_resident_pages: 0,
        ..PageConfig::default()
    });
    assert_eq!(
        allocs_over_warm_frames(&scene, 4),
        0,
        "steady-state paged streaming render must not allocate"
    );
}

/// Renders warm frames over a Truck store paged out with a 4-page budget
/// per column, so every frame evicts and re-faults pages, and checks the
/// churn happened and allocated nothing.
fn assert_bounded_paging_is_allocation_free(threads: usize) {
    let mut scene = scene_from(|base| StreamingConfig { threads, ..base });
    scene.page_out(PageConfig {
        slots_per_page: 64,
        max_resident_pages: 4,
        verify_checksums: true,
        ..PageConfig::default()
    });
    let faults_before = scene.store().page_faults();
    let allocs = allocs_over_warm_frames(&scene, 4);
    // Warm-up frames fault too, so at least the measured frames churned.
    assert!(
        scene.store().page_faults() > faults_before + 100,
        "the budget must force page churn"
    );
    assert_eq!(
        allocs, 0,
        "steady-state bounded paging must not allocate ({threads} threads): \
         page frames are recycled"
    );
}

#[test]
fn warm_bounded_paged_render_performs_zero_allocations() {
    // Evicted page frames return to a per-column spare list and the next
    // fill reads into one in place, so churning pages allocates nothing.
    let _alone = measure_alone();
    assert_bounded_paging_is_allocation_free(1);
}

#[test]
fn warm_bounded_paged_two_thread_render_performs_zero_allocations() {
    let _alone = measure_alone();
    assert_bounded_paging_is_allocation_free(2);
}

#[test]
fn warm_paged_coarse_fetches_perform_zero_allocations() {
    let _alone = measure_alone();
    // The satellite fix in isolation: paged `fetch_coarse` used to build
    // one staging `Vec` per voxel; the return-on-drop buffer pool makes
    // the steady state allocation-free.
    let scene = scene_with(None);
    let paged = scene.store().paged_twin(PageConfig {
        slots_per_page: 32,
        max_resident_pages: 0,
        ..PageConfig::default()
    });
    let mut ledger = TrafficLedger::new();
    let mut checksum = 0u64;
    // Warm-up: materializes every page and grows the pooled buffer.
    for v in 0..paged.voxel_count() as u32 {
        for (slot, _, _) in paged.fetch_coarse(v, &mut ledger) {
            checksum += slot as u64;
        }
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    let mut again = 0u64;
    for _ in 0..3 {
        again = 0;
        for v in 0..paged.voxel_count() as u32 {
            for (slot, _, _) in paged.fetch_coarse(v, &mut ledger) {
                again += slot as u64;
            }
        }
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(again, checksum);
    assert_eq!(
        allocs, 0,
        "warm paged coarse fetches must not allocate (buffer pool)"
    );
}

#[test]
fn warm_two_thread_render_performs_zero_allocations() {
    // Two explicit workers: every frame dispatches its groups through
    // `WorkerPool::run_claimed` inside the measured window.
    let _alone = measure_alone();
    let scene = scene_from(|base| StreamingConfig { threads: 2, ..base });
    assert_eq!(
        allocs_over_warm_frames(&scene, 4),
        0,
        "steady-state two-thread streaming render must not allocate"
    );
}

#[test]
fn warm_cached_multi_executor_renders_perform_zero_allocations() {
    // Groups are claimed dynamically, so which executor runs which group
    // (and so whose scratch grows) changes every frame; the claim path,
    // the per-group trace spans and the span-ordered cache replay all run
    // inside the measured window.
    let _alone = measure_alone();
    for threads in [2, 3] {
        let scene = scene_from(|base| StreamingConfig {
            threads,
            cache: Some(CacheConfig::default()),
            ..base
        });
        assert_eq!(
            allocs_over_warm_frames(&scene, 4),
            0,
            "steady-state cached {threads}-thread streaming render must not allocate"
        );
    }
}

#[test]
fn warm_tiered_renders_perform_zero_allocations() {
    // Every tier-selecting policy runs the per-frame tier pre-pass; its
    // scratch (including the byte budget's claim order) must be reused.
    let _alone = measure_alone();
    for quality in [
        QualityPolicy::ScreenSpaceError { threshold: 64.0 },
        QualityPolicy::Hysteresis {
            threshold: 64.0,
            margin: 0.25,
        },
        QualityPolicy::ByteBudget { bytes: 60_000 },
    ] {
        let scene = scene_from(|base| StreamingConfig {
            tiers: StreamingConfig::default_tier_ladder(),
            quality,
            ..base
        });
        assert_eq!(scene.store().tier_count(), 3);
        assert_eq!(
            allocs_over_warm_frames(&scene, 4),
            0,
            "steady-state tiered streaming render must not allocate ({quality:?})"
        );
    }
}
