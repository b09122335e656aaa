//! Robustness bench: what fault tolerance costs when nothing faults, and
//! what recovery delivers when something does (PR 6).
//!
//! Four gated numbers, one `ROBUST_JSON {...}` line for CI
//! (`BENCH_robust.json`):
//!
//! * **overhead_ok** — steady-state ms/frame on a demand-paged store with
//!   v2 per-chunk CRC verification vs the same store as an unverified v1
//!   image. Checksums are verified once per page materialization, so warm
//!   frames isolate the residual cost of the fault-tolerant fetch path
//!   (Result plumbing, fault snapshots); the gate is ≤ 5 % overhead.
//!   Cold open+first-frame times are reported as context, not gated.
//! * **churn_ok** — the same comparison on raw records under a 4-page
//!   residency budget per column, so every frame evicts and re-faults its
//!   pages and checksum verification runs at every page-in: what cold
//!   verification costs. The gate is ≤ 1.5× the unverified frame.
//! * **recovery_ok** — a 2 % seeded transient-fault policy on a paged+VQ
//!   trajectory must render bit-identically to the fault-free frames
//!   while the [`DegradationReport`] counts every injected fault as a
//!   retry.
//! * **survive_ok** — a permanent-fault policy must complete the same
//!   trajectory without panicking, losing pages and degrading voxels
//!   (counted, nonzero) instead of failing the frame.

// Benches may unwrap: a panic is exactly the right failure mode here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gs_bench::fmt::{banner, Table};
use gs_bench::setup::build_scene;
use gs_scene::SceneKind;
use gs_voxel::{FaultPolicy, PageConfig, StreamingConfig, StreamingScene};
use gs_vq::VqConfig;
use std::hint::black_box;
use std::time::Instant;

/// Fault-free verified-vs-unverified steady-state overhead gate.
const OVERHEAD_BAR: f64 = 1.05;

/// Verified-vs-unverified gate when every frame re-faults its pages.
const CHURN_BAR: f64 = 1.5;

/// Milliseconds per call of `f`, measured over at least `min_calls` calls
/// and 0.2 s.
fn ms_of(min_calls: u32, mut f: impl FnMut()) -> f64 {
    f(); // warm-up (materializes pages, fills scratch)
    let start = Instant::now();
    let mut calls = 0u32;
    while calls < min_calls || start.elapsed().as_secs_f64() < 0.2 {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() * 1e3 / calls as f64
}

fn main() {
    banner("Robustness — checksum overhead, transient recovery, permanent survival");
    let scene = build_scene(SceneKind::Truck);
    let cam = scene.eval_cameras[0];
    let cams = &scene.eval_cameras[..2.min(scene.eval_cameras.len())];
    let cfg = StreamingConfig {
        voxel_size: scene.voxel_size,
        use_vq: true,
        vq: VqConfig::tiny(),
        threads: 1,
        ..Default::default()
    };
    let page_cfg = PageConfig {
        slots_per_page: 64,
        max_read_attempts: 8,
        ..PageConfig::default()
    };
    // Fault sections use small pages so even a tiny scene spans enough
    // page reads for a per-read fault rate to fire.
    let fault_page_cfg = PageConfig {
        slots_per_page: 8,
        ..page_cfg
    };

    // --- Overhead: v2 verified vs v1 unverified, same paged store. -----
    let resident = StreamingScene::new(scene.trained.clone(), cfg);
    let mut verified = resident.clone();
    let mut unverified = resident.clone();
    let open_v2 = Instant::now();
    verified.page_out(page_cfg);
    let cold_v2 = open_v2.elapsed().as_secs_f64() * 1e3 + {
        let t = Instant::now();
        black_box(verified.render(&cam));
        t.elapsed().as_secs_f64() * 1e3
    };
    let open_v1 = Instant::now();
    unverified.page_out_v1(page_cfg);
    let cold_v1 = open_v1.elapsed().as_secs_f64() * 1e3 + {
        let t = Instant::now();
        black_box(unverified.render(&cam));
        t.elapsed().as_secs_f64() * 1e3
    };
    assert!(
        verified
            .store()
            .page_config()
            .is_some_and(|c| c.verify_checksums)
            && unverified
                .store()
                .page_config()
                .is_some_and(|c| !c.verify_checksums),
        "bench must compare a verified v2 store against an unverified v1 store"
    );
    // Interleaved min-of-rounds: warm frames do identical work on both
    // stores (checksums verify at page materialization, not per frame),
    // so the gate must not trip on scheduler noise.
    let (mut warm_v2, mut warm_v1) = (f64::MAX, f64::MAX);
    for _ in 0..5 {
        warm_v2 = warm_v2.min(ms_of(10, || {
            black_box(verified.render(&cam));
        }));
        warm_v1 = warm_v1.min(ms_of(10, || {
            black_box(unverified.render(&cam));
        }));
    }
    let overhead = warm_v2 / warm_v1;
    let overhead_ok = overhead <= OVERHEAD_BAR;

    // --- Churn: v2 verified vs v1 unverified, pages re-faulted. --------
    let churn_pages = PageConfig {
        slots_per_page: 64,
        max_resident_pages: 4,
        ..PageConfig::default()
    };
    let raw = StreamingScene::new(
        scene.trained.clone(),
        StreamingConfig {
            use_vq: false,
            ..cfg
        },
    );
    let mut churn_verified = raw.clone();
    churn_verified.page_out(churn_pages);
    let mut churn_unverified = raw;
    churn_unverified.page_out_v1(churn_pages);
    let verifies = |s: &StreamingScene| s.store().page_config().map(|c| c.verify_checksums);
    assert!(
        verifies(&churn_verified) == Some(true)
            && verifies(&churn_unverified) == Some(false)
            && !churn_verified.store().is_vq(),
        "churn must compare verified against unverified raw stores"
    );
    let (mut churn_v2, mut churn_v1) = (f64::MAX, f64::MAX);
    for _ in 0..5 {
        churn_v2 = churn_v2.min(ms_of(10, || {
            black_box(churn_verified.render(&cam));
        }));
        churn_v1 = churn_v1.min(ms_of(10, || {
            black_box(churn_unverified.render(&cam));
        }));
    }
    // The budget must make every frame page: far more faults than pages.
    let churn_faults = churn_verified.store().page_faults();
    assert!(
        churn_faults > 10 * churn_verified.store().len() as u64 / 64,
        "a 4-page budget must churn pages ({churn_faults} faults)"
    );
    let churn_overhead = churn_v2 / churn_v1;
    let churn_ok = churn_overhead <= CHURN_BAR;

    // --- Recovery: transient faults must be invisible and counted. -----
    let clean_frames: Vec<_> = cams.iter().map(|c| verified.render(c)).collect();
    let mut faulty = resident.clone();
    faulty
        .page_out_with_faults(fault_page_cfg, FaultPolicy::transient(0xB0B5_7ED5, 50))
        .expect("reopen with transient faults");
    let recover_t = Instant::now();
    let faulty_frames: Vec<_> = cams
        .iter()
        .map(|c| faulty.try_render(c).expect("transient faults must recover"))
        .collect();
    let recover_ms = recover_t.elapsed().as_secs_f64() * 1e3 / cams.len() as f64;
    let retries: u64 = faulty_frames
        .iter()
        .map(|f| f.degradation.page_retries)
        .sum();
    let injected: u64 = faulty_frames
        .iter()
        .map(|f| f.degradation.injected.total())
        .sum();
    let recovered_exact = clean_frames
        .iter()
        .zip(&faulty_frames)
        .all(|(a, b)| a.image == b.image && a.ledger == b.ledger && a.workload == b.workload);
    let recovery_ok = recovered_exact && retries > 0 && retries == injected;

    // --- Survival: permanent faults degrade, never panic. --------------
    let mut dying = resident.clone();
    dying
        .page_out_with_faults(
            fault_page_cfg,
            FaultPolicy {
                seed: 0x0DD_5EED5,
                permanent_per_mille: 150,
                ..FaultPolicy::default()
            },
        )
        .expect("reopen with permanent faults");
    let survive_frames: Vec<_> = cams
        .iter()
        .map(|c| dying.try_render(c).expect("degradation must absorb faults"))
        .collect();
    let pages_lost: u64 = survive_frames
        .iter()
        .map(|f| f.degradation.pages_lost)
        .sum();
    let degraded: u64 = survive_frames
        .iter()
        .map(|f| {
            f.degradation.voxels_skipped + f.degradation.fine_degraded + f.degradation.fine_skipped
        })
        .sum();
    let survive_ok = pages_lost > 0 && degraded > 0;

    let mut table = Table::new(&["measurement", "value"]);
    table.row(&[
        "warm v2 verified (ms/frame)".into(),
        format!("{warm_v2:.3}"),
    ]);
    table.row(&[
        "warm v1 unverified (ms/frame)".into(),
        format!("{warm_v1:.3}"),
    ]);
    table.row(&[
        "overhead".into(),
        format!("{overhead:.3}x (bar {OVERHEAD_BAR:.2}x)"),
    ]);
    table.row(&[
        "churn v2 / v1 (ms/frame)".into(),
        format!("{churn_v2:.3} / {churn_v1:.3}"),
    ]);
    table.row(&[
        "churn overhead".into(),
        format!("{churn_overhead:.3}x (bar {CHURN_BAR:.2}x)"),
    ]);
    table.row(&[
        "cold open+frame v2 / v1 (ms)".into(),
        format!("{cold_v2:.2} / {cold_v1:.2}"),
    ]);
    table.row(&[
        "transient recovery (ms/frame)".into(),
        format!("{recover_ms:.3}"),
    ]);
    table.row(&[
        "retries == injected".into(),
        format!("{retries} == {injected}"),
    ]);
    table.row(&["recovered bit-exact".into(), recovered_exact.to_string()]);
    table.row(&[
        "pages lost / degraded voxels".into(),
        format!("{pages_lost} / {degraded}"),
    ]);
    println!("{table}");

    println!(
        "ROBUST_JSON {{\"bench\":\"robust\",\"cores\":{},\"scene\":\"{}\",\"warm_verified_ms\":{:.4},\"warm_unverified_ms\":{:.4},\"overhead\":{:.4},\"overhead_bar\":{OVERHEAD_BAR},\"churn_verified_ms\":{:.4},\"churn_unverified_ms\":{:.4},\"churn_overhead\":{:.4},\"churn_bar\":{CHURN_BAR},\"cold_v2_ms\":{:.3},\"cold_v1_ms\":{:.3},\"recover_ms\":{:.4},\"retries\":{},\"injected\":{},\"pages_lost\":{},\"degraded_voxels\":{},\"overhead_ok\":{},\"churn_ok\":{},\"recovery_ok\":{},\"survive_ok\":{}}}",
        gs_bench::setup::cores(),
        SceneKind::Truck.name(),
        warm_v2,
        warm_v1,
        overhead,
        churn_v2,
        churn_v1,
        churn_overhead,
        cold_v2,
        cold_v1,
        recover_ms,
        retries,
        injected,
        pages_lost,
        degraded,
        overhead_ok,
        churn_ok,
        recovery_ok,
        survive_ok
    );
}
