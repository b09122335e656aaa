//! Thread-count determinism of the streaming renderer and the group-size
//! validation contract.

use gs_scene::{SceneConfig, SceneKind};
use gs_voxel::{StreamingConfig, StreamingScene};

#[test]
fn streaming_render_is_thread_count_invariant() {
    for kind in [SceneKind::Lego, SceneKind::Truck] {
        let scene = kind.build(&SceneConfig::tiny());
        let cam = &scene.eval_cameras[0];
        let base = StreamingConfig {
            voxel_size: scene.voxel_size,
            ..Default::default()
        };
        let seq = StreamingScene::new(
            scene.trained.clone(),
            StreamingConfig { threads: 1, ..base },
        )
        .render(cam);
        // 3 and 7 oversubscribe a 2-core host: more executors than cores
        // claim groups, so claims interleave differently on every run.
        for threads in [2, 3, 5, 7, 0] {
            let par =
                StreamingScene::new(scene.trained.clone(), StreamingConfig { threads, ..base })
                    .render(cam);
            assert_eq!(seq.image, par.image, "threads={threads} changed the image");
            assert_eq!(
                seq.workload.totals(),
                par.workload.totals(),
                "threads={threads} changed the workload"
            );
            assert_eq!(
                seq.violations.violating_blends, par.violations.violating_blends,
                "threads={threads} changed the violation count"
            );
            assert_eq!(seq.violations.flags, par.violations.flags);
        }
    }
}

#[test]
fn repeated_streaming_frames_are_stable() {
    // The persistent pool + per-executor scratch must not leak state across
    // frames or cameras.
    let scene = SceneKind::Lego.build(&SceneConfig::tiny());
    let streaming = StreamingScene::new(
        scene.trained.clone(),
        StreamingConfig {
            voxel_size: scene.voxel_size,
            threads: 3,
            ..Default::default()
        },
    );
    let mut firsts = Vec::new();
    for cam in &scene.eval_cameras {
        firsts.push(streaming.render(cam));
    }
    for (cam, first) in scene.eval_cameras.iter().zip(&firsts) {
        let again = streaming.render(cam);
        assert_eq!(again.image, first.image);
        assert_eq!(again.workload.totals(), first.workload.totals());
    }
}

#[test]
fn fewer_groups_than_workers_is_thread_count_invariant() {
    // A group size that leaves fewer pixel groups than workers: the
    // executor count is capped at the group count, and the idle scratch
    // slots must merge as empty. Every observable — image, per-tile
    // workload records, ledger, violations — must be byte-identical to
    // the serial walk.
    let scene = SceneKind::Truck.build(&SceneConfig::tiny());
    let base = StreamingConfig {
        voxel_size: scene.voxel_size,
        group_size: 128, // 160×120 frame → 2×1 groups
        ..Default::default()
    };
    let seq = StreamingScene::new(
        scene.trained.clone(),
        StreamingConfig { threads: 1, ..base },
    );
    let par = StreamingScene::new(
        scene.trained.clone(),
        StreamingConfig { threads: 8, ..base },
    );
    for cam in &scene.eval_cameras {
        let a = seq.render(cam);
        let b = par.render(cam);
        assert_eq!(a.image, b.image);
        assert_eq!(a.workload, b.workload, "per-tile records must match");
        assert_eq!(a.ledger, b.ledger, "ledger must be thread-invariant");
        assert_eq!(a.violations.flags, b.violations.flags);
    }
}

#[test]
fn per_group_records_are_thread_count_invariant() {
    use gs_core::camera::Camera;
    use gs_core::vec::Vec3;

    // 160×120 at group size 64 is 3×2 = 6 groups, four of them cut by
    // the frame edge, claimed by 4 executors in whatever order they free
    // up: every per-group record, the merged ledger, the violations and
    // the degradation report must match the serial walk.
    let scene = SceneKind::Truck.build(&SceneConfig::tiny());
    let base = StreamingConfig {
        voxel_size: scene.voxel_size,
        group_size: 64,
        ..Default::default()
    };
    let seq = StreamingScene::new(
        scene.trained.clone(),
        StreamingConfig { threads: 1, ..base },
    );
    let par = StreamingScene::new(
        scene.trained.clone(),
        StreamingConfig { threads: 4, ..base },
    );
    for eye in [Vec3::new(0.4, 0.3, -7.5), Vec3::new(-3.0, 1.0, -6.0)] {
        let cam = Camera::look_at(eye, Vec3::ZERO, Vec3::Y, 160, 120, 0.9);
        let a = seq.render(&cam);
        let b = par.render(&cam);
        assert_eq!(a.workload.tiles.len(), 6);
        assert!(a.workload.totals().gaussians_streamed > 0);
        assert_eq!(a.image, b.image);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.ledger, b.ledger);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.degradation, b.degradation);
    }
}

#[test]
fn group_size_is_validated_once_at_construction() {
    // Below-minimum group sizes are clamped when the scene is prepared —
    // not silently at every use site as the seed did.
    let scene = SceneKind::Lego.build(&SceneConfig::tiny());
    let tiny_groups = StreamingScene::new(
        scene.trained.clone(),
        StreamingConfig {
            voxel_size: scene.voxel_size,
            group_size: 4,
            ..Default::default()
        },
    );
    assert_eq!(
        tiny_groups.config().group_size,
        StreamingConfig::MIN_GROUP_SIZE
    );

    // And the clamped configuration renders identically to an explicit
    // minimum-size configuration.
    let explicit = StreamingScene::new(
        scene.trained.clone(),
        StreamingConfig {
            voxel_size: scene.voxel_size,
            group_size: StreamingConfig::MIN_GROUP_SIZE,
            ..Default::default()
        },
    );
    let cam = &scene.eval_cameras[0];
    let a = tiny_groups.render(cam);
    let b = explicit.render(cam);
    assert_eq!(a.image, b.image);
    assert_eq!(a.workload.totals(), b.workload.totals());
}

#[test]
fn validated_is_idempotent_and_normalizes() {
    let cfg = StreamingConfig {
        group_size: 0,
        ray_stride: 0,
        ..Default::default()
    };
    let v = cfg.validated();
    assert_eq!(v.group_size, StreamingConfig::MIN_GROUP_SIZE);
    assert_eq!(v.ray_stride, 1);
    assert_eq!(v.validated(), v);
    // Valid configs pass through untouched.
    let ok = StreamingConfig {
        group_size: 64,
        ray_stride: 2,
        ..Default::default()
    };
    assert_eq!(ok.validated(), ok);
}

#[test]
fn narrower_frames_do_not_inherit_stale_violations() {
    // Regression: a frame using fewer executors than a previous frame
    // must not re-report the previous frame's violating Gaussians from
    // stale per-executor scratch slots.
    use gs_core::camera::Camera;
    use gs_core::vec::Vec3;
    use gs_scene::{Gaussian, GaussianCloud};

    let mut cloud = GaussianCloud::new();
    for i in 0..40 {
        let f = i as f32 * 0.13;
        cloud.push(Gaussian::isotropic(
            Vec3::new(f.sin() * 1.2, f.cos() * 0.9, 0.4 * f),
            0.35,
            Vec3::new(0.5 + 0.4 * f.sin(), 0.4, 0.6),
            0.55,
        ));
    }
    let cfg = StreamingConfig {
        voxel_size: 0.5,
        threads: 4,
        ..Default::default()
    };
    let scene = StreamingScene::new(cloud.clone(), cfg);

    // Wide frame: many groups -> 4 chunks, with real ordering violations.
    let wide = Camera::look_at(
        Vec3::new(0.5, 0.3, -8.0),
        Vec3::ZERO,
        Vec3::Y,
        256,
        192,
        0.9,
    );
    let wide_out = scene.render(&wide);
    assert!(
        wide_out.violations.gaussian_ratio() > 0.0,
        "setup: wide frame must violate"
    );

    // Narrow frame looking away from the cloud: 1 group -> 1 chunk, and
    // nothing visible, so zero violations.
    let narrow = Camera::look_at(
        Vec3::new(0.0, 0.0, -8.0),
        Vec3::new(0.0, 0.0, -20.0),
        Vec3::Y,
        32,
        32,
        0.9,
    );
    let narrow_out = scene.render(&narrow);
    let fresh_out = StreamingScene::new(cloud, cfg).render(&narrow);
    assert_eq!(narrow_out.violations.flags, fresh_out.violations.flags);
    assert_eq!(
        narrow_out.violations.violating_blends,
        fresh_out.violations.violating_blends
    );
    assert_eq!(narrow_out.violations.gaussian_ratio(), 0.0);
}
