//! The serving-layer determinism contract (ISSUE 10):
//!
//! 1. **Scheduled ≡ solo** — every frame a session renders through the
//!    [`FrameScheduler`] is byte-identical (image, workload, ledger,
//!    cache report, tier usage, degradation) to rendering the same
//!    camera sequence on a fully private scene, for any worker count
//!    {1, 2, 0}, any request interleaving (session-major, round-robin,
//!    seeded shuffles), raw and VQ stores, resident and paged backings,
//!    with and without per-session caches and hysteresis tier selection.
//! 2. **Shared pages warm across sessions** — on a paged shard, a second
//!    session replaying a trajectory faults in (almost) nothing beyond
//!    what the first session already materialized, while private clones
//!    pay the full cold cost each.
//! 3. **Errors are deterministic and recoverable** — out-of-range
//!    session ids are rejected up front with the queue intact, and
//!    duplicate shard names are rejected by the registry.

// Test code may unwrap freely.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gs_core::camera::Camera;
use gs_mem::cache::CacheConfig;
use gs_scene::{SceneConfig, SceneKind};
use gs_serve::{FrameScheduler, SceneShard, ServeError, ShardRegistry};
use gs_voxel::{PageConfig, QualityPolicy, StreamingConfig, StreamingOutput, StreamingScene};
use gs_vq::VqConfig;

const SESSIONS: usize = 3;
const FRAMES: usize = 3;

/// Per-session camera trajectories: rotated, strided walks over the
/// scene's eval cameras so every session streams a *different* sequence.
fn trajectories(cams: &[Camera]) -> Vec<Vec<Camera>> {
    (0..SESSIONS)
        .map(|s| {
            (0..FRAMES)
                .map(|f| cams[(s + 2 * f) % cams.len()])
                .collect()
        })
        .collect()
}

/// A submission-order word: session ids, each appearing [`FRAMES`] times;
/// submitting a session's next trajectory frame at each of its
/// occurrences preserves per-session order for any word.
fn shuffled_word(seed: u64) -> Vec<usize> {
    let mut word: Vec<usize> = session_major_word();
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for i in (1..word.len()).rev() {
        word.swap(i, next() % (i + 1));
    }
    word
}

fn session_major_word() -> Vec<usize> {
    (0..SESSIONS)
        .flat_map(|s| std::iter::repeat_n(s, FRAMES))
        .collect()
}

fn round_robin_word() -> Vec<usize> {
    (0..FRAMES).flat_map(|_| 0..SESSIONS).collect()
}

fn assert_same_frame(a: &StreamingOutput, b: &StreamingOutput, what: &str) {
    assert_eq!(a.image, b.image, "{what}: image diverged");
    assert_eq!(a.workload, b.workload, "{what}: workload diverged");
    assert_eq!(a.ledger, b.ledger, "{what}: ledger diverged");
    assert_eq!(a.cache, b.cache, "{what}: cache report diverged");
    assert_eq!(a.tiers, b.tiers, "{what}: tier usage diverged");
    assert_eq!(a.degradation, b.degradation, "{what}: degradation diverged");
}

/// The workhorse: serve [`SESSIONS`] trajectories through a shared shard
/// under every worker count and interleaving, comparing each frame to a
/// fully private solo replay. `drain_per_round` additionally drains after
/// every submission round (instead of once at the end), proving that
/// per-session state carries correctly *across* drains.
fn assert_scheduled_matches_solo(label: &str, cfg: StreamingConfig, page: Option<PageConfig>) {
    let scene = SceneKind::Truck.build(&SceneConfig::tiny());
    let mut prepared = StreamingScene::new(scene.trained.clone(), cfg);
    if let Some(p) = page {
        prepared.page_out(p);
    }
    let trajs = trajectories(&scene.eval_cameras);

    // Solo reference: a private deep clone per session (cold pages, own
    // cache/hysteresis state), rendered serially.
    let solo: Vec<Vec<StreamingOutput>> = trajs
        .iter()
        .map(|traj| {
            let mut private = prepared.clone();
            private.set_threads(1);
            traj.iter().map(|cam| private.render(cam)).collect()
        })
        .collect();
    // The contract must not hold vacuously: the reference frames differ
    // across sessions (distinct trajectories).
    assert_ne!(solo[0][0].image, solo[1][0].image);

    let words = [
        ("session-major", session_major_word()),
        ("round-robin", round_robin_word()),
        ("shuffle-a", shuffled_word(0x5EED_CAFE)),
        ("shuffle-b", shuffled_word(0xD00D_F00D)),
    ];
    for threads in [1usize, 2, 3, 0] {
        for (word_name, word) in &words {
            for drain_per_round in [false, true] {
                let mut shard = SceneShard::new("t", prepared.clone());
                let mut sessions: Vec<_> = (0..SESSIONS).map(|_| shard.open_session()).collect();
                let mut scheduler = FrameScheduler::new(threads);
                let mut next = [0usize; SESSIONS];
                let mut got: Vec<Vec<StreamingOutput>> = vec![Vec::new(); SESSIONS];
                let drain = |sched: &mut FrameScheduler,
                             sessions: &mut Vec<gs_serve::ClientSession>,
                             got: &mut Vec<Vec<StreamingOutput>>| {
                    let n = sched.drain(sessions).expect("fault-free drain");
                    assert!(n > 0);
                    for (sid, session) in sessions.iter().enumerate() {
                        got[sid].extend(session.frames().iter().cloned());
                    }
                };
                for (k, &sid) in word.iter().enumerate() {
                    scheduler.submit(sid, &trajs[sid][next[sid]]);
                    next[sid] += 1;
                    // Per-round drains slice the same word into multiple
                    // batches at arbitrary (here: every 4 submissions)
                    // boundaries.
                    if drain_per_round && (k + 1) % 4 == 0 {
                        drain(&mut scheduler, &mut sessions, &mut got);
                    }
                }
                if scheduler.pending() > 0 {
                    drain(&mut scheduler, &mut sessions, &mut got);
                }
                assert_eq!(scheduler.pending(), 0);
                for sid in 0..SESSIONS {
                    assert_eq!(got[sid].len(), FRAMES);
                    assert_eq!(sessions[sid].frames_rendered(), FRAMES as u64);
                    for (f, (a, b)) in solo[sid].iter().zip(&got[sid]).enumerate() {
                        assert_same_frame(
                            a,
                            b,
                            &format!(
                                "{label}, threads={threads}, {word_name}, \
                                 per_round={drain_per_round}, session {sid} frame {f}"
                            ),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn scheduled_frames_match_solo_raw_resident() {
    let scene = SceneKind::Truck.build(&SceneConfig::tiny());
    let cfg = StreamingConfig {
        voxel_size: scene.voxel_size,
        ..Default::default()
    };
    assert_scheduled_matches_solo("raw resident", cfg, None);
}

#[test]
fn scheduled_frames_match_solo_vq_paged_with_cache() {
    let scene = SceneKind::Truck.build(&SceneConfig::tiny());
    let cfg = StreamingConfig {
        voxel_size: scene.voxel_size,
        use_vq: true,
        vq: VqConfig::tiny(),
        cache: Some(CacheConfig::default()),
        ..Default::default()
    };
    assert_scheduled_matches_solo("vq paged cache", cfg, Some(PageConfig::default()));
}

#[test]
fn scheduled_frames_match_solo_with_hysteresis_tiers() {
    let scene = SceneKind::Truck.build(&SceneConfig::tiny());
    let cfg = StreamingConfig {
        voxel_size: scene.voxel_size,
        tiers: StreamingConfig::default_tier_ladder(),
        quality: QualityPolicy::Hysteresis {
            threshold: 64.0,
            margin: 0.25,
        },
        ..Default::default()
    };
    // Hysteresis carries per-session tier history across frames — the
    // sharpest test that per-session state never leaks between clients.
    assert_scheduled_matches_solo("raw resident hysteresis", cfg, None);
}

#[test]
fn scheduled_frames_match_solo_vq_paged_hysteresis_cache() {
    let scene = SceneKind::Truck.build(&SceneConfig::tiny());
    let cfg = StreamingConfig {
        voxel_size: scene.voxel_size,
        use_vq: true,
        vq: VqConfig::tiny(),
        cache: Some(CacheConfig::default()),
        tiers: StreamingConfig::default_tier_ladder(),
        quality: QualityPolicy::Hysteresis {
            threshold: 64.0,
            margin: 0.25,
        },
        ..Default::default()
    };
    assert_scheduled_matches_solo(
        "vq paged hysteresis cache",
        cfg,
        Some(PageConfig::default()),
    );
}

#[test]
fn shared_shard_pages_warm_across_sessions() {
    let scene = SceneKind::Lego.build(&SceneConfig::tiny());
    let cfg = StreamingConfig {
        voxel_size: scene.voxel_size,
        ..Default::default()
    };
    let mut prepared = StreamingScene::new(scene.trained.clone(), cfg);
    prepared.page_out(PageConfig::default());
    let cam = scene.eval_cameras[0];

    // Private clones each pay the full cold page cost.
    let private_a = prepared.clone();
    let private_b = prepared.clone();
    let pa = private_a.render(&cam);
    let pb = private_b.render(&cam);
    let cold = private_a.store().page_faults();
    assert!(cold > 0, "paged render must fault pages in");
    assert_eq!(cold, private_b.store().page_faults());

    // Two sessions of one shard share the page set: the second replay
    // faults in nothing new.
    let mut shard = SceneShard::new("lego", prepared);
    let mut sessions = vec![shard.open_session(), shard.open_session()];
    let mut scheduler = FrameScheduler::new(2);
    scheduler.submit(0, &cam);
    scheduler.drain(&mut sessions).unwrap();
    let shared_a = sessions[0].frames()[0].clone();
    let after_first = shard.page_faults();
    scheduler.submit(1, &cam);
    scheduler.drain(&mut sessions).unwrap();
    let shared_b = sessions[1].frames()[0].clone();
    assert!(
        sessions[0].frames().is_empty(),
        "inactive session kept stale frames"
    );
    let after_second = shard.page_faults();
    assert_eq!(
        after_first, after_second,
        "second session re-faulted pages the first already materialized"
    );
    // And sharing changed no byte of either client's frame.
    assert_same_frame(&pa, &shared_a, "shared vs private, session 0");
    assert_same_frame(&pb, &shared_b, "shared vs private, session 1");
    assert_eq!(shard.sessions_opened(), 2);
}

#[test]
fn unknown_session_is_rejected_up_front_and_recoverable() {
    let scene = SceneKind::Lego.build(&SceneConfig::tiny());
    let cfg = StreamingConfig {
        voxel_size: scene.voxel_size,
        ..Default::default()
    };
    let mut shard = SceneShard::new("lego", StreamingScene::new(scene.trained.clone(), cfg));
    let mut sessions = vec![shard.open_session()];
    let cam = scene.eval_cameras[0];
    let mut scheduler = FrameScheduler::new(1);
    scheduler.submit(0, &cam);
    scheduler.submit(7, &cam); // no such session
    match scheduler.drain(&mut sessions) {
        Err(ServeError::UnknownSession { session: 7 }) => {}
        other => panic!("expected UnknownSession, got {other:?}"),
    }
    // Nothing rendered, queue intact; clearing recovers the scheduler.
    assert_eq!(scheduler.pending(), 2);
    assert_eq!(sessions[0].frames_rendered(), 0);
    scheduler.clear();
    assert_eq!(scheduler.pending(), 0);
    scheduler.submit(0, &cam);
    assert_eq!(scheduler.drain(&mut sessions).unwrap(), 1);
    assert_eq!(sessions[0].frames_rendered(), 1);
}

#[test]
fn registry_rejects_duplicate_shards_and_opens_sessions_by_name() {
    let scene = SceneKind::Lego.build(&SceneConfig::tiny());
    let cfg = StreamingConfig {
        voxel_size: scene.voxel_size,
        ..Default::default()
    };
    let mut registry = ShardRegistry::new();
    assert!(registry.is_empty());
    let make = || SceneShard::new("lego", StreamingScene::new(scene.trained.clone(), cfg));
    registry.insert(make()).unwrap();
    match registry.insert(make()) {
        Err(ServeError::DuplicateShard { name }) => assert_eq!(name, "lego"),
        other => panic!("expected DuplicateShard, got {other:?}"),
    }
    assert_eq!(registry.len(), 1);
    assert!(registry.get("lego").is_some());
    assert!(registry.open_session("lego").is_some());
    assert!(registry.open_session("missing").is_none());
    assert_eq!(registry.get("lego").unwrap().sessions_opened(), 1);
}

#[test]
fn empty_drain_is_a_noop() {
    let mut scheduler = FrameScheduler::new(1);
    assert_eq!(scheduler.drain(&mut []).unwrap(), 0);
    assert_eq!(scheduler.pending(), 0);
}
