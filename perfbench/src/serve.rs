//! `serve_mixed`: four sessions with different quality policies on one
//! shared, tiered, paged Playroom shard, driven open loop through
//! `gs-serve`'s `FrameScheduler`.

use crate::check::image_hash;
use crate::frames::{
    model_agreement, model_metrics, oracle, prepare, properties, setup_and_memory,
    throughput_metrics, Delivery, DrainRec, FrameCounts, ModelFrame, Phase, Totals,
};
use crate::inputs::{Inputs, Schedule};
use crate::layers;
use crate::perlayer::{per_layer, LayerInputs, ServeLayer};
use crate::probe::{cpu_seconds, nproc, Stamp};
use crate::report::{mean, tail, Better, Check, Metric};
use crate::trace::Tracer;
use crate::{Options, Outcome};
use gs_core::image::ImageRgb;
use gs_serve::{ClientSession, FrameScheduler, SceneShard};
use gs_voxel::{PageConfig, QualityPolicy, StreamingConfig, StreamingScene};
use gs_vq::VqConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The sessions' quality policies. The thresholds are set so tiers ≥ 1
/// are really chosen on this scene: a 400 px footprint threshold and a
/// binding 60 KB budget spread the voxels over all four tiers.
const POLICIES: [QualityPolicy; 4] = [
    QualityPolicy::FullQuality,
    QualityPolicy::Hysteresis {
        threshold: 400.0,
        margin: 0.1,
    },
    QualityPolicy::ScreenSpaceError { threshold: 400.0 },
    QualityPolicy::ByteBudget { bytes: 60_000 },
];

/// Length of one capacity-ladder step.
const STEP_S: f64 = 3.0;

const _: () = assert!(POLICIES.len() == crate::inputs::SERVE_CLIENTS);

fn open_sessions(shard: &mut SceneShard) -> Vec<ClientSession> {
    POLICIES
        .iter()
        .map(|q| {
            let mut s = shard.open_session();
            s.set_quality(*q);
            s
        })
        .collect()
}

/// One open-loop phase at `rate_hz` per client: every client's next
/// frame falls due on a shared tick; the generator submits whatever is
/// due, drains, and sleeps until the next tick when nothing is due. Ticks
/// stop after `seconds` once every client sent `min_frames`. Fresh
/// sessions, so every phase replays the same request sequence.
fn phase(
    shard: &mut SceneShard,
    sched: &mut FrameScheduler,
    inputs: &Inputs,
    rate_hz: f64,
    seconds: f64,
    min_frames: usize,
    tracer: &mut Tracer,
) -> Phase {
    let mut sessions = open_sessions(shard);
    let n = sessions.len();
    let interval = 1.0 / rate_hz;
    let mut p = Phase::default();
    let mut seq = vec![0usize; n];
    // Queued requests: (client, seq, camera, due, request id).
    let mut pending: Vec<(usize, usize, usize, f64, u64)> = Vec::new();
    let faults0 = shard.page_faults();
    let cpu0 = cpu_seconds();
    let phase_start = Stamp::now();
    let t0 = phase_start.at;
    let mut tick = 0u64;
    let mut last = t0;
    // Steal checkpoints at the phase start and every drain boundary: a
    // request's time is taken net of the steal since the last checkpoint
    // before it fell due (idle gaps accrue no steal).
    let mut marks = vec![phase_start];
    let since_due = |marks: &[Stamp], due: f64| {
        let due_at = t0 + Duration::from_secs_f64(due);
        marks[marks.partition_point(|m| m.at <= due_at).max(1) - 1]
    };
    loop {
        let more = |tick: u64, seq: &[usize]| {
            (tick as f64) * interval < seconds || seq.iter().any(|&s| s < min_frames)
        };
        let now = Stamp::now();
        let now_s = (now.at - t0).as_secs_f64();
        while more(tick, &seq) && tick as f64 * interval <= now_s {
            let due = tick as f64 * interval;
            for c in 0..n {
                let lap = &inputs.laps[c];
                let cam = lap[seq[c] % lap.len()];
                sched.submit(c, &inputs.cameras[cam]);
                pending.push((c, seq[c], cam, due, tracer.request_id()));
                seq[c] += 1;
            }
            let stolen = since_due(&marks, due).stolen_per_cpu(&now);
            p.lag_max_s = p.lag_max_s.max(now_s - due - stolen);
            tick += 1;
        }
        if pending.is_empty() {
            if !more(tick, &seq) {
                break;
            }
            let next = t0 + Duration::from_secs_f64(tick as f64 * interval);
            std::thread::sleep(next.saturating_duration_since(Instant::now()));
            continue;
        }
        let start = Stamp::now();
        marks.push(start);
        let ds = start.at;
        // A failed session's later frames are abandoned; `frames()` holds
        // exactly the delivered ones, so the error itself adds nothing.
        let _ = sched.drain(&mut sessions);
        let end = Stamp::now();
        let de = end.at;
        last = de;
        let start_s = (ds - t0).as_secs_f64();
        let end_s = (de - t0).as_secs_f64();
        p.busy_s += end_s - start_s;
        let drain = tracer.record("serve.drain", ds, de, None, 0);
        let mut taken = vec![0usize; n];
        let mut active = vec![false; n];
        for &(c, s, cam, due, req) in &pending {
            let k = taken[c];
            taken[c] += 1;
            active[c] = true;
            let frame = sessions[c].frames().get(k);
            let delivered = frame.is_some();
            let (hash, counts) = match frame {
                Some(out) => {
                    if s < inputs.laps[c].len() && s < min_frames {
                        p.model.push(ModelFrame::of(c, s, cam, out));
                    }
                    (image_hash(&out.image), FrameCounts::of(out))
                }
                None => (0, FrameCounts::default()),
            };
            let due_at = t0 + Duration::from_secs_f64(due);
            tracer.record("request", due_at, de, drain, req);
            p.queue_wait_s.push(start_s - due);
            let stolen = since_due(&marks, due).stolen_per_cpu(&end);
            p.deliveries.push(Delivery {
                client: c,
                seq: s,
                cam,
                latency_s: end_s - due - stolen,
                delivered,
                hash,
                counts,
            });
        }
        p.drains.push(DrainRec {
            dur_s: end_s - start_s,
            frames: pending.len(),
            sessions: active.iter().filter(|a| **a).count(),
        });
        pending.clear();
        marks.push(end);
    }
    p.wall_s = (last - t0).as_secs_f64();
    p.steal_share = phase_start.steal_share(&Stamp::now());
    p.cpu_s = cpu_seconds() - cpu0;
    p.page_faults = shard.page_faults() - faults0;
    p.model.sort_by_key(|m| (m.client, m.seq));
    p
}

/// Solo reference of one session: the same request sequence rendered on
/// a private deep copy of the shard scene with one worker.
struct Solo {
    /// Image hash per request position.
    hashes: Vec<u64>,
    /// PSNR of each first-lap frame against the ground truth.
    psnr: Vec<f64>,
    /// Page faults the private copy took over the first lap.
    faults: u64,
}

/// Renders client `c`'s first `frames` requests solo. Only `Hysteresis`
/// carries state from frame to frame, so a stateless policy repeats its
/// first lap exactly; a stateful one repeats once the tier map at two
/// consecutive lap ends agrees.
fn solo(proto: &StreamingScene, inputs: &Inputs, c: usize, frames: usize, gt: &[ImageRgb]) -> Solo {
    let lap = &inputs.laps[c];
    let mut scene = proto.clone();
    scene.set_quality(POLICIES[c]);
    scene.set_threads(1);
    let stateful = matches!(POLICIES[c], QualityPolicy::Hysteresis { .. });
    let mut out = gs_voxel::StreamingOutput::default();
    let mut s = Solo {
        hashes: Vec::new(),
        psnr: Vec::new(),
        faults: 0,
    };
    let mut lap_end_map: Option<Vec<u8>> = None;
    let mut period_from: Option<usize> = None;
    let frames = frames.max(lap.len());
    while s.hashes.len() < frames {
        let j = s.hashes.len();
        if let Some(k0) = period_from {
            let h = s.hashes[k0 + (j - k0) % lap.len()];
            s.hashes.push(h);
            continue;
        }
        let cam = lap[j % lap.len()];
        let h = match scene.try_render_into(&inputs.cameras[cam], &mut out) {
            Ok(()) => {
                if j < lap.len() {
                    s.psnr.push(out.image.psnr(&gt[cam]));
                }
                image_hash(&out.image)
            }
            Err(_) => 0,
        };
        s.hashes.push(h);
        if (j + 1).is_multiple_of(lap.len()) {
            if j + 1 == lap.len() {
                s.faults = scene.store().page_faults();
            }
            let lap_start = j + 1 - lap.len();
            if !stateful {
                period_from = Some(lap_start);
            } else {
                let map = scene.last_tier_map();
                if lap_end_map.as_ref() == Some(&map) {
                    period_from = Some(lap_start);
                }
                lap_end_map = Some(map);
            }
        }
    }
    s
}

/// Whether an open-loop phase at `rate` per client kept up: nothing
/// failed, the tail latency stayed within one frame interval and the
/// generator never fell more than one interval behind (the backlog did
/// not grow).
fn keeps_up(p: &Phase, rate: f64) -> bool {
    p.delivered() == p.deliveries.len()
        && tail(&p.latencies()).value <= 1.0 / rate
        && p.lag_max_s <= 1.0 / rate
}

/// Capacity search over the fixed ladder, whose step 0 is the measured
/// phase `first`: probe every fourth step until one fails, then bisect
/// the bracket. Returns the delivered fps at the highest step that kept
/// up (step 0's if none did) and every further step's outcome and phase.
fn capacity(
    shard: &mut SceneShard,
    sched: &mut FrameScheduler,
    inputs: &Inputs,
    ladder: &[f64],
    first: &Phase,
    tracer: &mut Tracer,
) -> (f64, Vec<(usize, bool, Phase)>) {
    let mut steps: Vec<(usize, bool, Phase)> = Vec::new();
    let mut run = |k: usize, steps: &mut Vec<(usize, bool, Phase)>| -> bool {
        let p = phase(shard, sched, inputs, ladder[k], STEP_S, 0, tracer);
        let ok = keeps_up(&p, ladder[k]);
        steps.push((k, ok, p));
        ok
    };
    let mut best_fps = first.fps();
    if !keeps_up(first, ladder[0]) {
        return (best_fps, steps);
    }
    let (mut lo, mut hi) = (0, ladder.len());
    let mut k = 4;
    while k < ladder.len() {
        if run(k, &mut steps) {
            lo = k;
            k += 4;
        } else {
            hi = k;
            break;
        }
    }
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if run(mid, &mut steps) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    if let Some((_, _, p)) = steps.iter().find(|(k, _, _)| *k == lo) {
        best_fps = p.fps();
    }
    (best_fps, steps)
}

pub fn run(inputs: &Inputs, opts: &Options, tracer: &mut Tracer) -> Outcome {
    let Schedule::OpenLoop { rate_hz, ladder_hz } = &inputs.schedule else {
        unreachable!("serve_mixed is generated with an open-loop schedule");
    };
    let config = StreamingConfig {
        use_vq: true,
        vq: VqConfig::small(),
        tiers: StreamingConfig::default_tier_ladder(),
        threads: 1,
        ..StreamingConfig::default()
    };
    let prepared = prepare(inputs, config, PageConfig::default(), None, tracer);
    let oracle = oracle(&prepared, inputs);
    let lap_len = inputs.laps[0].len();
    let mut shard = SceneShard::new("playroom", prepared.paged.clone());
    let mut sched = FrameScheduler::new(nproc());
    // Warm-up: half a lap of batched rounds warms the shard's pages and
    // the scheduler's pool.
    let mut warm = open_sessions(&mut shard);
    for round in 0..lap_len / 2 {
        for (c, lap) in inputs.laps.iter().enumerate() {
            sched.submit(c, &inputs.cameras[lap[round]]);
        }
        let _ = sched.drain(&mut warm);
    }
    drop(warm);

    let mut phases = Vec::new();
    let mut ladder_steps = Vec::new();
    let mut capacity_fps = 0.0;
    if opts.traced {
        tracer.set_enabled(false);
        phases.push(phase(
            &mut shard,
            &mut sched,
            inputs,
            *rate_hz,
            opts.seconds / 2.0,
            lap_len,
            tracer,
        ));
        tracer.set_enabled(true);
        phases.push(phase(
            &mut shard,
            &mut sched,
            inputs,
            *rate_hz,
            opts.seconds / 2.0,
            lap_len,
            tracer,
        ));
    } else {
        phases.push(phase(
            &mut shard,
            &mut sched,
            inputs,
            *rate_hz,
            opts.seconds,
            lap_len,
            tracer,
        ));
        let (fps, steps) = capacity(
            &mut shard, &mut sched, inputs, ladder_hz, &phases[0], tracer,
        );
        capacity_fps = fps;
        ladder_steps = steps;
    }

    // Solo references for every session, two sessions at a time on
    // private deep copies of the shard scene.
    let clients = inputs.laps.len();
    let mut need = vec![0usize; clients];
    let every = phases
        .iter()
        .chain(ladder_steps.iter().map(|(_, _, p)| p))
        .flat_map(|p| &p.deliveries);
    for d in every {
        need[d.client] = need[d.client].max(d.seq + 1);
    }
    let proto = shard.scene();
    let next = AtomicUsize::new(0);
    let solos: Mutex<Vec<Option<Solo>>> = Mutex::new((0..clients).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..nproc().min(clients) {
            scope.spawn(|| loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= clients {
                    break;
                }
                let s = solo(proto, inputs, c, need[c], &oracle.ground_truth);
                solos.lock().expect("no solo worker panicked")[c] = Some(s);
            });
        }
    });
    let solos: Vec<Solo> = solos
        .into_inner()
        .expect("no solo worker panicked")
        .into_iter()
        .map(|s| s.expect("every client replayed"))
        .collect();

    // Correctness: every delivered frame equals its session's solo
    // replay; full-quality frames also equal the resident cloud twin.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut twin_mismatch = 0u64;
    let every = phases
        .iter()
        .chain(ladder_steps.iter().map(|(_, _, p)| p))
        .flat_map(|p| &p.deliveries);
    for d in every {
        attempted += 1;
        let full = POLICIES[d.client] == QualityPolicy::FullQuality;
        let twin_ok = !full || d.hash == oracle.full_hash[d.cam];
        twin_mismatch += u64::from(!twin_ok);
        if !d.delivered || d.hash != solos[d.client].hashes[d.seq] || !twin_ok {
            failed += 1;
        }
    }
    let mut checks = vec![
        Check {
            name: "frames equal their solo replay".into(),
            ok: failed == 0,
            detail: format!(
                "{} of {attempted} frames delivered and byte-identical to a 1-thread private replay of the session (and, at full quality, to the cloud twin)",
                attempted - failed
            ),
        },
        Check {
            name: "full-quality frames equal the cloud twin".into(),
            ok: twin_mismatch == 0,
            detail: format!("{twin_mismatch} mismatches"),
        },
    ];
    if let Some((check, mismatched)) = model_agreement(&phases) {
        failed += mismatched;
        checks.push(check);
    }
    let deliveries: Vec<&Delivery> = phases.iter().flat_map(|p| &p.deliveries).collect();
    let totals = Totals::of(deliveries.iter().copied());
    checks.push(Check {
        name: "design: serve_mixed renders voxels below full quality".into(),
        ok: totals.nonfull_share() > 0.0,
        detail: format!("tier >= 1 voxel share {:.3}", totals.nonfull_share()),
    });
    let drains: Vec<&DrainRec> = phases.iter().flat_map(|p| &p.drains).collect();
    let sessions_per_drain = mean(&drains.iter().map(|d| d.sessions as f64).collect::<Vec<_>>());
    let faults: u64 = phases.iter().map(|p| p.page_faults).sum();
    let interval = 1.0 / rate_hz;
    let misses = deliveries
        .iter()
        .filter(|d| !d.delivered || d.latency_s > interval)
        .count();
    let miss_rate = misses as f64 / deliveries.len().max(1) as f64;
    let mut props = properties(&totals, faults, sessions_per_drain);
    props.push(
        Metric::new("deadline_miss_rate", "ratio", Better::Lower, miss_rate)
            .note("base: requests of the measured phase; deadline: one frame interval"),
    );

    let metrics = if opts.traced {
        let [a, b] = [&phases[0], &phases[1]];
        let sampled: Vec<_> = [0, lap_len / 3, 2 * lap_len / 3]
            .iter()
            .map(|&i| inputs.cameras[inputs.laps[0][i]])
            .collect();
        let mut many = shard.scene().fork_session();
        many.set_threads(nproc());
        let sampled_ms = layers::render_ms(&many, &sampled, 2, tracer);
        let mut one = shard.scene().fork_session();
        one.set_threads(1);
        let one_ms = layers::render_ms(&one, &sampled, 2, tracer);
        let layer_times = match layers::replay(shard.scene(), &prepared.resident, &sampled, tracer)
        {
            Ok(t) => t,
            Err(e) => {
                checks.push(Check {
                    name: "layer replay".into(),
                    ok: false,
                    detail: e.to_string(),
                });
                Default::default()
            }
        };
        let solo_faults: u64 = solos.iter().map(|s| s.faults).sum();
        let serve = ServeLayer {
            drain_ms: b.drains.iter().map(|d| d.dur_s * 1e3).collect(),
            frames_per_drain: mean(&drains.iter().map(|d| d.frames as f64).collect::<Vec<_>>()),
            sessions_per_drain,
            queue_wait_ms: b.queue_wait_s.iter().map(|s| s * 1e3).collect(),
            backlog_max: drains.iter().map(|d| d.frames).max().unwrap_or(0),
            lag_max_ms: a.lag_max_s.max(b.lag_max_s) * 1e3,
            page_amortization: solo_faults as f64 / shard.page_faults().max(1) as f64,
            deadline_miss_rate: miss_rate,
        };
        per_layer(
            &LayerInputs {
                prepared: &prepared,
                untraced: a,
                traced: b,
                totals,
                page_faults: faults,
                resident_mb: shard.scene().store().resident_column_bytes() as f64 / 1e6,
                nproc: nproc(),
                render_ms_p50: sampled_ms,
                render_ms_1thread_p50: one_ms,
                render_ms_sampled_p50: sampled_ms,
                layers: layer_times,
                serve: Some(serve),
            },
            tracer,
        )
    } else {
        let p = &phases[0];
        let mut m = throughput_metrics(p);
        let steps: Vec<String> = std::iter::once((0, keeps_up(p, ladder_hz[0]), p))
            .chain(ladder_steps.iter().map(|(k, ok, s)| (*k, *ok, s)))
            .map(|(k, ok, s)| {
                format!(
                    "{:.2}/s:{}:{:.2}",
                    ladder_hz[k],
                    if ok { "pass" } else { "fail" },
                    s.fps()
                )
            })
            .collect();
        m.insert(
            3,
            Metric::new("serve_capacity_fps", "1/s", Better::Higher, capacity_fps).note(format!(
                "delivered fps at the highest passing per-client ladder step [{}]",
                steps.join(" ")
            )),
        );
        m.extend(setup_and_memory(&prepared));
        m.extend(model_metrics(&p.model, &oracle, |mf| {
            solos[mf.client].psnr[mf.seq]
        }));
        m
    };
    Outcome {
        metrics,
        properties: props,
        checks,
        attempted,
        failed,
    }
}
