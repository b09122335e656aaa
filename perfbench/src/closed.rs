//! The closed-loop workloads, `vr_single` and `paged_churn`: one client
//! that asks for its next frame as soon as the previous one arrived.

use crate::check::image_hash;
use crate::frames::{
    model_agreement, model_metrics, oracle, prepare, properties, setup_and_memory,
    throughput_metrics, Delivery, FrameCounts, Lap, ModelFrame, Phase, Totals,
};
use crate::inputs::{Inputs, Workload};
use crate::layers;
use crate::perlayer::{per_layer, LayerInputs};
use crate::probe::{cpu_seconds, nproc, Stamp};
use crate::report::{median, Better, Check, Metric};
use crate::trace::Tracer;
use crate::{Options, Outcome};
use gs_mem::CacheConfig;
use gs_voxel::{FaultPolicy, PageConfig, StreamingConfig, StreamingOutput, StreamingScene};
use gs_vq::VqConfig;
use std::time::Instant;

/// Resident-page budget per column of `paged_churn`: far below the
/// ~200 pages a Truck frame touches, so nearly every page read faults.
const CHURN_PAGE_BUDGET: u32 = 8;
/// Transient page-read fault rate of `paged_churn`, per mille. Retries
/// (4 attempts) absorb it; exhausting them takes four faults in a row.
const CHURN_FAULTS_PER_MILLE: u32 = 5;

struct Spec {
    config: StreamingConfig,
    page: PageConfig,
    faults: Option<FaultPolicy>,
    warmup_frames: usize,
}

fn spec(inputs: &Inputs) -> Spec {
    let lap = inputs.laps[0].len();
    match inputs.workload {
        Workload::PagedChurn => Spec {
            config: StreamingConfig {
                use_vq: false,
                cache: Some(CacheConfig::default()),
                threads: nproc(),
                ..StreamingConfig::default()
            },
            page: PageConfig {
                max_resident_pages: CHURN_PAGE_BUDGET,
                ..PageConfig::default()
            },
            faults: Some(FaultPolicy::transient(
                inputs.fault_seed,
                CHURN_FAULTS_PER_MILLE,
            )),
            warmup_frames: 3,
        },
        _ => Spec {
            config: StreamingConfig {
                use_vq: true,
                vq: VqConfig::small(),
                cache: Some(CacheConfig::default()),
                threads: nproc(),
                ..StreamingConfig::default()
            },
            page: PageConfig::default(),
            faults: None,
            warmup_frames: lap,
        },
    }
}

/// One measured closed-loop phase of whole laps, at least `seconds` long.
/// Whole laps keep the mix of views the same in every run; the cache
/// model restarts cold so the first lap's modelled counters are a pure
/// function of the inputs.
fn phase(scene: &StreamingScene, inputs: &Inputs, seconds: f64, tracer: &mut Tracer) -> Phase {
    let lap = &inputs.laps[0];
    scene.reset_cache();
    let mut out = StreamingOutput::default();
    let mut p = Phase::default();
    let faults0 = scene.store().page_faults();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let mut due = t0;
    let mut seq = 0usize;
    let phase_start = Stamp::now();
    let mut lap_start = phase_start;
    loop {
        if (due - t0).as_secs_f64() >= seconds && seq.is_multiple_of(lap.len()) && seq > 0 {
            break;
        }
        let cam = lap[seq % lap.len()];
        let req = tracer.request_id();
        let ts = Instant::now();
        let res = scene.try_render_into(&inputs.cameras[cam], &mut out);
        let te = Instant::now();
        let rq = tracer.record("request", due, te, None, req);
        tracer.record("streaming.render", ts, te, rq, req);
        p.busy_s += (te - ts).as_secs_f64();
        let delivered = res.is_ok();
        let (hash, counts) = if delivered {
            if seq < lap.len() {
                p.model.push(ModelFrame::of(0, seq, cam, &out));
            }
            (image_hash(&out.image), FrameCounts::of(&out))
        } else {
            (0, FrameCounts::default())
        };
        p.deliveries.push(Delivery {
            client: 0,
            seq,
            cam,
            latency_s: (te - due).as_secs_f64(),
            delivered,
            hash,
            counts,
        });
        seq += 1;
        due = te;
        if seq.is_multiple_of(lap.len()) {
            // Times of the lap are taken net of the steal during it.
            let now = Stamp::now();
            let keep = lap_start.keep(&now);
            let n = p.deliveries.len();
            for d in &mut p.deliveries[n - lap.len()..] {
                d.latency_s *= keep;
            }
            p.laps.push(Lap {
                frames: lap.len(),
                net_s: (now.at - lap_start.at).as_secs_f64() * keep,
                cpu_s: now.cpu_s - lap_start.cpu_s,
            });
            lap_start = now;
        }
    }
    p.wall_s = (due - t0).as_secs_f64();
    p.steal_share = phase_start.steal_share(&Stamp::now());
    p.cpu_s = cpu_seconds() - cpu0;
    p.page_faults = scene.store().page_faults() - faults0;
    p
}

pub fn run(inputs: &Inputs, opts: &Options, tracer: &mut Tracer) -> Outcome {
    let spec = spec(inputs);
    let prepared = prepare(inputs, spec.config, spec.page, spec.faults, tracer);
    let oracle = oracle(&prepared, inputs);
    let scene = &prepared.paged;
    let lap = &inputs.laps[0];
    let mut out = StreamingOutput::default();
    for i in 0..spec.warmup_frames {
        let _ = scene.try_render_into(&inputs.cameras[lap[i % lap.len()]], &mut out);
    }

    let phases = if opts.traced {
        tracer.set_enabled(false);
        let a = phase(scene, inputs, opts.seconds / 2.0, tracer);
        tracer.set_enabled(true);
        let b = phase(scene, inputs, opts.seconds / 2.0, tracer);
        vec![a, b]
    } else {
        vec![phase(scene, inputs, opts.seconds, tracer)]
    };

    // Correctness: every frame byte-identical to the cloud twin of the
    // resident, fault-free copy.
    let all: Vec<&Delivery> = phases.iter().flat_map(|p| &p.deliveries).collect();
    let attempted = all.len() as u64;
    let mut failed = all
        .iter()
        .filter(|d| !d.delivered || d.hash != oracle.full_hash[d.cam])
        .count() as u64;
    let mut checks = vec![Check {
        name: "frames equal the oracle".into(),
        ok: failed == 0,
        detail: format!(
            "{} of {attempted} frames byte-identical to render_cloud_twin on a resident{} copy",
            attempted - failed,
            if spec.faults.is_some() {
                ", fault-free"
            } else {
                ""
            }
        ),
    }];
    if let Some((check, mismatched)) = model_agreement(&phases) {
        failed += mismatched;
        checks.push(check);
    }
    let totals = Totals::of(all.iter().copied());
    let faults: u64 = phases.iter().map(|p| p.page_faults).sum();
    let faults_per_frame = totals.per_frame(faults);
    checks.push(match inputs.workload {
        Workload::PagedChurn => Check {
            name: "design: paged_churn faults pages on every frame".into(),
            ok: faults_per_frame > 100.0,
            detail: format!("{faults_per_frame:.1} page faults per frame (want > 100)"),
        },
        _ => Check {
            name: "design: vr_single pages are warm after the first lap".into(),
            ok: faults_per_frame < 1.0,
            detail: format!("{faults_per_frame:.3} page faults per frame (want < 1)"),
        },
    });
    let props = properties(&totals, faults, 0.0);

    let metrics = if opts.traced {
        let [a, b] = [&phases[0], &phases[1]];
        let render_ms_p50 = median(&tracer.durations("streaming.render")) * 1e3;
        let sampled: Vec<_> = [0, lap.len() / 3, 2 * lap.len() / 3]
            .iter()
            .map(|&i| inputs.cameras[lap[i]])
            .collect();
        let sampled_ms = layers::render_ms(scene, &sampled, 2, tracer);
        let mut one = scene.fork_session();
        one.set_threads(1);
        let one_ms = layers::render_ms(&one, &sampled, 2, tracer);
        let layer_times = match layers::replay(scene, &prepared.resident, &sampled, tracer) {
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
        per_layer(
            &LayerInputs {
                prepared: &prepared,
                untraced: a,
                traced: b,
                totals,
                page_faults: faults,
                resident_mb: scene.store().resident_column_bytes() as f64 / 1e6,
                nproc: nproc(),
                render_ms_p50,
                render_ms_1thread_p50: one_ms,
                render_ms_sampled_p50: sampled_ms,
                layers: layer_times,
                serve: None,
            },
            tracer,
        )
    } else {
        let p = &phases[0];
        let mut m = throughput_metrics(p);
        m.insert(
            3,
            Metric::new("serve_capacity_fps", "1/s", Better::Higher, p.fps())
                .note("closed loop: the client's sustained rate (no backlog can form)"),
        );
        m.extend(setup_and_memory(&prepared));
        m.extend(model_metrics(&p.model, &oracle, |mf| {
            oracle.full_psnr[mf.cam]
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
