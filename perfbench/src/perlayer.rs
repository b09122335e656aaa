//! The per-layer metric set of the traced run, in `BENCHMARK.json` order.

use crate::frames::{ratio, ModelFrame, Phase, Prepared, Totals};
use crate::layers::LayerTimes;
use crate::report::{median, Better, Metric};
use crate::trace::Tracer;
use gs_accel::StreamingGsModel;
use gs_voxel::VoxelGrid;
use gs_vq::GaussianQuantizer;
use std::hint::black_box;
use std::time::Instant;

/// Serving-layer readings (`serve_mixed` only).
#[derive(Clone, Debug, Default)]
pub struct ServeLayer {
    pub drain_ms: Vec<f64>,
    pub frames_per_drain: f64,
    pub sessions_per_drain: f64,
    pub queue_wait_ms: Vec<f64>,
    pub backlog_max: usize,
    pub lag_max_ms: f64,
    /// Sum of the sessions' private solo page faults over the shard's.
    pub page_amortization: f64,
    pub deadline_miss_rate: f64,
}

/// Everything the per-layer set is computed from.
pub struct LayerInputs<'a> {
    pub prepared: &'a Prepared,
    /// The untraced and the traced phase of the same requests.
    pub untraced: &'a Phase,
    pub traced: &'a Phase,
    /// Counts over every delivered frame of the run.
    pub totals: Totals,
    /// Store page faults over the measured phases.
    pub page_faults: u64,
    pub resident_mb: f64,
    pub nproc: usize,
    pub render_ms_p50: f64,
    pub render_ms_1thread_p50: f64,
    /// nproc-thread median on the same sampled frames as the 1-thread one.
    pub render_ms_sampled_p50: f64,
    pub layers: LayerTimes,
    pub serve: Option<ServeLayer>,
}

/// Max over mean of blend fragments per static contiguous chunk of
/// `nproc` chunks of the frame's groups, averaged over frames.
fn chunk_imbalance(model: &[ModelFrame], nproc: usize) -> f64 {
    let mut acc = Vec::new();
    for mf in model {
        let tiles = &mf.workload.tiles;
        let chunks = nproc.min(tiles.len()).max(1);
        let per = tiles.len().div_ceil(chunks).max(1);
        let sums: Vec<f64> = tiles
            .chunks(per)
            .map(|c| c.iter().map(|t| t.blend_fragments as f64).sum())
            .collect();
        let mean = sums.iter().sum::<f64>() / chunks as f64;
        let max = sums.iter().copied().fold(0.0, f64::max);
        acc.push(if mean > 0.0 { max / mean } else { 1.0 });
    }
    crate::report::mean(&acc)
}

/// Shares of tiles each accelerator stage binds, and the model's
/// evaluation time per frame (µs), over the first-lap frames.
fn accel_readings(model: &[ModelFrame], tracer: &mut Tracer) -> ([f64; 6], f64) {
    const STAGES: [&str; 6] = ["vsu", "fetch", "coarse", "fine", "sort", "render"];
    let accel = StreamingGsModel::default();
    let mut counts = [0u64; 6];
    let mut tiles = 0u64;
    for mf in model {
        for t in &mf.workload.tiles {
            let b = accel.tile_cycles(t).bottleneck();
            if let Some(i) = STAGES.iter().position(|s| *s == b) {
                counts[i] += 1;
            }
            tiles += 1;
        }
    }
    let mut us = Vec::new();
    for mf in model {
        let s = Instant::now();
        for _ in 0..10 {
            black_box(accel.evaluate_measured(black_box(&mf.workload), &mf.ledger));
        }
        let e = Instant::now();
        tracer.record("accel.evaluate", s, e, None, 0);
        us.push((e - s).as_secs_f64() * 1e6 / 10.0);
    }
    (counts.map(|c| ratio(c, tiles)), median(&us))
}

/// Seconds of the set-up steps `StreamingScene::new` hides: one codebook
/// training (`None` for raw records) and three grid builds.
fn hidden_setup_steps(p: &Prepared, tracer: &mut Tracer) -> (Option<f64>, Vec<f64>) {
    let cfg = p.paged.config();
    let cloud = &p.scene.trained;
    let mut time = |name: &'static str, f: &dyn Fn()| {
        let s = Instant::now();
        f();
        let e = Instant::now();
        tracer.record(name, s, e, None, 0);
        (e - s).as_secs_f64()
    };
    let vq = cfg.use_vq.then(|| {
        time("vq.train", &|| {
            black_box(GaussianQuantizer::train(cloud, &cfg.vq));
        })
    });
    let grid = (0..3)
        .map(|_| {
            time("voxel.grid.build", &|| {
                black_box(VoxelGrid::build(cloud, cfg.voxel_size));
            })
        })
        .collect();
    (vq, grid)
}

pub fn per_layer(inp: &LayerInputs, tracer: &mut Tracer) -> Vec<Metric> {
    let p = inp.prepared;
    let t = &inp.totals;
    let l = &inp.layers;
    let w = &t.w;
    let ms = |s: f64| s * 1e3;
    let model = &inp.traced.model;
    let (bottleneck, evaluate_us) = accel_readings(model, tracer);
    let (vq_train_s, grid_build_s) = hidden_setup_steps(p, tracer);
    let overhead_pct =
        (inp.traced.busy_per_frame_s() / inp.untraced.busy_per_frame_s() - 1.0) * 100.0;
    let serve = inp.serve.clone().unwrap_or_default();
    let no_serve = if inp.serve.is_none() {
        "no scheduler: closed-loop single client"
    } else {
        ""
    };
    let mb = |x: u64| t.per_frame(x) / 1e6;
    let mut m = vec![
        Metric::new(
            "scene.build_ms",
            "ms",
            Better::Lower,
            ms(median(&p.build_s)),
        )
        .samples(p.build_s.iter().map(|s| ms(*s)).collect()),
        Metric::new(
            "vq.train_ms",
            "ms",
            Better::Lower,
            ms(vq_train_s.unwrap_or(0.0)),
        )
        .note(if vq_train_s.is_some() {
            "GaussianQuantizer::train, once"
        } else {
            "raw records: no codebooks to train"
        }),
        Metric::new(
            "voxel.grid.build_ms",
            "ms",
            Better::Lower,
            ms(median(&grid_build_s)),
        )
        .samples(grid_build_s.iter().map(|s| ms(*s)).collect()),
        Metric::new(
            "voxel.streaming.prepare_ms",
            "ms",
            Better::Lower,
            ms(median(&p.prepare_s)),
        )
        .samples(p.prepare_s.iter().map(|s| ms(*s)).collect()),
        Metric::new(
            "voxel.store.page_out_ms",
            "ms",
            Better::Lower,
            ms(median(&p.page_out_s)),
        )
        .samples(p.page_out_s.iter().map(|s| ms(*s)).collect()),
        Metric::new(
            "voxel.streaming.render_ms_p50",
            "ms",
            Better::Lower,
            inp.render_ms_p50,
        ),
        Metric::new(
            "voxel.streaming.render_ms_1thread_p50",
            "ms",
            Better::Lower,
            inp.render_ms_1thread_p50,
        )
        .note("sampled frames, 1 worker"),
        Metric::new(
            "voxel.streaming.thread_speedup",
            "x",
            Better::Higher,
            inp.render_ms_1thread_p50 / inp.render_ms_sampled_p50.max(1e-9),
        )
        .note(format!(
            "base: 1 thread; {} threads on the same sampled frames",
            inp.nproc
        )),
        Metric::new(
            "voxel.streaming.chunk_imbalance",
            "ratio",
            Better::Lower,
            chunk_imbalance(model, inp.nproc),
        )
        .note(format!(
            "max/mean blend fragments over {} static chunks",
            inp.nproc
        )),
        Metric::new(
            "voxel.dda.ns_per_ray",
            "ns",
            Better::Lower,
            l.dda_ns_per_ray(),
        ),
        Metric::new(
            "voxel.dda.rays_per_frame",
            "count",
            Better::Lower,
            t.per_frame(u64::from(w.rays)),
        ),
        Metric::new(
            "voxel.dda.steps_per_ray",
            "count",
            Better::Lower,
            ratio(w.dda_steps, u64::from(w.rays)),
        ),
        Metric::new(
            "voxel.order.us_per_group",
            "us",
            Better::Lower,
            l.order_us_per_group(),
        ),
        Metric::new(
            "voxel.order.cycle_breaks_per_frame",
            "count",
            Better::Lower,
            t.per_frame(u64::from(w.cycle_breaks)),
        ),
        Metric::new(
            "voxel.order.violating_blend_share",
            "ratio",
            Better::Lower,
            ratio(t.violating, t.blends),
        )
        .note("base: all blends"),
        Metric::new(
            "voxel.streaming.blend_ns_per_fragment",
            "ns",
            Better::Lower,
            l.blend_ns_per_fragment(),
        ),
        Metric::new(
            "voxel.streaming.blend_fragments_per_frame",
            "count",
            Better::Lower,
            t.per_frame(w.blend_fragments),
        ),
        Metric::new(
            "voxel.filter.coarse_ns_per_test",
            "ns",
            Better::Lower,
            l.coarse_ns_per_test(),
        ),
        Metric::new(
            "voxel.filter.fine_ns_per_test",
            "ns",
            Better::Lower,
            l.fine_ns_per_test(),
        ),
        Metric::new(
            "voxel.filter.gaussians_streamed_per_frame",
            "count",
            Better::Lower,
            t.per_frame(w.gaussians_streamed),
        ),
        Metric::new(
            "voxel.filter.coarse_kill_rate",
            "ratio",
            Better::Higher,
            1.0 - ratio(w.coarse_survivors, w.gaussians_streamed),
        )
        .note("base: Gaussians streamed"),
        Metric::new(
            "voxel.filter.fine_kill_rate",
            "ratio",
            Better::Higher,
            1.0 - ratio(w.fine_survivors, w.coarse_survivors),
        )
        .note("base: coarse survivors"),
        Metric::new(
            "voxel.store.fetch_coarse_ns_per_voxel",
            "ns",
            Better::Lower,
            l.fetch_coarse_ns_per_voxel(),
        ),
        Metric::new(
            "voxel.store.fetch_fine_ns_per_record",
            "ns",
            Better::Lower,
            l.fetch_fine_ns_per_record(),
        )
        .note("decode included"),
        Metric::new(
            "vq.decode_ns_per_record",
            "ns",
            Better::Lower,
            l.decode_ns_per_record(),
        )
        .note(if l.vq {
            "QuantizedCloud::decode_one"
        } else {
            "raw records: nothing to decode"
        }),
        Metric::new(
            "voxel.store.page_faults_per_frame",
            "count",
            Better::Lower,
            t.per_frame(inp.page_faults),
        ),
        Metric::new(
            "voxel.store.page_retries_per_frame",
            "count",
            Better::Lower,
            t.per_frame(t.retries),
        ),
        Metric::new("voxel.store.page_in_us", "us", Better::Lower, l.page_in_us)
            .note("cold paged copy minus resident copy, per page fault"),
        Metric::new(
            "voxel.store.resident_mb",
            "MB",
            Better::Lower,
            inp.resident_mb,
        ),
        Metric::new(
            "mem.cache.coarse_hit_rate",
            "ratio",
            Better::Higher,
            t.coarse_hit_rate(),
        )
        .note("base: coarse cache accesses (0 without a cache)"),
        Metric::new(
            "mem.cache.fine_hit_rate",
            "ratio",
            Better::Higher,
            t.fine_hit_rate(),
        )
        .note("base: fine cache accesses (0 without a cache)"),
        Metric::new(
            "mem.cache.access_ns",
            "ns",
            Better::Lower,
            l.cache_access_ns(),
        )
        .note("WorkingSetCache::access, default geometry, warm"),
        Metric::new(
            "mem.ledger.dram_mb.voxel_coarse",
            "MB",
            Better::Lower,
            mb(t.dram[0]),
        ),
        Metric::new(
            "mem.ledger.dram_mb.voxel_fine",
            "MB",
            Better::Lower,
            mb(t.dram[1]),
        ),
        Metric::new(
            "mem.ledger.dram_mb.pixel_out",
            "MB",
            Better::Lower,
            mb(t.dram[2]),
        ),
        Metric::new(
            "mem.ledger.hit_mb_per_frame",
            "MB",
            Better::Higher,
            mb(t.hit),
        ),
        Metric::new(
            "voxel.tiers.nonfull_voxel_share",
            "ratio",
            Better::Higher,
            t.nonfull_share(),
        )
        .note("base: scene voxels"),
    ];
    for k in 0..4 {
        m.push(Metric::new(
            format!("voxel.tiers.fine_dram_mb.t{k}"),
            "MB",
            Better::Lower,
            mb(t.tier_dram[k]),
        ));
    }
    m.extend([
        Metric::new(
            "serve.drain_ms_p50",
            "ms",
            Better::Lower,
            median(&serve.drain_ms),
        )
        .samples(serve.drain_ms.clone())
        .note(no_serve),
        Metric::new(
            "serve.frames_per_drain",
            "count",
            Better::Higher,
            serve.frames_per_drain,
        )
        .note(no_serve),
        Metric::new(
            "serve.sessions_per_drain",
            "count",
            Better::Higher,
            serve.sessions_per_drain,
        )
        .note(no_serve),
        Metric::new(
            "serve.queue_wait_ms_p50",
            "ms",
            Better::Lower,
            median(&serve.queue_wait_ms),
        )
        .samples(serve.queue_wait_ms.clone())
        .note(no_serve),
        Metric::new(
            "serve.backlog_max",
            "count",
            Better::Lower,
            serve.backlog_max as f64,
        )
        .note(no_serve),
        Metric::new(
            "serve.generator_lag_ms_max",
            "ms",
            Better::Lower,
            serve.lag_max_ms,
        )
        .note(no_serve),
        Metric::new(
            "serve.page_amortization",
            "x",
            Better::Higher,
            serve.page_amortization,
        )
        .note(if inp.serve.is_some() {
            "base: sum of private solo page faults"
        } else {
            no_serve
        }),
        Metric::new(
            "serve.deadline_miss_rate",
            "ratio",
            Better::Lower,
            serve.deadline_miss_rate,
        )
        .note(if inp.serve.is_some() {
            "base: requests; deadline: one frame interval"
        } else {
            no_serve
        }),
    ]);
    for (name, share) in ["vsu", "fetch", "coarse", "fine", "sort", "render"]
        .iter()
        .zip(bottleneck)
    {
        m.push(
            Metric::new(
                format!("accel.bottleneck_share.{name}"),
                "ratio",
                Better::Lower,
                share,
            )
            .note("base: tiles of the first lap"),
        );
    }
    m.push(Metric::new(
        "accel.evaluate_us",
        "us",
        Better::Lower,
        evaluate_us,
    ));
    m.push(
        Metric::new("trace.overhead_pct", "%", Better::Lower, overhead_pct)
            .note("base: untraced render (closed loop) or drain (open loop) time per frame"),
    );
    m.push(
        Metric::new(
            "trace.coverage",
            "ratio",
            Better::Higher,
            l.per_frame_s() * 1e3 / inp.render_ms_p50.max(1e-9),
        )
        .note(format!(
            "single-thread layer replay time per frame over render_ms_p50 ({} threads)",
            inp.nproc
        )),
    );
    m
}
