//! What every workload shares: scene set-up, the oracles, per-request
//! records and the metrics computed from them.

use crate::check::{image_hash, model_hash};
use crate::inputs::Inputs;
use crate::probe::Stamp;
use crate::report::{mean, median, summarize, tail, Better, Check, Metric};
use crate::trace::Tracer;
use gs_accel::{GpuModel, StreamingGsModel};
use gs_core::image::ImageRgb;
use gs_mem::{CacheReport, Direction, Stage, TrafficLedger, MAX_TIERS};
use gs_render::{RenderConfig, TileRenderer};
use gs_scene::{Scene, SceneConfig};
use gs_voxel::{
    FaultPolicy, FrameWorkload, PageConfig, StreamingConfig, StreamingOutput, StreamingScene,
    TierUsageReport, TileWorkload,
};
use std::time::Instant;

/// Set-ups per run: at least `SETUP_MIN_REPS`, and more while they add
/// up to less than `SETUP_MIN_S`, up to `SETUP_MAX_REPS`; `setup_s` is
/// their median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 25;
const SETUP_MIN_S: f64 = 2.5;

/// A prepared workload scene plus its resident (never paged) copy, which
/// the oracles render from.
pub struct Prepared {
    pub scene: Scene,
    pub paged: StreamingScene,
    pub resident: StreamingScene,
    /// Per set-up seconds: whole set-up, `SceneKind::build`,
    /// `StreamingScene::new`, `page_out*`.
    pub total_s: Vec<f64>,
    pub build_s: Vec<f64>,
    pub prepare_s: Vec<f64>,
    pub page_out_s: Vec<f64>,
}

/// Runs the set-up several times — build the scene, prepare it for
/// streaming, page it out — and keeps the last result. Only the three
/// program calls are timed; cloning inputs and the oracle's resident copy
/// are not. Times are net of hypervisor steal.
pub fn prepare(
    inputs: &Inputs,
    config: StreamingConfig,
    page: PageConfig,
    faults: Option<FaultPolicy>,
    tracer: &mut Tracer,
) -> Prepared {
    let scene_cfg = SceneConfig {
        seed: inputs.scene_seed,
        ..SceneConfig::full()
    };
    let mut times = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut last = None;
    let start = Stamp::now();
    while times[0].len() < SETUP_MIN_REPS
        || (times[0].len() < SETUP_MAX_REPS && start.at.elapsed().as_secs_f64() < SETUP_MIN_S)
    {
        // Drop the previous set-up first, so only one is ever alive.
        drop(last.take());
        let t0 = Instant::now();
        let scene = inputs.workload.scene_kind().build(&scene_cfg);
        let t1 = Instant::now();
        let cloud = scene.trained.clone();
        let config = StreamingConfig {
            voxel_size: scene.voxel_size,
            ..config
        };
        let t2 = Instant::now();
        let mut paged = StreamingScene::new(cloud, config);
        let t3 = Instant::now();
        let resident = paged.clone();
        let t4 = Instant::now();
        match faults {
            Some(policy) => paged
                .page_out_with_faults(page, policy)
                .expect("an in-memory scene image pages out"),
            None => paged.page_out(page),
        }
        let t5 = Instant::now();
        let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
        let parts = [s(t0, t1), s(t2, t3), s(t4, t5)];
        times[0].push(parts.iter().sum());
        times[1].push(parts[0]);
        times[2].push(parts[1]);
        times[3].push(parts[2]);
        let setup = tracer.record("setup", t0, t5, None, 0);
        tracer.record("scene.build", t0, t1, setup, 0);
        tracer.record("streaming.prepare", t2, t3, setup, 0);
        tracer.record("store.page_out", t4, t5, setup, 0);
        last = Some((scene, paged, resident));
    }
    let (scene, paged, resident) = last.expect("at least one set-up ran");
    // Set-up times are net of the steal during all of them (one factor:
    // a single short set-up spans too few steal ticks).
    let keep = start.keep(&Stamp::now());
    let [total_s, build_s, prepare_s, page_out_s] =
        times.map(|v| v.iter().map(|s| s * keep).collect());
    Prepared {
        scene,
        paged,
        resident,
        total_s,
        build_s,
        prepare_s,
        page_out_s,
    }
}

/// Per-camera reference results, computed untimed before measuring.
pub struct Oracle {
    /// Hash of `render_cloud_twin` on the resident copy: the bytes every
    /// full-quality frame of that camera must reproduce.
    pub full_hash: Vec<u64>,
    /// PSNR of the full-quality frame against the ground truth.
    pub full_psnr: Vec<f64>,
    /// Tile render of `scene.ground_truth` (the PSNR reference).
    pub ground_truth: Vec<ImageRgb>,
    /// Modelled GPU seconds for the camera (`GpuModel` on the tile
    /// renderer's statistics of the trained cloud).
    pub gpu_s: Vec<f64>,
}

pub fn oracle(prepared: &Prepared, inputs: &Inputs) -> Oracle {
    let renderer = TileRenderer::new(RenderConfig::default());
    let gpu = GpuModel::default();
    let mut o = Oracle {
        full_hash: Vec::new(),
        full_psnr: Vec::new(),
        ground_truth: Vec::new(),
        gpu_s: Vec::new(),
    };
    for cam in &inputs.cameras {
        let twin = prepared.resident.render_cloud_twin(cam);
        let gt = renderer.render(&prepared.scene.ground_truth, cam).image;
        let stats = renderer.render(&prepared.scene.trained, cam).stats;
        o.full_hash.push(image_hash(&twin.image));
        o.full_psnr.push(twin.image.psnr(&gt));
        o.gpu_s.push(gpu.evaluate(&stats).seconds);
        o.ground_truth.push(gt);
    }
    o
}

/// Counters of one delivered frame, copied out right after it rendered.
#[derive(Clone, Debug, Default)]
pub struct FrameCounts {
    pub totals: TileWorkload,
    /// DRAM transaction bytes: voxel coarse, voxel fine, pixel out.
    pub dram: [u64; 3],
    pub hit_total: u64,
    pub cache: Option<CacheReport>,
    pub tiers: TierUsageReport,
    pub page_retries: u64,
    pub violating_blends: u64,
    pub total_blends: u64,
}

impl FrameCounts {
    pub fn of(out: &StreamingOutput) -> FrameCounts {
        let l = &out.ledger;
        FrameCounts {
            totals: out.workload.totals(),
            dram: [
                l.dram(Stage::VoxelCoarse, Direction::Read),
                l.dram(Stage::VoxelFine, Direction::Read),
                l.dram(Stage::PixelOut, Direction::Write),
            ],
            hit_total: l.hit_total(),
            cache: out.cache,
            tiers: out.tiers,
            page_retries: out.degradation.page_retries,
            violating_blends: out.violations.violating_blends,
            total_blends: out.violations.total_blends,
        }
    }
}

/// One request of a measured phase.
#[derive(Clone, Debug)]
pub struct Delivery {
    pub client: usize,
    /// Position in the client's request sequence of this phase.
    pub seq: usize,
    /// Index into `Inputs::cameras`.
    pub cam: usize,
    /// Seconds from due to delivered.
    pub latency_s: f64,
    /// Delivered at all (a failed render or an abandoned request is not).
    pub delivered: bool,
    pub hash: u64,
    pub counts: FrameCounts,
}

/// The modelled outputs of one of a client's first-lap frames, kept to
/// price on the accelerator model and to compare traced with untraced.
#[derive(Clone, Debug)]
pub struct ModelFrame {
    pub client: usize,
    pub seq: usize,
    pub cam: usize,
    pub workload: FrameWorkload,
    pub ledger: TrafficLedger,
    pub cache: Option<CacheReport>,
    pub tiers: TierUsageReport,
}

impl ModelFrame {
    pub fn of(client: usize, seq: usize, cam: usize, out: &StreamingOutput) -> ModelFrame {
        ModelFrame {
            client,
            seq,
            cam,
            workload: out.workload.clone(),
            ledger: out.ledger.clone(),
            cache: out.cache,
            tiers: out.tiers,
        }
    }

    pub fn hash(&self) -> u64 {
        model_hash(&self.workload, &self.ledger, &self.cache, &self.tiers)
    }
}

/// One scheduler drain (open loop only).
#[derive(Clone, Debug)]
pub struct DrainRec {
    pub dur_s: f64,
    pub frames: usize,
    pub sessions: usize,
}

/// Everything one measured phase produced.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    pub deliveries: Vec<Delivery>,
    /// Each client's first-lap frames, in (client, seq) order.
    pub model: Vec<ModelFrame>,
    /// Wall seconds from the phase start to its last delivery.
    pub wall_s: f64,
    /// Process CPU seconds over the phase.
    pub cpu_s: f64,
    /// Seconds spent inside render or drain calls.
    pub busy_s: f64,
    /// Store page faults over the phase.
    pub page_faults: u64,
    pub drains: Vec<DrainRec>,
    /// Due → drain start, per request (open loop).
    pub queue_wait_s: Vec<f64>,
    /// Largest submit − due over the phase (open loop).
    pub lag_max_s: f64,
    /// Whole laps (closed loop).
    pub laps: Vec<Lap>,
    /// Share of the machine's CPU time the hypervisor stole during the
    /// phase (see [`crate::probe::Stamp`]).
    pub steal_share: f64,
}

/// One whole lap of a closed-loop phase.
#[derive(Clone, Debug)]
pub struct Lap {
    pub frames: usize,
    /// Wall seconds net of the lap's steal share.
    pub net_s: f64,
    /// Process CPU seconds.
    pub cpu_s: f64,
}

impl Phase {
    pub fn delivered(&self) -> usize {
        self.deliveries.iter().filter(|d| d.delivered).count()
    }

    /// Frames per second: in closed loop the median over whole laps of
    /// frames per lap second net of steal; in open loop delivered frames
    /// over the phase's wall time (the offered rate below capacity).
    pub fn fps(&self) -> f64 {
        if self.laps.is_empty() {
            self.delivered() as f64 / self.wall_s.max(1e-9)
        } else {
            median(&self.lap_fps())
        }
    }

    fn lap_fps(&self) -> Vec<f64> {
        self.laps
            .iter()
            .map(|l| l.frames as f64 / l.net_s)
            .collect()
    }

    fn lap_cpu_ms(&self) -> Vec<f64> {
        self.laps
            .iter()
            .map(|l| l.cpu_s * 1e3 / l.frames as f64)
            .collect()
    }

    /// Process CPU seconds per delivered frame (median over laps in
    /// closed loop). CPU time excludes steal by construction.
    pub fn cpu_per_frame_s(&self) -> f64 {
        if self.laps.is_empty() {
            self.cpu_s / self.delivered().max(1) as f64
        } else {
            median(&self.lap_cpu_ms()) / 1e3
        }
    }

    /// Seconds inside render or drain calls per delivered frame.
    pub fn busy_per_frame_s(&self) -> f64 {
        self.busy_s / self.delivered().max(1) as f64
    }

    pub fn latencies(&self) -> Vec<f64> {
        self.deliveries.iter().map(|d| d.latency_s).collect()
    }
}

/// For a traced run (an untraced and a traced phase of the same
/// requests): the check that their first-lap modelled counters agree, and
/// how many frames disagree.
pub fn model_agreement(phases: &[Phase]) -> Option<(Check, u64)> {
    let [a, b] = phases else {
        return None;
    };
    let mismatched = a
        .model
        .iter()
        .zip(&b.model)
        .filter(|(x, y)| x.hash() != y.hash())
        .count()
        + a.model.len().abs_diff(b.model.len());
    let check = Check {
        name: "modelled counters traced == untraced".into(),
        ok: mismatched == 0,
        detail: format!(
            "{} first-lap frames compared",
            a.model.len().min(b.model.len())
        ),
    };
    Some((check, mismatched as u64))
}

/// End-to-end metrics common to every workload: throughput, latency,
/// CPU per frame. Latency and CPU are in ms.
pub fn throughput_metrics(phase: &Phase) -> Vec<Metric> {
    let lat_ms: Vec<f64> = phase.latencies().iter().map(|s| s * 1e3).collect();
    let t = tail(&lat_ms);
    let steal = format!(
        "net of hypervisor steal ({:.1} % of CPU time over the phase)",
        phase.steal_share * 100.0
    );
    vec![
        Metric::new("fps", "1/s", Better::Higher, phase.fps())
            .samples(phase.lap_fps())
            .note(format!(
                "{} frames in {:.3} s wall{}",
                phase.delivered(),
                phase.wall_s,
                if phase.laps.is_empty() {
                    String::new()
                } else {
                    format!("; median over laps, {steal}")
                }
            )),
        Metric::new("frame_latency_ms_p50", "ms", Better::Lower, median(&lat_ms))
            .samples(lat_ms.clone())
            .note(steal),
        Metric::new("frame_latency_ms_tail", "ms", Better::Lower, t.value)
            .samples(lat_ms)
            .note(format!(
                "p{:.1}: {} of {} samples beyond",
                t.percentile, t.beyond, t.n
            )),
        Metric::new(
            "cpu_ms_per_frame",
            "ms",
            Better::Lower,
            phase.cpu_per_frame_s() * 1e3,
        )
        .samples(phase.lap_cpu_ms())
        .note("user+sys CPU of the process"),
    ]
}

/// Modelled metrics of the first-lap frames: DRAM per frame, the
/// accelerator model's fps and energy, the speed-up over the GPU model
/// and the mean PSNR (`psnr` gives each model frame's PSNR).
pub fn model_metrics(
    model: &[ModelFrame],
    oracle: &Oracle,
    psnr: impl Fn(&ModelFrame) -> f64,
) -> Vec<Metric> {
    let accel = StreamingGsModel::default();
    let n = model.len().max(1) as f64;
    let mut accel_s = 0.0;
    let mut gpu_s = 0.0;
    let mut energy = Vec::new();
    let mut dram = Vec::new();
    let mut psnrs = Vec::new();
    for mf in model {
        let rep = accel.evaluate_measured(&mf.workload, &mf.ledger);
        accel_s += rep.seconds;
        gpu_s += oracle.gpu_s[mf.cam];
        energy.push(rep.energy.total_mj());
        dram.push(mf.ledger.dram_total() as f64 / 1e6);
        psnrs.push(psnr(mf));
    }
    vec![
        Metric::new("dram_mb_per_frame", "MB", Better::Lower, mean(&dram))
            .samples(dram)
            .note("modelled: burst-rounded DRAM transactions, first lap"),
        Metric::new("accel_fps", "1/s", Better::Higher, n / accel_s.max(1e-30))
            .note("modelled: StreamingGsModel::evaluate_measured, first lap"),
        Metric::new(
            "accel_energy_mj_per_frame",
            "mJ",
            Better::Lower,
            mean(&energy),
        )
        .samples(energy)
        .note("modelled"),
        Metric::new(
            "accel_speedup_vs_gpu",
            "x",
            Better::Higher,
            gpu_s / accel_s.max(1e-30),
        )
        .note("modelled; base: GpuModel seconds for the same cameras"),
        Metric::new("psnr_db", "dB", Better::Higher, mean(&psnrs))
            .samples(psnrs)
            .note("vs tile render of scene.ground_truth, first lap"),
    ]
}

/// `setup_s` and `peak_rss_mb`.
pub fn setup_and_memory(prepared: &Prepared) -> Vec<Metric> {
    let s = summarize(&prepared.total_s);
    vec![
        Metric::new("setup_s", "s", Better::Lower, s.median)
            .samples(prepared.total_s.clone())
            .note("build + StreamingScene::new + page_out, median of set-ups"),
        Metric::new(
            "peak_rss_mb",
            "MB",
            Better::Lower,
            crate::probe::peak_rss_mb(),
        )
        .note("VmHWM of the process"),
    ]
}

/// Sums over delivered frames, for the per-layer counts and the
/// workload-property shares.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    pub frames: u64,
    pub w: TileWorkload,
    pub dram: [u64; 3],
    pub hit: u64,
    pub coarse_hits: u64,
    pub coarse_accesses: u64,
    pub fine_hits: u64,
    pub fine_accesses: u64,
    pub tier_voxels: [u64; MAX_TIERS],
    pub tier_dram: [u64; MAX_TIERS],
    pub retries: u64,
    pub violating: u64,
    pub blends: u64,
}

impl Totals {
    pub fn of<'a>(deliveries: impl IntoIterator<Item = &'a Delivery>) -> Totals {
        let mut t = Totals::default();
        for d in deliveries.into_iter().filter(|d| d.delivered) {
            let c = &d.counts;
            t.frames += 1;
            let w = &c.totals;
            t.w.rays += w.rays;
            t.w.dda_steps += w.dda_steps;
            t.w.cycle_breaks += w.cycle_breaks;
            t.w.gaussians_streamed += w.gaussians_streamed;
            t.w.coarse_survivors += w.coarse_survivors;
            t.w.fine_survivors += w.fine_survivors;
            t.w.blend_fragments += w.blend_fragments;
            for i in 0..3 {
                t.dram[i] += c.dram[i];
            }
            t.hit += c.hit_total;
            if let Some(cr) = c.cache {
                t.coarse_hits += cr.coarse.hits;
                t.coarse_accesses += cr.coarse.accesses;
                t.fine_hits += cr.fine.hits;
                t.fine_accesses += cr.fine.accesses;
            }
            for k in 0..MAX_TIERS {
                t.tier_voxels[k] += c.tiers.voxels[k];
                t.tier_dram[k] += c.tiers.dram_bytes[k];
            }
            t.retries += c.page_retries;
            t.violating += c.violating_blends;
            t.blends += c.total_blends;
        }
        t
    }

    pub fn per_frame(&self, x: u64) -> f64 {
        x as f64 / self.frames.max(1) as f64
    }

    pub fn coarse_hit_rate(&self) -> f64 {
        ratio(self.coarse_hits, self.coarse_accesses)
    }

    pub fn fine_hit_rate(&self) -> f64 {
        ratio(self.fine_hits, self.fine_accesses)
    }

    /// Share of scene voxels rendered below full quality (tier ≥ 1).
    pub fn nonfull_share(&self) -> f64 {
        let all: u64 = self.tier_voxels.iter().sum();
        ratio(all - self.tier_voxels[0], all)
    }
}

pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The workload-property shares every report prints, so a later change
/// that helps only inputs with some property can cite how much of each
/// workload has it.
pub fn properties(totals: &Totals, page_faults: u64, sessions_per_drain: f64) -> Vec<Metric> {
    vec![
        Metric::new(
            "prop.page_faults_per_frame",
            "count",
            Better::Neither,
            totals.per_frame(page_faults),
        ),
        Metric::new(
            "prop.coarse_hit_rate",
            "ratio",
            Better::Neither,
            totals.coarse_hit_rate(),
        ),
        Metric::new(
            "prop.fine_hit_rate",
            "ratio",
            Better::Neither,
            totals.fine_hit_rate(),
        ),
        Metric::new(
            "prop.nonfull_tier_voxel_share",
            "ratio",
            Better::Neither,
            totals.nonfull_share(),
        ),
        Metric::new(
            "prop.sessions_per_drain",
            "count",
            Better::Neither,
            sessions_per_drain,
        ),
    ]
}
