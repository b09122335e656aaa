//! Layer replays of the traced run. A sampled frame's real inputs are
//! captured once by walking the streaming pipeline's public kernels the
//! way the renderer does (rays → DDA → voxel order → coarse fetch and
//! filter → fine fetch and filter → depth sort → blend); each kernel is
//! then timed in a batch over exactly those inputs.
//!
//! The replay cannot see the blender's per-pixel saturation bits, so it
//! streams every ordered voxel until the whole group saturates instead of
//! skipping voxels whose own pixels are already opaque. The inputs are
//! real; the voxel set is a superset of the renderer's. Work counts per
//! frame come from the renderer's own counters, never from the replay.

use crate::trace::Tracer;
use gs_core::camera::Camera;
use gs_core::geom::Ray;
use gs_core::vec::Vec3;
use gs_mem::{CacheConfig, CacheStats, TrafficLedger, WorkingSetCache};
use gs_scene::Gaussian;
use gs_voxel::dda::traverse_into;
use gs_voxel::filter::{coarse_test, fine_test, FineSplat, TileRect};
use gs_voxel::order::{topological_order_into, OrderScratch};
use gs_voxel::streaming::{GroupBlender, MaskScratch, RayChunk, VoxelPixelCsr};
use gs_voxel::{StoreError, StreamingScene, VoxelStore};
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions per kernel; the median repetition counts.
const REPS: usize = 3;

struct VoxelCapture {
    vid: u32,
    mask: Vec<u64>,
    coarse: Vec<(u32, Vec3, f32)>,
    survivors: Vec<u32>,
    gaussians: Vec<Gaussian>,
    splats: Vec<FineSplat>,
}

struct GroupCapture {
    rect: TileRect,
    rays: Vec<Ray>,
    lists: RayChunk,
    voxels: Vec<VoxelCapture>,
}

struct Capture {
    cam: Camera,
    groups: Vec<GroupCapture>,
}

fn max_steps(scene: &StreamingScene) -> u32 {
    let (dx, dy, dz) = scene.grid().dims();
    3 * (dx + dy + dz) + 6
}

fn capture(scene: &StreamingScene, cam: &Camera) -> Result<Capture, StoreError> {
    let cfg = scene.config();
    let (gsz, stride) = (cfg.group_size, cfg.ray_stride);
    let (w, h) = (cam.width(), cam.height());
    let grid = scene.grid();
    let store = scene.store();
    let steps = max_steps(scene);
    let mut ledger = TrafficLedger::new();
    let mut csr = VoxelPixelCsr::new();
    let mut order_scratch = OrderScratch::new();
    let mut order = Vec::new();
    let mut mask = MaskScratch::new();
    let mut blender = GroupBlender::default();
    let mut buf = Vec::new();
    let mut groups = Vec::new();
    for gy in 0..h.div_ceil(gsz) {
        for gx in 0..w.div_ceil(gsz) {
            let rect = TileRect::of_tile(gx, gy, gsz, w, h);
            let (px0, py0, px1, py1) = rect.pixel_bounds(w, h);
            let nx = (px1 - px0).div_ceil(stride);
            let ny = (py1 - py0).div_ceil(stride);
            let mut rays = Vec::with_capacity((nx * ny) as usize);
            let mut lists = RayChunk::new();
            for r in 0..nx * ny {
                let px = px0 + (r % nx) * stride;
                let py = py0 + (r / nx) * stride;
                let ray = cam.pixel_ray(px as f32 + 0.5, py as f32 + 0.5);
                traverse_into(grid, &ray, steps, &mut buf);
                lists.push_ray(&buf);
                rays.push(ray);
            }
            csr.build(std::slice::from_ref(&lists), nx, stride, gsz);
            topological_order_into(
                lists.ray_slices(),
                |v| cam.world_to_camera(grid.voxel_center(v)).z,
                &mut order_scratch,
                &mut order,
            );
            blender.reset(rect, gsz, cfg.voxel_size);
            mask.prepare(gsz, stride);
            let mut voxels = Vec::new();
            for &vid in &order {
                if blender.live() == 0 {
                    break;
                }
                mask.begin_voxel();
                for &pi in csr.pixels_of(vid) {
                    mask.cover(pi);
                }
                let coarse: Vec<(u32, Vec3, f32)> =
                    store.try_fetch_coarse(vid, &mut ledger)?.collect();
                let survivors: Vec<u32> = coarse
                    .iter()
                    .filter(|(_, pos, s_max)| {
                        !cfg.use_coarse_filter || coarse_test(cam, *pos, *s_max, &rect).is_some()
                    })
                    .map(|(slot, _, _)| *slot)
                    .collect();
                let mut gaussians = Vec::with_capacity(survivors.len());
                for &slot in &survivors {
                    gaussians.push(store.try_fetch_fine(slot, &mut ledger)?);
                }
                let mut splats: Vec<FineSplat> = gaussians
                    .iter()
                    .filter_map(|g| fine_test(cam, g, &rect, cfg.sh_degree))
                    .collect();
                splats.sort_unstable_by(|a, b| a.depth.total_cmp(&b.depth));
                for s in &splats {
                    blender.blend(s, mask.words());
                    if blender.live() == 0 {
                        break;
                    }
                }
                voxels.push(VoxelCapture {
                    vid,
                    mask: mask.words().to_vec(),
                    coarse,
                    survivors,
                    gaussians,
                    splats,
                });
            }
            groups.push(GroupCapture {
                rect,
                rays,
                lists,
                voxels,
            });
        }
    }
    Ok(Capture { cam: *cam, groups })
}

/// Median seconds of `REPS` runs of `f`, after one untimed warm-up run.
fn timed(mut f: impl FnMut()) -> f64 {
    f();
    let mut reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    reps.sort_by(f64::total_cmp);
    reps[REPS / 2]
}

/// Per-unit kernel costs over the sampled frames, plus per-frame totals.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    pub frames: usize,
    pub rays: u64,
    pub groups: u64,
    pub coarse_tests: u64,
    pub fine_tests: u64,
    pub voxels: u64,
    pub records: u64,
    pub fragments: u64,
    pub cache_accesses: u64,
    /// Summed seconds per kernel over the sampled frames.
    pub dda_s: f64,
    pub order_s: f64,
    pub coarse_s: f64,
    pub fine_s: f64,
    pub fetch_coarse_s: f64,
    pub fetch_fine_s: f64,
    pub decode_s: f64,
    pub blend_s: f64,
    pub cache_s: f64,
    /// Page-in cost per fault (µs), from a cold paged copy.
    pub page_in_us: f64,
    /// Whether the store holds VQ records (the decode replay ran).
    pub vq: bool,
}

fn ns(s: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        s * 1e9 / n as f64
    }
}

impl LayerTimes {
    pub fn dda_ns_per_ray(&self) -> f64 {
        ns(self.dda_s, self.rays)
    }
    pub fn order_us_per_group(&self) -> f64 {
        ns(self.order_s, self.groups) / 1e3
    }
    pub fn coarse_ns_per_test(&self) -> f64 {
        ns(self.coarse_s, self.coarse_tests)
    }
    pub fn fine_ns_per_test(&self) -> f64 {
        ns(self.fine_s, self.fine_tests)
    }
    pub fn fetch_coarse_ns_per_voxel(&self) -> f64 {
        ns(self.fetch_coarse_s, self.voxels)
    }
    pub fn fetch_fine_ns_per_record(&self) -> f64 {
        ns(self.fetch_fine_s, self.records)
    }
    pub fn decode_ns_per_record(&self) -> f64 {
        ns(self.decode_s, self.records)
    }
    pub fn blend_ns_per_fragment(&self) -> f64 {
        ns(self.blend_s, self.fragments)
    }
    pub fn cache_access_ns(&self) -> f64 {
        ns(self.cache_s, self.cache_accesses)
    }
    /// Summed replay time of one frame's layers, in seconds.
    pub fn per_frame_s(&self) -> f64 {
        (self.dda_s
            + self.order_s
            + self.coarse_s
            + self.fine_s
            + self.fetch_coarse_s
            + self.fetch_fine_s
            + self.blend_s
            + self.cache_s)
            / self.frames.max(1) as f64
    }
}

/// Fetches every captured voxel's coarse column and every survivor's fine
/// record from `store`, in capture order.
fn fetch_pass(store: &VoxelStore, caps: &[Capture]) -> Result<(), StoreError> {
    let mut ledger = TrafficLedger::new();
    for c in caps {
        for g in &c.groups {
            for v in &g.voxels {
                let col = store.try_fetch_coarse(v.vid, &mut ledger)?;
                black_box(col.map(|(slot, _, _)| slot).sum::<u32>());
                for &slot in &v.survivors {
                    black_box(store.try_fetch_fine(slot, &mut ledger)?);
                }
            }
        }
    }
    Ok(())
}

/// Captures `cams` on `scene` and times every layer kernel over them.
/// `resident` is the never-paged copy of the same scene (the page-in
/// baseline).
pub fn replay(
    scene: &StreamingScene,
    resident: &StreamingScene,
    cams: &[Camera],
    tracer: &mut Tracer,
) -> Result<LayerTimes, StoreError> {
    let cfg = *scene.config();
    let grid = scene.grid();
    let store = scene.store();
    let steps = max_steps(scene);
    let mut caps = Vec::new();
    for cam in cams {
        caps.push(capture(scene, cam)?);
    }
    let mut t = LayerTimes {
        frames: caps.len(),
        vq: scene.quantized().is_some(),
        ..LayerTimes::default()
    };
    let mut err: Option<StoreError> = None;
    for c in &caps {
        let cam = &c.cam;
        let req = tracer.request_id();
        let frame_start = Instant::now();
        let frame = tracer.open("layer.frame", frame_start, None, req);

        let mut buf = Vec::new();
        let s = Instant::now();
        t.dda_s += timed(|| {
            for g in &c.groups {
                for ray in &g.rays {
                    black_box(traverse_into(grid, ray, steps, &mut buf));
                }
            }
        });
        tracer.record("layer.dda", s, Instant::now(), frame, req);

        let mut scratch = OrderScratch::new();
        let mut out = Vec::new();
        let s = Instant::now();
        t.order_s += timed(|| {
            for g in &c.groups {
                black_box(topological_order_into(
                    g.lists.ray_slices(),
                    |v| cam.world_to_camera(grid.voxel_center(v)).z,
                    &mut scratch,
                    &mut out,
                ));
            }
        });
        tracer.record("layer.order", s, Instant::now(), frame, req);

        let s = Instant::now();
        t.coarse_s += timed(|| {
            for g in &c.groups {
                for v in &g.voxels {
                    for (_, pos, s_max) in &v.coarse {
                        black_box(coarse_test(cam, *pos, *s_max, &g.rect));
                    }
                }
            }
        });
        tracer.record("layer.filter.coarse", s, Instant::now(), frame, req);

        let s = Instant::now();
        t.fine_s += timed(|| {
            for g in &c.groups {
                for v in &g.voxels {
                    for gauss in &v.gaussians {
                        black_box(fine_test(cam, gauss, &g.rect, cfg.sh_degree));
                    }
                }
            }
        });
        tracer.record("layer.filter.fine", s, Instant::now(), frame, req);

        let mut ledger = TrafficLedger::new();
        let s = Instant::now();
        t.fetch_coarse_s += timed(|| {
            for g in &c.groups {
                for v in &g.voxels {
                    match store.try_fetch_coarse(v.vid, &mut ledger) {
                        Ok(col) => {
                            black_box(col.map(|(slot, _, _)| slot).sum::<u32>());
                        }
                        Err(e) => err = Some(e),
                    }
                }
            }
        });
        tracer.record("layer.store.fetch_coarse", s, Instant::now(), frame, req);

        let s = Instant::now();
        t.fetch_fine_s += timed(|| {
            for g in &c.groups {
                for v in &g.voxels {
                    for &slot in &v.survivors {
                        match store.try_fetch_fine(slot, &mut ledger) {
                            Ok(g) => {
                                black_box(g);
                            }
                            Err(e) => err = Some(e),
                        }
                    }
                }
            }
        });
        tracer.record("layer.store.fetch_fine", s, Instant::now(), frame, req);

        if let Some(q) = scene.quantized() {
            let s = Instant::now();
            t.decode_s += timed(|| {
                for g in &c.groups {
                    for v in &g.voxels {
                        for &slot in &v.survivors {
                            black_box(q.decode_one(store.id_of(slot) as usize));
                        }
                    }
                }
            });
            tracer.record("layer.vq.decode", s, Instant::now(), frame, req);
        }

        let mut blender = GroupBlender::default();
        let mut fragments = 0u64;
        let s = Instant::now();
        t.blend_s += timed(|| {
            fragments = 0;
            for g in &c.groups {
                blender.reset(g.rect, cfg.group_size, cfg.voxel_size);
                'group: for v in &g.voxels {
                    for sp in &v.splats {
                        fragments += blender.blend(sp, &v.mask).blended;
                        if blender.live() == 0 {
                            break 'group;
                        }
                    }
                }
            }
        });
        tracer.record("layer.blend", s, Instant::now(), frame, req);
        t.fragments += fragments;

        // The working-set cache model over this frame's fetch addresses
        // (coarse column ranges, then fine records), warmed by one pass.
        let coarse_bpg = store.coarse_bytes_per_gaussian();
        let fine_bpg = store.fine_bytes_per_gaussian();
        let fine_base = store.coarse_column_bytes();
        let mut trace = Vec::new();
        for g in &c.groups {
            for v in &g.voxels {
                let slots = store.slots_of(v.vid);
                trace.push((
                    u64::from(slots.start) * coarse_bpg,
                    u64::from(slots.end - slots.start) * coarse_bpg,
                ));
                for &slot in &v.survivors {
                    trace.push((fine_base + u64::from(slot) * fine_bpg, fine_bpg));
                }
            }
        }
        let mut cache = WorkingSetCache::new(CacheConfig::default());
        let mut stats = CacheStats::default();
        let s = Instant::now();
        t.cache_s += timed(|| {
            for &(addr, bytes) in &trace {
                black_box(cache.access(addr, bytes, &mut stats));
            }
        });
        tracer.record("layer.mem.cache", s, Instant::now(), frame, req);
        t.cache_accesses += trace.len() as u64;
        tracer.close(frame, Instant::now());

        for g in &c.groups {
            t.rays += g.rays.len() as u64;
            t.groups += 1;
            for v in &g.voxels {
                t.voxels += 1;
                t.coarse_tests += v.coarse.len() as u64;
                t.fine_tests += v.gaussians.len() as u64;
                t.records += v.survivors.len() as u64;
            }
        }
    }
    if let Some(e) = err {
        return Err(e);
    }

    // Page-in: the same fetch sequence on a cold, private paged copy and
    // on the resident copy; the difference per page fault is the cost of
    // materializing (reading, checksumming, retrying) one page.
    if store.is_paged() {
        let cold = scene.clone();
        let s = Instant::now();
        fetch_pass(cold.store(), &caps)?;
        let cold_s = s.elapsed().as_secs_f64();
        tracer.record("layer.store.page_in", s, Instant::now(), None, 0);
        let faults = cold.store().page_faults();
        let s = Instant::now();
        fetch_pass(resident.store(), &caps)?;
        let resident_s = s.elapsed().as_secs_f64();
        if faults > 0 {
            t.page_in_us = (cold_s - resident_s) * 1e6 / faults as f64;
        }
    }
    Ok(t)
}

/// Median whole-frame render milliseconds of `cams` on `scene`
/// (`reps` renders per camera after one warm-up render each).
pub fn render_ms(scene: &StreamingScene, cams: &[Camera], reps: usize, tracer: &mut Tracer) -> f64 {
    let mut out = gs_voxel::StreamingOutput::default();
    let mut ms = Vec::new();
    for cam in cams {
        let _ = scene.try_render_into(cam, &mut out);
        for _ in 0..reps {
            let req = tracer.request_id();
            let s = Instant::now();
            let _ = scene.try_render_into(cam, &mut out);
            let e = Instant::now();
            tracer.record("streaming.render", s, e, None, req);
            ms.push((e - s).as_secs_f64() * 1e3);
        }
    }
    crate::report::median(&ms)
}
