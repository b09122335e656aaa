//! Seeded input generation: one `--seed` becomes every input a workload
//! hands the program — the scene seed, each client's camera sequence, the
//! request schedule and the fault-injection seed. The program under test
//! receives only these generated values.

use gs_core::camera::Camera;
use gs_core::vec::Vec3;
use gs_scene::trajectory::{dome, RigSpec};
use gs_scene::SceneKind;

/// The three workloads of the benchmark.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One client, closed loop, a smooth Truck walkthrough.
    VrSingle,
    /// Four open-loop sessions on one shared, tiered Playroom shard.
    ServeMixed,
    /// One client, closed loop, seeded jumps over a dome of Truck views
    /// with a page budget far below one frame's working set.
    PagedChurn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::VrSingle,
        Workload::ServeMixed,
        Workload::PagedChurn,
    ];

    /// The name the command line and the report use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::VrSingle => "vr_single",
            Workload::ServeMixed => "serve_mixed",
            Workload::PagedChurn => "paged_churn",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scene the workload renders.
    pub fn scene_kind(self) -> SceneKind {
        match self {
            Workload::VrSingle | Workload::PagedChurn => SceneKind::Truck,
            Workload::ServeMixed => SceneKind::Playroom,
        }
    }
}

/// How requests reach the program.
#[derive(Clone, Debug, PartialEq)]
pub enum Schedule {
    /// Each client sends its next request when the previous one finished.
    ClosedLoop,
    /// Every client requests one frame per tick of a fixed clock; all
    /// clients share the tick.
    OpenLoop {
        /// Per-client request rate of the measured phase, in frames/s.
        rate_hz: f64,
        /// The fixed per-client rate ladder the capacity search walks.
        ladder_hz: Vec<f64>,
    },
}

/// Everything one run feeds the program, derived from the seed alone.
#[derive(Clone, Debug, PartialEq)]
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// Folded into `SceneConfig::seed`.
    pub scene_seed: u64,
    /// Distinct cameras of the run; client sequences index into it.
    pub cameras: Vec<Camera>,
    /// Per-client lap: indices into `cameras`, replayed cyclically.
    pub laps: Vec<Vec<usize>>,
    /// Request schedule.
    pub schedule: Schedule,
    /// Seed of the paged store's fault injector (`paged_churn` only).
    pub fault_seed: u64,
}

/// Per-client rate of `serve_mixed`'s measured phase (frames/s). About
/// half of the 4-session capacity measured on a 2-core host, so the
/// measured phase runs below saturation.
pub const SERVE_RATE_HZ: f64 = 2.0;
/// Ratio between adjacent steps of the capacity ladder.
pub const LADDER_RATIO: f64 = 1.06;
/// Steps of the capacity ladder (`SERVE_RATE_HZ · LADDER_RATIO^k`).
pub const LADDER_STEPS: usize = 41;
/// Sessions of `serve_mixed`.
pub const SERVE_CLIENTS: usize = 4;

/// SplitMix64: a tiny, well-mixed generator so a seed fans out into
/// independent streams without any external crate.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// A uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Stand-in rendering resolution (`SceneConfig::full()` for the real-world
/// scenes) and the scene builder's field of view.
fn rig() -> RigSpec {
    RigSpec {
        width: 320,
        height: 208,
        fov_x: 0.9,
    }
}

/// Generates the inputs of `workload` from `seed`.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let mut rng = SplitMix::new(seed ^ 0x5EED_BE4C_0000_0000);
    let scene_seed = rng.next_u64();
    let fault_seed = rng.next_u64();
    let spec = rig();
    match workload {
        Workload::VrSingle => {
            // A smooth closed walkthrough: the eye sweeps a ±34° arc beside
            // the truck while its distance breathes, so consecutive frames
            // overlap and every camera is distinct. The seed turns the arc
            // by at most ±3°, which changes every view but not the mix of
            // near and far ones.
            const LAP: usize = 12;
            let focus = Vec3::new(0.0, 1.2, 0.0);
            let center = 0.8 + 0.1 * (rng.unit() - 0.5);
            let cameras = (0..LAP)
                .map(|i| {
                    let t = std::f32::consts::TAU * i as f32 / LAP as f32;
                    let theta = center + 0.6 * t.sin();
                    let radius = 10.5 + 1.2 * t.cos();
                    let eye = focus + Vec3::new(radius * theta.cos(), 3.3, radius * theta.sin());
                    Camera::look_at(eye, focus, Vec3::Y, spec.width, spec.height, spec.fov_x)
                })
                .collect();
            Inputs {
                workload,
                scene_seed,
                cameras,
                laps: vec![(0..LAP).collect()],
                schedule: Schedule::ClosedLoop,
                fault_seed,
            }
        }
        Workload::ServeMixed => {
            // One ring of views inside the room, turned by up to a quarter
            // of the view spacing; the sessions walk it from offset starting
            // points (a quarter lap apart, plus a seeded shift shared by all).
            const LAP: usize = 12;
            let focus = Vec3::new(0.0, 1.4, 0.0);
            let step = std::f32::consts::TAU / LAP as f32;
            let phase = rng.unit() * step / 4.0;
            let cameras = (0..LAP)
                .map(|i| {
                    let a = phase + step * i as f32;
                    let eye = focus + Vec3::new(2.66 * a.cos(), 1.76, 2.66 * a.sin());
                    Camera::look_at(eye, focus, Vec3::Y, spec.width, spec.height, spec.fov_x)
                })
                .collect();
            let shift = rng.below(LAP);
            let laps = (0..SERVE_CLIENTS)
                .map(|c| {
                    (0..LAP)
                        .map(|i| (i + shift + c * LAP / SERVE_CLIENTS) % LAP)
                        .collect()
                })
                .collect();
            let ladder_hz = (0..LADDER_STEPS)
                .map(|k| SERVE_RATE_HZ * LADDER_RATIO.powi(k as i32))
                .collect();
            Inputs {
                workload,
                scene_seed,
                cameras,
                laps,
                schedule: Schedule::OpenLoop {
                    rate_hz: SERVE_RATE_HZ,
                    ladder_hz,
                },
                fault_seed,
            }
        }
        Workload::PagedChurn => {
            // Seeded jumps between the views of a dome rig (turned by up to
            // 7.5°, an eighth of its 60° spacing): each lap is a seeded
            // permutation of all views, so no view repeats back to back —
            // there is little temporal locality for the page budget to
            // exploit — while every lap renders the same mix of views.
            const VIEWS: usize = 12;
            let phase = rng.unit() * std::f32::consts::TAU / (4 * VIEWS) as f32;
            let cameras = dome(Vec3::new(0.0, 1.2, 0.0), 11.0, VIEWS, phase, &spec);
            let mut lap: Vec<usize> = (0..VIEWS).collect();
            for i in (1..VIEWS).rev() {
                lap.swap(i, rng.below(i + 1));
            }
            Inputs {
                workload,
                scene_seed,
                cameras,
                laps: vec![lap],
                schedule: Schedule::ClosedLoop,
                fault_seed,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_reproduces_identical_inputs() {
        for w in Workload::ALL {
            assert_eq!(generate(w, 7), generate(w, 7), "{}", w.name());
        }
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        for w in Workload::ALL {
            let (a, b) = (generate(w, 7), generate(w, 8));
            assert_ne!(a.scene_seed, b.scene_seed);
            assert_ne!(a.fault_seed, b.fault_seed);
            assert_ne!(a.cameras, b.cameras, "{}", w.name());
        }
    }

    #[test]
    fn laps_index_the_camera_list() {
        for w in Workload::ALL {
            let inputs = generate(w, 3);
            assert!(!inputs.laps.is_empty());
            for lap in &inputs.laps {
                assert!(!lap.is_empty());
                assert!(lap.iter().all(|&i| i < inputs.cameras.len()));
            }
        }
    }

    #[test]
    fn churn_lap_visits_every_view_once() {
        for seed in 0..20 {
            let inputs = generate(Workload::PagedChurn, seed);
            let mut lap = inputs.laps[0].clone();
            lap.sort_unstable();
            assert_eq!(lap, (0..inputs.cameras.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn serve_clients_start_at_different_views() {
        let inputs = generate(Workload::ServeMixed, 5);
        let starts: Vec<usize> = inputs.laps.iter().map(|l| l[0]).collect();
        for (i, a) in starts.iter().enumerate() {
            for b in &starts[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
