//! Reusable per-frame buffers for the tile renderer.
//!
//! The seed pipeline allocated every intermediate buffer per frame: the
//! projected-splat list, the (tile, depth) key list, the per-tile ranges and
//! one 16×16 pixel buffer **per tile per frame**. [`FrameArena`] owns all of
//! them; every `TileRenderer::render` call reuses the previous frame's
//! capacity, so a steady-state render loop performs no intermediate-buffer
//! allocation (the returned `ImageRgb` is the only per-frame allocation —
//! it is the caller-owned output).

use crate::binning::{BinScratch, TileKey};
use crate::projection::{ProjectScratch, Splat};
use crate::rasterize::{TileOutcome, TileScratch};
use crate::TILE_SIZE;
use gs_core::vec::Vec3;

/// Pixels per tile buffer.
pub const TILE_PIXELS: usize = (TILE_SIZE * TILE_SIZE) as usize;

/// All intermediate buffers of one rendered frame (see module docs).
#[derive(Clone, Debug, Default)]
pub struct FrameArena {
    /// Projected splats (projection stage output).
    pub splats: Vec<Splat>,
    /// Sorted (tile, depth) keys (sorting stage output / scatter buffer).
    pub keys: Vec<TileKey>,
    /// Per-tile `(start, end)` ranges into `keys`.
    pub ranges: Vec<(u32, u32)>,
    /// All tiles' pixel buffers, `TILE_PIXELS` each, tile-major.
    pub tile_pixels: Vec<Vec3>,
    /// Per-tile rasterization counters.
    pub outcomes: Vec<TileOutcome>,
    /// Per-executor blend scratch (transmittance / done flags).
    pub scratch: Vec<TileScratch>,
    /// Per-chunk buffers for the splat-parallel projection stage.
    pub project: ProjectScratch,
    /// Per-chunk histograms/cursors for the parallel binning stage.
    pub bin: BinScratch,
}

impl FrameArena {
    /// An empty arena (buffers grow on first use).
    pub fn new() -> FrameArena {
        FrameArena::default()
    }

    /// Sizes the rasterization-stage buffers for `n_tiles` tiles rendered by
    /// `executors` parallel executors. Only grows capacity; never shrinks.
    pub fn ensure_tiles(&mut self, n_tiles: usize, executors: usize) {
        self.tile_pixels.resize(n_tiles * TILE_PIXELS, Vec3::ZERO);
        self.outcomes.resize(n_tiles, TileOutcome::default());
        if self.scratch.len() < executors {
            self.scratch.resize_with(executors, TileScratch::new);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_tiles_grows_and_keeps_capacity() {
        let mut a = FrameArena::new();
        a.ensure_tiles(12, 4);
        assert_eq!(a.tile_pixels.len(), 12 * TILE_PIXELS);
        assert_eq!(a.outcomes.len(), 12);
        assert!(a.scratch.len() >= 4);
        let cap = a.tile_pixels.capacity();
        a.ensure_tiles(6, 2);
        assert_eq!(a.tile_pixels.len(), 6 * TILE_PIXELS);
        assert_eq!(
            a.tile_pixels.capacity(),
            cap,
            "shrinking must not reallocate"
        );
        assert!(a.scratch.len() >= 4, "scratch persists");
    }
}
