//! # gs-mem — DRAM/SRAM models, traffic ledger and energy accounting
//!
//! The quantitative backbone of every simulator in the workspace:
//!
//! * [`dram::DramModel`] — an LPDDR3-class bandwidth/energy model
//!   (paper Sec. V-A: Micron 16 Gb LPDDR3, 4 channels),
//! * [`sram::SramBuffer`] — capacity-checked on-chip buffers with access
//!   energy (paper: 16 KB double-buffered input, 250 KB codebook, 89 KB
//!   intermediate),
//! * [`ledger::TrafficLedger`] — per-stage read/write byte accounting.
//!   Since PR 3 this is the **single source of byte truth** for the
//!   streaming pipeline: `gs_voxel`'s renderer owns one ledger per
//!   worker, meters every voxel-store fetch and pixel writeback through
//!   it, merges them per frame in deterministic worker order, derives the
//!   workload byte counters from the ledger stages, and `gs-accel` prices
//!   DRAM time/energy from the same measured bytes
//!   (`StreamingGsModel::evaluate_measured`). Since PR 4 the ledger keeps
//!   three counter classes per stage: *demand* bytes (the byte-exactness
//!   invariant), *DRAM transaction* bytes (burst-rounded per transfer,
//!   cache misses only — what pricing consumes) and *cache-hit* bytes
//!   (served on-chip, priced as SRAM),
//! * [`cache::WorkingSetCache`] — a deterministic set-associative LRU
//!   working-set cache model the streaming renderer fronts its
//!   coarse/fine voxel fetches with, so trajectory temporal locality
//!   turns repeat fetches into on-chip hits instead of DRAM bursts,
//! * [`energy::EnergyBreakdown`] — compute/SRAM/DRAM picojoule totals,
//! * [`crc::crc32`] — CRC-32/IEEE for scene-image integrity: the paged
//!   voxel store checksums its serialized column payloads per chunk and
//!   verifies them on page materialization. The kernel is a safe
//!   slicing-by-16 loop (16 bytes per step over `const`-built tables),
//!   and [`crc::crc32_chunks`] checksums every fixed-length chunk of a
//!   buffer in one call, four chunks at a time as interleaved streams —
//!   how a page fill verifies its whole chunk cover and how the image
//!   writer builds its chunk tables.
//!
//! ## Example
//!
//! ```
//! use gs_mem::dram::DramModel;
//! let dram = DramModel::lpddr3_x4();
//! // Four LPDDR3 channels ≈ 25.6 GB/s aggregate in this model.
//! let ns = dram.transfer_ns(25_600_000_000 / 1000);
//! assert!((ns - 1_000_000.0).abs() / 1_000_000.0 < 0.01);
//! ```

pub mod cache;
pub mod crc;
pub mod dram;
pub mod energy;
pub mod ledger;
pub mod sram;

pub use cache::{CacheConfig, CacheReport, CacheStats, WorkingSetCache};
pub use dram::DramModel;
pub use energy::EnergyBreakdown;
pub use ledger::{Direction, Stage, TrafficLedger, MAX_TIERS};
pub use sram::SramBuffer;
