//! Frame fingerprints for the correctness checks: hashed while the run
//! goes, compared against the oracles afterwards.

use gs_core::image::ImageRgb;
use gs_mem::{CacheReport, TrafficLedger};
use gs_voxel::{FrameWorkload, TierUsageReport};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME).rotate_left(29)
}

/// Hash of an image's exact bytes (every channel's bit pattern plus the
/// dimensions), so two images hash alike only if they are byte-identical
/// up to hash collisions.
pub fn image_hash(img: &ImageRgb) -> u64 {
    let mut h = mix(
        FNV_OFFSET,
        (u64::from(img.width()) << 32) | u64::from(img.height()),
    );
    for p in img.as_slice() {
        h = mix(
            h,
            (u64::from(p.x.to_bits()) << 32) | u64::from(p.y.to_bits()),
        );
        h = mix(h, u64::from(p.z.to_bits()));
    }
    h
}

fn str_hash(s: &str) -> u64 {
    s.bytes().fold(FNV_OFFSET, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// Hash of a frame's modelled counters: the per-tile workload, the
/// traffic ledger, the cache report and the tier usage. These are pure
/// functions of the inputs, so a traced and an untraced replay of the
/// same request sequence must agree exactly.
pub fn model_hash(
    workload: &FrameWorkload,
    ledger: &TrafficLedger,
    cache: &Option<CacheReport>,
    tiers: &TierUsageReport,
) -> u64 {
    str_hash(&format!("{workload:?}|{ledger:?}|{cache:?}|{tiers:?}"))
}
