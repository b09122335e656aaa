//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) for scene-image
//! integrity checking.
//!
//! The paged voxel store ships scenes as serialized images whose columns are
//! demand-read from a slow tier; PR 6 extends the image format with per-chunk
//! checksums over both column payloads plus one over the metadata prefix, all
//! computed with this module (no crates.io dependency).
//!
//! ## Kernel
//!
//! Safe, portable **slicing-by-16**: sixteen 256-entry tables (built by a
//! `const fn` at compile time, 16 KiB) fold 16 input bytes per step with
//! sixteen independent table loads instead of sixteen dependent ones; a
//! short tail falls back to the classic one-byte step over table 0. The
//! values are exactly the byte-at-a-time (Sarwate) values.
//!
//! Page verification checks *many* equal-length chunks, each with its own
//! CRC, so [`crc32_chunks`] runs groups of four chunks as interleaved
//! independent streams: the four dependency chains overlap and hide the
//! table-load latency a single stream waits on.
//!
//! Three entry points:
//!
//! * [`crc32`] — one-shot over a byte slice,
//! * [`crc32_chunks`] — one CRC per fixed-length chunk of a slice (the last
//!   chunk may be short), reported in ascending chunk order,
//! * [`Crc32`] — incremental (streaming) digest for writers that produce the
//!   payload in pieces; `Crc32::new().update(a).update(b).finish()` equals
//!   `crc32(a ++ b)`.

/// The reflected IEEE polynomial used by zlib, PNG, Ethernet.
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per slicing step (and number of tables).
const SLICE: usize = 16;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC
/// register contribution of byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i: u32 = 0;
    while i < 256 {
        let mut c = i;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i as usize] = c;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICE] = build_tables();

/// Folds one 16-byte block into the CRC register `state`.
#[inline(always)]
fn step16(state: u32, block: &[u8; SLICE]) -> u32 {
    let s = state.to_le_bytes();
    let mut x = *block;
    for (b, s) in x.iter_mut().zip(s) {
        *b ^= s;
    }
    let mut acc = 0u32;
    for (j, &b) in x.iter().enumerate() {
        acc ^= TABLES[SLICE - 1 - j][usize::from(b)];
    }
    acc
}

/// Folds `bytes` one at a time (the tail after the last whole block).
#[inline(always)]
fn step_bytes(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// Folds `bytes` into the CRC register `state` (slicing-by-16).
fn update(mut state: u32, bytes: &[u8]) -> u32 {
    let (blocks, tail) = bytes.as_chunks::<SLICE>();
    for block in blocks {
        state = step16(state, block);
    }
    step_bytes(state, tail)
}

/// The CRCs of four **equal-length** slices, computed as four interleaved
/// streams.
fn crc32_x4(parts: [&[u8]; 4]) -> [u32; 4] {
    let [a, b, c, d] = parts.map(|p| p.as_chunks::<SLICE>());
    let mut s = [!0u32; 4];
    for (((ba, bb), bc), bd) in a.0.iter().zip(b.0).zip(c.0).zip(d.0) {
        s[0] = step16(s[0], ba);
        s[1] = step16(s[1], bb);
        s[2] = step16(s[2], bc);
        s[3] = step16(s[3], bd);
    }
    for (s, tail) in s.iter_mut().zip([a.1, b.1, c.1, d.1]) {
        *s = !step_bytes(*s, tail);
    }
    s
}

/// One-shot CRC-32/IEEE of `bytes` (`crc32(b"") == 0`).
pub fn crc32(bytes: &[u8]) -> u32 {
    Crc32::new().update(bytes).finish()
}

/// Calls `f(i, crc32(chunk_i))` for every `chunk_len`-byte chunk of
/// `bytes` (the last chunk may be short, as with `bytes.chunks(chunk_len)`),
/// in ascending chunk order. Groups of four whole chunks run as interleaved
/// streams; the rest run one at a time. Empty `bytes` calls `f` never.
///
/// ```
/// use gs_mem::crc::{crc32, crc32_chunks};
/// let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
/// let mut got = Vec::new();
/// crc32_chunks(&data, 96, |i, crc| got.push((i, crc)));
/// let want: Vec<_> = data.chunks(96).map(crc32).enumerate().collect();
/// assert_eq!(got, want);
/// ```
///
/// # Panics
///
/// Panics if `chunk_len` is 0 (like [`slice::chunks`]).
pub fn crc32_chunks(bytes: &[u8], chunk_len: usize, mut f: impl FnMut(usize, u32)) {
    let mut groups = bytes.chunks_exact(chunk_len.saturating_mul(4));
    let mut index = 0usize;
    for group in &mut groups {
        let (a, rest) = group.split_at(chunk_len);
        let (b, rest) = rest.split_at(chunk_len);
        let (c, d) = rest.split_at(chunk_len);
        for crc in crc32_x4([a, b, c, d]) {
            f(index, crc);
            index += 1;
        }
    }
    for chunk in groups.remainder().chunks(chunk_len) {
        f(index, crc32(chunk));
        index += 1;
    }
}

/// Incremental CRC-32/IEEE digest.
///
/// ```
/// use gs_mem::crc::{crc32, Crc32};
/// let whole = crc32(b"streaming gaussians");
/// let split = Crc32::new()
///     .update(b"streaming ")
///     .update(b"gaussians")
///     .finish();
/// assert_eq!(whole, split);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh digest (initial state `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the digest; returns `self` for chaining.
    #[must_use]
    pub fn update(mut self, bytes: &[u8]) -> Crc32 {
        self.state = update(self.state, bytes);
        self
    }

    /// Final checksum value.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time (Sarwate) loop the sliced kernel replaces: the
    /// oracle every fast path is checked against.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut state = !0u32;
        for &b in bytes {
            let idx = ((state ^ u32::from(b)) & 0xFF) as usize;
            state = TABLES[0][idx] ^ (state >> 8);
        }
        !state
    }

    /// Deterministic non-periodic test bytes.
    fn bytes(n: usize) -> Vec<u8> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_le_bytes()[3]
            })
            .collect()
    }

    #[test]
    fn known_answer_vectors() {
        // The standard CRC-32/IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
    }

    #[test]
    fn sliced_kernel_equals_bytewise_oracle() {
        let data = bytes(600);
        for len in 0..data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1031).collect();
        for split in [0usize, 1, 7, 515, 1030, 1031] {
            let (a, b) = data.split_at(split);
            assert_eq!(
                Crc32::new().update(a).update(b).finish(),
                crc32(&data),
                "split at {split}"
            );
        }
    }

    #[test]
    fn incremental_split_at_every_small_offset_equals_one_shot() {
        let data = bytes(1031);
        let whole = crc32_bytewise(&data);
        assert_eq!(crc32(&data), whole);
        for split in 0..=48 {
            let (a, b) = data.split_at(split);
            assert_eq!(
                Crc32::new().update(a).update(b).finish(),
                whole,
                "split at {split}"
            );
        }
    }

    #[test]
    fn chunked_equals_per_chunk_crc() {
        for chunk_len in [1usize, 15, 16, 17, 512, 7040] {
            for n_chunks in 0..=9usize {
                // With and without a short tail chunk.
                for tail in [0, chunk_len / 2 + 1] {
                    if tail >= chunk_len {
                        continue;
                    }
                    let data = bytes(n_chunks * chunk_len + tail);
                    let want: Vec<(usize, u32)> = data
                        .chunks(chunk_len)
                        .map(crc32_bytewise)
                        .enumerate()
                        .collect();
                    let mut got = Vec::new();
                    crc32_chunks(&data, chunk_len, |i, crc| got.push((i, crc)));
                    assert_eq!(
                        got, want,
                        "chunk_len {chunk_len}, {n_chunks} chunks + {tail}"
                    );
                }
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data: Vec<u8> = (0..64u8).collect();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
