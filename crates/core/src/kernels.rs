//! Shared scalar kernels: the split's packed bitset and gather helpers and
//! the CM-5 region-stats wire codec.
//!
//! The criterion's weight and test primitives live in [`crate::config`]
//! (`range_weight_fp16`, `range_satisfies`, `mean_weight_fp16`,
//! `mean_satisfies`); the engines call them directly in their zips. The
//! message-passing engine (`rg-msgpass`) ships ghost-region statistics in
//! the 7-word wire record below.
//!
//! Everything here is a **pure scalar function**: the engines keep their
//! own zip/gather shapes (machine op counts are part of the simulated cost
//! model and must not change).

use crate::config::RegionStats;

/// Mask of the even-index bits of a 64-bit word (the CM-2 context-mask
/// idiom: child blocks of one parent sit at bit positions `2i`, `2i+1`).
const EVEN_BITS: u64 = 0x5555_5555_5555_5555;

/// Compresses the 32 even-index bits of `w` into the low 32 bits: input
/// bit `2i` becomes output bit `i`; odd-index bits are ignored; the high
/// 32 output bits are zero. This is the inverse of a Morton interleave,
/// done in five shift/mask rounds.
#[inline]
fn gather_even_bits(w: u64) -> u64 {
    let mut x = w & EVEN_BITS;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF
}

/// AND-combines adjacent bit pairs of `w` and compresses: output bit `i`
/// (low 32 bits) is `w[2i] & w[2i+1]`.
#[inline]
fn pair_and_compress(w: u64) -> u64 {
    gather_even_bits(w & (w >> 1))
}

/// Coalesces two adjacent child-bitset words into one parent word: output
/// bit `i` is set iff both horizontal children of parent block `i` are
/// set, with parents `0..32` taken from `lo` and `32..64` from `hi`. One
/// call tests 64 parent blocks against 128 child bits.
#[inline]
pub fn coalesce_pair_words(lo: u64, hi: u64) -> u64 {
    pair_and_compress(lo) | (pair_and_compress(hi) << 32)
}

/// Gathers the 2×2 child block of parent `(bx, by)` from a row-major
/// plane with row stride `stride`, in TL, TR, BL, BR order (the canonical
/// child order of the split stage's `combine_ok` calls).
#[inline]
pub fn gather2x2<T: Copy>(plane: &[T], stride: usize, bx: usize, by: usize) -> [T; 4] {
    let i = 2 * by * stride + 2 * bx;
    [
        plane[i],
        plane[i + 1],
        plane[i + stride],
        plane[i + stride + 1],
    ]
}

/// Sum of a gathered 2×2 accumulator quad (tree-shaped for the
/// autovectorizer's benefit).
#[inline]
pub fn lane_sum4(v: [u64; 4]) -> u64 {
    (v[0] + v[1]) + (v[2] + v[3])
}

/// Packs 64 lane tests (each byte 0 or 1) into one bitset word: output
/// bit `i` is `tests[i]`. Each group of 8 bytes is gathered into one byte
/// by a single multiply — byte `m` of the group lands on bit `56 + m` and
/// no two partial products overlap, so nothing carries into the top byte.
#[inline]
pub fn pack_lane_tests(tests: &[u8; 64]) -> u64 {
    let (groups, _) = tests.as_chunks::<8>();
    groups.iter().enumerate().fold(0, |word, (g, &group)| {
        let byte = u64::from_le_bytes(group).wrapping_mul(0x0102_0408_1020_4080) >> 56;
        word | byte << (8 * g)
    })
}

/// Width of the region-stats wire record in `u32` words:
/// `id, min, max, sum_lo, sum_hi, count_lo, count_hi`.
pub const STATS_WIRE_WORDS: usize = 7;

/// Encodes a region's `(id, stats)` into the canonical
/// [`STATS_WIRE_WORDS`]-word wire record the message-passing engine ships
/// between nodes.
#[inline]
pub fn stats_to_words(id: u32, s: &RegionStats<u32>) -> [u32; STATS_WIRE_WORDS] {
    [
        id,
        s.min,
        s.max,
        s.sum as u32,
        (s.sum >> 32) as u32,
        s.count as u32,
        (s.count >> 32) as u32,
    ]
}

/// Decodes one wire record (inverse of [`stats_to_words`]).
///
/// # Panics
/// Panics if `words` is shorter than [`STATS_WIRE_WORDS`].
#[inline]
pub fn stats_from_words(words: &[u32]) -> (u32, RegionStats<u32>) {
    (
        words[0],
        RegionStats {
            min: words[1],
            max: words[2],
            sum: words[3] as u64 | ((words[4] as u64) << 32),
            count: words[5] as u64 | ((words[6] as u64) << 32),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_even_bits_matches_naive() {
        let mut rng = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..256 {
            let w = next();
            let mut naive = 0u64;
            for i in 0..32 {
                naive |= ((w >> (2 * i)) & 1) << i;
            }
            assert_eq!(gather_even_bits(w), naive, "w={w:#x}");
        }
        assert_eq!(gather_even_bits(EVEN_BITS), 0xFFFF_FFFF);
        assert_eq!(gather_even_bits(!EVEN_BITS), 0);
    }

    #[test]
    fn pair_and_compress_matches_naive() {
        let mut rng = 0xfeed_f00d_dead_beefu64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..256 {
            let w = next();
            let mut naive = 0u64;
            for i in 0..32 {
                let pair = ((w >> (2 * i)) & 1) & ((w >> (2 * i + 1)) & 1);
                naive |= pair << i;
            }
            assert_eq!(pair_and_compress(w), naive, "w={w:#x}");
        }
        assert_eq!(pair_and_compress(!0), 0xFFFF_FFFF);
        assert_eq!(pair_and_compress(EVEN_BITS), 0);
    }

    #[test]
    fn coalesce_pair_words_matches_naive() {
        let cases = [
            (0u64, 0u64),
            (!0, !0),
            (0b11, 0),
            (0, 0b1100),
            (0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210),
        ];
        for (lo, hi) in cases {
            let mut naive = 0u64;
            for i in 0..32 {
                let pair = ((lo >> (2 * i)) & 1) & ((lo >> (2 * i + 1)) & 1);
                naive |= pair << i;
            }
            for i in 0..32 {
                let pair = ((hi >> (2 * i)) & 1) & ((hi >> (2 * i + 1)) & 1);
                naive |= pair << (32 + i);
            }
            assert_eq!(coalesce_pair_words(lo, hi), naive, "lo={lo:#x} hi={hi:#x}");
        }
    }

    #[test]
    fn gather2x2_and_lane_sum() {
        // 4×2 plane: parent (bx=1, by=0) gathers columns 2..4 of both rows.
        let plane: [u32; 8] = [9, 1, 7, 3, 2, 8, 5, 4];
        let q = gather2x2(&plane, 4, 1, 0);
        assert_eq!(q, [7, 3, 5, 4]); // TL, TR, BL, BR
        let s = gather2x2(&[1u64, 2, 3, 4, 10, 20, 30, 40], 4, 0, 0);
        assert_eq!(lane_sum4(s), 1 + 2 + 10 + 20);
    }

    #[test]
    fn pack_lane_tests_matches_naive() {
        let mut rng = 0x0bad_cafe_1234_5678u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..256 {
            let w = next();
            let tests: [u8; 64] = std::array::from_fn(|i| (w >> i) as u8 & 1);
            assert_eq!(pack_lane_tests(&tests), w, "w={w:#x}");
        }
        assert_eq!(pack_lane_tests(&[1; 64]), !0);
        assert_eq!(pack_lane_tests(&[0; 64]), 0);
    }

    #[test]
    fn stats_wire_codec_round_trips() {
        let s = RegionStats::<u32> {
            min: 2,
            max: 250,
            sum: (7u64 << 33) | 12345,
            count: (1u64 << 32) | 42,
        };
        let words = stats_to_words(77, &s);
        assert_eq!(words.len(), STATS_WIRE_WORDS);
        let (id, back) = stats_from_words(&words);
        assert_eq!(id, 77);
        assert_eq!(back, s);
    }
}
