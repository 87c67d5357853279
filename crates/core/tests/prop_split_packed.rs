//! Differential property tests of the packed word-parallel split engine
//! against the retained pre-optimisation oracle
//! ([`rg_core::split_reference`]): squares, per-square stats, the
//! pixel→square map and the iteration count must be bit-identical across
//! random sizes (including non-power-of-two rectangles, degenerate
//! 1×N / N×1 strips and rows wider than one 64-lane word), random rectangles, speckle and narrow-band noise,
//! both criteria, `u8` and `u16` intensities, and a scratch reused across
//! shape changes vs fresh calls.

use proptest::prelude::*;
use rg_core::{split, split_into, split_reference, Config, Criterion, SplitResult, SplitScratch};
use rg_imaging::{synth, Image, Intensity};

/// What a drawn scene paints.
#[derive(Debug, Clone, Copy)]
enum Paint {
    /// `count` random rectangles: large squares and exact ties.
    Rects,
    /// Speckle (`0..=255`): nearly every pixel its own 1×1 square, with a
    /// few 2×2 squares at small thresholds and mixed levels at large ones.
    Speckle,
    /// Narrow-band noise (`120..=135`): mostly 1×1 and 2×2 squares below
    /// T = 15, whole aligned blocks at and above it.
    Narrow,
}

// Random rectangles and pixel-dense noise, biased toward awkward shapes:
// non-power-of-two sides, strips of width or height 1, tiny images, and
// rows wide enough for the full-width lane paths of the fold and decide.
prop_compose! {
    fn scene()(
        seed in 0u64..1_000_000,
        shape in prop_oneof![
            ((2usize..70), (2usize..70)),
            ((1usize..2), (1usize..130)),   // 1×N strip
            ((1usize..130), (1usize..2)),   // N×1 strip
            (Just(65usize), Just(33usize)), // just past powers of two
            // Wide rows: level-1 floor rows of ≥ 64 cells fill whole
            // candidate words, and the level ≥ 2 folds take several
            // lane blocks per row plus a tail.
            ((128usize..300), (2usize..12)),
            (Just(257usize), Just(130usize)),
        ],
        count in 0usize..12,
        paint in prop_oneof![
            Just(Paint::Rects),
            Just(Paint::Rects),
            Just(Paint::Speckle),
            Just(Paint::Narrow),
        ],
    ) -> Image<u8> {
        let (w, h) = shape;
        match paint {
            Paint::Rects => synth::random_rects(w, h, count, seed),
            Paint::Speckle => synth::uniform_noise(w, h, 0, 255, seed),
            Paint::Narrow => synth::uniform_noise(w, h, 120, 135, seed),
        }
    }
}

// The same shapes at 16-bit depth: the u8 scene scaled by 256 plus a
// small per-pixel jitter, so blocks are near-flat rather than flat and
// level-1 sums widen values far above the u8 range.
prop_compose! {
    fn scene16()(
        img in scene(),
        jitter_seed in 0u64..1_000_000,
        jitter in 0u32..64,
    ) -> Image<u16> {
        let w = img.width();
        let mut state = jitter_seed | 1;
        Image::from_fn(w, img.height(), |x, y| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = if jitter == 0 { 0 } else { (state % u64::from(jitter)) as u32 };
            let base = u32::from(img.get(x, y)) * 256;
            u16::from_u32_saturating(base + noise)
        })
    }
}

prop_compose! {
    fn split_config16()(
        t in 0u32..4096,
        crit in prop_oneof![Just(Criterion::PixelRange), Just(Criterion::MeanDifference)],
        cap in prop_oneof![Just(None), (0u8..8).prop_map(Some)],
    ) -> Config {
        Config::with_threshold(t).criterion(crit).max_square_log2(cap)
    }
}

prop_compose! {
    fn split_config()(
        t in 0u32..120,
        crit in prop_oneof![Just(Criterion::PixelRange), Just(Criterion::MeanDifference)],
        cap in prop_oneof![Just(None), (0u8..8).prop_map(Some)],
    ) -> Config {
        Config::with_threshold(t).criterion(crit).max_square_log2(cap)
    }
}

/// Full bit-identity check of the split output fields the consumers read.
fn assert_same<P: Intensity>(a: &SplitResult<P>, b: &SplitResult<P>, what: &str) {
    assert_eq!(a.squares, b.squares, "{what}: squares");
    assert_eq!(a.stats, b.stats, "{what}: stats");
    assert_eq!(a.square_of, b.square_of, "{what}: square_of");
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!((a.width, a.height), (b.width, b.height), "{what}: shape");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn packed_split_matches_reference(img in scene(), cfg in split_config()) {
        let oracle = split_reference(&img, &cfg);
        assert_same(&split(&img, &cfg), &oracle, "fresh");
    }

    #[test]
    fn packed_split_matches_reference_u16(img in scene16(), cfg in split_config16()) {
        // Level 1 folds straight from the image: 16-bit pixels widen into
        // the u64 sums, and the mean criterion's level-1 child stats are
        // read from the pixels.
        let oracle = split_reference(&img, &cfg);
        assert_same(&split(&img, &cfg), &oracle, "fresh u16");
    }

    #[test]
    fn reused_scratch_matches_reference_u16(
        imgs in prop::collection::vec(scene16(), 2..4),
        cfg in split_config16(),
    ) {
        let mut scratch = SplitScratch::new();
        let mut out = SplitResult::default();
        for img in &imgs {
            let oracle = split_reference(img, &cfg);
            split_into(img, &cfg, &mut scratch, &mut out);
            assert_same(&out, &oracle, "reused u16");
        }
    }

    #[test]
    fn packed_counters_never_exceed_reference(img in scene(), cfg in split_config()) {
        // The machine-independent work counters must show the packing
        // doing no more work than the padded scalar oracle.
        let oracle = split_reference(&img, &cfg);
        let packed = split(&img, &cfg);
        prop_assert!(packed.metrics.cells_folded <= oracle.metrics.cells_folded);
        prop_assert!(packed.metrics.words_tested <= oracle.metrics.words_tested);
        prop_assert_eq!(packed.metrics.productive_levels, oracle.metrics.productive_levels);
    }

    #[test]
    fn reused_scratch_matches_reference_across_shapes(
        imgs in prop::collection::vec(scene(), 2..5),
        cfg in split_config(),
    ) {
        // One scratch + one output buffer across a stream of different
        // shapes (growing and shrinking) stays bit-identical to the
        // oracle.
        let mut scratch = SplitScratch::new();
        let mut out = SplitResult::default();
        for img in &imgs {
            let oracle = split_reference(img, &cfg);
            split_into(img, &cfg, &mut scratch, &mut out);
            assert_same(&out, &oracle, "reused");
        }
    }
}
