//! Synthetic workload generators.
//!
//! The paper evaluates on six images whose rasters were never published; the
//! compositions, however, are described precisely enough to re-draw them:
//!
//! | Paper image | Size | Composition | Final regions |
//! |---|---|---|---|
//! | Image 1 | 128² | two nested rectangular regions | 2 |
//! | Image 2 | 128² | a collection of rectangles | 7 |
//! | Image 3 | 128² | a collection of circles | 11 |
//! | Image 4 | 256² | two nested rectangular regions | 2 |
//! | Image 5 | 256² | a collection of rectangles | 7 |
//! | Image 6 | 256² | a "tool" | 4 |
//!
//! The generators here reproduce those compositions with inter-region
//! contrast far above the default threshold, so the *final region counts*
//! match the paper exactly by construction. The split-square counts depend
//! on the unpublished geometry and are matched in order of magnitude only
//! (see EXPERIMENTS.md).
//!
//! All object placements are deliberately *misaligned* with respect to
//! power-of-two block boundaries, like any natural scene.

use crate::draw::{fill_circle, fill_convex_poly, fill_rect, Rect};
use crate::image::Image;

/// Background grey level shared by all paper-image generators.
pub const BACKGROUND: u8 = 60;

/// Default homogeneity threshold used by the paper-table experiments. Any
/// value below the minimum inter-region contrast (40 grey levels) yields the
/// same segmentation; the paper used T=3 for its 4×4 worked example.
pub const DEFAULT_THRESHOLD: u32 = 10;

/// Identifies one of the six evaluation images of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperImage {
    /// 128² two nested rectangular regions.
    Image1,
    /// 128² collection of rectangles.
    Image2,
    /// 128² collection of circles.
    Image3,
    /// 256² two nested rectangular regions.
    Image4,
    /// 256² collection of rectangles.
    Image5,
    /// 256² "tool".
    Image6,
}

impl PaperImage {
    /// All six, in paper order.
    pub const ALL: [PaperImage; 6] = [
        PaperImage::Image1,
        PaperImage::Image2,
        PaperImage::Image3,
        PaperImage::Image4,
        PaperImage::Image5,
        PaperImage::Image6,
    ];

    /// Generates the image.
    pub fn generate(self) -> Image<u8> {
        match self {
            PaperImage::Image1 => nested_rects(128),
            PaperImage::Image2 => rect_collection(128),
            PaperImage::Image3 => circle_collection(128),
            PaperImage::Image4 => nested_rects(256),
            PaperImage::Image5 => rect_collection(256),
            PaperImage::Image6 => tool(256),
        }
    }

    /// Image side length in pixels.
    pub fn size(self) -> usize {
        match self {
            PaperImage::Image1 | PaperImage::Image2 | PaperImage::Image3 => 128,
            _ => 256,
        }
    }

    /// The number of regions the paper reports at the end of the merge
    /// stage; our generators are constructed so the reproduction matches
    /// these exactly.
    pub fn expected_final_regions(self) -> usize {
        match self {
            PaperImage::Image1 | PaperImage::Image4 => 2,
            PaperImage::Image2 | PaperImage::Image5 => 7,
            PaperImage::Image3 => 11,
            PaperImage::Image6 => 4,
        }
    }

    /// The number of square regions the paper reports at the end of the
    /// split stage (for the published rasters; ours differ in geometry).
    pub fn paper_split_squares(self) -> usize {
        match self {
            PaperImage::Image1 => 436,
            PaperImage::Image2 => 193,
            PaperImage::Image3 => 1732,
            PaperImage::Image4 => 823,
            PaperImage::Image5 => 298,
            PaperImage::Image6 => 2248,
        }
    }

    /// Human-readable description, matching the paper's captions.
    pub fn description(self) -> &'static str {
        match self {
            PaperImage::Image1 => "128x128 image composed of two nested rectangular regions",
            PaperImage::Image2 => "128x128 image composed of a collection of rectangles",
            PaperImage::Image3 => "128x128 image composed of a collection of circles",
            PaperImage::Image4 => "256x256 image composed of two nested rectangular regions",
            PaperImage::Image5 => "256x256 image composed of a collection of rectangles",
            PaperImage::Image6 => "256x256 image of a \"tool\"",
        }
    }
}

/// The exact 4×4 image of the paper's Figures 1 and 2 (threshold T = 3).
///
/// ```text
/// 6 7 1 3
/// 8 6 5 4
/// 8 8 6 5
/// 8 7 6 6
/// ```
pub fn figure1_image() -> Image<u8> {
    Image::from_vec(4, 4, vec![6, 7, 1, 3, 8, 6, 5, 4, 8, 8, 6, 5, 8, 7, 6, 6])
}

/// "Two nested rectangular regions": the image is the outer region, with a
/// large misaligned inner rectangle of contrasting intensity → 2 regions.
pub fn nested_rects(n: usize) -> Image<u8> {
    let mut img = Image::new(n, n, BACKGROUND);
    // Inner rectangle covers roughly the central 55% of the frame. Its
    // edges sit on 8-pixel multiples (not 32-multiples), so mid-size
    // squares survive along the boundary but nothing larger than the
    // paper's observed 16-pixel squares forms across it.
    let x0 = n / 4 + 2;
    let y0 = n / 4 + 6;
    let w = n * 9 / 16 + 2;
    let h = n / 2 + 6;
    fill_rect(&mut img, Rect::new(x0, y0, w, h), 160);
    img
}

/// "A collection of rectangles": six disjoint rectangles of distinct
/// intensities on the background → 7 regions.
pub fn rect_collection(n: usize) -> Image<u8> {
    let mut img = Image::new(n, n, BACKGROUND);
    let s = n as f64 / 128.0; // scale relative to the 128² original
    let px = |v: f64| (v * s) as usize;
    // Placement is aligned to 8-pixel multiples (as a digitised blocky
    // scene would be), keeping the split-square count in the paper's
    // range; rectangles are pairwise separated by at least 8 pixels.
    let rects = [
        (Rect::new(px(8.0), px(8.0), px(32.0), px(24.0)), 120u8),
        (Rect::new(px(52.0), px(8.0), px(44.0), px(16.0)), 140),
        (Rect::new(px(12.0), px(48.0), px(28.0), px(36.0)), 160),
        (Rect::new(px(48.0), px(40.0), px(32.0), px(24.0)), 180),
        (Rect::new(px(92.0), px(52.0), px(28.0), px(44.0)), 200),
        (Rect::new(px(24.0), px(96.0), px(56.0), px(24.0)), 220),
    ];
    for (r, v) in rects {
        fill_rect(&mut img, r, v);
    }
    img
}

/// "A collection of circles": ten disjoint circles of distinct intensities
/// on the background → 11 regions.
pub fn circle_collection(n: usize) -> Image<u8> {
    let mut img = Image::new(n, n, BACKGROUND);
    let s = n as f64 / 128.0;
    let c = |v: f64| (v * s) as i64;
    let circles = [
        (c(19.0), c(17.0), c(11.0), 110u8),
        (c(53.0), c(13.0), c(9.0), 125),
        (c(89.0), c(21.0), c(13.0), 140),
        (c(117.0), c(49.0), c(8.0), 155),
        (c(27.0), c(51.0), c(12.0), 170),
        (c(63.0), c(47.0), c(10.0), 185),
        (c(95.0), c(75.0), c(14.0), 200),
        (c(21.0), c(91.0), c(10.0), 215),
        (c(57.0), c(87.0), c(11.0), 230),
        (c(103.0), c(111.0), c(9.0), 245),
    ];
    for (cx, cy, r, v) in circles {
        fill_circle(&mut img, cx, cy, r, v);
    }
    img
}

/// The "tool" image: a wrench-like object (handle + head), a hole through
/// the head, and a cast shadow → 4 regions (background, shadow, tool, hole).
///
/// The hole has background intensity but is enclosed by the tool body, so it
/// remains a separate connected region — exactly the structure that makes
/// the paper's tool image finish with 4 regions.
pub fn tool(n: usize) -> Image<u8> {
    let mut img = Image::new(n, n, BACKGROUND);
    let s = n as f64 / 256.0;
    let c = |v: f64| (v * s) as i64;

    const SHADOW: u8 = 120;
    const BODY: u8 = 210;

    // Shadow: the *handle* silhouette offset down-right, drawn first so the
    // body partially covers it. The visible remainder of a convex shape
    // minus its own translate is a connected L-shaped band hugging the
    // handle's lower-right side.
    fill_handle(&mut img, s, c(16.0), c(16.0), SHADOW);
    // Tool body: head disc + handle.
    fill_circle(&mut img, c(71.0), c(75.0), c(37.0), BODY);
    fill_handle(&mut img, s, 0, 0, BODY);
    // Hole through the head (background intensity, enclosed by the body).
    fill_circle(&mut img, c(71.0), c(75.0), c(17.0), BACKGROUND);
    img
}

/// Draws the wrench handle — a thick diagonal bar from the head towards the
/// lower-right corner — as a convex quadrilateral with the given offset.
fn fill_handle(img: &mut Image<u8>, s: f64, dx: i64, dy: i64, v: u8) {
    let c = |val: f64| (val * s) as i64;
    let pts = [
        (c(87.0) + dx, c(95.0) + dy),
        (c(111.0) + dx, c(71.0) + dy),
        (c(219.0) + dx, c(179.0) + dy),
        (c(195.0) + dx, c(203.0) + dy),
    ];
    fill_convex_poly(img, &pts, v);
}

/// A checkerboard of `cell × cell` tiles alternating between `a` and `b`.
///
/// With `|a − b| > T` every tile is its own region: the stress case where
/// the merge stage has nothing to do but the split stage tops out at the
/// largest power of two dividing `cell`.
pub fn checkerboard(n: usize, cell: usize, a: u8, b: u8) -> Image<u8> {
    assert!(cell > 0, "cell must be nonzero");
    Image::from_fn(n, n, |x, y| {
        if ((x / cell) + (y / cell)).is_multiple_of(2) {
            a
        } else {
            b
        }
    })
}

/// Uniform random noise in `[lo, hi]` — the best case for the split stage
/// when `hi − lo ≤ T` (one split iteration possible over the whole image)
/// and the worst case for region structure when `hi − lo ≫ T`.
pub fn uniform_noise(width: usize, height: usize, lo: u8, hi: u8, seed: u64) -> Image<u8> {
    assert!(lo <= hi);
    let mut rng = seed;
    Image::from_fn(width, height, |_, _| {
        draw(&mut rng, lo.into(), hi.into()) as u8
    })
}

/// A random "mondrian": `count` random axis-aligned rectangles of random
/// intensities painted over a background, later rectangles over earlier
/// ones. Used by property tests — the segmentation invariants must hold for
/// any such scene, including overlapping and clipped shapes.
pub fn random_rects(width: usize, height: usize, count: usize, seed: u64) -> Image<u8> {
    let mut rng = seed;
    let mut pick = |lo: usize, hi: usize| draw(&mut rng, lo as u64, hi as u64) as usize;
    let mut img = Image::new(width, height, BACKGROUND);
    for _ in 0..count {
        let x0 = pick(0, width - 1);
        let y0 = pick(0, height - 1);
        let w = pick(1, width - x0);
        let h = pick(1, height - y0);
        let v = pick(0, 255) as u8;
        fill_rect(&mut img, Rect::new(x0, y0, w, h), v);
    }
    img
}

/// Uniform draw from `lo..=hi` as `lo + word % span`, where `word` is the
/// next output of the splitmix64 stream whose state is `state`. No span in
/// use comes near 2⁶⁴. The pinned rasters in this module's tests fix the
/// stream.
fn draw(state: &mut u64, lo: u64, hi: u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    lo + (z ^ (z >> 31)) % (hi - lo + 1)
}

/// A smooth diagonal ramp: intensity grows by one grey level every `step`
/// pixels of (x + y). Adversarial for region growing: any two neighbouring
/// pixels look mergeable but the global range does not, exposing
/// order-dependence (the classic "chaining" pathology).
pub fn gradient(width: usize, height: usize, step: usize) -> Image<u8> {
    assert!(step > 0);
    Image::from_fn(width, height, |x, y| {
        u8::from_u32_saturating_helper(((x + y) / step) as u32)
    })
}

trait SaturatingHelper {
    fn from_u32_saturating_helper(v: u32) -> u8;
}

impl SaturatingHelper for u8 {
    fn from_u32_saturating_helper(v: u32) -> u8 {
        v.min(255) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Counts 4-connected components of exactly-equal intensity — a lower
    /// bound check on scene structure (regions of equal intensity).
    fn flat_components(img: &Image<u8>) -> usize {
        let (w, h) = (img.width(), img.height());
        let mut seen = vec![false; w * h];
        let mut count = 0;
        let mut stack = Vec::new();
        for start in 0..w * h {
            if seen[start] {
                continue;
            }
            count += 1;
            seen[start] = true;
            stack.push(start);
            while let Some(i) = stack.pop() {
                let (x, y) = img.coords(i);
                let v = img.pixels()[i];
                let mut push = |nx: usize, ny: usize| {
                    let j = ny * w + nx;
                    if !seen[j] && img.pixels()[j] == v {
                        seen[j] = true;
                        stack.push(j);
                    }
                };
                if x > 0 {
                    push(x - 1, y);
                }
                if x + 1 < w {
                    push(x + 1, y);
                }
                if y > 0 {
                    push(x, y - 1);
                }
                if y + 1 < h {
                    push(x, y + 1);
                }
            }
        }
        count
    }

    #[test]
    fn figure1_matches_paper() {
        let img = figure1_image();
        assert_eq!(img.get(0, 0), 6);
        assert_eq!(img.get(3, 0), 3);
        assert_eq!(img.get(0, 3), 8);
        assert_eq!(img.get(3, 3), 6);
    }

    #[test]
    fn nested_rects_has_two_flat_regions() {
        for n in [64, 128, 256] {
            let img = nested_rects(n);
            assert_eq!(flat_components(&img), 2, "n={n}");
            let values: HashSet<u8> = img.pixels().iter().copied().collect();
            assert_eq!(values.len(), 2);
        }
    }

    #[test]
    fn rect_collection_has_seven_flat_regions() {
        for n in [128, 256] {
            let img = rect_collection(n);
            assert_eq!(flat_components(&img), 7, "n={n}");
        }
    }

    #[test]
    fn circle_collection_has_eleven_flat_regions() {
        for n in [128, 256] {
            let img = circle_collection(n);
            assert_eq!(flat_components(&img), 11, "n={n}");
        }
    }

    #[test]
    fn tool_has_four_flat_regions() {
        let img = tool(256);
        assert_eq!(flat_components(&img), 4);
        // The hole must not leak into the outer background: check that the
        // pixel at the hole centre and a corner pixel have equal intensity
        // but (per the component count above) different components.
        assert_eq!(img.get(71, 75), BACKGROUND);
        assert_eq!(img.get(0, 0), BACKGROUND);
    }

    #[test]
    fn tool_scales() {
        let img = tool(128);
        assert_eq!(flat_components(&img), 4);
    }

    #[test]
    fn paper_image_metadata_consistent() {
        for pi in PaperImage::ALL {
            let img = pi.generate();
            assert_eq!(img.width(), pi.size());
            assert_eq!(img.height(), pi.size());
            assert_eq!(flat_components(&img), pi.expected_final_regions(), "{pi:?}");
        }
    }

    #[test]
    fn contrast_exceeds_default_threshold() {
        // Every pair of distinct intensities in every paper image must
        // differ by more than the default threshold, so final region counts
        // are threshold-robust.
        for pi in PaperImage::ALL {
            let img = pi.generate();
            let mut values: Vec<u8> = img
                .pixels()
                .iter()
                .copied()
                .collect::<HashSet<_>>()
                .into_iter()
                .collect();
            values.sort_unstable();
            for pair in values.windows(2) {
                assert!(
                    (pair[1] - pair[0]) as u32 > DEFAULT_THRESHOLD,
                    "{pi:?}: contrast {} - {} too small",
                    pair[1],
                    pair[0]
                );
            }
        }
    }

    #[test]
    fn checkerboard_structure() {
        let img = checkerboard(8, 2, 0, 255);
        assert_eq!(img.get(0, 0), 0);
        assert_eq!(img.get(2, 0), 255);
        assert_eq!(img.get(0, 2), 255);
        assert_eq!(img.get(2, 2), 0);
        assert_eq!(flat_components(&img), 16);
    }

    #[test]
    fn noise_is_deterministic_and_bounded() {
        let a = uniform_noise(16, 16, 10, 20, 42);
        let b = uniform_noise(16, 16, 10, 20, 42);
        assert_eq!(a, b);
        assert!(a.pixels().iter().all(|&p| (10..=20).contains(&p)));
        let c = uniform_noise(16, 16, 10, 20, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn random_rects_deterministic() {
        let a = random_rects(32, 32, 5, 7);
        let b = random_rects(32, 32, 5, 7);
        assert_eq!(a, b);
    }

    /// FNV-1a over the raster's dimensions and pixels.
    fn fnv1a(img: &Image<u8>) -> u64 {
        let dims = [img.width() as u64, img.height() as u64];
        let bytes = dims.iter().flat_map(|d| d.to_le_bytes());
        bytes
            .chain(img.pixels().iter().copied())
            .fold(0xCBF2_9CE4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
            })
    }

    #[test]
    fn generator_stream_is_pinned() {
        // Exact rasters, not just per-seed agreement: a generator that is
        // deterministic but different would silently move every
        // benchmark workload and property-test scene.
        let cases = [
            (uniform_noise(256, 256, 0, 255, 7), 0xA6F4_2610_3306_97F0),
            (uniform_noise(256, 256, 120, 135, 9), 0x902B_2ABB_9DB4_774F),
            (uniform_noise(33, 17, 10, 20, 42), 0xA7D7_6B6E_7D67_DBAF),
            (random_rects(256, 256, 40, 11), 0x7A2A_BD03_C7DC_272D),
            (random_rects(130, 94, 10, 3), 0xA2A2_440B_423A_725A),
            (random_rects(32, 32, 5, 7), 0x93D2_02D6_BF9B_10EF),
        ];
        for (i, (img, want)) in cases.iter().enumerate() {
            assert_eq!(fnv1a(img), *want, "case {i}");
        }
    }

    #[test]
    fn gradient_monotone() {
        let img = gradient(32, 32, 4);
        assert_eq!(img.get(0, 0), 0);
        assert!(img.get(31, 31) > img.get(0, 0));
        for y in 0..32 {
            for x in 1..32 {
                assert!(img.get(x, y) >= img.get(x - 1, y));
            }
        }
    }
}
