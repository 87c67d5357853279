//! Identity tests of the square-perimeter RAG builder
//! ([`rg_core::graph::square_adjacency_into`]) against the per-pixel
//! scan-and-sort oracle ([`rg_core::graph::adjacent_label_pairs`] over the
//! split's `square_of` map): the edge lists must be equal, element for
//! element, under both connectivities, for random rectangles, narrow- and
//! full-band noise, fields mixing 1×1 and 2×2 squares, the paper scenes,
//! 1×N and N×1 strips and other odd shapes, every threshold, capped square
//! sizes, and crafted layouts in which a neighbour column's last square
//! also covers a bottom corner (the one case where the walk reads a square
//! twice under 8-connectivity).
//!
//! A second differential covers the merge engine fed straight from the
//! walk ([`rg_core::Merger::reset_from_split`]) against one built from the
//! edge list ([`rg_core::graph::Rag::from_split`] + [`rg_core::Merger::new`]):
//! same active edges at reset, same step reports, merge history, labels
//! and work counters, for `u8` and `u16` scenes, both connectivities and
//! every tie family.

use proptest::prelude::*;
use rg_core::graph::{adjacent_label_pairs, square_adjacency_into, Rag};
use rg_core::{split, Config, Connectivity, Criterion, Merger, SplitResult, StepReport, TieBreak};
use rg_imaging::synth::{self, PaperImage};
use rg_imaging::{Image, Intensity};
use std::borrow::Cow;

/// Asserts builder == oracle for both connectivities, reusing the
/// builder's buffers across calls as the pipeline does.
fn assert_identity(img: &Image<u8>, cfg: &Config, bufs: &mut (Vec<u32>, Vec<(u32, u32)>)) {
    let s = split(img, cfg);
    let (w, h) = (img.width(), img.height());
    for conn in [Connectivity::Four, Connectivity::Eight] {
        square_adjacency_into(&s, conn, &mut bufs.0, &mut bufs.1);
        let oracle = adjacent_label_pairs(&s.square_of, w, h, conn);
        assert!(
            bufs.1 == oracle,
            "{w}x{h} {conn:?} T={} cap={:?}: builder {} edges, oracle {}",
            cfg.threshold,
            cfg.max_square_log2,
            bufs.1.len(),
            oracle.len()
        );
    }
}

// Random scenes over awkward shapes: non-power-of-two sides, 1×N and N×1
// strips, and sizes just past powers of two.
prop_compose! {
    fn scene()(
        seed in 0u64..1_000_000,
        shape in prop_oneof![
            ((1usize..97), (1usize..71)),
            ((1usize..2), (1usize..200)),   // 1×N strip
            ((1usize..200), (1usize..2)),   // N×1 strip
            (Just(65usize), Just(33usize)), // just past powers of two
        ],
        kind in 0u8..4,
        count in 0usize..14,
    ) -> Image<u8> {
        let (w, h) = shape;
        match kind {
            0 => synth::random_rects(w, h, count, seed),
            1 => synth::uniform_noise(w, h, 120, 135, seed),
            2 => mixed_field(w, h, seed),
            _ => synth::uniform_noise(w, h, 0, 255, seed),
        }
    }
}

/// A field of aligned 2×2 blocks, each flat or speckled at random, so at
/// low thresholds 1×1 and 2×2 squares alternate irregularly along every
/// row and column: the 1×1 path and the hop walk around 2×2 squares meet
/// every mix of neighbour sides.
fn mixed_field(w: usize, h: usize, seed: u64) -> Image<u8> {
    let hash = |k: u64| {
        let mut x = (k ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^ (x >> 32)
    };
    Image::from_fn(w, h, |x, y| {
        let block = ((y / 2) * w.div_ceil(2) + x / 2) as u64;
        let b = hash(block);
        if b & 1 == 0 {
            (b >> 8) as u8
        } else {
            hash((1 << 40) | (y * w + x) as u64) as u8
        }
    })
}

prop_compose! {
    fn graph_config()(
        t in 0u32..=255,
        crit in prop_oneof![Just(Criterion::PixelRange), Just(Criterion::MeanDifference)],
        cap in prop_oneof![Just(None), (0u8..8).prop_map(Some)],
    ) -> Config {
        Config::with_threshold(t).criterion(crit).max_square_log2(cap)
    }
}

// The same scenes at 16-bit depth: scaled by 256 plus a small per-pixel
// jitter, so flat blocks become near-flat and thresholds span 0..4096.
prop_compose! {
    fn scene16()(
        img in scene(),
        jitter_seed in 0u64..1_000_000,
        jitter in 0u32..64,
    ) -> Image<u16> {
        let mut state = jitter_seed | 1;
        Image::from_fn(img.width(), img.height(), |x, y| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = if jitter == 0 { 0 } else { (state % u64::from(jitter)) as u32 };
            u16::from_u32_saturating(u32::from(img.get(x, y)) * 256 + noise)
        })
    }
}

prop_compose! {
    fn graph_config16()(
        cfg in graph_config(),
        t in 0u32..4096,
    ) -> Config {
        Config { threshold: t, ..cfg }
    }
}

/// Everything observable about one merge run.
#[derive(Debug, PartialEq)]
struct MergeRun {
    active_at_reset: usize,
    peak_at_reset: u64,
    steps: Vec<StepReport>,
    merges_per_iteration: Vec<u32>,
    trace: Option<rg_core::MergeTrace>,
    labels: Vec<u32>,
    relabel_work: u64,
    compactions: u64,
}

fn run_to_end<P: Intensity>(m: &mut Merger<P>) -> MergeRun {
    m.enable_trace();
    let (active_at_reset, peak_at_reset) = (m.active_edges(), m.peak_active_edges());
    // Every productive step merges a pair, and the stall guard forces one
    // after at most `max_stall` empty steps; a broken merger that stops
    // merging fails here instead of looping.
    let bound = (m.num_regions() + 1) * (Config::default().max_stall as usize + 1);
    let mut steps = Vec::new();
    while !m.is_done() {
        assert!(steps.len() < bound, "no convergence after {bound} steps");
        steps.push(m.step());
    }
    MergeRun {
        active_at_reset,
        peak_at_reset,
        steps,
        merges_per_iteration: m.merges_per_iteration().to_vec(),
        trace: m.take_trace(),
        labels: m.labels_by_vertex(),
        relabel_work: m.relabel_work(),
        compactions: m.compactions(),
    }
}

/// Asserts that `warm.reset_from_split` runs exactly like a merger built
/// from the split's edge list, for both connectivities and every tie
/// family. `warm` is reused across all of them, so its persistent scratch
/// crosses graphs and configs.
fn assert_reset_identity<P: Intensity>(
    img: &Image<P>,
    cfg: &Config,
    seed: u64,
    warm: &mut Merger<P>,
) {
    let s: SplitResult<P> = split(img, cfg);
    let stride = s.width as u32;
    let ids: Vec<u64> = s.squares.iter().map(|q| u64::from(q.id(stride))).collect();
    for conn in [Connectivity::Four, Connectivity::Eight] {
        for tie in [
            TieBreak::SmallestId,
            TieBreak::LargestId,
            TieBreak::Random { seed },
        ] {
            let cfg = cfg.connectivity(conn).tie_break(tie);
            let mut fresh = Merger::new(Rag::from_split(&s, conn), ids.clone(), &cfg);
            warm.reset_from_split(&s, &cfg);
            assert!(
                run_to_end(warm) == run_to_end(&mut fresh),
                "{}x{} {conn:?} {tie:?} T={} {:?} cap={:?}",
                s.width,
                s.height,
                cfg.threshold,
                cfg.criterion,
                cfg.max_square_log2,
            );
        }
    }
}

/// A merger to reuse across a test's scenes.
fn empty_merger<P: Intensity>() -> Merger<P> {
    Merger::new(
        Rag {
            stats: Cow::Owned(Vec::new()),
            edges: Vec::new(),
        },
        Vec::new(),
        &Config::default(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn square_builder_matches_pixel_oracle(img in scene(), cfg in graph_config()) {
        assert_identity(&img, &cfg, &mut (Vec::new(), Vec::new()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn reset_from_split_matches_edge_list_merger(
        img in scene(),
        cfg in graph_config(),
        seed in 0u64..1_000,
    ) {
        assert_reset_identity(&img, &cfg, seed, &mut empty_merger());
    }

    #[test]
    fn reset_from_split_matches_edge_list_merger_u16(
        img in scene16(),
        cfg in graph_config16(),
        seed in 0u64..1_000,
    ) {
        assert_reset_identity(&img, &cfg, seed, &mut empty_merger());
    }
}

#[test]
fn reset_from_split_matches_on_paper_scenes_with_one_warm_merger() {
    // One merger across every scene, growing and shrinking, so stamp
    // tokens and dirty-set epochs carry over between graphs.
    let mut warm = empty_merger();
    for p in PaperImage::ALL {
        let img = p.generate();
        assert_reset_identity(
            &img,
            &Config::with_threshold(synth::DEFAULT_THRESHOLD),
            7,
            &mut warm,
        );
    }
    assert_reset_identity(
        &synth::figure1_image(),
        &Config::with_threshold(3),
        7,
        &mut warm,
    );
}

#[test]
fn odd_shapes_match_across_thresholds() {
    let mut bufs = (Vec::new(), Vec::new());
    for (w, h) in [(1, 300), (300, 1), (513, 100), (127, 129)] {
        let scenes = [
            synth::random_rects(w, h, 12, 3),
            synth::uniform_noise(w, h, 120, 135, 5),
            synth::uniform_noise(w, h, 0, 255, 7),
        ];
        for img in &scenes {
            for t in [0, 3, 10, 30, 255] {
                for cap in [None, Some(0), Some(2), Some(5)] {
                    assert_identity(
                        img,
                        &Config::with_threshold(t).max_square_log2(cap),
                        &mut bufs,
                    );
                }
            }
        }
    }
}

#[test]
fn every_threshold_matches_on_narrow_noise() {
    let img = synth::uniform_noise(61, 47, 100, 160, 11);
    let mut bufs = (Vec::new(), Vec::new());
    for t in 0..=255 {
        assert_identity(&img, &Config::with_threshold(t), &mut bufs);
    }
}

#[test]
fn paper_scenes_match() {
    let mut bufs = (Vec::new(), Vec::new());
    for p in PaperImage::ALL {
        let img = p.generate();
        for t in [0, synth::DEFAULT_THRESHOLD, 60] {
            for cap in [None, Some(3)] {
                assert_identity(
                    &img,
                    &Config::with_threshold(t).max_square_log2(cap),
                    &mut bufs,
                );
            }
        }
    }
    assert_identity(
        &synth::figure1_image(),
        &Config::with_threshold(3),
        &mut bufs,
    );
}

/// An image of distinct grey levels except for the listed flat blocks
/// `(x, y, side)`, so at threshold 0 the split keeps every block whole
/// (they are aligned) and leaves every other pixel a 1×1 square.
fn blocks(w: usize, h: usize, flat: &[(usize, usize, usize)]) -> Image<u8> {
    assert!(w * h + flat.len() <= 256, "grey levels must stay distinct");
    Image::from_fn(w, h, |x, y| {
        let block = flat
            .iter()
            .position(|&(bx, by, s)| (bx..bx + s).contains(&x) && (by..by + s).contains(&y));
        match block {
            Some(i) => (255 - i) as u8,
            None => (y * w + x) as u8,
        }
    })
}

/// The square with top-left corner `(x, y)` and its side.
fn square_at(s: &SplitResult<u8>, x: u32, y: u32) -> (u32, u32) {
    let i = s
        .squares
        .iter()
        .position(|q| (q.x, q.y) == (x, y))
        .unwrap_or_else(|| panic!("no square at ({x}, {y})"));
    (i as u32, s.squares[i].side())
}

/// A crafted layout: the image size, its flat blocks `(x, y, side)`,
/// square `u` and the neighbour square `c` that covers both the last pixel
/// of `u`'s right (or left) column and its bottom-right (or bottom-left)
/// corner, each as `(x, y, side)`.
struct CornerCase {
    name: &'static str,
    size: (usize, usize),
    flat: &'static [(usize, usize, usize)],
    u: (u32, u32, u32),
    c: (u32, u32, u32),
}

#[test]
fn bottom_corners_covered_by_a_column_square_match() {
    let cases = [
        // 1×1 `u` at (1, 0); the 2×2 at (2, 0) covers (2, 0), (2, 1).
        CornerCase {
            name: "side-1, right",
            size: (6, 4),
            flat: &[(2, 0, 2)],
            u: (1, 0, 1),
            c: (2, 0, 2),
        },
        // 1×1 `u` at (2, 2); the 2×2 at (0, 2) covers (1, 2), (1, 3).
        CornerCase {
            name: "side-1, left",
            size: (6, 5),
            flat: &[(0, 2, 2)],
            u: (2, 2, 1),
            c: (0, 2, 2),
        },
        // 2×2 `u` at (2, 0); the 4×4 at (4, 0) covers (4, 1), (4, 2).
        CornerCase {
            name: "2x2, right",
            size: (10, 6),
            flat: &[(2, 0, 2), (4, 0, 4)],
            u: (2, 0, 2),
            c: (4, 0, 4),
        },
        // 2×2 `u` at (8, 2); the 8×8 at (0, 0) covers (7, 3), (7, 4).
        CornerCase {
            name: "2x2, left",
            size: (12, 10),
            flat: &[(0, 0, 8), (8, 2, 2)],
            u: (8, 2, 2),
            c: (0, 0, 8),
        },
    ];
    let cfg = Config::with_threshold(0);
    let mut warm = empty_merger();
    let mut bufs = (Vec::new(), Vec::new());
    for case in cases {
        let name = case.name;
        let (w, h) = case.size;
        let img = blocks(w, h, case.flat);
        let s = split(&img, &cfg);
        let [u, c] = [case.u, case.c].map(|(x, y, side)| {
            let (i, got) = square_at(&s, x, y);
            assert_eq!(got, side, "{name}: side of the square at ({x}, {y})");
            i
        });
        // The corner pixel and the column pixel above it are `c`'s.
        let q = s.squares[u as usize];
        let y1 = (q.y + q.side()) as usize;
        let column = if case.c.0 > case.u.0 {
            (q.x + q.side()) as usize
        } else {
            q.x as usize - 1
        };
        assert_eq!(s.square_of[y1 * w + column], c, "{name}: corner");
        assert_eq!(s.square_of[(y1 - 1) * w + column], c, "{name}: column");
        assert_identity(&img, &cfg, &mut bufs);
        assert_reset_identity(&img, &cfg, 5, &mut warm);
    }
}
