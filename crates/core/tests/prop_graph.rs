//! Identity tests of the square-perimeter RAG builder
//! ([`rg_core::graph::square_adjacency_into`]) against the per-pixel
//! scan-and-sort oracle ([`rg_core::graph::adjacent_label_pairs`] over the
//! split's `square_of` map): the edge lists must be equal, element for
//! element, under both connectivities, for random rectangles, narrow- and
//! full-band noise, the paper scenes, odd shapes, every threshold and
//! capped square sizes.

use proptest::prelude::*;
use rg_core::graph::{adjacent_label_pairs, square_adjacency_into};
use rg_core::{split, Config, Connectivity, Criterion};
use rg_imaging::synth::{self, PaperImage};
use rg_imaging::Image;

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
        kind in 0u8..3,
        count in 0usize..14,
    ) -> Image<u8> {
        let (w, h) = shape;
        match kind {
            0 => synth::random_rects(w, h, count, seed),
            1 => synth::uniform_noise(w, h, 120, 135, seed),
            _ => synth::uniform_noise(w, h, 0, 255, seed),
        }
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn square_builder_matches_pixel_oracle(img in scene(), cfg in graph_config()) {
        assert_identity(&img, &cfg, &mut (Vec::new(), Vec::new()));
    }
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
