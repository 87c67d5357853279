//! End-to-end pipeline tests: PGM in, segmentation out, verification, and
//! the split stage's benefit over merge-only region growing.

use rg_core::{
    segment, verify_segmentation, Config, HostPipeline, NullTelemetry, Pipeline, Segmentation,
    TieBreak, TileGrid, TiledRunner,
};
use rg_imaging::{pgm, synth, GrayImage};

#[test]
fn pgm_roundtrip_through_segmentation() {
    // Write a scene to PGM, read it back, segment, and verify — the full
    // user-facing workflow.
    let img = synth::rect_collection(128);
    let mut buf = Vec::new();
    pgm::write(&img, None, pgm::Flavor::Binary, &mut buf).unwrap();
    let back: GrayImage = pgm::read(&buf[..]).unwrap();
    assert_eq!(back, img);

    let cfg = Config::with_threshold(10);
    let seg = segment(&back, &cfg);
    assert_eq!(seg.num_regions, 7);
    verify_segmentation(&back, &seg, &cfg).unwrap();
}

#[test]
fn labels_render_to_valid_pgm() {
    let img = synth::circle_collection(64);
    let cfg = Config::with_threshold(10);
    let seg = segment(&img, &cfg);
    let rendered = rg_core::labels::labels_to_image(&seg.labels, seg.width, seg.height);
    let mut buf = Vec::new();
    pgm::write(&rendered, None, pgm::Flavor::Ascii, &mut buf).unwrap();
    let back: GrayImage = pgm::read(&buf[..]).unwrap();
    assert_eq!(back, rendered);
}

#[test]
fn split_stage_reduces_merge_iterations() {
    // The paper's motivation: "the algorithm aims to reduce the number of
    // merge steps required ... by using a preprocessing split stage."
    for pi in [synth::PaperImage::Image1, synth::PaperImage::Image2] {
        let img = pi.generate();
        let with_split = segment(&img, &Config::with_threshold(10));
        let merge_only = segment(&img, &Config::with_threshold(10).max_square_log2(Some(0)));
        assert_eq!(with_split.labels, merge_only.labels, "{pi:?} partition");
        assert!(
            with_split.merge_iterations <= merge_only.merge_iterations,
            "{pi:?}: split {} iters vs merge-only {}",
            with_split.merge_iterations,
            merge_only.merge_iterations
        );
        // And the split stage leaves far fewer units to merge.
        assert!(with_split.num_squares * 4 < merge_only.num_squares);
    }
}

#[test]
fn random_ties_beat_smallest_id_on_paper_images() {
    // The paper's headline algorithmic claim, measured in iterations.
    let mut random_wins = 0usize;
    let mut total = 0usize;
    for pi in [
        synth::PaperImage::Image1,
        synth::PaperImage::Image2,
        synth::PaperImage::Image3,
    ] {
        let img = pi.generate();
        let rand_iters: u32 = (1..=3)
            .map(|s| {
                segment(
                    &img,
                    &Config::with_threshold(10).tie_break(TieBreak::Random { seed: s }),
                )
                .merge_iterations
            })
            .sum::<u32>()
            / 3;
        let small_iters = segment(
            &img,
            &Config::with_threshold(10).tie_break(TieBreak::SmallestId),
        )
        .merge_iterations;
        total += 1;
        if rand_iters <= small_iters {
            random_wins += 1;
        }
    }
    assert_eq!(
        random_wins, total,
        "random tie-breaking should not lose on any paper image"
    );
}

#[test]
fn threshold_zero_yields_flat_components() {
    // With T = 0 regions are exactly the flat connected components.
    let img = synth::rect_collection(64);
    let cfg = Config::with_threshold(0);
    let seg = segment(&img, &cfg);
    assert_eq!(seg.num_regions, 7);
    verify_segmentation(&img, &seg, &cfg).unwrap();
}

#[test]
fn threshold_255_yields_single_region() {
    let img = synth::random_rects(48, 48, 6, 1);
    let cfg = Config::with_threshold(255);
    let seg = segment(&img, &cfg);
    assert_eq!(seg.num_regions, 1);
}

#[test]
fn seq_engine_verifies_on_all_paper_images() {
    for pi in synth::PaperImage::ALL {
        let img = pi.generate();
        let cfg = Config::with_threshold(10);
        let seg = segment(&img, &cfg);
        verify_segmentation(&img, &seg, &cfg).unwrap_or_else(|v| panic!("{pi:?}: {}", v[0]));
    }
}

#[test]
fn legacy_parallel_argument_is_ignored() {
    // `HostPipeline::new` and `TiledRunner::new` still take a `bool` that
    // once selected a host "parallel" engine; it must change nothing.
    let img = synth::circle_collection(128);
    let cfg = Config::with_threshold(10).tie_break(TieBreak::Random { seed: 3 });
    let expect = segment(&img, &cfg);
    for legacy in [false, true] {
        let mut pipe = HostPipeline::<u8>::new(cfg, legacy);
        assert_eq!(pipe.engine(), "seq");
        assert_eq!(
            pipe.run(&img, &mut NullTelemetry),
            expect,
            "HostPipeline legacy={legacy}"
        );
    }
    let tiled = |legacy: bool| {
        let mut runner = TiledRunner::new(cfg, legacy, TileGrid::new(2, 2), 2);
        let mut seg = Segmentation::default();
        runner.run_into(&img, &mut NullTelemetry, &mut seg);
        seg.labels
    };
    assert_eq!(tiled(true), tiled(false));
}
