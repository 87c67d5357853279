//! Property test of the host label stage: compaction runs over squares
//! (O(squares)) and labels are then one gather per pixel, which is exact
//! only because the merge history is min-rep and squares are in raster
//! order of their top-left corners. Pin that: whole-image [`HostPipeline`]
//! labels must equal `compact_first_appearance` of the raw per-pixel
//! representatives `by_vertex[square_of[p]]`, taken from the reference
//! merge ([`rg_core::merge_reference`]). One property thus checks both the
//! compaction and the engine's labels against the oracle, across random
//! shapes (non-power-of-two rectangles, 1×N and N×1 strips), both
//! criteria, both connectivities, split on and off, and both tie families.

use proptest::prelude::*;
use rg_core::graph::Rag;
use rg_core::labels::compact_first_appearance;
use rg_core::{
    merge_reference, split, Config, Connectivity, Criterion, HostPipeline, NullTelemetry, Pipeline,
    TieBreak,
};
use rg_imaging::{synth, Image};

prop_compose! {
    fn scene()(
        seed in 0u64..1_000_000,
        shape in prop_oneof![
            ((2usize..48), (2usize..48)),
            ((1usize..2), (1usize..130)),   // 1×N strip
            ((1usize..130), (1usize..2)),   // N×1 strip
            (Just(65usize), Just(33usize)), // just past powers of two
        ],
        count in 0usize..12,
    ) -> Image<u8> {
        synth::random_rects(shape.0, shape.1, count, seed)
    }
}

prop_compose! {
    fn label_config()(
        t in 0u32..120,
        crit in prop_oneof![Just(Criterion::PixelRange), Just(Criterion::MeanDifference)],
        conn in prop_oneof![Just(Connectivity::Four), Just(Connectivity::Eight)],
        cap in prop_oneof![Just(None), Just(Some(0u8))],
        tie_seed in prop_oneof![Just(None), (0u64..1000).prop_map(Some)],
    ) -> Config {
        let tie = match tie_seed {
            None => TieBreak::SmallestId,
            Some(seed) => TieBreak::Random { seed },
        };
        Config::with_threshold(t)
            .criterion(crit)
            .connectivity(conn)
            .max_square_log2(cap)
            .tie_break(tie)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn host_labels_equal_compacted_raw_gather(
        imgs in prop::collection::vec(scene(), 1..3),
        cfg in label_config(),
    ) {
        // One warm pipeline across the stream, so stale label tables from
        // a previous (differently shaped) image would show.
        let mut pipe: HostPipeline<u8> = HostPipeline::new(cfg, false);
        for img in &imgs {
            let seg = pipe.run(img, &mut NullTelemetry);
            let s = split(img, &cfg);
            let stride = s.width as u32;
            let ids: Vec<u64> = s.squares.iter().map(|q| u64::from(q.id(stride))).collect();
            let by_vertex =
                merge_reference(&Rag::from_split(&s, cfg.connectivity), &ids, &cfg)
                    .labels_by_vertex;
            let raw: Vec<u32> = s.square_of.iter().map(|&q| by_vertex[q as usize]).collect();
            let (expect, n) = compact_first_appearance(&raw);
            prop_assert_eq!(&seg.labels, &expect);
            prop_assert_eq!(seg.num_regions, n);
        }
    }
}
