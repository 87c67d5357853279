//! Property tests of pipeline reuse: a pooled pipeline streamed over a
//! random image sequence must be **bit-identical** — segmentation and
//! telemetry conformance view — to fresh one-shot runs, across the host,
//! data-parallel and message-passing engines and both tie-break families.
//!
//! This is the safety net under the pipeline layer's core claim: arena
//! reuse (including shape and config changes mid-stream) is invisible to
//! every observable output.

use cm_sim::CostModel;
use cmmd_sim::CommScheme;
use proptest::prelude::*;
use rg_core::telemetry::Recorder;
use rg_core::{
    segment, segment_with_telemetry, Config, Criterion, HostPipeline, NullTelemetry, Pipeline,
    Segmentation, TieBreak,
};
use rg_datapar::DataParPipeline;
use rg_imaging::{synth, Image};
use rg_msgpass::{Decomposition, MsgPassPipeline};

// A stream of four random scenes with *varying shapes* — exercising both
// same-shape steady state and mid-stream shape changes.
prop_compose! {
    fn image_stream()(
        seeds in proptest::collection::vec(0u64..100_000, 4),
        w in 16usize..48,
        h in 16usize..48,
        grow in proptest::bool::ANY,
    ) -> Vec<Image<u8>> {
        seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                // Optionally vary the shape per image.
                let dw = if grow { 4 * i } else { 0 };
                synth::random_rects(w + dw, h, 6, s)
            })
            .collect()
    }
}

fn tie_of(random: bool, seed: u64) -> TieBreak {
    if random {
        TieBreak::Random { seed }
    } else {
        TieBreak::SmallestId
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Host engine: reused pipeline vs fresh run, segmentation AND
    /// telemetry conformance view. The tie family switches after the first
    /// image, so one warm merger crosses between the full rescans of
    /// random ties and the dirty-set rescans of deterministic ones. Images
    /// 1 and 2 share a config, so the second reuses the stamp tokens and
    /// dirty-set epochs the first left behind. The criterion switches
    /// between pixel range and mean difference at image 3, so the merger
    /// hands over between the two rescan kernels. The output buffer
    /// starts with stale labels of another length: the pipeline takes it
    /// as its square map, so nothing of it may survive into the result.
    #[test]
    fn host_pipeline_reuse_is_invisible(
        images in image_stream(),
        t in 0u32..120,
        random in proptest::bool::ANY,
        mean_first in proptest::bool::ANY,
        seed in 0u64..1_000,
        stale in proptest::collection::vec(any::<u32>(), 0..200),
    ) {
        let criterion = |i: usize| {
            if (i < 3) == mean_first {
                Criterion::MeanDifference
            } else {
                Criterion::PixelRange
            }
        };
        let first = Config::with_threshold(t)
            .tie_break(tie_of(random, seed))
            .criterion(criterion(0));
        let mut pipe: HostPipeline<u8> = HostPipeline::new(first, false);
        // Every image has at least 16x16 pixels, so `stale` is shorter.
        let mut out = Segmentation {
            labels: stale,
            ..Segmentation::default()
        };
        for (i, img) in images.iter().enumerate() {
            if i >= 1 {
                pipe.set_config(
                    first
                        .tie_break(tie_of(!random, seed))
                        .criterion(criterion(i)),
                );
            }
            let cfg = *pipe.config();
            let mut rec_fresh = Recorder::new();
            let fresh = segment_with_telemetry(img, &cfg, &mut rec_fresh);
            let mut rec_pipe = Recorder::new();
            pipe.run_image_into(img, &mut rec_pipe, &mut out);
            prop_assert_eq!(&fresh, &out);
            prop_assert_eq!(
                rec_fresh.report().conformance_view(),
                rec_pipe.report().conformance_view()
            );
        }
    }
}

proptest! {
    // The simulated machines are slow; fewer, smaller cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Data-parallel engine behind the Pipeline trait: reused adapter vs
    /// the host reference, across the stream.
    #[test]
    fn datapar_pipeline_reuse_matches_host(
        seeds in proptest::collection::vec(0u64..100_000, 2..4),
        t in 0u32..120,
        random in proptest::bool::ANY,
    ) {
        let cfg = Config::with_threshold(t).tie_break(tie_of(random, 77));
        let mut pipe = DataParPipeline::new(cfg, CostModel::cm2_8k());
        for &s in &seeds {
            let img = synth::random_rects(32, 32, 5, s);
            let seg = pipe.run(&img, &mut NullTelemetry);
            prop_assert_eq!(seg, segment(&img, &cfg));
        }
    }

    /// Message-passing engine behind the Pipeline trait: reused adapter vs
    /// the host reference under the decomposition's square cap.
    #[test]
    fn msgpass_pipeline_reuse_matches_host(
        seeds in proptest::collection::vec(0u64..100_000, 2..3),
        t in 0u32..120,
        random in proptest::bool::ANY,
    ) {
        let nodes = 4;
        let cap = Decomposition::for_nodes(nodes, 32, 32).max_safe_square_log2();
        let cfg = Config::with_threshold(t)
            .tie_break(tie_of(random, 13))
            .max_square_log2(Some(cap));
        let mut pipe = MsgPassPipeline::new(cfg, nodes, CommScheme::Async);
        for &s in &seeds {
            let img = synth::random_rects(32, 32, 5, s);
            let seg = pipe.run(&img, &mut NullTelemetry);
            prop_assert_eq!(seg, segment(&img, &cfg));
        }
    }
}
