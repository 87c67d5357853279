//! One-shot entry points of the host engine (split → RAG → merge →
//! labels), each a run of a fresh [`HostPipeline`].

use crate::config::Config;
use crate::hierarchy::MergeTrace;
use crate::pipeline::HostPipeline;
use crate::telemetry::{NullTelemetry, Telemetry};
use rg_imaging::{Image, Intensity};
use std::time::Instant;

/// A wall-clock stopwatch that avoids the syscall when telemetry is off.
pub(crate) struct Stopwatch {
    start: Option<Instant>,
}

impl Stopwatch {
    pub(crate) fn start(enabled: bool) -> Self {
        Self {
            start: enabled.then(Instant::now),
        }
    }

    /// Seconds since construction (0.0 when disabled), restarting the
    /// stopwatch for the next stage.
    pub(crate) fn lap(&mut self) -> f64 {
        match &mut self.start {
            Some(t) => {
                let dt = t.elapsed().as_secs_f64();
                *t = Instant::now();
                dt
            }
            None => 0.0,
        }
    }
}

/// A completed segmentation.
///
/// `Default` yields an empty (zero-size) segmentation — the recyclable
/// output buffer for [`crate::pipeline::Pipeline::run_into`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Segmentation {
    /// Per-pixel compact region label in `0..num_regions`, numbered by
    /// first appearance in raster order (canonical across engines).
    pub labels: Vec<u32>,
    /// Number of regions found at the end of the merge stage.
    pub num_regions: usize,
    /// Number of square regions found at the end of the split stage.
    pub num_squares: usize,
    /// Productive split iterations.
    pub split_iterations: u32,
    /// Merge iterations executed.
    pub merge_iterations: u32,
    /// Merges performed per merge iteration.
    pub merges_per_iteration: Vec<u32>,
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
}

impl Segmentation {
    /// Label of pixel `(x, y)`.
    #[inline]
    pub fn label(&self, x: usize, y: usize) -> u32 {
        self.labels[y * self.width + x]
    }

    /// `true` for a degenerate (zero-pixel) segmentation — e.g. a freshly
    /// `Default`-constructed recyclable buffer that has not been run yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// Runs the full split-and-merge pipeline on the host.
pub fn segment<P: Intensity>(img: &Image<P>, config: &Config) -> Segmentation {
    segment_with_telemetry(img, config, &mut NullTelemetry)
}

/// Like [`segment`], reporting stage spans and per-iteration merge
/// counters into the given [`Telemetry`] sink.
pub fn segment_with_telemetry<P: Intensity>(
    img: &Image<P>,
    config: &Config,
    tel: &mut dyn Telemetry,
) -> Segmentation {
    let mut out = Segmentation::default();
    HostPipeline::new(*config, false).run_image_into(img, tel, &mut out);
    out
}

/// Like [`segment`], additionally recording the [`MergeTrace`] — the full
/// merge dendrogram for hierarchical analysis (see [`crate::hierarchy`]).
pub fn segment_with_trace<P: Intensity>(
    img: &Image<P>,
    config: &Config,
) -> (Segmentation, MergeTrace) {
    let mut out = Segmentation::default();
    let trace = HostPipeline::new(*config, false).run_traced_into(img, &mut out);
    (out, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TieBreak;
    use rg_imaging::synth;

    #[test]
    fn figure_image_end_to_end() {
        let img = synth::figure1_image();
        let cfg = Config::with_threshold(3).tie_break(TieBreak::SmallestId);
        let seg = segment(&img, &cfg);
        assert_eq!(seg.num_squares, 7);
        assert_eq!(seg.split_iterations, 1);
        assert_eq!(seg.merge_iterations, 3);
        assert_eq!(seg.num_regions, 2);
        // Region 0 is the high-intensity body, region 1 the bright corner.
        let expect = vec![
            0, 0, 1, 1, //
            0, 0, 0, 1, //
            0, 0, 0, 0, //
            0, 0, 0, 0,
        ];
        assert_eq!(seg.labels, expect);
        assert_eq!(seg.label(2, 0), 1);
        assert_eq!(seg.label(2, 1), 0);
    }

    #[test]
    fn paper_images_reach_expected_region_counts() {
        for pi in synth::PaperImage::ALL {
            // 64² scaled versions keep the test fast; counts are identical
            // by construction for the shapes that survive scaling.
            let img = pi.generate();
            let cfg = Config::with_threshold(synth::DEFAULT_THRESHOLD);
            let seg = segment(&img, &cfg);
            assert_eq!(
                seg.num_regions,
                pi.expected_final_regions(),
                "{pi:?} ({})",
                pi.description()
            );
        }
    }

    #[test]
    fn merge_only_baseline_agrees_on_partition() {
        // The split cap must not change the *final* partition on scenes
        // whose regions are flat (every intensity either merges or
        // doesn't, independent of grouping order). Cap 0 disables the
        // split stage entirely: the merge-only baseline.
        let img = synth::rect_collection(64);
        let caps = [Some(0), Some(1), Some(2), Some(3), Some(4), None];
        let runs: Vec<Segmentation> = caps
            .iter()
            .map(|&cap| segment(&img, &Config::with_threshold(10).max_square_log2(cap)))
            .collect();
        let merge_only = &runs[0];
        assert_eq!(merge_only.num_squares, 64 * 64);
        for (cap, seg) in caps.iter().zip(&runs) {
            assert_eq!(seg.num_regions, merge_only.num_regions, "cap {cap:?}");
            assert_eq!(seg.labels, merge_only.labels, "cap {cap:?}");
            // The split stage saves merge iterations (the paper's
            // motivation). They need not fall monotonically in the cap,
            // so only the merge-only baseline is the upper bound.
            assert!(
                seg.merge_iterations <= merge_only.merge_iterations,
                "cap {cap:?}"
            );
        }
        // A larger cap can only coalesce more: squares never increase.
        for (pair, caps) in runs.windows(2).zip(caps.windows(2)) {
            assert!(pair[1].num_squares <= pair[0].num_squares, "caps {caps:?}");
        }
    }

    #[test]
    fn telemetry_matches_segmentation() {
        use crate::telemetry::{Recorder, Stage};
        let img = synth::nested_rects(64);
        let cfg = Config::with_threshold(10).tie_break(TieBreak::Random { seed: 3 });
        let mut rec = Recorder::new();
        let seg = segment_with_telemetry(&img, &cfg, &mut rec);

        let r = rec.report();
        assert!(rec.is_finished());
        assert_eq!(r.engine, "seq");
        assert_eq!(r.width, 64);
        assert_eq!(r.height, 64);
        assert_eq!(r.merges_per_iteration(), seg.merges_per_iteration);
        assert_eq!(r.total_merge_iterations(), seg.merge_iterations);
        assert_eq!(r.split_iterations, seg.split_iterations);
        assert_eq!(r.num_squares, seg.num_squares);
        assert_eq!(r.num_regions, seg.num_regions);
        // All four stages present, in pipeline order, wall-clocked.
        let stages: Vec<Stage> = r.stages.iter().map(|s| s.stage).collect();
        assert_eq!(
            stages,
            vec![Stage::Split, Stage::Graph, Stage::Merge, Stage::Label]
        );
        assert!(r.stages.iter().all(|s| s.sim_seconds.is_none()));
        assert!(r.stages.iter().all(|s| s.wall_seconds >= 0.0));
    }

    #[test]
    fn labels_are_dense_and_sized() {
        let img = synth::circle_collection(128);
        let seg = segment(&img, &Config::with_threshold(10));
        assert_eq!(seg.labels.len(), 128 * 128);
        // Labels are compact: the largest is `num_regions - 1`.
        assert_eq!(seg.labels.iter().max(), Some(&(seg.num_regions as u32 - 1)));
        assert_eq!(seg.num_regions, 11);
    }

    #[test]
    fn degenerate_segmentation_reports_zero_regions() {
        // A Default segmentation (the recyclable `run_into` buffer before
        // any run) is degenerate: no labels and 0 regions.
        let seg = Segmentation::default();
        assert!(seg.is_empty());
        assert_eq!(seg.num_regions, 0);

        // Minimal legal images stay well-formed end to end (single pixel,
        // single row, single column).
        for (w, h) in [(1usize, 1usize), (7, 1), (1, 7)] {
            let img = rg_imaging::Image::new(w, h, 42u8);
            let seg = segment(&img, &Config::with_threshold(10));
            assert_eq!(seg.labels.len(), w * h, "{w}x{h}");
            assert_eq!(seg.num_regions, 1, "{w}x{h}");
            assert!(seg.labels.iter().all(|&l| l == 0), "{w}x{h}");
            assert!(!seg.is_empty());
        }
    }
}
