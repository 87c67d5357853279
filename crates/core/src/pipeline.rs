//! The host engine: one reusable split → RAG → merge → label pipeline.
//!
//! The paper's design premise is *flat arrays only, no dynamic structures*.
//! A [`HostPipeline`] owns **all per-square scratch** of a host run — the
//! split's level planes, bitsets, squares and statistics, the merge
//! engine's CSR arrays, history DSU and stamp tokens, and the per-square
//! label table — with *high-water-mark* reuse: every buffer grows to the
//! largest image seen and is refilled in place, never freed. The run's one
//! per-pixel plane is the caller's [`Segmentation::labels`]: it starts as
//! the split's square map and the label stage overwrites it in place with
//! region ids, as the paper's CM programs do with one per-pixel field, so
//! between runs the pipeline holds no `w·h` buffer. The one-shot entry
//! points ([`crate::engine::segment`] and friends) run a fresh pipeline.
//!
//! Running a same-shape image stream through one pipeline therefore
//! performs **zero heap allocations per image after the warm-up image**
//! (asserted by the `alloc_steady_state` integration test), while
//! producing bit-identical [`Segmentation`]s and the exact telemetry
//! span/record sequence of the one-shot entry points.
//!
//! The [`Pipeline`] trait is the engine-agnostic face of this layer: the
//! host engine implements it with true buffer reuse, and the `rg-datapar` /
//! `rg-msgpass` crates wrap their simulated machines behind the same
//! interface so the batch runtime ([`crate::batch`]) can stream images
//! through any engine.

use crate::config::{Config, RegionStats};
use crate::driver::{
    run_driver, EngineBackend, GraphStage, LabelStage, MergeCx, MergeStage, RunSummary, SplitInfo,
    SplitStage, StageStats,
};
use crate::engine::Segmentation;
use crate::hierarchy::MergeTrace;
use crate::merge::Merger;
use crate::split::{split_into, SplitResult, SplitScratch};
use crate::telemetry::{MergeIterationRecord, NullTelemetry, Telemetry};
use rg_imaging::{Image, Intensity};

/// An engine-agnostic, reusable segmentation pipeline.
///
/// Implementations keep their scratch between calls, so streaming
/// many images through one pipeline amortizes all setup. The host engine
/// ([`HostPipeline`]) guarantees zero steady-state allocation; the simulated
/// machines (`rg-datapar` / `rg-msgpass` wrappers) implement the same
/// interface without that guarantee.
pub trait Pipeline {
    /// Engine label, e.g. `"seq"`, `"datapar:cm2-8k"`.
    fn engine(&self) -> &str;

    /// Segment `img`, writing the result into the recyclable `out` buffer
    /// (cleared/refilled in place). Telemetry, when enabled, receives the
    /// same span/record sequence as the engine's one-shot entry point.
    fn run_into(&mut self, img: &Image<u8>, tel: &mut dyn Telemetry, out: &mut Segmentation);

    /// Convenience: segment `img` into a fresh [`Segmentation`].
    fn run(&mut self, img: &Image<u8>, tel: &mut dyn Telemetry) -> Segmentation {
        let mut out = Segmentation::default();
        self.run_into(img, tel, &mut out);
        out
    }
}

/// The host engine: the configuration plus every arena a run needs.
///
/// Produces bit-identical output to [`crate::engine::segment`] and the
/// identical telemetry sequence, with **zero heap allocations per image**
/// once warmed up on a shape. Images of a new shape grow the arenas; no
/// arena ever shrinks.
#[derive(Debug)]
pub struct HostPipeline<P: Intensity = u8> {
    config: Config,
    /// Split-stage level planes and bitsets.
    split_scratch: SplitScratch<P>,
    /// The current split result (squares / stats / square-of map), refilled
    /// in place by `split_into`. Its `square_of` plane is the caller's
    /// label buffer, held only for the length of a run.
    split: SplitResult<P>,
    /// The merge engine, rebuilt in place from each split by
    /// [`Merger::reset_from_split`].
    merger: Merger<P>,
    /// Square → representative square, resolved after the merge, then
    /// compacted in place to square → final label.
    by_vertex: Vec<u32>,
}

impl<P: Intensity> HostPipeline<P> {
    /// Creates a pipeline (no allocation until the first run).
    ///
    /// `_legacy_parallel` is ignored: the host engine has one sequential
    /// path. The argument remains only because the end-to-end benchmark
    /// harness (`bench_e2e/`) calls this constructor with it; it goes with
    /// the next change allowed to touch that harness.
    pub fn new(config: Config, _legacy_parallel: bool) -> Self {
        Self {
            config,
            split_scratch: SplitScratch::new(),
            split: SplitResult::default(),
            merger: Merger::hollow(&config),
            by_vertex: Vec::new(),
        }
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Replaces the configuration; the next run uses it.
    pub fn set_config(&mut self, config: Config) {
        self.config = config;
    }

    /// Segment `img` into the recyclable `out` buffer (see
    /// [`Pipeline::run_into`]); generic over the intensity type.
    pub fn run_image_into(
        &mut self,
        img: &Image<P>,
        tel: &mut dyn Telemetry,
        out: &mut Segmentation,
    ) {
        self.run_backend(img, false, tel, out);
    }

    /// [`HostPipeline::run_image_into`] with no telemetry, recording the
    /// merge dendrogram.
    pub(crate) fn run_traced_into(&mut self, img: &Image<P>, out: &mut Segmentation) -> MergeTrace {
        self.run_backend(img, true, &mut NullTelemetry, out);
        self.merger.take_trace().expect("trace was enabled")
    }

    /// Statistics of every region of the last run, indexed by compact
    /// label, in O(squares). The merger keeps a region's statistics at its
    /// representative, the region's lowest-index square, and the label
    /// stage numbers representatives in index order; every other square's
    /// label is already taken when it is reached. So the representative of
    /// label `next` is the first square `q` with `by_vertex[q] == next`.
    /// A square that kept no edge never merged: its statistics are the
    /// split's.
    pub(crate) fn region_stats_into(&self, out: &mut Vec<RegionStats<P>>) {
        out.clear();
        for (q, &label) in self.by_vertex.iter().enumerate() {
            if label as usize == out.len() {
                let merged = self.merger.stats_of(q as u32);
                out.push(merged.unwrap_or(self.split.stats[q]));
            }
        }
    }

    /// Hands a [`HostBackend`] over this pipeline to the unified stage
    /// driver ([`crate::driver::run_driver`]), which owns the telemetry
    /// span/record sequence (golden-snapshot and trace-schema tested).
    fn run_backend(
        &mut self,
        img: &Image<P>,
        trace: bool,
        tel: &mut dyn Telemetry,
        out: &mut Segmentation,
    ) {
        // The caller's label buffer becomes the square map; the label stage
        // maps it in place and hands it back.
        self.split.square_of = std::mem::take(&mut out.labels);
        let mut backend = HostBackend {
            img,
            pipe: self,
            trace,
        };
        run_driver(&mut backend, tel, out);
    }
}

impl Pipeline for HostPipeline<u8> {
    fn engine(&self) -> &str {
        "seq"
    }

    fn run_into(&mut self, img: &Image<u8>, tel: &mut dyn Telemetry, out: &mut Segmentation) {
        self.run_image_into(img, tel, out);
    }
}

/// The host engine as a stage-driver backend: live stages over a
/// [`HostPipeline`]'s arenas, zero steady-state allocation under a
/// disabled sink.
///
/// This is the exemplar backend: every stage runs for real inside the span
/// the driver opens for it, wall time comes from the driver's stopwatch,
/// and there is no simulated time. It is also the only backend that can
/// record the merge dendrogram (`trace`).
struct HostBackend<'a, P: Intensity> {
    img: &'a Image<P>,
    pipe: &'a mut HostPipeline<P>,
    trace: bool,
}

impl<P: Intensity> SplitStage for HostBackend<'_, P> {
    fn split(&mut self, _tel: &mut dyn Telemetry) -> StageStats {
        let pipe = &mut *self.pipe;
        split_into(
            self.img,
            &pipe.config,
            &mut pipe.split_scratch,
            &mut pipe.split,
        );
        StageStats::live()
    }

    fn split_report(&mut self, tel: &mut dyn Telemetry) {
        // Engine-internal work counters of the packed split (excluded
        // from cross-engine conformance, like the merge counters).
        let m = &self.pipe.split.metrics;
        tel.counter("split.levels_built", m.levels_built as f64);
        tel.counter("split.productive_levels", m.productive_levels as f64);
        tel.counter("split.words_tested", m.words_tested as f64);
        tel.counter("split.cells_folded", m.cells_folded as f64);
    }
}

impl<P: Intensity> GraphStage for HostBackend<'_, P> {
    fn graph(&mut self, _tel: &mut dyn Telemetry) -> StageStats {
        let pipe = &mut *self.pipe;
        pipe.merger.reset_from_split(&pipe.split, &pipe.config);
        if self.trace {
            // A reset drops any previous trace, so arm it here —
            // after the merger has its vertices for this image.
            pipe.merger.enable_trace();
        }
        StageStats::live()
    }
}

impl<P: Intensity> MergeStage for HostBackend<'_, P> {
    fn merge(&mut self, cx: &mut MergeCx<'_>) -> StageStats {
        // One loop whatever the sink: on a disabled sink every span guard
        // and record below emits nothing.
        let merger = &mut self.pipe.merger;
        while !merger.is_done() {
            let iteration = merger.iterations();
            cx.iteration(iteration, |tel| {
                let report = merger.step_traced(tel);
                MergeIterationRecord {
                    iteration,
                    merges: report.merges,
                    used_fallback: report.used_fallback,
                    active_edges: Some(report.active_edges),
                    compacted: Some(report.compacted),
                }
            });
        }
        StageStats::live()
    }

    fn measures_iteration_wall(&self) -> bool {
        // Host iterations run live; their wall distribution is the
        // `merge.iter_wall_us` histogram the driver emits.
        true
    }
}

impl<P: Intensity> LabelStage for HostBackend<'_, P> {
    fn label(&mut self, _tel: &mut dyn Telemetry, out: &mut Segmentation) -> (StageStats, usize) {
        let pipe = &mut *self.pipe;
        pipe.merger.labels_by_vertex_into(&mut pipe.by_vertex);
        let num_regions = compact_square_reps(&mut pipe.by_vertex);
        // A slice, not `&Vec`: through a `&Vec` the label map measured ~30%
        // slower, presumably because the `Vec` header was reloaded around
        // every label write.
        let lab: &[u32] = &pipe.by_vertex;
        out.labels = std::mem::take(&mut pipe.split.square_of);
        // Over fixed chunks: in traced scenes-2048 runs this read a lower
        // label time than the one-label loop in 4 of 4 same-seed pairs.
        let mut chunks = out.labels.chunks_exact_mut(8);
        for chunk in &mut chunks {
            for l in chunk {
                *l = lab[*l as usize];
            }
        }
        for l in chunks.into_remainder() {
            *l = lab[*l as usize];
        }
        (StageStats::live(), num_regions)
    }
}

impl<P: Intensity> EngineBackend for HostBackend<'_, P> {
    fn engine(&self) -> String {
        "seq".to_string()
    }

    fn dims(&self) -> (usize, usize) {
        (self.img.width(), self.img.height())
    }

    fn config(&self) -> &Config {
        &self.pipe.config
    }

    fn split_info(&self) -> SplitInfo {
        SplitInfo {
            iterations: self.pipe.split.iterations,
            num_squares: self.pipe.split.num_squares(),
        }
    }

    fn summary(&self) -> RunSummary<'_> {
        let (split, merger) = (&self.pipe.split, &self.pipe.merger);
        RunSummary {
            split_iterations: split.iterations,
            num_squares: split.num_squares(),
            merge_iterations: merger.iterations(),
            merges_per_iteration: merger.merges_per_iteration(),
            num_regions: merger.num_regions(),
        }
    }
}

/// First-appearance compaction over squares, in place: turns the
/// resolved merge history `lab` (square → representative square) into
/// square → compact label and returns the number of regions.
///
/// One pass `lab[q] = if r == q { next++ } else { lab[r] }` with
/// `r = lab[q]` is exact because
/// * the history is min-rep (`union_min_rep`), so `r ≤ q` and `lab[r]` is
///   already final when `q` is reached;
/// * squares are in raster order of their top-left corners, so a region's
///   first raster pixel is the top-left of its lowest-index square — its
///   representative — and numbering representatives in index order is
///   numbering regions in order of first pixel appearance.
///
/// The per-pixel labels are then one in-place map of the square plane,
/// `l = lab[l]`, bit-identical to `compact_first_appearance` of the raw
/// per-pixel representatives.
fn compact_square_reps(lab: &mut [u32]) -> usize {
    let mut next = 0u32;
    for q in 0..lab.len() {
        let r = lab[q] as usize;
        debug_assert!(r <= q, "merge history is not min-rep: {r} > {q}");
        if r == q {
            lab[q] = next;
            next += 1;
        } else {
            lab[q] = lab[r];
        }
    }
    next as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TieBreak;
    use crate::engine::segment;
    use rg_imaging::synth;

    #[test]
    fn reused_pipeline_matches_one_shot_engine() {
        let images = [
            synth::circle_collection(64),
            synth::rect_collection(64),
            synth::nested_rects(64),
            synth::random_rects(64, 64, 9, 7),
        ];
        for tie in [TieBreak::SmallestId, TieBreak::Random { seed: 5 }] {
            let cfg = Config::with_threshold(10).tie_break(tie);
            let mut pipe: HostPipeline<u8> = HostPipeline::new(cfg, false);
            let mut out = Segmentation::default();
            // Two passes: the second exercises fully-warm arenas.
            for _pass in 0..2 {
                for img in &images {
                    let fresh = segment(img, &cfg);
                    pipe.run_image_into(img, &mut NullTelemetry, &mut out);
                    assert_eq!(fresh, out, "tie={tie:?}");
                }
            }
        }
    }

    #[test]
    fn pipeline_keeps_no_pixel_plane_between_runs() {
        let cfg = Config::with_threshold(10);
        let mut pipe: HostPipeline<u8> = HostPipeline::new(cfg, false);
        let mut out = Segmentation::default();
        for img in [
            synth::random_rects(40, 24, 5, 1),
            synth::rect_collection(64),
        ] {
            pipe.run_image_into(&img, &mut NullTelemetry, &mut out);
            assert_eq!(pipe.split.square_of.capacity(), 0);
            assert_eq!(out.labels.len(), img.width() * img.height());
            assert_eq!(out, segment(&img, &cfg));
        }
    }

    #[test]
    fn pipeline_replans_on_shape_and_config_change() {
        let cfg = Config::with_threshold(10);
        let mut pipe: HostPipeline<u8> = HostPipeline::new(cfg, false);
        let a = synth::random_rects(32, 32, 5, 1);
        assert_eq!(pipe.run(&a, &mut NullTelemetry), segment(&a, &cfg));
        // Different shape, and back again.
        let b = synth::random_rects(48, 16, 5, 2);
        assert_eq!(pipe.run(&b, &mut NullTelemetry), segment(&b, &cfg));
        assert_eq!(pipe.run(&a, &mut NullTelemetry), segment(&a, &cfg));
        // A config change takes effect on the next run.
        let cfg2 = Config::with_threshold(25);
        pipe.set_config(cfg2);
        assert_eq!(pipe.run(&b, &mut NullTelemetry), segment(&b, &cfg2));
        assert_ne!(segment(&b, &cfg2), segment(&b, &cfg));
    }

    /// Per-label statistics accumulated from the pixels and labels.
    fn pixel_region_stats<P: Intensity>(img: &Image<P>, seg: &Segmentation) -> Vec<RegionStats<P>> {
        let mut stats: Vec<Option<RegionStats<P>>> = vec![None; seg.num_regions];
        for (&label, &p) in seg.labels.iter().zip(img.pixels()) {
            let px = RegionStats::of_pixel(p);
            let s = &mut stats[label as usize];
            *s = Some(s.map_or(px, |s| s.fold(px)));
        }
        stats
            .into_iter()
            .map(|s| s.expect("label has a pixel"))
            .collect()
    }

    #[test]
    fn region_stats_match_per_label_pixel_stats() {
        use crate::config::{Connectivity, Criterion};
        // One warm pipeline per intensity type across every shape and
        // configuration, so the check also covers stale arenas.
        let mut pipe8: HostPipeline<u8> = HostPipeline::new(Config::with_threshold(10), false);
        let mut pipe16: HostPipeline<u16> = HostPipeline::new(Config::with_threshold(10), false);
        let (mut got8, mut got16) = (Vec::new(), Vec::new());
        let mut out = Segmentation::default();
        let ties = |seed| {
            [
                TieBreak::SmallestId,
                TieBreak::LargestId,
                TieBreak::Random { seed },
            ]
        };
        for seed in 0..4u64 {
            let (w, h) = (9 + 23 * seed as usize % 37, 5 + 31 * seed as usize % 41);
            for img in [
                synth::random_rects(w, h, 8, seed),
                synth::uniform_noise(w, h, 120, 135, seed),
                // Wide-band noise: most squares keep no edge and never
                // reach the merger, so their statistics are the split's.
                synth::uniform_noise(w, h, 0, 255, seed),
            ] {
                // The same scene widened to u16, with low-bit texture.
                let wide = Image::from_fn(w, h, |x, y| {
                    u16::from(img.get(x, y)) * 256 + ((x * 7 + y * 13) % 64) as u16
                });
                for crit in [Criterion::PixelRange, Criterion::MeanDifference] {
                    for conn in [Connectivity::Four, Connectivity::Eight] {
                        for tie in ties(seed) {
                            let cfg = Config::with_threshold(10)
                                .criterion(crit)
                                .connectivity(conn)
                                .tie_break(tie);
                            let ctx = format!("{w}x{h} seed {seed} {crit:?} {conn:?} {tie:?}");
                            pipe8.set_config(cfg);
                            pipe8.run_image_into(&img, &mut NullTelemetry, &mut out);
                            pipe8.region_stats_into(&mut got8);
                            assert_eq!(got8, pixel_region_stats(&img, &out), "u8 {ctx}");

                            pipe16.set_config(Config {
                                threshold: 10 * 256,
                                ..cfg
                            });
                            pipe16.run_image_into(&wide, &mut NullTelemetry, &mut out);
                            pipe16.region_stats_into(&mut got16);
                            assert_eq!(got16, pixel_region_stats(&wide, &out), "u16 {ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn trait_object_runs_host_engine() {
        let cfg = Config::with_threshold(10);
        let img = synth::rect_collection(64);
        let mut p: Box<dyn Pipeline> = Box::new(HostPipeline::<u8>::new(cfg, false));
        assert_eq!(p.engine(), "seq");
        assert_eq!(p.run(&img, &mut NullTelemetry), segment(&img, &cfg));
    }

    #[test]
    fn telemetry_sequence_matches_one_shot_engine() {
        use crate::telemetry::Recorder;
        let img = synth::nested_rects(64);
        let cfg = Config::with_threshold(10).tie_break(TieBreak::Random { seed: 3 });
        let mut rec_engine = Recorder::new();
        let seg = crate::engine::segment_with_telemetry(&img, &cfg, &mut rec_engine);
        let mut rec_pipe = Recorder::new();
        let mut pipe: HostPipeline<u8> = HostPipeline::new(cfg, false);
        // Warm up once so the recorded run is the steady-state code path.
        pipe.run(&img, &mut NullTelemetry);
        let mut out = Segmentation::default();
        pipe.run_image_into(&img, &mut rec_pipe, &mut out);
        assert_eq!(seg, out);
        assert_eq!(
            rec_engine.report().conformance_view(),
            rec_pipe.report().conformance_view()
        );
    }
}
