//! Workspace pipeline layer: allocation-free engine reuse.
//!
//! The paper's design premise is *flat arrays only, no dynamic structures* —
//! yet a one-shot [`crate::engine::segment`] call allocates a fresh set of
//! split buffers, RAG arrays and label scratch for every image. In this
//! module a [`Workspace`] owns **all mutable scratch** — split level
//! buffers, the merge engine's CSR arrays, history DSU and stamp tokens,
//! the per-square label table — in reusable arenas with *high-water-mark*
//! reuse: buffers grow to the largest image seen and [`Workspace::reset`]
//! never frees.
//!
//! Running the same-shape image stream through one [`HostPipeline`]
//! therefore performs **zero heap allocations per image after the warm-up
//! image** (asserted by the `alloc_steady_state` integration test), while
//! producing bit-identical [`Segmentation`]s and the exact telemetry
//! span/record sequence of the one-shot entry points.
//!
//! The [`Pipeline`] trait is the engine-agnostic face of this layer: the
//! host engine implements it with true buffer reuse, and the `rg-datapar` /
//! `rg-msgpass` crates wrap their simulated machines behind the same
//! interface so the batch runtime ([`crate::batch`]) can stream images
//! through any engine.

use crate::config::Config;
use crate::driver::{
    run_driver, EngineBackend, GraphStage, LabelStage, MergeCx, MergeStage, RunSummary, SplitInfo,
    SplitStage, StageStats, TraceHook,
};
use crate::engine::Segmentation;
use crate::hierarchy::MergeTrace;
use crate::merge::Merger;
use crate::split::{split_into, SplitResult, SplitScratch};
use crate::telemetry::{MergeIterationRecord, NullTelemetry, Telemetry};
use rg_imaging::{Image, Intensity};

/// All mutable scratch of a host-engine run, held in reusable arenas.
///
/// Every buffer follows the *high-water-mark* rule: it grows (once) to the
/// largest size demanded so far and is re-filled in place thereafter —
/// [`Workspace::reset`] clears logical contents but **never frees**.
#[derive(Debug)]
pub struct Workspace<P: Intensity> {
    /// Split-stage level pyramids, bitmaps and extraction stack.
    split_scratch: SplitScratch<P>,
    /// The current split result (squares / stats / square-of map), refilled
    /// in place by `split_into`.
    split: SplitResult<P>,
    /// The merge engine with all its CSR/DSU/stamp-token state; rebuilt in
    /// place from each split by [`Merger::reset_from_split`].
    merger: Option<Merger<P>>,
    /// Original vertex → representative, batch-resolved after the merge,
    /// then compacted in place to vertex → final label.
    by_vertex: Vec<u32>,
}

impl<P: Intensity> Workspace<P> {
    /// Creates an empty workspace (no allocation until first use).
    pub fn new() -> Self {
        Self {
            split_scratch: SplitScratch::new(),
            split: SplitResult::default(),
            merger: None,
            by_vertex: Vec::new(),
        }
    }

    /// Clears logical contents while keeping every arena's capacity (the
    /// reuse invariant: `reset` **never frees**). A reset workspace behaves
    /// exactly like a fresh one on the next run.
    pub fn reset(&mut self) {
        self.split.squares.clear();
        self.split.stats.clear();
        self.split.square_of.clear();
        self.split.iterations = 0;
        self.split.metrics = crate::split::SplitMetrics::default();
        self.by_vertex.clear();
        // Keep the merger: its buffers are the most expensive to warm.
    }

    /// Pre-sizes the pixel-indexed arenas for `width`×`height` images, so
    /// the warm-up image takes fewer growth reallocations. Vertex/edge
    /// arenas are left to the warm-up run (their true sizes are typically
    /// far below the worst-case bound).
    pub fn prepare(&mut self, width: usize, height: usize) {
        let px = width * height;
        if self.split.square_of.capacity() < px {
            self.split
                .square_of
                .reserve(px - self.split.square_of.len());
        }
        self.split_scratch.prepare(width, height);
    }
}

impl<P: Intensity> Default for Workspace<P> {
    fn default() -> Self {
        Self::new()
    }
}

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

/// The host-engine pipeline, built on a reusable [`Workspace`].
///
/// Produces bit-identical output to [`crate::engine::segment`] and the
/// identical telemetry sequence, with **zero heap allocations per image**
/// once warmed up on a shape.
/// Images of a new shape (or a config change via
/// [`HostPipeline::set_config`]) re-size the pixel-indexed arenas first;
/// arenas keep their high-water capacity throughout.
#[derive(Debug)]
pub struct HostPipeline<P: Intensity = u8> {
    config: Config,
    /// `(width, height)` the workspace was last prepared for; `None`
    /// before the first run and after a config change.
    shape: Option<(usize, usize)>,
    ws: Workspace<P>,
}

impl<P: Intensity> HostPipeline<P> {
    /// Creates a pipeline.
    ///
    /// `_legacy_parallel` is ignored: the host engine has one sequential
    /// path. The argument remains only because the end-to-end benchmark
    /// harness (`bench_e2e/`) calls this constructor with it; it goes with
    /// the next change allowed to touch that harness.
    pub fn new(config: Config, _legacy_parallel: bool) -> Self {
        Self {
            config,
            shape: None,
            ws: Workspace::new(),
        }
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Replaces the configuration; the next run re-prepares the workspace.
    pub fn set_config(&mut self, config: Config) {
        self.config = config;
        self.shape = None;
    }

    /// The workspace (for inspection in tests).
    pub fn workspace(&self) -> &Workspace<P> {
        &self.ws
    }

    /// Segment `img` into the recyclable `out` buffer (see
    /// [`Pipeline::run_into`]); generic over the intensity type.
    pub fn run_image_into(
        &mut self,
        img: &Image<P>,
        tel: &mut dyn Telemetry,
        out: &mut Segmentation,
    ) {
        let shape = (img.width(), img.height());
        if self.shape != Some(shape) {
            self.ws.prepare(shape.0, shape.1);
            self.shape = Some(shape);
        }
        run_host_into(img, &self.config, tel, &mut self.ws, out);
    }

    /// Convenience: segment `img` into a fresh [`Segmentation`] with no
    /// telemetry.
    pub fn run_image(&mut self, img: &Image<P>) -> Segmentation {
        let mut out = Segmentation::default();
        self.run_image_into(img, &mut NullTelemetry, &mut out);
        out
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

/// The host pipeline body: builds a [`HostBackend`] over the workspace and
/// hands it to the unified stage driver ([`crate::driver::run_driver`]),
/// which owns the telemetry span/record sequence (golden-snapshot and
/// trace-schema tested).
pub(crate) fn run_host_into<P: Intensity>(
    img: &Image<P>,
    config: &Config,
    tel: &mut dyn Telemetry,
    ws: &mut Workspace<P>,
    out: &mut Segmentation,
) {
    let mut backend = HostBackend::new(img, config, ws);
    run_driver(&mut backend, tel, out);
}

/// The host engine as a stage-driver backend: live stages over
/// [`Workspace`] arenas, zero steady-state allocation under a disabled sink.
///
/// This is the exemplar backend: every stage runs for real inside the span
/// the driver opens for it, wall time comes from the driver's stopwatch,
/// and there is no simulated time. It is also the only backend implementing
/// [`TraceHook`] — construct it with [`HostBackend::with_trace`] and take
/// the merge dendrogram after the run.
pub struct HostBackend<'a, P: Intensity> {
    img: &'a Image<P>,
    config: &'a Config,
    ws: &'a mut Workspace<P>,
    trace: bool,
}

impl<'a, P: Intensity> HostBackend<'a, P> {
    /// A backend over `img` using the given workspace arenas.
    pub fn new(img: &'a Image<P>, config: &'a Config, ws: &'a mut Workspace<P>) -> Self {
        Self {
            img,
            config,
            ws,
            trace: false,
        }
    }

    /// Enables merge-dendrogram recording for this run (see [`TraceHook`]).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

impl<P: Intensity> SplitStage for HostBackend<'_, P> {
    fn split(&mut self, _tel: &mut dyn Telemetry) -> StageStats {
        split_into(
            self.img,
            self.config,
            &mut self.ws.split_scratch,
            &mut self.ws.split,
        );
        StageStats::live()
    }

    fn split_report(&mut self, tel: &mut dyn Telemetry) {
        // Engine-internal work counters of the packed split (excluded
        // from cross-engine conformance, like the merge counters).
        let m = &self.ws.split.metrics;
        tel.counter("split.levels_built", m.levels_built as f64);
        tel.counter("split.productive_levels", m.productive_levels as f64);
        tel.counter("split.words_tested", m.words_tested as f64);
        tel.counter("split.cells_folded", m.cells_folded as f64);
    }
}

impl<P: Intensity> GraphStage for HostBackend<'_, P> {
    fn graph(&mut self, _tel: &mut dyn Telemetry) -> StageStats {
        let ws = &mut *self.ws;
        let merger = ws.merger.get_or_insert_with(|| Merger::hollow(self.config));
        merger.reset_from_split(&ws.split, self.config);
        if self.trace {
            // A reset drops any previous trace, so arm it here —
            // after the merger has its vertices for this image.
            merger.enable_trace();
        }
        StageStats::live()
    }
}

impl<P: Intensity> MergeStage for HostBackend<'_, P> {
    fn merge(&mut self, cx: &mut MergeCx<'_>) -> StageStats {
        let merger = self.ws.merger.as_mut().expect("graph stage ran");
        if cx.enabled() {
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
        } else {
            while !merger.is_done() {
                merger.step();
            }
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
        let ws = &mut *self.ws;
        let merger = ws.merger.as_ref().expect("graph stage ran");
        merger.labels_by_vertex_into(&mut ws.by_vertex);
        let num_regions = compact_square_reps(&mut ws.by_vertex);
        let lab = &ws.by_vertex;
        out.labels.clear();
        out.labels
            .extend(ws.split.square_of.iter().map(|&q| lab[q as usize]));
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
        self.config
    }

    fn split_info(&self) -> SplitInfo {
        SplitInfo {
            iterations: self.ws.split.iterations,
            num_squares: self.ws.split.num_squares(),
        }
    }

    fn summary(&self) -> RunSummary<'_> {
        let merger = self.ws.merger.as_ref().expect("graph stage ran");
        RunSummary {
            split_iterations: self.ws.split.iterations,
            num_squares: self.ws.split.num_squares(),
            merge_iterations: merger.iterations(),
            merges_per_iteration: merger.merges_per_iteration(),
            num_regions: merger.num_regions(),
        }
    }
}

impl<P: Intensity> TraceHook for HostBackend<'_, P> {
    fn take_trace(&mut self) -> Option<MergeTrace> {
        self.ws.merger.as_mut().and_then(|m| m.take_trace())
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
/// The per-pixel labels are then one gather, `lab[square_of[p]]`,
/// bit-identical to `compact_first_appearance` of the raw per-pixel
/// representatives.
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
    use crate::config::{MergeBackend, TieBreak};
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
    fn reused_pipeline_matches_under_reference_backend() {
        let cfg = Config::with_threshold(10).merge_backend(MergeBackend::Reference);
        let mut pipe: HostPipeline<u8> = HostPipeline::new(cfg, false);
        for img in [synth::circle_collection(64), synth::nested_rects(64)] {
            let fresh = segment(&img, &cfg);
            assert_eq!(fresh, pipe.run_image(&img));
        }
    }

    #[test]
    fn pipeline_replans_on_shape_and_config_change() {
        let cfg = Config::with_threshold(10);
        let mut pipe: HostPipeline<u8> = HostPipeline::new(cfg, false);
        assert_eq!(pipe.shape, None);
        let a = synth::random_rects(32, 32, 5, 1);
        assert_eq!(pipe.run_image(&a), segment(&a, &cfg));
        assert_eq!(pipe.shape, Some((32, 32)));
        // Different shape: re-prepare, and back again.
        let b = synth::random_rects(48, 16, 5, 2);
        assert_eq!(pipe.run_image(&b), segment(&b, &cfg));
        assert_eq!(pipe.shape, Some((48, 16)));
        assert_eq!(pipe.run_image(&a), segment(&a, &cfg));
        // A config change re-prepares too, and the new config takes effect.
        let cfg2 = Config::with_threshold(25);
        pipe.set_config(cfg2);
        assert_eq!(pipe.shape, None);
        assert_eq!(pipe.run_image(&b), segment(&b, &cfg2));
        assert_ne!(segment(&b, &cfg2), segment(&b, &cfg));
    }

    #[test]
    fn workspace_reset_preserves_behavior() {
        let cfg = Config::with_threshold(10);
        let mut pipe: HostPipeline<u8> = HostPipeline::new(cfg, false);
        let img = synth::circle_collection(64);
        let first = pipe.run_image(&img);
        pipe.ws.reset();
        assert_eq!(first, pipe.run_image(&img));
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
        pipe.run_image(&img);
        let mut out = Segmentation::default();
        pipe.run_image_into(&img, &mut rec_pipe, &mut out);
        assert_eq!(seg, out);
        assert_eq!(
            rec_engine.report().conformance_view(),
            rec_pipe.report().conformance_view()
        );
    }
}
