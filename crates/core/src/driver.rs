//! The unified stage driver: one generic orchestration loop for every
//! engine.
//!
//! The paper's four implementations (CM-2 DP, CM-5 DP, CM-5 MP with the LP
//! and Async schemes) run the *same* split → RAG → merge → label program on
//! different execution substrates. This module writes that program **once**:
//! [`run_driver`] owns the canonical telemetry skeleton —
//!
//! ```text
//! run_start
//! run
//! ├── stage:split            ← SplitStage::split
//! │     stage record, split counters (SplitStage::split_report)
//! ├── stage:graph            ← GraphStage::graph
//! │     stage record, split_done
//! ├── stage:merge            ← MergeStage::merge
//! │   ├── iter:<n> …         ← MergeCx::iteration (one per merge round)
//! │     merge histograms (MergeStage::merge_report)
//! │     stage record, merge_done
//! └── stage:label            ← LabelStage::label
//!       stage record, region_size_px, run epilogue (run_report)
//! run_end
//! ```
//!
//! — plus [`StageSpan`] wall/sim timing and the final [`Segmentation`]
//! assembly, while a backend supplies only the per-stage work through the
//! [`SplitStage`] / [`GraphStage`] / [`MergeStage`] / [`LabelStage`] trait
//! family (composed by [`EngineBackend`]).
//!
//! Three execution shapes plug into the same skeleton:
//!
//! | backend                 | stages run      | wall time            | sim time |
//! |-------------------------|-----------------|----------------------|----------|
//! | `HostBackend` (seq)     | live, in-span   | driver stopwatch     | none     |
//! | `DataParBackend`        | live, in-span   | driver stopwatch     | cost-model ledgers |
//! | `MsgPassBackend`        | replayed ([`EngineBackend::prepare`] runs the SPMD program first) | proportional to sim | CMMD clocks |
//!
//! Replay backends report their own wall attribution through
//! [`StageStats::wall_seconds`]; live backends leave it `None` and the
//! driver's stopwatch fills it in. Engine-specific behaviour stays inside
//! its backend: the host backend records the merge dendrogram for
//! [`crate::segment_with_trace`], and the message-passing backend degrades
//! an aborted substrate to a host re-run inside its own `prepare`.
//!
//! The driver is the **only** place that opens `run` / `stage:*` /
//! `iter:<n>` spans (the batch layer's `batch` / `image:<i>` spans wrap
//! whole driver runs and stay in [`crate::batch`]), so span nesting is
//! balanced and identical across engines by construction rather than by
//! after-the-fact conformance testing.

use crate::config::Config;
use crate::engine::{Segmentation, Stopwatch};
use crate::labels::region_sizes;
use crate::telemetry::{
    Histogram, MergeIterationRecord, SpanGuard, SpanKind, Stage, StageSpan, Telemetry,
};
use std::time::Instant;

/// Per-stage outcome a backend reports to the driver: how the stage's
/// [`StageSpan`] should be timed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageStats {
    /// Host wall seconds to attribute to the stage, or `None` to let the
    /// driver's stopwatch measure the stage live (the host and
    /// data-parallel engines). Replay backends, whose stage bodies only
    /// re-emit history recorded during [`EngineBackend::prepare`], compute
    /// their own attribution (the message-passing engine splits the whole
    /// run's wall time proportionally to simulated stage times).
    pub wall_seconds: Option<f64>,
    /// Simulated seconds on the modelled machine (`None` on the host
    /// engines and for host-side stages of simulated engines).
    pub sim_seconds: Option<f64>,
}

impl StageStats {
    /// A live host stage: the driver measures wall time, no simulation.
    pub fn live() -> Self {
        Self::default()
    }

    /// A live simulated stage: the driver measures wall time, the cost
    /// model supplies `sim` seconds.
    pub fn simulated(sim: f64) -> Self {
        Self {
            wall_seconds: None,
            sim_seconds: Some(sim),
        }
    }

    /// A replayed stage: the backend attributes both times itself.
    pub fn replayed(wall: f64, sim: Option<f64>) -> Self {
        Self {
            wall_seconds: Some(wall),
            sim_seconds: sim,
        }
    }
}

/// Split-stage summary the driver emits as [`Telemetry::split_done`] once
/// the graph stage has fixed the vertex count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitInfo {
    /// Productive split iterations.
    pub iterations: u32,
    /// Number of maximal squares (= RAG vertices).
    pub num_squares: usize,
}

/// Scalar summary of a finished run, borrowed from the backend; the driver
/// copies it into the output [`Segmentation`] (into recycled buffers — the
/// borrow keeps the assembly allocation-free for arena-reusing backends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary<'a> {
    /// Productive split iterations.
    pub split_iterations: u32,
    /// Number of maximal squares after the split stage.
    pub num_squares: usize,
    /// Merge iterations executed.
    pub merge_iterations: u32,
    /// Merges performed per merge iteration.
    pub merges_per_iteration: &'a [u32],
    /// Regions at merge convergence.
    pub num_regions: usize,
}

/// The split stage: image → maximal homogeneous squares.
pub trait SplitStage {
    /// Runs (or replays) the split stage. Called inside the
    /// `stage:split` span.
    fn split(&mut self, tel: &mut dyn Telemetry) -> StageStats;

    /// Emits engine-internal split counters, right after the split stage
    /// record. Only called on enabled sinks.
    fn split_report(&mut self, _tel: &mut dyn Telemetry) {}
}

/// The graph stage: squares → region adjacency graph.
pub trait GraphStage {
    /// Runs (or replays) RAG construction. Called inside the
    /// `stage:graph` span.
    fn graph(&mut self, tel: &mut dyn Telemetry) -> StageStats;
}

/// The merge stage: iterative mutual-pick region merging.
pub trait MergeStage {
    /// Runs (or replays) the merge loop. Called inside the `stage:merge`
    /// span; per-iteration `iter:<n>` spans and records go through
    /// [`MergeCx::iteration`].
    fn merge(&mut self, cx: &mut MergeCx<'_>) -> StageStats;

    /// Emits extra merge-stage histograms/counters inside the
    /// `stage:merge` span, after the driver's `merge.merges_per_iteration`
    /// histogram. Only called on enabled sinks.
    fn merge_report(&mut self, _tel: &mut dyn Telemetry) {}

    /// `true` when the backend's iterations run live and their wall time
    /// is worth a `merge.iter_wall_us` histogram. Replay backends keep the
    /// default `false`: their zero-duration iterations would only add
    /// nondeterministic noise (and break chaos-run journal byte-identity).
    fn measures_iteration_wall(&self) -> bool {
        false
    }
}

/// The label stage: merge representatives → dense per-pixel labels.
pub trait LabelStage {
    /// Fills `out.labels` with first-appearance-compacted labels and
    /// returns the stage stats plus the compacted region count. Called
    /// inside the `stage:label` span.
    fn label(&mut self, tel: &mut dyn Telemetry, out: &mut Segmentation) -> (StageStats, usize);
}

/// A complete engine backend: the four stage traits plus run metadata.
///
/// The driver calls, in order: [`EngineBackend::prepare`] (before any
/// telemetry), [`EngineBackend::engine`] + `run_start`, the four stage
/// methods inside their spans, [`EngineBackend::summary`] for
/// `split_done`/`merge_done` scalars and the final [`Segmentation`]
/// assembly, and [`EngineBackend::run_report`] for the run epilogue.
pub trait EngineBackend: SplitStage + GraphStage + MergeStage + LabelStage {
    /// Engine label for `run_start`, e.g. `"seq"`, `"datapar:CM-2 (8K
    /// procs)"`, `"msgpass:LP:8"`. Only called on enabled sinks, after
    /// [`EngineBackend::prepare`].
    fn engine(&self) -> String;

    /// Image dimensions `(width, height)`.
    fn dims(&self) -> (usize, usize);

    /// The run configuration.
    fn config(&self) -> &Config;

    /// Up-front execution for replay backends (the message-passing engine
    /// runs its whole SPMD program here, with tracing on iff
    /// `telemetry_enabled`, and recovers from an aborted run itself).
    /// Live backends keep the default no-op.
    fn prepare(&mut self, _telemetry_enabled: bool) {}

    /// Split-stage summary for the driver's `split_done` record; called
    /// after the graph stage (the simulated engines fix their vertex count
    /// there).
    fn split_info(&self) -> SplitInfo;

    /// Scalar run summary; called after the merge stage.
    fn summary(&self) -> RunSummary<'_>;

    /// Emits the run epilogue (communication records, per-primitive
    /// counters, fault events, causal flows) inside the `run` span, after
    /// the `region_size_px` histogram. Only called on enabled sinks.
    fn run_report(&mut self, _tel: &mut dyn Telemetry) {}
}

/// Merge-stage context handed to [`MergeStage::merge`]: wraps the sink
/// with the canonical per-iteration protocol (`iter:<n>` span + iteration
/// record) and accumulates the driver-owned merge histograms.
pub struct MergeCx<'a> {
    tel: &'a mut dyn Telemetry,
    enabled: bool,
    iter_wall: Option<Histogram>,
    merges: Histogram,
}

impl<'a> MergeCx<'a> {
    fn new(tel: &'a mut dyn Telemetry, enabled: bool, iter_wall: bool) -> Self {
        Self {
            tel,
            enabled,
            iter_wall: (enabled && iter_wall).then(Histogram::new),
            merges: Histogram::new(),
        }
    }

    /// `true` when the sink is live. Backends may skip per-iteration
    /// bookkeeping entirely on disabled sinks (the zero-cost telemetry
    /// contract) as long as the merge work itself still runs.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The underlying sink, for merge-stage events outside any iteration.
    pub fn tel(&mut self) -> &mut dyn Telemetry {
        self.tel
    }

    /// Runs one merge iteration inside its `iter:<n>` span: `body` does
    /// the work (or replay) — emitting any intra-iteration events through
    /// the sink it is handed — and returns the iteration record, which the
    /// driver emits inside the span and folds into the
    /// `merge.merges_per_iteration` histogram.
    pub fn iteration(
        &mut self,
        iteration: u32,
        body: impl FnOnce(&mut dyn Telemetry) -> MergeIterationRecord,
    ) {
        let t0 = self.iter_wall.as_ref().map(|_| Instant::now());
        {
            let mut span = SpanGuard::enter(&mut *self.tel, SpanKind::MergeIteration(iteration));
            let rec = body(span.tel());
            self.merges.record(u64::from(rec.merges));
            if self.enabled {
                span.tel().merge_iteration(rec);
            }
        }
        if let (Some(h), Some(t0)) = (self.iter_wall.as_mut(), t0) {
            h.record(t0.elapsed().as_micros() as u64);
        }
    }
}

/// Runs a backend through the canonical stage program, filling the
/// recyclable `out` buffer (cleared/refilled in place).
///
/// This is the single orchestration loop behind every engine entry point —
/// [`crate::segment`], `rg_datapar::segment_datapar*`,
/// `rg_msgpass::segment_msgpass*`, and all [`crate::pipeline::Pipeline`]
/// implementations — and the seam a new backend plugs into. With a disabled
/// sink it emits nothing and allocates nothing of its own; with an enabled
/// sink it produces the span/record sequence documented at module level,
/// identical across backends.
pub fn run_driver<B: EngineBackend + ?Sized>(
    backend: &mut B,
    tel: &mut dyn Telemetry,
    out: &mut Segmentation,
) {
    let enabled = tel.enabled();
    backend.prepare(enabled);
    let (w, h) = backend.dims();
    if enabled {
        tel.run_start(&backend.engine(), w, h, backend.config());
    }
    let mut watch = Stopwatch::start(enabled);

    let num_regions = {
        // Everything between run_start and run_end lives inside the `run`
        // span; the guard closes it even on unwind.
        let mut run_span = SpanGuard::enter(&mut *tel, SpanKind::Run);
        let tel = run_span.tel();

        let stats = {
            let mut span = SpanGuard::enter(&mut *tel, SpanKind::Stage(Stage::Split));
            backend.split(span.tel())
        };
        if enabled {
            tel.stage(StageSpan {
                stage: Stage::Split,
                wall_seconds: stats.wall_seconds.unwrap_or_else(|| watch.lap()),
                sim_seconds: stats.sim_seconds,
            });
            backend.split_report(tel);
        }

        let stats = {
            let mut span = SpanGuard::enter(&mut *tel, SpanKind::Stage(Stage::Graph));
            backend.graph(span.tel())
        };
        if enabled {
            tel.stage(StageSpan {
                stage: Stage::Graph,
                wall_seconds: stats.wall_seconds.unwrap_or_else(|| watch.lap()),
                sim_seconds: stats.sim_seconds,
            });
            let info = backend.split_info();
            tel.split_done(info.iterations, info.num_squares);
        }

        let stats = {
            let mut span = SpanGuard::enter(&mut *tel, SpanKind::Stage(Stage::Merge));
            let iter_wall = backend.measures_iteration_wall();
            let mut cx = MergeCx::new(span.tel(), enabled, iter_wall);
            let stats = backend.merge(&mut cx);
            if enabled {
                let MergeCx {
                    tel,
                    iter_wall,
                    merges,
                    ..
                } = cx;
                if let Some(h) = iter_wall {
                    tel.histogram("merge.iter_wall_us", &h);
                }
                tel.histogram("merge.merges_per_iteration", &merges);
                backend.merge_report(tel);
            }
            stats
        };
        if enabled {
            tel.stage(StageSpan {
                stage: Stage::Merge,
                wall_seconds: stats.wall_seconds.unwrap_or_else(|| watch.lap()),
                sim_seconds: stats.sim_seconds,
            });
            tel.merge_done(backend.summary().num_regions);
        }

        let (stats, num_regions) = {
            let mut span = SpanGuard::enter(&mut *tel, SpanKind::Stage(Stage::Label));
            backend.label(span.tel(), out)
        };
        if enabled {
            tel.stage(StageSpan {
                stage: Stage::Label,
                wall_seconds: stats.wall_seconds.unwrap_or_else(|| watch.lap()),
                sim_seconds: stats.sim_seconds,
            });
            // Region-size distribution at convergence (pixels per region).
            let mut hist = Histogram::new();
            for s in region_sizes(&out.labels, num_regions) {
                hist.record(s as u64);
            }
            tel.histogram("region_size_px", &hist);
            backend.run_report(tel);
        }
        num_regions
    };
    if enabled {
        tel.run_end();
    }

    let summary = backend.summary();
    debug_assert_eq!(
        num_regions, summary.num_regions,
        "label compaction must preserve the merge-stage region count"
    );
    out.num_regions = num_regions;
    out.num_squares = summary.num_squares;
    out.split_iterations = summary.split_iterations;
    out.merge_iterations = summary.merge_iterations;
    out.merges_per_iteration.clear();
    out.merges_per_iteration
        .extend_from_slice(summary.merges_per_iteration);
    out.width = w;
    out.height = h;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Recorder;

    /// A minimal synthetic backend: 2x1 image, one square per pixel, one
    /// merge iteration joining them. Exercises the driver skeleton without
    /// any real engine.
    struct ToyBackend {
        config: Config,
        merges: Vec<u32>,
        prepared: bool,
    }

    impl ToyBackend {
        fn new() -> Self {
            Self {
                config: Config::with_threshold(10),
                merges: vec![1],
                prepared: false,
            }
        }
    }

    impl SplitStage for ToyBackend {
        fn split(&mut self, _tel: &mut dyn Telemetry) -> StageStats {
            StageStats::simulated(0.25)
        }
        fn split_report(&mut self, tel: &mut dyn Telemetry) {
            tel.counter("toy.split_counter", 1.0);
        }
    }
    impl GraphStage for ToyBackend {
        fn graph(&mut self, _tel: &mut dyn Telemetry) -> StageStats {
            StageStats::live()
        }
    }
    impl MergeStage for ToyBackend {
        fn merge(&mut self, cx: &mut MergeCx<'_>) -> StageStats {
            for (i, &m) in self.merges.clone().iter().enumerate() {
                cx.iteration(i as u32, |_tel| MergeIterationRecord {
                    iteration: i as u32,
                    merges: m,
                    used_fallback: false,
                    active_edges: None,
                    compacted: None,
                });
            }
            StageStats::simulated(0.75)
        }
    }
    impl LabelStage for ToyBackend {
        fn label(
            &mut self,
            _tel: &mut dyn Telemetry,
            out: &mut Segmentation,
        ) -> (StageStats, usize) {
            out.labels.clear();
            out.labels.extend_from_slice(&[0, 0]);
            (StageStats::live(), 1)
        }
    }
    impl EngineBackend for ToyBackend {
        fn engine(&self) -> String {
            "toy".to_string()
        }
        fn dims(&self) -> (usize, usize) {
            (2, 1)
        }
        fn config(&self) -> &Config {
            &self.config
        }
        fn prepare(&mut self, _enabled: bool) {
            self.prepared = true;
        }
        fn split_info(&self) -> SplitInfo {
            SplitInfo {
                iterations: 1,
                num_squares: 2,
            }
        }
        fn summary(&self) -> RunSummary<'_> {
            RunSummary {
                split_iterations: 1,
                num_squares: 2,
                merge_iterations: self.merges.len() as u32,
                merges_per_iteration: &self.merges,
                num_regions: 1,
            }
        }
        fn run_report(&mut self, tel: &mut dyn Telemetry) {
            tel.counter("toy.epilogue", 1.0);
        }
    }
    #[test]
    fn driver_assembles_segmentation_and_canonical_report() {
        let mut b = ToyBackend::new();
        let mut rec = Recorder::new();
        let mut out = Segmentation::default();
        run_driver(&mut b, &mut rec, &mut out);
        assert!(b.prepared);
        assert_eq!(out.labels, vec![0, 0]);
        assert_eq!(out.num_regions, 1);
        assert_eq!(out.num_squares, 2);
        assert_eq!(out.merges_per_iteration, vec![1]);
        assert_eq!((out.width, out.height), (2, 1));

        let r = rec.report();
        assert!(rec.is_finished());
        assert_eq!(r.engine, "toy");
        // Canonical stage order and per-stage sim attribution.
        let stages: Vec<Stage> = r.stages.iter().map(|s| s.stage).collect();
        assert_eq!(
            stages,
            vec![Stage::Split, Stage::Graph, Stage::Merge, Stage::Label]
        );
        assert_eq!(r.stage_seconds(Stage::Split), Some(0.25));
        assert_eq!(r.stage_seconds(Stage::Merge), Some(0.75));
        assert_eq!(r.num_squares, 2);
        assert_eq!(r.num_regions, 1);
        assert_eq!(r.merges_per_iteration(), vec![1]);
        // Backend hooks landed in the canonical slots.
        assert_eq!(r.counter("toy.split_counter"), Some(1.0));
        assert_eq!(r.counter("toy.epilogue"), Some(1.0));
        // Driver-owned histograms.
        assert!(r.histogram("merge.merges_per_iteration").is_some());
        assert!(r.histogram("region_size_px").is_some());
        // `measures_iteration_wall` defaults off.
        assert!(r.histogram("merge.iter_wall_us").is_none());
    }
}
