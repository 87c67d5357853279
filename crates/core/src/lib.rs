//! # rg-core
//!
//! The core of the reproduction of *"Solving the Region Growing Problem on
//! the Connection Machine"* (Copty, Ranka, Fox, Shankar; ICPP 1993): a
//! parallel **split-and-merge** algorithm for image segmentation under the
//! pixel-range homogeneity criterion.
//!
//! ## Pipeline
//!
//! 1. **Split** ([`split()`]): the image is partitioned bottom-up into
//!    maximal homogeneous squares (a flat-array quadtree coalesce).
//! 2. **Graph** ([`graph::Rag`]): squares become vertices of a region
//!    adjacency graph; edge weights are the intensity range of the union of
//!    the two endpoint regions.
//! 3. **Merge** ([`merge::Merger`]): regions iteratively pick their best
//!    neighbour; mutual picks merge (smaller ID representative); edges
//!    relabel and de-activate; repeat until no active edge remains.
//!
//! ## Quick start
//!
//! ```
//! use rg_core::{segment, Config, TieBreak};
//! use rg_imaging::synth;
//!
//! let img = synth::nested_rects(128);
//! let seg = segment(&img, &Config::with_threshold(10));
//! assert_eq!(seg.num_regions, 2);
//!
//! // Random tie-breaking (the paper's fast default) with a fixed seed:
//! let cfg = Config::with_threshold(10).tie_break(TieBreak::Random { seed: 1 });
//! let seg2 = segment(&img, &cfg);
//! assert_eq!(seg2.num_regions, 2);
//! ```
//!
//! The host engine ([`segment`]) is sequential; the paper's parallelism is
//! reproduced by the data-parallel CM simulation (`rg-datapar`) and the
//! message-passing CM-5 simulation (`rg-msgpass`). Every engine produces the
//! identical [`Segmentation`] for the same [`Config`], which the
//! cross-engine integration tests enforce.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyze;
pub mod batch;
pub mod chrome;
pub mod config;
pub mod driver;
pub mod engine;
pub mod graph;
pub mod hierarchy;
pub mod journal;
pub mod json;
pub mod kernels;
pub mod labels;
pub mod merge;
pub mod merge_ref;
pub mod metrics;
pub mod pipeline;
mod pool;
pub mod regions;
pub mod split;
pub mod split_ref;
pub mod telemetry;
pub mod tiles;
pub mod verify;

pub use analyze::{analyze_journal, analyze_run, RankTimeline, RunAnalysis};
pub use batch::{run_batch, run_batch_collect, BatchOptions, BatchSummary};
pub use chrome::{chrome_trace, chrome_trace_multi, split_runs, validate_chrome_trace};
pub use config::{Config, Connectivity, Criterion, RegionStats, TieBreak};
pub use driver::{
    run_driver, EngineBackend, GraphStage, LabelStage, MergeCx, MergeStage, RunSummary, SplitInfo,
    SplitStage, StageStats,
};
pub use engine::{segment, segment_with_telemetry, segment_with_trace, Segmentation};
pub use hierarchy::{MergeEvent, MergeTrace};
pub use journal::{
    flow_pairing, jsonl_writer, parse_journal, parse_journal_strict, replay, validate_journal,
    EmitEvent, Event, EventKind, EventLog, EventVec, FlowPairing, JournalInvalid, JournalStats,
    JsonlSink, JsonlWriter, Streaming,
};
pub use merge::{choice_key, CandKey, MergeSummary, Merger, StepReport};
pub use merge_ref::{merge_reference, ReferenceInput, ReferenceMerge};
pub use pipeline::{HostPipeline, Pipeline};
pub use split::{split, split_into, SplitMetrics, SplitResult, SplitScratch, Square};
pub use split_ref::split_reference;
pub use telemetry::{
    CommRecord, ConfigRecord, ConformanceView, FaultRecord, FlowKind, FlowRecord, Histogram,
    MergeIterationRecord, NullTelemetry, Recorder, SpanGuard, SpanKind, Stage, StageSpan,
    Telemetry, TelemetryReport,
};
pub use tiles::{segment_tiled, TileGrid, TileRect, TiledRunner, TiledStats};
pub use verify::{verify_segmentation, Violation};
