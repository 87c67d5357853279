//! Engine-agnostic telemetry: the measurement substrate behind every
//! paper table and figure.
//!
//! The paper's evaluation is built entirely on per-stage timings and
//! per-iteration merge counts measured on the CM-2/CM-5. This module gives
//! the reproduction a single, trustworthy way to collect the same numbers
//! from every engine:
//!
//! * [`Telemetry`] — the sink trait. Engines emit structured events (stage
//!   spans, per-merge-iteration counters, tie-break stall/fallback counts,
//!   communication volume and round counters) through a `&mut dyn
//!   Telemetry`; they never format or time anything ad hoc.
//! * [`NullTelemetry`] — the zero-cost default. [`Telemetry::enabled`]
//!   returns `false`, so engines skip every call, and even the
//!   `Instant::now()` calls, when nobody is listening.
//! * [`Recorder`] — the live fold: it applies each journal [`EventKind`]
//!   (the trait's defaults build one per call) to a [`TelemetryReport`]
//!   with [`TelemetryReport::apply`], the same fold
//!   [`replay`](crate::journal::replay) runs over a recorded stream. The
//!   report serializes to/from JSON through [`crate::json`] (this
//!   workspace builds offline; the JSON layer is in-tree).
//!
//! The cross-engine conformance test locks the substrate down: for a fixed
//! seed and configuration, every engine must report identical
//! `merges_per_iteration`, split iteration counts, and final region counts
//! in their telemetry records.
//!
//! ## Event model
//!
//! A run is bracketed by [`Telemetry::run_start`] / [`Telemetry::run_end`].
//! In between the engine emits, in order:
//!
//! 1. one [`StageSpan`] per pipeline stage ([`Stage::Split`],
//!    [`Stage::Graph`], [`Stage::Merge`], [`Stage::Label`]), carrying the
//!    host wall-clock seconds and, for the simulated engines, the
//!    simulated seconds on the modelled machine;
//! 2. [`Telemetry::split_done`] with the split iteration count and square
//!    count;
//! 3. one [`MergeIterationRecord`] per merge iteration (merges performed,
//!    whether the iteration was a stall, whether the stall guard forced a
//!    smallest-ID fallback, and — for the host engine — the merger's
//!    remaining active-edge count and whether its slot arena compacted);
//! 4. [`Telemetry::merge_done`] with the final region count;
//! 5. optionally a [`CommRecord`] (message-passing engine) and any number
//!    of named [`Telemetry::counter`]s (e.g. the data-parallel engine's
//!    per-primitive operation counts).
//!
//! ## Hierarchical spans
//!
//! On top of the flat aggregate events, engines emit *hierarchical* span
//! begin/end events ([`Telemetry::span_begin`] / [`Telemetry::span_end`])
//! forming the tree
//!
//! ```text
//! run
//! └─ stage:{split,graph,merge,label}
//!    └─ iter:<n>                  (inside stage:merge)
//!       ├─ choice                 (host engine: candidate selection)
//!       ├─ apply                  (host engine: mutual-merge apply)
//!       ├─ compact                (host engine: relabel/filter/squeeze)
//!       └─ comm_round:<k>         (message-passing engine: one exchange)
//! ```
//!
//! Streaming sinks ([`crate::journal::JsonlSink`]) timestamp these events
//! on receipt, so a hung merge loop is visible mid-flight; the
//! [`SpanGuard`] RAII helper closes spans on scope exit so engines cannot
//! leak one open even on early return or panic unwind.
//!
//! ## Histogram metrics
//!
//! [`Histogram`] is a fixed-bucket log₂ histogram (65 buckets covering the
//! full `u64` range) that engines fill locally and flush once via
//! [`Telemetry::histogram`]: per-iteration wall time, merges per
//! iteration, region-size distribution at convergence, and per-round
//! message sizes. Histograms serialize into the JSON report.

use crate::config::{Config, Connectivity, Criterion, TieBreak};
use crate::journal::EventKind;
use crate::json::{Json, JsonError};

/// A pipeline stage, as the paper's tables slice time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Bottom-up coalescing of maximal homogeneous squares.
    Split,
    /// Region-adjacency-graph construction (the paper folds this into the
    /// merge stage; telemetry keeps it separate and reports both views).
    Graph,
    /// Iterative mutual-choice merging.
    Merge,
    /// Final per-pixel label resolution/compaction.
    Label,
}

impl Stage {
    /// Stable lower-case name used in JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Split => "split",
            Stage::Graph => "graph",
            Stage::Merge => "merge",
            Stage::Label => "label",
        }
    }

    /// Inverse of [`Stage::name`].
    pub fn from_name(name: &str) -> Option<Stage> {
        match name {
            "split" => Some(Stage::Split),
            "graph" => Some(Stage::Graph),
            "merge" => Some(Stage::Merge),
            "label" => Some(Stage::Label),
            _ => None,
        }
    }
}

/// A node in the hierarchical span tree (see the module docs for the
/// hierarchy). Spans are emitted as begin/end event pairs; streaming sinks
/// timestamp them on receipt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A batch of images streamed through one pipeline (outermost span of
    /// the batch runtime; see [`crate::batch`]).
    Batch,
    /// One image of a batch (0-based index), nested in [`SpanKind::Batch`].
    BatchImage(u32),
    /// The whole run (outermost span, or nested in a
    /// [`SpanKind::BatchImage`] under the batch runtime).
    Run,
    /// One pipeline stage.
    Stage(Stage),
    /// One merge iteration (0-based), nested in [`Stage::Merge`].
    MergeIteration(u32),
    /// Candidate-selection phase of a merge iteration (host engine).
    Choice,
    /// Mutual-merge apply phase of a merge iteration (host engine).
    Apply,
    /// End-of-step relabel/filter/squeeze phase of a merge iteration
    /// (host engine).
    Compact,
    /// One communication exchange of a merge iteration (message-passing
    /// engine; the index is the exchange ordinal within the iteration).
    CommRound(u32),
    /// A tiled sharded run: per-tile driver runs plus the stitch pass
    /// (outermost span of the tiled runtime; see [`crate::tiles`]).
    Tiled,
    /// One tile of a tiled run (0-based raster index), nested in
    /// [`SpanKind::Tiled`]; each wraps a full per-tile `run` subtree.
    Tile(u32),
    /// The cross-tile stitch pass (seam RAG + boundary merge + global
    /// relabel), nested in [`SpanKind::Tiled`] after the tile spans.
    Stitch,
}

impl SpanKind {
    /// Stable label used in JSONL journals and trace exports, e.g.
    /// `"run"`, `"stage:merge"`, `"iter:3"`, `"comm_round:1"`.
    pub fn label(self) -> String {
        match self {
            SpanKind::Batch => "batch".to_string(),
            SpanKind::BatchImage(i) => format!("image:{i}"),
            SpanKind::Run => "run".to_string(),
            SpanKind::Stage(s) => format!("stage:{}", s.name()),
            SpanKind::MergeIteration(i) => format!("iter:{i}"),
            SpanKind::Choice => "choice".to_string(),
            SpanKind::Apply => "apply".to_string(),
            SpanKind::Compact => "compact".to_string(),
            SpanKind::CommRound(k) => format!("comm_round:{k}"),
            SpanKind::Tiled => "tiled".to_string(),
            SpanKind::Tile(i) => format!("tile:{i}"),
            SpanKind::Stitch => "stitch".to_string(),
        }
    }

    /// Inverse of [`SpanKind::label`].
    pub fn parse(label: &str) -> Option<SpanKind> {
        match label {
            "batch" => return Some(SpanKind::Batch),
            "run" => return Some(SpanKind::Run),
            "choice" => return Some(SpanKind::Choice),
            "apply" => return Some(SpanKind::Apply),
            "compact" => return Some(SpanKind::Compact),
            "tiled" => return Some(SpanKind::Tiled),
            "stitch" => return Some(SpanKind::Stitch),
            _ => {}
        }
        if let Some(name) = label.strip_prefix("stage:") {
            return Stage::from_name(name).map(SpanKind::Stage);
        }
        if let Some(n) = label.strip_prefix("image:") {
            return n.parse().ok().map(SpanKind::BatchImage);
        }
        if let Some(n) = label.strip_prefix("iter:") {
            return n.parse().ok().map(SpanKind::MergeIteration);
        }
        if let Some(n) = label.strip_prefix("comm_round:") {
            return n.parse().ok().map(SpanKind::CommRound);
        }
        if let Some(n) = label.strip_prefix("tile:") {
            return n.parse().ok().map(SpanKind::Tile);
        }
        None
    }

    /// Whether `self` may open directly inside `parent` (`None` = top
    /// level). This is the strict-nesting schema journal validation
    /// enforces.
    pub fn may_nest_in(self, parent: Option<SpanKind>) -> bool {
        match self {
            SpanKind::Batch => parent.is_none(),
            SpanKind::BatchImage(_) => parent == Some(SpanKind::Batch),
            SpanKind::Run => {
                parent.is_none()
                    || matches!(
                        parent,
                        Some(SpanKind::BatchImage(_)) | Some(SpanKind::Tile(_))
                    )
            }
            SpanKind::Stage(_) => parent == Some(SpanKind::Run),
            SpanKind::MergeIteration(_) => parent == Some(SpanKind::Stage(Stage::Merge)),
            SpanKind::Choice | SpanKind::Apply | SpanKind::Compact | SpanKind::CommRound(_) => {
                matches!(parent, Some(SpanKind::MergeIteration(_)))
            }
            SpanKind::Tiled => parent.is_none() || matches!(parent, Some(SpanKind::BatchImage(_))),
            SpanKind::Tile(_) | SpanKind::Stitch => parent == Some(SpanKind::Tiled),
        }
    }
}

/// RAII helper bracketing a hierarchical span: emits
/// [`Telemetry::span_begin`] on construction and the matching
/// [`Telemetry::span_end`] on drop, so a span cannot be leaked open by an
/// early return, `?`, or panic unwind. When the sink reports
/// `enabled() == false` neither event is emitted.
///
/// The guard exclusively borrows the sink; use [`SpanGuard::tel`] to emit
/// events *inside* the span (including opening nested guards).
pub struct SpanGuard<'a> {
    tel: &'a mut dyn Telemetry,
    kind: SpanKind,
    enabled: bool,
}

impl<'a> SpanGuard<'a> {
    /// Opens the span (no-op on a disabled sink).
    pub fn enter(tel: &'a mut dyn Telemetry, kind: SpanKind) -> Self {
        let enabled = tel.enabled();
        if enabled {
            tel.span_begin(kind);
        }
        Self { tel, kind, enabled }
    }

    /// The underlying sink, for emitting events inside the span.
    pub fn tel(&mut self) -> &mut dyn Telemetry {
        self.tel
    }

    /// Which span this guard brackets.
    pub fn kind(&self) -> SpanKind {
        self.kind
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.enabled {
            self.tel.span_end(self.kind);
        }
    }
}

/// Number of buckets in a [`Histogram`]: bucket 0 holds zeros, bucket
/// `i ≥ 1` holds values in `[2^(i−1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket log₂ histogram over `u64` values.
///
/// Recording is allocation-free and O(1) (a `leading_zeros` and two adds),
/// cheap enough to stay always-on in engine hot loops once telemetry is
/// enabled. Merging two histograms is exact (bucket-wise addition), which
/// lets the message-passing driver fold per-node histograms into one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index of a value: 0 for 0, else `64 − leading_zeros(v)`.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive lower bound of bucket `i`.
    pub fn bucket_lo(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self` (exact).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded values (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Non-empty buckets as `(bucket_index, count)` pairs.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Upper bound of the bucket containing the `q`-quantile (a cheap
    /// order-of-magnitude percentile; `q` in `[0, 1]`).
    pub fn quantile_bucket_hi(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(if i >= 64 { u64::MAX } else { (1u64 << i) - 1 });
            }
        }
        Some(u64::MAX)
    }

    /// Serializes to a JSON object (sparse bucket list).
    ///
    /// The in-tree JSON layer is `f64`-backed, so `sum`/`min`/`max` are
    /// clamped to 2⁵³ (the largest exactly-representable integer); bucket
    /// indices and counts are always exact.
    pub fn to_json(&self) -> Json {
        // Largest u64 that survives an f64 round trip.
        fn j64(v: u64) -> Json {
            v.min(1u64 << 53).into()
        }
        let mut pairs: Vec<(&str, Json)> =
            vec![("count", self.count.into()), ("sum", j64(self.sum))];
        if self.count > 0 {
            pairs.push(("min", j64(self.min)));
            pairs.push(("max", j64(self.max)));
        }
        pairs.push((
            "buckets",
            Json::Arr(
                self.nonzero_buckets()
                    .map(|(i, c)| Json::Arr(vec![(i as u64).into(), c.into()]))
                    .collect(),
            ),
        ));
        Json::obj(pairs)
    }

    /// Parses a histogram from [`Histogram::to_json`] output.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        let bad = |what: &str| JsonError {
            message: format!("histogram: bad or missing {what}"),
            offset: 0,
        };
        let mut h = Histogram::new();
        h.count = v
            .get("count")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("count"))?;
        h.sum = v
            .get("sum")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("sum"))?;
        if h.count > 0 {
            h.min = v
                .get("min")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("min"))?;
            h.max = v
                .get("max")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("max"))?;
        }
        for pair in v
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("buckets"))?
        {
            let items = pair.as_arr().ok_or_else(|| bad("bucket pair"))?;
            let (i, c) = match items {
                [i, c] => (
                    i.as_u64().ok_or_else(|| bad("bucket index"))?,
                    c.as_u64().ok_or_else(|| bad("bucket count"))?,
                ),
                _ => return Err(bad("bucket pair arity")),
            };
            if i as usize >= HISTOGRAM_BUCKETS {
                return Err(bad("bucket index range"));
            }
            h.counts[i as usize] = c;
        }
        Ok(h)
    }
}

/// One timed stage of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSpan {
    /// Which stage.
    pub stage: Stage,
    /// Host wall-clock seconds spent in the stage.
    pub wall_seconds: f64,
    /// Simulated seconds on the modelled machine (`None` for the host
    /// engines, which run on real silicon).
    pub sim_seconds: Option<f64>,
}

impl StageSpan {
    /// JSON members, shared by the report's `stages[]` and the journal's
    /// `stage` line.
    pub(crate) fn json_fields(&self) -> Vec<(&'static str, Json)> {
        let mut o: Vec<(&str, Json)> = vec![
            ("stage", self.stage.name().into()),
            ("wall_seconds", self.wall_seconds.into()),
        ];
        if let Some(sim) = self.sim_seconds {
            o.push(("sim_seconds", sim.into()));
        }
        o
    }

    /// Inverse of [`StageSpan::json_fields`].
    pub(crate) fn from_json_fields(v: &Json) -> Result<Self, JsonError> {
        let name = v.field("stage", Json::as_str)?;
        Ok(StageSpan {
            stage: Stage::from_name(name).ok_or_else(|| JsonError {
                message: format!("unknown stage {name:?}"),
                offset: 0,
            })?,
            wall_seconds: v.field("wall_seconds", Json::as_f64)?,
            sim_seconds: v.get("sim_seconds").and_then(Json::as_f64),
        })
    }
}

/// One merge iteration's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeIterationRecord {
    /// Iteration index, starting at 0.
    pub iteration: u32,
    /// Region pairs merged this iteration.
    pub merges: u32,
    /// `true` when the stall guard forced a smallest-ID iteration
    /// (only possible under [`TieBreak::Random`]).
    pub used_fallback: bool,
    /// Active edges remaining after the iteration. The host engine reports
    /// it from its merger; the simulated engines report `None`, so
    /// this field is informational and excluded from cross-engine
    /// conformance comparisons.
    pub active_edges: Option<u64>,
    /// Whether the host merger compacted its slot arena this iteration
    /// (`None` on the simulated engines).
    pub compacted: Option<bool>,
}

/// Aggregate communication counters for a message-passing run.
#[derive(Debug, Clone, PartialEq)]
pub struct CommRecord {
    /// Communication scheme label ("LP" / "Async").
    pub scheme: String,
    /// Node count.
    pub nodes: usize,
    /// Total communication rounds executed (LP executes `Q−1` per
    /// exchange whether or not a pair has traffic; Async counts one round
    /// per exchange).
    pub rounds: u64,
    /// Total point-to-point messages sent across all nodes.
    pub messages: u64,
    /// Total point-to-point payload bytes sent across all nodes.
    pub bytes: u64,
}

impl CommRecord {
    /// JSON members, shared by the report's `comm` object and the
    /// journal's `comm` line.
    pub(crate) fn json_fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("scheme", self.scheme.as_str().into()),
            ("nodes", self.nodes.into()),
            ("rounds", self.rounds.into()),
            ("messages", self.messages.into()),
            ("bytes", self.bytes.into()),
        ]
    }

    /// Inverse of [`CommRecord::json_fields`].
    pub(crate) fn from_json_fields(v: &Json) -> Result<Self, JsonError> {
        Ok(CommRecord {
            scheme: v.field("scheme", Json::as_str)?.to_string(),
            nodes: v.field("nodes", Json::as_u64)? as usize,
            rounds: v.field("rounds", Json::as_u64)?,
            messages: v.field("messages", Json::as_u64)?,
            bytes: v.field("bytes", Json::as_u64)?,
        })
    }
}

/// One injected-fault (or recovery) event observed during a chaos run.
///
/// The message-passing engine forwards these from the CMMD fault-injection
/// layer: every drop, duplication, corruption, delay, stall, retry, dead
/// link, and — when the run could not be salvaged — the final `"degraded"`
/// marker recording the fallback to the host pipeline. Timestamps are
/// *virtual* nanoseconds on the sending node's clock, so a fault stream is
/// deterministic for a fixed seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// Fault kind label: `"drop"`, `"dup"`, `"corrupt"`, `"delay"`,
    /// `"stall"`, `"retry"`, `"link_dead"`, `"peer_down"`, `"degraded"`.
    pub kind: String,
    /// Sending (or affected) node rank.
    pub src: u32,
    /// Destination rank (equal to `src` for node-local faults).
    pub dst: u32,
    /// Per-link message sequence number (0 for node-local faults).
    pub seq: u64,
    /// Virtual time of the fault, nanoseconds.
    pub ts_ns: f64,
}

impl FaultRecord {
    /// JSON members, shared by the report's `faults[]` and the journal's
    /// `fault` line.
    pub(crate) fn json_fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("kind", self.kind.as_str().into()),
            ("src", u64::from(self.src).into()),
            ("dst", u64::from(self.dst).into()),
            ("seq", self.seq.into()),
            ("ts_ns", self.ts_ns.into()),
        ]
    }

    /// Inverse of [`FaultRecord::json_fields`].
    pub(crate) fn from_json_fields(v: &Json) -> Result<Self, JsonError> {
        Ok(FaultRecord {
            kind: v.field("kind", Json::as_str)?.to_string(),
            src: v.field("src", Json::as_u64)? as u32,
            dst: v.field("dst", Json::as_u64)? as u32,
            seq: v.field("seq", Json::as_u64)?,
            ts_ns: v.field("ts_ns", Json::as_f64)?,
        })
    }
}

/// Which side of a causal flow edge a [`FlowRecord`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// A logical point-to-point send, recorded by the source rank.
    Send,
    /// The matching receive, recorded by the destination rank.
    Recv,
    /// Participation in a control-network collective; all ranks record one
    /// with the same per-node ordinal, so participants pair across ranks.
    Collective,
}

impl FlowKind {
    /// The journal tag for this kind: `"send"`, `"recv"`, or `"coll"`.
    pub fn label(self) -> &'static str {
        match self {
            FlowKind::Send => "send",
            FlowKind::Recv => "recv",
            FlowKind::Collective => "coll",
        }
    }

    /// Parses a [`FlowKind::label`] string.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "send" => Some(FlowKind::Send),
            "recv" => Some(FlowKind::Recv),
            "coll" => Some(FlowKind::Collective),
            _ => None,
        }
    }
}

/// One causal flow event from a traced message-passing run.
///
/// Sends and receives are correlated by `(stream, src, dst, seq)` — the
/// sequence number counts *logical* messages per link, so the pairing is
/// stable even when the chaos transport retransmits frames underneath.
/// Collective participations pair across ranks by their per-node ordinal.
/// `t_ns` is the virtual clock at operation completion; `wait_ns` is the
/// idle portion (blocked on the sender's arrival timestamp, waiting at a
/// collective rendezvous, or chaos retry timeouts on a send), which is what
/// the critical-path analysis in [`crate::analyze`] attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRecord {
    /// Send, receive, or collective participation.
    pub kind: FlowKind,
    /// Program-point tag (e.g. `"boundary"`, `"merge:stats"`).
    pub stream: String,
    /// Source rank (for collectives: the recording rank).
    pub src: u32,
    /// Destination rank (for collectives: the recording rank).
    pub dst: u32,
    /// Correlation sequence number (per-link message ordinal or per-node
    /// collective ordinal).
    pub seq: u64,
    /// Logical payload bytes.
    pub bytes: u64,
    /// Virtual time at operation completion, nanoseconds.
    pub t_ns: f64,
    /// Idle portion of the operation, nanoseconds.
    pub wait_ns: f64,
}

impl FlowRecord {
    /// The rank that recorded this event (source for sends and
    /// collectives, destination for receives).
    pub fn rank(&self) -> u32 {
        match self.kind {
            FlowKind::Send | FlowKind::Collective => self.src,
            FlowKind::Recv => self.dst,
        }
    }
}

/// The telemetry sink every engine reports into.
///
/// Each typed method turns its call into the matching journal
/// [`EventKind`] and hands it to [`Telemetry::event`]; this default table
/// is the only place that mapping lives. Sinks that want every event
/// ([`Recorder`], [`crate::journal::Streaming`]) implement `event` alone;
/// sinks that want a few calls cheaply override just those typed methods.
/// The default `event` discards, so [`NullTelemetry`] implements nothing
/// (engines check [`Telemetry::enabled`] before building any event).
pub trait Telemetry {
    /// `false` when events will be discarded — engines use this to skip
    /// timing syscalls entirely on the null sink.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event. Every typed method below ends here unless the
    /// sink overrides it.
    fn event(&mut self, _kind: EventKind) {}

    /// A run begins. `engine` is a stable label such as `"seq"`,
    /// `"datapar:CM-2 (8K procs)"`, or `"msgpass:Async:32"`.
    fn run_start(&mut self, engine: &str, width: usize, height: usize, config: &Config) {
        self.event(EventKind::RunStart {
            engine: engine.to_string(),
            width,
            height,
            config: ConfigRecord::of(config),
        });
    }

    /// A hierarchical span opens (see [`SpanKind`]). Streaming sinks
    /// timestamp the event on receipt; prefer [`SpanGuard`] over calling
    /// this directly so the matching [`Telemetry::span_end`] cannot be
    /// forgotten.
    fn span_begin(&mut self, span: SpanKind) {
        self.event(EventKind::SpanBegin { span });
    }

    /// The innermost open span closes. `span` must match the most recent
    /// unclosed [`Telemetry::span_begin`] (spans are strictly nested).
    fn span_end(&mut self, span: SpanKind) {
        self.event(EventKind::SpanEnd { span });
    }

    /// A pipeline stage completed.
    fn stage(&mut self, span: StageSpan) {
        self.event(EventKind::Stage { span });
    }

    /// The split stage's outcome.
    fn split_done(&mut self, iterations: u32, num_squares: usize) {
        self.event(EventKind::SplitDone {
            iterations,
            num_squares,
        });
    }

    /// One merge iteration completed.
    fn merge_iteration(&mut self, rec: MergeIterationRecord) {
        self.event(EventKind::MergeIteration { rec });
    }

    /// The merge stage's outcome.
    fn merge_done(&mut self, num_regions: usize) {
        self.event(EventKind::MergeDone { num_regions });
    }

    /// Aggregate communication counters (message-passing engine only).
    fn comm(&mut self, rec: CommRecord) {
        self.event(EventKind::Comm { rec });
    }

    /// One injected-fault event from a chaos run (message-passing engine
    /// only; never emitted on fault-free runs).
    fn fault(&mut self, rec: FaultRecord) {
        self.event(EventKind::Fault { rec });
    }

    /// One causal flow event (traced message-passing runs only): a
    /// point-to-point send/receive edge or a collective participation,
    /// correlated by `(stream, src, dst, seq)`.
    fn flow(&mut self, rec: FlowRecord) {
        self.event(EventKind::Flow { rec });
    }

    /// A named scalar counter (e.g. `"merge.send.ops"` from the
    /// data-parallel cost ledger).
    fn counter(&mut self, name: &str, value: f64) {
        self.event(EventKind::Counter {
            name: name.to_string(),
            value,
        });
    }

    /// A named histogram, emitted once per run (e.g.
    /// `"merge.iter_wall_us"`, `"region_size_px"`).
    fn histogram(&mut self, name: &str, hist: &Histogram) {
        self.event(EventKind::Histogram {
            name: name.to_string(),
            hist: Box::new(hist.clone()),
        });
    }

    /// The run is complete. `dropped` is 0 here; a sink that can lose
    /// events fills in its own count.
    fn run_end(&mut self) {
        self.event(EventKind::RunEnd { dropped: 0 });
    }
}

/// The zero-cost default sink: discards everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTelemetry;

impl Telemetry for NullTelemetry {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }
}

/// Snapshot of the [`Config`] carried in a report (everything that affects
/// the partition or the iteration counts).
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigRecord {
    /// Homogeneity threshold `T`.
    pub threshold: u32,
    /// Tie-break policy name: `"smallest"`, `"largest"`, or `"random"`.
    pub tie_break: String,
    /// RNG seed when the policy is `"random"`.
    pub seed: Option<u64>,
    /// 4 or 8.
    pub connectivity: u8,
    /// `"range"` or `"mean"`.
    pub criterion: String,
    /// The split-square cap, if any.
    pub max_square_log2: Option<u8>,
    /// Stall tolerance before the smallest-ID fallback.
    pub max_stall: u32,
}

impl ConfigRecord {
    /// Captures the telemetry-relevant fields of a [`Config`].
    pub fn of(config: &Config) -> Self {
        let (tie_break, seed) = match config.tie_break {
            TieBreak::SmallestId => ("smallest".to_string(), None),
            TieBreak::LargestId => ("largest".to_string(), None),
            TieBreak::Random { seed } => ("random".to_string(), Some(seed)),
        };
        Self {
            threshold: config.threshold,
            tie_break,
            seed,
            connectivity: match config.connectivity {
                Connectivity::Four => 4,
                Connectivity::Eight => 8,
            },
            criterion: match config.criterion {
                Criterion::PixelRange => "range".to_string(),
                Criterion::MeanDifference => "mean".to_string(),
            },
            max_square_log2: config.max_square_log2,
            max_stall: config.max_stall,
        }
    }

    /// Serializes to a JSON object (shared by the report and the journal).
    pub fn to_json(&self) -> Json {
        let mut c: Vec<(&str, Json)> = vec![
            ("threshold", self.threshold.into()),
            ("tie_break", self.tie_break.as_str().into()),
        ];
        if let Some(seed) = self.seed {
            c.push(("seed", seed.into()));
        }
        c.push(("connectivity", u64::from(self.connectivity).into()));
        c.push(("criterion", self.criterion.as_str().into()));
        if let Some(cap) = self.max_square_log2 {
            c.push(("max_square_log2", u64::from(cap).into()));
        }
        c.push(("max_stall", self.max_stall.into()));
        Json::obj(c)
    }

    /// Parses a [`ConfigRecord`] from [`ConfigRecord::to_json`] output.
    pub fn from_json(c: &Json) -> Result<Self, JsonError> {
        Ok(ConfigRecord {
            threshold: c.field("threshold", Json::as_u64)? as u32,
            tie_break: c.field("tie_break", Json::as_str)?.to_string(),
            seed: c.get("seed").and_then(Json::as_u64),
            connectivity: c.field("connectivity", Json::as_u64)? as u8,
            criterion: c.field("criterion", Json::as_str)?.to_string(),
            max_square_log2: c
                .get("max_square_log2")
                .and_then(Json::as_u64)
                .map(|x| x as u8),
            max_stall: c.field("max_stall", Json::as_u64)? as u32,
        })
    }
}

/// A completed run's telemetry, ready for serialization or comparison.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryReport {
    /// Engine label (see [`Telemetry::run_start`]).
    pub engine: String,
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
    /// Configuration snapshot.
    pub config: Option<ConfigRecord>,
    /// Stage spans in emission order.
    pub stages: Vec<StageSpan>,
    /// Productive split iterations.
    pub split_iterations: u32,
    /// Squares at the end of the split stage.
    pub num_squares: usize,
    /// Per-iteration merge records.
    pub merge_iterations: Vec<MergeIterationRecord>,
    /// Zero-merge (stalled) iterations — only [`TieBreak::Random`] stalls.
    pub stall_iterations: u32,
    /// Iterations where the stall guard forced smallest-ID tie-breaking.
    pub fallback_iterations: u32,
    /// Regions at the end of the merge stage.
    pub num_regions: usize,
    /// Communication counters, when the engine communicates.
    pub comm: Option<CommRecord>,
    /// Named scalar counters in emission order.
    pub counters: Vec<(String, f64)>,
    /// Named histograms in emission order (see [`Histogram`]).
    pub histograms: Vec<(String, Histogram)>,
    /// Injected-fault events in emission order (chaos runs only; empty on
    /// fault-free runs, keeping their serialized reports byte-stable).
    pub faults: Vec<FaultRecord>,
    /// `true` when the run could not be completed on the faulted fabric
    /// and fell back to the host pipeline (unsurvivable chaos schedule).
    pub degraded: bool,
}

/// The cross-engine-comparable subset of a [`TelemetryReport`]: the
/// observable segmentation history, normalised by dropping everything that
/// legitimately varies between engines — timings, comm counters, engine
/// labels, named counters/histograms, and the host-engine backend
/// internals ([`MergeIterationRecord::active_edges`] /
/// [`MergeIterationRecord::compacted`], which the simulated engines derive
/// as `None`).
///
/// Two engines conform iff their `conformance_view()`s are equal; the
/// cross-engine tests assert exactly that instead of hand-rolling the
/// exclusions.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceView {
    /// Configuration snapshot.
    pub config: Option<ConfigRecord>,
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
    /// Productive split iterations.
    pub split_iterations: u32,
    /// Squares at the end of the split stage.
    pub num_squares: usize,
    /// Per-iteration merge records with backend-internal fields
    /// (`active_edges`, `compacted`) normalised to `None`.
    pub merge_iterations: Vec<MergeIterationRecord>,
    /// Zero-merge iterations.
    pub stall_iterations: u32,
    /// Stall-guard fallback iterations.
    pub fallback_iterations: u32,
    /// Regions at the end of the merge stage.
    pub num_regions: usize,
}

impl TelemetryReport {
    /// The `merges_per_iteration` vector the paper's analysis uses.
    pub fn merges_per_iteration(&self) -> Vec<u32> {
        self.merge_iterations.iter().map(|r| r.merges).collect()
    }

    /// Total merge iterations.
    pub fn total_merge_iterations(&self) -> u32 {
        self.merge_iterations.len() as u32
    }

    /// Wall or simulated seconds of a stage (simulated preferred when
    /// present — that is what the paper's tables report).
    pub fn stage_seconds(&self, stage: Stage) -> Option<f64> {
        self.stages
            .iter()
            .find(|s| s.stage == stage)
            .map(|s| s.sim_seconds.unwrap_or(s.wall_seconds))
    }

    /// Merge-stage seconds as the paper reports them: graph setup folded
    /// into the merge stage.
    pub fn merge_seconds_as_reported(&self) -> Option<f64> {
        match (
            self.stage_seconds(Stage::Graph),
            self.stage_seconds(Stage::Merge),
        ) {
            (Some(g), Some(m)) => Some(g + m),
            (None, Some(m)) => Some(m),
            _ => None,
        }
    }

    /// A named counter's value.
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// A named histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The engine-invariant view used by cross-engine conformance tests
    /// (see [`ConformanceView`] for what is normalised away).
    pub fn conformance_view(&self) -> ConformanceView {
        ConformanceView {
            config: self.config.clone(),
            width: self.width,
            height: self.height,
            split_iterations: self.split_iterations,
            num_squares: self.num_squares,
            merge_iterations: self
                .merge_iterations
                .iter()
                .map(|r| MergeIterationRecord {
                    active_edges: None,
                    compacted: None,
                    ..*r
                })
                .collect(),
            stall_iterations: self.stall_iterations,
            fallback_iterations: self.fallback_iterations,
            num_regions: self.num_regions,
        }
    }

    /// A copy with every wall-clock time zeroed — the canonical form used
    /// by golden-file snapshots (wall times vary run to run; simulated
    /// times and all counters are deterministic). Wall-clock histograms
    /// (names ending in `_wall_us`) are dropped for the same reason.
    pub fn without_wall_times(&self) -> Self {
        let mut r = self.clone();
        for s in &mut r.stages {
            s.wall_seconds = 0.0;
        }
        r.histograms.retain(|(name, _)| !name.ends_with("_wall_us"));
        r
    }

    /// Folds one event into the report. This is the only code that turns
    /// events into a report: [`Recorder`] applies each call live and
    /// [`replay`](crate::journal::replay) applies a recorded stream, so
    /// the two agree by construction. A `run_start` begins a fresh report;
    /// spans (checked by [`crate::journal::validate_journal`]), flows
    /// (analysis-grade detail, see [`crate::analyze`]) and `run_end` leave
    /// it unchanged.
    pub fn apply(&mut self, kind: EventKind) {
        match kind {
            EventKind::RunStart {
                engine,
                width,
                height,
                config,
            } => {
                *self = TelemetryReport {
                    engine,
                    width,
                    height,
                    config: Some(config),
                    ..TelemetryReport::default()
                };
            }
            EventKind::Stage { span } => self.stages.push(span),
            EventKind::SplitDone {
                iterations,
                num_squares,
            } => {
                self.split_iterations = iterations;
                self.num_squares = num_squares;
            }
            EventKind::MergeIteration { rec } => {
                self.stall_iterations += u32::from(rec.merges == 0);
                self.fallback_iterations += u32::from(rec.used_fallback);
                self.merge_iterations.push(rec);
            }
            EventKind::MergeDone { num_regions } => self.num_regions = num_regions,
            EventKind::Comm { rec } => self.comm = Some(rec),
            EventKind::Fault { rec } => {
                self.degraded |= rec.kind == "degraded";
                self.faults.push(rec);
            }
            // Counters are a *current value* track: re-emitting a name (the
            // message-passing engine updates cumulative `comm.*` counters per
            // iteration) overwrites in place, so the report holds the final
            // value once per name and its JSON object keys stay unique.
            EventKind::Counter { name, value } => {
                match self.counters.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, v)) => *v = value,
                    None => self.counters.push((name, value)),
                }
            }
            EventKind::Histogram { name, hist } => self.histograms.push((name, *hist)),
            EventKind::SpanBegin { .. }
            | EventKind::SpanEnd { .. }
            | EventKind::Flow { .. }
            | EventKind::RunEnd { .. } => {}
        }
    }

    /// Serializes the report to a JSON value.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = vec![
            ("engine", self.engine.as_str().into()),
            ("width", self.width.into()),
            ("height", self.height.into()),
        ];
        if let Some(cfg) = &self.config {
            pairs.push(("config", cfg.to_json()));
        }
        pairs.push((
            "stages",
            Json::Arr(
                self.stages
                    .iter()
                    .map(|s| Json::obj(s.json_fields()))
                    .collect(),
            ),
        ));
        pairs.push((
            "split",
            Json::obj(vec![
                ("iterations", self.split_iterations.into()),
                ("num_squares", self.num_squares.into()),
            ]),
        ));
        let mut merge_fields: Vec<(&str, Json)> = vec![
            ("iterations", (self.merge_iterations.len() as u64).into()),
            (
                "merges_per_iteration",
                Json::Arr(
                    self.merge_iterations
                        .iter()
                        .map(|r| Json::from(r.merges))
                        .collect(),
                ),
            ),
            (
                "fallback_iterations_at",
                Json::Arr(
                    self.merge_iterations
                        .iter()
                        .filter(|r| r.used_fallback)
                        .map(|r| Json::from(r.iteration))
                        .collect(),
                ),
            ),
        ];
        // Backend counters are emitted only when the engine reported them
        // (the host engine does, the simulated engines don't) — absent
        // fields parse back to `None`, keeping pre-existing golden
        // snapshots byte-stable.
        let has_backend_counters = !self.merge_iterations.is_empty()
            && self
                .merge_iterations
                .iter()
                .all(|r| r.active_edges.is_some());
        if has_backend_counters {
            merge_fields.push((
                "active_edges_per_iteration",
                Json::Arr(
                    self.merge_iterations
                        .iter()
                        .map(|r| Json::from(r.active_edges.unwrap_or(0)))
                        .collect(),
                ),
            ));
            merge_fields.push((
                "compacted_at",
                Json::Arr(
                    self.merge_iterations
                        .iter()
                        .filter(|r| r.compacted == Some(true))
                        .map(|r| Json::from(r.iteration))
                        .collect(),
                ),
            ));
        }
        merge_fields.push(("stall_iterations", self.stall_iterations.into()));
        merge_fields.push(("fallback_iterations", self.fallback_iterations.into()));
        merge_fields.push(("num_regions", self.num_regions.into()));
        pairs.push(("merge", Json::obj(merge_fields)));
        if let Some(c) = &self.comm {
            pairs.push(("comm", Json::obj(c.json_fields())));
        }
        pairs.push((
            "counters",
            Json::Obj(
                self.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ));
        // Histograms are emitted only when present, keeping reports from
        // engines that record none byte-identical to the pre-histogram
        // schema.
        if !self.histograms.is_empty() {
            pairs.push((
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json()))
                        .collect(),
                ),
            ));
        }
        // Fault fields exist only on chaos runs: fault-free reports stay
        // byte-identical to the pre-chaos schema.
        if !self.faults.is_empty() {
            pairs.push((
                "faults",
                Json::Arr(
                    self.faults
                        .iter()
                        .map(|f| Json::obj(f.json_fields()))
                        .collect(),
                ),
            ));
        }
        if self.degraded {
            pairs.push(("degraded", self.degraded.into()));
        }
        Json::obj(pairs)
    }

    /// Pretty JSON text (two-space indent, trailing newline).
    pub fn to_json_pretty(&self) -> String {
        self.to_json().to_pretty()
    }
}

/// An in-memory [`Telemetry`] sink that builds a [`TelemetryReport`]: each
/// call becomes its journal [`EventKind`] and goes through
/// [`TelemetryReport::apply`], exactly as a replayed journal would.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    report: TelemetryReport,
    finished: bool,
}

impl Recorder {
    /// A fresh recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated report (valid once the engine has called
    /// [`Telemetry::run_end`]; callable at any time for inspection).
    pub fn report(&self) -> &TelemetryReport {
        &self.report
    }

    /// Consumes the recorder, returning the report.
    pub fn into_report(self) -> TelemetryReport {
        self.report
    }

    /// `true` once [`Telemetry::run_end`] has been observed.
    pub fn is_finished(&self) -> bool {
        self.finished
    }
}

impl Telemetry for Recorder {
    fn event(&mut self, kind: EventKind) {
        match kind {
            EventKind::RunStart { .. } => self.finished = false,
            EventKind::RunEnd { .. } => self.finished = true,
            _ => {}
        }
        self.report.apply(kind);
    }
}

/// Reconstructs the per-iteration records of a merge run from its
/// `merges_per_iteration` vector by replaying the engine's stall-guard
/// state machine (see [`crate::merge::Merger::step`]): under
/// [`TieBreak::Random`], after `max_stall` consecutive zero-merge
/// iterations the next iteration falls back to smallest-ID.
///
/// The simulated engines record only the per-iteration merge counts on the
/// "device" side; this derivation recovers the stall/fallback annotations
/// identically to what the host engine emits live — the conformance test
/// asserts so.
pub fn derive_merge_iterations(
    merges_per_iteration: &[u32],
    tie: TieBreak,
    max_stall: u32,
) -> Vec<MergeIterationRecord> {
    let random = matches!(tie, TieBreak::Random { .. });
    let mut stalls = 0u32;
    merges_per_iteration
        .iter()
        .enumerate()
        .map(|(i, &merges)| {
            let used_fallback = random && stalls >= max_stall;
            if merges == 0 {
                stalls += 1;
            } else {
                stalls = 0;
            }
            MergeIterationRecord {
                iteration: i as u32,
                merges,
                used_fallback,
                // The simulated engines replay device-side merge counts
                // only; backend edge counters are host-engine data.
                active_edges: None,
                compacted: None,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> TelemetryReport {
        let mut rec = Recorder::new();
        let cfg = Config::with_threshold(10)
            .tie_break(TieBreak::Random { seed: 7 })
            .max_square_log2(Some(4));
        rec.run_start("datapar:CM-2 (8K procs)", 64, 64, &cfg);
        rec.stage(StageSpan {
            stage: Stage::Split,
            wall_seconds: 0.001,
            sim_seconds: Some(0.2),
        });
        rec.stage(StageSpan {
            stage: Stage::Graph,
            wall_seconds: 0.0005,
            sim_seconds: Some(0.05),
        });
        rec.stage(StageSpan {
            stage: Stage::Merge,
            wall_seconds: 0.002,
            sim_seconds: Some(9.5),
        });
        rec.split_done(4, 436);
        for (i, &m) in [5u32, 3, 0, 2].iter().enumerate() {
            rec.merge_iteration(MergeIterationRecord {
                iteration: i as u32,
                merges: m,
                used_fallback: i == 3,
                active_edges: None,
                compacted: None,
            });
        }
        rec.merge_done(2);
        rec.comm(CommRecord {
            scheme: "LP".to_string(),
            nodes: 32,
            rounds: 744,
            messages: 1234,
            bytes: 98765,
        });
        rec.counter("merge.send.ops", 42.0);
        rec.run_end();
        rec.into_report()
    }

    #[test]
    fn recorder_accumulates() {
        let r = sample_report();
        assert_eq!(r.engine, "datapar:CM-2 (8K procs)");
        assert_eq!(r.merges_per_iteration(), vec![5, 3, 0, 2]);
        assert_eq!(r.total_merge_iterations(), 4);
        assert_eq!(r.stall_iterations, 1);
        assert_eq!(r.fallback_iterations, 1);
        assert_eq!(r.num_regions, 2);
        assert_eq!(r.num_squares, 436);
        assert_eq!(r.stage_seconds(Stage::Split), Some(0.2));
        assert_eq!(r.merge_seconds_as_reported(), Some(9.55));
        assert_eq!(r.counter("merge.send.ops"), Some(42.0));
        assert_eq!(r.counter("missing"), None);
        assert_eq!(r.config.as_ref().unwrap().tie_break, "random");
        assert_eq!(r.config.as_ref().unwrap().seed, Some(7));
    }

    #[test]
    fn backend_counters_round_trip() {
        // Host-engine style report: every iteration carries backend
        // counters, and the rendered JSON must carry them exactly.
        let mut rec = Recorder::new();
        let cfg = Config::with_threshold(5);
        rec.run_start("seq", 8, 8, &cfg);
        rec.stage(StageSpan {
            stage: Stage::Merge,
            wall_seconds: 0.1,
            sim_seconds: None,
        });
        for (i, (m, act, comp)) in [(4u32, 30u64, false), (2, 12, true), (1, 0, false)]
            .into_iter()
            .enumerate()
        {
            rec.merge_iteration(MergeIterationRecord {
                iteration: i as u32,
                merges: m,
                used_fallback: false,
                active_edges: Some(act),
                compacted: Some(comp),
            });
        }
        rec.merge_done(3);
        rec.run_end();
        let r = rec.into_report();
        let json = Json::parse(&r.to_json_pretty()).unwrap();
        assert_eq!(json, r.to_json(), "pretty text parses to what was rendered");
        let merge = json.get("merge").unwrap();
        let field = |name| merge.get(name).cloned();
        assert_eq!(field("merges_per_iteration"), Some(vec![4u32, 2, 1].into()));
        assert_eq!(
            field("active_edges_per_iteration"),
            Some(vec![30u64, 12, 0].into())
        );
        assert_eq!(field("compacted_at"), Some(vec![1u32].into()));
        // A report without the counters omits the fields entirely (golden
        // snapshots for the simulated engines stay byte-stable).
        let simulated = sample_report().to_json();
        let merge = simulated.get("merge").unwrap();
        assert!(merge.get("active_edges_per_iteration").is_none());
        assert!(merge.get("compacted_at").is_none());
    }

    #[test]
    fn without_wall_times_is_canonical() {
        let r = sample_report().without_wall_times();
        assert!(r.stages.iter().all(|s| s.wall_seconds == 0.0));
        // Simulated seconds survive.
        assert_eq!(r.stage_seconds(Stage::Merge), Some(9.5));
        // The rendered stages carry zero wall time and the exact simulated
        // seconds, and the text parses back to the rendered value.
        let json = Json::parse(&r.to_json_pretty()).unwrap();
        assert_eq!(json, r.to_json());
        let stages = json.get("stages").and_then(Json::as_arr).unwrap();
        let seconds = |key| -> Vec<Option<f64>> {
            stages
                .iter()
                .map(|s| s.get(key).and_then(Json::as_f64))
                .collect()
        };
        assert_eq!(seconds("wall_seconds"), vec![Some(0.0); 3]);
        assert_eq!(
            seconds("sim_seconds"),
            vec![Some(0.2), Some(0.05), Some(9.5)]
        );
    }

    #[test]
    fn null_telemetry_is_disabled() {
        let t = NullTelemetry;
        assert!(!t.enabled());
        // And a Recorder is enabled.
        assert!(Recorder::new().enabled());
    }

    #[test]
    fn derive_replays_stall_guard() {
        // max_stall = 2: iterations 0,1 stall; 2 stalls reached, so
        // iteration 2 uses the fallback; then a fresh stall run begins.
        let recs = derive_merge_iterations(&[0, 0, 3, 0, 1], TieBreak::Random { seed: 1 }, 2);
        let fallbacks: Vec<bool> = recs.iter().map(|r| r.used_fallback).collect();
        assert_eq!(fallbacks, vec![false, false, true, false, false]);
        // Non-random policies never fall back.
        let recs = derive_merge_iterations(&[0, 0, 3], TieBreak::SmallestId, 0);
        assert!(recs.iter().all(|r| !r.used_fallback));
    }

    #[test]
    fn stage_names_round_trip() {
        for s in [Stage::Split, Stage::Graph, Stage::Merge, Stage::Label] {
            assert_eq!(Stage::from_name(s.name()), Some(s));
        }
        assert_eq!(Stage::from_name("bogus"), None);
    }

    #[test]
    fn span_kind_labels_round_trip() {
        let kinds = [
            SpanKind::Run,
            SpanKind::Stage(Stage::Split),
            SpanKind::Stage(Stage::Merge),
            SpanKind::MergeIteration(0),
            SpanKind::MergeIteration(4321),
            SpanKind::Choice,
            SpanKind::Apply,
            SpanKind::Compact,
            SpanKind::CommRound(7),
        ];
        for k in kinds {
            assert_eq!(SpanKind::parse(&k.label()), Some(k), "{}", k.label());
        }
        assert_eq!(SpanKind::parse("bogus"), None);
        assert_eq!(SpanKind::parse("stage:bogus"), None);
        assert_eq!(SpanKind::parse("iter:x"), None);
    }

    #[test]
    fn span_nesting_rules() {
        use SpanKind::*;
        assert!(Run.may_nest_in(None));
        assert!(!Run.may_nest_in(Some(Run)));
        assert!(Stage(super::Stage::Merge).may_nest_in(Some(Run)));
        assert!(!Stage(super::Stage::Merge).may_nest_in(None));
        assert!(MergeIteration(3).may_nest_in(Some(Stage(super::Stage::Merge))));
        assert!(!MergeIteration(3).may_nest_in(Some(Stage(super::Stage::Split))));
        for k in [Choice, Apply, Compact, CommRound(0)] {
            assert!(k.may_nest_in(Some(MergeIteration(9))));
            assert!(!k.may_nest_in(Some(Run)));
        }
    }

    #[test]
    fn span_guard_balances_even_on_early_exit() {
        use crate::journal::{validate_journal, EventKind, EventLog};
        let run_early = |tel: &mut dyn Telemetry, bail: bool| {
            let mut g = SpanGuard::enter(tel, SpanKind::Run);
            {
                let mut s = SpanGuard::enter(g.tel(), SpanKind::Stage(Stage::Merge));
                if bail {
                    return; // guards drop in order: stage, then run
                }
                s.tel().merge_done(1);
            }
        };
        let mut log = EventLog::in_memory();
        run_early(&mut log, true);
        run_early(&mut log, false);
        let events = log.into_events();
        validate_journal(&events).unwrap();
        let begins = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SpanBegin { .. }))
            .count();
        assert_eq!(begins, 4);
        // A guard on a disabled sink emits nothing.
        let mut null = NullTelemetry;
        let g = SpanGuard::enter(&mut null, SpanKind::Run);
        assert_eq!(g.kind(), SpanKind::Run);
        drop(g);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), None);
        for v in [0u64, 1, 1, 2, 3, 4, 7, 8, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_lo(0), 0);
        assert_eq!(Histogram::bucket_lo(1), 1);
        assert_eq!(Histogram::bucket_lo(11), 1024);
        let buckets: Vec<(usize, u64)> = h.nonzero_buckets().collect();
        assert_eq!(
            buckets,
            vec![(0, 1), (1, 2), (2, 2), (3, 2), (4, 1), (11, 1), (64, 1)]
        );
        // Median of 10 values: the 5th smallest (3) lives in bucket 2.
        assert_eq!(h.quantile_bucket_hi(0.5), Some(3));
        assert_eq!(h.quantile_bucket_hi(1.0), Some(u64::MAX));
    }

    #[test]
    fn histogram_merge_is_exact() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [5u64, 9, 100] {
            a.record(v);
            all.record(v);
        }
        for v in [0u64, 2, 65_536] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn histogram_json_round_trip() {
        let mut h = Histogram::new();
        for v in [0u64, 3, 3, 17, 4096, 1u64 << 40] {
            h.record(v);
        }
        let back = Histogram::from_json(&h.to_json()).unwrap();
        assert_eq!(back, h);
        // Empty histograms round-trip too (no min/max fields).
        let e = Histogram::new();
        assert_eq!(Histogram::from_json(&e.to_json()).unwrap(), e);
        assert!(Histogram::from_json(&Json::Null).is_err());
        // Stats beyond 2^53 (f64-exact range) clamp but still parse; the
        // bucket data stays exact.
        let mut big = Histogram::new();
        big.record(u64::MAX);
        let parsed = Histogram::from_json(&big.to_json()).unwrap();
        assert_eq!(parsed.count(), 1);
        assert_eq!(parsed.max(), Some(1u64 << 53));
        assert_eq!(parsed.nonzero_buckets().collect::<Vec<_>>(), vec![(64, 1)]);
    }

    #[test]
    fn report_histograms_round_trip_and_canonicalise() {
        let mut rec = Recorder::new();
        rec.run_start("seq", 8, 8, &Config::with_threshold(5));
        rec.stage(StageSpan {
            stage: Stage::Merge,
            wall_seconds: 0.1,
            sim_seconds: None,
        });
        rec.merge_done(3);
        let mut sizes = Histogram::new();
        sizes.record(12);
        sizes.record(52);
        let mut wall = Histogram::new();
        wall.record(900);
        rec.histogram("region_size_px", &sizes);
        rec.histogram("merge.iter_wall_us", &wall);
        rec.run_end();
        let r = rec.into_report();
        let json = Json::parse(&r.to_json_pretty()).unwrap();
        assert_eq!(json, r.to_json());
        let hists = json.get("histograms").unwrap();
        assert_eq!(hists.get("region_size_px"), Some(&sizes.to_json()));
        assert_eq!(hists.get("merge.iter_wall_us"), Some(&wall.to_json()));
        assert_eq!(r.histogram("region_size_px"), Some(&sizes));
        // Canonical form drops wall-clock histograms but keeps the rest.
        let canon = r.without_wall_times();
        assert!(canon.histogram("merge.iter_wall_us").is_none());
        assert_eq!(canon.histogram("region_size_px"), Some(&sizes));
        // Reports without histograms keep the pre-histogram schema.
        assert!(!sample_report().to_json_pretty().contains("histograms"));
    }

    #[test]
    fn conformance_view_normalises_backend_fields() {
        let mut a = sample_report();
        let mut b = sample_report();
        // Perturb everything conformance should ignore.
        b.engine = "msgpass:Async:32".into();
        b.stages[0].wall_seconds = 99.0;
        b.comm = None;
        b.counters.clear();
        b.histograms.push(("x".into(), Histogram::new()));
        for m in &mut b.merge_iterations {
            m.active_edges = Some(123);
            m.compacted = Some(true);
        }
        assert_eq!(a.conformance_view(), b.conformance_view());
        // But it must catch an observable divergence.
        a.merge_iterations[1].merges += 1;
        assert_ne!(a.conformance_view(), b.conformance_view());
    }

    #[test]
    fn recorder_equals_replay_of_the_same_calls() {
        use crate::journal::{replay, EventLog};
        fn drive(tel: &mut dyn Telemetry) {
            tel.run_start("msgpass:LP:2", 8, 8, &Config::with_threshold(5));
            tel.span_begin(SpanKind::Run);
            tel.split_done(1, 4);
            tel.merge_iteration(MergeIterationRecord {
                iteration: 0,
                merges: 2,
                used_fallback: false,
                active_edges: None,
                compacted: None,
            });
            // Cumulative counters are re-emitted; the report keeps the last.
            tel.counter("comm.rounds", 1.0);
            tel.counter("comm.rounds", 3.0);
            let mut h = Histogram::new();
            h.record(7);
            tel.histogram("h", &h);
            tel.comm(CommRecord {
                scheme: "LP".into(),
                nodes: 2,
                rounds: 3,
                messages: 1,
                bytes: 8,
            });
            tel.fault(FaultRecord {
                kind: "degraded".into(),
                src: 0,
                dst: 0,
                seq: 0,
                ts_ns: 1.0,
            });
            tel.merge_done(2);
            tel.span_end(SpanKind::Run);
            tel.run_end();
        }
        let mut rec = Recorder::new();
        drive(&mut rec);
        let mut log = EventLog::in_memory();
        drive(&mut log);
        assert!(rec.is_finished());
        assert_eq!(replay(log.events()), *rec.report());
        assert_eq!(rec.report().counters, vec![("comm.rounds".into(), 3.0)]);
        assert!(rec.report().degraded);
    }
}
