//! Streaming JSONL event journal: the durable, mid-flight-observable form
//! of a telemetry stream.
//!
//! The in-memory [`Recorder`](crate::telemetry::Recorder) keeps only the
//! folded report — a hung merge loop or a panic leaves nothing on disk.
//! This module streams every [`Telemetry`] callback as one JSON object per
//! line (JSONL) the moment it happens:
//!
//! * [`Event`] / [`EventKind`] — the canonical event model. Each event is
//!   timestamped (`t_us`, microseconds since `run_start`) by the sink *on
//!   receipt*, so engines never touch a clock for the journal's sake.
//! * [`Streaming`] — adapts any [`EmitEvent`] byte/event consumer into a
//!   full [`Telemetry`] sink, stamping wall microseconds or, with
//!   [`Streaming::with_logical_clock`], event ordinals. `Option<S>` and
//!   `(A, B)` are consumers too, so one `Streaming` feeds a journal file
//!   and an in-memory log from a single clock.
//! * [`JsonlWriter`] / [`JsonlSink`] — writes events as JSONL with bounded
//!   buffering and a drop counter: when the underlying writer fails the
//!   journal degrades (events are counted, not lost silently, and the run
//!   is never aborted). The final `run_end` line carries the drop count.
//!   [`jsonl_writer`] opens one for a `--trace-out` path.
//! * [`parse_journal`] — crash-tolerant reader: any *prefix* of a journal
//!   (e.g. after `kill -9`) parses event-by-event; a damaged tail line is
//!   reported, not fatal. [`parse_journal_strict`] is the schema-validation
//!   mode used by CI (unknown event kinds are errors).
//! * [`replay`] — folds a (possibly partial) event stream back into a
//!   [`TelemetryReport`] with [`TelemetryReport::apply`], the fold the
//!   `Recorder` runs live, so post-mortem journals feed the same tooling
//!   as live reports.
//! * [`validate_journal`] — enforces the span schema: every `span_begin`
//!   nests per [`SpanKind::may_nest_in`], every `span_end` matches the
//!   innermost open span, and a complete journal closes every span.
//!
//! ## Line schema
//!
//! Every line is a JSON object with an `"ev"` tag and a `"t_us"`
//! timestamp. The tags are:
//!
//! | `ev`          | payload                                              |
//! |---------------|------------------------------------------------------|
//! | `run_start`   | `engine`, `width`, `height`, `config` object         |
//! | `b` / `e`     | `span` label (see [`SpanKind::label`])               |
//! | `stage`       | `stage`, `wall_seconds`, optional `sim_seconds`      |
//! | `split_done`  | `iterations`, `num_squares`                          |
//! | `merge_iter`  | `iter`, `merges`, `fallback`, opt. `active_edges`, `compacted` |
//! | `merge_done`  | `num_regions`                                        |
//! | `comm`        | `scheme`, `nodes`, `rounds`, `messages`, `bytes`     |
//! | `fault`       | `kind`, `src`, `dst`, `seq`, `ts_ns` (chaos runs)    |
//! | `send` / `recv` / `coll` | `stream`, `src`, `dst`, `seq`, `bytes`, `t_ns`, `wait_ns` (traced msgpass runs) |
//! | `counter`     | `name`, `value`                                      |
//! | `hist`        | `name`, `hist` object (see [`Histogram::to_json`])   |
//! | `run_end`     | `dropped` (events lost to sink back-pressure)        |

use std::collections::HashMap;
use std::io::{self, Write};
use std::time::Instant;

use crate::json::{Json, JsonError};
use crate::telemetry::{
    CommRecord, ConfigRecord, FaultRecord, FlowKind, FlowRecord, Histogram, MergeIterationRecord,
    SpanKind, StageSpan, Telemetry, TelemetryReport,
};

/// What happened (the payload of one journal line).
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A run began.
    RunStart {
        /// Engine label (see [`Telemetry::run_start`]).
        engine: String,
        /// Image width.
        width: usize,
        /// Image height.
        height: usize,
        /// Configuration snapshot.
        config: ConfigRecord,
    },
    /// A hierarchical span opened.
    SpanBegin {
        /// Which span.
        span: SpanKind,
    },
    /// The innermost open span closed.
    SpanEnd {
        /// Which span.
        span: SpanKind,
    },
    /// A pipeline stage completed (aggregate timing).
    Stage {
        /// The stage span.
        span: StageSpan,
    },
    /// The split stage's outcome.
    SplitDone {
        /// Productive split iterations.
        iterations: u32,
        /// Squares at the end of the split stage.
        num_squares: usize,
    },
    /// One merge iteration's counters.
    MergeIteration {
        /// The record.
        rec: MergeIterationRecord,
    },
    /// The merge stage's outcome.
    MergeDone {
        /// Final region count.
        num_regions: usize,
    },
    /// Aggregate communication counters.
    Comm {
        /// The record.
        rec: CommRecord,
    },
    /// One injected-fault event (chaos runs only).
    Fault {
        /// The record.
        rec: FaultRecord,
    },
    /// One causal flow event (traced message-passing runs only): a
    /// point-to-point send/receive edge or a collective participation,
    /// correlated by `(stream, src, dst, seq)` and stamped with the
    /// virtual clock (`t_ns`). The `"ev"` tag is `"send"`, `"recv"`, or
    /// `"coll"` per [`FlowKind::label`].
    Flow {
        /// The record.
        rec: FlowRecord,
    },
    /// A named scalar counter.
    Counter {
        /// Counter name.
        name: String,
        /// Counter value.
        value: f64,
    },
    /// A named histogram.
    Histogram {
        /// Histogram name.
        name: String,
        /// The histogram (boxed: it is ~0.5 KiB, far larger than any
        /// other variant, and events are stored by the `Vec`-load in
        /// every sink).
        hist: Box<Histogram>,
    },
    /// The run completed. `dropped` is the number of events the sink had
    /// to discard (writer failure); 0 on a healthy run.
    RunEnd {
        /// Events dropped by the sink.
        dropped: u64,
    },
}

impl EventKind {
    /// The stable `"ev"` tag of this kind.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::RunStart { .. } => "run_start",
            EventKind::SpanBegin { .. } => "b",
            EventKind::SpanEnd { .. } => "e",
            EventKind::Stage { .. } => "stage",
            EventKind::SplitDone { .. } => "split_done",
            EventKind::MergeIteration { .. } => "merge_iter",
            EventKind::MergeDone { .. } => "merge_done",
            EventKind::Comm { .. } => "comm",
            EventKind::Fault { .. } => "fault",
            EventKind::Flow { rec } => rec.kind.label(),
            EventKind::Counter { .. } => "counter",
            EventKind::Histogram { .. } => "hist",
            EventKind::RunEnd { .. } => "run_end",
        }
    }
}

/// One timestamped journal event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the sink observed `run_start` (0 for the
    /// `run_start` event itself).
    pub t_us: u64,
    /// The payload.
    pub kind: EventKind,
}

impl Event {
    /// Serializes to a single-line JSON object (no trailing newline).
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> =
            vec![("ev", self.kind.tag().into()), ("t_us", self.t_us.into())];
        match &self.kind {
            EventKind::RunStart {
                engine,
                width,
                height,
                config,
            } => {
                pairs.push(("engine", engine.as_str().into()));
                pairs.push(("width", (*width).into()));
                pairs.push(("height", (*height).into()));
                pairs.push(("config", config.to_json()));
            }
            EventKind::SpanBegin { span } | EventKind::SpanEnd { span } => {
                pairs.push(("span", span.label().into()));
            }
            EventKind::Stage { span } => pairs.extend(span.json_fields()),
            EventKind::SplitDone {
                iterations,
                num_squares,
            } => {
                pairs.push(("iterations", (*iterations).into()));
                pairs.push(("num_squares", (*num_squares).into()));
            }
            EventKind::MergeIteration { rec } => {
                pairs.push(("iter", rec.iteration.into()));
                pairs.push(("merges", rec.merges.into()));
                pairs.push(("fallback", rec.used_fallback.into()));
                if let Some(a) = rec.active_edges {
                    pairs.push(("active_edges", a.into()));
                }
                if let Some(c) = rec.compacted {
                    pairs.push(("compacted", c.into()));
                }
            }
            EventKind::MergeDone { num_regions } => {
                pairs.push(("num_regions", (*num_regions).into()));
            }
            EventKind::Comm { rec } => pairs.extend(rec.json_fields()),
            EventKind::Fault { rec } => pairs.extend(rec.json_fields()),
            EventKind::Flow { rec } => {
                pairs.push(("stream", rec.stream.as_str().into()));
                pairs.push(("src", u64::from(rec.src).into()));
                pairs.push(("dst", u64::from(rec.dst).into()));
                pairs.push(("seq", rec.seq.into()));
                pairs.push(("bytes", rec.bytes.into()));
                pairs.push(("t_ns", rec.t_ns.into()));
                pairs.push(("wait_ns", rec.wait_ns.into()));
            }
            EventKind::Counter { name, value } => {
                pairs.push(("name", name.as_str().into()));
                pairs.push(("value", (*value).into()));
            }
            EventKind::Histogram { name, hist } => {
                pairs.push(("name", name.as_str().into()));
                pairs.push(("hist", hist.to_json()));
            }
            EventKind::RunEnd { dropped } => {
                pairs.push(("dropped", (*dropped).into()));
            }
        }
        Json::obj(pairs)
    }

    /// One JSONL line, newline included.
    pub fn to_line(&self) -> String {
        let mut s = self.to_json().to_compact();
        s.push('\n');
        s
    }

    /// Parses an event from a JSON value produced by [`Event::to_json`].
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        let tag = v.field("ev", Json::as_str)?;
        let t_us = v.field("t_us", Json::as_u64)?;
        let span_of = |v: &Json| -> Result<SpanKind, JsonError> {
            let label = v.field("span", Json::as_str)?;
            SpanKind::parse(label).ok_or_else(|| JsonError {
                message: format!("journal event: unknown span label {label:?}"),
                offset: 0,
            })
        };
        let kind = match tag {
            "run_start" => EventKind::RunStart {
                engine: v.field("engine", Json::as_str)?.to_string(),
                width: v.field("width", Json::as_u64)? as usize,
                height: v.field("height", Json::as_u64)? as usize,
                config: ConfigRecord::from_json(v.field("config", Some)?)?,
            },
            "b" => EventKind::SpanBegin { span: span_of(v)? },
            "e" => EventKind::SpanEnd { span: span_of(v)? },
            "stage" => EventKind::Stage {
                span: StageSpan::from_json_fields(v)?,
            },
            "split_done" => EventKind::SplitDone {
                iterations: v.field("iterations", Json::as_u32)?,
                num_squares: v.field("num_squares", Json::as_u64)? as usize,
            },
            "merge_iter" => EventKind::MergeIteration {
                rec: MergeIterationRecord {
                    iteration: v.field("iter", Json::as_u32)?,
                    merges: v.field("merges", Json::as_u32)?,
                    used_fallback: v.field("fallback", Json::as_bool)?,
                    active_edges: v.get("active_edges").and_then(Json::as_u64),
                    compacted: v.get("compacted").and_then(Json::as_bool),
                },
            },
            "merge_done" => EventKind::MergeDone {
                num_regions: v.field("num_regions", Json::as_u64)? as usize,
            },
            "comm" => EventKind::Comm {
                rec: CommRecord::from_json_fields(v)?,
            },
            "fault" => EventKind::Fault {
                rec: FaultRecord::from_json_fields(v)?,
            },
            "send" | "recv" | "coll" => EventKind::Flow {
                rec: FlowRecord {
                    kind: FlowKind::parse(tag).unwrap(),
                    stream: v.field("stream", Json::as_str)?.to_string(),
                    src: v.field("src", Json::as_u32)?,
                    dst: v.field("dst", Json::as_u32)?,
                    seq: v.field("seq", Json::as_u64)?,
                    bytes: v.field("bytes", Json::as_u64)?,
                    t_ns: v.field("t_ns", Json::as_f64)?,
                    wait_ns: v.field("wait_ns", Json::as_f64)?,
                },
            },
            "counter" => EventKind::Counter {
                name: v.field("name", Json::as_str)?.to_string(),
                value: v.field("value", Json::as_f64)?,
            },
            "hist" => EventKind::Histogram {
                name: v.field("name", Json::as_str)?.to_string(),
                hist: Box::new(Histogram::from_json(v.field("hist", Some)?)?),
            },
            "run_end" => EventKind::RunEnd {
                dropped: v.field("dropped", Json::as_u64)?,
            },
            other => {
                return Err(JsonError {
                    message: format!("journal event: unknown event kind {other:?}"),
                    offset: 0,
                })
            }
        };
        Ok(Event { t_us, kind })
    }

    /// Parses one JSONL line.
    pub fn parse_line(line: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(line)?)
    }
}

/// A consumer of journal [`Event`]s. Implementors must never panic or
/// block the run on failure: count drops instead.
pub trait EmitEvent {
    /// Consumes one event.
    fn emit(&mut self, ev: Event);
    /// Events discarded so far (writer failure / back-pressure).
    fn dropped(&self) -> u64 {
        0
    }
    /// Flushes any internal buffering (called at `run_end`).
    fn flush_events(&mut self) {}
}

/// An optional consumer: `None` discards every event.
impl<S: EmitEvent> EmitEvent for Option<S> {
    fn emit(&mut self, ev: Event) {
        if let Some(s) = self {
            s.emit(ev);
        }
    }
    fn dropped(&self) -> u64 {
        self.as_ref().map_or(0, S::dropped)
    }
    fn flush_events(&mut self) {
        if let Some(s) = self {
            s.flush_events();
        }
    }
}

/// Both consumers see every event, with one timestamp — e.g. a JSONL
/// journal and an in-memory log behind a single [`Streaming`] clock.
impl<A: EmitEvent, B: EmitEvent> EmitEvent for (A, B) {
    fn emit(&mut self, ev: Event) {
        self.0.emit(ev.clone());
        self.1.emit(ev);
    }
    fn dropped(&self) -> u64 {
        self.0.dropped() + self.1.dropped()
    }
    fn flush_events(&mut self) {
        self.0.flush_events();
        self.1.flush_events();
    }
}

/// Adapts an [`EmitEvent`] consumer into a [`Telemetry`] sink, stamping
/// each event with microseconds since the current time origin on receipt.
///
/// The origin is reset by each **top-level** `run_start` (so a standalone
/// run's timestamps are microseconds since `run_start`, and back-to-back
/// runs each restart at ~0, which [`crate::chrome::split_runs`] relies
/// on). A `run_start` arriving while a span is already open — the nested
/// `batch > image:<i> > run` shape emitted by [`crate::batch::run_batch`]
/// — does **not** reset the clock, keeping the whole batch journal on one
/// monotonic timeline so [`validate_journal`] accepts it.
pub struct Streaming<S: EmitEvent> {
    sink: S,
    clock: Instant,
    open_spans: usize,
    /// `Some(next ordinal)` in logical-clock mode: `t_us` is the event
    /// ordinal instead of elapsed wall time, so two identical event
    /// streams serialize to byte-identical journals (chaos determinism).
    logical: Option<u64>,
}

impl<S: EmitEvent> Streaming<S> {
    /// Wraps `sink`.
    pub fn new(sink: S) -> Self {
        Self {
            sink,
            clock: Instant::now(),
            open_spans: 0,
            logical: None,
        }
    }

    /// Switches to the logical clock: `t_us` becomes the event ordinal
    /// (0, 1, 2, ...) instead of wall microseconds. Ordinals are monotonic
    /// so [`validate_journal`] accepts logical journals unchanged; two
    /// runs emitting the same events produce byte-identical JSONL — the
    /// reproducibility contract of `--chaos` traces.
    pub fn with_logical_clock(mut self) -> Self {
        self.logical = Some(0);
        self
    }

    /// The wrapped consumer.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Unwraps the consumer.
    pub fn into_sink(self) -> S {
        self.sink
    }

    fn now_us(&self) -> u64 {
        self.clock.elapsed().as_micros() as u64
    }
}

impl<S: EmitEvent> Telemetry for Streaming<S> {
    fn event(&mut self, mut kind: EventKind) {
        let mut run_end = false;
        match &mut kind {
            EventKind::RunStart { .. } if self.open_spans == 0 => self.clock = Instant::now(),
            EventKind::SpanBegin { .. } => self.open_spans += 1,
            EventKind::SpanEnd { .. } => self.open_spans = self.open_spans.saturating_sub(1),
            EventKind::RunEnd { dropped } => {
                *dropped = self.sink.dropped();
                run_end = true;
            }
            _ => {}
        }
        let t_us = match &mut self.logical {
            Some(next) => {
                let t = *next;
                *next += 1;
                t
            }
            None => self.now_us(),
        };
        self.sink.emit(Event { t_us, kind });
        if run_end {
            self.sink.flush_events();
        }
    }
}

/// Writes events as JSONL with bounded buffering.
///
/// Lines accumulate in an internal buffer of at most `buffer_cap` bytes
/// and are written out whenever the next line would overflow it (so memory
/// stays bounded on arbitrarily long runs). `buffer_cap == 0` writes and
/// flushes every line immediately — the mid-flight-observable mode used
/// for `--trace-out -`. The buffer is also flushed at `run_end` and on
/// [`Drop`], so a panicking run still leaves a readable journal prefix
/// behind (drop runs during unwind).
///
/// When the underlying writer errors, the writer is marked broken and
/// every subsequent event increments [`JsonlWriter::dropped`] instead of
/// aborting the run; the drop count is reported on the final `run_end`
/// line (and by the CLI).
pub struct JsonlWriter<W: Write> {
    out: W,
    buf: Vec<u8>,
    buffer_cap: usize,
    dropped: u64,
    broken: bool,
}

/// Default buffer bound: 64 KiB.
pub const DEFAULT_BUFFER_CAP: usize = 64 * 1024;

impl<W: Write> JsonlWriter<W> {
    /// A writer with the default 64 KiB buffer bound.
    pub fn new(out: W) -> Self {
        Self::with_buffer_cap(out, DEFAULT_BUFFER_CAP)
    }

    /// A writer with an explicit buffer bound (0 = flush every line).
    pub fn with_buffer_cap(out: W, buffer_cap: usize) -> Self {
        Self {
            out,
            buf: Vec::new(),
            buffer_cap,
            dropped: 0,
            broken: false,
        }
    }

    fn write_out(&mut self) {
        if self.broken || self.buf.is_empty() {
            return;
        }
        if self.out.write_all(&self.buf).is_err() || self.out.flush().is_err() {
            self.broken = true;
            // The buffered lines are lost; count them.
            self.dropped += self.buf.iter().filter(|&&b| b == b'\n').count() as u64;
        }
        self.buf.clear();
    }
}

impl<W: Write> EmitEvent for JsonlWriter<W> {
    fn emit(&mut self, ev: Event) {
        if self.broken {
            self.dropped += 1;
            return;
        }
        let line = ev.to_line();
        if !self.buf.is_empty() && self.buf.len() + line.len() > self.buffer_cap {
            self.write_out();
            if self.broken {
                self.dropped += 1;
                return;
            }
        }
        self.buf.extend_from_slice(line.as_bytes());
        if self.buf.len() > self.buffer_cap {
            self.write_out();
        }
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn flush_events(&mut self) {
        self.write_out();
    }
}

impl<W: Write> Drop for JsonlWriter<W> {
    fn drop(&mut self) {
        self.write_out();
    }
}

/// A streaming JSONL [`Telemetry`] sink (see [`JsonlWriter`]).
pub type JsonlSink<W> = Streaming<JsonlWriter<W>>;

/// Opens a JSONL writer for a `--trace-out` style path: `"-"` streams to
/// stderr line-by-line (unbuffered); anything else creates/truncates a
/// file with the default buffer bound. Wrap it in [`Streaming`] (and
/// [`Streaming::with_logical_clock`] for ordinal timestamps) to get a sink.
pub fn jsonl_writer(path: &str) -> io::Result<JsonlWriter<Box<dyn Write>>> {
    Ok(if path == "-" {
        JsonlWriter::with_buffer_cap(Box::new(io::stderr()), 0)
    } else {
        JsonlWriter::new(Box::new(std::fs::File::create(path)?))
    })
}

/// An in-memory event consumer (testing and trace export).
#[derive(Debug, Clone, Default)]
pub struct EventVec {
    /// The events, in emission order.
    pub events: Vec<Event>,
}

impl EmitEvent for EventVec {
    fn emit(&mut self, ev: Event) {
        self.events.push(ev);
    }
}

/// An in-memory streaming [`Telemetry`] sink capturing the event stream.
pub type EventLog = Streaming<EventVec>;

impl EventLog {
    /// A fresh in-memory event log.
    pub fn in_memory() -> Self {
        Streaming::new(EventVec::default())
    }

    /// The captured events.
    pub fn events(&self) -> &[Event] {
        &self.sink().events
    }

    /// Consumes the log, returning the events.
    pub fn into_events(self) -> Vec<Event> {
        self.into_sink().events
    }
}

/// Summary of a tolerant [`parse_journal`] pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JournalStats {
    /// Non-empty lines seen.
    pub lines: usize,
    /// Events successfully parsed.
    pub events: usize,
    /// `true` when parsing stopped at a damaged line (crash-truncated
    /// tail); the message describes the first failure.
    pub truncated: bool,
    /// Parse error at the truncation point, if any.
    pub error: Option<String>,
}

/// Crash-tolerant journal reader: parses events line-by-line and stops at
/// the first damaged line (the model is a process killed mid-write — only
/// the final line can be torn). Every prefix of a valid journal parses
/// without error.
pub fn parse_journal(text: &str) -> (Vec<Event>, JournalStats) {
    let mut events = Vec::new();
    let mut stats = JournalStats::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        stats.lines += 1;
        match Event::parse_line(line) {
            Ok(ev) => {
                events.push(ev);
                stats.events += 1;
            }
            Err(e) => {
                stats.truncated = true;
                stats.error = Some(e.message);
                break;
            }
        }
    }
    (events, stats)
}

/// Strict journal reader: any malformed line or unknown event kind is an
/// error (`Err((line_number, message))`, 1-based). This is the
/// schema-validation mode CI runs on freshly emitted journals.
pub fn parse_journal_strict(text: &str) -> Result<Vec<Event>, (usize, String)> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Event::parse_line(line) {
            Ok(ev) => events.push(ev),
            Err(e) => return Err((i + 1, e.message)),
        }
    }
    Ok(events)
}

/// Folds a (possibly truncated) event stream into a [`TelemetryReport`]
/// with [`TelemetryReport::apply`] — the fold
/// [`Recorder`](crate::telemetry::Recorder) runs live, so a post-mortem
/// journal prefix feeds the same reporting and diffing tools as a
/// completed run. Missing trailing events simply leave the corresponding
/// fields at their defaults.
pub fn replay(events: &[Event]) -> TelemetryReport {
    let mut r = TelemetryReport::default();
    for ev in events {
        r.apply(ev.kind.clone());
    }
    r
}

/// A span-schema violation found by [`validate_journal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalInvalid {
    /// 0-based index of the offending event.
    pub event_index: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for JournalInvalid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "event {}: {}", self.event_index, self.message)
    }
}

/// Validates span discipline over a complete journal: begins nest per
/// [`SpanKind::may_nest_in`], every end matches the innermost open span,
/// timestamps are monotonic, and no span is left open at the end.
///
/// Flow events are held to the causal-trace schema on top of that:
/// per-rank virtual clocks (`t_ns` keyed by the recording rank) must be
/// monotonic, every `recv` must match an earlier `send` with the same
/// `(stream, src, dst, seq)` correlation key, and a complete journal pairs
/// every send. Flow state resets at each `run_start` (per-image runs in a
/// batch journal re-start rank clocks and sequence counters at zero).
///
/// Truncated journals fail the final balance check by design — use
/// [`replay`] (which ignores spans) for post-mortem analysis plus
/// [`flow_pairing`] for a tolerant pairing summary, and this function to
/// certify a journal a run claims to have completed.
pub fn validate_journal(events: &[Event]) -> Result<(), JournalInvalid> {
    let mut stack: Vec<SpanKind> = Vec::new();
    let mut last_t = 0u64;
    // Causal-trace state, reset at each run_start.
    let mut rank_clock: HashMap<u32, f64> = HashMap::new();
    let mut in_flight: HashMap<(String, u32, u32, u64), u32> = HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        if ev.t_us < last_t {
            return Err(JournalInvalid {
                event_index: i,
                message: format!("timestamp regressed: {} after {}", ev.t_us, last_t),
            });
        }
        last_t = ev.t_us;
        match &ev.kind {
            EventKind::RunStart { .. } => {
                if let Some(n) = in_flight.values().copied().reduce(|a, b| a + b) {
                    return Err(JournalInvalid {
                        event_index: i,
                        message: format!("{n} send(s) without a matching recv at run boundary"),
                    });
                }
                rank_clock.clear();
            }
            EventKind::Flow { rec } => {
                let rank = rec.rank();
                let last = rank_clock.entry(rank).or_insert(f64::NEG_INFINITY);
                if rec.t_ns < *last {
                    return Err(JournalInvalid {
                        event_index: i,
                        message: format!(
                            "rank {rank} virtual clock regressed: {} after {}",
                            rec.t_ns, *last
                        ),
                    });
                }
                *last = rec.t_ns;
                let key = (rec.stream.clone(), rec.src, rec.dst, rec.seq);
                match rec.kind {
                    FlowKind::Send => *in_flight.entry(key).or_insert(0) += 1,
                    FlowKind::Recv => match in_flight.get_mut(&key) {
                        Some(n) if *n > 0 => {
                            *n -= 1;
                            if *n == 0 {
                                in_flight.remove(&key);
                            }
                        }
                        _ => {
                            return Err(JournalInvalid {
                                event_index: i,
                                message: format!(
                                    "recv without a matching prior send: \
                                     stream {:?} {}->{} seq {}",
                                    rec.stream, rec.src, rec.dst, rec.seq
                                ),
                            })
                        }
                    },
                    FlowKind::Collective => {}
                }
            }
            EventKind::SpanBegin { span } => {
                if !span.may_nest_in(stack.last().copied()) {
                    return Err(JournalInvalid {
                        event_index: i,
                        message: format!(
                            "span {:?} may not open inside {:?}",
                            span.label(),
                            stack.last().map(|s| s.label()),
                        ),
                    });
                }
                stack.push(*span);
            }
            EventKind::SpanEnd { span } => match stack.pop() {
                Some(top) if top == *span => {}
                Some(top) => {
                    return Err(JournalInvalid {
                        event_index: i,
                        message: format!(
                            "span end {:?} does not match open span {:?}",
                            span.label(),
                            top.label()
                        ),
                    })
                }
                None => {
                    return Err(JournalInvalid {
                        event_index: i,
                        message: format!("span end {:?} with no span open", span.label()),
                    })
                }
            },
            _ => {}
        }
    }
    if let Some(open) = stack.last() {
        return Err(JournalInvalid {
            event_index: events.len(),
            message: format!(
                "journal ended with {} span(s) open (innermost {:?})",
                stack.len(),
                open.label()
            ),
        });
    }
    if let Some(n) = in_flight.values().copied().reduce(|a, b| a + b) {
        return Err(JournalInvalid {
            event_index: events.len(),
            message: format!("journal ended with {n} send(s) without a matching recv"),
        });
    }
    Ok(())
}

/// Tolerant flow-pairing summary over a (possibly truncated) journal.
///
/// Unlike [`validate_journal`], nothing here is fatal: a truncated journal
/// legitimately loses the receives of its final in-flight sends, so this
/// reports what paired and what did not. Pairing state resets at each
/// `run_start` (per-image runs restart sequence counters); sends left
/// unpaired at a boundary are counted, not errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowPairing {
    /// `send` events seen.
    pub sends: usize,
    /// `recv` events seen.
    pub recvs: usize,
    /// `coll` events seen.
    pub colls: usize,
    /// Receives that matched a prior send on `(stream, src, dst, seq)`.
    pub matched: usize,
    /// Receives with no matching prior send.
    pub unmatched_recvs: usize,
    /// Sends never claimed by a receive (in-flight at a run boundary or at
    /// the end of the journal — expected for truncated journals).
    pub unpaired_sends: usize,
    /// Flow events whose recording rank's virtual clock went backwards.
    pub clock_regressions: usize,
}

impl FlowPairing {
    /// `true` when the journal contains any flow events at all.
    pub fn any(&self) -> bool {
        self.sends + self.recvs + self.colls > 0
    }

    /// `true` when every receive matched and no send was left unpaired.
    pub fn fully_paired(&self) -> bool {
        self.unmatched_recvs == 0 && self.unpaired_sends == 0 && self.clock_regressions == 0
    }
}

/// Computes the [`FlowPairing`] summary of an event stream.
pub fn flow_pairing(events: &[Event]) -> FlowPairing {
    let mut fp = FlowPairing::default();
    let mut rank_clock: HashMap<u32, f64> = HashMap::new();
    let mut in_flight: HashMap<(String, u32, u32, u64), u32> = HashMap::new();
    let flush = |in_flight: &mut HashMap<(String, u32, u32, u64), u32>, fp: &mut FlowPairing| {
        fp.unpaired_sends += in_flight.values().map(|&n| n as usize).sum::<usize>();
        in_flight.clear();
    };
    for ev in events {
        match &ev.kind {
            EventKind::RunStart { .. } => {
                flush(&mut in_flight, &mut fp);
                rank_clock.clear();
            }
            EventKind::Flow { rec } => {
                let last = rank_clock.entry(rec.rank()).or_insert(f64::NEG_INFINITY);
                if rec.t_ns < *last {
                    fp.clock_regressions += 1;
                }
                *last = rec.t_ns;
                let key = (rec.stream.clone(), rec.src, rec.dst, rec.seq);
                match rec.kind {
                    FlowKind::Send => {
                        fp.sends += 1;
                        *in_flight.entry(key).or_insert(0) += 1;
                    }
                    FlowKind::Recv => {
                        fp.recvs += 1;
                        match in_flight.get_mut(&key) {
                            Some(n) if *n > 0 => {
                                *n -= 1;
                                if *n == 0 {
                                    in_flight.remove(&key);
                                }
                                fp.matched += 1;
                            }
                            _ => fp.unmatched_recvs += 1,
                        }
                    }
                    FlowKind::Collective => fp.colls += 1,
                }
            }
            _ => {}
        }
    }
    flush(&mut in_flight, &mut fp);
    fp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, TieBreak};
    use crate::telemetry::Stage;

    fn sample_events() -> Vec<Event> {
        let cfg = Config::with_threshold(10).tie_break(TieBreak::Random { seed: 7 });
        let mut log = EventLog::in_memory();
        let tel: &mut dyn Telemetry = &mut log;
        tel.run_start("seq", 64, 64, &cfg);
        tel.span_begin(SpanKind::Run);
        tel.span_begin(SpanKind::Stage(Stage::Split));
        tel.split_done(3, 40);
        tel.span_end(SpanKind::Stage(Stage::Split));
        tel.stage(StageSpan {
            stage: Stage::Split,
            wall_seconds: 0.01,
            sim_seconds: None,
        });
        tel.span_begin(SpanKind::Stage(Stage::Merge));
        tel.span_begin(SpanKind::MergeIteration(0));
        tel.span_begin(SpanKind::Choice);
        tel.span_end(SpanKind::Choice);
        tel.span_begin(SpanKind::Apply);
        tel.span_end(SpanKind::Apply);
        tel.span_begin(SpanKind::Compact);
        tel.span_end(SpanKind::Compact);
        tel.merge_iteration(MergeIterationRecord {
            iteration: 0,
            merges: 12,
            used_fallback: false,
            active_edges: Some(88),
            compacted: Some(false),
        });
        tel.span_end(SpanKind::MergeIteration(0));
        tel.span_end(SpanKind::Stage(Stage::Merge));
        tel.merge_done(5);
        let mut h = Histogram::new();
        h.record(12);
        tel.histogram("merge.merges_per_iteration", &h);
        tel.counter("merge.compactions", 0.0);
        tel.span_end(SpanKind::Run);
        tel.run_end();
        log.into_events()
    }

    #[test]
    fn events_round_trip_through_jsonl() {
        let events = sample_events();
        let text: String = events.iter().map(Event::to_line).collect();
        let parsed = parse_journal_strict(&text).unwrap();
        assert_eq!(parsed, events);
        let (tolerant, stats) = parse_journal(&text);
        assert_eq!(tolerant, events);
        assert!(!stats.truncated);
        assert_eq!(stats.events, events.len());
    }

    #[test]
    fn journal_validates_and_replays() {
        let events = sample_events();
        validate_journal(&events).unwrap();
        let report = replay(&events);
        assert_eq!(report.engine, "seq");
        assert_eq!(report.split_iterations, 3);
        assert_eq!(report.num_squares, 40);
        assert_eq!(report.merges_per_iteration(), vec![12]);
        assert_eq!(report.num_regions, 5);
        assert_eq!(
            report
                .histogram("merge.merges_per_iteration")
                .unwrap()
                .count(),
            1
        );
        assert_eq!(report.counter("merge.compactions"), Some(0.0));
    }

    #[test]
    fn truncated_tail_is_tolerated() {
        let events = sample_events();
        let text: String = events.iter().map(Event::to_line).collect();
        // Cut mid-way through the final line.
        let cut = text.len() - 7;
        let (parsed, stats) = parse_journal(&text[..cut]);
        assert!(stats.truncated);
        assert_eq!(parsed.len(), events.len() - 1);
        // Replay of the prefix still yields a coherent partial report.
        let report = replay(&parsed);
        assert_eq!(report.num_regions, 5);
        // Strict mode rejects the damage, naming the line.
        let err = parse_journal_strict(&text[..cut]).unwrap_err();
        assert_eq!(err.0, events.len());
    }

    #[test]
    fn unknown_event_kind_is_rejected() {
        let line = r#"{"ev":"mystery","t_us":0}"#;
        let err = Event::parse_line(line).unwrap_err();
        assert!(
            err.message.contains("unknown event kind"),
            "{}",
            err.message
        );
        // Tolerant mode stops there; strict mode errors.
        let (evs, stats) = parse_journal(line);
        assert!(evs.is_empty() && stats.truncated);
        assert!(parse_journal_strict(line).is_err());
    }

    #[test]
    fn validator_rejects_unbalanced_and_misnested_spans() {
        let mk = |kind: EventKind| Event { t_us: 0, kind };
        // Unclosed span.
        let open = vec![mk(EventKind::SpanBegin {
            span: SpanKind::Run,
        })];
        assert!(validate_journal(&open).is_err());
        // End without begin.
        let stray = vec![mk(EventKind::SpanEnd {
            span: SpanKind::Run,
        })];
        assert!(validate_journal(&stray).is_err());
        // Mis-nesting: iter outside stage:merge.
        let misnested = vec![
            mk(EventKind::SpanBegin {
                span: SpanKind::Run,
            }),
            mk(EventKind::SpanBegin {
                span: SpanKind::MergeIteration(0),
            }),
        ];
        let err = validate_journal(&misnested).unwrap_err();
        assert_eq!(err.event_index, 1);
        // Crossed end.
        let crossed = vec![
            mk(EventKind::SpanBegin {
                span: SpanKind::Run,
            }),
            mk(EventKind::SpanBegin {
                span: SpanKind::Stage(Stage::Merge),
            }),
            mk(EventKind::SpanEnd {
                span: SpanKind::Run,
            }),
        ];
        assert!(validate_journal(&crossed).is_err());
        // Timestamp regression.
        let backwards = vec![
            Event {
                t_us: 5,
                kind: EventKind::SpanBegin {
                    span: SpanKind::Run,
                },
            },
            Event {
                t_us: 4,
                kind: EventKind::SpanEnd {
                    span: SpanKind::Run,
                },
            },
        ];
        assert!(validate_journal(&backwards).is_err());
    }

    fn flow(kind: FlowKind, stream: &str, src: u32, dst: u32, seq: u64, t_ns: f64) -> EventKind {
        EventKind::Flow {
            rec: FlowRecord {
                kind,
                stream: stream.to_string(),
                src,
                dst,
                seq,
                bytes: 16,
                t_ns,
                wait_ns: 0.5,
            },
        }
    }

    #[test]
    fn flow_events_round_trip_and_validate() {
        let mk = |t_us: u64, kind: EventKind| Event { t_us, kind };
        let events = vec![
            mk(0, flow(FlowKind::Send, "boundary", 0, 1, 0, 10.0)),
            mk(1, flow(FlowKind::Send, "boundary", 1, 0, 0, 11.0)),
            mk(2, flow(FlowKind::Recv, "boundary", 0, 1, 0, 20.0)),
            mk(3, flow(FlowKind::Recv, "boundary", 1, 0, 0, 21.0)),
            mk(4, flow(FlowKind::Collective, "sync", 0, 0, 0, 30.0)),
            mk(5, flow(FlowKind::Collective, "sync", 1, 1, 0, 30.0)),
        ];
        let text: String = events.iter().map(Event::to_line).collect();
        assert!(text.contains(r#""ev":"send""#) && text.contains(r#""ev":"coll""#));
        let parsed = parse_journal_strict(&text).unwrap();
        assert_eq!(parsed, events);
        validate_journal(&events).unwrap();
        let fp = flow_pairing(&events);
        assert!(fp.any() && fp.fully_paired());
        assert_eq!((fp.sends, fp.recvs, fp.colls, fp.matched), (2, 2, 2, 2));
        // Flow events leave the replayed report untouched.
        assert_eq!(replay(&events), TelemetryReport::default());
    }

    #[test]
    fn narrowed_fields_past_u32_are_errors_not_wraps() {
        let send = Event {
            t_us: 0,
            kind: flow(FlowKind::Send, "boundary", 1, 2, 0, 10.0),
        };
        let iter = Event {
            t_us: 0,
            kind: EventKind::MergeIteration {
                rec: MergeIterationRecord {
                    iteration: 3,
                    merges: 4,
                    used_fallback: false,
                    active_edges: None,
                    compacted: None,
                },
            },
        };
        for (ev, field, value) in [
            (&send, "src", 1),
            (&send, "dst", 2),
            (&iter, "iter", 3),
            (&iter, "merges", 4),
        ] {
            let line = ev.to_line();
            assert_eq!(&Event::parse_line(&line).unwrap(), ev);
            let from = format!("\"{field}\":{value}");
            assert!(line.contains(&from), "{line}");
            // 2³² + value would wrap to `value` under `as u32`.
            let wide = line.replace(&from, &format!("\"{field}\":{}", (1u64 << 32) + value));
            let err = Event::parse_line(&wide).unwrap_err();
            assert!(err.message.contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn validator_rejects_broken_flow_schemas() {
        let mk = |t_us: u64, kind: EventKind| Event { t_us, kind };
        // A recv with no prior send.
        let orphan = vec![mk(0, flow(FlowKind::Recv, "boundary", 0, 1, 0, 5.0))];
        let err = validate_journal(&orphan).unwrap_err();
        assert!(err.message.contains("matching prior send"), "{err}");
        assert_eq!(flow_pairing(&orphan).unmatched_recvs, 1);
        // A send never received.
        let dangling = vec![mk(0, flow(FlowKind::Send, "boundary", 0, 1, 0, 5.0))];
        let err = validate_journal(&dangling).unwrap_err();
        assert!(err.message.contains("without a matching recv"), "{err}");
        let fp = flow_pairing(&dangling);
        assert_eq!(fp.unpaired_sends, 1);
        assert!(!fp.fully_paired());
        // Per-rank virtual clock regression (rank 0 records t_ns 9 after 10).
        let backwards = vec![
            mk(0, flow(FlowKind::Send, "a", 0, 1, 0, 10.0)),
            mk(1, flow(FlowKind::Send, "a", 0, 1, 1, 9.0)),
            mk(2, flow(FlowKind::Recv, "a", 0, 1, 0, 12.0)),
            mk(3, flow(FlowKind::Recv, "a", 0, 1, 1, 13.0)),
        ];
        let err = validate_journal(&backwards).unwrap_err();
        assert!(err.message.contains("virtual clock regressed"), "{err}");
        assert_eq!(flow_pairing(&backwards).clock_regressions, 1);
        // A run boundary resets rank clocks but in-flight sends across it
        // are an error.
        let cfg = Config::with_threshold(10);
        let run_start = EventKind::RunStart {
            engine: "mp".into(),
            width: 8,
            height: 8,
            config: ConfigRecord::of(&cfg),
        };
        let crossing = vec![
            mk(0, flow(FlowKind::Send, "a", 0, 1, 0, 10.0)),
            mk(1, run_start.clone()),
            mk(2, flow(FlowKind::Recv, "a", 0, 1, 0, 12.0)),
        ];
        let err = validate_journal(&crossing).unwrap_err();
        assert!(err.message.contains("run boundary"), "{err}");
        // ... while fully-paired runs back-to-back validate even though
        // rank clocks restart at zero.
        let stacked = vec![
            mk(0, run_start.clone()),
            mk(1, flow(FlowKind::Send, "a", 0, 1, 0, 10.0)),
            mk(2, flow(FlowKind::Recv, "a", 0, 1, 0, 12.0)),
            mk(3, run_start),
            mk(4, flow(FlowKind::Send, "a", 0, 1, 0, 1.0)),
            mk(5, flow(FlowKind::Recv, "a", 0, 1, 0, 2.0)),
        ];
        validate_journal(&stacked).unwrap();
        assert!(flow_pairing(&stacked).fully_paired());
    }

    #[test]
    fn one_stream_feeds_a_pair_of_optional_consumers() {
        let events = sample_events();
        let mut pair = (
            Some(JsonlWriter::new(Vec::new())),
            Some(EventVec::default()),
        );
        for ev in events.clone() {
            pair.emit(ev);
        }
        pair.flush_events();
        assert_eq!(pair.dropped(), 0);
        let (jsonl, memory) = pair;
        let text = String::from_utf8(std::mem::take(&mut jsonl.unwrap().out)).unwrap();
        assert_eq!(parse_journal_strict(&text).unwrap(), events);
        assert_eq!(memory.unwrap().events, events);
        // An absent consumer swallows events and reports no drops.
        let mut none: Option<EventVec> = None;
        none.emit(events[0].clone());
        assert_eq!(none.dropped(), 0);
    }

    #[test]
    fn jsonl_writer_bounded_buffer_and_drop_counter() {
        // A writer that fails after `ok_bytes` bytes.
        struct Flaky {
            written: Vec<u8>,
            ok_bytes: usize,
        }
        impl Write for Flaky {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.written.len() + buf.len() > self.ok_bytes {
                    return Err(io::Error::other("disk full"));
                }
                self.written.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        // Healthy path: per-line flushing (cap 0) writes every event.
        let mut w = JsonlWriter::with_buffer_cap(Vec::new(), 0);
        for ev in sample_events() {
            w.emit(ev);
        }
        assert_eq!(w.dropped(), 0);
        w.flush_events();
        let text = String::from_utf8(std::mem::take(&mut w.out)).unwrap();
        assert!(parse_journal_strict(&text).is_ok());
        drop(w);

        // Failing path: events are counted as dropped, never panicking.
        let flaky = Flaky {
            written: Vec::new(),
            ok_bytes: 0,
        };
        let mut w = JsonlWriter::with_buffer_cap(flaky, 0);
        let events = sample_events();
        let n = events.len() as u64;
        for ev in events {
            w.emit(ev);
        }
        assert_eq!(w.dropped(), n);
    }
}
