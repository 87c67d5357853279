//! The benchmark's own telemetry sink: it timestamps the spans the stage
//! driver already emits and collects the counters the program already
//! reports, then folds one call's spans into per-layer times.
//!
//! Spans are kept in memory during a call and folded after the timer has
//! stopped. A span's self time is its duration minus the time its child
//! spans cover.

use rg_core::{MergeIterationRecord, SpanKind, Stage, Telemetry};
use std::time::Instant;

#[derive(Clone, Copy)]
struct Stamp {
    kind: SpanKind,
    begin: bool,
    at: Instant,
}

/// Work counters of one call, summed over its runs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub split_iterations: f64,
    pub squares: f64,
    pub cells_folded: f64,
    pub words_tested: f64,
    pub merge_iterations: f64,
    pub merges: f64,
    pub productive_iterations: f64,
    pub fallback_iterations: f64,
    pub compactions: f64,
    pub seam_edges: f64,
    pub stitch_merges: f64,
    pub stitch_iterations: f64,
}

impl Counts {
    fn fields(&mut self) -> [&mut f64; 12] {
        [
            &mut self.split_iterations,
            &mut self.squares,
            &mut self.cells_folded,
            &mut self.words_tested,
            &mut self.merge_iterations,
            &mut self.merges,
            &mut self.productive_iterations,
            &mut self.fallback_iterations,
            &mut self.compactions,
            &mut self.seam_edges,
            &mut self.stitch_merges,
            &mut self.stitch_iterations,
        ]
    }

    /// Field-wise sum, for averaging over a rotation of calls.
    pub fn add(&mut self, other: &Counts) {
        let mut other = *other;
        for (a, b) in self.fields().into_iter().zip(other.fields()) {
            *a += *b;
        }
    }

    /// Multiplies every field by `f`.
    pub fn scale(&mut self, f: f64) {
        for a in self.fields() {
            *a *= f;
        }
    }
}

/// Per-layer seconds of one call.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub split: f64,
    pub graph: f64,
    pub merge: f64,
    pub choice: f64,
    pub apply: f64,
    pub compact: f64,
    pub label: f64,
    /// `run` spans, summed.
    pub run: f64,
    /// `run` self time: the driver's own work between and after stages.
    pub driver: f64,
    pub stitch: f64,
    /// One entry per part of the call: each `tile:i` of a tiled call, each
    /// `image:i` of a batch, each top-level `run` otherwise.
    pub parts: Vec<f64>,
}

impl Layers {
    /// Sum of the four stage spans.
    pub fn stages(&self) -> f64 {
        self.split + self.graph + self.merge + self.label
    }
}

/// Records span stamps and counters for one call at a time.
pub struct StampSink {
    stamps: Vec<Stamp>,
    pub counts: Counts,
}

impl StampSink {
    pub fn new() -> Self {
        Self {
            stamps: Vec::with_capacity(1 << 16),
            counts: Counts::default(),
        }
    }

    /// Forgets the previous call (keeps the stamp buffer's capacity).
    pub fn clear(&mut self) {
        self.stamps.clear();
        self.counts = Counts::default();
    }

    /// Folds the recorded stamps into per-layer seconds.
    pub fn fold(&self) -> Layers {
        let mut l = Layers::default();
        // (kind, begin, seconds covered by direct children)
        let mut open: Vec<(SpanKind, Instant, f64)> = Vec::new();
        for s in &self.stamps {
            if s.begin {
                open.push((s.kind, s.at, 0.0));
                continue;
            }
            let (kind, at, children) = open.pop().expect("span ends match begins");
            debug_assert_eq!(kind, s.kind, "spans nest strictly");
            let dur = s.at.duration_since(at).as_secs_f64();
            if let Some(parent) = open.last_mut() {
                parent.2 += dur;
            }
            match kind {
                SpanKind::Stage(Stage::Split) => l.split += dur,
                SpanKind::Stage(Stage::Graph) => l.graph += dur,
                SpanKind::Stage(Stage::Merge) => l.merge += dur,
                SpanKind::Stage(Stage::Label) => l.label += dur,
                SpanKind::Choice => l.choice += dur,
                SpanKind::Apply => l.apply += dur,
                SpanKind::Compact => l.compact += dur,
                SpanKind::Run => {
                    l.run += dur;
                    l.driver += dur - children;
                    if open.is_empty() {
                        l.parts.push(dur);
                    }
                }
                SpanKind::Tile(_) | SpanKind::BatchImage(_) => l.parts.push(dur),
                SpanKind::Stitch => l.stitch += dur,
                _ => {}
            }
        }
        l
    }

    fn stamp(&mut self, kind: SpanKind, begin: bool) {
        self.stamps.push(Stamp {
            kind,
            begin,
            at: Instant::now(),
        });
    }
}

impl Telemetry for StampSink {
    fn span_begin(&mut self, kind: SpanKind) {
        self.stamp(kind, true);
    }

    fn span_end(&mut self, kind: SpanKind) {
        self.stamp(kind, false);
    }

    fn split_done(&mut self, iterations: u32, num_squares: usize) {
        self.counts.split_iterations += f64::from(iterations);
        self.counts.squares += num_squares as f64;
    }

    fn merge_iteration(&mut self, rec: MergeIterationRecord) {
        let c = &mut self.counts;
        c.merge_iterations += 1.0;
        c.merges += f64::from(rec.merges);
        c.productive_iterations += f64::from(u8::from(rec.merges > 0));
        c.fallback_iterations += f64::from(u8::from(rec.used_fallback));
        c.compactions += f64::from(u8::from(rec.compacted == Some(true)));
    }

    fn counter(&mut self, name: &str, value: f64) {
        let c = &mut self.counts;
        match name {
            "split.cells_folded" => c.cells_folded += value,
            "split.words_tested" => c.words_tested += value,
            "tiles.seam_edges" => c.seam_edges += value,
            "tiles.stitch_merges" => c.stitch_merges += value,
            "tiles.stitch_iterations" => c.stitch_iterations += value,
            _ => {}
        }
    }
}
