//! Chrome `trace_event` export: turns a journal event stream into the
//! Trace Event Format consumed by `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev) (open the file with *Open trace
//! file*).
//!
//! The export maps the journal's span tree onto duration events and its
//! counters onto counter tracks:
//!
//! * each *run* becomes one **process lane** (`pid` = run ordinal, process
//!   name = engine label), so a journal holding several engines' runs —
//!   e.g. `trace_convert a.jsonl b.jsonl` or one file with concatenated
//!   runs — renders as side-by-side lanes;
//! * span begin/end ([`EventKind::SpanBegin`] / [`EventKind::SpanEnd`])
//!   become `ph:"B"` / `ph:"E"` duration events on the run's main thread
//!   (`tid` 0, named `pipeline`);
//! * [`EventKind::MergeIteration`] feeds the `merges` and `active_edges`
//!   **counter tracks** (`ph:"C"`), [`EventKind::Counter`] feeds a track
//!   per counter name (the message-passing engine's cumulative
//!   `comm.bytes` among them);
//! * stage aggregates, split/merge outcomes, histograms, and `run_end`
//!   become instant events (`ph:"i"`) carrying their payload in `args`;
//! * causal flow records ([`EventKind::Flow`]) render on **per-rank thread
//!   lanes** (`tid` = rank + 1, named `rank N`): each matched send/recv
//!   pair becomes a flow arrow (`ph:"s"` → `ph:"f"`, bound by the string
//!   id `stream:src>dst:seq`), collective rendezvous waits become
//!   instants, and every rank feeds a `util:rankN` counter track with its
//!   cumulative busy share of the virtual clock.
//!
//! Timestamps are the journal's `t_us` (already microseconds, the unit the
//! format requires); flow events instead use their own **virtual** clock
//! (`t_ns / 1000`), so rank lanes show simulated time while the pipeline
//! lane shows host time. [`validate_chrome_trace`] checks a produced
//! document against the subset of the format this module emits — the CI
//! trace job and the schema tests run it on real engine output.

use std::collections::HashSet;

use crate::journal::{Event, EventKind};
use crate::json::Json;
use crate::telemetry::FlowKind;

/// The fixed `tid` every run's events land on (one thread lane per run).
const MAIN_TID: u64 = 0;

fn ev_base(ph: &str, name: &str, pid: u64, ts: u64) -> Vec<(&'static str, Json)> {
    vec![
        ("name", name.into()),
        ("ph", ph.into()),
        ("pid", pid.into()),
        ("tid", MAIN_TID.into()),
        ("ts", ts.into()),
    ]
}

fn metadata(name: &str, pid: u64, arg_name: &str) -> Json {
    Json::obj(vec![
        ("name", name.into()),
        ("ph", "M".into()),
        ("pid", pid.into()),
        ("tid", MAIN_TID.into()),
        ("ts", 0u64.into()),
        ("args", Json::obj(vec![("name", arg_name.into())])),
    ])
}

fn counter(name: &str, pid: u64, ts: u64, value: f64) -> Json {
    let mut o = ev_base("C", name, pid, ts);
    o.push(("args", Json::obj(vec![("value", value.into())])));
    Json::obj(o)
}

fn instant(name: &str, pid: u64, ts: u64, args: Vec<(&'static str, Json)>) -> Json {
    let mut o = ev_base("i", name, pid, ts);
    o.push(("s", "t".into())); // thread-scoped instant
    o.push(("args", Json::obj(args)));
    Json::obj(o)
}

/// Like [`ev_base`] but on an explicit rank lane with a fractional
/// (virtual-clock) timestamp — the base of every flow-record event.
fn lane_base(ph: &str, name: &str, pid: u64, tid: u64, ts: f64) -> Vec<(&'static str, Json)> {
    vec![
        ("name", name.into()),
        ("ph", ph.into()),
        ("pid", pid.into()),
        ("tid", tid.into()),
        ("ts", ts.into()),
    ]
}

/// Appends one run's trace events (process lane `pid`) to `out`.
///
/// The output is always `B`/`E`-balanced even when the journal is not: a
/// truncated journal (e.g. a run that panicked mid-flight) leaves spans
/// open, and those are closed here at the last observed timestamp; span
/// ends with no matching open begin are dropped. This keeps post-mortem
/// traces loadable and [`validate_chrome_trace`]-clean.
fn push_run(out: &mut Vec<Json>, events: &[Event], pid: u64) {
    let mut open_spans: Vec<String> = Vec::new();
    let mut last_ts = 0u64;
    // Flow-lane state: which ranks already have a named lane, each rank's
    // cumulative wait (for the utilization counter), and which flow ids
    // have an emitted `s` half (an `f` with no prior `s` would break the
    // binding, so unmatched receives fall back to instants).
    let mut rank_lanes: Vec<u32> = Vec::new();
    let mut rank_wait: Vec<(u32, f64)> = Vec::new();
    let mut sent_ids: HashSet<String> = HashSet::new();
    for ev in events {
        let ts = ev.t_us;
        last_ts = last_ts.max(ts);
        match &ev.kind {
            EventKind::RunStart {
                engine,
                width,
                height,
                ..
            } => {
                out.push(metadata("process_name", pid, engine));
                out.push(metadata("thread_name", pid, "pipeline"));
                out.push(instant(
                    "run_start",
                    pid,
                    ts,
                    vec![
                        ("engine", engine.as_str().into()),
                        ("width", (*width).into()),
                        ("height", (*height).into()),
                    ],
                ));
            }
            EventKind::SpanBegin { span } => {
                open_spans.push(span.label());
                out.push(Json::obj(ev_base("B", &span.label(), pid, ts)));
            }
            EventKind::SpanEnd { span } => {
                // Only emit an E that matches the innermost open B; an
                // orphan end (malformed journal) is dropped to keep the
                // trace balanced.
                if open_spans.last().map(String::as_str) == Some(span.label().as_str()) {
                    open_spans.pop();
                    out.push(Json::obj(ev_base("E", &span.label(), pid, ts)));
                }
            }
            EventKind::Stage { span } => {
                let mut args: Vec<(&'static str, Json)> =
                    vec![("wall_seconds", span.wall_seconds.into())];
                if let Some(sim) = span.sim_seconds {
                    args.push(("sim_seconds", sim.into()));
                }
                out.push(instant(
                    &format!("stage_done:{}", span.stage.name()),
                    pid,
                    ts,
                    args,
                ));
            }
            EventKind::SplitDone {
                iterations,
                num_squares,
            } => {
                out.push(instant(
                    "split_done",
                    pid,
                    ts,
                    vec![
                        ("iterations", (*iterations).into()),
                        ("num_squares", (*num_squares).into()),
                    ],
                ));
            }
            EventKind::MergeIteration { rec } => {
                out.push(counter("merges", pid, ts, f64::from(rec.merges)));
                if let Some(a) = rec.active_edges {
                    out.push(counter("active_edges", pid, ts, a as f64));
                }
            }
            EventKind::MergeDone { num_regions } => {
                out.push(instant(
                    "merge_done",
                    pid,
                    ts,
                    vec![("num_regions", (*num_regions).into())],
                ));
            }
            EventKind::Comm { rec } => {
                out.push(instant(
                    "comm_totals",
                    pid,
                    ts,
                    vec![
                        ("scheme", rec.scheme.as_str().into()),
                        ("nodes", rec.nodes.into()),
                        ("rounds", rec.rounds.into()),
                        ("messages", rec.messages.into()),
                        ("bytes", rec.bytes.into()),
                    ],
                ));
            }
            EventKind::Fault { rec } => {
                out.push(instant(
                    &format!("fault:{}", rec.kind),
                    pid,
                    ts,
                    vec![
                        ("src", rec.src.into()),
                        ("dst", rec.dst.into()),
                        ("seq", rec.seq.into()),
                        ("ts_ns", rec.ts_ns.into()),
                    ],
                ));
            }
            EventKind::Counter { name, value } => {
                out.push(counter(name, pid, ts, *value));
            }
            EventKind::Histogram { name, hist } => {
                let mut args: Vec<(&'static str, Json)> = vec![
                    ("count", hist.count().into()),
                    ("sum", hist.sum().min(1u64 << 53).into()),
                ];
                if let Some(m) = hist.mean() {
                    args.push(("mean", m.into()));
                }
                if let Some(m) = hist.max() {
                    args.push(("max", m.min(1u64 << 53).into()));
                }
                out.push(instant(&format!("hist:{name}"), pid, ts, args));
            }
            EventKind::RunEnd { dropped } => {
                out.push(instant(
                    "run_end",
                    pid,
                    ts,
                    vec![("dropped", (*dropped).into())],
                ));
            }
            EventKind::Flow { rec } => {
                let rank = rec.rank();
                let tid = u64::from(rank) + 1;
                if !rank_lanes.contains(&rank) {
                    rank_lanes.push(rank);
                    let mut m = lane_base("M", "thread_name", pid, tid, 0.0);
                    m.push((
                        "args",
                        Json::obj(vec![("name", format!("rank {rank}").into())]),
                    ));
                    out.push(Json::obj(m));
                }
                let vts = rec.t_ns / 1000.0; // virtual ns -> us
                let id = format!("{}:{}>{}:{}", rec.stream, rec.src, rec.dst, rec.seq);
                let name = format!("msg:{}", rec.stream);
                match rec.kind {
                    FlowKind::Send => {
                        let mut o = lane_base("s", &name, pid, tid, vts);
                        sent_ids.insert(id.clone());
                        o.push(("id", id.into()));
                        o.push((
                            "args",
                            Json::obj(vec![
                                ("bytes", rec.bytes.into()),
                                ("retry_wait_ns", rec.wait_ns.into()),
                            ]),
                        ));
                        out.push(Json::obj(o));
                    }
                    FlowKind::Recv => {
                        if sent_ids.contains(&id) {
                            let mut o = lane_base("f", &name, pid, tid, vts);
                            o.push(("bp", "e".into())); // bind to enclosing slice
                            o.push(("id", id.into()));
                            o.push((
                                "args",
                                Json::obj(vec![
                                    ("bytes", rec.bytes.into()),
                                    ("wait_ns", rec.wait_ns.into()),
                                ]),
                            ));
                            out.push(Json::obj(o));
                        } else {
                            // Truncated journal lost the send half; keep the
                            // trace loadable with an instant instead.
                            let mut o = lane_base("i", &name, pid, tid, vts);
                            o.push(("s", "t".into()));
                            o.push((
                                "args",
                                Json::obj(vec![
                                    ("bytes", rec.bytes.into()),
                                    ("wait_ns", rec.wait_ns.into()),
                                ]),
                            ));
                            out.push(Json::obj(o));
                        }
                    }
                    FlowKind::Collective => {
                        if rec.wait_ns > 0.0 {
                            let mut o =
                                lane_base("i", &format!("coll_wait:{}", rec.stream), pid, tid, vts);
                            o.push(("s", "t".into()));
                            o.push(("args", Json::obj(vec![("wait_ns", rec.wait_ns.into())])));
                            out.push(Json::obj(o));
                        }
                    }
                }
                // Utilization counter: busy share of this rank's virtual
                // clock so far.
                let w = match rank_wait.iter_mut().find(|(r, _)| *r == rank) {
                    Some((_, w)) => w,
                    None => {
                        rank_wait.push((rank, 0.0));
                        &mut rank_wait.last_mut().expect("just pushed").1
                    }
                };
                *w += rec.wait_ns;
                if rec.t_ns > 0.0 {
                    let util = 100.0 * (rec.t_ns - *w).max(0.0) / rec.t_ns;
                    let mut o = lane_base("C", &format!("util:rank{rank}"), pid, tid, vts);
                    o.push(("args", Json::obj(vec![("value", util.into())])));
                    out.push(Json::obj(o));
                }
            }
        }
    }
    // Close anything the journal left open (truncated / panicked run) at
    // the last observed timestamp, innermost first.
    while let Some(label) = open_spans.pop() {
        out.push(Json::obj(ev_base("E", &label, pid, last_ts)));
    }
}

/// Splits a journal stream into runs (each *top-level* `run_start` opens
/// a new one); events before the first boundary form a run of their own.
///
/// A `run_start` emitted while spans are open is **not** a boundary: the
/// batch (`batch` > `image:<i>`) and tiled (`tiled` > `tile:<i>`) runtimes
/// wrap many driver runs in outer spans, and cutting there would slice
/// those spans across chunks, breaking span balance in every piece.
pub fn split_runs(events: &[Event]) -> Vec<&[Event]> {
    let mut depth = 0usize;
    let mut starts: Vec<usize> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        match e.kind {
            EventKind::RunStart { .. } if depth == 0 => starts.push(i),
            EventKind::SpanBegin { .. } => depth += 1,
            EventKind::SpanEnd { .. } => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    if starts.first() != Some(&0) {
        starts.insert(0, 0);
    }
    starts
        .iter()
        .enumerate()
        .map(|(k, &s)| {
            let end = starts.get(k + 1).copied().unwrap_or(events.len());
            &events[s..end]
        })
        .filter(|r| !r.is_empty())
        .collect()
}

/// Converts journal events into a Chrome Trace Event Format document.
///
/// Each run in the stream gets its own process lane (`pid` = run ordinal,
/// starting at 1). The result is the JSON-object flavour of the format:
/// `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
pub fn chrome_trace(events: &[Event]) -> Json {
    chrome_trace_multi(&split_runs(events))
}

/// Converts several journals (one per process lane) into one document —
/// the per-engine side-by-side view.
pub fn chrome_trace_multi(runs: &[&[Event]]) -> Json {
    let mut out = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        push_run(&mut out, run, i as u64 + 1);
    }
    Json::obj(vec![
        ("traceEvents", Json::Arr(out)),
        ("displayTimeUnit", "ms".into()),
    ])
}

/// Validates a document against the subset of the Trace Event Format this
/// module emits: the top-level shape, per-event required fields, known
/// phase codes, per-`pid` `B`/`E` balance with LIFO matching by name, and
/// flow binding (every `ph:"f"` finish must name an id with a prior
/// `ph:"s"` start in the same process lane).
pub fn validate_chrome_trace(doc: &Json) -> Result<(), String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    // Per-pid stack of open duration-event names.
    let mut open: Vec<(u64, Vec<String>)> = Vec::new();
    // Flow ids with an emitted start half, per pid.
    let mut flow_starts: HashSet<(u64, String)> = HashSet::new();
    for (i, ev) in events.iter().enumerate() {
        let ctx = |what: &str| format!("traceEvents[{i}]: {what}");
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing name"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing ph"))?;
        let pid = ev
            .get("pid")
            .and_then(Json::as_u64)
            .ok_or_else(|| ctx("missing pid"))?;
        ev.get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| ctx("missing tid"))?;
        ev.get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| ctx("missing ts"))?;
        let stack = match open.iter_mut().find(|(p, _)| *p == pid) {
            Some((_, s)) => s,
            None => {
                open.push((pid, Vec::new()));
                &mut open.last_mut().expect("just pushed").1
            }
        };
        match ph {
            "B" => stack.push(name.to_string()),
            "E" => match stack.pop() {
                Some(top) if top == name => {}
                Some(top) => {
                    return Err(ctx(&format!(
                        "E {name:?} does not match open B {top:?} (pid {pid})"
                    )))
                }
                None => return Err(ctx(&format!("E {name:?} with no open B (pid {pid})"))),
            },
            "C" => {
                ev.get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| ctx("counter event missing args.value"))?;
            }
            "i" => {
                ev.get("args").ok_or_else(|| ctx("instant missing args"))?;
            }
            "M" => {
                ev.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .ok_or_else(|| ctx("metadata missing args.name"))?;
            }
            "s" => {
                let id = ev
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ctx("flow start missing id"))?;
                flow_starts.insert((pid, id.to_string()));
            }
            "f" => {
                let id = ev
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ctx("flow finish missing id"))?;
                if !flow_starts.contains(&(pid, id.to_string())) {
                    return Err(ctx(&format!(
                        "flow finish id {id:?} has no prior start (pid {pid})"
                    )));
                }
            }
            other => return Err(ctx(&format!("unknown phase {other:?}"))),
        }
    }
    for (pid, stack) in &open {
        if let Some(top) = stack.last() {
            return Err(format!(
                "pid {pid}: {} duration event(s) left open (innermost {top:?})",
                stack.len()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, TieBreak};
    use crate::telemetry::{MergeIterationRecord, SpanKind, Stage, StageSpan, Telemetry};

    fn traced_run(engine: &str) -> Vec<Event> {
        let cfg = Config::with_threshold(8).tie_break(TieBreak::SmallestId);
        let mut log = crate::journal::EventLog::in_memory();
        let tel: &mut dyn Telemetry = &mut log;
        tel.run_start(engine, 32, 32, &cfg);
        tel.span_begin(SpanKind::Run);
        tel.span_begin(SpanKind::Stage(Stage::Merge));
        tel.span_begin(SpanKind::MergeIteration(0));
        tel.merge_iteration(MergeIterationRecord {
            iteration: 0,
            merges: 4,
            used_fallback: false,
            active_edges: Some(10),
            compacted: None,
        });
        tel.span_end(SpanKind::MergeIteration(0));
        tel.span_end(SpanKind::Stage(Stage::Merge));
        tel.stage(StageSpan {
            stage: Stage::Merge,
            wall_seconds: 0.25,
            sim_seconds: Some(0.5),
        });
        tel.counter("comm.bytes", 1024.0);
        tel.merge_done(3);
        tel.span_end(SpanKind::Run);
        tel.run_end();
        log.into_events()
    }

    #[test]
    fn export_validates_and_has_expected_tracks() {
        let events = traced_run("seq");
        let doc = chrome_trace(&events);
        validate_chrome_trace(&doc).unwrap();
        let arr = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> = arr
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.contains(&"process_name"));
        assert!(names.contains(&"run"));
        assert!(names.contains(&"stage:merge"));
        assert!(names.contains(&"iter:0"));
        assert!(names.contains(&"merges"));
        assert!(names.contains(&"active_edges"));
        assert!(names.contains(&"comm.bytes"));
        assert!(names.contains(&"run_end"));
        // The document parses back from text (what the CLI writes).
        let reparsed = Json::parse(&doc.to_pretty()).unwrap();
        validate_chrome_trace(&reparsed).unwrap();
    }

    #[test]
    fn multiple_runs_get_distinct_process_lanes() {
        let mut stream = traced_run("seq");
        stream.extend(traced_run("msgpass:Async:4"));
        let runs = split_runs(&stream);
        assert_eq!(runs.len(), 2);
        let doc = chrome_trace(&stream);
        validate_chrome_trace(&doc).unwrap();
        let arr = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let pids: std::collections::BTreeSet<u64> = arr
            .iter()
            .filter_map(|e| e.get("pid").and_then(Json::as_u64))
            .collect();
        assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn truncated_journal_exports_balanced_trace() {
        let mut events = traced_run("seq");
        // Cut the journal mid-flight: drop the trailing run_end, span ends.
        events.truncate(4); // run_start, B run, B stage:merge, B iter:0
        let doc = chrome_trace(&events);
        // Auto-closed spans keep the export valid post-mortem.
        validate_chrome_trace(&doc).unwrap();
        let arr = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let ends: Vec<&str> = arr
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("E"))
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(ends, vec!["iter:0", "stage:merge", "run"]);
    }

    fn flow_event(kind: FlowKind, src: u32, dst: u32, t_ns: f64, wait_ns: f64) -> Event {
        Event {
            t_us: 0,
            kind: EventKind::Flow {
                rec: crate::telemetry::FlowRecord {
                    kind,
                    stream: "boundary".to_string(),
                    src,
                    dst,
                    seq: 0,
                    bytes: 64,
                    t_ns,
                    wait_ns,
                },
            },
        }
    }

    #[test]
    fn flow_records_export_as_bound_arrows_on_rank_lanes() {
        let mut events = traced_run("msgpass");
        let end = events.pop().expect("run_end"); // keep flows inside the run
        events.push(flow_event(FlowKind::Send, 0, 1, 100.0, 0.0));
        events.push(flow_event(FlowKind::Recv, 0, 1, 130.0, 20.0));
        events.push(flow_event(FlowKind::Collective, 1, 1, 150.0, 5.0));
        events.push(end);
        let doc = chrome_trace(&events);
        validate_chrome_trace(&doc).unwrap();
        let arr = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let phase_of = |ph: &str| -> Vec<&Json> {
            arr.iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
                .collect()
        };
        let starts = phase_of("s");
        let finishes = phase_of("f");
        assert_eq!(starts.len(), 1);
        assert_eq!(finishes.len(), 1);
        assert_eq!(
            starts[0].get("id").and_then(Json::as_str),
            Some("boundary:0>1:0")
        );
        assert_eq!(
            finishes[0].get("id").and_then(Json::as_str),
            Some("boundary:0>1:0")
        );
        // Send on rank 0's lane (tid 1), recv on rank 1's (tid 2).
        assert_eq!(starts[0].get("tid").and_then(Json::as_u64), Some(1));
        assert_eq!(finishes[0].get("tid").and_then(Json::as_u64), Some(2));
        let names: Vec<&str> = arr
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.contains(&"coll_wait:boundary"));
        assert!(names.contains(&"util:rank0"));
        assert!(names.contains(&"util:rank1"));
        // The rank lanes are named.
        let lane_names: Vec<&str> = arr
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
            })
            .collect();
        assert!(lane_names.contains(&"rank 0"));
        assert!(lane_names.contains(&"rank 1"));
    }

    #[test]
    fn orphan_recv_degrades_to_instant_and_still_validates() {
        // A truncated journal that lost the send half: no `f` without `s`.
        let events = vec![flow_event(FlowKind::Recv, 0, 1, 130.0, 20.0)];
        let doc = chrome_trace(&events);
        validate_chrome_trace(&doc).unwrap();
        let arr = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(!arr
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("f")));
    }

    #[test]
    fn validator_rejects_unbound_flow_finish() {
        let doc = Json::obj(vec![(
            "traceEvents",
            Json::Arr(vec![Json::obj(vec![
                ("name", "msg:x".into()),
                ("ph", "f".into()),
                ("pid", 1u64.into()),
                ("tid", 1u64.into()),
                ("ts", 0u64.into()),
                ("id", "x:0>1:0".into()),
            ])]),
        )]);
        let err = validate_chrome_trace(&doc).unwrap_err();
        assert!(err.contains("no prior start"), "{err}");
    }

    #[test]
    fn validator_rejects_unbalanced_durations() {
        let doc = Json::obj(vec![(
            "traceEvents",
            Json::Arr(vec![Json::obj(vec![
                ("name", "run".into()),
                ("ph", "B".into()),
                ("pid", 1u64.into()),
                ("tid", 0u64.into()),
                ("ts", 0u64.into()),
            ])]),
        )]);
        assert!(validate_chrome_trace(&doc).is_err());
        assert!(validate_chrome_trace(&Json::obj(vec![])).is_err());
    }
}
