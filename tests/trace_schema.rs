//! End-to-end trace schema acceptance: every engine, run with a streaming
//! JSONL sink, must produce a journal whose spans are balanced and
//! strictly nested, whose event kinds are all known, and whose Chrome
//! export passes the format validator — and the disabled
//! [`NullTelemetry`]-style path must stay event-free (zero-cost).

use cm_sim::CostModel;
use cmmd_sim::{CommScheme, FaultPlan};
use rg_core::{
    chrome_trace, chrome_trace_multi, parse_journal, parse_journal_strict, replay, run_batch,
    split_runs, validate_chrome_trace, validate_journal, BatchOptions, Config, Event, EventKind,
    EventLog, HostPipeline, Recorder, SpanKind, Telemetry, TieBreak, TileGrid, TiledRunner,
};
use rg_imaging::{synth, GrayImage};

/// Runs one engine into `tel`.
fn run_engine(engine: &str, img: &GrayImage, cfg: &Config, tel: &mut dyn Telemetry) {
    match engine {
        "seq" => {
            rg_core::segment_with_telemetry(img, cfg, tel);
        }
        "cm2-8k" => {
            rg_datapar::segment_datapar_with_telemetry(img, cfg, CostModel::cm2_8k(), tel);
        }
        "mp-lp" => {
            rg_msgpass::segment_msgpass_with_telemetry(
                img,
                cfg,
                8,
                CommScheme::LinearPermutation,
                tel,
            );
        }
        "mp-async" => {
            rg_msgpass::segment_msgpass_with_telemetry(img, cfg, 8, CommScheme::Async, tel);
        }
        other => panic!("unknown engine {other}"),
    }
}

/// Runs one engine with an in-memory event log and returns the stream.
fn traced(engine: &str, img: &GrayImage, cfg: &Config) -> Vec<Event> {
    let mut log = EventLog::in_memory();
    run_engine(engine, img, cfg, &mut log);
    log.into_events()
}

const ALL_ENGINES: &[&str] = &["seq", "cm2-8k", "mp-lp", "mp-async"];

fn scene() -> (rg_imaging::GrayImage, Config) {
    (
        synth::circle_collection(64),
        Config::with_threshold(10).tie_break(TieBreak::Random { seed: 0x5EED }),
    )
}

/// The acceptance criterion: the JSONL journal of a traced run is
/// balanced, strictly nested, monotonic, and round-trips through text.
#[test]
fn every_engine_journal_is_balanced_and_strictly_nested() {
    let (img, cfg) = scene();
    for engine in ALL_ENGINES {
        let events = traced(engine, &img, &cfg);
        assert!(
            events.len() > 10,
            "{engine}: suspiciously small journal ({} events)",
            events.len()
        );
        validate_journal(&events).unwrap_or_else(|e| panic!("{engine}: invalid journal: {e:?}"));

        // Round-trip through JSONL text, as `--trace-out` would write it.
        let text: String = events.iter().map(Event::to_line).collect();
        let (parsed, stats) = parse_journal(&text);
        assert!(!stats.truncated, "{engine}");
        assert_eq!(parsed, events, "{engine}: JSONL round trip lost events");

        // A replayed journal reproduces the recorded report semantics.
        let report = replay(&events);
        assert!(report.num_regions > 0, "{engine}");
        assert!(
            !report.engine.is_empty(),
            "{engine}: replay lost the engine label"
        );
    }
}

/// Runs one case of [`live_report_equals_replayed_report`] into `tel`: an
/// engine name, `tiled`, `batch`, or `chaos <spec>`.
fn run_case(case: &str, img: &GrayImage, cfg: &Config, tel: &mut dyn Telemetry) {
    match case {
        "tiled" => {
            TiledRunner::new(*cfg, false, TileGrid::new(2, 2), 1).run(img, tel);
        }
        "batch" => {
            let images = [img.clone(), synth::nested_rects(64)];
            let opts = BatchOptions::new().jobs(1);
            let pipe = || Box::new(HostPipeline::<u8>::new(*cfg, false)) as _;
            run_batch(&images, &opts, pipe, tel, |_, _| {});
        }
        _ => match case.strip_prefix("chaos ") {
            Some(spec) => {
                let plan = FaultPlan::parse(spec).expect("valid spec");
                rg_msgpass::segment_msgpass_chaos_with_telemetry(
                    img,
                    cfg,
                    4,
                    CommScheme::Async,
                    &plan,
                    tel,
                );
            }
            None => run_engine(case, img, cfg, tel),
        },
    }
}

/// `Recorder` and `replay` share one fold, so the report built live equals
/// the report replayed from the JSONL text of the same run: for every
/// engine, the tiled and batch runtimes, and a chaos run that survives and
/// one that degrades.
#[test]
fn live_report_equals_replayed_report() {
    let (img, cfg) = scene();
    let more = ["tiled", "batch", "chaos 1:drop", "chaos 7:blackhole"];
    for case in ALL_ENGINES.iter().copied().chain(more) {
        let mut rec = Recorder::new();
        run_case(case, &img, &cfg, &mut rec);
        let mut log = EventLog::in_memory();
        run_case(case, &img, &cfg, &mut log);
        let text: String = log.events().iter().map(Event::to_line).collect();
        let replayed = replay(&parse_journal_strict(&text).expect("strict parse"));
        let live = rec.report();
        assert_eq!(
            live.without_wall_times().to_json_pretty(),
            replayed.without_wall_times().to_json_pretty(),
            "{case}: live and replayed reports differ"
        );
        assert_eq!(live.degraded, case == "chaos 7:blackhole", "{case}");
    }
}

/// Every event kind an engine can emit is in the known tag set — CI fails
/// here first when someone adds a kind without extending the schema.
#[test]
fn every_emitted_event_kind_is_known() {
    const KNOWN: &[&str] = &[
        "run_start",
        "b",
        "e",
        "stage",
        "split_done",
        "merge_iter",
        "merge_done",
        "comm",
        "counter",
        "hist",
        "run_end",
        "send",
        "recv",
        "coll",
    ];
    let (img, cfg) = scene();
    for engine in ALL_ENGINES {
        for ev in traced(engine, &img, &cfg) {
            assert!(
                KNOWN.contains(&ev.kind.tag()),
                "{engine}: unknown event kind {:?}",
                ev.kind.tag()
            );
        }
    }
}

/// The message-passing engines nest comm rounds inside merge iterations
/// and emit the comm counter tracks; the Chrome export validates.
#[test]
fn msgpass_journal_has_comm_rounds_and_counters() {
    let (img, cfg) = scene();
    let events = traced("mp-lp", &img, &cfg);
    let mut saw_comm_round_inside_iter = false;
    let mut depth_iter = 0i32;
    let mut counters = std::collections::BTreeSet::new();
    for ev in &events {
        match &ev.kind {
            EventKind::SpanBegin { span } => match span {
                SpanKind::MergeIteration(_) => depth_iter += 1,
                SpanKind::CommRound(_) => {
                    assert!(depth_iter > 0, "comm round outside a merge iteration");
                    saw_comm_round_inside_iter = true;
                }
                _ => {}
            },
            EventKind::SpanEnd { span } => {
                if matches!(span, SpanKind::MergeIteration(_)) {
                    depth_iter -= 1;
                }
            }
            EventKind::Counter { name, .. } => {
                counters.insert(name.clone());
            }
            _ => {}
        }
    }
    assert!(saw_comm_round_inside_iter);
    for want in ["comm.rounds", "comm.messages", "comm.bytes"] {
        assert!(counters.contains(want), "missing counter track {want}");
    }

    let doc = chrome_trace(&events);
    validate_chrome_trace(&doc).expect("chrome export of mp-lp journal");
}

/// Traced msgpass runs carry causal flow events, fully paired; the Chrome
/// export renders them as bound flow arrows and still validates. Host
/// engines' journals stay flow-free (backward compatibility).
#[test]
fn msgpass_journal_carries_paired_flows() {
    use rg_core::json::Json;
    let (img, cfg) = scene();
    let events = traced("mp-async", &img, &cfg);
    let fp = rg_core::flow_pairing(&events);
    assert!(fp.any(), "traced msgpass journal must carry flow events");
    assert!(fp.fully_paired(), "{fp:?}");
    let doc = chrome_trace(&events);
    validate_chrome_trace(&doc).unwrap();
    let arr = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let has_ph = |ph: &str| {
        arr.iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
    };
    assert!(has_ph("s"), "flow arrows missing their start half");
    assert!(has_ph("f"), "flow arrows missing their finish half");
    let host = traced("seq", &img, &cfg);
    assert!(!rg_core::flow_pairing(&host).any());
}

/// Chrome export of all engines at once: one process lane per engine.
#[test]
fn chrome_export_gives_each_engine_a_process_lane() {
    let (img, cfg) = scene();
    let streams: Vec<Vec<Event>> = ALL_ENGINES.iter().map(|e| traced(e, &img, &cfg)).collect();
    let mut concat: Vec<Event> = Vec::new();
    for s in &streams {
        concat.extend(s.iter().cloned());
    }
    assert_eq!(split_runs(&concat).len(), ALL_ENGINES.len());
    let refs: Vec<&[Event]> = streams.iter().map(Vec::as_slice).collect();
    let doc = chrome_trace_multi(&refs);
    validate_chrome_trace(&doc).unwrap();
    let arr = doc
        .get("traceEvents")
        .and_then(rg_core::json::Json::as_arr)
        .unwrap();
    let pids: std::collections::BTreeSet<u64> = arr
        .iter()
        .filter_map(|e| e.get("pid").and_then(rg_core::json::Json::as_u64))
        .collect();
    assert_eq!(pids.len(), ALL_ENGINES.len());
    // Histogram instants made it into the export for every engine.
    let hist_instants = arr
        .iter()
        .filter_map(|e| e.get("name").and_then(rg_core::json::Json::as_str))
        .filter(|n| n.starts_with("hist:region_size_px"))
        .count();
    assert_eq!(hist_instants, ALL_ENGINES.len());
}

/// A disabled sink must see *no* per-event traffic: the engines check
/// `enabled()` once and skip every span, record, counter, and histogram.
/// This is the zero-cost guarantee that keeps `NullTelemetry` free. Every
/// typed call ends in `event` by default, so overriding `event` alone
/// catches all thirteen kinds.
struct DisabledPanicSink;

impl Telemetry for DisabledPanicSink {
    fn enabled(&self) -> bool {
        false
    }
    fn event(&mut self, kind: EventKind) {
        panic!("{kind:?} reached a disabled sink");
    }
}

#[test]
fn disabled_sink_sees_no_events_on_any_engine() {
    let (img, cfg) = scene();
    let mut sink = DisabledPanicSink;
    rg_core::segment_with_telemetry(&img, &cfg, &mut sink);
    rg_datapar::segment_datapar_with_telemetry(&img, &cfg, CostModel::cm2_8k(), &mut sink);
    rg_msgpass::segment_msgpass_with_telemetry(
        &img,
        &cfg,
        8,
        CommScheme::LinearPermutation,
        &mut sink,
    );
    // Reaching here without a panic proves no event call escaped the
    // enabled() gate.
}

/// The traced and untraced runs produce bit-identical segmentations.
#[test]
fn tracing_does_not_change_the_segmentation() {
    let (img, cfg) = scene();
    let plain = rg_core::segment(&img, &cfg);
    let mut log = EventLog::in_memory();
    let traced_seg = rg_core::segment_with_telemetry(&img, &cfg, &mut log);
    assert_eq!(plain, traced_seg);
}
