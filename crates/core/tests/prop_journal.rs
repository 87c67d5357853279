//! Property tests of the JSONL journal: a journal cut off at *any* byte —
//! the file a crashed or killed run leaves behind — must still parse
//! (tolerantly) into a prefix of the original event stream, replay into a
//! partial [`rg_core::TelemetryReport`], and export a valid Chrome trace,
//! all without panicking.

use proptest::prelude::*;
use rg_core::{
    chrome_trace, parse_journal, replay, segment_with_telemetry, validate_chrome_trace,
    validate_journal, Config, Event, EventLog, TieBreak,
};
use rg_imaging::synth;
use std::sync::OnceLock;

/// One real traced run (sequential engine, random-rects scene), rendered
/// to JSONL once and shared by every proptest case.
fn full_journal() -> &'static (Vec<Event>, String) {
    static CELL: OnceLock<(Vec<Event>, String)> = OnceLock::new();
    CELL.get_or_init(|| {
        let img = synth::random_rects(32, 24, 6, 11);
        let cfg = Config::with_threshold(18).tie_break(TieBreak::Random { seed: 5 });
        let mut log = EventLog::in_memory();
        segment_with_telemetry(&img, &cfg, &mut log);
        let events = log.into_events();
        let text: String = events.iter().map(Event::to_line).collect();
        assert!(
            events.len() > 20,
            "scene too simple to exercise the journal"
        );
        (events, text)
    })
}

#[test]
fn the_untruncated_journal_is_valid_and_replays() {
    let (events, text) = full_journal();
    let (parsed, stats) = parse_journal(text);
    assert!(!stats.truncated);
    assert_eq!(&parsed, events);
    validate_journal(&parsed).expect("engine journal must be balanced and strictly nested");
    let report = replay(&parsed);
    assert_eq!(report.engine, "seq");
    assert!(report.num_regions > 0);
}

proptest! {
    /// Cutting the journal at an arbitrary byte yields a clean prefix:
    /// tolerant parsing recovers exactly the complete leading lines,
    /// replay folds them into a partial report, and the Chrome exporter
    /// auto-closes whatever spans the cut left open.
    #[test]
    fn any_prefix_parses_replays_and_exports(cut in 0usize..=4096) {
        let (events, text) = full_journal();
        let cut = cut.min(text.len());
        let prefix = &text[..cut];

        let (parsed, stats) = parse_journal(prefix);
        // The parsed events are a strict prefix of the original stream —
        // a cut can only lose trailing lines, never corrupt earlier ones
        // or invent new ones.
        prop_assert!(parsed.len() <= events.len());
        prop_assert_eq!(&parsed[..], &events[..parsed.len()]);
        // A cut at a line boundary can never report truncation. (The
        // converse does not hold: cutting just *before* a newline leaves a
        // complete, parseable final line.)
        if cut == 0 || prefix.ends_with('\n') {
            prop_assert!(!stats.truncated);
            prop_assert_eq!(prefix.lines().count(), parsed.len());
        }

        // Replay never panics and keeps what it saw.
        let report = replay(&parsed);
        if !parsed.is_empty() {
            prop_assert_eq!(report.engine.as_str(), "seq");
        }
        prop_assert!(report.merge_iterations.len() <= replay(events).merge_iterations.len());

        // The Chrome export of a truncated journal is still schema-valid.
        let doc = chrome_trace(&parsed);
        prop_assert!(validate_chrome_trace(&doc).is_ok(), "chrome export invalid at cut {}", cut);
    }

    /// Same property measured in whole lines instead of bytes (exercises
    /// deep cuts across the entire journal, not just the first 4 KiB).
    #[test]
    fn any_line_prefix_replays(keep_permille in 0usize..=1000) {
        let (events, text) = full_journal();
        let lines: Vec<&str> = text.lines().collect();
        let keep = lines.len() * keep_permille / 1000;
        let prefix: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();

        let (parsed, stats) = parse_journal(&prefix);
        prop_assert!(!stats.truncated);
        prop_assert_eq!(parsed.len(), keep);
        prop_assert_eq!(&parsed[..], &events[..keep]);
        let report = replay(&parsed);
        let names: std::collections::BTreeSet<&str> =
            report.counters.iter().map(|(n, _)| n.as_str()).collect();
        prop_assert_eq!(names.len(), report.counters.len(), "replayed counter names repeat");
        prop_assert!(validate_chrome_trace(&chrome_trace(&parsed)).is_ok());
    }
}
