//! `trace_analyze` — post-mortem causal analysis of a traced journal.
//!
//! Reads a JSONL event journal (written by `rgrow --trace-out` with the
//! message-passing engine), reconstructs the cross-rank message DAG from
//! its flow events, and reports the critical path, per-rank busy/idle
//! timelines, load imbalance, straggler ranks, per-edge wait attribution,
//! and communication/computation overlap.
//!
//! ```text
//! trace_analyze <journal.jsonl|-> [--json PATH|-] [--bench PATH] [--strict]
//!
//!   <journal.jsonl|->   input journal; `-` reads from stdin
//!   --json PATH|-       also write the analysis as JSON (`-` = stdout,
//!                       suppressing the human report)
//!   --bench PATH        also write a `bench-merge-v1` document whose rows
//!                       carry `critical_path_us` / `imbalance_pct`, so
//!                       `bench_record diff` can gate on them
//!   --strict            fail on the first malformed journal line instead
//!                       of tolerating a truncated tail
//! ```
//!
//! Exit status: 0 on success; 1 when the journal cannot be read, holds no
//! flow events at all, or any run violates the analyzer's structural
//! invariants (critical path ≤ wall time and ≥ max per-rank busy time).
//! Truncated journals still analyze — unmatched receives are reported and
//! simply lose their cross-rank edge.

use rg_core::json::Json;
use rg_core::{analyze_run, parse_journal, parse_journal_strict, split_runs, Event, EventKind};
use std::io::Read;
use std::process::exit;

fn usage() -> ! {
    eprintln!("usage: trace_analyze <journal.jsonl|-> [--json PATH|-] [--bench PATH] [--strict]");
    exit(2)
}

/// Pulls the `(tie_break, threshold)` row key fields from a run's
/// `run_start`, if it survived in the journal.
fn run_config(run: &[Event]) -> (String, f64) {
    for ev in run {
        if let EventKind::RunStart { config, .. } = &ev.kind {
            return (config.tie_break.clone(), f64::from(config.threshold));
        }
    }
    ("unknown".to_string(), 0.0)
}

fn main() {
    let mut input: Option<String> = None;
    let mut json_out: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut strict = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => {
                json_out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("missing value for {a}");
                    usage()
                }))
            }
            "--bench" => {
                bench_out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("missing value for {a}");
                    usage()
                }))
            }
            "--strict" => strict = true,
            "--help" | "-h" => usage(),
            "-" => input = Some(a),
            _ if a.starts_with('-') => {
                eprintln!("unknown flag {a}");
                usage()
            }
            _ if input.is_none() => input = Some(a),
            _ => usage(),
        }
    }
    let path = input.unwrap_or_else(|| usage());
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .unwrap_or_else(|e| {
                eprintln!("cannot read stdin: {e}");
                exit(1)
            });
        buf
    } else {
        std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(1)
        })
    };

    let events: Vec<Event> = if strict {
        match parse_journal_strict(&text) {
            Ok(ev) => ev,
            Err((line, msg)) => {
                eprintln!("{path}:{line}: malformed journal line: {msg}");
                exit(1)
            }
        }
    } else {
        let (events, stats) = parse_journal(&text);
        if stats.truncated {
            eprintln!(
                "note: journal truncated after {} event(s): {}",
                stats.events,
                stats.error.as_deref().unwrap_or("unparseable line")
            );
        }
        events
    };

    let runs = split_runs(&events);
    let mut analyses = Vec::new();
    let mut rows = Vec::new();
    let mut bad = 0usize;
    for run in &runs {
        let Some(a) = analyze_run(run) else { continue };
        // The two invariants the clamped DP guarantees on well-formed
        // traces; a violation means the journal is lying about causality.
        if a.critical_path_ns > a.wall_ns + 1e-6 {
            eprintln!(
                "INVARIANT VIOLATION: critical path {} ns exceeds wall {} ns",
                a.critical_path_ns, a.wall_ns
            );
            bad += 1;
        }
        if a.critical_path_ns + 1e-6 < a.max_busy_ns() {
            eprintln!(
                "INVARIANT VIOLATION: critical path {} ns below max rank busy {} ns",
                a.critical_path_ns,
                a.max_busy_ns()
            );
            bad += 1;
        }
        let (tie_break, threshold) = run_config(run);
        rows.push(Json::obj(vec![
            ("backend", a.engine.as_str().into()),
            ("image", format!("{}x{}", a.width, a.height).into()),
            ("tie_break", tie_break.into()),
            ("threshold", threshold.into()),
            ("critical_path_us", (a.critical_path_ns / 1000.0).into()),
            ("imbalance_pct", a.imbalance_pct.into()),
            ("utilization_pct", a.utilization_pct().into()),
            ("wall_us", (a.wall_ns / 1000.0).into()),
        ]));
        analyses.push(a);
    }

    if analyses.is_empty() {
        eprintln!(
            "{path}: no flow events in any of {} run(s) — trace with the \
             message-passing engine (rgrow --engine mp-async --trace-out ...)",
            runs.len()
        );
        exit(1);
    }

    let json_doc = Json::obj(vec![
        ("schema", "trace-analyze-v1".into()),
        (
            "runs",
            Json::Arr(analyses.iter().map(|a| a.to_json()).collect()),
        ),
    ]);
    let mut quiet = false;
    if let Some(out) = &json_out {
        if out == "-" {
            println!("{}", json_doc.to_pretty());
            quiet = true;
        } else {
            std::fs::write(out, json_doc.to_pretty()).unwrap_or_else(|e| {
                eprintln!("cannot write {out}: {e}");
                exit(1)
            });
        }
    }
    if let Some(out) = &bench_out {
        let doc = Json::obj(vec![
            ("schema", "bench-merge-v1".into()),
            ("rows", Json::Arr(rows)),
        ]);
        std::fs::write(out, doc.to_pretty()).unwrap_or_else(|e| {
            eprintln!("cannot write {out}: {e}");
            exit(1)
        });
    }
    if !quiet {
        for a in &analyses {
            print!("{}", a.render());
        }
    }
    exit(if bad > 0 { 1 } else { 0 });
}
