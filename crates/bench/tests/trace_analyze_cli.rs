//! `trace_analyze` on hostile input: an error and an exit code, never an
//! abort. Spawns the real binary.

use rg_core::{segment_with_telemetry, Config, EventLog};
use rg_imaging::synth;
use std::process::Command;

/// A scratch directory under the test target directory, unique per process.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One journal line of 200,000 `[`. Before the JSON parser bounded its
/// nesting depth, reading this line overflowed the stack.
#[test]
fn deep_journal_line_exits_1_without_overflowing() {
    let path = scratch_dir("trace_analyze_deep").join("deep.jsonl");
    std::fs::write(&path, "[".repeat(200_000) + "\n").unwrap();
    for flags in [&[][..], &["--strict"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_trace_analyze"))
            .arg(&path)
            .args(flags)
            .output()
            .expect("spawn trace_analyze");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(stderr.contains("nesting deeper than 64"), "{stderr}");
        assert!(!stderr.contains("overflowed"), "{stderr}");
    }
}

/// A host run's journal has no flow events; the hint must name an engine
/// `rgrow` accepts.
#[test]
fn flowless_journal_hints_a_real_engine() {
    let mut log = EventLog::in_memory();
    segment_with_telemetry(
        &synth::rect_collection(32),
        &Config::with_threshold(10),
        &mut log,
    );
    let journal: String = log.events().iter().map(|e| e.to_line()).collect();
    let path = scratch_dir("trace_analyze_flowless").join("host.jsonl");
    std::fs::write(&path, journal).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_trace_analyze"))
        .arg(&path)
        .output()
        .expect("spawn trace_analyze");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--engine mp-"), "{stderr}");
    assert!(!stderr.contains("--engine msgpass"), "{stderr}");
}
