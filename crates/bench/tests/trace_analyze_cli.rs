//! `trace_analyze` on hostile input: an error and an exit code, never an
//! abort. Spawns the real binary.

use std::process::Command;

/// One journal line of 200,000 `[`. Before the JSON parser bounded its
/// nesting depth, reading this line overflowed the stack.
#[test]
fn deep_journal_line_exits_1_without_overflowing() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("trace_analyze_deep_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deep.jsonl");
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
