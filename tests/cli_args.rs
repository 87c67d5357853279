//! Argument-parsing contract of the `rgrow` binary: bad values for the
//! enumerated flags exit with code 2 and name the valid choices, so a
//! mistyped engine or tie policy never silently falls back to a default.
//!
//! These tests spawn the real binary (no argv mocking) — the same code
//! path a user's shell hits.

use std::path::{Path, PathBuf};
use std::process::{self, Command, Output};

fn rgrow(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rgrow"))
        .args(args)
        .output()
        .expect("spawn rgrow")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh directory under the target's temp dir, suffixed with this
/// process's id so concurrent `cargo test` runs never share files.
fn temp_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}_{}", process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn bad_engine_exits_2_and_lists_choices() {
    let out = rgrow(&["--demo", "nested", "--engine", "gpu"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown engine \"gpu\""), "{err}");
    assert!(
        err.contains("valid choices are: seq, cm2-8k, cm2-16k, cm5-dp, mp-lp, mp-async"),
        "{err}"
    );
}

#[test]
fn removed_par_engine_exits_2_and_lists_choices() {
    // The host engine is sequential; `par` named a second host path that
    // never ran in parallel and is gone.
    let out = rgrow(&["--demo", "nested", "--engine", "par"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown engine \"par\""), "{err}");
    assert!(
        err.contains("valid choices are: seq, cm2-8k, cm2-16k, cm5-dp, mp-lp, mp-async"),
        "{err}"
    );
}

#[test]
fn bad_tie_exits_2_and_lists_choices() {
    let out = rgrow(&["--demo", "nested", "--tie", "biggest"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains("unknown tie-break policy \"biggest\""),
        "{err}"
    );
    assert!(
        err.contains("valid choices are: random, smallest, largest"),
        "{err}"
    );
}

#[test]
fn bad_chaos_profile_exits_2_and_lists_choices() {
    let out = rgrow(&[
        "--demo",
        "nested",
        "--engine",
        "mp-lp",
        "--chaos",
        "7:tsunami",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("bad --chaos spec \"7:tsunami\""), "{err}");
    assert!(err.contains("unknown chaos profile \"tsunami\""), "{err}");
    assert!(err.contains("valid choices are:"), "{err}");
}

#[test]
fn bad_chaos_seed_exits_2() {
    let out = rgrow(&[
        "--demo",
        "nested",
        "--engine",
        "mp-lp",
        "--chaos",
        "banana:storm",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("bad chaos seed \"banana\""), "{err}");
}

#[test]
fn chaos_without_mp_engine_exits_2() {
    let out = rgrow(&["--demo", "nested", "--engine", "seq", "--chaos", "7:storm"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("needs an mp-* engine"), "{err}");
    assert!(err.contains("\"seq\""), "{err}");
}

#[test]
fn bad_jobs_exits_2_and_names_the_flag() {
    let out = rgrow(&["--demo", "nested", "--jobs", "many"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("bad --jobs value \"many\""), "{err}");
    assert!(err.contains("worker count"), "{err}");
}

#[test]
fn missing_flag_value_exits_2_and_names_the_flag() {
    let out = rgrow(&["--demo", "nested", "--engine"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("missing value for --engine"));
}

#[test]
fn unknown_flag_exits_2_with_usage() {
    let out = rgrow(&["--demo", "nested", "--warp-drive"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown flag --warp-drive"), "{err}");
    assert!(err.contains("usage: rgrow"), "{err}");
}

#[test]
fn bad_tiles_spec_exits_2_and_shows_expected_form() {
    for bad in ["4", "0x4", "4x0", "axb"] {
        let out = rgrow(&["--demo", "nested", "--tiles", bad]);
        assert_eq!(out.status.code(), Some(2), "spec {bad:?}");
        let err = stderr(&out);
        assert!(err.contains("bad --tiles spec"), "{bad:?}: {err}");
        assert!(err.contains("ROWSxCOLS"), "{bad:?}: {err}");
    }
}

#[test]
fn tiles_with_simulator_engine_exits_2() {
    let out = rgrow(&["--demo", "nested", "--tiles", "2x2", "--engine", "mp-lp"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("host engine (seq)"), "{err}");
    assert!(err.contains("\"mp-lp\""), "{err}");
}

#[test]
fn tiles_with_batch_exits_2() {
    let out = rgrow(&["--batch", "demo:nested:2", "--tiles", "2x2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("cannot combine with --batch"));
}

#[test]
fn zero_count_batch_exits_2_with_message() {
    // `demo:scene:0` used to run an empty batch silently and exit 0.
    let out = rgrow(&["--batch", "demo:nested:0", "--quiet"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("zero images"), "{err}");
    assert!(err.contains("demo:nested:0"), "{err}");
}

#[test]
fn empty_glob_batch_exits_2_with_message() {
    let dir = std::env::temp_dir().join("rgrow_empty_glob_test");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = format!("{}/*.pgm", dir.display());
    let out = rgrow(&["--batch", &spec, "--quiet"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("matched no files"));
}

#[test]
fn bad_demo_size_exits_2() {
    for bad in ["nested:0", "nested:huge", "image3:128"] {
        let out = rgrow(&["--demo", bad]);
        assert_eq!(out.status.code(), Some(2), "demo {bad:?}");
    }
}

#[test]
fn oversized_demo_exits_2_before_allocating() {
    // 70000² pixels overflow the u32 labels; the run must stop before it
    // asks for the image.
    let out = rgrow(&["--demo", "nested:70000"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("bad demo size in \"nested:70000\""), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

/// Node counts with no grid over the image. Only small counts: each
/// simulated node would be an OS thread.
#[test]
fn node_count_without_a_grid_exits_2_naming_nodes_and_size() {
    for (engine, extra, nodes) in [
        ("mp-lp", &["--nodes", "0"][..], "0"),
        // The default 32 nodes on a 16-pixel scene.
        ("mp-async", &[][..], "32"),
    ] {
        let mut args = vec!["--demo", "nested:4", "--engine", engine];
        args.extend_from_slice(extra);
        let out = rgrow(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{engine} {extra:?}: {err}");
        assert!(err.contains(&format!("--nodes {nodes}:")), "{err}");
        assert!(err.contains("4x4 image"), "{err}");
        assert!(!err.contains("panicked"), "{err}");
    }
}

#[test]
fn tiled_demo_runs_and_verifies() {
    let out = rgrow(&[
        "--demo",
        "nested:128",
        "--engine",
        "seq",
        "--tiles",
        "3x2",
        "--jobs",
        "2",
        "--verify",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("tiled 3x2 (6 tiles"), "{stdout}");
    assert!(stdout.contains("verify: ok"), "{stdout}");
}

#[test]
fn summaries_print_the_workers_used() {
    // Workers are capped at the item count, and a traced run uses one.
    let stdout = |args: &[&str]| {
        let out = rgrow(args);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let batch = ["--batch", "demo:random:3", "--jobs", "8"];
    let tiled = ["--demo", "rects", "--tiles", "2x2", "--jobs", "8"];
    let traced = |args: &[&str]| stdout(&[args, &["--trace-out", "-"]].concat());
    for (got, want) in [
        (stdout(&batch), "engine seq, jobs 3)"),
        (stdout(&tiled), "(4 tiles, jobs 4)"),
        (traced(&batch), "engine seq, jobs 1)"),
        (traced(&tiled), "(4 tiles, jobs 1)"),
    ] {
        assert!(got.contains(want), "want {want:?} in {got}");
    }
}

#[test]
fn good_args_still_run() {
    // Sanity: the guard rails above must not reject valid invocations.
    let out = rgrow(&[
        "--demo", "nested", "--engine", "seq", "--tie", "smallest", "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}

/// `--telemetry`, `--trace-out` and `--chrome-trace` are three views of one
/// event stream: the report is the journal replayed (wall times included)
/// and the Chrome trace is the journal converted.
#[test]
fn telemetry_journal_and_chrome_trace_share_one_stream() {
    use rg_core::{chrome_trace, parse_journal_strict, replay};
    let dir = temp_dir("cli_one_stream");
    let path = |name: &str| dir.join(name).display().to_string();
    let (report, journal, chrome) = (
        path("report.json"),
        path("run.jsonl"),
        path("run.trace.json"),
    );
    let out = rgrow(&[
        "--demo",
        "image3",
        "--engine",
        "mp-lp",
        "--quiet",
        "--telemetry",
        &report,
        "--trace-out",
        &journal,
        "--chrome-trace",
        &chrome,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let read = |p: &str| std::fs::read_to_string(p).unwrap();
    let events = parse_journal_strict(&read(&journal)).expect("strict journal");
    assert_eq!(read(&report), replay(&events).to_json_pretty());
    assert_eq!(read(&chrome), chrome_trace(&events).to_compact());
}

#[test]
fn oversized_pgm_header_exits_1_without_panicking() {
    let dir = temp_dir("cli_huge_pgm");
    for magic in ["P5", "P2"] {
        let path = dir.join(format!("huge_{magic}.pgm"));
        std::fs::write(&path, format!("{magic}\n4294967295 4294967295\n255\n")).unwrap();
        let out = rgrow(&[path.to_str().unwrap(), "--quiet"]);
        assert_eq!(out.status.code(), Some(1), "{magic}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("cannot read"),
            "{magic}: {}",
            stderr(&out)
        );
        assert!(
            !stderr(&out).contains("panicked"),
            "{magic}: {}",
            stderr(&out)
        );
    }
}

/// One journal line of 200,000 `[`: the JSON parser's depth bound turns it
/// into an error instead of a stack overflow that aborts the reader.
#[test]
fn deep_journal_line_exits_1_without_overflowing() {
    use rg_core::parse_journal;
    let path = temp_dir("cli_deep_journal").join("deep.jsonl");
    let deep = "[".repeat(200_000) + "\n";
    std::fs::write(&path, &deep).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_trace_convert"))
        .args([path.to_str().unwrap(), "--validate", "--strict"])
        .output()
        .expect("spawn trace_convert");
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("nesting deeper than 64"),
        "{}",
        stderr(&out)
    );
    assert!(!stderr(&out).contains("overflowed"), "{}", stderr(&out));
    // `trace_analyze` reads through the tolerant parser, which stops at
    // the bad line. Its binary lives in rg-bench, whose own test spawns
    // it on the same line.
    let (events, stats) = parse_journal(&deep);
    assert!(events.is_empty() && stats.truncated);
}
