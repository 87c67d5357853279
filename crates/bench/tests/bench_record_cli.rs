//! `bench_record` through the real binary: each `--check` floor fails when
//! it cannot be met, a bad invocation exits 2, and `diff --baseline` reruns
//! the suite that wrote the baseline.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch directory under the test target directory, unique per process.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `bench_record args` in `dir`: the exit code and stderr.
fn bench_record(dir: &Path, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_record"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn bench_record");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The merge suite runs without a subcommand.
const SUBCOMMANDS: [&[&str]; 5] = [&[], &["split"], &["batch"], &["tiles"], &["diff"]];

#[test]
fn batch_floor_fails_below_it() {
    let dir = scratch_dir("bench_record_batch_floor");
    let args = [
        "batch",
        "--images",
        "2",
        "--size",
        "16",
        "--check",
        "--min-speedup",
        "1000",
    ];
    let (code, stderr) = bench_record(&dir, &[&args[..], &["--out", "b.json"]].concat());
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("GUARD FAILED: best speedup"), "{stderr}");
    assert!(
        dir.join("b.json").exists(),
        "the document is written before the guard"
    );
}

#[test]
fn tiles_floor_fails_below_it() {
    let dir = scratch_dir("bench_record_tiles_floor");
    let args = [
        "tiles",
        "--size",
        "32",
        "--check",
        "--min-speedup",
        "1000",
        "--out",
        "t.json",
    ];
    let (code, stderr) = bench_record(&dir, &args);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("GUARD FAILED: best speedup"), "{stderr}");
}

#[test]
fn unknown_flags_exit_2_for_every_subcommand() {
    let dir = scratch_dir("bench_record_unknown_flag");
    for sub in SUBCOMMANDS {
        let (code, stderr) = bench_record(&dir, &[sub, &["--bogus"]].concat());
        assert_eq!(code, Some(2), "{sub:?}: {stderr}");
        assert!(
            stderr.contains("unknown flag \"--bogus\""),
            "{sub:?}: {stderr}"
        );
    }
}

#[test]
fn merge_and_split_reject_size() {
    let dir = scratch_dir("bench_record_size");
    for sub in [&[][..], &["split"]] {
        let (code, stderr) = bench_record(&dir, &[sub, &["--size", "32"]].concat());
        assert_eq!(code, Some(2), "{sub:?}: {stderr}");
        assert!(
            stderr.contains("unknown flag \"--size\""),
            "{sub:?}: {stderr}"
        );
    }
}

/// A batch baseline reruns the batch suite with its own size, scene and
/// stream length: any of them defaulted instead would change `num_regions`
/// or the row keys, and the diff would exit 1.
#[test]
fn diff_baseline_reruns_a_batch_document() {
    let dir = scratch_dir("bench_record_batch_rerun");
    let record = [
        "batch", "--images", "2", "--size", "16", "--scene", "rects", "--out", "b.json",
    ];
    let (code, stderr) = bench_record(&dir, &record);
    assert_eq!(code, Some(0), "{stderr}");
    let (code, stderr) = bench_record(&dir, &["diff", "--baseline", "b.json"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("`bench_record batch` suite"), "{stderr}");
}

#[test]
fn diff_baseline_without_a_suite_generator_exits_2() {
    let dir = scratch_dir("bench_record_no_generator");
    std::fs::write(dir.join("t.json"), "{\"schema\": \"x\", \"rows\": []}\n").unwrap();
    let (code, stderr) = bench_record(&dir, &["diff", "--baseline", "t.json"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("no bench_record suite"), "{stderr}");
}
