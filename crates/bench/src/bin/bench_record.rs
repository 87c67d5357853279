//! Records the merge-stage benchmark trajectory to `BENCH_merge.json`.
//!
//! Runs the incremental CSR engine (`Merger`) and the reference edge-list
//! merge (`merge_reference`) on the same split results and records
//! throughput (`edges_per_sec`), wall time, iteration counts, live-edge
//! peaks, and the machine-independent `relabel_work` counter that the CI
//! perf-smoke job guards on.
//!
//! ```text
//! cargo run --release -p rg-bench --bin bench_record                  # 512x512, write BENCH_merge.json
//! cargo run --release -p rg-bench --bin bench_record -- --quick      # 256x256 (CI smoke)
//! cargo run --release -p rg-bench --bin bench_record -- --check     # exit 1 if CSR does more relabel work
//! cargo run --release -p rg-bench --bin bench_record -- --out /tmp/b.json
//!
//! # batch-throughput smoke: warm pipeline vs naive per-image loop,
//! # recorded to BENCH_batch.json. --check enforces the speedup floor.
//! bench_record batch                                  # record BENCH_batch.json
//! bench_record batch --check --min-speedup 1.3        # exit 1 below the floor
//!
//! # split-stage suite: the packed word-parallel engine vs the retained
//! # scalar reference oracle, recorded to BENCH_split.json with wall time
//! # plus the machine-independent cells_touched / words_tested counters.
//! bench_record split                                  # 512x512, write BENCH_split.json
//! bench_record split --quick --check                  # 256x256 CI smoke + guards
//!
//! # tiled suite: the sharded runtime (rgrow --tiles 4x4) on one worker
//! # and on the pool vs a fresh whole-image run, recorded to
//! # BENCH_tiled.json. --check enforces identity guards + speedup floor.
//! bench_record tiles                                  # 2048x2048, write BENCH_tiled.json
//! bench_record tiles --quick --check                  # 512x512 smoke + guards
//!
//! # perf-regression diff (see rg_bench::diff). Exit 1 on regression.
//! bench_record diff old.json new.json                 # two recorded files
//! bench_record diff --baseline BENCH_merge.json       # fresh run vs baseline
//! bench_record diff new.json --baseline old.json --tolerance 0.15 --strict-wall
//! ```
//!
//! `edges_per_sec` is `initial_edges x iterations / wall_seconds`: the rate
//! at which the engine would traverse the *initial* edge set once per
//! iteration — exactly the work the reference merge actually does, so the
//! CSR engine's number directly exposes how much of that traversal the
//! incremental structure skips.

use std::time::Instant;

use rg_bench::diff::{diff_docs, DiffOptions};
use rg_core::graph::Rag;
use rg_core::json::Json;
use rg_core::{split, Config, Merger, ReferenceInput, SplitResult, TieBreak};
use rg_imaging::{synth, GrayImage};

/// The `backend` name of rows that time the `Merger` engine.
const CSR: &str = "csr";
/// The `backend` name of rows that time the `merge_reference` oracle.
const REFERENCE: &str = "reference";

/// One benchmarked configuration.
struct Row {
    /// [`CSR`] or [`REFERENCE`].
    backend: &'static str,
    image: &'static str,
    tie_break: &'static str,
    threshold: u32,
    initial_edges: u64,
    iterations: u32,
    num_regions: usize,
    wall_ms: f64,
    edges_per_sec: f64,
    peak_live_edges: u64,
    relabel_work: u64,
    compactions: u64,
}

/// The split `bench_csr` and `bench_reference` merge: the configuration,
/// the split result and each square's canonical ID.
fn bench_setup(
    img: &GrayImage,
    threshold: u32,
    tie: TieBreak,
) -> (Config, SplitResult<u8>, Vec<u64>) {
    let cfg = Config::with_threshold(threshold).tie_break(tie);
    let s = split(img, &cfg);
    let stride = s.width as u32;
    let ids: Vec<u64> = s.squares.iter().map(|sq| sq.id(stride) as u64).collect();
    (cfg, s, ids)
}

/// `initial_edges x iterations / wall_seconds` (see the module doc).
fn edges_per_sec(initial_edges: u64, iterations: u32, wall: f64) -> f64 {
    if wall > 0.0 {
        (initial_edges as f64) * f64::from(iterations) / wall
    } else {
        0.0
    }
}

/// Times `Merger::run` on a built merger, after a warm-up run (page in
/// buffers, steady-state allocator) over the same split.
fn bench_csr(
    img: &GrayImage,
    image_name: &'static str,
    threshold: u32,
    tie: TieBreak,
    tie_name: &'static str,
) -> Row {
    let (cfg, s, ids) = bench_setup(img, threshold, tie);
    let rag = Rag::from_split(&s, cfg.connectivity);
    let initial_edges = rag.num_edges() as u64;
    let warm = Rag::from_split(&s, cfg.connectivity);
    Merger::new(warm, ids.clone(), &cfg).run();
    let mut merger = Merger::new(rag, ids, &cfg);
    let t0 = Instant::now();
    let summary = merger.run();
    let wall = t0.elapsed().as_secs_f64();
    Row {
        backend: CSR,
        image: image_name,
        tie_break: tie_name,
        threshold,
        initial_edges,
        iterations: summary.iterations,
        num_regions: summary.num_regions,
        wall_ms: wall * 1e3,
        edges_per_sec: edges_per_sec(initial_edges, summary.iterations, wall),
        peak_live_edges: merger.peak_active_edges(),
        relabel_work: merger.relabel_work(),
        compactions: merger.compactions(),
    }
}

/// Times [`ReferenceInput::run`], the reference merge's iterations, after a
/// warm-up run over the same split. Like `bench_csr`, it leaves the
/// initial criterion filter out of the timed phase.
fn bench_reference(
    img: &GrayImage,
    image_name: &'static str,
    threshold: u32,
    tie: TieBreak,
    tie_name: &'static str,
) -> Row {
    let (cfg, s, ids) = bench_setup(img, threshold, tie);
    let rag = Rag::from_split(&s, cfg.connectivity);
    let initial_edges = rag.num_edges() as u64;
    ReferenceInput::new(&rag, &cfg).run(&ids, &cfg);
    let input = ReferenceInput::new(&rag, &cfg);
    let t0 = Instant::now();
    let r = input.run(&ids, &cfg);
    let wall = t0.elapsed().as_secs_f64();
    let iterations = r.steps.len() as u32;
    let merges: usize = r.steps.iter().map(|st| st.merges as usize).sum();
    Row {
        backend: REFERENCE,
        image: image_name,
        tie_break: tie_name,
        threshold,
        initial_edges,
        iterations,
        num_regions: ids.len() - merges,
        wall_ms: wall * 1e3,
        edges_per_sec: edges_per_sec(initial_edges, iterations, wall),
        peak_live_edges: r.peak_active_edges,
        relabel_work: r.relabel_work,
        compactions: 0,
    }
}

fn row_json(r: &Row) -> Json {
    Json::obj(vec![
        ("backend", Json::Str(r.backend.to_string())),
        ("image", Json::Str(r.image.to_string())),
        ("tie_break", Json::Str(r.tie_break.to_string())),
        ("threshold", Json::Num(f64::from(r.threshold))),
        ("initial_edges", Json::Num(r.initial_edges as f64)),
        ("iterations", Json::Num(f64::from(r.iterations))),
        ("num_regions", Json::Num(r.num_regions as f64)),
        ("wall_ms", Json::Num((r.wall_ms * 1e3).round() / 1e3)),
        ("edges_per_sec", Json::Num(r.edges_per_sec.round())),
        ("peak_live_edges", Json::Num(r.peak_live_edges as f64)),
        ("relabel_work", Json::Num(r.relabel_work as f64)),
        ("compactions", Json::Num(r.compactions as f64)),
    ])
}

/// Runs the full scene × tie × backend suite at image size `n` and builds
/// the `bench-merge-v1` document plus any relabel-work guard failures.
fn build_doc(n: usize) -> (Json, Vec<String>) {
    // Three merge-heavy scenes. `noise` keeps every edge an exact tie for
    // long stretches (the reference merge's worst case: full re-sorts on a
    // barely-shrinking edge list); `rects` and `circles` mirror the paper's
    // object scenes at scale.
    let scenes: Vec<(&'static str, u32, GrayImage)> = vec![
        ("noise", 10, synth::uniform_noise(n, n, 120, 135, 7)),
        ("rects", 12, synth::random_rects(n, n, 40, 11)),
        ("circles", 10, synth::circle_collection(n)),
    ];
    let ties: [(TieBreak, &'static str); 2] = [
        (TieBreak::Random { seed: 1 }, "random"),
        (TieBreak::SmallestId, "smallest_id"),
    ];

    let mut rows = Vec::new();
    for (name, threshold, img) in &scenes {
        for &(tie, tie_name) in &ties {
            for bench in [bench_csr, bench_reference] {
                let row = bench(img, name, *threshold, tie, tie_name);
                eprintln!(
                    "{:9} {:8} {:11} edges={:7} iters={:3} wall={:9.3}ms \
                     e/s={:12.0} peak={:7} work={:10} compactions={}",
                    row.backend,
                    row.image,
                    row.tie_break,
                    row.initial_edges,
                    row.iterations,
                    row.wall_ms,
                    row.edges_per_sec,
                    row.peak_live_edges,
                    row.relabel_work,
                    row.compactions,
                );
                rows.push(row);
            }
        }
    }

    // Per-scene speedups (CSR over reference) and the relabel-work guard.
    let mut speedups = Vec::new();
    let mut guard_failures = Vec::new();
    let mut log_sum = 0.0f64;
    let mut log_n = 0u32;
    for (name, _, _) in &scenes {
        for &(_, tie_name) in &ties {
            let find = |b: &str| {
                rows.iter()
                    .find(|r| r.backend == b && r.image == *name && r.tie_break == tie_name)
                    .expect("row recorded")
            };
            let (csr, reference) = (find(CSR), find(REFERENCE));
            let speedup = if reference.edges_per_sec > 0.0 {
                csr.edges_per_sec / reference.edges_per_sec
            } else {
                1.0
            };
            speedups.push((
                format!("{name}/{tie_name}"),
                Json::Num((speedup * 100.0).round() / 100.0),
            ));
            if speedup > 0.0 {
                log_sum += speedup.ln();
                log_n += 1;
            }
            if csr.relabel_work > reference.relabel_work {
                guard_failures.push(format!(
                    "{name}/{tie_name}: csr relabel_work {} > reference {}",
                    csr.relabel_work, reference.relabel_work
                ));
            }
        }
    }

    let doc = Json::obj(vec![
        ("schema", Json::Str("bench-merge-v1".to_string())),
        ("generator", Json::Str("bench_record".to_string())),
        ("image_size", Json::Num(f64::from(n as u32))),
        ("rows", Json::Arr(rows.iter().map(row_json).collect())),
        ("speedup_csr_over_reference", Json::Obj(speedups)),
        (
            "speedup_geomean",
            Json::Num(if log_n > 0 {
                ((log_sum / f64::from(log_n)).exp() * 100.0).round() / 100.0
            } else {
                1.0
            }),
        ),
    ]);
    (doc, guard_failures)
}

/// `bench_record [--quick] [--check] [--out PATH]` — record a document.
fn record_main(args: &[String]) {
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let mut out = "BENCH_merge.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" | "--check" => {}
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out = p.clone(),
                    None => {
                        eprintln!("--out requires a path");
                        std::process::exit(2);
                    }
                }
            }
            bad => {
                eprintln!("unknown flag {bad:?}; use --quick, --check, --out <path>, or the diff subcommand");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let n = if quick { 256 } else { 512 };
    let (doc, guard_failures) = build_doc(n);
    std::fs::write(&out, doc.to_pretty() + "\n").unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out}");

    if check && !guard_failures.is_empty() {
        for f in &guard_failures {
            eprintln!("PERF GUARD FAILED: {f}");
        }
        std::process::exit(1);
    }
    if check {
        eprintln!("perf guard OK: CSR relabel work <= reference on every scene");
    }
}

/// One timed pass of the CI batch smoke (`bench_record batch`).
struct BatchRow {
    /// `"naive"` (fresh `segment()` per image) or `"batch"` (one warm
    /// [`rg_core::HostPipeline`] streamed by `rg_core::batch`).
    backend: &'static str,
    images: usize,
    num_regions: usize,
    iterations: u64,
    wall_ms: f64,
    images_per_sec: f64,
}

fn batch_row_json(r: &BatchRow, scene: &str, threshold: u32) -> Json {
    Json::obj(vec![
        ("backend", Json::Str(r.backend.to_string())),
        ("image", Json::Str(format!("{scene}-stream"))),
        ("tie_break", Json::Str("random".to_string())),
        ("threshold", Json::Num(f64::from(threshold))),
        ("images", Json::Num(r.images as f64)),
        ("num_regions", Json::Num(r.num_regions as f64)),
        ("iterations", Json::Num(r.iterations as f64)),
        ("wall_ms", Json::Num((r.wall_ms * 1e3).round() / 1e3)),
        (
            "images_per_sec",
            Json::Num((r.images_per_sec * 10.0).round() / 10.0),
        ),
    ])
}

/// `bench_record batch [--out PATH] [--check] [--min-speedup F]
/// [--images N] [--size S]` — the batch-throughput smoke. Streams N
/// synthetic SxS scenes through one warm `HostPipeline` (the workspace
/// reuse path) and through a naive fresh-`segment()`-per-image loop, and
/// records both as `bench-batch-v1` rows in `BENCH_batch.json` so the CI
/// diff gate guards the deterministic counters. `--check` additionally
/// enforces the warm pipeline's throughput floor over the naive loop.
fn batch_main(args: &[String]) {
    use rg_core::telemetry::Recorder;
    use rg_core::{run_batch, segment, BatchOptions, HostPipeline, NullTelemetry, Segmentation};

    let mut out = "BENCH_batch.json".to_string();
    let mut check = false;
    let mut min_speedup = 1.3f64;
    let mut images_n = 16usize;
    let mut size = 256usize;
    let mut scene = "speckle".to_string();
    fn take(args: &[String], i: &mut usize, what: &str) -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("{what} requires a value");
            std::process::exit(2);
        })
    }
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => check = true,
            "--out" => out = take(args, &mut i, "--out"),
            "--min-speedup" => {
                min_speedup = take(args, &mut i, "--min-speedup")
                    .parse()
                    .unwrap_or_else(|_| {
                        eprintln!("--min-speedup requires a number (e.g. 1.3)");
                        std::process::exit(2);
                    })
            }
            "--images" => {
                images_n = take(args, &mut i, "--images").parse().unwrap_or_else(|_| {
                    eprintln!("--images requires a count");
                    std::process::exit(2);
                })
            }
            "--size" => {
                size = take(args, &mut i, "--size").parse().unwrap_or_else(|_| {
                    eprintln!("--size requires a pixel count");
                    std::process::exit(2);
                })
            }
            "--scene" => scene = take(args, &mut i, "--scene"),
            bad => {
                eprintln!(
                    "unknown flag {bad:?}; usage: bench_record batch [--out PATH] [--check] \
                     [--min-speedup F] [--images N] [--size S] [--scene rects|nested|noise]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let threshold = 12u32;
    let cfg = Config::with_threshold(threshold).tie_break(TieBreak::Random { seed: 1 });
    let gen: fn(usize, u64) -> GrayImage = match scene.as_str() {
        "rects" => |n, s| synth::random_rects(n, n, 12, s),
        "nested" => |n, _| synth::nested_rects(n),
        "noise" => |n, s| synth::uniform_noise(n, n, 120, 135, s),
        // Worst-case fragmentation: high-contrast speckle keeps every
        // pixel its own region, so the vertex/edge/label arenas hit their
        // full bounds — the allocation load the batch runtime amortizes.
        "speckle" => |n, s| synth::uniform_noise(n, n, 0, 255, s),
        other => {
            eprintln!("unknown scene {other:?}; use rects, nested, noise, or speckle");
            std::process::exit(2);
        }
    };
    let imgs: Vec<GrayImage> = (0..images_n).map(|s| gen(size, s as u64)).collect();

    // Deterministic counters (identical for both paths by the workspace
    // bit-identity guarantee): total regions and total merge iterations.
    let (mut regions, mut iterations) = (0usize, 0u64);
    for img in &imgs {
        let mut rec = Recorder::new();
        let seg = rg_core::segment_with_telemetry(img, &cfg, &mut rec);
        regions += seg.num_regions;
        iterations += rec.report().merge_iterations.len() as u64;
    }

    // Three timed paths, interleaved over `repeats` rounds with the
    // best-of-k wall kept per path — single shots on shared CI boxes are
    // too noisy for a guarded floor. One untimed warm-up round first
    // (allocator free lists, page cache, thread spawn path).
    //
    // * naive: a fresh engine allocation per image (`segment()` loop);
    // * batch-seq: one warm sequential pipeline, arenas reused
    //   across the stream, zero allocations per image (see
    //   tests/alloc_steady_state.rs);
    // * batch: the runtime as shipped (`rgrow --batch --jobs N`),
    //   per-worker warm pipelines fed from a shared queue.
    let jobs = std::thread::available_parallelism().map_or(1, |p| p.get().min(4));
    let repeats = 5;
    let naive_pass = |imgs: &[GrayImage]| {
        for img in imgs {
            std::hint::black_box(segment(img, &cfg));
        }
    };
    let mut pipe: HostPipeline<u8> = HostPipeline::new(cfg, false);
    let mut seg = Segmentation::default();
    let batch_pass = |imgs: &[GrayImage]| {
        let summary = run_batch(
            imgs,
            &BatchOptions::new().jobs(jobs),
            || Box::new(HostPipeline::<u8>::new(cfg, false)),
            &mut NullTelemetry,
            |_, _| {},
        );
        assert_eq!(summary.images, imgs.len(), "batch runtime dropped images");
    };

    naive_pass(&imgs);
    for img in &imgs {
        pipe.run_image_into(img, &mut NullTelemetry, &mut seg);
    }
    batch_pass(&imgs);

    let (mut naive_wall, mut seq_wall, mut batch_wall) = (f64::MAX, f64::MAX, f64::MAX);
    for _ in 0..repeats {
        let t0 = Instant::now();
        naive_pass(&imgs);
        naive_wall = naive_wall.min(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        for img in &imgs {
            pipe.run_image_into(img, &mut NullTelemetry, &mut seg);
            std::hint::black_box(&seg);
        }
        seq_wall = seq_wall.min(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        batch_pass(&imgs);
        batch_wall = batch_wall.min(t0.elapsed().as_secs_f64());
    }

    let row = |backend: &'static str, wall: f64| BatchRow {
        backend,
        images: images_n,
        num_regions: regions,
        iterations,
        wall_ms: wall * 1e3,
        images_per_sec: if wall > 0.0 {
            images_n as f64 / wall
        } else {
            0.0
        },
    };
    let naive = row("naive", naive_wall);
    let batch_seq = row("batch-seq", seq_wall);
    let batch = row("batch", batch_wall);
    let speedup_of = |wall: f64| {
        if naive_wall > 0.0 && wall > 0.0 {
            naive_wall / wall
        } else {
            1.0
        }
    };
    // The guarded number is the batch runtime's best configuration on this
    // host: warm-reuse alone on one core, plus worker fan-out where cores
    // exist.
    let (reuse_speedup, runtime_speedup) = (speedup_of(seq_wall), speedup_of(batch_wall));
    let speedup = reuse_speedup.max(runtime_speedup);
    for r in [&naive, &batch_seq, &batch] {
        eprintln!(
            "{:9} images={:3} regions={:7} iters={:4} wall={:9.3}ms {:8.1} img/s",
            r.backend, r.images, r.num_regions, r.iterations, r.wall_ms, r.images_per_sec,
        );
    }
    eprintln!(
        "speedup over naive: batch-seq (reuse only) {reuse_speedup:.2}x, \
         batch ({jobs} jobs) {runtime_speedup:.2}x"
    );

    let doc = Json::obj(vec![
        ("schema", Json::Str("bench-batch-v1".to_string())),
        ("generator", Json::Str("bench_record batch".to_string())),
        ("image_size", Json::Num(size as f64)),
        ("scene", Json::Str(scene.clone())),
        ("jobs", Json::Num(jobs as f64)),
        (
            "rows",
            Json::Arr(vec![
                batch_row_json(&naive, &scene, threshold),
                batch_row_json(&batch_seq, &scene, threshold),
                batch_row_json(&batch, &scene, threshold),
            ]),
        ),
        (
            "speedup_batch_over_naive",
            Json::Num((speedup * 100.0).round() / 100.0),
        ),
        (
            "speedup_reuse_over_naive",
            Json::Num((reuse_speedup * 100.0).round() / 100.0),
        ),
        (
            "speedup_runtime_over_naive",
            Json::Num((runtime_speedup * 100.0).round() / 100.0),
        ),
    ]);
    std::fs::write(&out, doc.to_pretty() + "\n").unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out}");

    if check && speedup < min_speedup {
        eprintln!("BATCH GUARD FAILED: speedup {speedup:.2}x < floor {min_speedup:.2}x");
        std::process::exit(1);
    }
    if check {
        eprintln!("batch guard OK: {speedup:.2}x >= {min_speedup:.2}x");
    }
}

/// One timed configuration of the split-stage suite.
struct SplitRow {
    /// `"packed"` (the word-parallel engine) or `"reference"` (the
    /// retained scalar oracle, [`rg_core::split_reference`]).
    backend: &'static str,
    image: &'static str,
    /// Criterion name; stored in the `tie_break` column so the differ's
    /// `(backend, image, tie_break, threshold)` row key stays unique.
    criterion: &'static str,
    threshold: u32,
    iterations: u32,
    num_squares: usize,
    wall_ms: f64,
    cells_touched: u64,
    words_tested: u64,
}

fn split_row_json(r: &SplitRow) -> Json {
    Json::obj(vec![
        ("backend", Json::Str(r.backend.to_string())),
        ("image", Json::Str(r.image.to_string())),
        ("tie_break", Json::Str(r.criterion.to_string())),
        ("threshold", Json::Num(f64::from(r.threshold))),
        ("iterations", Json::Num(f64::from(r.iterations))),
        ("num_squares", Json::Num(r.num_squares as f64)),
        ("wall_ms", Json::Num((r.wall_ms * 1e3).round() / 1e3)),
        ("cells_touched", Json::Num(r.cells_touched as f64)),
        ("words_tested", Json::Num(r.words_tested as f64)),
    ])
}

/// Runs the split-stage scene × criterion suite at image size `n`: the
/// packed engine on its production path (warm reused scratch, sequential)
/// against the retained scalar reference, best-of-k wall per row plus the
/// machine-independent counters. Returns the `bench-split-v1` document and
/// any guard failures (bit-identity of outputs, packed counters never
/// exceeding the reference's).
fn build_split_doc(n: usize) -> (Json, Vec<String>) {
    use rg_core::{split_into, split_reference, Criterion, SplitResult, SplitScratch};

    // `nested` coalesces deep (many productive levels), `rects` is the
    // paper's object scene, `noise` goes unproductive immediately — the
    // case where tight grids + deferred folding pay the most.
    let scenes: Vec<(&'static str, u32, GrayImage)> = vec![
        ("nested", 10, synth::nested_rects(n)),
        ("rects", 12, synth::random_rects(n, n, 40, 11)),
        ("noise", 10, synth::uniform_noise(n, n, 120, 135, 7)),
    ];
    let criteria = [
        (Criterion::PixelRange, "range"),
        (Criterion::MeanDifference, "mean"),
    ];
    let repeats = 5;

    let mut rows = Vec::new();
    let mut guard_failures = Vec::new();
    let mut speedups = Vec::new();
    let mut log_sum = 0.0f64;
    let mut log_n = 0u32;
    let mut scratch = SplitScratch::new();
    let mut packed_out: SplitResult<u8> = SplitResult::default();

    for (name, threshold, img) in &scenes {
        for &(crit, crit_name) in &criteria {
            let cfg = Config::with_threshold(*threshold).criterion(crit);

            // Packed engine: one warm-up call, then best-of-k over the
            // steady-state (allocation-free) reused-scratch path.
            split_into(img, &cfg, &mut scratch, &mut packed_out);
            let mut packed_wall = f64::MAX;
            for _ in 0..repeats {
                let t0 = Instant::now();
                split_into(img, &cfg, &mut scratch, &mut packed_out);
                packed_wall = packed_wall.min(t0.elapsed().as_secs_f64());
            }
            let packed = SplitRow {
                backend: "packed",
                image: name,
                criterion: crit_name,
                threshold: *threshold,
                iterations: packed_out.iterations,
                num_squares: packed_out.squares.len(),
                wall_ms: packed_wall * 1e3,
                cells_touched: packed_out.metrics.cells_folded,
                words_tested: packed_out.metrics.words_tested,
            };

            // Reference oracle: allocates fresh per call by construction —
            // that cost is part of what the packed layout removes.
            let mut ref_out = split_reference(img, &cfg);
            let mut ref_wall = f64::MAX;
            for _ in 0..repeats {
                let t0 = Instant::now();
                ref_out = split_reference(img, &cfg);
                ref_wall = ref_wall.min(t0.elapsed().as_secs_f64());
            }
            let reference = SplitRow {
                backend: "reference",
                image: name,
                criterion: crit_name,
                threshold: *threshold,
                iterations: ref_out.iterations,
                num_squares: ref_out.squares.len(),
                wall_ms: ref_wall * 1e3,
                cells_touched: ref_out.metrics.cells_folded,
                words_tested: ref_out.metrics.words_tested,
            };

            if packed_out.squares != ref_out.squares
                || packed_out.stats != ref_out.stats
                || packed_out.square_of != ref_out.square_of
                || packed_out.iterations != ref_out.iterations
            {
                guard_failures.push(format!(
                    "{name}/{crit_name}: packed output differs from reference"
                ));
            }
            if packed.cells_touched > reference.cells_touched {
                guard_failures.push(format!(
                    "{name}/{crit_name}: packed cells_touched {} > reference {}",
                    packed.cells_touched, reference.cells_touched
                ));
            }
            if packed.words_tested > reference.words_tested {
                guard_failures.push(format!(
                    "{name}/{crit_name}: packed words_tested {} > reference {}",
                    packed.words_tested, reference.words_tested
                ));
            }

            let speedup = if packed_wall > 0.0 {
                ref_wall / packed_wall
            } else {
                1.0
            };
            speedups.push((
                format!("{name}/{crit_name}"),
                Json::Num((speedup * 100.0).round() / 100.0),
            ));
            if speedup > 0.0 {
                log_sum += speedup.ln();
                log_n += 1;
            }

            for r in [&packed, &reference] {
                eprintln!(
                    "{:9} {:8} {:6} iters={:2} squares={:7} wall={:9.3}ms \
                     cells={:10} words={:9}",
                    r.backend,
                    r.image,
                    r.criterion,
                    r.iterations,
                    r.num_squares,
                    r.wall_ms,
                    r.cells_touched,
                    r.words_tested,
                );
            }
            eprintln!(
                "{:9} {:8} {:6} speedup={:.2}x",
                "", name, crit_name, speedup
            );
            rows.push(packed);
            rows.push(reference);
        }
    }

    let doc = Json::obj(vec![
        ("schema", Json::Str("bench-split-v1".to_string())),
        ("generator", Json::Str("bench_record split".to_string())),
        ("image_size", Json::Num(n as f64)),
        ("rows", Json::Arr(rows.iter().map(split_row_json).collect())),
        ("speedup_packed_over_reference", Json::Obj(speedups)),
        (
            "speedup_geomean",
            Json::Num(if log_n > 0 {
                ((log_sum / f64::from(log_n)).exp() * 100.0).round() / 100.0
            } else {
                1.0
            }),
        ),
    ]);
    (doc, guard_failures)
}

/// `bench_record split [--quick] [--check] [--out PATH]` — record the
/// split-stage packed-vs-reference document (`BENCH_split.json`).
/// `--check` fails on any bit-identity or counter-domination guard.
fn split_main(args: &[String]) {
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let mut out = "BENCH_split.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" | "--check" => {}
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out = p.clone(),
                    None => {
                        eprintln!("--out requires a path");
                        std::process::exit(2);
                    }
                }
            }
            bad => {
                eprintln!("unknown flag {bad:?}; usage: bench_record split [--quick] [--check] [--out PATH]");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let n = if quick { 256 } else { 512 };
    let (doc, guard_failures) = build_split_doc(n);
    std::fs::write(&out, doc.to_pretty() + "\n").unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out}");

    if check && !guard_failures.is_empty() {
        for f in &guard_failures {
            eprintln!("SPLIT GUARD FAILED: {f}");
        }
        std::process::exit(1);
    }
    if check {
        eprintln!(
            "split guard OK: packed output bit-identical and counters <= reference on every scene"
        );
    }
}

/// One timed configuration of the tiled suite.
struct TileRow {
    /// `"whole"` (one-shot `segment()` per image), `"tiled-j1"` (warm
    /// `TiledRunner`, one worker), or `"tiled-jN"` (warm runner, pooled
    /// workers).
    backend: &'static str,
    image: &'static str,
    threshold: u32,
    /// Worker count of a tiled row (`None` for the whole-image row).
    jobs: Option<usize>,
    num_regions: usize,
    iterations: u32,
    seam_edges: Option<usize>,
    /// Guarded speedup (tiled-jN row only): tiled-over-whole on this host,
    /// or the better of that and worker fan-out when `jobs > 1`. A
    /// `speedup` work metric in the diff gate — losing it past the
    /// tolerance fails CI.
    speedup: Option<f64>,
    wall_ms: f64,
}

fn tile_row_json(r: &TileRow) -> Json {
    let mut fields = vec![
        ("backend", Json::Str(r.backend.to_string())),
        ("image", Json::Str(r.image.to_string())),
        ("tie_break", Json::Str("smallest".to_string())),
        ("threshold", Json::Num(f64::from(r.threshold))),
    ];
    if let Some(j) = r.jobs {
        fields.push(("jobs", Json::Num(j as f64)));
    }
    fields.extend([
        ("num_regions", Json::Num(r.num_regions as f64)),
        ("iterations", Json::Num(f64::from(r.iterations))),
        ("wall_ms", Json::Num((r.wall_ms * 1e3).round() / 1e3)),
    ]);
    if let Some(s) = r.seam_edges {
        fields.push(("seam_edges", Json::Num(s as f64)));
    }
    if let Some(s) = r.speedup {
        fields.push(("speedup", Json::Num((s * 100.0).round() / 100.0)));
    }
    Json::obj(fields)
}

/// Runs the tiled-vs-whole suite at image size `n`: the warm sharded
/// runtime (`rgrow --tiles 4x4`) on one worker and on the pool of
/// `min(nproc, 4)` workers, against a fresh `segment()` per round. The pool
/// row is named `tiled-jN` on every host (the differ matches rows by name)
/// and records its worker count in `jobs`; worker fan-out enters the
/// speedups only when it was measured, i.e. when `jobs > 1`. Returns the
/// `bench-tiles-v1` document and any guard failures (worker-count
/// invariance, and exact-label identity with the whole-image run on the
/// threshold-separated scene).
fn build_tiles_doc(n: usize) -> (Json, Vec<String>) {
    use rg_core::{segment, NullTelemetry, Segmentation, TileGrid, TiledRunner};

    let threshold = 10u32;
    let cfg = Config::with_threshold(threshold).tie_break(TieBreak::SmallestId);
    let grid = TileGrid::new(4, 4);
    let jobs = std::thread::available_parallelism().map_or(1, |p| p.get().min(4));
    let repeats = 3;
    // `shards`: flat cells pairwise separated by far more than T — the
    // scene family where the stitched partition provably equals the
    // whole-image run (exact-labels guard; DESIGN.md §17). `noise`:
    // narrow-band noise drives tens of merge iterations over a huge RAG —
    // the whole-image run churns cache-hostile full-image merge arenas
    // while each tile merges in cache, so sharding wins on a single core
    // and worker fan-out stacks on top where cores exist. The guarded
    // `speedup` metric lives on this scene's tiled-jN row.
    let scenes: Vec<(&'static str, GrayImage)> = vec![
        ("shards", synth::checkerboard(n, (n / 16).max(1), 40, 200)),
        ("noise", synth::uniform_noise(n, n, 120, 135, 9)),
    ];

    let mut rows = Vec::new();
    let mut guard_failures = Vec::new();
    let mut best_fanout = 0.0f64;
    let mut best_tiled_over_whole = 0.0f64;

    for (name, img) in &scenes {
        // Whole-image one-shot: fresh arenas per call, what an
        // un-sharded caller pays per image. Warm-up round first.
        let mut whole_seg = segment(img, &cfg);
        let mut whole_wall = f64::MAX;
        for _ in 0..repeats {
            let t0 = Instant::now();
            whole_seg = segment(img, &cfg);
            whole_wall = whole_wall.min(t0.elapsed().as_secs_f64());
        }

        // Warm tiled runners: per-worker pipelines + stitch scratch
        // recycled across rounds, the steady-state sharded path.
        let time_tiled = |jobs: usize| {
            let mut runner = TiledRunner::new(cfg, false, grid, jobs);
            let mut seg = Segmentation::default();
            let mut stats = runner.run_into(img, &mut NullTelemetry, &mut seg);
            let mut wall = f64::MAX;
            for _ in 0..repeats {
                let t0 = Instant::now();
                stats = runner.run_into(img, &mut NullTelemetry, &mut seg);
                wall = wall.min(t0.elapsed().as_secs_f64());
            }
            (seg, stats, wall)
        };
        let (seg_j1, stats_j1, wall_j1) = time_tiled(1);
        let (seg_jn, stats_jn, wall_jn) = time_tiled(jobs);

        if seg_j1.labels != seg_jn.labels {
            guard_failures.push(format!("{name}: tiled output depends on worker count"));
        }
        if *name == "shards" && seg_j1.labels != whole_seg.labels {
            guard_failures.push(
                "shards: tiled labels differ from the whole-image run on a \
                 threshold-separated scene"
                    .to_string(),
            );
        }

        let fanout = if wall_jn > 0.0 {
            wall_j1 / wall_jn
        } else {
            1.0
        };
        let tiled_over_whole = if wall_jn > 0.0 {
            whole_wall / wall_jn
        } else {
            1.0
        };
        best_fanout = best_fanout.max(fanout);
        best_tiled_over_whole = best_tiled_over_whole.max(tiled_over_whole);
        // On one worker the jN run repeats j1: its ratio is noise, not
        // fan-out, so it stays out of the gated speedup.
        let scene_speedup = if jobs > 1 {
            fanout.max(tiled_over_whole)
        } else {
            tiled_over_whole
        };

        let whole = TileRow {
            backend: "whole",
            image: name,
            threshold,
            jobs: None,
            num_regions: whole_seg.num_regions,
            iterations: whole_seg.merge_iterations,
            seam_edges: None,
            speedup: None,
            wall_ms: whole_wall * 1e3,
        };
        let tiled_j1 = TileRow {
            backend: "tiled-j1",
            image: name,
            threshold,
            jobs: Some(1),
            num_regions: seg_j1.num_regions,
            iterations: seg_j1.merge_iterations,
            seam_edges: Some(stats_j1.seam_edges),
            speedup: None,
            wall_ms: wall_j1 * 1e3,
        };
        let tiled_jn = TileRow {
            backend: "tiled-jN",
            image: name,
            threshold,
            jobs: Some(jobs),
            num_regions: seg_jn.num_regions,
            iterations: seg_jn.merge_iterations,
            seam_edges: Some(stats_jn.seam_edges),
            // Gate the speedup on the designated speedup scene only: the
            // flat `shards` scene runs near 1.0x by construction, and
            // gating a ~1.0 baseline would fail CI on ordinary wall noise.
            speedup: (*name == "noise").then_some(scene_speedup),
            wall_ms: wall_jn * 1e3,
        };
        for r in [&whole, &tiled_j1, &tiled_jn] {
            eprintln!(
                "{:9} {:8} regions={:8} iters={:3} seam_edges={:7} wall={:10.3}ms",
                r.backend,
                r.image,
                r.num_regions,
                r.iterations,
                r.seam_edges.map_or("-".to_string(), |s| s.to_string()),
                r.wall_ms,
            );
        }
        eprintln!(
            "{:9} {:8} speedup: jobs{jobs}/jobs1 {fanout:.2}x, tiled/whole {tiled_over_whole:.2}x",
            "", name
        );
        rows.push(whole);
        rows.push(tiled_j1);
        rows.push(tiled_jn);
    }

    let round2 = |x: f64| Json::Num((x * 100.0).round() / 100.0);
    let mut fields = vec![
        ("schema", Json::Str("bench-tiles-v1".to_string())),
        ("generator", Json::Str("bench_record tiles".to_string())),
        ("image_size", Json::Num(n as f64)),
        ("grid", Json::Str(grid.to_string())),
        ("jobs", Json::Num(jobs as f64)),
        ("rows", Json::Arr(rows.iter().map(tile_row_json).collect())),
    ];
    let speedup = if jobs > 1 {
        fields.push(("speedup_fanout", round2(best_fanout)));
        best_fanout.max(best_tiled_over_whole)
    } else {
        best_tiled_over_whole
    };
    fields.push(("speedup_tiled_over_whole", round2(best_tiled_over_whole)));
    fields.push(("speedup", round2(speedup)));
    (Json::obj(fields), guard_failures)
}

/// `bench_record tiles [--quick] [--check] [--min-speedup F] [--out PATH]
/// [--size N]` — record the tiled-vs-whole document (`BENCH_tiled.json`).
/// `--check` fails on any identity guard or a best-speedup below the
/// floor (1.4x by default).
fn tiles_main(args: &[String]) {
    let mut quick = false;
    let mut check = false;
    let mut min_speedup = 1.4f64;
    let mut out = "BENCH_tiled.json".to_string();
    let mut size: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out = p.clone(),
                    None => {
                        eprintln!("--out requires a path");
                        std::process::exit(2);
                    }
                }
            }
            "--min-speedup" => {
                i += 1;
                min_speedup = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--min-speedup requires a number (e.g. 1.4)");
                    std::process::exit(2);
                });
            }
            "--size" => {
                i += 1;
                size = Some(args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--size requires a pixel count");
                    std::process::exit(2);
                }));
            }
            bad => {
                eprintln!(
                    "unknown flag {bad:?}; usage: bench_record tiles [--quick] [--check] \
                     [--min-speedup F] [--out PATH] [--size N]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let n = size.unwrap_or(if quick { 512 } else { 2048 });
    let (doc, guard_failures) = build_tiles_doc(n);
    let speedup = doc.get("speedup").and_then(Json::as_f64).unwrap_or(1.0);
    std::fs::write(&out, doc.to_pretty() + "\n").unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out}");

    if check {
        for f in &guard_failures {
            eprintln!("TILES GUARD FAILED: {f}");
        }
        if speedup < min_speedup {
            eprintln!("TILES GUARD FAILED: best speedup {speedup:.2}x < floor {min_speedup:.2}x");
        }
        if !guard_failures.is_empty() || speedup < min_speedup {
            std::process::exit(1);
        }
        eprintln!(
            "tiles guard OK: worker-invariant, stitch-identical on the separated scene, \
             {speedup:.2}x >= {min_speedup:.2}x"
        );
    }
}

fn load_doc(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path}: not valid JSON: {e}");
        std::process::exit(1);
    })
}

/// `bench_record diff [current.json] [baseline.json] [--baseline PATH]
/// [--tolerance F] [--strict-wall]` — compare two recorded documents, or a
/// fresh run against a committed baseline when only `--baseline` is given.
/// Exits 1 on regression, 0 otherwise (the CI perf-smoke contract).
fn diff_main(args: &[String]) {
    let mut baseline: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut opts = DiffOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--baseline" => {
                i += 1;
                baseline = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--baseline requires a path");
                    std::process::exit(2);
                }));
            }
            "--tolerance" => {
                i += 1;
                opts.tolerance = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--tolerance requires a number (e.g. 0.15)");
                    std::process::exit(2);
                });
            }
            "--strict-wall" => opts.strict_wall = true,
            bad if bad.starts_with('-') => {
                eprintln!(
                    "unknown flag {bad:?}; usage: bench_record diff [baseline.json current.json] \
                     [--baseline PATH] [--tolerance F] [--strict-wall]"
                );
                std::process::exit(2);
            }
            p => positional.push(p.to_string()),
        }
        i += 1;
    }

    // Resolve (baseline, current): explicit --baseline beats positionals;
    // with no current document we run the suite fresh at the baseline's
    // recorded image size.
    let (base_doc, base_name, cur_doc, cur_name) = match (baseline, positional.as_slice()) {
        (Some(b), [cur]) => (load_doc(&b), b, load_doc(cur), cur.clone()),
        (Some(b), []) => {
            let base = load_doc(&b);
            let n = base.get("image_size").and_then(Json::as_u64).unwrap_or(256) as usize;
            // The baseline's generator field picks the suite to rerun, so
            // one diff gate serves both the merge and split documents.
            let generator = base
                .get("generator")
                .and_then(Json::as_str)
                .unwrap_or("bench_record")
                .to_string();
            eprintln!("running fresh {n}x{n} `{generator}` suite against baseline {b}...");
            let (doc, _) = match generator.as_str() {
                "bench_record split" => build_split_doc(n),
                "bench_record tiles" => build_tiles_doc(n),
                _ => build_doc(n),
            };
            (base, b, doc, "<fresh run>".to_string())
        }
        (None, [b, cur]) => (load_doc(b), b.clone(), load_doc(cur), cur.clone()),
        _ => {
            eprintln!(
                "usage: bench_record diff <baseline.json> <current.json>\n\
                 \x20      bench_record diff [current.json] --baseline <baseline.json>\n\
                 \x20      [--tolerance F] [--strict-wall]"
            );
            std::process::exit(2);
        }
    };

    let report = diff_docs(&base_doc, &cur_doc, &opts).unwrap_or_else(|e| {
        eprintln!("diff failed: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "diff: {base_name} (baseline) vs {cur_name} (tolerance {:.0}%{})",
        opts.tolerance * 100.0,
        if opts.strict_wall {
            ", strict wall"
        } else {
            ""
        }
    );
    print!("{}", report.render());
    if !report.ok() {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("diff") => diff_main(&args[1..]),
        Some("batch") => batch_main(&args[1..]),
        Some("split") => split_main(&args[1..]),
        Some("tiles") => tiles_main(&args[1..]),
        _ => record_main(&args),
    }
}
