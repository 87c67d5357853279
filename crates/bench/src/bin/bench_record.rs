//! Records the per-stage benchmark suites to `BENCH_*.json` and gates
//! them with `rg_bench::diff`.
//!
//! Every suite shares one skeleton. A row of [`SUITES`] names the suite's
//! subcommand, `generator`, schema, default output, accepted flags, image
//! sizes and speedup floor; its `build` function holds only what differs:
//! scenes, timed paths, row fields and guards. One parser, one timer
//! ([`best_of`]) and one write-and-check tail serve all four.
//!
//! ```text
//! # merge suite: the incremental CSR engine (`Merger`) vs the reference
//! # edge-list merge, to BENCH_merge.json. 512x512, --quick 256x256.
//! # --check: CSR relabel_work <= reference on every scene.
//! bench_record [--quick] [--check] [--out PATH]
//!
//! # split suite: the packed word-parallel engine vs the scalar reference
//! # oracle, to BENCH_split.json. 512x512, --quick 256x256.
//! # --check: bit-identical output, cells_touched / words_tested <= reference.
//! bench_record split [--quick] [--check] [--out PATH]
//!
//! # batch suite: warm pipelines vs a naive fresh-segment() loop over 16
//! # synthetic 256x256 speckle images, to BENCH_batch.json.
//! # --check: best speedup over naive >= --min-speedup (1.3).
//! bench_record batch [--out PATH] [--check] [--min-speedup F] [--images N]
//!                    [--size N] [--scene speckle|rects|nested|noise]
//!
//! # tiles suite: the sharded runtime (rgrow --tiles 4x4) on one worker and
//! # on the pool vs a whole-image run, to BENCH_tiled.json. 2048x2048,
//! # --quick 512x512, --size overrides both. --check: worker-invariant
//! # labels, whole-image labels on `shards`, speedup >= --min-speedup (1.4).
//! bench_record tiles [--quick] [--check] [--min-speedup F] [--out PATH] [--size N]
//!
//! # perf-regression diff (see rg_bench::diff). Exit 1 on regression.
//! bench_record diff old.json new.json                 # two recorded files
//! bench_record diff --baseline BENCH_batch.json       # rerun the baseline's suite
//! bench_record diff new.json --baseline old.json --tolerance 0.15 --strict-wall
//! ```
//!
//! `diff --baseline` alone reruns the suite whose `generator` wrote the
//! baseline, at its recorded `image_size` (and, for batch, its `scene` and
//! `images` count); a document no suite wrote exits 2.
//!
//! `edges_per_sec` is `initial_edges x iterations / wall_seconds`: the rate
//! at which the engine would traverse the *initial* edge set once per
//! iteration — exactly the work the reference merge actually does, so the
//! CSR engine's number directly exposes how much of that traversal the
//! incremental structure skips.

use std::hint::black_box;
use std::process::exit;
use std::str::FromStr;
use std::time::Instant;

use rg_bench::diff::{diff_docs, DiffOptions};
use rg_core::graph::Rag;
use rg_core::json::Json;
use rg_core::telemetry::Recorder;
use rg_core::{
    run_batch, segment, segment_with_telemetry, split, split_into, split_reference, BatchOptions,
    Config, Criterion, HostPipeline, Merger, NullTelemetry, ReferenceInput, Segmentation,
    SplitResult, SplitScratch, TieBreak, TileGrid, TiledRunner,
};
use rg_imaging::{synth, GrayImage};

/// One recorded suite: what its document and subcommand declare. The
/// skeleton ([`Suite::document`], [`record_main`], [`diff_main`]) does the
/// rest.
struct Suite {
    /// Subcommand; the merge suite runs without one.
    name: &'static str,
    /// The document's `generator`, by which `diff --baseline` finds the
    /// suite to rerun.
    generator: &'static str,
    schema: &'static str,
    /// Default `--out`.
    out: &'static str,
    /// Flags the subcommand accepts.
    flags: &'static [&'static str],
    /// Image side of a full run and of a `--quick` one.
    sizes: [usize; 2],
    /// Default `--min-speedup` (suites that accept it).
    min_speedup: f64,
    /// What `--check` enforces, for the success line.
    checks: &'static str,
    /// Runs the suite at image side `n`.
    build: fn(usize, &Knobs) -> Built,
}

/// The document fields after `image_size`, and the guard failures that
/// `--check` exits 1 on.
type Built = (Vec<(&'static str, Json)>, Vec<String>);

/// Suite inputs besides the image side.
struct Knobs {
    min_speedup: f64,
    /// Batch stream length.
    images: usize,
    /// Batch scene.
    scene: String,
}

const SUITES: [Suite; 4] = [
    Suite {
        name: "merge",
        generator: "bench_record",
        schema: "bench-merge-v1",
        out: "BENCH_merge.json",
        flags: &["--quick", "--check", "--out"],
        sizes: [512, 256],
        min_speedup: 0.0,
        checks: "CSR relabel work <= reference on every scene",
        build: merge_suite,
    },
    Suite {
        name: "split",
        generator: "bench_record split",
        schema: "bench-split-v1",
        out: "BENCH_split.json",
        flags: &["--quick", "--check", "--out"],
        sizes: [512, 256],
        min_speedup: 0.0,
        checks: "packed output bit-identical and counters <= reference on every scene",
        build: split_suite,
    },
    Suite {
        name: "batch",
        generator: "bench_record batch",
        schema: "bench-batch-v1",
        out: "BENCH_batch.json",
        flags: &[
            "--out",
            "--check",
            "--min-speedup",
            "--images",
            "--size",
            "--scene",
        ],
        sizes: [256, 256],
        min_speedup: 1.3,
        checks: "batch speedup over naive at or above the floor",
        build: batch_suite,
    },
    Suite {
        name: "tiles",
        generator: "bench_record tiles",
        schema: "bench-tiles-v1",
        out: "BENCH_tiled.json",
        flags: &["--quick", "--check", "--min-speedup", "--out", "--size"],
        sizes: [2048, 512],
        min_speedup: 1.4,
        checks: "worker-invariant, stitch-identical on the separated scene, \
                 speedup at or above the floor",
        build: tiles_suite,
    },
];

/// The suite that writes documents with this `generator`.
fn suite_for(generator: &str) -> Option<&'static Suite> {
    SUITES.iter().find(|s| s.generator == generator)
}

impl Suite {
    /// The default knobs.
    fn knobs(&self) -> Knobs {
        Knobs {
            min_speedup: self.min_speedup,
            images: 16,
            scene: "speckle".to_string(),
        }
    }

    /// Runs the suite at image side `n`: the document and its guard
    /// failures.
    fn document(&self, n: usize, knobs: &Knobs) -> (Json, Vec<String>) {
        let (fields, failures) = (self.build)(n, knobs);
        let mut doc: Vec<(&str, Json)> = vec![
            ("schema", self.schema.into()),
            ("generator", self.generator.into()),
            ("image_size", n.into()),
        ];
        doc.extend(fields);
        (Json::obj(doc), failures)
    }
}

/// Best wall time, in seconds, of each path over `k` timed rounds after
/// one untimed warm-up round; the paths take turns within a round. The
/// clock starts as a path is called: a path that first builds input it
/// leaves untimed restarts the clock by writing `Instant::now()` to its
/// argument.
fn best_of<const N: usize>(k: usize, mut paths: [&mut dyn FnMut(&mut Instant); N]) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for round in 0..=k {
        for (path, best) in paths.iter_mut().zip(&mut best) {
            let mut t0 = Instant::now();
            path(&mut t0);
            if round > 0 {
                *best = best.min(t0.elapsed().as_secs_f64());
            }
        }
    }
    best
}

/// One document row: the differ's `(backend, image, tie_break, threshold)`
/// key, then `metrics` in order. Echoed to stderr as progress.
fn row(
    backend: &str,
    image: &str,
    tie_break: &str,
    threshold: u32,
    metrics: Vec<(&str, Json)>,
) -> Json {
    let mut fields = vec![
        ("backend", backend.into()),
        ("image", image.into()),
        ("tie_break", tie_break.into()),
        ("threshold", threshold.into()),
    ];
    fields.extend(metrics);
    let row = Json::obj(fields);
    eprintln!("{}", row.to_compact());
    row
}

/// Seconds as milliseconds to three decimals, the `wall_ms` column.
fn ms(secs: f64) -> Json {
    Json::Num((secs * 1e6).round() / 1e3)
}

/// `x` to two decimals, the precision of every recorded speedup.
fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// `num / den`, or 1.0 when `den` is not positive.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        1.0
    }
}

/// `key`: the per-scene speedups, then `speedup_geomean` over the
/// positive ones (1.0 when there are none).
fn speedup_fields(key: &'static str, speedups: &[(String, f64)]) -> [(&'static str, Json); 2] {
    let logs: Vec<f64> = speedups
        .iter()
        .filter(|s| s.1 > 0.0)
        .map(|s| s.1.ln())
        .collect();
    let geomean = if logs.is_empty() {
        1.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    };
    let table = speedups
        .iter()
        .map(|(k, s)| (k.clone(), round2(*s).into()))
        .collect();
    [
        (key, Json::Obj(table)),
        ("speedup_geomean", round2(geomean).into()),
    ]
}

/// The floor guard of the batch and tiles suites.
fn floor_guard(speedup: f64, knobs: &Knobs, failures: &mut Vec<String>) {
    if speedup < knobs.min_speedup {
        failures.push(format!(
            "best speedup {speedup:.2}x < floor {:.2}x",
            knobs.min_speedup
        ));
    }
}

/// Worker count of the pooled batch and tiles paths.
fn pool_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get().min(4))
}

/// The `backend` name of rows that time the `Merger` engine.
const CSR: &str = "csr";

/// `initial_edges x iterations / wall_seconds` (see the module doc).
fn edges_per_sec(initial_edges: u64, iterations: u32, wall: f64) -> f64 {
    if wall > 0.0 {
        (initial_edges as f64) * f64::from(iterations) / wall
    } else {
        0.0
    }
}

/// The merge suite: `Merger::run` against [`ReferenceInput::run`] on the
/// same split, per scene and tie-break. Neither timed phase includes
/// building its input (`Merger::new`, the reference's initial criterion
/// filter). Guard: CSR relabel work never exceeds the reference's.
fn merge_suite(n: usize, _: &Knobs) -> Built {
    // Three merge-heavy scenes. `noise` keeps every edge an exact tie for
    // long stretches (the reference merge's worst case: full re-sorts on a
    // barely-shrinking edge list); `rects` and `circles` mirror the paper's
    // object scenes at scale.
    let scenes = [
        ("noise", 10, synth::uniform_noise(n, n, 120, 135, 7)),
        ("rects", 12, synth::random_rects(n, n, 40, 11)),
        ("circles", 10, synth::circle_collection(n)),
    ];
    let ties = [
        (TieBreak::Random { seed: 1 }, "random"),
        (TieBreak::SmallestId, "smallest_id"),
    ];
    let (mut rows, mut speedups, mut failures) = (Vec::new(), Vec::new(), Vec::new());
    for (name, threshold, img) in &scenes {
        for &(tie, tie_name) in &ties {
            let cfg = Config::with_threshold(*threshold).tie_break(tie);
            let s = split(img, &cfg);
            let stride = s.width as u32;
            let ids: Vec<u64> = s.squares.iter().map(|sq| sq.id(stride) as u64).collect();
            let rag = Rag::from_split(&s, cfg.connectivity);
            let initial_edges = rag.num_edges() as u64;

            let mut csr = None;
            let [csr_wall] = best_of(
                5,
                [&mut |t0: &mut Instant| {
                    let mut merger = Merger::new(rag.clone(), ids.clone(), &cfg);
                    *t0 = Instant::now();
                    let summary = merger.run();
                    csr = Some((merger, summary));
                }],
            );
            let mut reference = None;
            let [ref_wall] = best_of(
                5,
                [&mut |t0: &mut Instant| {
                    let input = ReferenceInput::new(&rag, &cfg);
                    *t0 = Instant::now();
                    reference = Some(input.run(&ids, &cfg));
                }],
            );
            let (merger, summary) = csr.expect("timed");
            let r = reference.expect("timed");
            let ref_iterations = r.steps.len() as u32;
            let merges: usize = r.steps.iter().map(|st| st.merges as usize).sum();
            let csr_eps = edges_per_sec(initial_edges, summary.iterations, csr_wall);
            let ref_eps = edges_per_sec(initial_edges, ref_iterations, ref_wall);
            rows.push(row(
                CSR,
                name,
                tie_name,
                *threshold,
                vec![
                    ("initial_edges", initial_edges.into()),
                    ("iterations", summary.iterations.into()),
                    ("num_regions", summary.num_regions.into()),
                    ("wall_ms", ms(csr_wall)),
                    ("edges_per_sec", csr_eps.round().into()),
                    ("peak_live_edges", merger.peak_active_edges().into()),
                    ("relabel_work", merger.relabel_work().into()),
                    ("compactions", merger.compactions().into()),
                    ("owners_visited", merger.owners_visited().into()),
                ],
            ));
            rows.push(row(
                "reference",
                name,
                tie_name,
                *threshold,
                vec![
                    ("initial_edges", initial_edges.into()),
                    ("iterations", ref_iterations.into()),
                    ("num_regions", (ids.len() - merges).into()),
                    ("wall_ms", ms(ref_wall)),
                    ("edges_per_sec", ref_eps.round().into()),
                    ("peak_live_edges", r.peak_active_edges.into()),
                    ("relabel_work", r.relabel_work.into()),
                    ("compactions", 0u64.into()),
                ],
            ));
            speedups.push((format!("{name}/{tie_name}"), ratio(csr_eps, ref_eps)));
            if merger.relabel_work() > r.relabel_work {
                failures.push(format!(
                    "{name}/{tie_name}: csr relabel_work {} > reference {}",
                    merger.relabel_work(),
                    r.relabel_work
                ));
            }
        }
    }
    let mut fields = vec![("rows", Json::Arr(rows))];
    fields.extend(speedup_fields("speedup_csr_over_reference", &speedups));
    (fields, failures)
}

/// The split suite: the packed engine on its production path (warm reused
/// scratch, sequential) against the retained scalar reference, which
/// allocates per call by construction. Guards: bit-identical output, and
/// packed `cells_touched` / `words_tested` never above the reference's.
fn split_suite(n: usize, _: &Knobs) -> Built {
    // `nested` coalesces deep (many productive levels), `rects` is the
    // paper's object scene, `noise` goes unproductive immediately — the
    // case where tight grids + deferred folding pay the most. `speckle`
    // leaves nearly every pixel its own 1×1 square, so emission dominates.
    let scenes = [
        ("nested", 10, synth::nested_rects(n)),
        ("rects", 12, synth::random_rects(n, n, 40, 11)),
        ("noise", 10, synth::uniform_noise(n, n, 120, 135, 7)),
        ("speckle", 12, synth::uniform_noise(n, n, 0, 255, 7)),
    ];
    let criteria = [
        (Criterion::PixelRange, "range"),
        (Criterion::MeanDifference, "mean"),
    ];
    let (mut rows, mut speedups, mut failures) = (Vec::new(), Vec::new(), Vec::new());
    let mut scratch = SplitScratch::new();
    let mut packed: SplitResult<u8> = SplitResult::default();
    for (name, threshold, img) in &scenes {
        for &(crit, crit_name) in &criteria {
            let cfg = Config::with_threshold(*threshold).criterion(crit);
            let [packed_wall] = best_of(
                5,
                [&mut |_: &mut Instant| split_into(img, &cfg, &mut scratch, &mut packed)],
            );
            let mut reference = SplitResult::default();
            let [ref_wall] = best_of(
                5,
                [&mut |_: &mut Instant| reference = split_reference(img, &cfg)],
            );
            for (backend, out, wall) in [
                ("packed", &packed, packed_wall),
                ("reference", &reference, ref_wall),
            ] {
                rows.push(row(
                    backend,
                    name,
                    crit_name,
                    *threshold,
                    vec![
                        ("iterations", out.iterations.into()),
                        ("num_squares", out.squares.len().into()),
                        ("wall_ms", ms(wall)),
                        ("cells_touched", out.metrics.cells_folded.into()),
                        ("words_tested", out.metrics.words_tested.into()),
                    ],
                ));
            }
            if packed.squares != reference.squares
                || packed.stats != reference.stats
                || packed.square_of != reference.square_of
                || packed.iterations != reference.iterations
            {
                failures.push(format!(
                    "{name}/{crit_name}: packed output differs from reference"
                ));
            }
            for (metric, p, r) in [
                (
                    "cells_touched",
                    packed.metrics.cells_folded,
                    reference.metrics.cells_folded,
                ),
                (
                    "words_tested",
                    packed.metrics.words_tested,
                    reference.metrics.words_tested,
                ),
            ] {
                if p > r {
                    failures.push(format!(
                        "{name}/{crit_name}: packed {metric} {p} > reference {r}"
                    ));
                }
            }
            speedups.push((format!("{name}/{crit_name}"), ratio(ref_wall, packed_wall)));
        }
    }
    let mut fields = vec![("rows", Json::Arr(rows))];
    fields.extend(speedup_fields("speedup_packed_over_reference", &speedups));
    (fields, failures)
}

/// The batch suite: `knobs.images` synthetic scenes streamed three ways,
/// in interleaved rounds (single shots on shared CI boxes are too noisy
/// for a guarded floor):
///
/// * `naive`: a fresh engine allocation per image (`segment()` loop);
/// * `batch-seq`: one warm sequential pipeline, arenas reused across the
///   stream, zero allocations per image (see tests/alloc_steady_state.rs);
/// * `batch`: the runtime as shipped (`rgrow --batch --jobs N`),
///   per-worker warm pipelines fed from a shared queue.
///
/// Guard: the better of the two warm paths beats naive by the floor.
fn batch_suite(n: usize, knobs: &Knobs) -> Built {
    let threshold = 12;
    let cfg = Config::with_threshold(threshold).tie_break(TieBreak::Random { seed: 1 });
    let gen: fn(usize, u64) -> GrayImage = match knobs.scene.as_str() {
        "rects" => |n, s| synth::random_rects(n, n, 12, s),
        "nested" => |n, _| synth::nested_rects(n),
        "noise" => |n, s| synth::uniform_noise(n, n, 120, 135, s),
        // Worst-case fragmentation: high-contrast speckle keeps every
        // pixel its own region, so the vertex/edge/label arenas hit their
        // full bounds — the allocation load the batch runtime amortizes.
        "speckle" => |n, s| synth::uniform_noise(n, n, 0, 255, s),
        other => {
            eprintln!("unknown scene {other:?}; use speckle, rects, nested or noise");
            exit(2);
        }
    };
    let imgs: Vec<GrayImage> = (0..knobs.images).map(|s| gen(n, s as u64)).collect();

    // Deterministic counters (identical for every path by the workspace
    // bit-identity guarantee): total regions and total merge iterations.
    let (mut regions, mut iterations) = (0usize, 0u64);
    for img in &imgs {
        let mut rec = Recorder::new();
        regions += segment_with_telemetry(img, &cfg, &mut rec).num_regions;
        iterations += rec.report().merge_iterations.len() as u64;
    }

    let jobs = pool_jobs();
    let mut pipe: HostPipeline<u8> = HostPipeline::new(cfg, false);
    let mut seg = Segmentation::default();
    let walls = best_of(
        5,
        [
            &mut |_: &mut Instant| {
                for img in &imgs {
                    black_box(segment(img, &cfg));
                }
            },
            &mut |_: &mut Instant| {
                for img in &imgs {
                    pipe.run_image_into(img, &mut NullTelemetry, &mut seg);
                    black_box(&seg);
                }
            },
            &mut |_: &mut Instant| {
                let summary = run_batch(
                    &imgs,
                    &BatchOptions::new().jobs(jobs),
                    || Box::new(HostPipeline::<u8>::new(cfg, false)),
                    &mut NullTelemetry,
                    |_, _| {},
                );
                assert_eq!(summary.images, imgs.len(), "batch runtime dropped images");
            },
        ],
    );

    let image = format!("{}-stream", knobs.scene);
    let rows = ["naive", "batch-seq", "batch"]
        .into_iter()
        .zip(walls)
        .map(|(backend, wall)| {
            let per_sec = if wall > 0.0 {
                knobs.images as f64 / wall
            } else {
                0.0
            };
            row(
                backend,
                &image,
                "random",
                threshold,
                vec![
                    ("images", knobs.images.into()),
                    ("num_regions", regions.into()),
                    ("iterations", iterations.into()),
                    ("wall_ms", ms(wall)),
                    ("images_per_sec", ((per_sec * 10.0).round() / 10.0).into()),
                ],
            )
        })
        .collect();
    let [_, reuse, runtime] = walls.map(|wall| ratio(walls[0], wall));
    // The guarded number is the batch runtime's best configuration on this
    // host: warm reuse alone on one core, plus worker fan-out where cores
    // exist.
    let speedup = reuse.max(runtime);
    eprintln!(
        "speedup over naive: batch-seq (reuse only) {reuse:.2}x, \
         batch ({jobs} jobs) {runtime:.2}x"
    );
    let mut failures = Vec::new();
    floor_guard(speedup, knobs, &mut failures);
    let fields = vec![
        ("scene", knobs.scene.as_str().into()),
        ("jobs", jobs.into()),
        ("rows", Json::Arr(rows)),
        ("speedup_batch_over_naive", round2(speedup).into()),
        ("speedup_reuse_over_naive", round2(reuse).into()),
        ("speedup_runtime_over_naive", round2(runtime).into()),
    ];
    (fields, failures)
}

/// The tiles suite: the warm sharded runtime (`rgrow --tiles 4x4`) on one
/// worker and on the pool of `min(nproc, 4)` workers, against a fresh
/// `segment()` per round. The pool row is named `tiled-jN` on every host
/// (the differ matches rows by name) and records its worker count in
/// `jobs`; worker fan-out enters the speedups only when it was measured,
/// i.e. when `jobs > 1`. Guards: labels independent of the worker count,
/// exact whole-image labels on the threshold-separated scene, and the
/// speedup floor.
fn tiles_suite(n: usize, knobs: &Knobs) -> Built {
    let threshold = 10;
    let cfg = Config::with_threshold(threshold).tie_break(TieBreak::SmallestId);
    let grid = TileGrid::new(4, 4);
    let jobs = pool_jobs();
    // `shards`: flat cells pairwise separated by far more than T — the
    // scene family where the stitched partition provably equals the
    // whole-image run (exact-labels guard; DESIGN.md §17). `noise`:
    // narrow-band noise drives tens of merge iterations over a huge RAG —
    // the whole-image run churns cache-hostile full-image merge arenas
    // while each tile merges in cache, so sharding wins on a single core
    // and worker fan-out stacks on top where cores exist. The guarded
    // `speedup` metric lives on this scene's tiled-jN row.
    let scenes = [
        ("shards", synth::checkerboard(n, (n / 16).max(1), 40, 200)),
        ("noise", synth::uniform_noise(n, n, 120, 135, 9)),
    ];
    let (mut rows, mut failures) = (Vec::new(), Vec::new());
    let (mut best_fanout, mut best_tiled_over_whole) = (0.0f64, 0.0f64);
    for (name, img) in &scenes {
        // Whole-image one-shot: fresh arenas per call, what an un-sharded
        // caller pays per image.
        let mut whole = Segmentation::default();
        let [whole_wall] = best_of(3, [&mut |_: &mut Instant| whole = segment(img, &cfg)]);
        // Warm tiled runners: per-worker pipelines + stitch scratch
        // recycled across rounds, the steady-state sharded path.
        let time_tiled = |jobs: usize| {
            let mut runner = TiledRunner::new(cfg, false, grid, jobs);
            let (mut seg, mut seam_edges) = (Segmentation::default(), 0);
            let [wall] = best_of(
                3,
                [&mut |_: &mut Instant| {
                    seam_edges = runner
                        .run_into(img, &mut NullTelemetry, &mut seg)
                        .seam_edges
                }],
            );
            (seg, seam_edges, wall)
        };
        let tiled = [("tiled-j1", 1), ("tiled-jN", jobs)]
            .map(|(backend, jobs)| (backend, jobs, time_tiled(jobs)));
        let [(_, _, (seg_j1, _, wall_j1)), (_, _, (seg_jn, _, wall_jn))] = &tiled;
        if seg_j1.labels != seg_jn.labels {
            failures.push(format!("{name}: tiled output depends on worker count"));
        }
        if *name == "shards" && seg_j1.labels != whole.labels {
            failures.push(
                "shards: tiled labels differ from the whole-image run on a \
                 threshold-separated scene"
                    .to_string(),
            );
        }

        let fanout = ratio(*wall_j1, *wall_jn);
        let tiled_over_whole = ratio(whole_wall, *wall_jn);
        best_fanout = best_fanout.max(fanout);
        best_tiled_over_whole = best_tiled_over_whole.max(tiled_over_whole);
        eprintln!("{name}: jobs{jobs}/jobs1 {fanout:.2}x, tiled/whole {tiled_over_whole:.2}x");

        rows.push(row(
            "whole",
            name,
            "smallest",
            threshold,
            vec![
                ("num_regions", whole.num_regions.into()),
                ("iterations", whole.merge_iterations.into()),
                ("wall_ms", ms(whole_wall)),
            ],
        ));
        for (backend, jobs, (seg, seam_edges, wall)) in &tiled {
            let mut metrics = vec![
                ("jobs", (*jobs).into()),
                ("num_regions", seg.num_regions.into()),
                ("iterations", seg.merge_iterations.into()),
                ("wall_ms", ms(*wall)),
                ("seam_edges", (*seam_edges).into()),
            ];
            // Only the designated speedup scene's pool row carries the
            // speedup: the flat `shards` scene runs near 1.0x by
            // construction, and a ~1.0 baseline would trip the diff on
            // ordinary wall noise. On one worker the jN run repeats j1, so
            // its ratio is noise, not fan-out.
            if *backend == "tiled-jN" && *name == "noise" {
                let speedup = if *jobs > 1 {
                    fanout.max(tiled_over_whole)
                } else {
                    tiled_over_whole
                };
                metrics.push(("speedup", round2(speedup).into()));
            }
            rows.push(row(backend, name, "smallest", threshold, metrics));
        }
    }

    let mut fields = vec![
        ("grid", grid.to_string().into()),
        ("jobs", jobs.into()),
        ("rows", Json::Arr(rows)),
    ];
    let speedup = if jobs > 1 {
        fields.push(("speedup_fanout", round2(best_fanout).into()));
        best_fanout.max(best_tiled_over_whole)
    } else {
        best_tiled_over_whole
    };
    fields.push((
        "speedup_tiled_over_whole",
        round2(best_tiled_over_whole).into(),
    ));
    fields.push(("speedup", round2(speedup).into()));
    // The floor gates the recorded two-decimal speedup.
    floor_guard(round2(speedup), knobs, &mut failures);
    (fields, failures)
}

/// Flags that take a value, with the value's name for usage lines.
const VALUE_FLAGS: [(&str, &str); 7] = [
    ("--out", "PATH"),
    ("--min-speedup", "F"),
    ("--images", "N"),
    ("--size", "N"),
    ("--scene", "speckle|rects|nested|noise"),
    ("--baseline", "PATH"),
    ("--tolerance", "F"),
];

/// A parsed command line: flags in order, with their values, and the
/// positional arguments.
struct Args {
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

/// Prints `msg` and `usage` and exits 2, the bad-invocation status.
fn usage_error(msg: &str, usage: &str) -> ! {
    eprintln!("{msg}\n{usage}");
    exit(2)
}

impl Args {
    /// Parses `args` against the `accepted` flags and at most
    /// `max_positional` positional arguments; anything else exits 2.
    fn parse(args: &[String], accepted: &[&str], max_positional: usize, usage: &str) -> Args {
        let mut parsed = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') {
                parsed.positional.push(arg.clone());
            } else if !accepted.contains(&arg.as_str()) {
                usage_error(&format!("unknown flag {arg:?}"), usage);
            } else if VALUE_FLAGS.iter().any(|(f, _)| f == arg) {
                let Some(value) = it.next() else {
                    usage_error(&format!("{arg} requires a value"), usage)
                };
                parsed.flags.push((arg.clone(), Some(value.clone())));
            } else {
                parsed.flags.push((arg.clone(), None));
            }
        }
        if parsed.positional.len() > max_positional {
            usage_error(
                &format!(
                    "unexpected argument {:?}",
                    parsed.positional[max_positional]
                ),
                usage,
            );
        }
        parsed
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// The last value given to `flag`; one that does not parse exits 2.
    fn value<T: FromStr>(&self, flag: &str) -> Option<T> {
        let (_, value) = self.flags.iter().rev().find(|(f, _)| f == flag)?;
        let value = value.as_deref().expect("value flags carry a value");
        Some(value.parse().unwrap_or_else(|_| {
            eprintln!("{flag}: bad value {value:?}");
            exit(2)
        }))
    }
}

/// Records `suite`'s document, then enforces its guards under `--check`.
fn record_main(suite: &Suite, args: &[String]) {
    let mut usage = format!("usage: {}", suite.generator);
    for flag in suite.flags {
        match VALUE_FLAGS.iter().find(|(f, _)| f == flag) {
            Some((_, hint)) => usage += &format!(" [{flag} {hint}]"),
            None => usage += &format!(" [{flag}]"),
        }
    }
    let args = Args::parse(args, suite.flags, 0, &usage);
    let defaults = suite.knobs();
    let knobs = Knobs {
        min_speedup: args.value("--min-speedup").unwrap_or(defaults.min_speedup),
        images: args.value("--images").unwrap_or(defaults.images),
        scene: args.value("--scene").unwrap_or(defaults.scene),
    };
    let n = args
        .value("--size")
        .unwrap_or(suite.sizes[usize::from(args.has("--quick"))]);
    let (doc, failures) = suite.document(n, &knobs);
    let out: String = args.value("--out").unwrap_or_else(|| suite.out.to_string());
    std::fs::write(&out, doc.to_pretty() + "\n").unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        exit(1);
    });
    eprintln!("wrote {out}");
    if args.has("--check") {
        for f in &failures {
            eprintln!("{} GUARD FAILED: {f}", suite.name);
        }
        if !failures.is_empty() {
            exit(1);
        }
        eprintln!("{} guards OK: {}", suite.name, suite.checks);
    }
}

const DIFF_USAGE: &str = "usage: bench_record diff <baseline.json> <current.json>\n\
     \x20      bench_record diff [current.json] --baseline <baseline.json>\n\
     \x20      [--tolerance F] [--strict-wall]";

fn load_doc(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path}: not valid JSON: {e}");
        exit(1);
    })
}

/// Reruns the suite that wrote `base` at its recorded `image_size`, and
/// with its `scene` and per-row `images` count where it has them.
fn rerun(base: &Json, path: &str) -> Json {
    let generator = base.get("generator").and_then(Json::as_str).unwrap_or("");
    let Some(suite) = suite_for(generator) else {
        eprintln!(
            "{path}: generator {generator:?} is no bench_record suite, so there is \
             nothing to rerun; pass the current document too"
        );
        exit(2);
    };
    let n = base.get("image_size").and_then(Json::as_u64).unwrap_or(256) as usize;
    let mut knobs = suite.knobs();
    if let Some(scene) = base.get("scene").and_then(Json::as_str) {
        knobs.scene = scene.to_string();
    }
    let first_row = base
        .get("rows")
        .and_then(Json::as_arr)
        .and_then(<[_]>::first);
    if let Some(images) = first_row
        .and_then(|r| r.get("images"))
        .and_then(Json::as_u64)
    {
        knobs.images = images as usize;
    }
    eprintln!("running fresh {n}x{n} `{generator}` suite against baseline {path}...");
    suite.document(n, &knobs).0
}

/// `bench_record diff` — compares two recorded documents, or a fresh run
/// against a committed baseline when only `--baseline` is given. Exits 1
/// on regression, 0 otherwise (the CI perf-smoke contract).
fn diff_main(args: &[String]) {
    let args = Args::parse(
        args,
        &["--baseline", "--tolerance", "--strict-wall"],
        2,
        DIFF_USAGE,
    );
    let opts = DiffOptions {
        tolerance: args
            .value("--tolerance")
            .unwrap_or(DiffOptions::default().tolerance),
        strict_wall: args.has("--strict-wall"),
    };
    let (base_name, cur_name) = match (args.value::<String>("--baseline"), &args.positional[..]) {
        (Some(b), [cur]) => (b, Some(cur.clone())),
        (Some(b), []) => (b, None),
        (None, [b, cur]) => (b.clone(), Some(cur.clone())),
        _ => usage_error("diff needs two documents, or --baseline", DIFF_USAGE),
    };
    let base = load_doc(&base_name);
    let cur = match &cur_name {
        Some(path) => load_doc(path),
        None => rerun(&base, &base_name),
    };

    let report = diff_docs(&base, &cur, &opts).unwrap_or_else(|e| {
        eprintln!("diff failed: {e}");
        exit(1);
    });
    eprintln!(
        "diff: {base_name} (baseline) vs {} (tolerance {:.0}%{})",
        cur_name.as_deref().unwrap_or("<fresh run>"),
        opts.tolerance * 100.0,
        if opts.strict_wall {
            ", strict wall"
        } else {
            ""
        }
    );
    print!("{}", report.render());
    if !report.ok() {
        exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("diff") => diff_main(&args[1..]),
        // The merge suite (first) runs without a subcommand.
        cmd => match SUITES[1..].iter().find(|s| Some(s.name) == cmd) {
            Some(suite) => record_main(suite, &args[1..]),
            None => record_main(&SUITES[0], &args),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rg_bench::diff::Severity;

    /// A committed document at the workspace root.
    fn committed(file: &str) -> Json {
        let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
        Json::parse(&std::fs::read_to_string(&path).expect("committed document")).unwrap()
    }

    fn keys(obj: &Json) -> Vec<&str> {
        match obj {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    /// The differ's row key, rendered.
    fn row_key(row: &Json) -> Vec<String> {
        ["backend", "image", "tie_break", "threshold"]
            .iter()
            .map(|k| row.get(k).expect("row key").to_compact())
            .collect()
    }

    fn rows(doc: &Json) -> &[Json] {
        doc.get("rows").and_then(Json::as_arr).expect("rows")
    }

    /// Every suite, run tiny, writes the committed document's header keys
    /// and, row by row, the same row keys and fields in the same order.
    #[test]
    fn tiny_documents_keep_the_committed_schemas() {
        for suite in &SUITES {
            let mut knobs = suite.knobs();
            let n = if suite.name == "batch" {
                knobs.images = 2;
                16
            } else {
                32
            };
            let (doc, _) = suite.document(n, &knobs);
            let base = committed(suite.out);
            assert_eq!(doc.get("schema"), base.get("schema"), "{}", suite.name);
            assert_eq!(
                doc.get("generator"),
                base.get("generator"),
                "{}",
                suite.name
            );

            // `speedup_fanout` is measured only on more than one worker.
            let mut header = keys(&base);
            if doc.get("jobs").and_then(Json::as_u64) == Some(1) {
                header.retain(|&k| k != "speedup_fanout");
            }
            assert_eq!(keys(&doc), header, "{}", suite.name);

            assert_eq!(rows(&doc).len(), rows(&base).len(), "{}", suite.name);
            for (row, base_row) in rows(&doc).iter().zip(rows(&base)) {
                assert_eq!(row_key(row), row_key(base_row), "{}", suite.name);
                assert_eq!(keys(row), keys(base_row), "{}: {row:?}", suite.name);
                let csr = row.get("backend").and_then(Json::as_str) == Some(CSR);
                assert_eq!(row.get("owners_visited").is_some(), csr);
            }

            let report = diff_docs(&doc, &doc, &DiffOptions::default()).unwrap();
            assert!(report.ok(), "{}: {}", suite.name, report.render());
            assert!(report.missing_rows.is_empty() && report.new_rows.is_empty());
            assert_eq!(report.count(Severity::Warning), 0, "{}", suite.name);
        }
    }

    #[test]
    fn every_generator_finds_its_suite() {
        for (generator, name) in [
            ("bench_record", "merge"),
            ("bench_record split", "split"),
            ("bench_record batch", "batch"),
            ("bench_record tiles", "tiles"),
        ] {
            assert_eq!(suite_for(generator).map(|s| s.name), Some(name));
        }
        for unknown in ["", "trace_analyze", "bench_record merge"] {
            assert!(suite_for(unknown).is_none(), "{unknown:?}");
        }
    }
}
