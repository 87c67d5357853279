//! `rgrow` — command-line split-and-merge region growing.
//!
//! ```text
//! rgrow <input.pgm> [output.pgm] [options]
//! rgrow --demo image3 out.pgm --engine mp-async
//! rgrow --batch 'frames/*.pgm' --jobs 4
//! rgrow --batch demo:random:16 --engine seq --telemetry -
//!
//! options:
//!   --batch SPEC           stream many images through one pooled pipeline
//!                          (allocation-free in steady state on the host
//!                          engines). SPEC is a PGM path glob (`*`/`?` in the
//!                          final component) or a synthetic spec
//!                          `demo:<scene>:<count>` (scenes as --demo, plus
//!                          `random` for per-index random 256x256 scenes).
//!                          [output.pgm] names a directory in batch mode.
//!   --jobs N               batch/tile worker count; each worker owns one
//!                          pipeline [1]. Forced to 1 when telemetry/tracing
//!                          is on so the journal's span nesting stays strict.
//!   --tiles RxC            shard the image into an R-row, C-column tile grid,
//!                          segment tiles on the worker pool, and stitch with
//!                          a cross-tile boundary merge (host engine only;
//!                          see DESIGN.md §17). The grid clamps so every tile
//!                          holds at least one pixel.
//!   --threshold N          homogeneity threshold T in grey levels [10]
//!   --tie random|smallest|largest    tie-break policy [random]
//!   --seed N               seed for random tie-breaking [0x5EED]
//!   --connectivity 4|8     region adjacency [4]
//!   --criterion range|mean homogeneity criterion [range]
//!   --cap N                max square side 2^N (0 = merge-only) [unbounded]
//!   --engine seq|cm2-8k|cm2-16k|cm5-dp|mp-lp|mp-async   [seq]
//!   --nodes N              node count for mp-* engines [32]
//!   --chaos SEED[:PROFILE] inject a seeded deterministic fault schedule into
//!                          the simulated CMMD fabric (mp-* engines only).
//!                          SEED is decimal or 0x-hex; PROFILE is one of
//!                          none|drop|dup|corrupt|delay|slow|storm|blackhole
//!                          [storm]. Survivable schedules reproduce the
//!                          fault-free labels bit for bit; unsurvivable ones
//!                          degrade to the sequential host engine. Trace
//!                          journals switch to the logical clock so the same
//!                          seed writes a byte-identical journal every run.
//!   --demo NAME            use a built-in scene instead of an input file
//!                          (image1..image6, circles, rects, nested, tool).
//!                          The scalable scenes take a `:SIZE` suffix, e.g.
//!                          `nested:1024` for a 1024x1024 nested-rects scene.
//!   --telemetry PATH       write a JSON telemetry report (stage timings,
//!                          per-iteration merge counts, comm counters,
//!                          histograms); PATH of `-` writes to stdout
//!   --trace-out PATH       stream a JSONL event journal (hierarchical spans,
//!                          counters, histograms) while the run executes;
//!                          PATH of `-` streams to stderr, unbuffered
//!   --chrome-trace PATH    write a Chrome trace_event JSON file viewable in
//!                          chrome://tracing or Perfetto
//!   --analyze              after the run, print a causal analysis (critical
//!                          path, per-rank busy/idle, load imbalance,
//!                          straggler rank) from the captured flow events;
//!                          needs an mp-* engine to capture any
//!   --verify               check connectivity/homogeneity/maximality
//!   --quiet                suppress the summary
//! ```

use cm_sim::CostModel;
use cmmd_sim::{CommScheme, FaultPlan};
use rg_core::{
    analyze_journal, chrome_trace, jsonl_writer, labels::labels_to_image, replay, run_batch,
    segment_with_telemetry, verify_segmentation, BatchOptions, Config, Connectivity, Criterion,
    EmitEvent, EventVec, HostPipeline, NullTelemetry, Pipeline, Segmentation, Streaming, Telemetry,
    TieBreak, TileGrid, TiledRunner,
};
use rg_imaging::{pgm, synth, GrayImage};
use std::process::exit;

struct Options {
    input: Option<String>,
    output: Option<String>,
    demo: Option<String>,
    batch: Option<String>,
    tiles: Option<TileGrid>,
    jobs: usize,
    threshold: u32,
    tie: TieBreak,
    connectivity: Connectivity,
    criterion: Criterion,
    cap: Option<u8>,
    engine: String,
    nodes: usize,
    chaos: Option<FaultPlan>,
    telemetry: Option<String>,
    trace_out: Option<String>,
    chrome_trace: Option<String>,
    analyze: bool,
    verify: bool,
    quiet: bool,
}

/// Valid values for `--engine`, in the order shown in error messages.
const ENGINES: &[&str] = &["seq", "cm2-8k", "cm2-16k", "cm5-dp", "mp-lp", "mp-async"];
/// Valid values for `--tie`.
const TIES: &[&str] = &["random", "smallest", "largest"];

fn usage() -> ! {
    eprintln!(
        "usage: rgrow <input.pgm> [output.pgm] [--threshold N] [--tie random|smallest|largest]\n\
         \x20            [--seed N] [--connectivity 4|8] [--criterion range|mean] [--cap N]\n\
         \x20            [--engine seq|cm2-8k|cm2-16k|cm5-dp|mp-lp|mp-async] [--nodes N]\n\
         \x20            [--chaos SEED[:none|drop|dup|corrupt|delay|slow|storm|blackhole]]\n\
         \x20            [--tiles RxC] [--jobs N]\n\
         \x20            [--demo image1..image6|circles|rects|nested|tool[:SIZE]] [--telemetry out.json|-]\n\
         \x20            [--trace-out out.jsonl|-] [--chrome-trace out.trace.json]\n\
         \x20            [--analyze] [--verify] [--quiet]"
    );
    exit(2)
}

fn parse_args() -> Options {
    let mut o = Options {
        input: None,
        output: None,
        demo: None,
        batch: None,
        tiles: None,
        jobs: 1,
        threshold: 10,
        tie: TieBreak::Random { seed: 0x5EED },
        connectivity: Connectivity::Four,
        criterion: Criterion::PixelRange,
        cap: None,
        engine: "seq".to_string(),
        nodes: 32,
        chaos: None,
        telemetry: None,
        trace_out: None,
        chrome_trace: None,
        analyze: false,
        verify: false,
        quiet: false,
    };
    let mut seed = 0x5EEDu64;
    let mut tie_name = "random".to_string();
    let mut args = std::env::args().skip(1).peekable();
    let need_value =
        |args: &mut std::iter::Peekable<std::iter::Skip<std::env::Args>>, flag: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                usage()
            })
        };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threshold" | "-t" => {
                o.threshold = need_value(&mut args, &a)
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--tie" => tie_name = need_value(&mut args, &a),
            "--seed" => {
                seed = need_value(&mut args, &a)
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--connectivity" => {
                o.connectivity = match need_value(&mut args, &a).as_str() {
                    "4" => Connectivity::Four,
                    "8" => Connectivity::Eight,
                    _ => usage(),
                }
            }
            "--criterion" => {
                o.criterion = match need_value(&mut args, &a).as_str() {
                    "range" => Criterion::PixelRange,
                    "mean" => Criterion::MeanDifference,
                    _ => usage(),
                }
            }
            "--cap" => {
                o.cap = Some(
                    need_value(&mut args, &a)
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--engine" => o.engine = need_value(&mut args, &a),
            "--nodes" => {
                o.nodes = need_value(&mut args, &a)
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--chaos" => {
                let spec = need_value(&mut args, &a);
                o.chaos = Some(FaultPlan::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("bad --chaos spec {spec:?}: {e}");
                    usage()
                }))
            }
            "--demo" => o.demo = Some(need_value(&mut args, &a)),
            "--batch" => o.batch = Some(need_value(&mut args, &a)),
            "--tiles" => {
                let spec = need_value(&mut args, &a);
                o.tiles = Some(TileGrid::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("bad --tiles spec: {e}");
                    usage()
                }))
            }
            "--jobs" | "-j" => {
                let v = need_value(&mut args, &a);
                o.jobs = v.parse().unwrap_or_else(|_| {
                    eprintln!("bad --jobs value {v:?}: expected a worker count (e.g. --jobs 4)");
                    usage()
                })
            }
            "--telemetry" => o.telemetry = Some(need_value(&mut args, &a)),
            "--trace-out" => o.trace_out = Some(need_value(&mut args, &a)),
            "--chrome-trace" => o.chrome_trace = Some(need_value(&mut args, &a)),
            "--analyze" => o.analyze = true,
            "--verify" => o.verify = true,
            "--quiet" | "-q" => o.quiet = true,
            "--help" | "-h" => usage(),
            _ if a.starts_with('-') => {
                eprintln!("unknown flag {a}");
                usage()
            }
            _ if o.input.is_none() && o.demo.is_none() && o.batch.is_none() => o.input = Some(a),
            _ if o.output.is_none() => o.output = Some(a),
            _ => usage(),
        }
    }
    o.tie = match tie_name.as_str() {
        "random" => TieBreak::Random { seed },
        "smallest" => TieBreak::SmallestId,
        "largest" => TieBreak::LargestId,
        other => {
            eprintln!(
                "unknown tie-break policy {other:?}; valid choices are: {}",
                TIES.join(", ")
            );
            usage()
        }
    };
    if !ENGINES.contains(&o.engine.as_str()) {
        eprintln!(
            "unknown engine {:?}; valid choices are: {}",
            o.engine,
            ENGINES.join(", ")
        );
        usage()
    }
    if o.chaos.is_some() && !o.engine.starts_with("mp-") {
        eprintln!(
            "--chaos injects faults into the simulated CMMD fabric and needs an mp-* engine \
             (got {:?})",
            o.engine
        );
        usage()
    }
    if o.tiles.is_some() {
        if o.batch.is_some() {
            eprintln!("--tiles shards one image and cannot combine with --batch");
            usage()
        }
        if o.engine != "seq" {
            eprintln!("--tiles runs on the host engine (seq); got {:?}", o.engine);
            usage()
        }
    }
    o
}

fn load_image(o: &Options) -> GrayImage {
    if let Some(demo) = &o.demo {
        // Scalable scenes take a `:SIZE` suffix (e.g. `nested:1024`); the
        // paper's fixed images do not.
        let (scene, size) = match demo.split_once(':') {
            Some((scene, n)) => {
                let size = n
                    .parse::<usize>()
                    .ok()
                    .filter(|&s| s > 0)
                    .unwrap_or_else(|| {
                        eprintln!("bad demo size in {demo:?}: expected a positive pixel count");
                        usage()
                    });
                (scene, Some(size))
            }
            None => (demo.as_str(), None),
        };
        if size.is_some() && !matches!(scene, "nested" | "circles" | "rects" | "tool") {
            eprintln!(
                "demo scene {scene:?} has a fixed size (sizes apply to nested/circles/rects/tool)"
            );
            usage()
        }
        return match scene {
            "image1" => synth::PaperImage::Image1.generate(),
            "image2" => synth::PaperImage::Image2.generate(),
            "image3" => synth::PaperImage::Image3.generate(),
            "image4" => synth::PaperImage::Image4.generate(),
            "image5" => synth::PaperImage::Image5.generate(),
            "image6" => synth::PaperImage::Image6.generate(),
            "circles" => match size {
                Some(n) => synth::circle_collection(n),
                None => synth::PaperImage::Image3.generate(),
            },
            "rects" => match size {
                Some(n) => synth::rect_collection(n),
                None => synth::PaperImage::Image5.generate(),
            },
            "tool" => match size {
                Some(n) => synth::tool(n),
                None => synth::PaperImage::Image6.generate(),
            },
            "nested" => synth::nested_rects(size.unwrap_or(256)),
            other => {
                eprintln!("unknown demo scene {other:?}");
                usage()
            }
        };
    }
    let path = o.input.as_ref().unwrap_or_else(|| usage());
    pgm::load(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1)
    })
}

fn run_engine(
    o: &Options,
    img: &GrayImage,
    cfg: &Config,
    tel: &mut dyn Telemetry,
) -> (Segmentation, Option<String>) {
    match o.engine.as_str() {
        "seq" => (segment_with_telemetry(img, cfg, tel), None),
        "cm2-8k" | "cm2-16k" | "cm5-dp" => {
            let model = match o.engine.as_str() {
                "cm2-8k" => CostModel::cm2_8k(),
                "cm2-16k" => CostModel::cm2_16k(),
                _ => CostModel::cm5_dp_32(),
            };
            let out = rg_datapar::segment_datapar_with_telemetry(img, cfg, model, tel);
            let note = format!(
                "simulated on {}: split {:.3}s, merge {:.3}s",
                out.platform,
                out.split_seconds,
                out.merge_seconds_as_reported()
            );
            (out.seg, Some(note))
        }
        "mp-lp" | "mp-async" => {
            let scheme = if o.engine == "mp-lp" {
                CommScheme::LinearPermutation
            } else {
                CommScheme::Async
            };
            let out = match &o.chaos {
                Some(plan) => rg_msgpass::segment_msgpass_chaos_with_telemetry(
                    img, cfg, o.nodes, scheme, plan, tel,
                ),
                None => rg_msgpass::segment_msgpass_with_telemetry(img, cfg, o.nodes, scheme, tel),
            };
            let mut note = if out.degraded {
                format!(
                    "chaos: cluster lost ({} fault events) -> degraded to host re-run (square cap 2^{})",
                    out.fault_events.len(),
                    out.cap_used
                )
            } else {
                format!(
                    "simulated on CM-5 ({} nodes, {}): split {:.3}s, merge {:.3}s (square cap 2^{})",
                    out.nodes,
                    out.scheme.label(),
                    out.split_seconds,
                    out.merge_seconds_as_reported(),
                    out.cap_used
                )
            };
            if let Some(plan) = &o.chaos {
                if !out.degraded {
                    note.push_str(&format!(
                        "\nchaos: survived seed {:#x} profile {} ({} faults injected, {} retries)",
                        plan.seed,
                        plan.profile_name,
                        out.fault_counters.total_faults(),
                        out.fault_counters.retries
                    ));
                }
            }
            (out.seg, Some(note))
        }
        other => {
            eprintln!(
                "unknown engine {other:?}; valid choices are: {}",
                ENGINES.join(", ")
            );
            usage()
        }
    }
}

/// Shell-style wildcard match (`*` any run, `?` one char), ASCII-byte-wise.
fn wildcard_match(pattern: &str, name: &str) -> bool {
    let (p, s) = (pattern.as_bytes(), name.as_bytes());
    let (mut pi, mut si) = (0usize, 0usize);
    let (mut star, mut mark) = (usize::MAX, 0usize);
    while si < s.len() {
        if pi < p.len() && (p[pi] == b'?' || p[pi] == s[si]) {
            pi += 1;
            si += 1;
        } else if pi < p.len() && p[pi] == b'*' {
            star = pi;
            mark = si;
            pi += 1;
        } else if star != usize::MAX {
            pi = star + 1;
            mark += 1;
            si = mark;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'*' {
        pi += 1;
    }
    pi == p.len()
}

/// Expands a `--batch` spec into named images: a `demo:<scene>:<count>`
/// synthetic stream, a PGM path glob, or a single literal path.
fn expand_batch(spec: &str) -> Vec<(String, GrayImage)> {
    if let Some(rest) = spec.strip_prefix("demo:") {
        let (scene, count) = match rest.rsplit_once(':') {
            Some((scene, n)) => (
                scene,
                n.parse::<usize>().unwrap_or_else(|_| {
                    eprintln!("bad count in batch spec {spec:?}");
                    usage()
                }),
            ),
            None => (rest, 1),
        };
        if count == 0 {
            eprintln!("batch spec {spec:?} asks for zero images; use a positive count");
            exit(2);
        }
        return (0..count)
            .map(|i| {
                let img = match scene {
                    "random" => synth::random_rects(256, 256, 12, i as u64),
                    "image1" => synth::PaperImage::Image1.generate(),
                    "image2" => synth::PaperImage::Image2.generate(),
                    "image3" | "circles" => synth::PaperImage::Image3.generate(),
                    "image4" => synth::PaperImage::Image4.generate(),
                    "image5" | "rects" => synth::PaperImage::Image5.generate(),
                    "image6" | "tool" => synth::PaperImage::Image6.generate(),
                    "nested" => synth::nested_rects(256),
                    other => {
                        eprintln!("unknown batch demo scene {other:?}");
                        usage()
                    }
                };
                (format!("{scene}:{i}"), img)
            })
            .collect();
    }
    if spec.contains('*') || spec.contains('?') {
        let (dir, pat) = match spec.rsplit_once('/') {
            Some((d, p)) => (d.to_string(), p.to_string()),
            None => (".".to_string(), spec.to_string()),
        };
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| {
                eprintln!("cannot list {dir}: {e}");
                exit(1)
            })
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| wildcard_match(&pat, n))
            .collect();
        names.sort();
        if names.is_empty() {
            eprintln!("batch glob {spec:?} matched no files; an empty batch is almost certainly a mistake");
            exit(2);
        }
        return names
            .into_iter()
            .map(|n| {
                let path = format!("{dir}/{n}");
                let img = pgm::load(&path).unwrap_or_else(|e| {
                    eprintln!("cannot read {path}: {e}");
                    exit(1)
                });
                (n, img)
            })
            .collect();
    }
    let img = pgm::load(spec).unwrap_or_else(|e| {
        eprintln!("cannot read {spec}: {e}");
        exit(1)
    });
    vec![(spec.to_string(), img)]
}

/// Builds one pooled pipeline for the selected engine (called once per
/// batch worker). A chaos plan only reaches the mp-* engines (enforced at
/// argument parsing).
fn pipeline_for(
    engine: &str,
    cfg: Config,
    nodes: usize,
    chaos: Option<&FaultPlan>,
) -> Box<dyn Pipeline + Send> {
    let mp = |scheme: CommScheme| -> Box<dyn Pipeline + Send> {
        match chaos {
            Some(plan) => Box::new(rg_msgpass::MsgPassPipeline::with_chaos(
                cfg,
                nodes,
                scheme,
                plan.clone(),
            )),
            None => Box::new(rg_msgpass::MsgPassPipeline::new(cfg, nodes, scheme)),
        }
    };
    match engine {
        "seq" => Box::new(HostPipeline::<u8>::new(cfg, false)),
        "cm2-8k" => Box::new(rg_datapar::DataParPipeline::new(cfg, CostModel::cm2_8k())),
        "cm2-16k" => Box::new(rg_datapar::DataParPipeline::new(cfg, CostModel::cm2_16k())),
        "cm5-dp" => Box::new(rg_datapar::DataParPipeline::new(
            cfg,
            CostModel::cm5_dp_32(),
        )),
        "mp-lp" => mp(CommScheme::LinearPermutation),
        "mp-async" => mp(CommScheme::Async),
        other => {
            eprintln!(
                "unknown engine {other:?}; valid choices are: {}",
                ENGINES.join(", ")
            );
            usage()
        }
    }
}

/// Tiled mode: shard one image over the worker pool and stitch (see
/// `rg_core::tiles`).
fn run_tiled(
    o: &Options,
    img: &GrayImage,
    cfg: &Config,
    grid: TileGrid,
    tel: &mut dyn Telemetry,
) -> (Segmentation, Option<String>) {
    let mut runner = TiledRunner::new(*cfg, false, grid, o.jobs);
    let mut seg = Segmentation::default();
    let stats = runner.run_into(img, tel, &mut seg);
    let note = format!(
        "tiled {}x{} ({} tiles, jobs {}): {} tile regions, {} seam edges, \
         {} stitch merges in {} stitch iters",
        stats.rows,
        stats.cols,
        stats.tiles,
        stats.jobs,
        stats.tile_regions,
        stats.seam_edges,
        stats.stitch_merges,
        stats.stitch_iterations
    );
    (seg, Some(note))
}

/// Batch mode: stream every image in the spec through pooled pipelines.
fn run_batch_mode(o: &Options, cfg: &Config, tel: &mut dyn Telemetry) {
    let images = expand_batch(o.batch.as_deref().expect("batch spec checked by caller"));
    if let Some(dir) = &o.output {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("cannot create output directory {dir}: {e}");
            exit(1)
        });
    }
    let imgs: Vec<GrayImage> = images.iter().map(|(_, img)| img.clone()).collect();
    let cfg = *cfg;
    let summary = run_batch(
        &imgs,
        &BatchOptions::new().jobs(o.jobs),
        || pipeline_for(&o.engine, cfg, o.nodes, o.chaos.as_ref()),
        tel,
        |i, seg| {
            if o.verify {
                if let Err(v) = verify_segmentation(&imgs[i], seg, &cfg) {
                    eprintln!(
                        "verify FAILED on {}: {} violations, first: {}",
                        images[i].0,
                        v.len(),
                        v[0]
                    );
                    exit(1);
                }
            }
            if let Some(dir) = &o.output {
                let stem = images[i]
                    .0
                    .rsplit('/')
                    .next()
                    .unwrap_or(&images[i].0)
                    .trim_end_matches(".pgm")
                    .replace(':', "_");
                let path = format!("{dir}/{stem}.seg.pgm");
                let rendered = labels_to_image(&seg.labels, seg.width, seg.height);
                pgm::save(&rendered, &path).unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    exit(1)
                });
            }
            if !o.quiet {
                println!(
                    "[{i:>4}] {}: {}x{} -> {} regions ({} merge iters)",
                    images[i].0, seg.width, seg.height, seg.num_regions, seg.merge_iterations
                );
            }
        },
    );
    if !o.quiet {
        println!(
            "batch: {} images -> {} total regions in {:.1} ms ({:.1} images/s, engine {}, jobs {})",
            summary.images,
            summary.total_regions,
            summary.wall_seconds * 1e3,
            summary.images_per_sec(),
            o.engine,
            summary.jobs,
        );
        if o.verify && summary.all_ok() {
            println!("verify: ok ({} images)", summary.images);
        }
    }
    if !summary.all_ok() {
        let names: Vec<&str> = summary
            .failed
            .iter()
            .map(|&i| images[i].0.as_str())
            .collect();
        eprintln!(
            "batch: {} of {} image(s) FAILED (pipeline panicked): {}",
            summary.failed.len(),
            summary.images,
            names.join(", ")
        );
        exit(1);
    }
}

fn main() {
    let o = parse_args();
    if o.input.is_none() && o.demo.is_none() && o.batch.is_none() {
        usage();
    }
    // Batch mode has no single input image; everything else shares the
    // config + telemetry sink setup below.
    let img = (o.batch.is_none()).then(|| load_image(&o));
    let cfg = Config {
        threshold: o.threshold,
        tie_break: o.tie,
        connectivity: o.connectivity,
        criterion: o.criterion,
        max_square_log2: o.cap,
        ..Config::default()
    };
    let jsonl = o.trace_out.as_deref().map(|path| {
        jsonl_writer(path).unwrap_or_else(|e| {
            eprintln!("cannot open trace output {path}: {e}");
            exit(1)
        })
    });
    // One in-memory log serves the report, the Chrome export and --analyze.
    let memory =
        (o.telemetry.is_some() || o.chrome_trace.is_some() || o.analyze).then(EventVec::default);
    // One stream, one clock: the journal and the in-memory log carry the
    // same timestamps. Chaos runs log with the logical clock so repeated
    // seeded runs write byte-identical journals and Chrome traces.
    let mut stream = (jsonl.is_some() || memory.is_some()).then(|| {
        let stream = Streaming::new((jsonl, memory));
        match o.chaos {
            Some(_) => stream.with_logical_clock(),
            None => stream,
        }
    });
    let mut null = NullTelemetry;
    let tel: &mut dyn Telemetry = match stream.as_mut() {
        Some(stream) => stream,
        None => &mut null,
    };
    let t0 = std::time::Instant::now();
    let single = match &img {
        Some(img) => match o.tiles {
            Some(grid) => Some(run_tiled(&o, img, &cfg, grid, tel)),
            None => Some(run_engine(&o, img, &cfg, tel)),
        },
        None => {
            run_batch_mode(&o, &cfg, tel);
            None
        }
    };
    let wall = t0.elapsed();
    // Close the streaming journal (flushes buffered lines, reports drops).
    let (jsonl, memory) = stream.map(Streaming::into_sink).unwrap_or_default();
    if let Some(writer) = jsonl {
        if writer.dropped() > 0 {
            eprintln!(
                "warning: {} journal event(s) dropped (write failures)",
                writer.dropped()
            );
        }
    }
    let events = memory.map(|m| m.events).unwrap_or_default();

    if let Some((seg, note)) = &single {
        if !o.quiet {
            println!(
                "{}x{} -> {} squares ({} split iters) -> {} regions ({} merge iters) in {:.1} ms",
                seg.width,
                seg.height,
                seg.num_squares,
                seg.split_iterations,
                seg.num_regions,
                seg.merge_iterations,
                wall.as_secs_f64() * 1e3
            );
            if let Some(note) = note {
                println!("{note}");
            }
        }
        if o.verify {
            match verify_segmentation(img.as_ref().expect("single mode has an image"), seg, &cfg) {
                Ok(()) => {
                    if !o.quiet {
                        println!("verify: ok");
                    }
                }
                Err(v) => {
                    eprintln!("verify FAILED: {} violations, first: {}", v.len(), v[0]);
                    exit(1);
                }
            }
        }
    }
    if let Some(path) = &o.telemetry {
        let report = replay(&events);
        if path == "-" {
            println!("{}", report.to_json_pretty());
        } else {
            std::fs::write(path, report.to_json_pretty()).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                exit(1)
            });
            if !o.quiet {
                println!("wrote telemetry to {path}");
            }
        }
    }
    if o.analyze {
        let analyses = analyze_journal(&events);
        if analyses.is_empty() {
            eprintln!("--analyze: no flow events captured (causal tracing needs an mp-* engine)");
        } else {
            for a in &analyses {
                print!("{}", a.render());
            }
        }
    }
    if let Some(path) = &o.chrome_trace {
        let body = chrome_trace(&events).to_compact();
        if path == "-" {
            println!("{body}");
        } else {
            std::fs::write(path, body).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                exit(1)
            });
            if !o.quiet {
                println!("wrote Chrome trace to {path} (open in chrome://tracing or Perfetto)");
            }
        }
    }
    // Batch mode writes its per-image outputs inside run_batch_mode.
    if let (Some(out), Some((seg, _))) = (&o.output, &single) {
        let rendered = labels_to_image(&seg.labels, seg.width, seg.height);
        pgm::save(&rendered, out).unwrap_or_else(|e| {
            eprintln!("cannot write {out}: {e}");
            exit(1)
        });
        if !o.quiet {
            println!("wrote {out}");
        }
    }
}
