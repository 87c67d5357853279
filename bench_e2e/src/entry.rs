//! Every call this benchmark makes into the library, in one place: input
//! generation, the four workloads' calls through the public entry points
//! (`HostPipeline::run_image_into`, `TiledRunner::run_into`,
//! `pgm::read` + `run_batch`), the correctness oracle, and the library's
//! own telemetry sinks. A change to any of those signatures touches only
//! this file.

use rg_core::journal::{JsonlWriter, Streaming};
use rg_core::{
    run_batch, segment, verify_segmentation, BatchOptions, Config, HostPipeline, NullTelemetry,
    Pipeline, Recorder, Segmentation, Telemetry, TieBreak, TileGrid, TiledRunner,
};
use rg_imaging::pgm::{self, Flavor};
use rg_imaging::{synth, Image};
use std::time::Instant;

/// One benchmark workload (see README.md for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Images 1–6 through one warm `HostPipeline`.
    PaperSweep,
    /// One 2048² paper scene per call, rotating, warm `HostPipeline`.
    Scenes2048,
    /// One 1024² narrow-band noise raster per call through `TiledRunner` 4x4.
    NoiseTiled,
    /// 32 in-memory P5 buffers per call: `pgm::read`, then `run_batch`.
    SpeckleBatch,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperSweep,
        Workload::Scenes2048,
        Workload::NoiseTiled,
        Workload::SpeckleBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::Scenes2048 => "scenes-2048",
            Workload::NoiseTiled => "noise-tiled",
            Workload::SpeckleBatch => "speckle-batch",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: `Full` is the benchmark; `Smoke` shrinks every raster so
/// the self-test runs all four workloads in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

const NOISE_TILES: usize = 4;

/// The generated inputs of one workload. A call covers `per_call`
/// consecutive images; calls rotate through all of them.
pub struct Inputs {
    pub workload: Workload,
    config: Config,
    images: Vec<Image<u8>>,
    /// P5 encodings of `images` (speckle-batch only).
    pgm: Vec<Vec<u8>>,
    per_call: usize,
}

/// Raster seed `k` of workload seed `seed`: distinct rasters per seed.
fn raster_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k as u64)
}

impl Inputs {
    /// Generates the inputs; the same `seed` gives the same inputs.
    pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Self {
        let smoke = scale == Scale::Smoke;
        let random = Config::with_threshold(10).tie_break(TieBreak::Random { seed });
        let (config, images, per_call) = match workload {
            Workload::PaperSweep => {
                let images = if smoke {
                    vec![
                        synth::nested_rects(32),
                        synth::rect_collection(32),
                        synth::circle_collection(32),
                        synth::nested_rects(64),
                        synth::rect_collection(64),
                        synth::tool(64),
                    ]
                } else {
                    synth::PaperImage::ALL.map(|p| p.generate()).to_vec()
                };
                (random, images, 6)
            }
            Workload::Scenes2048 => {
                let n = if smoke { 64 } else { 2048 };
                let images = vec![
                    synth::nested_rects(n),
                    synth::rect_collection(n),
                    synth::circle_collection(n),
                    synth::tool(n),
                ];
                (random, images, 1)
            }
            Workload::NoiseTiled => {
                let (n, count) = if smoke { (64, 2) } else { (1024, 8) };
                let images = (0..count)
                    .map(|k| synth::uniform_noise(n, n, 120, 135, raster_seed(seed, k)))
                    .collect();
                let config = Config::with_threshold(10).tie_break(TieBreak::SmallestId);
                (config, images, 1)
            }
            Workload::SpeckleBatch => {
                let (n, count) = if smoke { (32, 4) } else { (256, 32) };
                let images: Vec<_> = (0..count)
                    .map(|k| synth::uniform_noise(n, n, 0, 255, raster_seed(seed, k)))
                    .collect();
                let config = Config::with_threshold(12).tie_break(TieBreak::Random { seed });
                (config, images, count)
            }
        };
        let pgm = if workload == Workload::SpeckleBatch {
            images
                .iter()
                .map(|img| {
                    let mut buf = Vec::new();
                    pgm::write(img, Some(255), Flavor::Binary, &mut buf)
                        .expect("an 8-bit raster encodes as P5 into memory");
                    buf
                })
                .collect()
        } else {
            Vec::new()
        };
        Self {
            workload,
            config,
            images,
            pgm,
            per_call,
        }
    }

    /// Number of distinct calls before the rotation repeats.
    pub fn rotation(&self) -> usize {
        self.images.len() / self.per_call
    }

    /// Index of the first image call `k` covers.
    pub fn first_image(&self, k: usize) -> usize {
        (k % self.rotation()) * self.per_call
    }

    /// Pixels call `k` segments.
    pub fn call_pixels(&self, k: usize) -> usize {
        let i = self.first_image(k);
        self.images[i..i + self.per_call]
            .iter()
            .map(|img| img.len())
            .sum()
    }

    /// PGM bytes call `k` decodes (0 outside speckle-batch).
    pub fn call_pgm_bytes(&self, k: usize) -> usize {
        let i = self.first_image(k);
        self.pgm
            .get(i..i + self.per_call)
            .map_or(0, |bufs| bufs.iter().map(Vec::len).sum())
    }

    /// The oracle: one verified reference hash per image, computed outside
    /// every timed interval. Whole-image and batch inputs use the one-shot
    /// `segment`; tiled inputs use the runner's first output, because the
    /// partition of noise depends on the merge order and so on the tiling.
    /// `None` marks a reference that failed `verify_segmentation`.
    pub fn references(&self) -> Vec<Option<u64>> {
        let mut runner = self.tiled_runner(1);
        self.images
            .iter()
            .map(|img| {
                let seg = if self.workload == Workload::NoiseTiled {
                    let mut out = Segmentation::default();
                    runner.run_into(img, &mut NullTelemetry, &mut out);
                    out
                } else {
                    segment(img, &self.config)
                };
                match verify_segmentation(img, &seg, &self.config) {
                    Ok(()) => Some(label_hash(&seg)),
                    Err(violations) => {
                        eprintln!("bench_e2e: reference fails verification: {}", violations[0]);
                        None
                    }
                }
            })
            .collect()
    }

    fn tiled_runner(&self, jobs: usize) -> TiledRunner {
        let grid = TileGrid::new(NOISE_TILES, NOISE_TILES);
        TiledRunner::new(self.config, false, grid, jobs)
    }
}

/// Hash of a segmentation's labels and region count (FNV-style multiply
/// xor over the label words).
pub fn label_hash(seg: &Segmentation) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seg.num_regions as u64;
    for &l in &seg.labels {
        h = (h ^ u64::from(l)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// One engine per caller, so the size of the variants does not matter.
#[allow(clippy::large_enum_variant)]
enum Engine {
    Host(HostPipeline<u8>),
    Tiled(TiledRunner),
    Batch,
}

/// A caller holding the workload's warm pipeline or runner and recycled
/// output buffers, one per image of a call.
pub struct Caller {
    engine: Engine,
    jobs: usize,
    outs: Vec<Segmentation>,
}

/// What a call reports besides its outputs.
pub struct CallInfo {
    /// Seconds spent in `pgm::read` (speckle-batch only).
    pub decode_s: f64,
    /// The library itself reported a failed image (batch panic isolation
    /// or an undecodable buffer).
    pub failed: bool,
}

impl Caller {
    /// A fresh caller; `jobs` is the worker count of tiled and batch calls.
    pub fn new(inputs: &Inputs, jobs: usize) -> Self {
        let engine = match inputs.workload {
            Workload::PaperSweep | Workload::Scenes2048 => {
                Engine::Host(HostPipeline::new(inputs.config, false))
            }
            Workload::NoiseTiled => Engine::Tiled(inputs.tiled_runner(jobs)),
            Workload::SpeckleBatch => Engine::Batch,
        };
        Self {
            engine,
            jobs,
            outs: (0..inputs.per_call)
                .map(|_| Segmentation::default())
                .collect(),
        }
    }

    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs call `k` with telemetry into `tel`.
    pub fn call(&mut self, inputs: &Inputs, k: usize, tel: &mut dyn Telemetry) -> CallInfo {
        let first = inputs.first_image(k);
        let images = &inputs.images[first..first + inputs.per_call];
        let mut info = CallInfo {
            decode_s: 0.0,
            failed: false,
        };
        match &mut self.engine {
            Engine::Host(pipe) => {
                for (img, out) in images.iter().zip(&mut self.outs) {
                    pipe.run_image_into(img, tel, out);
                }
            }
            Engine::Tiled(runner) => {
                runner.run_into(&images[0], tel, &mut self.outs[0]);
            }
            Engine::Batch => {
                let t0 = Instant::now();
                let decoded: Result<Vec<Image<u8>>, _> = inputs.pgm[first..first + inputs.per_call]
                    .iter()
                    .map(|buf| pgm::read(&buf[..]))
                    .collect();
                info.decode_s = t0.elapsed().as_secs_f64();
                let Ok(decoded) = decoded else {
                    info.failed = true;
                    return info;
                };
                let config = inputs.config;
                let outs = &mut self.outs;
                let summary = run_batch(
                    &decoded,
                    &BatchOptions::new().jobs(self.jobs),
                    || Box::new(HostPipeline::<u8>::new(config, false)) as Box<dyn Pipeline + Send>,
                    tel,
                    |i, seg| {
                        // Copy into the recycled buffer; hashing waits until
                        // the timer has stopped.
                        let out = &mut outs[i];
                        out.labels.clear();
                        out.labels.extend_from_slice(&seg.labels);
                        out.num_regions = seg.num_regions;
                    },
                );
                info.failed = !summary.all_ok();
            }
        }
        info
    }

    /// The outputs of the last call, one per image.
    pub fn outputs(&self) -> &[Segmentation] {
        &self.outs
    }

    /// Test hook: lets the self-test corrupt an output.
    #[cfg(test)]
    pub fn outputs_mut(&mut self) -> &mut [Segmentation] {
        &mut self.outs
    }
}

/// The library's own telemetry sinks, for the sink-overhead rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LibrarySink {
    Recorder,
    Jsonl,
}

impl LibrarySink {
    /// A fresh sink: `Recorder`, or JSONL streamed into `io::sink()`.
    pub fn make(self) -> Box<dyn Telemetry> {
        match self {
            LibrarySink::Recorder => Box::new(Recorder::new()),
            LibrarySink::Jsonl => Box::new(Streaming::new(JsonlWriter::new(std::io::sink()))),
        }
    }
}

/// The disabled sink every end-to-end call runs with.
pub fn null_sink() -> NullTelemetry {
    NullTelemetry
}

/// Test helper: parses a JSON document with the library's JSON layer.
#[cfg(test)]
pub fn parse_json(text: &str) -> rg_core::json::Json {
    rg_core::json::Json::parse(text).expect("valid JSON")
}
