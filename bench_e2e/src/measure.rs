//! The measurement phases of one invocation and the metrics they yield.
//!
//! Every call goes through [`Bench::call`], which times it from outside
//! the library, catches a panic, and — after the timer has stopped —
//! hashes the outputs and compares them with the oracle. A panicked or
//! wrong call counts as failed.

use crate::alloc;
use crate::entry::{label_hash, null_sink, Caller, Inputs, LibrarySink, Workload};
use crate::host::{self, Probe};
use crate::report::Report;
use crate::stats::{median, median_of, quantile};
use crate::trace::{Counts, Layers, StampSink};
use rg_core::Telemetry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Timings are reported as if every probe walk had taken this long: the
/// walk's time in the fast phase of the recording host (README.md, "Host
/// noise").
const PROBE_REF_S: f64 = 0.55e-3;
/// Least spacing of probe walks inside the measured loop.
const PROBE_EVERY: Duration = Duration::from_millis(100);
/// Fresh callers timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Warm untraced calls whose allocations are counted.
const ALLOC_CALLS: usize = 2;
/// Calls per side of the jobs=1 versus jobs=N comparison.
const FANOUT_CALLS: usize = 10;
/// Sink-overhead rounds run at least this often, whatever the time budget.
const MIN_OVERHEAD_ROUNDS: usize = 3;

pub struct Settings {
    /// Length of the measured loop (`--seconds`).
    pub seconds: f64,
    /// Test hook: corrupt one output label of the call with this attempt
    /// number, after it returns.
    #[cfg(test)]
    pub corrupt_call: Option<u64>,
}

impl Settings {
    pub fn new(seconds: f64) -> Self {
        Self {
            seconds,
            #[cfg(test)]
            corrupt_call: None,
        }
    }
}

type Metrics = Vec<(&'static str, f64)>;
type Context = Vec<(String, String)>;

/// One checked call.
struct Timed {
    secs: f64,
    decode_s: f64,
    allocs: u64,
}

/// One call of the traced phase.
pub struct TracedCall {
    pub layers: Layers,
    pub wall: f64,
    pub decode_s: f64,
    pub pixels: f64,
    pub pgm_bytes: f64,
}

pub struct Bench<'a> {
    inputs: &'a Inputs,
    refs: Vec<Option<u64>>,
    settings: &'a Settings,
    attempted: u64,
    failed: u64,
}

impl<'a> Bench<'a> {
    /// Builds the oracle (outside every timed interval).
    pub fn new(inputs: &'a Inputs, settings: &'a Settings) -> Self {
        Self {
            inputs,
            refs: inputs.references(),
            settings,
            attempted: 0,
            failed: 0,
        }
    }

    fn call(&mut self, caller: &mut Caller, k: usize, tel: &mut dyn Telemetry) -> Timed {
        let inputs = self.inputs;
        let a0 = alloc::allocs();
        let t0 = Instant::now();
        let ran = catch_unwind(AssertUnwindSafe(|| caller.call(inputs, k, tel)));
        let secs = t0.elapsed().as_secs_f64();
        let allocs = alloc::allocs() - a0;
        let attempt = self.attempted;
        self.attempted += 1;
        let (ok, decode_s) = match ran {
            Ok(info) => {
                #[cfg(test)]
                if self.settings.corrupt_call == Some(attempt) {
                    caller.outputs_mut()[0].labels[0] ^= 1;
                }
                (!info.failed && self.matches(caller, k), info.decode_s)
            }
            Err(_) => {
                eprintln!("bench_e2e: call {attempt} panicked; rebuilding the caller");
                *caller = Caller::new(inputs, caller.jobs());
                (false, 0.0)
            }
        };
        if !ok {
            self.failed += 1;
        }
        Timed {
            secs,
            decode_s,
            allocs,
        }
    }

    fn matches(&self, caller: &Caller, k: usize) -> bool {
        let first = self.inputs.first_image(k);
        caller
            .outputs()
            .iter()
            .zip(&self.refs[first..])
            .all(|(seg, r)| *r == Some(label_hash(seg)))
    }

    /// Runs calls `0, 1, 2, ...` until `seconds` have passed and the
    /// rotation of inputs is complete (at least once), so every run
    /// measures the same mix.
    fn until(&mut self, seconds: f64, mut each: impl FnMut(&mut Self, usize)) -> usize {
        let budget = Duration::from_secs_f64(seconds);
        let rotation = self.inputs.rotation();
        let start = Instant::now();
        let mut k = 0;
        while k == 0 || start.elapsed() < budget || k % rotation != 0 {
            each(self, k);
            k += 1;
        }
        k
    }

    /// `SETUP_REPS` fresh callers, each timed from construction through its
    /// first call and normalized by the probe walks around it. Returns the
    /// median seconds, the median heap growth above the live heap before
    /// construction, and the last (warm) caller.
    fn setup(&mut self, jobs: usize, probe: &mut Probe) -> (f64, f64, Caller) {
        let mut secs = Vec::new();
        let mut heap = Vec::new();
        let mut last = None;
        for _ in 0..SETUP_REPS {
            drop(last.take());
            let before = probe.time();
            let base = alloc::reset_peak();
            let t0 = Instant::now();
            let mut caller = Caller::new(self.inputs, jobs);
            let built = t0.elapsed().as_secs_f64();
            let t = self.call(&mut caller, 0, &mut null_sink());
            heap.push(alloc::peak().saturating_sub(base) as f64);
            let speed = PROBE_REF_S / ((before + probe.time()) / 2.0);
            secs.push((built + t.secs) * speed);
            last = Some(caller);
        }
        let caller = last.expect("SETUP_REPS > 0");
        (median(&mut secs), median(&mut heap), caller)
    }

    /// One untimed pass over the rotation, so every input shape has been
    /// planned and every arena is at its high-water mark.
    fn warm(&mut self, caller: &mut Caller) {
        for k in 0..self.inputs.rotation() {
            self.call(caller, k, &mut null_sink());
        }
    }

    /// The end-to-end metrics (normalized to `PROBE_REF_S`) and, as
    /// context, the same timings before normalization.
    fn end_to_end(&mut self, jobs: usize) -> Result<(Metrics, Context), String> {
        let mut probe = Probe::new(jobs);
        let (setup_s, _, mut caller) = self.setup(jobs, &mut probe);
        self.warm(&mut caller);
        let mut raw = Vec::new();
        // (index of the first call after the walk, walk seconds)
        let mut walks = vec![(0, probe.time())];
        let mut last_walk = Instant::now();
        let mut pixels = 0.0;
        let cpu0 = host::cpu_seconds()?;
        let calls = self.until(self.settings.seconds, |b, k| {
            raw.push(b.call(&mut caller, k, &mut null_sink()).secs);
            pixels += b.inputs.call_pixels(k) as f64;
            if last_walk.elapsed() >= PROBE_EVERY {
                walks.push((k + 1, probe.time()));
                last_walk = Instant::now();
            }
        });
        walks.push((calls, probe.time()));
        let walk_cpu_s = walks.iter().map(|w| w.1).sum::<f64>() * jobs as f64;
        let cpu_s = host::cpu_seconds()? - cpu0 - walk_cpu_s;

        // Each call is scaled by the mean of the two walks around it.
        let mut norm = Vec::with_capacity(raw.len());
        for w in walks.windows(2) {
            let speed = PROBE_REF_S / ((w[0].1 + w[1].1) / 2.0);
            norm.extend(raw[w[0].0..w[1].0].iter().map(|t| t * speed));
        }
        let mpix = pixels / 1e6;
        let (raw_s, norm_s): (f64, f64) = (raw.iter().sum(), norm.iter().sum());
        let timings = |secs: &[f64], cpu_s: f64| {
            let mut ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
            [
                ("throughput_mpix_s", mpix / secs.iter().sum::<f64>()),
                ("latency_p50_ms", quantile(&mut ms, 0.5)),
                ("latency_p90_ms", quantile(&mut ms, 0.9)),
                ("cpu_ms_per_mpix", cpu_s * 1e3 / mpix),
            ]
        };
        let mut metrics: Metrics = timings(&norm, cpu_s * norm_s / raw_s).to_vec();
        metrics.push(("setup_s", setup_s));
        let mut walk_ms: Vec<f64> = walks.iter().map(|w| w.1 * 1e3).collect();
        let mut context: Context = timings(&raw, cpu_s)
            .iter()
            .map(|(name, v)| (format!("raw.{name}"), v.to_string()))
            .collect();
        context.push((
            "probe.walk_ms_median".to_string(),
            median(&mut walk_ms).to_string(),
        ));
        context.push(("probe.walks".to_string(), walk_ms.len().to_string()));
        Ok((metrics, context))
    }

    fn traced(&mut self, caller: &mut Caller, seconds: f64) -> (Vec<TracedCall>, Counts) {
        let mut sink = StampSink::new();
        let mut calls = Vec::new();
        let mut counts = Counts::default();
        let rotation = self.inputs.rotation();
        self.until(seconds, |b, k| {
            sink.clear();
            let t = b.call(caller, k, &mut sink);
            if k < rotation {
                counts.add(&sink.counts);
            }
            calls.push(TracedCall {
                layers: sink.fold(),
                wall: t.secs,
                decode_s: t.decode_s,
                pixels: b.inputs.call_pixels(k) as f64,
                pgm_bytes: b.inputs.call_pgm_bytes(k) as f64,
            });
        });
        counts.scale(1.0 / rotation as f64);
        (calls, counts)
    }

    /// The same calls with the null sink, the stamp sink, `Recorder` and a
    /// JSONL stream into `io::sink()`, in rotating order; returns each
    /// sink's median slowdown over the null sink in percent.
    fn sink_overhead(&mut self, caller: &mut Caller, seconds: f64) -> [f64; 3] {
        let mut stamp = StampSink::new();
        let mut slowdown: [Vec<f64>; 3] = Default::default();
        let budget = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        let mut round = 0;
        while round < MIN_OVERHEAD_ROUNDS || start.elapsed() < budget {
            let mut t = [0.0; 4];
            for j in 0..4 {
                let which = (round + j) % 4;
                t[which] = match which {
                    0 => self.call(caller, round, &mut null_sink()).secs,
                    1 => {
                        stamp.clear();
                        self.call(caller, round, &mut stamp).secs
                    }
                    _ => {
                        let kind = [LibrarySink::Recorder, LibrarySink::Jsonl][which - 2];
                        let mut sink = kind.make();
                        self.call(caller, round, &mut *sink).secs
                    }
                };
            }
            for (s, &ts) in slowdown.iter_mut().zip(&t[1..]) {
                s.push((ts / t[0] - 1.0) * 100.0);
            }
            round += 1;
        }
        slowdown.map(|mut s| median(&mut s))
    }

    /// Untraced jobs=1 median over jobs=N median, alternating which runs
    /// first.
    fn fanout(&mut self, one: &mut Caller, many: &mut Caller) -> f64 {
        let mut t1 = Vec::new();
        let mut tn = Vec::new();
        for k in 0..FANOUT_CALLS {
            if k % 2 == 0 {
                t1.push(self.call(one, k, &mut null_sink()).secs);
                tn.push(self.call(many, k, &mut null_sink()).secs);
            } else {
                tn.push(self.call(many, k, &mut null_sink()).secs);
                t1.push(self.call(one, k, &mut null_sink()).secs);
            }
        }
        median(&mut t1) / median(&mut tn)
    }

    fn per_layer(&mut self, jobs: usize) -> (Vec<(&'static str, f64)>, Vec<TracedCall>) {
        let (_, heap, mut caller) = self.setup(jobs, &mut Probe::new(jobs));
        self.warm(&mut caller);
        let allocs: Vec<f64> = (0..ALLOC_CALLS)
            .map(|k| self.call(&mut caller, k, &mut null_sink()).allocs as f64)
            .collect();
        let allocs_per_call = allocs.iter().sum::<f64>() / allocs.len() as f64;

        let seconds = self.settings.seconds;
        let (calls, c) = self.traced(&mut caller, seconds * 0.4);

        let mut one = Caller::new(self.inputs, 1);
        self.warm(&mut one);
        let [stamp, recorder, jsonl] = self.sink_overhead(&mut one, seconds * 0.2);
        let (tiles_fanout, batch_fanout) = match self.inputs.workload {
            Workload::NoiseTiled => (self.fanout(&mut one, &mut caller), 0.0),
            Workload::SpeckleBatch => (0.0, self.fanout(&mut one, &mut caller)),
            Workload::PaperSweep | Workload::Scenes2048 => (0.0, 0.0),
        };

        let ms = |f: fn(&Layers) -> f64| median_of(&calls, |c| f(&c.layers) * 1e3);
        let share =
            |f: fn(&Layers) -> f64| median_of(&calls, |c| 100.0 * f(&c.layers) / c.layers.stages());
        let ns_px = |f: fn(&Layers) -> f64| median_of(&calls, |c| f(&c.layers) * 1e9 / c.pixels);
        let parts = |f: fn(&mut Vec<f64>) -> f64| {
            median_of(&calls, |c| f(&mut c.layers.parts.clone()) * 1e3)
        };
        let max = |xs: &mut Vec<f64>| xs.iter().copied().fold(0.0, f64::max);
        let decode = calls.iter().any(|c| c.pgm_bytes > 0.0);
        let metrics = vec![
            ("split.self_ms", ms(|l| l.split)),
            ("split.share_pct", share(|l| l.split)),
            ("split.ns_per_px", ns_px(|l| l.split)),
            ("split.iterations", c.split_iterations),
            ("split.squares", c.squares),
            ("split.cells_folded", c.cells_folded),
            ("split.words_tested", c.words_tested),
            ("graph.self_ms", ms(|l| l.graph)),
            ("graph.share_pct", share(|l| l.graph)),
            ("graph.ns_per_px", ns_px(|l| l.graph)),
            ("merge.self_ms", ms(|l| l.merge)),
            ("merge.share_pct", share(|l| l.merge)),
            ("merge.choice_ms", ms(|l| l.choice)),
            ("merge.apply_ms", ms(|l| l.apply)),
            ("merge.compact_ms", ms(|l| l.compact)),
            ("merge.iterations", c.merge_iterations),
            ("merge.merges", c.merges),
            (
                "merge.productive_iter_frac",
                c.productive_iterations / c.merge_iterations,
            ),
            ("merge.fallback_iters", c.fallback_iterations),
            ("merge.compactions", c.compactions),
            ("label.self_ms", ms(|l| l.label)),
            ("label.share_pct", share(|l| l.label)),
            ("label.ns_per_px", ns_px(|l| l.label)),
            ("driver.self_ms", ms(|l| l.driver)),
            ("part.ms_median", parts(|p| median(p))),
            ("part.ms_max", parts(max)),
            (
                "part.imbalance",
                median_of(&calls, |c| {
                    let mut p = c.layers.parts.clone();
                    max(&mut p) / median(&mut p)
                }),
            ),
            (
                "tiles.stitch_share_pct",
                median_of(&calls, |c| 100.0 * c.layers.stitch / c.wall),
            ),
            ("tiles.seam_edges", c.seam_edges),
            ("tiles.stitch_merges", c.stitch_merges),
            ("tiles.stitch_iterations", c.stitch_iterations),
            ("tiles.fanout_speedup", tiles_fanout),
            ("batch.fanout_speedup", batch_fanout),
            (
                "imaging.pgm.read_mb_s",
                if decode {
                    median_of(&calls, |c| c.pgm_bytes / c.decode_s / 1e6)
                } else {
                    0.0
                },
            ),
            (
                "imaging.pgm.share_pct",
                median_of(&calls, |c| 100.0 * c.decode_s / c.wall),
            ),
            ("pipeline.allocs_per_call", allocs_per_call),
            ("pipeline.heap_peak_mb", heap / (1024.0 * 1024.0)),
            ("telemetry.stamp_overhead_pct", stamp),
            ("telemetry.recorder_overhead_pct", recorder),
            ("telemetry.jsonl_overhead_pct", jsonl),
        ];
        (metrics, calls)
    }
}

/// Result of one invocation.
pub struct Outcome {
    pub report: Report,
    /// The traced phase's calls (empty untraced), read by the self-test.
    #[cfg_attr(not(test), allow(dead_code))]
    pub traced_calls: Vec<TracedCall>,
}

/// Runs one workload: untraced, the end-to-end metrics; traced, the
/// per-layer metrics.
pub fn run(inputs: &Inputs, trace: bool, settings: &Settings) -> Result<Outcome, String> {
    let jobs = host::jobs();
    let mut context = vec![
        ("workload".to_string(), inputs.workload.name().to_string()),
        ("host.commit".to_string(), host::commit()),
        ("host.nproc".to_string(), host::nproc().to_string()),
        ("host.jobs".to_string(), jobs.to_string()),
    ];
    let calib_start = host::calibrate();
    let mut bench = Bench::new(inputs, settings);
    let (mut metrics, traced_calls) = if trace {
        context.push((
            "note".to_string(),
            "traced calls run on one worker (telemetry forces jobs=1 in TiledRunner and \
             run_batch); fan-out is measured untraced in *.fanout_speedup"
                .to_string(),
        ));
        let (mut m, calls) = bench.per_layer(jobs);
        m.push(("host.nproc", host::nproc() as f64));
        m.push(("host.jobs", jobs as f64));
        (m, calls)
    } else {
        let (mut m, raw) = bench.end_to_end(jobs)?;
        m.push(("peak_rss_mb", host::peak_rss_mb()?));
        context.extend(raw);
        (m, Vec::new())
    };
    let calib_end = host::calibrate();
    if trace {
        metrics.push(("host.calib_ms_start", calib_start));
        metrics.push(("host.calib_ms_end", calib_end));
    } else {
        context.push(("host.calib_ms_start".to_string(), calib_start.to_string()));
        context.push(("host.calib_ms_end".to_string(), calib_end.to_string()));
    }
    context.push(("calls".to_string(), bench.attempted.to_string()));
    context.push((
        "failed_frac".to_string(),
        (bench.failed as f64 / bench.attempted as f64).to_string(),
    ));
    Ok(Outcome {
        report: Report {
            context,
            metrics,
            attempted: bench.attempted,
            failed: bench.failed,
        },
        traced_calls,
    })
}
