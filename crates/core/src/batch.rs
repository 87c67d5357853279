//! Batch runtime: stream many images through pooled pipeline workspaces.
//!
//! The one-shot entry points pay arena setup per image; the batch
//! runtime amortizes it. Each worker owns one reusable
//! [`Pipeline`] (its workspace) and one
//! recyclable [`Segmentation`] buffer, so a same-shape image stream runs
//! **allocation-free in steady state** on the host engine.
//!
//! ## Telemetry
//!
//! With an enabled sink the batch emits the span hierarchy
//! `batch > image:<i> > run > ...` — each image's full run tree nests in
//! its [`SpanKind::BatchImage`] span. Telemetry-enabled batches always run
//! on **one** worker regardless of [`BatchOptions::jobs`], keeping the
//! journal's strict span nesting valid (a multi-worker batch would
//! interleave image subtrees). Throughput runs use a disabled sink
//! ([`NullTelemetry`]) and honour `jobs`.
//!
//! ## Ordering
//!
//! Images are dispatched in index order. With `jobs > 1` the per-image
//! callback may observe completions out of order (the image index is
//! passed alongside each result); the results themselves are bit-identical
//! to a sequential run — every engine is deterministic per image.
//!
//! ## Failure isolation
//!
//! A panicking pipeline (or per-image callback) fails **that image only**:
//! the panic is caught, the worker rebuilds its pipeline and recycled
//! buffer, and the batch continues. Failed image indices are reported in
//! [`BatchSummary::failed`]; their regions are not counted and their
//! callback is not invoked (or not counted, if the callback itself
//! panicked). The shared callback mutex recovers from poisoning, so one
//! worker's panic can no longer cascade into every other worker dying on
//! a poisoned lock.

use crate::engine::Segmentation;
use crate::pipeline::Pipeline;
use crate::telemetry::{NullTelemetry, SpanGuard, SpanKind, Telemetry};
use rg_imaging::Image;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Locks `m`, recovering the data if a previous holder panicked — batch
/// state stays usable after an isolated per-image failure.
fn lock_recover<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The shared per-image callback slot of a multi-worker batch.
type SharedSink<'a> = Mutex<&'a mut (dyn FnMut(usize, &Segmentation) + Send)>;

/// A seeded chaos schedule for a batch: which fault-injection plan the
/// pipelines were built with. Carried on [`BatchOptions`] so the batch
/// runtime knows the run must stay deterministic — chaos batches are
/// forced to a single worker exactly like telemetry-enabled ones (the
/// fault schedule and any host-fallback re-runs must replay identically).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSpec {
    /// The fault-plan seed.
    pub seed: u64,
    /// Fault profile name (e.g. `"storm"`; see the CMMD fault module).
    pub profile: String,
}

/// Options for [`run_batch`].
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker count (each worker owns one pipeline + workspace). Clamped
    /// to at least 1; forced to 1 when telemetry is enabled (see module
    /// docs) or when a chaos schedule is armed.
    pub jobs: usize,
    /// The chaos schedule the pipelines carry, if any (see [`ChaosSpec`]).
    pub chaos: Option<ChaosSpec>,
}

impl BatchOptions {
    /// Default options: one worker, no chaos.
    pub fn new() -> Self {
        Self {
            jobs: 1,
            chaos: None,
        }
    }

    /// Sets the worker count.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Arms a chaos schedule (forces single-worker execution).
    pub fn chaos(mut self, seed: u64, profile: &str) -> Self {
        self.chaos = Some(ChaosSpec {
            seed,
            profile: profile.to_string(),
        });
        self
    }
}

impl Default for BatchOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// Aggregate outcome of a batch run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSummary {
    /// Number of images processed (attempted, including failures).
    pub images: usize,
    /// Sum of per-image region counts over the successful images.
    pub total_regions: u64,
    /// Wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
    /// Indices of images whose pipeline or callback panicked, ascending.
    /// Empty for a fully successful batch.
    pub failed: Vec<usize>,
}

impl BatchSummary {
    /// Batch throughput in images per second (0 for an instant batch).
    pub fn images_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.images as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// `true` when every image segmented and delivered without a panic.
    pub fn all_ok(&self) -> bool {
        self.failed.is_empty()
    }
}

/// Streams `images` through pooled pipelines, invoking `each(index, seg)`
/// once per image with the index-tagged result (borrowed from the worker's
/// recycled buffer — clone it to keep it).
///
/// `make_pipeline` is called once per worker; the pipelines it returns
/// define the engine. See the module docs for telemetry and ordering
/// semantics.
pub fn run_batch<M, F>(
    images: &[Image<u8>],
    opts: &BatchOptions,
    make_pipeline: M,
    tel: &mut dyn Telemetry,
    mut each: F,
) -> BatchSummary
where
    M: Fn() -> Box<dyn Pipeline + Send> + Sync,
    F: FnMut(usize, &Segmentation) + Send,
{
    let t0 = Instant::now();
    let enabled = tel.enabled();
    let jobs = if enabled || opts.chaos.is_some() {
        1
    } else {
        opts.jobs.max(1)
    };
    let mut total_regions = 0u64;
    let mut failed: Vec<usize> = Vec::new();

    if jobs <= 1 {
        let mut pipe = make_pipeline();
        let mut out = Segmentation::default();
        if enabled {
            let mut batch_span = SpanGuard::enter(&mut *tel, SpanKind::Batch);
            let tel = batch_span.tel();
            for (i, img) in images.iter().enumerate() {
                let mut img_span = SpanGuard::enter(&mut *tel, SpanKind::BatchImage(i as u32));
                let ran = catch_unwind(AssertUnwindSafe(|| {
                    pipe.run_into(img, img_span.tel(), &mut out)
                }));
                drop(img_span);
                if ran.is_err() {
                    failed.push(i);
                    pipe = make_pipeline();
                    out = Segmentation::default();
                    continue;
                }
                if catch_unwind(AssertUnwindSafe(|| each(i, &out))).is_err() {
                    failed.push(i);
                    continue;
                }
                total_regions += out.num_regions as u64;
            }
        } else {
            for (i, img) in images.iter().enumerate() {
                let ran = catch_unwind(AssertUnwindSafe(|| {
                    pipe.run_into(img, &mut NullTelemetry, &mut out)
                }));
                if ran.is_err() {
                    failed.push(i);
                    pipe = make_pipeline();
                    out = Segmentation::default();
                    continue;
                }
                if catch_unwind(AssertUnwindSafe(|| each(i, &out))).is_err() {
                    failed.push(i);
                    continue;
                }
                total_regions += out.num_regions as u64;
            }
        }
    } else {
        let next = AtomicUsize::new(0);
        let regions = AtomicU64::new(0);
        let failures: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let sink: SharedSink = Mutex::new(&mut each);
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(images.len()) {
                scope.spawn(|| {
                    let mut pipe = make_pipeline();
                    let mut out = Segmentation::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= images.len() {
                            break;
                        }
                        let ran = catch_unwind(AssertUnwindSafe(|| {
                            pipe.run_into(&images[i], &mut NullTelemetry, &mut out)
                        }));
                        if ran.is_err() {
                            lock_recover(&failures).push(i);
                            pipe = make_pipeline();
                            out = Segmentation::default();
                            continue;
                        }
                        // The lock lives inside the catch: if the callback
                        // panics, the guard drop poisons the mutex and the
                        // next `lock_recover` heals it.
                        let delivered =
                            catch_unwind(AssertUnwindSafe(|| (lock_recover(&sink))(i, &out)));
                        if delivered.is_err() {
                            lock_recover(&failures).push(i);
                            continue;
                        }
                        regions.fetch_add(out.num_regions as u64, Ordering::Relaxed);
                    }
                });
            }
        });
        total_regions = regions.load(Ordering::Relaxed);
        failed = failures
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        failed.sort_unstable();
    }

    BatchSummary {
        images: images.len(),
        total_regions,
        wall_seconds: t0.elapsed().as_secs_f64(),
        failed,
    }
}

/// [`run_batch`] collecting every result: returns the segmentations in
/// image order plus the summary.
pub fn run_batch_collect<M>(
    images: &[Image<u8>],
    opts: &BatchOptions,
    make_pipeline: M,
    tel: &mut dyn Telemetry,
) -> (Vec<Segmentation>, BatchSummary)
where
    M: Fn() -> Box<dyn Pipeline + Send> + Sync,
{
    let mut results: Vec<Segmentation> = vec![Segmentation::default(); images.len()];
    let summary = {
        // `slots` borrows `results`; the block ends the borrow before the
        // vector is moved out.
        let slots = Mutex::new(&mut results);
        run_batch(images, opts, make_pipeline, tel, |i, seg| {
            lock_recover(&slots)[i] = seg.clone();
        })
    };
    (results, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::engine::segment;
    use crate::pipeline::HostPipeline;
    use crate::telemetry::Recorder;
    use rg_imaging::synth;

    fn demo_images(n: usize) -> Vec<Image<u8>> {
        (0..n)
            .map(|i| synth::random_rects(64, 64, 6, i as u64))
            .collect()
    }

    #[test]
    fn batch_matches_per_image_segment() {
        let images = demo_images(5);
        let cfg = Config::with_threshold(10);
        for jobs in [1, 3] {
            let (results, summary) = run_batch_collect(
                &images,
                &BatchOptions::new().jobs(jobs),
                || Box::new(HostPipeline::<u8>::new(cfg, false)),
                &mut NullTelemetry,
            );
            assert_eq!(summary.images, images.len());
            let mut expect_regions = 0u64;
            for (img, got) in images.iter().zip(&results) {
                let want = segment(img, &cfg);
                assert_eq!(&want, got, "jobs={jobs}");
                expect_regions += want.num_regions as u64;
            }
            assert_eq!(summary.total_regions, expect_regions);
        }
    }

    #[test]
    fn enabled_telemetry_forces_single_worker_and_nests_spans() {
        use crate::journal::{validate_journal, EventLog};
        let images = demo_images(3);
        let cfg = Config::with_threshold(10);
        let mut log = EventLog::in_memory();
        let summary = run_batch(
            &images,
            &BatchOptions::new().jobs(4),
            || Box::new(HostPipeline::<u8>::new(cfg, false)),
            &mut log,
            |_i, _seg| {},
        );
        assert_eq!(summary.images, 3);
        // The journal nests batch > image:<i> > run and validates strictly.
        validate_journal(log.events()).expect("batch journal must validate");
        let labels: Vec<String> = log
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                crate::journal::EventKind::SpanBegin { span } => Some(span.label()),
                _ => None,
            })
            .collect();
        assert_eq!(labels[0], "batch");
        assert_eq!(labels[1], "image:0");
        assert_eq!(labels[2], "run");
        assert!(labels.contains(&"image:2".to_string()));
    }

    #[test]
    fn recorder_sees_every_image_run(/* last-run semantics documented */) {
        let images = demo_images(2);
        let cfg = Config::with_threshold(10);
        let mut rec = Recorder::new();
        run_batch(
            &images,
            &BatchOptions::new(),
            || Box::new(HostPipeline::<u8>::new(cfg, false)),
            &mut rec,
            |_, _| {},
        );
        // A Recorder resets per run_start: after the batch it holds the
        // final image's report.
        let want = segment(&images[1], &cfg);
        assert_eq!(rec.report().num_regions, want.num_regions);
        assert!(rec.is_finished());
    }

    /// A pipeline that panics on images whose seed pixel matches `bad`,
    /// standing in for a real per-image engine fault.
    struct PanicOn {
        inner: HostPipeline<u8>,
        bad: u8,
    }

    impl Pipeline for PanicOn {
        fn engine(&self) -> &str {
            "panic-on"
        }
        fn run_into(&mut self, img: &Image<u8>, tel: &mut dyn Telemetry, out: &mut Segmentation) {
            assert_ne!(img.pixels()[0], self.bad, "deliberate per-image fault");
            self.inner.run_into(img, tel, out);
        }
    }

    #[test]
    fn panicking_image_fails_alone_and_batch_continues() {
        // Image 2 carries the poison marker in its first pixel; every
        // other image must still segment, on one worker and on several
        // (the multi-worker case is the historical cascade: a poisoned
        // sink mutex killed every remaining worker).
        let mut images = demo_images(6);
        let marker = 251u8;
        for (i, img) in images.iter_mut().enumerate() {
            let first = &mut img.pixels_mut()[0];
            *first = if i == 2 {
                marker
            } else {
                marker.wrapping_add(1)
            };
        }
        let cfg = Config::with_threshold(10);
        for jobs in [1, 4] {
            let (results, summary) = run_batch_collect(
                &images,
                &BatchOptions::new().jobs(jobs),
                || {
                    Box::new(PanicOn {
                        inner: HostPipeline::<u8>::new(cfg, false),
                        bad: marker,
                    })
                },
                &mut NullTelemetry,
            );
            assert_eq!(summary.failed, vec![2], "jobs={jobs}");
            assert!(!summary.all_ok());
            assert_eq!(summary.images, 6);
            let mut expect_regions = 0u64;
            for (i, (img, got)) in images.iter().zip(&results).enumerate() {
                if i == 2 {
                    // The failed slot keeps its default (never delivered).
                    assert!(got.is_empty(), "jobs={jobs}");
                    continue;
                }
                let want = segment(img, &cfg);
                assert_eq!(&want, got, "jobs={jobs} image={i}");
                expect_regions += want.num_regions as u64;
            }
            assert_eq!(summary.total_regions, expect_regions, "jobs={jobs}");
        }
    }

    #[test]
    fn panicking_callback_fails_only_that_image() {
        let images = demo_images(4);
        let cfg = Config::with_threshold(10);
        for jobs in [1, 3] {
            let delivered = Mutex::new(Vec::new());
            let summary = run_batch(
                &images,
                &BatchOptions::new().jobs(jobs),
                || Box::new(HostPipeline::<u8>::new(cfg, false)),
                &mut NullTelemetry,
                |i, _seg| {
                    assert_ne!(i, 1, "deliberate callback fault");
                    lock_recover(&delivered).push(i);
                },
            );
            assert_eq!(summary.failed, vec![1], "jobs={jobs}");
            let mut got = delivered.into_inner().unwrap();
            got.sort_unstable();
            assert_eq!(got, vec![0, 2, 3], "jobs={jobs}");
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let cfg = Config::with_threshold(10);
        let summary = run_batch(
            &[],
            &BatchOptions::new().jobs(8),
            || Box::new(HostPipeline::<u8>::new(cfg, false)),
            &mut NullTelemetry,
            |_, _| panic!("no images, no callbacks"),
        );
        assert_eq!(summary.images, 0);
        assert_eq!(summary.total_regions, 0);
    }
}
