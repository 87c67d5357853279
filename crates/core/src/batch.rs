//! Batch runtime: stream many images through pooled, warm pipelines.
//!
//! The one-shot entry points pay arena setup per image; the batch
//! runtime amortizes it. Each worker owns one reusable
//! [`Pipeline`] (with its arenas) and one
//! recyclable [`Segmentation`] buffer, so a same-shape image stream runs
//! **allocation-free in steady state** on the host engine. The workers
//! come from the crate's private `pool` module, which the tiled runner
//! shares.
//!
//! ## Telemetry
//!
//! With an enabled sink the batch emits the span hierarchy
//! `batch > image:<i> > run > ...` — each image's full run tree nests in
//! its [`SpanKind::BatchImage`] span. The pool runs an enabled sink on
//! **one** worker regardless of [`BatchOptions::jobs`], keeping the
//! journal's strict span nesting valid (a multi-worker batch would
//! interleave image subtrees). Throughput runs use a disabled sink
//! ([`NullTelemetry`](crate::telemetry::NullTelemetry)) and honour `jobs`. Chaos pipelines need no special
//! case: each one replays its own fault plan per image, so the schedule
//! does not depend on the worker count.
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
//! worker's panic cannot cascade into the others through a poisoned lock.

use crate::engine::Segmentation;
use crate::pipeline::Pipeline;
use crate::pool;
use crate::telemetry::{SpanGuard, SpanKind, Telemetry};
use rg_imaging::Image;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Locks `m`, recovering the data if a previous holder panicked — batch
/// state stays usable after an isolated per-image failure.
fn lock_recover<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Options for [`run_batch`].
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker count (each worker owns one pipeline and its arenas). Capped
    /// at the image count, at least 1, and 1 when telemetry is enabled
    /// (see module docs); [`BatchSummary::jobs`] reports the count used.
    pub jobs: usize,
}

impl BatchOptions {
    /// Default options: one worker.
    pub fn new() -> Self {
        Self { jobs: 1 }
    }

    /// Sets the worker count.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
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
    /// Workers the batch actually ran on.
    pub jobs: usize,
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
/// `make_pipeline` is called on each worker's first image and again after
/// an image panics; the pipelines it returns define the engine. See the
/// module docs for telemetry and ordering semantics.
pub fn run_batch<M, F>(
    images: &[Image<u8>],
    opts: &BatchOptions,
    make_pipeline: M,
    tel: &mut dyn Telemetry,
    each: F,
) -> BatchSummary
where
    M: Fn() -> Box<dyn Pipeline + Send> + Sync,
    F: FnMut(usize, &Segmentation) + Send,
{
    let t0 = Instant::now();
    let jobs = pool::worker_count(opts.jobs, images.len(), tel);
    // A worker's pipeline and output buffer, built on first use and
    // dropped after a panic so that the next image rebuilds them.
    let mut workers: Vec<Option<(Box<dyn Pipeline + Send>, Segmentation)>> =
        (0..jobs).map(|_| None).collect();
    let regions = AtomicU64::new(0);
    let failed = Mutex::new(Vec::new());
    let each = Mutex::new(each);
    let mut batch_span = SpanGuard::enter(tel, SpanKind::Batch);
    pool::run(
        &mut workers,
        images.iter().enumerate(),
        batch_span.tel(),
        |worker, (i, img), tel| {
            let (pipe, out) =
                worker.get_or_insert_with(|| (make_pipeline(), Segmentation::default()));
            let mut img_span = SpanGuard::enter(tel, SpanKind::BatchImage(i as u32));
            let ran = catch_unwind(AssertUnwindSafe(|| pipe.run_into(img, img_span.tel(), out)));
            drop(img_span);
            if ran.is_err() {
                *worker = None;
                lock_recover(&failed).push(i);
                return;
            }
            // The lock lives inside the catch: if the callback panics, the
            // guard drop poisons the mutex and the next `lock_recover`
            // heals it.
            if catch_unwind(AssertUnwindSafe(|| (lock_recover(&each))(i, out))).is_err() {
                lock_recover(&failed).push(i);
                return;
            }
            regions.fetch_add(out.num_regions as u64, Ordering::Relaxed);
        },
    );
    let mut failed = failed.into_inner().unwrap_or_else(PoisonError::into_inner);
    failed.sort_unstable();

    BatchSummary {
        images: images.len(),
        jobs,
        total_regions: regions.into_inner(),
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
    use crate::telemetry::{NullTelemetry, Recorder};
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
            assert_eq!(summary.jobs, jobs);
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
        assert_eq!(summary.jobs, 1);
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
