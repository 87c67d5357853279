//! Steady-state zero-allocation assertion for the host pipeline.
//!
//! The pipeline layer promises that once a [`HostPipeline`] has been
//! warmed up on an image shape, running further same-shape images performs
//! **zero heap allocations** — every arena reuses its high-water-mark
//! capacity. This test wraps the global allocator in a counting shim and
//! asserts exactly that.
//!
//! One `#[test]` only: counting is process-global, and a single test keeps
//! other tests' allocations out of the measured window regardless of the
//! harness' thread scheduling.

use rg_core::{Config, HostPipeline, NullTelemetry, Segmentation, TieBreak};
use rg_imaging::{synth, Image};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts allocations (not frees): the steady-state claim is about new
/// heap traffic, so `alloc` / `realloc` are the interesting events.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// Allocator shims must forward verbatim; the counter is the only addition.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

/// Warms a fresh pipeline on `images`, then runs them again and asserts
/// that the second pass allocates nothing and reproduces the first.
fn assert_stream_allocation_free(name: &str, images: &[Image<u8>], cfg: Config) {
    let mut pipe: HostPipeline<u8> = HostPipeline::new(cfg, false);
    let mut out = Segmentation::default();

    // Warm-up pass: arenas grow to the stream's high-water mark.
    let mut expected = Vec::new();
    for img in images {
        pipe.run_image_into(img, &mut NullTelemetry, &mut out);
        expected.push(out.clone());
    }

    // Steady-state pass: identical results, zero new allocations.
    for (k, (img, want)) in images.iter().zip(&expected).enumerate() {
        let before = allocs();
        pipe.run_image_into(img, &mut NullTelemetry, &mut out);
        let delta = allocs() - before;
        assert_eq!(
            delta, 0,
            "{name} image {k}: steady state made {delta} heap allocation(s)"
        );
        assert_eq!(&out, want, "{name} image {k}: steady-state result drifted");
    }
}

#[test]
fn warm_host_pipelines_run_allocation_free() {
    // A scene busy enough to exercise split, CSR merge, compaction and the
    // DSU, with random tie-breaking (the paper's default policy).
    let rects: Vec<_> = (0..4)
        .map(|s| synth::random_rects(128, 128, 10, s))
        .collect();
    let random = Config::with_threshold(10).tie_break(TieBreak::Random { seed: 9 });
    assert_stream_allocation_free("random_rects", &rects, random);

    // Speckle: nearly every square is 1×1 (the perimeter walk's side-1
    // path), about one in three keeps an edge, so the reset compacts.
    let speckle: Vec<_> = (0..4)
        .map(|s| synth::uniform_noise(128, 128, 0, 255, 20 + s))
        .collect();
    let cfg = Config::with_threshold(12).tie_break(TieBreak::Random { seed: 3 });
    assert_stream_allocation_free("speckle", &speckle, cfg);

    // Narrow-band noise: a mix of 1×1, 2×2 and 4×4 squares that nearly
    // all keep an edge, so the reset numbers every square.
    let narrow: Vec<_> = (0..4)
        .map(|s| synth::uniform_noise(128, 128, 120, 135, 40 + s))
        .collect();
    let cfg = Config::with_threshold(10).tie_break(TieBreak::SmallestId);
    assert_stream_allocation_free("narrow noise", &narrow, cfg);
}
