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
use rg_imaging::synth;
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

#[test]
fn warm_host_pipelines_run_allocation_free() {
    // A scene busy enough to exercise split, CSR merge, compaction and the
    // DSU, with random tie-breaking (the paper's default policy).
    let images: Vec<_> = (0..4)
        .map(|s| synth::random_rects(128, 128, 10, s))
        .collect();
    let cfg = Config::with_threshold(10).tie_break(TieBreak::Random { seed: 9 });

    let mut pipe: HostPipeline<u8> = HostPipeline::new(cfg, false);
    let mut out = Segmentation::default();

    // Warm-up pass: arenas grow to the stream's high-water mark.
    let mut expected = Vec::new();
    for img in &images {
        pipe.run_image_into(img, &mut NullTelemetry, &mut out);
        expected.push(out.clone());
    }

    // Steady-state pass: identical results, zero new allocations.
    for (img, want) in images.iter().zip(&expected) {
        let before = allocs();
        pipe.run_image_into(img, &mut NullTelemetry, &mut out);
        let delta = allocs() - before;
        assert_eq!(
            delta, 0,
            "steady-state image made {delta} heap allocation(s)"
        );
        assert_eq!(&out, want, "steady-state result drifted");
    }
}
