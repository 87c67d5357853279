//! Steady-state zero-allocation assertion for the tiled runner.
//!
//! [`TiledRunner`] extends the host pipelines' high-water-mark promise to
//! the sharded path: tile slots, the seam vertex table, the seam edge
//! list, the stitch merger and the compaction tables all grow once and are
//! then refilled in place. With a single worker (the pooled path spawns
//! scoped threads, which inherently allocate) a warm runner must stream
//! same-shape images with **zero** new heap allocations.
//!
//! One `#[test]` only: counting is process-global, and a single test keeps
//! other tests' allocations out of the measured window regardless of the
//! harness' thread scheduling.

use rg_core::{Config, NullTelemetry, Segmentation, TieBreak, TileGrid, TiledRunner};
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
fn warm_tiled_runner_streams_allocation_free() {
    // A busy scene on a grid with non-divisible edge tiles, so the worker
    // re-prepares across the (bounded) set of tile shapes every image.
    let images: Vec<_> = (0..4)
        .map(|s| synth::random_rects(130, 94, 10, s))
        .collect();
    let cfg = Config::with_threshold(10).tie_break(TieBreak::SmallestId);
    let mut runner = TiledRunner::new(cfg, false, TileGrid::new(3, 4), 1);
    let mut out = Segmentation::default();

    // Warm-up pass: every arena grows to the stream's high-water mark.
    let mut expected = Vec::new();
    for img in &images {
        runner.run_into(img, &mut NullTelemetry, &mut out);
        expected.push(out.clone());
    }
    // Steady-state pass: identical results, zero new allocations.
    for (img, want) in images.iter().zip(&expected) {
        let before = allocs();
        runner.run_into(img, &mut NullTelemetry, &mut out);
        let delta = allocs() - before;
        assert_eq!(
            delta, 0,
            "steady-state tiled image made {delta} heap allocation(s)"
        );
        assert_eq!(&out, want, "steady-state result drifted");
    }
}
