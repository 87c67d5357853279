//! Tiled-vs-whole differential suite for `rg_core::tiles`.
//!
//! The stitch layer's contract is *partition identity*: on a
//! threshold-separated scene (every pair of adjacent flat regions differs
//! by more than the threshold) the merge fixed point is unique, so a tiled
//! run must reproduce the whole-image host engine's labels **exactly** —
//! any grid, any worker count, any tie policy. On arbitrary scenes the
//! guarantee weakens to worker-count invariance plus the verifier's
//! structural invariants (connected, homogeneous, maximal); these are
//! property-tested separately.

use proptest::prelude::*;
use rg_core::graph::Rag;
use rg_core::{
    segment, segment_tiled, verify_segmentation, Config, Connectivity, Merger, NullTelemetry,
    RegionStats, Segmentation, TieBreak, TileGrid, TiledRunner, TiledStats,
};
use rg_imaging::{synth, Image};

/// Paints axis-aligned rectangles whose intensities are multiples of 40 on
/// a zero background: any two distinct painted values differ by at least
/// 40, so the scene is threshold-separated for every threshold below 40.
fn separated_scene(w: usize, h: usize, rects: &[(usize, usize, usize, usize)]) -> Image<u8> {
    let mut img = Image::new(w, h, 0u8);
    for (i, &(x, y, rw, rh)) in rects.iter().enumerate() {
        let v = 40 * ((i % 6) + 1) as u8;
        for yy in y.min(h)..(y + rh).min(h) {
            for xx in x.min(w)..(x + rw).min(w) {
                img.set(xx, yy, v);
            }
        }
    }
    img
}

const TIES: [TieBreak; 3] = [
    TieBreak::SmallestId,
    TieBreak::LargestId,
    TieBreak::Random { seed: 41 },
];

/// Partition identity = the pixel→label map and the region count. Run
/// metadata (square counts, iteration tallies) legitimately differs
/// between a tiled run and a whole-image run and is excluded.
fn partition_of(seg: &rg_core::Segmentation) -> (&[u32], usize, usize, usize) {
    (&seg.labels, seg.num_regions, seg.width, seg.height)
}

prop_compose! {
    fn scene()(
        w in 1usize..72,
        h in 1usize..72,
        rects in proptest::collection::vec(
            (0usize..72, 0usize..72, 1usize..36, 1usize..36),
            0..8,
        ),
    ) -> Image<u8> {
        separated_scene(w, h, &rects)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Separated scenes: exact label identity against the whole-image
    /// engine for every tie family, random grids (including grids larger
    /// than the image — they clamp), and both serial and pooled workers.
    #[test]
    fn tiled_matches_whole_on_separated_scenes(
        img in scene(),
        rows in 1usize..7,
        cols in 1usize..7,
        tie_idx in 0usize..3,
        jobs in 1usize..5,
    ) {
        let cfg = Config::with_threshold(10).tie_break(TIES[tie_idx]);
        let whole = segment(&img, &cfg);
        let tiled = segment_tiled(&img, &cfg, TileGrid::new(rows, cols), jobs);
        prop_assert_eq!(
            partition_of(&whole), partition_of(&tiled),
            "grid {}x{} jobs {} tie {:?} on {}x{}",
            rows, cols, jobs, TIES[tie_idx], img.width(), img.height()
        );
    }

    /// Arbitrary (non-separated) scenes: the tiled result must not depend
    /// on the worker count, and must satisfy the verifier's invariants —
    /// connected, homogeneous, and maximal under the monotone criterion.
    #[test]
    fn tiled_runs_are_worker_invariant_and_verify(
        w in 2usize..64,
        h in 2usize..64,
        seed in 0u64..10_000,
        t in 5u32..60,
        rows in 1usize..5,
        cols in 1usize..5,
    ) {
        let img = synth::random_rects(w, h, 8, seed);
        let cfg = Config::with_threshold(t);
        let grid = TileGrid::new(rows, cols);
        let serial = segment_tiled(&img, &cfg, grid, 1);
        let pooled = segment_tiled(&img, &cfg, grid, 4);
        prop_assert_eq!(&serial, &pooled, "tiled output depends on worker count");
        if let Err(violations) = verify_segmentation(&img, &serial, &cfg) {
            prop_assert!(
                false,
                "grid {}x{} on {}x{} t={}: {:?}",
                rows, cols, w, h, t, violations
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One warm runner and one recycled output over a stream of shapes:
    /// each result equals a fresh one-shot tiled run. The stitch writes its
    /// vertex map into the output's label buffer, and each tile's label
    /// buffer is its pipeline's square map, so a buffer left by an image
    /// of another shape must not leak into the next.
    #[test]
    fn warm_runner_streams_varying_shapes(
        w in 2usize..48,
        h in 2usize..48,
        grow in (1usize..24, 1usize..24),
        rotate in 0usize..3,
        count in 2usize..4,
        seed in 0u64..10_000,
        t in 5u32..60,
        rows in 1usize..5,
        cols in 1usize..5,
    ) {
        // Three distinct shapes in a rotated order, so the stream both
        // grows and shrinks the buffers.
        let mut shapes = [(w, h), (w + grow.0, h), (w, h + grow.1)];
        shapes.rotate_left(rotate);
        let cfg = Config::with_threshold(t);
        let grid = TileGrid::new(rows, cols);
        for jobs in [1, 2] {
            let mut runner = TiledRunner::new(cfg, false, grid, jobs);
            let mut out = Segmentation::default();
            for (i, &(w, h)) in shapes[..count].iter().enumerate() {
                let img = synth::random_rects(w, h, 8, seed + i as u64);
                runner.run_into(&img, &mut NullTelemetry, &mut out);
                prop_assert_eq!(
                    &out, &segment_tiled(&img, &cfg, grid, jobs),
                    "grid {}x{} jobs {} on {}x{}", rows, cols, jobs, w, h
                );
            }
        }
    }
}

/// Non-divisible shapes the floor-split must handle: a wide-and-shallow
/// image whose tile widths differ, and degenerate 1-pixel-thin strips
/// where one grid axis clamps away entirely.
#[test]
fn non_divisible_and_degenerate_shapes_match_whole() {
    let rects = [
        (7usize, 3usize, 120usize, 40usize),
        (200, 0, 90, 99),
        (350, 50, 163, 50),
        (0, 60, 40, 40),
        (480, 2, 33, 20),
    ];
    let scenes = [
        separated_scene(513, 100, &rects),
        separated_scene(1, 257, &rects),
        separated_scene(257, 1, &rects),
        separated_scene(4, 4, &rects),
    ];
    for img in &scenes {
        for tie in TIES {
            let cfg = Config::with_threshold(10).tie_break(tie);
            let whole = segment(img, &cfg);
            for grid in [
                TileGrid::new(4, 3),
                TileGrid::new(8, 8),
                TileGrid::new(1, 9),
                TileGrid::new(9, 9),
            ] {
                for jobs in [1, 4] {
                    let tiled = segment_tiled(img, &cfg, grid, jobs);
                    assert_eq!(
                        partition_of(&whole),
                        partition_of(&tiled),
                        "{}x{} grid {grid} jobs {jobs} tie {tie:?}",
                        img.width(),
                        img.height(),
                    );
                }
            }
        }
    }
}

/// A stitch over **every** tile region: each tile segmented on its own,
/// its labels offset into one global vertex space, the seam pairs read
/// along the internal band boundaries, and one [`Merger`] over all the
/// tiles' regions (global indices as IDs) run to quiescence before a
/// first-appearance relabel. `TiledRunner` builds its merger over the
/// seam vertices alone, so this is its oracle.
fn full_vertex_stitch(
    img: &Image<u8>,
    cfg: &Config,
    grid: TileGrid,
    jobs: usize,
) -> (Segmentation, TiledStats) {
    let (w, h) = (img.width(), img.height());
    let grid = grid.clamp_to(w, h);
    let mut labels = vec![0u32; w * h];
    let mut stats: Vec<RegionStats<u8>> = Vec::new();
    let mut tiles = Vec::new();
    for r in 0..grid.rows() {
        for c in 0..grid.cols() {
            let t = grid.tile(r, c, w, h);
            let crop = img.crop(t.x0, t.y0, t.width, t.height);
            let seg = segment(&crop, cfg);
            let base = stats.len();
            stats.resize(base + seg.num_regions, RegionStats::of_pixel(0));
            let mut seen = vec![false; seg.num_regions];
            for ty in 0..t.height {
                for tx in 0..t.width {
                    let l = seg.labels[ty * t.width + tx] as usize;
                    let px = RegionStats::of_pixel(crop.get(tx, ty));
                    let s = &mut stats[base + l];
                    *s = if seen[l] { s.fold(px) } else { px };
                    seen[l] = true;
                    labels[(t.y0 + ty) * w + t.x0 + tx] = (base + l) as u32;
                }
            }
            tiles.push(seg);
        }
    }
    let eight = cfg.connectivity == Connectivity::Eight;
    let mut edges = Vec::new();
    let mut push = |a: u32, b: u32| edges.push((a.min(b), a.max(b)));
    for c in 1..grid.cols() {
        let xb = c * w / grid.cols();
        for y in 0..h {
            push(labels[y * w + xb - 1], labels[y * w + xb]);
            if eight && y + 1 < h {
                push(labels[y * w + xb - 1], labels[(y + 1) * w + xb]);
                push(labels[(y + 1) * w + xb - 1], labels[y * w + xb]);
            }
        }
    }
    for r in 1..grid.rows() {
        let yb = r * h / grid.rows();
        for x in 0..w {
            push(labels[(yb - 1) * w + x], labels[yb * w + x]);
            if eight && x + 1 < w {
                push(labels[(yb - 1) * w + x], labels[yb * w + x + 1]);
                push(labels[(yb - 1) * w + x + 1], labels[yb * w + x]);
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    let (tile_regions, seam_edges) = (stats.len(), edges.len());
    let ids = (0..tile_regions as u64).collect();
    let mut merger = Merger::new(Rag::from_parts(stats, edges), ids, cfg);
    let summary = merger.run();
    let by_vertex = merger.labels_by_vertex();
    let mut first = vec![u32::MAX; tile_regions];
    let mut next = 0;
    for l in &mut labels {
        let r = by_vertex[*l as usize] as usize;
        if first[r] == u32::MAX {
            first[r] = next;
            next += 1;
        }
        *l = first[r];
    }
    let seg = Segmentation {
        labels,
        num_regions: next as usize,
        num_squares: tiles.iter().map(|t| t.num_squares).sum(),
        split_iterations: tiles.iter().map(|t| t.split_iterations).max().unwrap_or(0),
        merge_iterations: tiles.iter().map(|t| t.merge_iterations).max().unwrap_or(0)
            + summary.iterations,
        merges_per_iteration: summary.merges_per_iteration.clone(),
        width: w,
        height: h,
    };
    let stats = TiledStats {
        rows: grid.rows(),
        cols: grid.cols(),
        tiles: grid.count(),
        jobs: jobs.min(grid.count()),
        tile_regions,
        seam_edges,
        stitch_merges: summary
            .merges_per_iteration
            .iter()
            .map(|&m| u64::from(m))
            .sum(),
        stitch_iterations: summary.iterations,
    };
    (seg, stats)
}

/// The seam-sized stitch equals the full-vertex one on arbitrary scenes,
/// where the stitch merge does real work and every tie decision shows:
/// labels, run metadata and every `TiledStats` field, for a grid without
/// seams (an empty stitch graph), single bands both ways, an uneven grid
/// and 4x4, under both connectivities, all three tie families and one or
/// two workers.
#[test]
fn seam_sized_stitch_matches_a_full_vertex_stitch() {
    let (w, h) = (61, 47);
    let scenes = [
        ("noise", synth::uniform_noise(w, h, 120, 135, 3), 10),
        ("speckle", synth::uniform_noise(w, h, 0, 255, 4), 40),
        ("rects", synth::random_rects(w, h, 12, 5), 12),
    ];
    let mut merged = 0;
    for (name, img, t) in &scenes {
        for (rows, cols) in [(1, 1), (1, 4), (4, 1), (3, 5), (4, 4)] {
            let grid = TileGrid::new(rows, cols);
            for conn in [Connectivity::Four, Connectivity::Eight] {
                for tie in TIES {
                    let cfg = Config::with_threshold(*t).tie_break(tie).connectivity(conn);
                    for jobs in [1, 2] {
                        let want = full_vertex_stitch(img, &cfg, grid, jobs);
                        let mut runner = TiledRunner::new(cfg, false, grid, jobs);
                        let got = runner.run(img, &mut NullTelemetry);
                        assert_eq!(got, want, "{name} grid {grid} {conn:?} {tie:?} jobs {jobs}");
                        merged += got.1.stitch_merges;
                    }
                }
            }
        }
    }
    assert!(merged > 0, "no stitch merged anything");
}
