//! Tiled sharded segmentation: shard → per-tile split+merge → stitch.
//!
//! The paper's message-passing formulation already splits the image into
//! per-processor subimages and reconciles regions across subimage
//! boundaries; this module applies the same idea at host scale so an image
//! far larger than one pipeline's arenas can stream through tile-sized
//! plans. A [`TiledRunner`] shards an image into a [`TileGrid`] of tiles
//! (floor-split bounds, so non-divisible shapes produce slightly uneven
//! edge tiles and every tile stays non-empty), runs the host engine per
//! tile on the crate's private `pool` of workers (shared with the batch
//! runtime) — one recycled [`HostPipeline`] per worker, so a same-shape
//! image stream keeps the zero-steady-state-allocation property — and
//! then stitches the tiles with a boundary pass:
//!
//! 1. each tile's region statistics come from its pipeline's merger, which
//!    holds them at the region representatives once the tile converges —
//!    as each CM-5 node already holds its own regions' statistics;
//! 2. local labels are offset into one global vertex space, written
//!    straight into the output's label buffer, and cross-tile adjacent
//!    label pairs are read from it **along tile seams only** (the interior
//!    adjacencies were already resolved by the per-tile merges);
//! 3. the CSR [`Merger`] runs until quiescence on the seam graph alone:
//!    the regions that touch a seam, numbered densely in ascending global
//!    index and with their statistics read from their tiles' slots. Its
//!    state is sized by the seams, not by the tile regions, as a CM-5
//!    node's reconciliation is sized by its subimage boundary. Every
//!    other region stays its own representative;
//! 4. the output's label buffer is relabelled in place, by first
//!    appearance in global raster order, into the final dense labels.
//!
//! ## Invariance
//!
//! For scenes whose flat regions are pairwise separated by more than the
//! threshold, the stitched partition is *identical* to a whole-image run
//! under any tie policy (see DESIGN.md §17 for the argument); the
//! differential tests enforce exact label equality for the deterministic
//! tie families. For arbitrary scenes the mutual-choice merge is
//! order-dependent, so tiling — like any other schedule change — may pick
//! a different (equally valid) fixed point.
//!
//! ## Telemetry
//!
//! With an enabled sink the runner emits the span hierarchy
//! `tiled > tile:<i> > run > ...` followed by a `tiled > stitch` span and
//! `tiles.*` counters. The pool runs an enabled sink on **one** worker
//! whatever the requested `jobs` (exactly like the batch runtime) so the
//! journal's strict span nesting stays valid; [`TiledStats::jobs`]
//! reports the count used.

use crate::config::{Config, Connectivity, RegionStats};
use crate::engine::Segmentation;
use crate::merge::Merger;
use crate::pipeline::HostPipeline;
use crate::pool;
use crate::telemetry::{NullTelemetry, SpanGuard, SpanKind, Telemetry};
use rg_imaging::Image;

/// A rows × cols tile decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileGrid {
    rows: usize,
    cols: usize,
}

impl TileGrid {
    /// A grid of `rows` × `cols` tiles.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "tile grid dimensions must be nonzero");
        Self { rows, cols }
    }

    /// Parses a `RxC` spec (e.g. `"4x4"`, `"2x8"`).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let err = || format!("expected ROWSxCOLS with positive integers (e.g. 4x4), got {spec:?}");
        let (r, c) = spec.split_once(['x', 'X']).ok_or_else(err)?;
        let rows: usize = r.trim().parse().map_err(|_| err())?;
        let cols: usize = c.trim().parse().map_err(|_| err())?;
        if rows == 0 || cols == 0 {
            return Err(err());
        }
        Ok(Self { rows, cols })
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total tile count.
    pub fn count(&self) -> usize {
        self.rows * self.cols
    }

    /// The grid actually used for a `width` × `height` image: each
    /// dimension is clamped so every tile holds at least one pixel (a
    /// `9x9` grid over a 5×5 image runs as `5x5`).
    pub fn clamp_to(&self, width: usize, height: usize) -> Self {
        Self {
            rows: self.rows.min(height).max(1),
            cols: self.cols.min(width).max(1),
        }
    }

    /// Bounds of tile `(r, c)` over a `width` × `height` image:
    /// floor-split `[r·H/rows, (r+1)·H/rows)` bands, so non-divisible
    /// shapes spread the remainder over the trailing tiles and every tile
    /// is non-empty whenever the grid is clamped.
    pub fn tile(&self, r: usize, c: usize, width: usize, height: usize) -> TileRect {
        debug_assert!(r < self.rows && c < self.cols);
        let y0 = r * height / self.rows;
        let y1 = (r + 1) * height / self.rows;
        let x0 = c * width / self.cols;
        let x1 = (c + 1) * width / self.cols;
        TileRect {
            x0,
            y0,
            width: x1 - x0,
            height: y1 - y0,
        }
    }
}

impl std::fmt::Display for TileGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

/// Pixel bounds of one tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TileRect {
    /// Leftmost column.
    pub x0: usize,
    /// Topmost row.
    pub y0: usize,
    /// Tile width in pixels.
    pub width: usize,
    /// Tile height in pixels.
    pub height: usize,
}

/// Scalar summary of one tiled run (returned by [`TiledRunner::run_into`]
/// and mirrored in the `tiles.*` telemetry counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TiledStats {
    /// Grid rows actually used (after clamping to the image).
    pub rows: usize,
    /// Grid columns actually used.
    pub cols: usize,
    /// Total tiles run.
    pub tiles: usize,
    /// Workers the tiles actually ran on.
    pub jobs: usize,
    /// Sum of per-tile region counts before the stitch.
    pub tile_regions: usize,
    /// Cross-tile adjacent region pairs collected along the seams.
    pub seam_edges: usize,
    /// Merges performed by the stitch pass.
    pub stitch_merges: u64,
    /// Stitch merge iterations until quiescence.
    pub stitch_iterations: u32,
}

/// Per-worker state: one warm pipeline plus its recycled tile crop.
struct WorkerSlot {
    pipe: HostPipeline<u8>,
    tile_img: Image<u8>,
}

/// Per-tile result, recycled across runs (high-water capacity kept).
#[derive(Default)]
struct TileSlot {
    rect: TileRect,
    /// The tile's segmentation, in tile-local labels; its label buffer is
    /// the tile pipeline's square map while the tile runs.
    seg: Segmentation,
    /// Global vertex of the tile's local label 0 (the stitch's offset).
    base: u32,
    /// Statistics of each local region, indexed by local label.
    stats: Vec<RegionStats<u8>>,
}

/// Runs one tile through the worker's warm pipeline and refills `slot`.
fn run_tile(
    worker: &mut WorkerSlot,
    img: &Image<u8>,
    slot: &mut TileSlot,
    tel: &mut dyn Telemetry,
) {
    let r = slot.rect;
    img.crop_into(r.x0, r.y0, r.width, r.height, &mut worker.tile_img);
    worker
        .pipe
        .run_image_into(&worker.tile_img, tel, &mut slot.seg);
    worker.pipe.region_stats_into(&mut slot.stats);
}

/// The tiled execution layer: shards an image into a [`TileGrid`], runs
/// the host split+merge pipeline per tile on a worker pool, and stitches
/// the tiles with a seam RAG + boundary merge + global relabel.
///
/// All scratch — per-worker pipelines, per-tile result slots, the stitch
/// graph and its first-appearance table — follows the pipeline's
/// high-water rule: buffers grow to the largest image seen and are
/// refilled in place, so a same-shape image stream runs allocation-free in
/// steady state.
pub struct TiledRunner {
    config: Config,
    grid: TileGrid,
    jobs: usize,
    workers: Vec<WorkerSlot>,
    tiles: Vec<TileSlot>,
    // Stitch scratch (all high-water recycled).
    seam_edges: Vec<(u32, u32)>,
    /// Global vertex of each seam-graph vertex, ascending: the stitch
    /// merger's canonical IDs.
    ids: Vec<u64>,
    /// Statistics of each seam-graph vertex.
    seam_stats: Vec<RegionStats<u8>>,
    merger: Merger<u8>,
    /// The stitch merger's representative of each seam-graph vertex.
    seam_labels: Vec<u32>,
    /// Global vertex → global representative.
    by_vertex: Vec<u32>,
    /// Representative vertex → compact label; `u32::MAX` until the
    /// region's first pixel in raster order is reached.
    first: Vec<u32>,
}

impl TiledRunner {
    /// A runner over `grid` with up to `jobs` workers.
    ///
    /// `_legacy_parallel` is ignored: tiles run on the one sequential host
    /// engine, and `jobs` is the only parallelism knob. The argument
    /// remains only because the end-to-end benchmark harness (`bench_e2e/`)
    /// calls this constructor with it; it goes with the next change allowed
    /// to touch that harness.
    pub fn new(config: Config, _legacy_parallel: bool, grid: TileGrid, jobs: usize) -> Self {
        Self {
            config,
            grid,
            jobs,
            workers: Vec::new(),
            tiles: Vec::new(),
            seam_edges: Vec::new(),
            ids: Vec::new(),
            seam_stats: Vec::new(),
            merger: Merger::hollow(&config),
            seam_labels: Vec::new(),
            by_vertex: Vec::new(),
            first: Vec::new(),
        }
    }

    /// Segments `img` into the recyclable `out` buffer and returns the
    /// tiled-run summary. See the module docs for the execution and
    /// telemetry model.
    pub fn run_into(
        &mut self,
        img: &Image<u8>,
        tel: &mut dyn Telemetry,
        out: &mut Segmentation,
    ) -> TiledStats {
        let (w, h) = (img.width(), img.height());
        let grid = self.grid.clamp_to(w, h);
        self.prepare_tiles(grid, w, h);
        let jobs = pool::worker_count(self.jobs, grid.count(), tel);
        while self.workers.len() < jobs {
            self.workers.push(WorkerSlot {
                pipe: HostPipeline::new(self.config, false),
                tile_img: Image::new(1, 1, 0),
            });
        }
        let mut tiled = SpanGuard::enter(tel, SpanKind::Tiled);
        let tel = tiled.tel();
        pool::run(
            &mut self.workers[..jobs],
            self.tiles.iter_mut().enumerate(),
            &mut *tel,
            |worker, (i, slot), tel| {
                let mut span = SpanGuard::enter(tel, SpanKind::Tile(i as u32));
                run_tile(worker, img, slot, span.tel());
            },
        );
        let stats = {
            let _span = SpanGuard::enter(&mut *tel, SpanKind::Stitch);
            self.stitch(grid, w, h, jobs, out)
        };
        if tel.enabled() {
            tel.counter("tiles.rows", stats.rows as f64);
            tel.counter("tiles.cols", stats.cols as f64);
            tel.counter("tiles.count", stats.tiles as f64);
            tel.counter("tiles.tile_regions", stats.tile_regions as f64);
            tel.counter("tiles.seam_edges", stats.seam_edges as f64);
            tel.counter("tiles.stitch_merges", stats.stitch_merges as f64);
            tel.counter(
                "tiles.stitch_iterations",
                f64::from(stats.stitch_iterations),
            );
        }
        stats
    }

    /// Convenience: segment `img` into a fresh [`Segmentation`].
    pub fn run(&mut self, img: &Image<u8>, tel: &mut dyn Telemetry) -> (Segmentation, TiledStats) {
        let mut out = Segmentation::default();
        let stats = self.run_into(img, tel, &mut out);
        (out, stats)
    }

    /// Refits the per-tile slots to this image's clamped grid (slot
    /// buffers keep their high-water capacity).
    fn prepare_tiles(&mut self, grid: TileGrid, w: usize, h: usize) {
        self.tiles.resize_with(grid.count(), TileSlot::default);
        for r in 0..grid.rows() {
            for c in 0..grid.cols() {
                self.tiles[r * grid.cols() + c].rect = grid.tile(r, c, w, h);
            }
        }
    }

    /// The boundary pass over `out.labels`: global vertex space, seam RAG,
    /// boundary merge, in-place global relabel. Runs single-threaded (seam
    /// work is a lower-order term next to the per-tile phase).
    fn stitch(
        &mut self,
        grid: TileGrid,
        w: usize,
        h: usize,
        jobs: usize,
        out: &mut Segmentation,
    ) -> TiledStats {
        // Offset each tile's local labels into one global vertex space,
        // written straight into `out.labels`. The tiles cover every pixel,
        // so the resize needs no clear.
        out.labels.resize(w * h, 0);
        let mut offset = 0u32;
        for slot in &mut self.tiles {
            debug_assert_eq!(slot.stats.len(), slot.seg.num_regions);
            slot.base = offset;
            let r = slot.rect;
            for ty in 0..r.height {
                let row = &slot.seg.labels[ty * r.width..(ty + 1) * r.width];
                let base = (r.y0 + ty) * w + r.x0;
                for (dst, &l) in out.labels[base..base + r.width].iter_mut().zip(row) {
                    *dst = offset + l;
                }
            }
            offset += slot.seg.num_regions as u32;
        }
        let total_vertices = offset as usize;

        // Cross-tile adjacent pairs along the seams only. Tiles partition
        // the image into grid-aligned bands, so every cross-tile pixel
        // adjacency crosses an internal band boundary; duplicates (corner
        // diagonals appear from both seams) fall to the dedup.
        let eight = self.config.connectivity == Connectivity::Eight;
        let v = &out.labels;
        let edges = &mut self.seam_edges;
        edges.clear();
        let push = |a: u32, b: u32, edges: &mut Vec<(u32, u32)>| {
            debug_assert_ne!(a, b, "seam endpoints live in different tiles");
            if a < b {
                edges.push((a, b));
            } else {
                edges.push((b, a));
            }
        };
        for c in 1..grid.cols() {
            let xb = c * w / grid.cols();
            for y in 0..h {
                push(v[y * w + xb - 1], v[y * w + xb], edges);
                if eight && y + 1 < h {
                    push(v[y * w + xb - 1], v[(y + 1) * w + xb], edges);
                    push(v[(y + 1) * w + xb - 1], v[y * w + xb], edges);
                }
            }
        }
        for r in 1..grid.rows() {
            let yb = r * h / grid.rows();
            for x in 0..w {
                push(v[(yb - 1) * w + x], v[yb * w + x], edges);
                if eight && x + 1 < w {
                    push(v[(yb - 1) * w + x], v[yb * w + x + 1], edges);
                    push(v[(yb - 1) * w + x + 1], v[yb * w + x], edges);
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let seam_edges = edges.len();

        // The seam graph's vertices are the pairs' endpoints, numbered
        // densely in ascending global index. Their IDs are the global
        // indices, so IDs still increase with the dense index and every
        // tie decision is the one a merger over all tile regions would
        // take; the map is monotone, so the remapped pairs stay canonical.
        // `by_vertex` holds each seam vertex's dense index until the merge
        // replaces it with the representative.
        let ids = &mut self.ids;
        ids.clear();
        ids.extend(
            edges
                .iter()
                .flat_map(|&(a, b)| [u64::from(a), u64::from(b)]),
        );
        ids.sort_unstable();
        ids.dedup();
        let by_vertex = &mut self.by_vertex;
        by_vertex.clear();
        by_vertex.extend(0..offset);
        self.seam_stats.clear();
        let mut tile = 0;
        for (i, &g) in ids.iter().enumerate() {
            let g = g as u32;
            by_vertex[g as usize] = i as u32;
            let mut slot = &self.tiles[tile];
            while g >= slot.base + slot.seg.num_regions as u32 {
                tile += 1;
                slot = &self.tiles[tile];
            }
            self.seam_stats.push(slot.stats[(g - slot.base) as usize]);
        }
        for e in edges.iter_mut() {
            *e = (by_vertex[e.0 as usize], by_vertex[e.1 as usize]);
        }

        // Boundary merge to quiescence on the seam graph.
        let merger = &mut self.merger;
        merger.reset_from(&self.seam_stats, edges, ids, &self.config);
        while !merger.is_done() {
            merger.step();
        }
        let stitch_iterations = merger.iterations();
        let stitch_merges: u64 = merger
            .merges_per_iteration()
            .iter()
            .map(|&m| u64::from(m))
            .sum();

        // Relabel in place, numbering regions by first appearance in the
        // global raster order — the labeling the whole-image engines emit.
        // The vertex order is tile-major, so a region's first pixel need
        // not belong to its lowest vertex and the compaction walks pixels.
        merger.labels_by_vertex_into(&mut self.seam_labels);
        for (&g, &r) in ids.iter().zip(&self.seam_labels) {
            by_vertex[g as usize] = ids[r as usize] as u32;
        }
        let by_vertex: &[u32] = by_vertex;
        let first = &mut self.first;
        first.clear();
        first.resize(total_vertices, u32::MAX);
        let mut next = 0u32;
        for l in &mut out.labels {
            let r = by_vertex[*l as usize] as usize;
            if first[r] == u32::MAX {
                first[r] = next;
                next += 1;
            }
            *l = first[r];
        }
        let num_regions = next as usize;

        out.width = w;
        out.height = h;
        out.num_regions = num_regions;
        let tiles = self.tiles.iter().map(|t| &t.seg);
        out.num_squares = tiles.clone().map(|t| t.num_squares).sum();
        out.split_iterations = tiles.clone().map(|t| t.split_iterations).max().unwrap_or(0);
        out.merge_iterations =
            tiles.map(|t| t.merge_iterations).max().unwrap_or(0) + stitch_iterations;
        out.merges_per_iteration.clear();
        out.merges_per_iteration
            .extend_from_slice(merger.merges_per_iteration());

        TiledStats {
            rows: grid.rows(),
            cols: grid.cols(),
            tiles: grid.count(),
            jobs,
            tile_regions: total_vertices,
            seam_edges,
            stitch_merges,
            stitch_iterations,
        }
    }
}

/// One-shot convenience: segment `img` through a fresh [`TiledRunner`].
pub fn segment_tiled(
    img: &Image<u8>,
    config: &Config,
    grid: TileGrid,
    jobs: usize,
) -> Segmentation {
    let mut runner = TiledRunner::new(*config, false, grid, jobs);
    let mut out = Segmentation::default();
    runner.run_into(img, &mut NullTelemetry, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TieBreak;
    use crate::engine::segment;
    use rg_imaging::synth;

    #[test]
    fn grid_parse_and_clamp() {
        assert_eq!(TileGrid::parse("4x4").unwrap(), TileGrid::new(4, 4));
        assert_eq!(TileGrid::parse("2X8").unwrap(), TileGrid::new(2, 8));
        for bad in ["", "4", "0x4", "4x0", "x", "axb", "4x4x4", "-1x2"] {
            assert!(TileGrid::parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert_eq!(TileGrid::new(9, 9).clamp_to(5, 3), TileGrid::new(3, 5));
        assert_eq!(TileGrid::new(2, 2).clamp_to(100, 1), TileGrid::new(1, 2));
    }

    #[test]
    fn tile_bounds_cover_exactly_without_overlap() {
        for (w, h, rows, cols) in [(513, 100, 4, 3), (7, 7, 3, 3), (1, 64, 8, 1), (64, 1, 1, 8)] {
            let grid = TileGrid::new(rows, cols).clamp_to(w, h);
            let mut covered = vec![0u8; w * h];
            for r in 0..grid.rows() {
                for c in 0..grid.cols() {
                    let t = grid.tile(r, c, w, h);
                    assert!(t.width > 0 && t.height > 0, "empty tile at ({r},{c})");
                    for y in t.y0..t.y0 + t.height {
                        for x in t.x0..t.x0 + t.width {
                            covered[y * w + x] += 1;
                        }
                    }
                }
            }
            assert!(
                covered.iter().all(|&c| c == 1),
                "{w}x{h} {rows}x{cols}: tiles must partition the image"
            );
        }
    }

    #[test]
    fn one_by_one_grid_matches_whole_image_exactly() {
        // A 1x1 grid is the whole image with a no-op stitch: labels must be
        // bit-identical to the host engine on any scene, any tie policy.
        let img = synth::random_rects(96, 64, 9, 3);
        for tie in [
            TieBreak::SmallestId,
            TieBreak::LargestId,
            TieBreak::Random { seed: 9 },
        ] {
            let cfg = Config::with_threshold(12).tie_break(tie);
            let whole = segment(&img, &cfg);
            let tiled = segment_tiled(&img, &cfg, TileGrid::new(1, 1), 1);
            assert_eq!(whole.labels, tiled.labels, "tie={tie:?}");
            assert_eq!(whole.num_regions, tiled.num_regions);
        }
    }

    #[test]
    fn separated_scene_is_partition_identical_across_grids_and_jobs() {
        // Flat regions pairwise separated by > T: the fixed point is unique
        // (DESIGN.md §17), so tiling must reproduce the exact labels.
        let img = synth::rect_collection(128);
        for tie in [TieBreak::SmallestId, TieBreak::LargestId] {
            let cfg = Config::with_threshold(10).tie_break(tie);
            let whole = segment(&img, &cfg);
            for (rows, cols) in [(2, 2), (3, 5), (1, 7), (4, 1)] {
                for jobs in [1, 4] {
                    let tiled = segment_tiled(&img, &cfg, TileGrid::new(rows, cols), jobs);
                    assert_eq!(
                        whole.labels, tiled.labels,
                        "grid {rows}x{cols} jobs {jobs} tie {tie:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn eight_connectivity_stitches_corner_diagonals() {
        // Four flat quadrants meeting at the image center, tiled 2x2 right
        // through the meeting point: the diagonal quadrant pairs are
        // adjacent only across the tile corner, so 8-connectivity must
        // carry them through the seam RAG.
        let img = Image::from_fn(8, 8, |x, y| match (x < 4, y < 4) {
            (true, true) => 10u8,
            (false, true) => 100,
            (true, false) => 200,
            (false, false) => 14,
        });
        let cfg = Config::with_threshold(6)
            .connectivity(Connectivity::Eight)
            .tie_break(TieBreak::SmallestId);
        let whole = segment(&img, &cfg);
        let tiled = segment_tiled(&img, &cfg, TileGrid::new(2, 2), 1);
        assert_eq!(whole.labels, tiled.labels);
        // Quadrants 10 and 14 touch only at the center corner and satisfy
        // the criterion (range 4 ≤ 6), so both runs weld them: 3 regions.
        assert_eq!(whole.num_regions, 3);
        assert_eq!(tiled.num_regions, 3);
    }

    #[test]
    fn stitch_merges_regions_cut_by_seams() {
        // One flat image: every tile collapses to a single region and the
        // stitch must weld them all back into one.
        let img: Image<u8> = Image::new(33, 17, 42);
        let cfg = Config::with_threshold(5);
        let mut runner = TiledRunner::new(cfg, false, TileGrid::new(3, 4), 2);
        let (seg, stats) = runner.run(&img, &mut NullTelemetry);
        assert_eq!(seg.num_regions, 1);
        assert!(seg.labels.iter().all(|&l| l == 0));
        assert_eq!(stats.tiles, 12);
        assert_eq!(stats.jobs, 2);
        assert_eq!(stats.tile_regions, 12);
        assert_eq!(stats.stitch_merges, 11);
        assert!(stats.seam_edges > 0);
    }

    #[test]
    fn telemetry_run_nests_tile_and_stitch_spans() {
        use crate::journal::{validate_journal, EventKind, EventLog};
        let img = synth::rect_collection(64);
        let cfg = Config::with_threshold(10).tie_break(TieBreak::SmallestId);
        let mut runner = TiledRunner::new(cfg, false, TileGrid::new(2, 2), 4);
        let mut log = EventLog::in_memory();
        let mut out = Segmentation::default();
        let stats = runner.run_into(&img, &mut log, &mut out);
        assert_eq!(stats.tiles, 4);
        assert_eq!(stats.jobs, 1);
        validate_journal(log.events()).expect("tiled journal must validate");
        let labels: Vec<String> = log
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::SpanBegin { span } => Some(span.label()),
                _ => None,
            })
            .collect();
        assert_eq!(labels[0], "tiled");
        assert_eq!(labels[1], "tile:0");
        assert_eq!(labels[2], "run");
        assert!(labels.contains(&"tile:3".to_string()));
        assert!(labels.contains(&"stitch".to_string()));
        let counters: Vec<&str> = log
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Counter { name, .. } if name.starts_with("tiles.") => {
                    Some(name.as_str())
                }
                _ => None,
            })
            .collect();
        for want in ["tiles.count", "tiles.seam_edges", "tiles.stitch_merges"] {
            assert!(counters.contains(&want), "missing counter {want}");
        }
        // Telemetry output is bit-identical to the untraced path.
        let quiet = segment_tiled(&img, &cfg, TileGrid::new(2, 2), 1);
        assert_eq!(out.labels, quiet.labels);
    }

    #[test]
    fn runner_reuse_matches_fresh_runs_across_shapes() {
        let cfg = Config::with_threshold(10).tie_break(TieBreak::SmallestId);
        let mut runner = TiledRunner::new(cfg, false, TileGrid::new(2, 3), 2);
        let images = [
            synth::rect_collection(64),
            synth::nested_rects(96),
            synth::rect_collection(64),
        ];
        let mut out = Segmentation::default();
        for img in &images {
            runner.run_into(img, &mut NullTelemetry, &mut out);
            let fresh = segment_tiled(img, &cfg, TileGrid::new(2, 3), 1);
            assert_eq!(out.labels, fresh.labels);
            assert_eq!(out.num_regions, fresh.num_regions);
        }
    }
}
