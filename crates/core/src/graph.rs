//! The region adjacency graph (RAG).
//!
//! *"The merge is achieved by reformulating the region growing problem as a
//! weighted, un-directed graph problem, where the vertices of the graph
//! represent the regions in the image, and the edges represent the
//! neighboring relationships among these regions."*
//!
//! Edge weights are not stored: they derive from the current vertex
//! statistics (`max(max_u, max_v) − min(min_u, min_v)` for the pixel-range
//! criterion) and change as regions merge, so the merge engine recomputes
//! them on the fly — the same trick that lets the CM implementations keep
//! everything in flat arrays.
//!
//! Edges of a square graph come from one streaming walk over the square
//! perimeters, [`square_forward_neighbours`], which hands each pair of a
//! square and a larger neighbour to a predicate as it reads it and stages
//! the pairs it keeps in a flat buffer. The host pipeline's predicate is
//! the merge engine's criterion filter
//! ([`crate::merge::Merger::reset_from_split`]): only the pairs that
//! satisfy it are staged, and the engine lays them out as its per-region
//! adjacency, so no edge list is materialised. [`square_adjacency_into`]
//! keeps every pair and sorts them into the canonical edge list, for
//! [`Rag`], the message-passing boundary and the tests.

use crate::config::{Connectivity, RegionStats};
use crate::split::SplitResult;
use rg_imaging::Intensity;
use std::borrow::Cow;

/// A region adjacency graph: `stats[v]` for each vertex, plus the canonical
/// (sorted, deduplicated, `u < v`) undirected edge list.
///
/// Statistics are carried as a [`Cow`]: [`Rag::from_split`] *borrows* the
/// split result's stats instead of cloning them (the merge engine converts
/// them into its SoA layout in one pass either way), while hand-built
/// graphs (tests, synthetic workloads) own their vector.
#[derive(Debug, Clone)]
pub struct Rag<'a, P: Intensity> {
    /// Per-vertex region statistics, indexed by dense vertex id.
    pub stats: Cow<'a, [RegionStats<P>]>,
    /// Undirected edges with `u < v`, sorted lexicographically, unique.
    pub edges: Vec<(u32, u32)>,
}

impl<'a, P: Intensity> Rag<'a, P> {
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.stats.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Builds the RAG for the squares of a split result, borrowing the
    /// split's statistics (no copy). Edges come from
    /// [`square_adjacency_into`].
    pub fn from_split(split: &'a SplitResult<P>, connectivity: Connectivity) -> Self {
        let mut edges = Vec::new();
        square_adjacency_into(split, connectivity, &mut Vec::new(), &mut edges);
        Self {
            stats: Cow::Borrowed(&split.stats),
            edges,
        }
    }
}

/// Writes the canonical RAG edge list of a split (`u < v`, sorted, unique)
/// into `out`, reading only the perimeters of the squares: the pairs of
/// [`square_forward_neighbours`], staged in `scratch`, then sorted. The walk
/// emits every pair once, so the sorted list is already unique. `out` is
/// cleared first; neither buffer allocates once it has reached its
/// high-water length.
///
/// The output is identical to
/// `adjacent_label_pairs(&split.square_of, width, height, connectivity)`,
/// without its per-pixel scan and its sort of every pixel pair.
pub fn square_adjacency_into<P: Intensity>(
    split: &SplitResult<P>,
    connectivity: Connectivity,
    scratch: &mut Vec<u32>,
    out: &mut Vec<(u32, u32)>,
) {
    let staged = square_forward_neighbours(split, connectivity, scratch, |_, _| true);
    out.clear();
    out.extend(scratch[..staged].chunks_exact(2).map(|p| (p[0], p[1])));
    out.sort_unstable();
    debug_assert!(
        out.windows(2).all(|p| p[0] < p[1]),
        "the walk emits each pair once"
    );
}

/// Walks the perimeter of every square of a split, in index order, and
/// hands each forward pair `(u, v)` (adjacent, `v > u`) to `keep` as it
/// reads it. The pairs `keep` accepts are staged flat, `u` then `v`, in
/// `staged[..k]`; the walk returns `k`, twice the number of pairs kept.
/// With `keep` always `true` the pairs are the canonical RAG edge list,
/// each once, grouped by ascending `u` but not sorted within a group;
/// [`square_adjacency_into`] sorts them. The merge engine's reset filters
/// them on the criterion instead
/// ([`crate::merge::Merger::reset_from_split`]).
///
/// `staged`'s length is a high-water mark that never shrinks: before each
/// square the walk grows it, if need be, to that square's bound of
/// `2·(3s + 1)` entries past the write cursor, and entries past `k` are
/// stale. Every pair read is written at the cursor, which then advances
/// by two if the pair is forward and kept: no branch and no growth per
/// pair, with the cursor and the slice in registers. A cold buffer first
/// reserves one entry per square, so it reallocates a few times at most
/// instead of doubling up from empty. In the merger the buffer is the
/// spare arena, which reserves three times the staged entries after the
/// walk anyway.
///
/// **Construction.** The split emits squares in one row-major pass, in
/// raster order of their top-left corners, so a square's dense index
/// orders like its id and `square_of` needs no sort. A square of side `s`
/// starts at multiples of `s`. For each square `u` at `(x0, y0)` with side
/// `s`, in index order:
///
/// * a 1×1 square reads its right and lower pixel straight from
///   `square_of`, and under 8-connectivity its two lower corners;
/// * a larger square walks `square_of` along column `x0 + s` (right),
///   column `x0 − 1` (left) and row `y0 + s` (below), each clipped to the
///   image, and under 8-connectivity the row also covers the bottom
///   corners `(x0 − 1, y0 + s)` and `(x0 + s, y0 + s)`. A walk reads one
///   pixel per neighbour square and hops past the rest of it;
/// * a square read is forward if `v > u`. A bottom-right corner is also
///   dropped when it repeats the right column's last square, and a 1×1
///   square's lower corners when they repeat the square below.
///
/// **Canonical order.** Take an adjacent pair `a < b`. A square covering
/// a pixel in the row above `a` starts on an earlier row, so its index is
/// smaller than `a`'s: `b` cannot touch `a`'s top side or its top corners.
/// Every other pixel adjacent to `a` lies on the right or left column, the
/// row below or (8-connectivity) a bottom corner, so `b` is found from
/// `a`. It is never emitted from `b`, which drops `a < b`. A square of the
/// row below starts on row `y0 + s`, later than any square of the columns,
/// so only a corner square that reaches up into a column can repeat one.
/// On the right that may be a larger square starting on `u`'s top row. On
/// the left it is always smaller than `u`: a square starting on a row
/// between `y0` and `y0 + s` would, with a side of `s` or more, start off
/// its own multiples, and with a smaller side end above row `y0 + s`. So
/// it starts on `u`'s top row or above, further left. Each pair
/// therefore appears exactly once, from its smaller end, and the pairs
/// are grouped by ascending `u`.
///
/// **Cost.** One read and one staged pair per (square, side, neighbour):
/// O(squares + edges), bounded by the total square perimeter. That is
/// linear in the pixels on fragmented scenes and far below it when large
/// squares cover the image. A 1×1 square, nearly every square on
/// speckle, costs two reads of `square_of` under 4-connectivity and no
/// `squares` lookup.
pub fn square_forward_neighbours<P: Intensity>(
    split: &SplitResult<P>,
    connectivity: Connectivity,
    staged: &mut Vec<u32>,
    keep: impl Fn(u32, u32) -> bool,
) -> usize {
    let (w, h) = (split.width, split.height);
    let (squares, square_of) = (&split.squares[..], &split.square_of[..]);
    assert_eq!(square_of.len(), w * h, "square_of size mismatch");
    let eight = connectivity == Connectivity::Eight;
    // Stages `(u, v)` at the cursor and keeps it iff `fwd` and `keep`.
    let stage = |buf: &mut [u32], at: &mut usize, u: u32, v: u32, fwd: bool| {
        buf[*at..*at + 2].copy_from_slice(&[u, v]);
        *at += 2 * usize::from(fwd & keep(u, v));
    };
    staged.reserve(squares.len().saturating_sub(staged.len()));
    let mut buf = &mut staged[..];
    let mut at = 0;
    for (u, sq) in squares.iter().enumerate() {
        let u = u as u32;
        let (x0, y0, s) = (sq.x as usize, sq.y as usize, sq.side() as usize);
        // At most `s` reads down the right column, `s − 1` down the left
        // one and `s + 2` along the row below, one pair each.
        let bound = 2 * (3 * s + 1);
        if at + bound > buf.len() {
            staged.resize(at + bound, 0);
            buf = &mut staged[..];
        }
        let p = y0 * w + x0;
        if s == 1 {
            // The square right of `u` starts on this row (forward) or
            // covers it from an earlier one. The square below starts on
            // the next row: its top row is there and `u` is above it.
            let right = x0 + 1 < w;
            let r = if right { square_of[p + 1] } else { u };
            if right {
                stage(buf, &mut at, u, r, r > u);
            }
            if y0 + 1 < h {
                let d = square_of[p + w];
                // A lower corner is the square beside `u` reaching down
                // (on the left, one that starts above `u`, so smaller),
                // the square below, or a square starting on the next row.
                if eight && x0 > 0 {
                    let c = square_of[p + w - 1];
                    stage(buf, &mut at, u, c, (c > u) & (c != d));
                }
                stage(buf, &mut at, u, d, true);
                if eight && right {
                    let c = square_of[p + w + 1];
                    stage(buf, &mut at, u, c, (c != r) & (c != d));
                }
            }
            continue;
        }
        // One past the square; squares lie wholly inside the image.
        let (x1, y1) = (x0 + s, y0 + s);
        // A read is staged as forward if it is larger than `u` and is not
        // `skip`.
        let fwd = |v: u32, skip: u32| (v > u) & (v != skip);
        // Walks column `x` from row `y` (or row `y` from column `x`) up to
        // `end`, reading one pixel per neighbour square and hopping past
        // the rest of it; returns the last square read.
        let mut walk = |mut x: usize, mut y: usize, end: usize, down: bool, skip: u32| loop {
            let v = square_of[y * w + x];
            stage(buf, &mut at, u, v, fwd(v, skip));
            let q = squares[v as usize];
            let (pos, past) = if down {
                (&mut y, q.y + q.side())
            } else {
                (&mut x, q.x + q.side())
            };
            *pos = past as usize;
            if *pos >= end {
                break v;
            }
        };
        // Without a right column, `u` stands in: no read is `u`.
        let right = if x1 < w { walk(x1, y0, y1, true, u) } else { u };
        if x0 > 0 {
            // Row `y0` of the left column belongs to a square that starts
            // no later and further left, so its index is smaller.
            walk(x0 - 1, y0 + 1, y1, true, u);
        }
        if y1 < h {
            // Under 8-connectivity the row widens by the bottom corners,
            // and the right one may repeat the right column's last square.
            let lo = if eight && x0 > 0 { x0 - 1 } else { x0 };
            let hi = if eight && x1 < w { x1 + 1 } else { x1 };
            walk(lo, y1, hi, false, right);
        }
    }
    at
}

/// Scans a row-major label map and returns every unordered pair of distinct
/// labels that are pixel-adjacent under `connectivity`, sorted and deduped.
///
/// For arbitrary label maps: maximality checks of a final segmentation and
/// baseline leaf maps. Square graphs use [`square_forward_neighbours`],
/// which this function serves as test oracle for.
pub fn adjacent_label_pairs(
    labels: &[u32],
    width: usize,
    height: usize,
    connectivity: Connectivity,
) -> Vec<(u32, u32)> {
    assert_eq!(labels.len(), width * height, "label buffer size mismatch");
    let mut out = Vec::new();
    for y in 0..height {
        let row = &labels[y * width..(y + 1) * width];
        let below = if y + 1 < height {
            Some(&labels[(y + 1) * width..(y + 2) * width])
        } else {
            None
        };
        for x in 0..width {
            let a = row[x];
            // Right neighbour.
            if x + 1 < width {
                push_pair(&mut out, a, row[x + 1]);
            }
            if let Some(below) = below {
                // Down neighbour.
                push_pair(&mut out, a, below[x]);
                if connectivity == Connectivity::Eight {
                    // Down-right and down-left diagonals.
                    if x + 1 < width {
                        push_pair(&mut out, a, below[x + 1]);
                    }
                    if x > 0 {
                        push_pair(&mut out, a, below[x - 1]);
                    }
                }
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[inline]
fn push_pair(out: &mut Vec<(u32, u32)>, a: u32, b: u32) {
    use std::cmp::Ordering;
    match a.cmp(&b) {
        Ordering::Less => out.push((a, b)),
        Ordering::Greater => out.push((b, a)),
        Ordering::Equal => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::split::split;
    use rg_imaging::synth;

    #[test]
    fn figure1_rag() {
        // Squares (dense index by raster order of top-left):
        //   0: 2×2 @ (0,0)   1: 1×1 @ (2,0)  2: 1×1 @ (3,0)
        //   3: 1×1 @ (2,1)   4: 1×1 @ (3,1)  5: 2×2 @ (0,2)  6: 2×2 @ (2,2)
        let img = synth::figure1_image();
        let s = split(&img, &Config::with_threshold(3));
        let rag = Rag::from_split(&s, Connectivity::Four);
        assert_eq!(rag.num_vertices(), 7);
        let expect = vec![
            (0, 1),
            (0, 3),
            (0, 5),
            (1, 2),
            (1, 3),
            (2, 4),
            (3, 4),
            (3, 6),
            (4, 6),
            (5, 6),
        ];
        assert_eq!(rag.edges, expect);
    }

    #[test]
    fn eight_connectivity_adds_diagonals() {
        // 2×2 checkerboard of singleton regions: 4-conn has 4 edges, 8-conn
        // adds the two diagonals.
        let labels = vec![0, 1, 2, 3];
        let four = adjacent_label_pairs(&labels, 2, 2, Connectivity::Four);
        assert_eq!(four, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        let eight = adjacent_label_pairs(&labels, 2, 2, Connectivity::Eight);
        assert_eq!(eight, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn square_builder_matches_oracle() {
        // Stale contents of the reused buffers must be cleared.
        let (mut scratch, mut out) = (vec![3u32], vec![(7u32, 9u32)]);
        for seed in 0..3 {
            let img = synth::random_rects(80, 48, 9, seed);
            let s = split(&img, &Config::with_threshold(15));
            for conn in [Connectivity::Four, Connectivity::Eight] {
                square_adjacency_into(&s, conn, &mut scratch, &mut out);
                assert_eq!(out, adjacent_label_pairs(&s.square_of, 80, 48, conn));
            }
        }
    }

    #[test]
    fn edges_are_canonical() {
        let img = synth::circle_collection(64);
        let s = split(&img, &Config::with_threshold(10));
        let rag = Rag::from_split(&s, Connectivity::Four);
        for w in rag.edges.windows(2) {
            assert!(w[0] < w[1], "edges must be strictly sorted/unique");
        }
        assert!(rag.edges.iter().all(|&(u, v)| u < v));
        assert!(rag
            .edges
            .iter()
            .all(|&(u, v)| (v as usize) < rag.num_vertices() && (u as usize) < rag.num_vertices()));
    }

    #[test]
    fn single_region_image_has_no_edges() {
        let img: rg_imaging::Image<u8> = rg_imaging::Image::new(8, 8, 3);
        let s = split(&img, &Config::with_threshold(5));
        let rag = Rag::from_split(&s, Connectivity::Four);
        assert_eq!(rag.num_vertices(), 1);
        assert!(rag.edges.is_empty());
    }
}
