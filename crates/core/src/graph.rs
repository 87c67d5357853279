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
//! Edges of a square graph come from one walk over the square perimeters,
//! [`square_forward_neighbours`], which hands each square's larger
//! neighbours to a sink. The host pipeline's sink is the merge engine
//! itself ([`crate::merge::Merger::reset_from_split`]): it keeps only the
//! pairs that satisfy the criterion and lays them out as its per-region
//! adjacency, so no edge list is materialised. [`square_adjacency_into`]
//! collects the canonical edge list instead, for [`Rag`], the
//! message-passing boundary and the tests.

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

impl<P: Intensity> Rag<'static, P> {
    /// Builds a RAG owning its statistics (hand-built graphs).
    pub fn from_parts(stats: Vec<RegionStats<P>>, edges: Vec<(u32, u32)>) -> Self {
        Self {
            stats: Cow::Owned(stats),
            edges,
        }
    }
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
/// into `out`, reading only the perimeters of the squares: the pairs
/// `(u, v)` of [`square_forward_neighbours`], in its order. `out` and the
/// per-square neighbour list `scratch` are cleared first; neither
/// allocates once it has reached its high-water capacity.
///
/// The output is identical to
/// `adjacent_label_pairs(&split.square_of, width, height, connectivity)`,
/// without its per-pixel scan and its sort of the whole pair list.
pub fn square_adjacency_into<P: Intensity>(
    split: &SplitResult<P>,
    connectivity: Connectivity,
    scratch: &mut Vec<u32>,
    out: &mut Vec<(u32, u32)>,
) {
    out.clear();
    square_forward_neighbours(split, connectivity, scratch, |u, nb| {
        out.extend(nb.iter().map(|&v| (u, v)));
    });
}

/// Walks the perimeter of every square of a split, in index order, and
/// hands each square `u` with its sorted, unique forward neighbours
/// (`v > u`) to `sink(u, neighbours)`. The concatenated pairs `(u, v)` are
/// the canonical RAG edge list; [`square_adjacency_into`] collects them,
/// and the merge engine filters them as they come
/// ([`crate::merge::Merger::reset_from_split`]). `scratch` holds the
/// current square's list and does not allocate once it has reached its
/// high-water capacity.
///
/// **Construction.** The split emits squares in one row-major pass, in
/// raster order of their top-left corners, so a square's dense index
/// orders like its id and `square_of` needs no sort. For each square `u`
/// at `(x0, y0)` with side `s`, in index order:
///
/// * walk `square_of` along column `x0 + s` (right), column `x0 − 1`
///   (left) and row `y0 + s` (below), each clipped to the image; a walk
///   reads one pixel per neighbour square and hops past the rest of it;
/// * under 8-connectivity, the row walk also covers the bottom corners
///   `(x0 − 1, y0 + s)` and `(x0 + s, y0 + s)`;
/// * keep a neighbour `v` only if `v > u`, then sort and dedup the short
///   list (only when it is not already ascending).
///
/// **Canonical order.** Take an adjacent pair `a < b`. A square covering
/// a pixel in the row above `a` starts on an earlier row, so its index is
/// smaller than `a`'s: `b` cannot touch `a`'s top side or its top corners.
/// Every other pixel adjacent to `a` lies on the right or left column, the
/// row below or (8-connectivity) a bottom corner, so `b` is found from
/// `a`. It is never emitted from `b`, whose filter drops `a < b`. Each pair
/// therefore appears exactly once, from its smaller end, and pairs come
/// out sorted because squares are visited in index order.
///
/// **Cost.** One read per (square, side, neighbour) plus a sort of a few
/// larger neighbours per square: O(squares + edges), bounded by the total
/// square perimeter. That is linear in the pixels on fragmented scenes and
/// far below it when large squares cover the image.
pub fn square_forward_neighbours<P: Intensity>(
    split: &SplitResult<P>,
    connectivity: Connectivity,
    scratch: &mut Vec<u32>,
    mut sink: impl FnMut(u32, &[u32]),
) {
    let (w, h) = (split.width, split.height);
    let (squares, square_of) = (&split.squares[..], &split.square_of[..]);
    assert_eq!(square_of.len(), w * h, "square_of size mismatch");
    let eight = connectivity == Connectivity::Eight;
    for (u, sq) in squares.iter().enumerate() {
        let u = u as u32;
        let (x0, y0, s) = (sq.x as usize, sq.y as usize, sq.side() as usize);
        // One past the square; squares lie wholly inside the image.
        let (x1, y1) = (x0 + s, y0 + s);
        let nb = &mut *scratch;
        nb.clear();
        // Walks column `x` from row `y` (or row `y` from column `x`) up to
        // `end`, hopping over each neighbour square in one step and
        // keeping it if it is larger than `u`.
        let mut walk = |mut x: usize, mut y: usize, end: usize, down: bool| loop {
            let v = square_of[y * w + x];
            if v > u {
                nb.push(v);
            }
            let q = squares[v as usize];
            let (pos, past) = if down {
                (&mut y, q.y + q.side())
            } else {
                (&mut x, q.x + q.side())
            };
            *pos = past as usize;
            if *pos >= end {
                break;
            }
        };
        if x1 < w {
            walk(x1, y0, y1, true);
        }
        if x0 > 0 && s > 1 {
            // Row `y0` of the left column belongs to a square that starts
            // no later and further left, so its index is smaller.
            walk(x0 - 1, y0 + 1, y1, true);
        }
        if y1 < h {
            // Under 8-connectivity the row widens by the bottom corners.
            let lo = if eight && x0 > 0 { x0 - 1 } else { x0 };
            let hi = if eight && x1 < w { x1 + 1 } else { x1 };
            walk(lo, y1, hi, false);
        }
        // The list is usually ascending already; interleaved left/right
        // neighbours and corner squares also met on a column need the sort.
        if !nb.windows(2).all(|p| p[0] < p[1]) {
            nb.sort_unstable();
            nb.dedup();
        }
        sink(u, nb);
    }
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
