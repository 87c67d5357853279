//! Domain decomposition: mapping the image onto the node grid.
//!
//! *"The image is mapped to the node processor grid such that each
//! processor receives an N/P1 × N/P2 sub-image of the original image.
//! This partitioning maintains adjacency between neighboring blocks of the
//! image."* (step 0 of the paper's message-passing algorithm)

/// A P1 × P2 block decomposition of a `width × height` image over `q`
/// nodes (ranks row-major over the grid: `rank = ty * p1 + tx`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decomposition {
    /// Grid columns (x direction).
    pub p1: usize,
    /// Grid rows (y direction).
    pub p2: usize,
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
}

/// A node's tile: the half-open pixel rectangle it owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Left edge.
    pub x0: usize,
    /// Top edge.
    pub y0: usize,
    /// Width.
    pub w: usize,
    /// Height.
    pub h: usize,
}

impl Decomposition {
    /// Chooses the most square-ish `p1 × p2 = q` grid for the image, or
    /// `None` when no grid fits: `q` is zero, or every factorisation has
    /// more columns than the width or more rows than the height.
    pub fn for_nodes(q: usize, width: usize, height: usize) -> Option<Self> {
        // Pick the factorisation minimising tile aspect distortion.
        let mut best = None;
        let mut best_score = f64::INFINITY;
        for p1 in 1..=q.min(width) {
            if !q.is_multiple_of(p1) {
                continue;
            }
            let p2 = q / p1;
            if p2 > height {
                continue;
            }
            let tw = width as f64 / p1 as f64;
            let th = height as f64 / p2 as f64;
            let score = (tw / th).max(th / tw);
            if score < best_score {
                best_score = score;
                best = Some((p1, p2));
            }
        }
        best.map(|(p1, p2)| Self {
            p1,
            p2,
            width,
            height,
        })
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.p1 * self.p2
    }

    /// Grid coordinates of a rank.
    pub fn grid_coords(&self, rank: usize) -> (usize, usize) {
        debug_assert!(rank < self.nodes());
        (rank % self.p1, rank / self.p1)
    }

    /// Rank owning grid cell `(tx, ty)`.
    pub fn rank_of(&self, tx: usize, ty: usize) -> usize {
        debug_assert!(tx < self.p1 && ty < self.p2);
        ty * self.p1 + tx
    }

    /// Balanced 1-D split point: the start of part `i` of `n` into `parts`.
    fn cut(n: usize, parts: usize, i: usize) -> usize {
        n * i / parts
    }

    /// The tile of `rank`.
    pub fn tile(&self, rank: usize) -> Tile {
        let (tx, ty) = self.grid_coords(rank);
        let x0 = Self::cut(self.width, self.p1, tx);
        let x1 = Self::cut(self.width, self.p1, tx + 1);
        let y0 = Self::cut(self.height, self.p2, ty);
        let y1 = Self::cut(self.height, self.p2, ty + 1);
        Tile {
            x0,
            y0,
            w: x1 - x0,
            h: y1 - y0,
        }
    }

    /// Rank owning pixel `(x, y)`.
    pub fn owner_of_pixel(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.width && y < self.height);
        // Inverse of the balanced cut: start from the closed-form estimate
        // (exact for divisible sizes) and fix up the remainder cases.
        let mut tx = (x * self.p1 / self.width).min(self.p1 - 1);
        while Self::cut(self.width, self.p1, tx) > x {
            tx -= 1;
        }
        while tx + 1 < self.p1 && Self::cut(self.width, self.p1, tx + 1) <= x {
            tx += 1;
        }
        let mut ty = (y * self.p2 / self.height).min(self.p2 - 1);
        while Self::cut(self.height, self.p2, ty) > y {
            ty -= 1;
        }
        while ty + 1 < self.p2 && Self::cut(self.height, self.p2, ty + 1) <= y {
            ty += 1;
        }
        self.rank_of(tx, ty)
    }

    /// Rank owning the region whose canonical ID (top-left linear pixel
    /// index) is `id`.
    pub fn owner_of_id(&self, id: u32) -> usize {
        let x = id as usize % self.width;
        let y = id as usize / self.width;
        self.owner_of_pixel(x, y)
    }

    /// The largest `log2` square size that can never straddle a tile
    /// boundary: the greatest `k` such that every cut point is a multiple
    /// of `2^k` and `2^k` fits in every tile.
    ///
    /// The message-passing split stage is structurally capped at this size
    /// (each node splits its sub-image independently); passing the same
    /// cap to the other engines makes all implementations produce
    /// identical split results — the convention the paper-table harness
    /// uses.
    pub fn max_safe_square_log2(&self) -> u8 {
        let mut k = 0u8;
        'outer: loop {
            let side = 1usize << (k + 1);
            for i in 0..=self.p1 {
                if Self::cut(self.width, self.p1, i) % side != 0 {
                    break 'outer;
                }
            }
            for i in 0..=self.p2 {
                if Self::cut(self.height, self.p2, i) % side != 0 {
                    break 'outer;
                }
            }
            // Must also fit inside every tile.
            for r in 0..self.nodes() {
                let t = self.tile(r);
                if t.w < side || t.h < side {
                    break 'outer;
                }
            }
            k += 1;
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_choice_is_squareish() {
        let d = Decomposition::for_nodes(32, 128, 128).unwrap();
        assert_eq!(d.p1 * d.p2, 32);
        // 8x4 or 4x8 — tiles 16x32 or 32x16.
        assert!(matches!((d.p1, d.p2), (8, 4) | (4, 8)));
        let d4 = Decomposition::for_nodes(4, 100, 100).unwrap();
        assert_eq!((d4.p1, d4.p2), (2, 2));
    }

    #[test]
    fn no_grid_fits_gives_none() {
        assert_eq!(Decomposition::for_nodes(0, 128, 128), None);
        // More nodes than pixels.
        assert_eq!(Decomposition::for_nodes(32, 4, 4), None);
        // 131 is prime and larger than both sides.
        assert_eq!(Decomposition::for_nodes(131, 128, 128), None);
        // A prime count fits when one side holds it.
        let d = Decomposition::for_nodes(131, 131, 1).unwrap();
        assert_eq!((d.p1, d.p2), (131, 1));
    }

    #[test]
    fn tiles_partition_image() {
        for (q, w, h) in [(32, 128, 128), (6, 50, 40), (5, 17, 23), (1, 9, 9)] {
            let d = Decomposition::for_nodes(q, w, h).unwrap();
            let mut covered = vec![0u8; w * h];
            for r in 0..d.nodes() {
                let t = d.tile(r);
                for y in t.y0..t.y0 + t.h {
                    for x in t.x0..t.x0 + t.w {
                        covered[y * w + x] += 1;
                    }
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "q={q} {w}x{h}");
        }
    }

    #[test]
    fn owner_matches_tiles() {
        for (q, w, h) in [(32, 128, 128), (6, 50, 40), (12, 64, 48)] {
            let d = Decomposition::for_nodes(q, w, h).unwrap();
            for y in 0..h {
                for x in 0..w {
                    let r = d.owner_of_pixel(x, y);
                    let t = d.tile(r);
                    assert!(
                        x >= t.x0 && x < t.x0 + t.w && y >= t.y0 && y < t.y0 + t.h,
                        "pixel ({x},{y}) assigned to wrong tile {t:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn owner_of_id_consistent() {
        let d = Decomposition::for_nodes(8, 64, 32).unwrap();
        for id in [0u32, 63, 64, 1000, 64 * 32 - 1] {
            let (x, y) = (id as usize % 64, id as usize / 64);
            assert_eq!(d.owner_of_id(id), d.owner_of_pixel(x, y));
        }
    }

    #[test]
    fn safe_square_cap() {
        // 128x128 on 32 nodes (8x4): tiles 16x32 -> cuts multiples of 16,
        // min tile side 16 -> cap 4 (squares up to 16).
        let d = Decomposition::for_nodes(32, 128, 128).unwrap();
        assert_eq!(d.max_safe_square_log2(), 4);
        // 256x256 on 32 nodes: tiles 32x64 -> cap 5 (squares up to 32).
        let d = Decomposition::for_nodes(32, 256, 256).unwrap();
        assert_eq!(d.max_safe_square_log2(), 5);
        // Uneven cuts give cap 0.
        let d = Decomposition::for_nodes(3, 10, 9).unwrap();
        assert_eq!(d.max_safe_square_log2(), 0);
    }

    #[test]
    fn grid_coords_roundtrip() {
        let d = Decomposition::for_nodes(32, 128, 128).unwrap();
        for r in 0..32 {
            let (tx, ty) = d.grid_coords(r);
            assert_eq!(d.rank_of(tx, ty), r);
        }
    }
}
