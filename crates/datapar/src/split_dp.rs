//! Data-parallel split stage (the paper's step 1).
//!
//! The pixel image lives in 2-D fields, one virtual processor per pixel —
//! exactly the CM Fortran layout. The invariant is *corner-resident*
//! state: a pixel holds valid `(level, stats)` iff it is the top-left
//! corner of a current square; all other pixels hold the `DEAD` level.
//!
//! Iteration `k` (block side `2^k`, child offset `d = 2^(k-1)`):
//!
//! 1. NEWS-shift the corner fields by `(-d, 0)`, `(0, -d)`, `(-d, -d)` so
//!    each candidate block corner sees its three sibling children;
//! 2. a corner coalesces when it is `2^k`-aligned, the block fits in the
//!    image, all four children are whole level-`k−1` squares, and the
//!    combined statistics satisfy the criterion;
//! 3. coalesced corners fold their children's statistics and take level
//!    `k`; the three consumed child corners go `DEAD` (their consumption
//!    flag arrives by the opposite shifts);
//! 4. a global OR tells the front end whether to iterate again — the same
//!    reduction the CM-2 would run, and the reason a split iteration costs
//!    `O(N²/P + log P)`.

use crate::fields::{PixelStats, DEAD};
use cm_sim::{Field, Machine, Shape};
use rg_core::config::{mean_satisfies, range_satisfies};
use rg_core::{Config, Criterion};
use rg_imaging::{Image, Intensity};

/// Outcome of the data-parallel split stage (still machine-resident).
pub struct DpSplit {
    /// Per-pixel square level; `DEAD` for non-corner pixels.
    pub level: Field<u32>,
    /// Corner-resident statistics.
    pub stats: PixelStats,
    /// Productive iterations.
    pub iterations: u32,
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
}

/// Runs the split stage on the machine.
pub fn split_dp<P: Intensity>(m: &Machine, img: &Image<P>, config: &Config) -> DpSplit {
    let (w, h) = (img.width(), img.height());
    let shape = Shape::two_d(w, h);

    // Load the frame buffer into fields (one elementwise op to convert).
    let raw = Field::from_vec(shape, img.pixels().iter().map(|p| p.to_u32()).collect());
    let mut stats = PixelStats {
        min: raw.clone(),
        max: raw.clone(),
        sum: m.map(&raw, |v| v as u64),
        cnt: Field::constant(shape, 1u64),
    };
    let mut level: Field<u32> = Field::constant(shape, 0);

    // Coordinate fields for alignment / bounds tests.
    let idx = m.iota(shape);
    let xs = m.map(&idx, |i| i % w as u32);
    let ys = m.map(&idx, |i| i / w as u32);

    let max_k = {
        let lim = w.min(h);
        let natural = if lim.is_power_of_two() {
            lim.trailing_zeros() as usize
        } else {
            (lim.next_power_of_two().trailing_zeros() - 1) as usize
        };
        config
            .max_square_log2
            .map(|c| (c as usize).min(natural))
            .unwrap_or(natural)
    };

    let crit = config.criterion;
    let t = config.threshold;
    let mut iterations = 0u32;

    for k in 1..=max_k {
        let d = 1isize << (k - 1);
        let side = 1u32 << k;

        // Sibling views: east, south, south-east child corners.
        let lvl_e = m.shift2d(&level, -d, 0, DEAD);
        let lvl_s = m.shift2d(&level, 0, -d, DEAD);
        let lvl_se = m.shift2d(&level, -d, -d, DEAD);
        let st_e = stats.shifted(m, -d, 0);
        let st_s = stats.shifted(m, 0, -d);
        let st_se = stats.shifted(m, -d, -d);

        // Alignment and in-image bounds.
        let child = k as u32 - 1;
        let aligned = m.zip(&xs, &ys, move |x, y| x % side == 0 && y % side == 0);
        let fits = m.zip(&xs, &ys, move |x, y| {
            x + side <= w as u32 && y + side <= h as u32
        });
        let kids_whole = {
            let own = m.map(&level, move |l| l == child);
            let e = m.map(&lvl_e, move |l| l == child);
            let s = m.map(&lvl_s, move |l| l == child);
            let se = m.map(&lvl_se, move |l| l == child);
            let a = m.zip(&own, &e, |p, q| p && q);
            let b = m.zip(&s, &se, |p, q| p && q);
            m.zip(&a, &b, |p, q| p && q)
        };

        // Homogeneity of the combined block.
        let homog = homogeneous4(m, crit, t, &stats, &st_e, &st_s, &st_se);

        let pre = m.zip(&aligned, &fits, |a, b| a && b);
        let pre = m.zip(&pre, &kids_whole, |a, b| a && b);
        let can = m.zip(&pre, &homog, |a, b| a && b);

        if !m.any(&can) {
            break;
        }
        iterations += 1;

        // Fold statistics and bump the level where coalescing.
        stats.fold_where(m, &can, &st_e);
        stats.fold_where(m, &can, &st_s);
        stats.fold_where(m, &can, &st_se);
        let bumped = Field::constant(shape, k as u32);
        m.update_where(&mut level, &can, &bumped, |_, new| new);

        // Kill the three consumed child corners: the coalesce flag flows
        // back by the opposite shifts.
        let kill_e = m.shift2d(&can, d, 0, false);
        let kill_s = m.shift2d(&can, 0, d, false);
        let kill_se = m.shift2d(&can, d, d, false);
        let kill = m.zip3(&kill_e, &kill_s, &kill_se, |a, b, c| a || b || c);
        let dead = Field::constant(shape, DEAD);
        m.update_where(&mut level, &kill, &dead, |_, d| d);
    }

    DpSplit {
        level,
        stats,
        iterations,
        width: w,
        height: h,
    }
}

/// Criterion test over a block's four children (all fields corner-aligned
/// at the candidate block's own corner).
fn homogeneous4(
    m: &Machine,
    crit: Criterion,
    t: u32,
    own: &PixelStats,
    e: &PixelStats,
    s: &PixelStats,
    se: &PixelStats,
) -> Field<bool> {
    match crit {
        Criterion::PixelRange => {
            // Pooled extrema + range test through the shared scalar
            // primitive (the same one the packed host split uses).
            let min1 = m.zip(&own.min, &e.min, u32::min);
            let min2 = m.zip(&s.min, &se.min, u32::min);
            let mn = m.zip(&min1, &min2, u32::min);
            let max1 = m.zip(&own.max, &e.max, u32::max);
            let max2 = m.zip(&s.max, &se.max, u32::max);
            let mx = m.zip(&max1, &max2, u32::max);
            m.zip(&mn, &mx, move |lo, hi| range_satisfies(lo, hi, t))
        }
        Criterion::MeanDifference => {
            // Exact pairwise mean test via the shared cross-multiplication
            // kernel, matching the host engine's `combine_ok` bit for bit.
            let packed: Vec<Field<(u64, u64)>> = [own, e, s, se]
                .iter()
                .map(|st| m.zip(&st.sum, &st.cnt, |s, c| (s, c)))
                .collect();
            let mut ok = Field::constant(own.min.shape(), true);
            for i in 0..4 {
                for j in i + 1..4 {
                    let close = m.zip(&packed[i], &packed[j], move |a, b| {
                        // Dead corners (cnt 0) are excluded by kids_whole;
                        // accept vacuously to avoid div-by-zero concerns.
                        if a.1 == 0 || b.1 == 0 {
                            return true;
                        }
                        mean_satisfies(a.0, a.1, b.0, b.1, t)
                    });
                    ok = m.zip(&ok, &close, |a, b| a && b);
                }
            }
            ok
        }
    }
}
