//! The retained pre-optimisation split implementation: the differential
//! oracle for the packed engine, [`crate::split::split`], and the baseline of
//! the `bench_record split` suite.
//!
//! This is the original layout, kept verbatim on purpose: an
//! `Option<RegionStats>` pyramid and `Vec<bool>` `is_square` levels, both
//! padded to the enclosing power-of-two square
//! (`next_power_of_two(max(w, h))²`), with a branchy scalar per-block
//! coalesce test. Do **not** optimise it — its entire value is being the
//! simple, obviously-correct program the word-parallel engine must match
//! bit for bit (`prop_split_packed.rs`) and be measured against
//! (`BENCH_split.json`).

use crate::config::{Config, RegionStats};
use crate::split::{SplitMetrics, SplitResult, Square};
use rg_imaging::{Image, Intensity};

/// Runs the original (padded, Option-pyramid) split stage sequentially.
///
/// Produces output bit-identical to [`crate::split::split`] — squares,
/// stats, `square_of`, `iterations` — with its own [`SplitMetrics`]: here
/// `words_tested` counts *scalar block probes* (one per candidate block)
/// and `cells_folded` counts padded pyramid cells written, so the two
/// engines' counters quantify the work the packing saves.
pub fn split_reference<P: Intensity>(img: &Image<P>, config: &Config) -> SplitResult<P> {
    let (w, h) = (img.width(), img.height());
    let side = w.max(h).next_power_of_two();
    let top_possible = side.trailing_zeros() as usize;
    let cap = config
        .max_square_log2
        .map(|m| m as usize)
        .unwrap_or(top_possible)
        .min(top_possible);
    let mut metrics = SplitMetrics::default();

    // Stats pyramid over the padded square, every level up to the cap.
    let mut levels: Vec<Vec<Option<RegionStats<P>>>> = Vec::with_capacity(cap + 1);
    {
        let mut base = vec![None; side * side];
        for y in 0..h {
            for x in 0..w {
                base[y * side + x] = Some(RegionStats::of_pixel(img.get(x, y)));
            }
        }
        metrics.cells_folded += (side * side) as u64;
        metrics.levels_built += 1;
        levels.push(base);
    }
    for k in 1..=cap {
        let child_side = side >> (k - 1);
        let this_side = side >> k;
        let mut cur = vec![None; this_side * this_side];
        let child = &levels[k - 1];
        for by in 0..this_side {
            for bx in 0..this_side {
                let mut acc: Option<RegionStats<P>> = None;
                for (dy, dx) in [(0usize, 0usize), (0, 1), (1, 0), (1, 1)] {
                    if let Some(c) = child[(2 * by + dy) * child_side + (2 * bx + dx)] {
                        acc = Some(match acc {
                            None => c,
                            Some(a) => a.fold(c),
                        });
                    }
                }
                cur[by * this_side + bx] = acc;
            }
        }
        metrics.cells_folded += (this_side * this_side) as u64;
        metrics.levels_built += 1;
        levels.push(cur);
    }

    // is_square[k]: bool map over the padded level-k block grid; level-0
    // squares are exactly the real pixels.
    let mut is_square: Vec<Vec<bool>> = Vec::with_capacity(cap + 1);
    {
        let mut l0 = vec![false; side * side];
        for y in 0..h {
            for cell in &mut l0[y * side..y * side + w] {
                *cell = true;
            }
        }
        is_square.push(l0);
    }

    let mut iterations = 0u32;
    let mut top = 0usize;
    for k in 1..=cap {
        let this_side = side >> k;
        let child_side = side >> (k - 1);
        let child_stats = &levels[k - 1];
        let child_sq = &is_square[k - 1];
        let b = 1usize << k;
        let mut cur = vec![false; this_side * this_side];
        let mut any = false;
        for by in 0..this_side {
            'blocks: for bx in 0..this_side {
                // The block must lie wholly inside the image...
                if (bx + 1) * b > w || (by + 1) * b > h {
                    continue;
                }
                // ...its four children must currently be whole squares...
                let mut kids = [RegionStats::of_pixel(P::MIN_VALUE); 4];
                for (i, (dy, dx)) in [(0usize, 0usize), (0, 1), (1, 0), (1, 1)]
                    .into_iter()
                    .enumerate()
                {
                    let ci = (2 * by + dy) * child_side + (2 * bx + dx);
                    if !child_sq[ci] {
                        continue 'blocks;
                    }
                    kids[i] = child_stats[ci].expect("whole child square has stats");
                }
                // ...and the combination must be homogeneous.
                if config.criterion.combine_ok(&kids, config.threshold) {
                    cur[by * this_side + bx] = true;
                    any = true;
                }
            }
        }
        metrics.words_tested += (this_side * this_side) as u64;
        is_square.push(cur);
        top = k;
        if any {
            iterations += 1;
        } else {
            break;
        }
    }
    metrics.productive_levels = iterations;

    // Extract maximal squares, top-down over the padded grid.
    let mut squares = Vec::new();
    let top_grid = side >> top;
    let mut stack = Vec::new();
    for by in (0..top_grid).rev() {
        for bx in (0..top_grid).rev() {
            stack.push((top, bx, by));
        }
    }
    while let Some((k, bx, by)) = stack.pop() {
        let b = 1usize << k;
        let (x0, y0) = (bx * b, by * b);
        if x0 >= w || y0 >= h {
            continue; // block entirely in the padding
        }
        let this_side = side >> k;
        if is_square[k][by * this_side + bx] {
            squares.push(Square {
                x: x0 as u32,
                y: y0 as u32,
                log2: k as u8,
            });
        } else if k > 0 {
            for (dy, dx) in [(1usize, 1usize), (1, 0), (0, 1), (0, 0)] {
                stack.push((k - 1, 2 * bx + dx, 2 * by + dy));
            }
        }
    }
    squares.sort_unstable_by_key(|s| (s.y, s.x));

    let mut stats = Vec::with_capacity(squares.len());
    let mut square_of = vec![u32::MAX; w * h];
    for (i, s) in squares.iter().enumerate() {
        let k = s.log2 as usize;
        let this_side = side >> k;
        let st = levels[k][(s.y as usize >> k) * this_side + (s.x as usize >> k)]
            .expect("emitted square has stats");
        stats.push(st);
        for y in s.y as usize..s.y as usize + s.side() as usize {
            for cell in
                &mut square_of[y * w + s.x as usize..y * w + s.x as usize + s.side() as usize]
            {
                *cell = i as u32;
            }
        }
    }
    debug_assert!(square_of.iter().all(|&q| q != u32::MAX));

    SplitResult {
        squares,
        stats,
        square_of,
        iterations,
        width: w,
        height: h,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::split;
    use rg_imaging::synth;

    #[test]
    fn reference_matches_packed_on_fixed_scenes() {
        let images = [
            synth::figure1_image(),
            synth::nested_rects(64),
            synth::random_rects(96, 64, 10, 2),
            synth::checkerboard(8, 1, 0, 200),
        ];
        for img in &images {
            for t in [0u32, 3, 10, 40] {
                let cfg = Config::with_threshold(t);
                let a = split_reference(img, &cfg);
                let b = split(img, &cfg);
                assert_eq!(a.squares, b.squares);
                assert_eq!(a.stats, b.stats);
                assert_eq!(a.square_of, b.square_of);
                assert_eq!(a.iterations, b.iterations);
            }
        }
    }

    #[test]
    fn reference_counters_dominate_packed() {
        // The whole point of the packing: on the same scene the reference
        // path folds more (padded) cells and issues far more (scalar) test
        // ops than the packed engine's word probes.
        let img = synth::random_rects(96, 64, 10, 5);
        let cfg = Config::with_threshold(10);
        let r = split_reference(&img, &cfg);
        let p = split(&img, &cfg);
        assert!(r.metrics.cells_folded > p.metrics.cells_folded);
        assert!(r.metrics.words_tested > p.metrics.words_tested);
    }
}
