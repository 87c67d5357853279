//! Horowitz–Pavlidis directed split-and-merge (the paper's reference \[5\]).
//!
//! The 1974 original that the CM paper parallelises:
//!
//! 1. **Split** (top-down): starting from the whole image, recursively
//!    quadrisect any block violating the homogeneity criterion, down to
//!    single pixels. (The CM paper inverts this into a bottom-up coalesce;
//!    the resulting quadtree leaves are identical, which
//!    `tests/baseline_agreement.rs` asserts.)
//! 2. **Merge** (greedy, sequential): repeatedly scan the adjacent region
//!    pairs in deterministic (smaller-ID-first) order and merge the first
//!    pair that satisfies the criterion, until no pair does. One merge at
//!    a time — the serial baseline whose step count the parallel
//!    mutual-choice merge collapses by a factor of the average
//!    merges-per-iteration.

use rg_core::graph::adjacent_label_pairs;
use rg_core::labels::compact_first_appearance;
use rg_core::{Config, RegionStats};
use rg_dsu::DisjointSets;
use rg_imaging::{Image, Intensity};

/// A Horowitz–Pavlidis segmentation with its work counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HpSegmentation {
    /// Per-pixel compact region label.
    pub labels: Vec<u32>,
    /// Number of regions.
    pub num_regions: usize,
    /// Quadtree leaves produced by the top-down split.
    pub num_leaves: usize,
    /// Individual merge steps performed (one pair each — the quantity the
    /// parallel algorithm batches into iterations).
    pub merge_steps: usize,
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
}

/// Runs top-down split followed by greedy sequential merging.
pub fn split_and_merge<P: Intensity>(img: &Image<P>, config: &Config) -> HpSegmentation {
    let (w, h) = (img.width(), img.height());

    // ---- top-down split ---------------------------------------------------
    // Work on the enclosing power-of-two square; emit leaf blocks clipped
    // to the image.
    let side = w.max(h).next_power_of_two();
    let mut leaf_of = vec![u32::MAX; w * h];
    let mut stats: Vec<RegionStats<P>> = Vec::new();
    let mut stack = vec![(0usize, 0usize, side)];
    while let Some((x0, y0, s)) = stack.pop() {
        if x0 >= w || y0 >= h {
            continue;
        }
        let x1 = (x0 + s).min(w);
        let y1 = (y0 + s).min(h);
        // Block statistics over the clipped area.
        let mut acc = RegionStats::of_pixel(img.get(x0, y0));
        acc.count = 0;
        acc.sum = 0;
        let mut first = true;
        for y in y0..y1 {
            for x in x0..x1 {
                let p = RegionStats::of_pixel(img.get(x, y));
                acc = if first { p } else { acc.fold(p) };
                first = false;
            }
        }
        // A block is accepted when whole-in-image and homogeneous (the
        // criterion's single-region form), or when it is a single pixel.
        let whole = x0 + s <= w && y0 + s <= h;
        let homogeneous = config.criterion.combine_ok(&[acc], config.threshold);
        if s == 1 || (whole && homogeneous) {
            let id = stats.len() as u32;
            stats.push(acc);
            for y in y0..y1 {
                for cell in &mut leaf_of[y * w + x0..y * w + x1] {
                    *cell = id;
                }
            }
        } else {
            let half = s / 2;
            stack.push((x0, y0, half));
            stack.push((x0 + half, y0, half));
            stack.push((x0, y0 + half, half));
            stack.push((x0 + half, y0 + half, half));
        }
    }
    let num_leaves = stats.len();

    // ---- greedy sequential merge ------------------------------------------
    let mut dsu = DisjointSets::new(num_leaves);
    let mut pairs = adjacent_label_pairs(&leaf_of, w, h, config.connectivity);
    let mut merge_steps = 0usize;
    loop {
        let mut merged_any = false;
        // One scan pass: merge every pair that currently satisfies the
        // criterion (re-resolved through the union-find as we go).
        for &(a, b) in &pairs {
            let ra = dsu.find(a);
            let rb = dsu.find(b);
            if ra == rb {
                continue;
            }
            if config.criterion.satisfies(
                &stats[ra as usize],
                &stats[rb as usize],
                config.threshold,
            ) {
                let folded = stats[ra as usize].fold(stats[rb as usize]);
                dsu.union_min_rep(ra, rb);
                let rep = dsu.find(ra);
                stats[rep as usize] = folded;
                merge_steps += 1;
                merged_any = true;
            }
        }
        if !merged_any {
            break;
        }
        // Relabel and dedup the pair list between passes.
        for p in pairs.iter_mut() {
            let (a, b) = (dsu.find(p.0), dsu.find(p.1));
            *p = (a.min(b), a.max(b));
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs.retain(|&(a, b)| a != b);
    }

    let raw: Vec<u32> = leaf_of.iter().map(|&l| dsu.find(l)).collect();
    let (labels, num_regions) = compact_first_appearance(&raw);
    HpSegmentation {
        labels,
        num_regions,
        num_leaves,
        merge_steps,
        width: w,
        height: h,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rg_imaging::synth;

    #[test]
    fn figure1_leaves_match_bottom_up_split() {
        let img = synth::figure1_image();
        let cfg = Config::with_threshold(3);
        let hp = split_and_merge(&img, &cfg);
        let bu = rg_core::split(&img, &cfg);
        assert_eq!(hp.num_leaves, bu.num_squares());
        assert_eq!(hp.num_leaves, 7);
    }

    #[test]
    fn figure1_final_regions() {
        let img = synth::figure1_image();
        let hp = split_and_merge(&img, &Config::with_threshold(3));
        assert_eq!(hp.num_regions, 2);
        assert!(hp.merge_steps >= 5); // 7 leaves -> 2 regions
    }

    #[test]
    fn paper_images_region_counts() {
        for (pi, n) in [
            (synth::PaperImage::Image1, 2usize),
            (synth::PaperImage::Image2, 7),
        ] {
            let img = pi.generate();
            let hp = split_and_merge(&img, &Config::with_threshold(10));
            assert_eq!(hp.num_regions, n, "{pi:?}");
        }
    }

    #[test]
    fn merge_steps_equal_leaves_minus_regions() {
        let img = synth::random_rects(48, 48, 6, 11);
        let hp = split_and_merge(&img, &Config::with_threshold(25));
        assert_eq!(hp.merge_steps, hp.num_leaves - hp.num_regions);
    }

    #[test]
    fn uniform_image_single_leaf() {
        let img: Image<u8> = Image::new(16, 16, 3);
        let hp = split_and_merge(&img, &Config::with_threshold(0));
        assert_eq!(hp.num_leaves, 1);
        assert_eq!(hp.num_regions, 1);
        assert_eq!(hp.merge_steps, 0);
    }
}
