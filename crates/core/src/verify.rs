//! Segmentation validity checking.
//!
//! A segmentation produced by any engine must satisfy three invariants:
//!
//! 1. **Connectivity** — every region is one connected component under the
//!    configured adjacency (regions grow only by merging neighbours);
//! 2. **Homogeneity** — every region satisfies the criterion on its own
//!    (for pixel range: `max − min ≤ T`; vacuous for the mean-difference
//!    extension, which constrains pairs, not single regions);
//! 3. **Maximality** — no two adjacent regions could still merge (the merge
//!    stage ran until no active edges remained).
//!
//! These are exactly the postconditions of the paper's algorithm, and every
//! property test funnels through [`verify_segmentation`].

use crate::config::{Config, Connectivity, Criterion, RegionStats};
use crate::engine::Segmentation;
use crate::graph::adjacent_label_pairs;
use rg_dsu::DisjointSets;
use rg_imaging::{Image, Intensity};

/// A violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The label buffer is not dense `0..num_regions`, or sizes disagree.
    MalformedLabels {
        /// Explanation.
        detail: String,
    },
    /// A region's pixels form more than one connected component.
    NotConnected {
        /// Offending region label.
        label: u32,
        /// Number of components found.
        components: usize,
    },
    /// A region violates the homogeneity criterion.
    NotHomogeneous {
        /// Offending region label.
        label: u32,
        /// Its intensity range.
        range: u32,
    },
    /// Two adjacent regions could still merge.
    MergeableNeighbors {
        /// First region label.
        a: u32,
        /// Second region label.
        b: u32,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::MalformedLabels { detail } => write!(f, "malformed labels: {detail}"),
            Violation::NotConnected { label, components } => {
                write!(f, "region {label} splits into {components} components")
            }
            Violation::NotHomogeneous { label, range } => {
                write!(f, "region {label} has range {range} above threshold")
            }
            Violation::MergeableNeighbors { a, b } => {
                write!(f, "regions {a} and {b} are adjacent and still mergeable")
            }
        }
    }
}

/// Checks all invariants; returns every violation found (empty = valid).
pub fn verify_segmentation<P: Intensity>(
    img: &Image<P>,
    seg: &Segmentation,
    config: &Config,
) -> Result<(), Vec<Violation>> {
    let mut violations = Vec::new();
    let (w, h) = (img.width(), img.height());

    if seg.labels.len() != w * h || seg.width != w || seg.height != h {
        violations.push(Violation::MalformedLabels {
            detail: format!(
                "labels len {} vs image {}x{} (seg says {}x{})",
                seg.labels.len(),
                w,
                h,
                seg.width,
                seg.height
            ),
        });
        return Err(violations);
    }
    if let Some(&max) = seg.labels.iter().max() {
        if max as usize + 1 != seg.num_regions {
            violations.push(Violation::MalformedLabels {
                detail: format!("max label {} vs num_regions {}", max, seg.num_regions),
            });
            // The remaining checks index per-label arrays; bail out.
            return Err(violations);
        }
    }

    // Per-region stats.
    let mut stats: Vec<Option<RegionStats<P>>> = vec![None; seg.num_regions];
    for (i, &l) in seg.labels.iter().enumerate() {
        let p = img.pixels()[i];
        let s = RegionStats::of_pixel(p);
        let slot = &mut stats[l as usize];
        *slot = Some(match *slot {
            None => s,
            Some(acc) => acc.fold(s),
        });
    }

    // Homogeneity (pixel-range criterion only; mean-difference constrains
    // pairs rather than single regions).
    if config.criterion == Criterion::PixelRange {
        for (label, s) in stats.iter().enumerate() {
            if let Some(s) = s {
                if s.range() > config.threshold {
                    violations.push(Violation::NotHomogeneous {
                        label: label as u32,
                        range: s.range(),
                    });
                }
            }
        }
    }

    // Connectivity: count components per label with one sweep.
    let components = count_components(&seg.labels, w, h, config.connectivity, seg.num_regions);
    for (label, &c) in components.iter().enumerate() {
        if c > 1 {
            violations.push(Violation::NotConnected {
                label: label as u32,
                components: c,
            });
        }
    }

    // Maximality.
    for (a, b) in adjacent_label_pairs(&seg.labels, w, h, config.connectivity) {
        if let (Some(sa), Some(sb)) = (stats[a as usize], stats[b as usize]) {
            if config.criterion.satisfies(&sa, &sb, config.threshold) {
                violations.push(Violation::MergeableNeighbors { a, b });
            }
        }
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// Number of connected components of each label value.
///
/// Implemented as a union–find pass rather than a per-component flood fill:
/// same-label neighbouring pixels are unioned, then a single batched
/// [`DisjointSets::resolve_all`] sweep resolves every pixel to its root in
/// one cache-friendly pass (no recursion, no visit stack). Components per
/// label are then counted by tallying distinct roots.
fn count_components(
    labels: &[u32],
    w: usize,
    h: usize,
    connectivity: Connectivity,
    num_regions: usize,
) -> Vec<usize> {
    let mut dsu = DisjointSets::new(labels.len());
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            let l = labels[i];
            // Forward-only scan: each 4/8-neighbour pair is visited once.
            if x + 1 < w && labels[i + 1] == l {
                dsu.union_min_rep(i as u32, (i + 1) as u32);
            }
            if y + 1 < h {
                let below = i + w;
                if labels[below] == l {
                    dsu.union_min_rep(i as u32, below as u32);
                }
                if connectivity == Connectivity::Eight {
                    if x > 0 && labels[below - 1] == l {
                        dsu.union_min_rep(i as u32, (below - 1) as u32);
                    }
                    if x + 1 < w && labels[below + 1] == l {
                        dsu.union_min_rep(i as u32, (below + 1) as u32);
                    }
                }
            }
        }
    }
    let roots = dsu.resolve_all();
    let mut counts = vec![0usize; num_regions];
    for (i, (&root, &l)) in roots.iter().zip(labels).enumerate() {
        if root as usize == i {
            counts[l as usize] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TieBreak;
    use crate::engine::segment;
    use rg_imaging::synth;

    #[test]
    fn valid_segmentations_pass() {
        for pi in [
            synth::PaperImage::Image1,
            synth::PaperImage::Image2,
            synth::PaperImage::Image3,
        ] {
            let img = pi.generate();
            let cfg = Config::with_threshold(10);
            let seg = segment(&img, &cfg);
            verify_segmentation(&img, &seg, &cfg).unwrap_or_else(|v| {
                panic!("{pi:?}: {} violations, first: {}", v.len(), v[0]);
            });
        }
    }

    #[test]
    fn random_scenes_pass_for_all_policies() {
        for seed in 0..3 {
            let img = synth::random_rects(48, 48, 8, seed);
            for tie in [
                TieBreak::SmallestId,
                TieBreak::LargestId,
                TieBreak::Random { seed: 77 },
            ] {
                let cfg = Config::with_threshold(20).tie_break(tie);
                let seg = segment(&img, &cfg);
                verify_segmentation(&img, &seg, &cfg)
                    .unwrap_or_else(|v| panic!("seed {seed} {tie:?}: {}", v[0]));
            }
        }
    }

    #[test]
    fn detects_mergeable_neighbors() {
        // A hand-made bad segmentation: uniform image split into two labels.
        let img: rg_imaging::Image<u8> = rg_imaging::Image::new(4, 2, 9);
        let seg = Segmentation {
            labels: vec![0, 0, 1, 1, 0, 0, 1, 1],
            num_regions: 2,
            num_squares: 8,
            split_iterations: 0,
            merge_iterations: 0,
            merges_per_iteration: vec![],
            width: 4,
            height: 2,
        };
        let cfg = Config::with_threshold(5);
        let err = verify_segmentation(&img, &seg, &cfg).unwrap_err();
        assert!(err
            .iter()
            .any(|v| matches!(v, Violation::MergeableNeighbors { a: 0, b: 1 })));
    }

    #[test]
    fn detects_disconnected_region() {
        let img: rg_imaging::Image<u8> = rg_imaging::Image::from_vec(3, 1, vec![0, 200, 0]);
        let seg = Segmentation {
            labels: vec![0, 1, 0],
            num_regions: 2,
            num_squares: 3,
            split_iterations: 0,
            merge_iterations: 0,
            merges_per_iteration: vec![],
            width: 3,
            height: 1,
        };
        let cfg = Config::with_threshold(5);
        let err = verify_segmentation(&img, &seg, &cfg).unwrap_err();
        assert!(err.iter().any(|v| matches!(
            v,
            Violation::NotConnected {
                label: 0,
                components: 2
            }
        )));
    }

    #[test]
    fn detects_inhomogeneous_region() {
        let img: rg_imaging::Image<u8> = rg_imaging::Image::from_vec(2, 1, vec![0, 200]);
        let seg = Segmentation {
            labels: vec![0, 0],
            num_regions: 1,
            num_squares: 2,
            split_iterations: 0,
            merge_iterations: 0,
            merges_per_iteration: vec![],
            width: 2,
            height: 1,
        };
        let cfg = Config::with_threshold(5);
        let err = verify_segmentation(&img, &seg, &cfg).unwrap_err();
        assert!(err.iter().any(|v| matches!(
            v,
            Violation::NotHomogeneous {
                label: 0,
                range: 200
            }
        )));
    }

    #[test]
    fn detects_malformed_labels() {
        let img: rg_imaging::Image<u8> = rg_imaging::Image::new(2, 1, 0);
        let seg = Segmentation {
            labels: vec![0, 5],
            num_regions: 2,
            num_squares: 2,
            split_iterations: 0,
            merge_iterations: 0,
            merges_per_iteration: vec![],
            width: 2,
            height: 1,
        };
        let cfg = Config::with_threshold(5);
        let err = verify_segmentation(&img, &seg, &cfg).unwrap_err();
        assert!(err
            .iter()
            .any(|v| matches!(v, Violation::MalformedLabels { .. })));
    }

    #[test]
    fn eight_connectivity_verifies() {
        let img = synth::circle_collection(64);
        let cfg = Config::with_threshold(10).connectivity(Connectivity::Eight);
        let seg = segment(&img, &cfg);
        verify_segmentation(&img, &seg, &cfg).unwrap();
    }
}
