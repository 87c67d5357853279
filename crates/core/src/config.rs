//! Configuration types shared by every engine: the homogeneity criterion,
//! tie-breaking policy, connectivity, and per-region statistics.

use rg_imaging::Intensity;

/// Pixel-adjacency convention used when two regions count as "neighbouring".
///
/// The paper uses 4-connectivity (regions share a boundary *segment*);
/// 8-connectivity (corner touching counts) is provided as an extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Connectivity {
    /// Regions are adjacent iff they share a horizontal or vertical pixel
    /// boundary (the paper's convention).
    #[default]
    Four,
    /// Diagonal corner adjacency also counts.
    Eight,
}

/// How a tie between equally good merge candidates is broken.
///
/// The paper's key performance device: *"In case of a tie during the merge
/// stage, the tie is broken by selecting a neighbor at random instead of
/// selecting the neighbor with the smallest (largest) ID, since the latter
/// approach imposes a serialization on the order of the merges."*
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieBreak {
    /// Prefer the tied neighbour with the smallest region ID (the
    /// serialising baseline; used in the paper's Figure 2 walkthrough).
    SmallestId,
    /// Prefer the tied neighbour with the largest region ID.
    LargestId,
    /// Pick uniformly at random among tied neighbours, re-randomised each
    /// merge iteration. Deterministic given the seed: the per-candidate
    /// priority is a hash of `(seed, iteration, vertex, neighbour)`, so the
    /// result is independent of evaluation order and identical across the
    /// sequential, data-parallel, and message-passing engines.
    Random {
        /// RNG seed.
        seed: u64,
    },
}

impl Default for TieBreak {
    fn default() -> Self {
        TieBreak::Random { seed: 0x5EED }
    }
}

/// The homogeneity criterion governing both stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Criterion {
    /// *Pixel range*: a merge is allowed iff
    /// `max(region ∪ region') − min(region ∪ region') ≤ T`.
    /// This is the criterion the paper evaluates.
    #[default]
    PixelRange,
    /// *Mean difference* (extension): a merge is allowed iff the region
    /// means differ by at most `T` grey levels. For the split stage a block
    /// coalesces iff the four child means pairwise differ by at most `T`.
    MeanDifference,
}

/// Running statistics of a region, maintained across merges.
///
/// `min`/`max` drive the pixel-range criterion; `sum`/`count` drive the
/// mean-difference extension. Folding two regions' stats is O(1), which is
/// what makes the flat-array merge update cheap on the CM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionStats<P: Intensity> {
    /// Minimum intensity in the region.
    pub min: P,
    /// Maximum intensity in the region.
    pub max: P,
    /// Sum of intensities (for the mean-difference extension).
    pub sum: u64,
    /// Number of pixels.
    pub count: u64,
}

impl<P: Intensity> RegionStats<P> {
    /// Stats of a single pixel.
    #[inline]
    pub fn of_pixel(p: P) -> Self {
        Self {
            min: p,
            max: p,
            sum: p.to_u32() as u64,
            count: 1,
        }
    }

    /// Stats of the union of two regions.
    #[inline]
    pub fn fold(self, other: Self) -> Self {
        Self {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
            sum: self.sum + other.sum,
            count: self.count + other.count,
        }
    }

    /// Intensity range (max − min) widened to u32.
    #[inline]
    pub fn range(&self) -> u32 {
        self.max.to_u32() - self.min.to_u32()
    }
}

/// Fixed-point scale used by [`Criterion`] weights (16 fractional bits).
pub const WEIGHT_FP_SHIFT: u32 = 16;

/// Pixel-range edge weight in 16.16 fixed point from raw union bounds.
///
/// Scalar kernel shared by every engine: the host [`crate::merge::Merger`],
/// the data-parallel field code (`rg-datapar`), and the
/// message-passing local merges (`rg-msgpass`) all compute weights through
/// these primitives so a change lands everywhere at once.
#[inline]
pub fn range_weight_fp16(union_min: u32, union_max: u32) -> u64 {
    ((union_max - union_min) as u64) << WEIGHT_FP_SHIFT
}

/// `true` iff a pixel-range union with the given bounds satisfies `t`.
#[inline]
pub fn range_satisfies(union_min: u32, union_max: u32, t: u32) -> bool {
    union_max - union_min <= t
}

/// Mean-difference edge weight in 16.16 fixed point from raw sums/counts.
/// Exact in `u128`; zero counts are treated as an infinite-mean sentinel by
/// clamping the denominator (callers de-activate such edges anyway).
#[inline]
pub fn mean_weight_fp16(sum_a: u64, cnt_a: u64, sum_b: u64, cnt_b: u64) -> u64 {
    let num = (sum_a as u128 * cnt_b as u128).abs_diff(sum_b as u128 * cnt_a as u128);
    let den = (cnt_a as u128 * cnt_b as u128).max(1);
    ((num << WEIGHT_FP_SHIFT) / den) as u64
}

/// `true` iff two regions' means differ by at most `t` (exact; `false`
/// when either region is empty).
#[inline]
pub fn mean_satisfies(sum_a: u64, cnt_a: u64, sum_b: u64, cnt_b: u64, t: u32) -> bool {
    if cnt_a == 0 || cnt_b == 0 {
        return false;
    }
    let num = (sum_a as u128 * cnt_b as u128).abs_diff(sum_b as u128 * cnt_a as u128);
    num <= t as u128 * cnt_a as u128 * cnt_b as u128
}

impl Criterion {
    /// Edge weight between two regions, in 16.16 fixed-point grey levels.
    ///
    /// For [`Criterion::PixelRange`] this is the paper's definition: *"the
    /// weight of the edge e is the difference between the maximum and
    /// minimum pixel values in the union of the two regions"*.
    #[inline]
    pub fn weight<P: Intensity>(&self, a: &RegionStats<P>, b: &RegionStats<P>) -> u64 {
        match self {
            Criterion::PixelRange => {
                range_weight_fp16(a.min.min(b.min).to_u32(), a.max.max(b.max).to_u32())
            }
            Criterion::MeanDifference => mean_weight_fp16(a.sum, a.count, b.sum, b.count),
        }
    }

    /// `true` iff merging the two regions satisfies the criterion with
    /// threshold `t` grey levels. Exact (no fixed-point rounding).
    #[inline]
    pub fn satisfies<P: Intensity>(&self, a: &RegionStats<P>, b: &RegionStats<P>, t: u32) -> bool {
        match self {
            Criterion::PixelRange => {
                range_satisfies(a.min.min(b.min).to_u32(), a.max.max(b.max).to_u32(), t)
            }
            Criterion::MeanDifference => mean_satisfies(a.sum, a.count, b.sum, b.count, t),
        }
    }

    /// `true` iff a block whose four (or fewer) child squares have the
    /// given stats may coalesce in the split stage.
    #[inline]
    pub fn combine_ok<P: Intensity>(&self, children: &[RegionStats<P>], t: u32) -> bool {
        match self {
            Criterion::PixelRange => {
                let mut it = children.iter();
                let first = match it.next() {
                    Some(f) => *f,
                    None => return false,
                };
                let total = it.fold(first, |acc, c| acc.fold(*c));
                total.range() <= t
            }
            Criterion::MeanDifference => {
                for i in 0..children.len() {
                    for j in i + 1..children.len() {
                        if !self.satisfies(&children[i], &children[j], t) {
                            return false;
                        }
                    }
                }
                true
            }
        }
    }
}

/// Full configuration of a split-and-merge run.
///
/// Every field shapes the result; none picks an implementation. All
/// engines, and the merge oracle [`crate::merge_ref::merge_reference`],
/// take the same `Config` and must produce the same segmentation from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Homogeneity threshold `T`, in grey levels.
    pub threshold: u32,
    /// Tie-breaking policy for the merge stage.
    pub tie_break: TieBreak,
    /// Region adjacency convention.
    pub connectivity: Connectivity,
    /// Homogeneity criterion.
    pub criterion: Criterion,
    /// Optional cap on the split stage: squares never grow beyond
    /// `2^max_square_log2` pixels on a side. `Some(0)` disables the split
    /// stage entirely (every pixel is a region — the merge-only baseline);
    /// `None` lets squares grow to the full image.
    ///
    /// The paper-table experiments set this to the largest square that fits
    /// a CM-5 node's sub-image, which also makes the data-parallel and
    /// message-passing implementations produce identical split results.
    pub max_square_log2: Option<u8>,
    /// With [`TieBreak::Random`], the number of consecutive zero-merge
    /// iterations tolerated before falling back to [`TieBreak::SmallestId`]
    /// for one iteration to guarantee progress.
    pub max_stall: u32,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            threshold: 10,
            tie_break: TieBreak::default(),
            connectivity: Connectivity::Four,
            criterion: Criterion::PixelRange,
            max_square_log2: None,
            max_stall: 8,
        }
    }
}

impl Config {
    /// Convenience constructor with everything defaulted except the
    /// threshold.
    pub fn with_threshold(threshold: u32) -> Self {
        Self {
            threshold,
            ..Self::default()
        }
    }

    /// Builder-style setter for the tie-break policy.
    pub fn tie_break(mut self, tb: TieBreak) -> Self {
        self.tie_break = tb;
        self
    }

    /// Builder-style setter for connectivity.
    pub fn connectivity(mut self, c: Connectivity) -> Self {
        self.connectivity = c;
        self
    }

    /// Builder-style setter for the criterion.
    pub fn criterion(mut self, c: Criterion) -> Self {
        self.criterion = c;
        self
    }

    /// Builder-style setter for the split-square cap.
    pub fn max_square_log2(mut self, m: Option<u8>) -> Self {
        self.max_square_log2 = m;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(min: u8, max: u8, sum: u64, count: u64) -> RegionStats<u8> {
        RegionStats {
            min,
            max,
            sum,
            count,
        }
    }

    #[test]
    fn stats_fold() {
        let a = RegionStats::of_pixel(10u8);
        let b = RegionStats::of_pixel(20u8);
        let c = a.fold(b);
        assert_eq!(c.min, 10);
        assert_eq!(c.max, 20);
        assert_eq!(c.sum, 30);
        assert_eq!(c.count, 2);
        assert_eq!(c.range(), 10);
    }

    #[test]
    fn pixel_range_weight_is_union_range() {
        let a = rs(5, 9, 0, 1);
        let b = rs(7, 12, 0, 1);
        let w = Criterion::PixelRange.weight(&a, &b);
        assert_eq!(w >> WEIGHT_FP_SHIFT, 7); // 12 - 5
        assert!(Criterion::PixelRange.satisfies(&a, &b, 7));
        assert!(!Criterion::PixelRange.satisfies(&a, &b, 6));
    }

    #[test]
    fn mean_difference_exact() {
        // Region a: pixels {10, 20} -> mean 15. Region b: {18} -> mean 18.
        let a = rs(10, 20, 30, 2);
        let b = rs(18, 18, 18, 1);
        assert!(Criterion::MeanDifference.satisfies(&a, &b, 3));
        assert!(!Criterion::MeanDifference.satisfies(&a, &b, 2));
        let w = Criterion::MeanDifference.weight(&a, &b);
        assert_eq!(w, 3 << WEIGHT_FP_SHIFT);
    }

    #[test]
    fn combine_ok_pixel_range() {
        let kids = [rs(5, 6, 0, 1), rs(6, 8, 0, 1), rs(7, 7, 0, 1)];
        assert!(Criterion::PixelRange.combine_ok(&kids, 3));
        assert!(!Criterion::PixelRange.combine_ok(&kids, 2));
        assert!(!Criterion::PixelRange.combine_ok::<u8>(&[], 100));
    }

    #[test]
    fn combine_ok_mean_pairwise() {
        let kids = [rs(0, 0, 10, 1), rs(0, 0, 12, 1), rs(0, 0, 14, 1)];
        // Pairwise mean diffs: 2, 2, 4.
        assert!(Criterion::MeanDifference.combine_ok(&kids, 4));
        assert!(!Criterion::MeanDifference.combine_ok(&kids, 3));
    }

    #[test]
    fn config_builders() {
        let c = Config::with_threshold(5)
            .tie_break(TieBreak::LargestId)
            .connectivity(Connectivity::Eight)
            .criterion(Criterion::MeanDifference)
            .max_square_log2(Some(4));
        assert_eq!(c.threshold, 5);
        assert_eq!(c.tie_break, TieBreak::LargestId);
        assert_eq!(c.connectivity, Connectivity::Eight);
        assert_eq!(c.criterion, Criterion::MeanDifference);
        assert_eq!(c.max_square_log2, Some(4));
    }

    #[test]
    fn scalar_primitives_match_stats_paths() {
        // The shared scalar kernels must agree with the RegionStats-based
        // entry points bit for bit — every engine leans on this.
        let a = rs(10, 20, 30, 2);
        let b = rs(18, 25, 43, 2);
        let lo = a.min.min(b.min) as u32;
        let hi = a.max.max(b.max) as u32;
        assert_eq!(
            Criterion::PixelRange.weight(&a, &b),
            range_weight_fp16(lo, hi)
        );
        for t in 0..32 {
            assert_eq!(
                Criterion::PixelRange.satisfies(&a, &b, t),
                range_satisfies(lo, hi, t)
            );
            assert_eq!(
                Criterion::MeanDifference.satisfies(&a, &b, t),
                mean_satisfies(a.sum, a.count, b.sum, b.count, t)
            );
        }
        assert_eq!(
            Criterion::MeanDifference.weight(&a, &b),
            mean_weight_fp16(a.sum, a.count, b.sum, b.count)
        );
        // Empty regions never satisfy the mean criterion.
        assert!(!mean_satisfies(0, 0, 10, 1, 255));
    }
}
