//! Merge traces and dendrograms: the hierarchical view of region merging.
//!
//! Every merge the engine performs fuses exactly two regions, so a full
//! run induces a binary merge forest over the initial squares — the same
//! structure Tilton's iterative parallel region growing (the paper's
//! reference \[8\]) exploits for data compression. Recording the events
//! costs O(R) and enables post-hoc analysis without re-running the
//! segmentation:
//!
//! * parallelism profiles (merges per iteration — the quantity the
//!   paper's random-tie-breaking claim is about);
//! * *weight cuts*: replaying only the merges whose union range stayed
//!   within a smaller threshold `w ≤ T` yields a coarser-to-finer family
//!   of partitions from a single run (an approximation of re-running at
//!   `w`, exact for flat-contrast scenes);
//! * region lineage (which squares compose a final region, and when they
//!   joined).

use rg_dsu::DisjointSets;

/// One pairwise merge performed by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeEvent {
    /// Merge iteration (0-based) in which the pair fused.
    pub iteration: u32,
    /// Surviving representative (smaller dense vertex index).
    pub winner: u32,
    /// Absorbed vertex (larger dense index).
    pub loser: u32,
    /// Edge weight at merge time, in 16.16 fixed-point grey levels (the
    /// union range under the pixel-range criterion).
    pub weight_fp16: u64,
}

/// The ordered record of every merge in a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeTrace {
    /// Events in iteration order, and by ascending winner within an
    /// iteration (the merges of one iteration are a matching, so their
    /// order carries no meaning of its own).
    pub events: Vec<MergeEvent>,
    /// Number of initial regions (dense vertices).
    pub num_vertices: usize,
}

impl MergeTrace {
    /// Creates an empty trace over `num_vertices` initial regions.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            events: Vec::new(),
            num_vertices,
        }
    }

    /// Number of merges recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` iff no merges happened.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Merges per iteration (zero-merge iterations that produced no event
    /// do not appear; pair with `Segmentation::merges_per_iteration` for
    /// the full profile).
    pub fn merges_per_iteration(&self) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = Vec::new();
        for e in &self.events {
            match out.last_mut() {
                Some((it, n)) if *it == e.iteration => *n += 1,
                _ => out.push((e.iteration, 1)),
            }
        }
        out
    }

    /// Region count after replaying every merge with
    /// `weight_fp16 ≤ (w << 16)` — the weight-cut family.
    pub fn regions_at_cut(&self, w: u32) -> usize {
        self.num_vertices - self.count_until(w)
    }

    /// Labels (representative per vertex, compacted by the caller if
    /// needed) after replaying the merges within the weight cut `w`.
    pub fn labels_at_cut(&self, w: u32) -> Vec<u32> {
        let mut dsu = DisjointSets::new(self.num_vertices);
        let limit = (w as u64) << 16;
        for e in &self.events {
            if e.weight_fp16 <= limit {
                dsu.union_min_rep(e.winner, e.loser);
            }
        }
        (0..self.num_vertices as u32).map(|v| dsu.find(v)).collect()
    }

    /// The "compression curve": for each distinct weight in the trace,
    /// the region count after admitting merges up to that weight,
    /// ascending. Useful for picking a threshold post hoc.
    pub fn compression_curve(&self) -> Vec<(u32, usize)> {
        let mut weights: Vec<u32> = self
            .events
            .iter()
            .map(|e| (e.weight_fp16 >> 16) as u32)
            .collect();
        weights.sort_unstable();
        weights.dedup();
        weights
            .into_iter()
            .map(|w| (w, self.regions_at_cut(w)))
            .collect()
    }

    /// The iteration at which vertex `v` was absorbed (`None` if it
    /// survived as a representative).
    pub fn absorbed_at(&self, v: u32) -> Option<u32> {
        self.events
            .iter()
            .find(|e| e.loser == v)
            .map(|e| e.iteration)
    }

    fn count_until(&self, w: u32) -> usize {
        let limit = (w as u64) << 16;
        // Merges admitted at cut w must still form a forest: a loser dies
        // exactly once globally, so simple counting suffices.
        self.events
            .iter()
            .filter(|e| e.weight_fp16 <= limit)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(iteration: u32, winner: u32, loser: u32, w: u64) -> MergeEvent {
        MergeEvent {
            iteration,
            winner,
            loser,
            weight_fp16: w << 16,
        }
    }

    #[test]
    fn merges_per_iteration_groups() {
        let t = MergeTrace {
            events: vec![ev(0, 0, 1, 1), ev(0, 2, 3, 1), ev(2, 0, 2, 4)],
            num_vertices: 4,
        };
        assert_eq!(t.merges_per_iteration(), vec![(0, 2), (2, 1)]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn cuts_partition_consistently() {
        let t = MergeTrace {
            events: vec![ev(0, 0, 1, 2), ev(0, 2, 3, 5), ev(1, 0, 2, 9)],
            num_vertices: 4,
        };
        assert_eq!(t.regions_at_cut(0), 4);
        assert_eq!(t.regions_at_cut(2), 3);
        assert_eq!(t.regions_at_cut(5), 2);
        assert_eq!(t.regions_at_cut(9), 1);
        let l5 = t.labels_at_cut(5);
        assert_eq!(l5, vec![0, 0, 2, 2]);
        let l9 = t.labels_at_cut(9);
        assert_eq!(l9, vec![0, 0, 0, 0]);
    }

    #[test]
    fn compression_curve_monotone() {
        let t = MergeTrace {
            events: vec![ev(0, 0, 1, 2), ev(0, 2, 3, 5), ev(1, 0, 2, 9)],
            num_vertices: 4,
        };
        let curve = t.compression_curve();
        assert_eq!(curve, vec![(2, 3), (5, 2), (9, 1)]);
        for w in curve.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn absorbed_at_lookup() {
        let t = MergeTrace {
            events: vec![ev(0, 0, 3, 1), ev(4, 1, 2, 2)],
            num_vertices: 4,
        };
        assert_eq!(t.absorbed_at(3), Some(0));
        assert_eq!(t.absorbed_at(2), Some(4));
        assert_eq!(t.absorbed_at(0), None);
    }
}
