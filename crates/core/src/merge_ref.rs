//! The reference merge: the differential oracle for the CSR engine in
//! [`crate::merge`] and the baseline of the `bench_record` merge suite.
//!
//! This is the merge stage written as the paper states it, over one edge
//! list: every iteration folds each vertex's minimum [`CandKey`], merges
//! the mutual pairs, then relabels every edge, drops self-loops and
//! criterion-violating edges, and re-sorts and dedups the whole list. It
//! works on [`RegionStats`] through [`Criterion::weight`] /
//! [`Criterion::satisfies`], ranks candidates with [`choice_key`] (over
//! the shared [`crate::merge::tie_key`]) and keeps its own parent array,
//! so it shares no data layout with [`crate::merge::Merger`] and
//! cross-checks the engine's statistics too. Do **not** optimise it: its value is being the
//! obvious program the engine must match step for step
//! (`prop_tiebreak.rs`) and be measured against (`BENCH_merge.json`).
//!
//! [`Criterion::weight`]: crate::config::Criterion::weight
//! [`Criterion::satisfies`]: crate::config::Criterion::satisfies

use crate::config::{Config, RegionStats, TieBreak};
use crate::graph::Rag;
use crate::hierarchy::{MergeEvent, MergeTrace};
use crate::merge::{choice_key, CandKey, StepReport};
use rg_imaging::Intensity;

/// Identity element of the [`CandKey`] min-fold ("no candidate seen").
const KEY_SENTINEL: CandKey = (u64::MAX, u64::MAX, u64::MAX, u32::MAX);

/// Everything observable about one reference merge run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferenceMerge {
    /// One report per iteration, as [`crate::merge::Merger::step`] returns
    /// them (`compacted` is always `false`: there is no slot arena).
    pub steps: Vec<StepReport>,
    /// Representative (dense index) of each original vertex.
    pub labels_by_vertex: Vec<u32>,
    /// Every merge, iteration-major and in ascending winner order.
    pub trace: MergeTrace,
    /// Maximum active-edge count, the filtered initial list included.
    pub peak_active_edges: u64,
    /// Edge-list data movement: per productive iteration, two endpoint
    /// maps per edge, plus `E·(⌊log₂E⌋+1)` sort moves and an `E`-long
    /// dedup scan over the `E` edges that survive the filter.
    pub relabel_work: u64,
}

/// Runs the merge stage on `rag` to convergence. `ids[v]` is the canonical
/// ID of dense vertex `v` (see [`crate::split::Square::id`]).
pub fn merge_reference<P: Intensity>(
    rag: &Rag<'_, P>,
    ids: &[u64],
    config: &Config,
) -> ReferenceMerge {
    ReferenceInput::new(rag, config).run(ids, config)
}

/// The reference merge's starting state: its own copy of the region
/// statistics and the edges that satisfy the criterion (the paper's step
/// 2). It is built apart from the iterations so `bench_record` times those
/// alone, as it times a built [`crate::merge::Merger`].
#[derive(Debug, Clone)]
pub struct ReferenceInput<P: Intensity> {
    stats: Vec<RegionStats<P>>,
    edges: Vec<(u32, u32)>,
}

impl<P: Intensity> ReferenceInput<P> {
    /// Copies `rag`'s statistics and drops the edges that violate the
    /// criterion up front.
    pub fn new(rag: &Rag<'_, P>, config: &Config) -> Self {
        let stats = rag.stats.to_vec();
        let edges = rag
            .edges
            .iter()
            .copied()
            .filter(|&(u, v)| {
                let (a, b) = (&stats[u as usize], &stats[v as usize]);
                config.criterion.satisfies(a, b, config.threshold)
            })
            .collect();
        ReferenceInput { stats, edges }
    }

    /// Iterates to convergence; `ids` as for [`merge_reference`].
    pub fn run(self, ids: &[u64], config: &Config) -> ReferenceMerge {
        let (crit, t) = (config.criterion, config.threshold);
        let ReferenceInput {
            mut stats,
            mut edges,
        } = self;
        let n = stats.len();
        assert_eq!(ids.len(), n, "ids length mismatch");
        let mut parent: Vec<u32> = (0..n as u32).collect();
        let mut best: Vec<CandKey> = vec![KEY_SENTINEL; n];
        let mut out = ReferenceMerge {
            steps: Vec::new(),
            labels_by_vertex: Vec::new(),
            trace: MergeTrace::new(n),
            peak_active_edges: edges.len() as u64,
            relabel_work: 0,
        };
        let mut stalls = 0u32;
        while !edges.is_empty() {
            let iteration = out.steps.len() as u32;
            let used_fallback =
                matches!(config.tie_break, TieBreak::Random { .. }) && stalls >= config.max_stall;
            let policy = if used_fallback {
                TieBreak::SmallestId
            } else {
                config.tie_break
            };

            // Every vertex's minimum (weight, tie key, neighbour).
            best.fill(KEY_SENTINEL);
            for &(u, v) in &edges {
                let w = crit.weight(&stats[u as usize], &stats[v as usize]);
                for (a, b) in [(u, v), (v, u)] {
                    let key = choice_key(policy, iteration, ids[a as usize], ids[b as usize], w, b);
                    best[a as usize] = best[a as usize].min(key);
                }
            }

            // Mutual pairs merge into the smaller index, in ascending order.
            let mut merges = 0u32;
            for u in 0..n as u32 {
                let v = best[u as usize].3;
                if v == u32::MAX || u > v || best[v as usize].3 != u {
                    continue;
                }
                let (su, sv) = (stats[u as usize], stats[v as usize]);
                out.trace.events.push(MergeEvent {
                    iteration,
                    winner: u,
                    loser: v,
                    weight_fp16: crit.weight(&su, &sv),
                });
                stats[u as usize] = su.fold(sv);
                parent[v as usize] = u;
                merges += 1;
            }

            // Relabel, filter, sort and dedup; a stall changes nothing.
            if merges > 0 {
                out.relabel_work += 2 * edges.len() as u64;
                let mut next: Vec<(u32, u32)> = edges
                    .iter()
                    .filter_map(|&(u, v)| {
                        let (a, b) = (parent[u as usize], parent[v as usize]);
                        let (a, b) = (a.min(b), a.max(b));
                        (a != b && crit.satisfies(&stats[a as usize], &stats[b as usize], t))
                            .then_some((a, b))
                    })
                    .collect();
                next.sort_unstable();
                let e = next.len() as u64;
                if e > 0 {
                    out.relabel_work += e * u64::from(e.ilog2() + 1) + e;
                }
                next.dedup();
                edges = next;
                stalls = 0;
            } else {
                stalls += 1;
            }
            out.peak_active_edges = out.peak_active_edges.max(edges.len() as u64);
            out.steps.push(StepReport {
                merges,
                used_fallback,
                active_edges: edges.len() as u64,
                compacted: false,
            });
        }

        // A winner has the smaller index, so one ascending pass resolves
        // every chain.
        for v in 0..n {
            parent[v] = parent[parent[v] as usize];
        }
        out.labels_by_vertex = parent;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Connectivity;
    use crate::split::split;
    use rg_imaging::synth;

    #[test]
    fn figure2_walkthrough() {
        // The paper's Figure 2 (see DESIGN.md): 7 squares; iteration 1
        // merges {0,5} and {2,4}, iteration 2 {3,6}, iteration 3 {0,3}
        // and {1,2}.
        let img = synth::figure1_image();
        let cfg = Config::with_threshold(3).tie_break(TieBreak::SmallestId);
        let s = split(&img, &cfg);
        let ids: Vec<u64> = s.squares.iter().map(|q| u64::from(q.id(4))).collect();
        let r = merge_reference(&Rag::from_split(&s, Connectivity::Four), &ids, &cfg);
        let merges: Vec<u32> = r.steps.iter().map(|s| s.merges).collect();
        assert_eq!(merges, vec![2, 1, 2]);
        assert_eq!(r.steps.last().unwrap().active_edges, 0);
        let pairs: Vec<(u32, u32, u32)> = r
            .trace
            .events
            .iter()
            .map(|e| (e.iteration, e.winner, e.loser))
            .collect();
        assert_eq!(
            pairs,
            vec![(0, 0, 5), (0, 2, 4), (1, 3, 6), (2, 0, 3), (2, 1, 2)]
        );
        assert_eq!(r.labels_by_vertex, vec![0, 1, 1, 0, 1, 0, 0]);
    }
}
