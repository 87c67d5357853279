//! The merge stage: iterative mutual-choice merging on the RAG.
//!
//! One merge iteration (the paper's steps 3–4):
//!
//! 1. every region selects the neighbouring region that best satisfies the
//!    homogeneity criterion (minimum edge weight), breaking ties by the
//!    configured [`TieBreak`] policy;
//! 2. two regions merge iff they selected each other (*mutual* choices);
//!    several pairs merge in the same iteration without conflict because
//!    each region makes exactly one choice;
//! 3. the region with the smaller ID becomes the representative;
//! 4. vertices and edges are updated: statistics fold, edge endpoints
//!    relabel to representatives, self-loops disappear, and edges that no
//!    longer satisfy the criterion are de-activated (dropped — under the
//!    pixel-range criterion weights grow monotonically with merging, so
//!    de-activation is permanent, exactly as in the paper; under the
//!    mean-difference extension we keep the paper's drop-on-violation
//!    semantics even though the mean distance is not monotone).
//!
//! The loop repeats while active edges exist.
//!
//! ### Backends
//!
//! Two interchangeable merge backends implement step 4
//! ([`crate::config::MergeBackend`]):
//!
//! * **CSR** (default): a compressed-sparse-row adjacency structure in the
//!   spirit of the CM implementations' flat arrays. Each original vertex
//!   owns a *row* of directed neighbour slots. One fused sweep at the end
//!   of every iteration redirects endpoints through the iteration's
//!   one-level redirect table (exact, because a representative never loses
//!   in the iteration it wins), drops self-loops / per-owner duplicates /
//!   criterion-violating slots, squeezes the surviving slots *and* rows in
//!   place, and pre-folds the next iteration's per-region choice minima —
//!   no per-iteration edge-list rebuild, no global sort, no steady-state
//!   allocation, and no dead slot or empty row is ever rescanned. The
//!   steady-state cost per iteration is O(live slots + live owners), with
//!   none of the O(vertices) refill floors the reference engine pays.
//! * **Reference**: the original edge-list engine that rebuilds, re-sorts
//!   and re-dedups the whole list every iteration. Kept for differential
//!   testing and as the perf baseline recorded in `BENCH_merge.json`.
//!
//! Both backends produce byte-identical merge histories: the candidate
//! argmin is order-invariant (strict total order per chooser, see
//! `prop_tiebreak.rs`), duplicate parallel edges never change a minimum,
//! and the CSR backend filters criterion-violating slots *eagerly* at the
//! end of each iteration — exactly when the reference filters — so the
//! de-activation schedule, the iteration count, and the stall/fallback
//! behaviour coincide.
//!
//! ### Termination
//!
//! With [`TieBreak::SmallestId`] / [`TieBreak::LargestId`] at least one
//! mutual pair exists in every iteration (the globally minimal edge under
//! the induced total order is always mutual), so the stage terminates in at
//! most `R − 1` iterations. With [`TieBreak::Random`] an iteration may
//! produce no merge (choices can form cycles); the engine re-randomises
//! every iteration and, after [`Config::max_stall`] consecutive empty
//! iterations, runs a single smallest-ID iteration to force progress.
//!
//! ### Determinism across engines
//!
//! All tie-break decisions hash *canonical region IDs* (the linear index of
//! a region's top-left pixel — [`crate::split::Square::id`]), not dense
//! vertex indices, so the sequential, data-parallel, and message-passing
//! engines make identical random decisions given the same seed.

use crate::config::{
    mean_satisfies, mean_weight_fp16, range_satisfies, range_weight_fp16, Config, Criterion,
    MergeBackend, RegionStats, TieBreak,
};
use crate::graph::Rag;
use crate::hierarchy::{MergeEvent, MergeTrace};
use crate::telemetry::{NullTelemetry, SpanGuard, SpanKind, Telemetry};
use rg_dsu::DisjointSets;
use rg_imaging::Intensity;

/// Deterministic tie-break priority: a splitmix64-style hash of
/// `(seed, iteration, chooser, candidate)`.
///
/// Public so the data-parallel and message-passing implementations can make
/// bit-identical random choices.
#[inline]
pub fn tie_priority(seed: u64, iteration: u32, chooser: u64, candidate: u64) -> u64 {
    let mut x = seed
        .wrapping_add((iteration as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(chooser.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(candidate.wrapping_mul(0x94D0_49BB_1331_11EB));
    // splitmix64 finaliser.
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// The key a chooser uses to rank `candidate` among equal-weight
/// neighbours; smaller is better. Shared by every engine.
#[inline]
pub fn tie_key(policy: TieBreak, iteration: u32, chooser_id: u64, candidate_id: u64) -> (u64, u64) {
    match policy {
        TieBreak::SmallestId => (candidate_id, 0),
        TieBreak::LargestId => (u64::MAX - candidate_id, 0),
        TieBreak::Random { seed } => (
            tie_priority(seed, iteration, chooser_id, candidate_id),
            candidate_id,
        ),
    }
}

/// The full candidate ranking key `(weight, tie0, tie1, candidate)`: a
/// chooser picks the candidate minimising this tuple. The trailing dense
/// candidate index makes the order strict, so the argmin is invariant
/// under any scan order — the property every backend's segmented-min
/// relies on.
pub type CandKey = (u64, u64, u64, u32);

/// Identity element of the [`CandKey`] min-fold ("no candidate seen").
const KEY_SENTINEL: CandKey = (u64::MAX, u64::MAX, u64::MAX, u32::MAX);

/// Builds the full [`CandKey`] for one directed candidate. Shared by the
/// in-core backends and the message-passing engine so every implementation
/// ranks candidates identically.
#[inline]
pub fn choice_key(
    policy: TieBreak,
    iteration: u32,
    chooser_id: u64,
    candidate_id: u64,
    weight: u64,
    candidate: u32,
) -> CandKey {
    let (k0, k1) = tie_key(policy, iteration, chooser_id, candidate_id);
    (weight, k0, k1, candidate)
}

/// What one call to [`Merger::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepReport {
    /// Number of region pairs merged this iteration.
    pub merges: u32,
    /// `true` when the stall guard forced a smallest-ID iteration.
    pub used_fallback: bool,
    /// Active undirected edges remaining *after* this iteration. The CSR
    /// backend counts parallel duplicate edges retained between
    /// compactions, so this may exceed the reference backend's
    /// deduplicated count on the same input.
    pub active_edges: u64,
    /// `true` when the CSR backend compacted its slot array this
    /// iteration.
    pub compacted: bool,
}

/// Summary of a completed merge stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeSummary {
    /// Total merge iterations executed (including zero-merge iterations
    /// under random tie-breaking).
    pub iterations: u32,
    /// Merges performed in each iteration.
    pub merges_per_iteration: Vec<u32>,
    /// Regions remaining at termination.
    pub num_regions: usize,
}

/// Region statistics in structure-of-arrays layout: `min`/`max`/`sum`/
/// `count` as separate slices so the hot weight/criterion kernels touch
/// only the fields the active criterion needs (and autovectorise).
#[derive(Debug)]
struct SoaStats<P: Intensity> {
    min: Vec<P>,
    max: Vec<P>,
    sum: Vec<u64>,
    cnt: Vec<u64>,
}

impl<P: Intensity> SoaStats<P> {
    /// An empty SoA (no allocation until [`SoaStats::refill`]).
    fn empty() -> Self {
        Self {
            min: Vec::new(),
            max: Vec::new(),
            sum: Vec::new(),
            cnt: Vec::new(),
        }
    }

    /// Re-fills the SoA from an AoS slice in place, reusing capacity.
    fn refill(&mut self, stats: &[RegionStats<P>]) {
        self.min.clear();
        self.min.extend(stats.iter().map(|s| s.min));
        self.max.clear();
        self.max.extend(stats.iter().map(|s| s.max));
        self.sum.clear();
        self.sum.extend(stats.iter().map(|s| s.sum));
        self.cnt.clear();
        self.cnt.extend(stats.iter().map(|s| s.count));
    }

    /// 16.16 fixed-point merge weight of regions `a` and `b`.
    #[inline]
    fn weight(&self, crit: Criterion, a: usize, b: usize) -> u64 {
        match crit {
            Criterion::PixelRange => range_weight_fp16(
                self.min[a].min(self.min[b]).to_u32(),
                self.max[a].max(self.max[b]).to_u32(),
            ),
            Criterion::MeanDifference => {
                mean_weight_fp16(self.sum[a], self.cnt[a], self.sum[b], self.cnt[b])
            }
        }
    }

    /// `true` iff merging `a` and `b` satisfies the criterion at `t`.
    #[inline]
    fn satisfies(&self, crit: Criterion, t: u32, a: usize, b: usize) -> bool {
        match crit {
            Criterion::PixelRange => range_satisfies(
                self.min[a].min(self.min[b]).to_u32(),
                self.max[a].max(self.max[b]).to_u32(),
                t,
            ),
            Criterion::MeanDifference => {
                mean_satisfies(self.sum[a], self.cnt[a], self.sum[b], self.cnt[b], t)
            }
        }
    }

    /// Folds `loser`'s statistics into `winner` (region union).
    #[inline]
    fn fold(&mut self, winner: usize, loser: usize) {
        self.min[winner] = self.min[winner].min(self.min[loser]);
        self.max[winner] = self.max[winner].max(self.max[loser]);
        self.sum[winner] += self.sum[loser];
        self.cnt[winner] += self.cnt[loser];
    }

    /// Reassembles the AoS view of vertex `i`.
    #[inline]
    fn get(&self, i: usize) -> RegionStats<P> {
        RegionStats {
            min: self.min[i],
            max: self.max[i],
            sum: self.sum[i],
            count: self.cnt[i],
        }
    }
}

/// Hot per-vertex record for the CSR kernels: the pixel-range extrema and
/// the canonical tie-break ID packed into one 16-byte slot, so ranking a
/// candidate costs a single gather instead of three (min, max, id from
/// separate arrays). Updated alongside [`SoaStats`] on every merge.
#[derive(Debug, Clone, Copy)]
struct HotVertex {
    /// Current region minimum, widened to `u32`.
    min: u32,
    /// Current region maximum, widened to `u32`.
    max: u32,
    /// Canonical region ID (see [`crate::split::Square::id`]).
    id: u64,
}

/// "No row" marker for the owner→rows linked lists.
const NO_ROW: u32 = u32::MAX;

/// The CSR adjacency state plus all persistent scratch, so steady-state
/// iterations perform no heap allocation.
#[derive(Debug)]
struct Csr {
    /// Static row extents, one row per *original* vertex (`len = n + 1`).
    /// Never rewritten: row `r`'s slots live in
    /// `col[row_ptr[r] .. row_ptr[r] + row_len[r]]`.
    row_ptr: Vec<u32>,
    /// Live slots of each row. Survivors are squeezed to the row start by
    /// every pass, so the dead tail of an extent is never rescanned (no
    /// tombstones).
    row_len: Vec<u32>,
    /// Directed neighbour slots. Every slot holds the *current
    /// representative* of the neighbouring region.
    col: Vec<u32>,
    /// Current representative of the region that owns row `r`.
    row_owner: Vec<u32>,
    /// Number of live directed slots (`== row_len` sum). Not necessarily
    /// even: the two directions of a duplicated edge may deduplicate at
    /// different times.
    live: usize,
    /// Head of each vertex's list of owned rows (`NO_ROW` = owns none).
    /// Loser lists are spliced into the winner's on every merge under
    /// deterministic tie policies, so the incremental pass can enumerate a
    /// dirty region's rows — and, via their slots, its neighbours —
    /// without any global scan. Emptied rows are unlinked lazily.
    row_head: Vec<u32>,
    /// Tail of each vertex's row list (for O(1) splicing).
    row_tail: Vec<u32>,
    /// Next row in the owning vertex's list.
    row_next: Vec<u32>,
    /// Epoch marks backing the incremental pass's dirty set.
    dirty_epoch: Vec<u32>,
    /// Scratch: dirty vertices of the current incremental pass.
    dirty: Vec<u32>,
    /// Per-neighbour stamp for per-owner duplicate detection; a fresh
    /// token per (owner, pass) makes the check exact with no clearing.
    stamp: Vec<u64>,
    /// Next stamp token block (monotonically increasing, starts at 1
    /// because `stamp` is zero-initialised).
    next_token: u64,
    /// Owners whose `best`/`choice` entries were written by the last fused
    /// pass — the only entries that need resetting before the next one
    /// (an O(live owners) sweep instead of an O(vertices) refill).
    touched: Vec<u32>,
    /// `false` until the first fused pass: the iteration-0 choice pass
    /// writes `best`/`choice` densely, so the first reset must be full.
    touched_valid: bool,
    /// `true` when the fused end-of-step pass has already folded the next
    /// iteration's per-owner minima into the `Merger`'s `best` array, so
    /// the next choice pass is a table read instead of a sweep.
    precomputed: bool,
    /// The (policy, iteration) the precomputed minima were folded under —
    /// cross-checked against the choice pass in debug builds.
    precomputed_for: (TieBreak, u32),
}

impl Csr {
    /// Builds the CSR over `n` vertices from a canonical (`u < v`, unique)
    /// edge list, materialising both directions.
    fn new(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut csr = Self::empty();
        csr.rebuild(n, edges);
        csr
    }

    /// An empty CSR (no allocation until [`Csr::rebuild`]).
    fn empty() -> Self {
        Self {
            row_ptr: Vec::new(),
            row_len: Vec::new(),
            col: Vec::new(),
            row_owner: Vec::new(),
            live: 0,
            row_head: Vec::new(),
            row_tail: Vec::new(),
            row_next: Vec::new(),
            dirty_epoch: Vec::new(),
            dirty: Vec::new(),
            stamp: Vec::new(),
            next_token: 1,
            touched: Vec::new(),
            touched_valid: false,
            precomputed: false,
            precomputed_for: (TieBreak::SmallestId, u32::MAX),
        }
    }

    /// Re-initialises the CSR over `n` vertices from a canonical edge list
    /// **in place**, reusing every array's capacity (`row_len` doubles as
    /// the fill cursor, so no temporary is needed). Equivalent to
    /// `*self = Csr::new(n, edges)` but allocation-free in steady state.
    fn rebuild(&mut self, n: usize, edges: &[(u32, u32)]) {
        let slots = edges.len() * 2;
        assert!(slots < u32::MAX as usize, "CSR slot count exceeds u32");
        self.row_ptr.clear();
        self.row_ptr.resize(n + 1, 0);
        for &(u, v) in edges {
            self.row_ptr[u as usize + 1] += 1;
            self.row_ptr[v as usize + 1] += 1;
        }
        for i in 0..n {
            self.row_ptr[i + 1] += self.row_ptr[i];
        }
        // `row_len` serves as the per-row fill cursor during scatter...
        self.row_len.clear();
        self.row_len.extend_from_slice(&self.row_ptr[..n]);
        self.col.clear();
        self.col.resize(slots, 0);
        for &(u, v) in edges {
            self.col[self.row_len[u as usize] as usize] = v;
            self.row_len[u as usize] += 1;
            self.col[self.row_len[v as usize] as usize] = u;
            self.row_len[v as usize] += 1;
        }
        // ...then becomes the live slot count of each row.
        for r in 0..n {
            self.row_len[r] = self.row_ptr[r + 1] - self.row_ptr[r];
        }
        self.row_owner.clear();
        self.row_owner.extend(0..n as u32);
        self.live = slots;
        self.row_head.clear();
        self.row_head.extend(0..n as u32);
        self.row_tail.clear();
        self.row_tail.extend(0..n as u32);
        self.row_next.clear();
        self.row_next.resize(n, NO_ROW);
        self.dirty_epoch.clear();
        self.dirty_epoch.resize(n, 0);
        self.dirty.clear();
        self.stamp.clear();
        self.stamp.resize(n, 0);
        self.next_token = 1;
        self.touched.clear();
        self.touched.reserve(n);
        self.touched_valid = false;
        self.precomputed = false;
        self.precomputed_for = (TieBreak::SmallestId, u32::MAX);
    }

    /// Appends loser `v`'s row list to winner `u`'s (O(1)). The rows'
    /// `row_owner` fields are rewritten lazily by the next pass that walks
    /// them.
    fn splice(&mut self, u: usize, v: usize) {
        let vh = self.row_head[v];
        if vh == NO_ROW {
            return;
        }
        let vt = self.row_tail[v];
        if self.row_head[u] == NO_ROW {
            self.row_head[u] = vh;
        } else {
            self.row_next[self.row_tail[u] as usize] = vh;
        }
        self.row_tail[u] = vt;
        self.row_head[v] = NO_ROW;
        self.row_tail[v] = NO_ROW;
    }

    /// The fused end-of-step sweep: in **one** pass over the live slots it
    ///
    /// 1. redirects row owners and candidate slots through the one-level
    ///    `redirect` (exact, because an iteration's mutual pairs form a
    ///    matching: a representative never loses in the iteration it wins);
    /// 2. drops self-loops, per-owner duplicate neighbours, and slots whose
    ///    merged endpoints no longer satisfy the criterion (`filter` mode,
    ///    after a productive iteration);
    /// 3. squeezes the surviving slots to the front of `col` and the
    ///    surviving rows to the front of the row list (both write cursors
    ///    never pass their read cursors, so the moves are in place, and
    ///    afterwards no dead slot or empty row exists to be rescanned —
    ///    compaction happens *every* productive pass for free, because the
    ///    pass touches every live slot anyway);
    /// 4. folds every survivor into `best` under the *next* iteration's
    ///    tie policy and derives `choice` for exactly the owners that have
    ///    one, so the next choice pass is a no-op. Only the `best`/`choice`
    ///    entries the previous pass wrote are reset (`touched`), keeping
    ///    the pass free of O(vertices) refills.
    ///
    /// When `filter` is false (a stall iteration: no merge happened, no
    /// statistic changed) steps 1–3 are vacuous and the pass degenerates to
    /// the pure argmin rescan that re-randomised tie keys require.
    ///
    /// Dropping a duplicate slot is free of semantic effect: the argmin is
    /// invariant under duplicates, the criterion filter would kill every
    /// copy together, and at least one copy per direction always survives.
    ///
    /// Returns `(ops, reclaimed)`: live slots touched in filter mode (the
    /// relabel-work counter) and dead slots squeezed out.
    #[allow(clippy::too_many_arguments)]
    fn fused_pass<P: Intensity>(
        &mut self,
        stats: &SoaStats<P>,
        hot: &[HotVertex],
        crit: Criterion,
        t: u32,
        redirect: &[u32],
        filter: bool,
        policy: TieBreak,
        iteration: u32,
        best: &mut [CandKey],
        choice: &mut [u32],
    ) -> (u64, usize) {
        match crit {
            Criterion::PixelRange => {
                // `range_weight_fp16` is exactly the union range in 16.16,
                // so the criterion test is a comparison of the weight the
                // ranking needs anyway against `threshold << 16` — one
                // extrema gather serves both filter and argmin.
                let cut = u64::from(t) << 16;
                self.fused_pass_impl(
                    hot,
                    redirect,
                    filter,
                    policy,
                    iteration,
                    best,
                    choice,
                    |o, c| {
                        let (a, b) = (hot[o], hot[c]);
                        range_weight_fp16(a.min.min(b.min), a.max.max(b.max))
                    },
                    |_, _, wk| wk <= cut,
                )
            }
            Criterion::MeanDifference => self.fused_pass_impl(
                hot,
                redirect,
                filter,
                policy,
                iteration,
                best,
                choice,
                |o, c| mean_weight_fp16(stats.sum[o], stats.cnt[o], stats.sum[c], stats.cnt[c]),
                // Floor division makes the 16.16 mean distance an inexact
                // proxy for the criterion; keep the exact integer predicate.
                |o, c, _| mean_satisfies(stats.sum[o], stats.cnt[o], stats.sum[c], stats.cnt[c], t),
            ),
        }
    }

    /// Criterion-monomorphised body of [`Csr::fused_pass`]: `weight(o, c)`
    /// ranks a candidate, `keeps(o, c, weight)` is the de-activation
    /// predicate (both are loop-invariant closures, so the inner loop
    /// specialises per criterion with no per-slot dispatch).
    #[allow(clippy::too_many_arguments)]
    fn fused_pass_impl<W, K>(
        &mut self,
        hot: &[HotVertex],
        redirect: &[u32],
        filter: bool,
        policy: TieBreak,
        iteration: u32,
        best: &mut [CandKey],
        choice: &mut [u32],
        weight: W,
        keeps: K,
    ) -> (u64, usize)
    where
        W: Fn(usize, usize) -> u64,
        K: Fn(usize, usize, u64) -> bool,
    {
        let n = self.row_owner.len();
        let mut ops = 0u64;
        // Token `base + o` is unique to (pass, owner `o`), so every row
        // owned by `o` shares one token and `stamp[c] == token` dedups the
        // owner's duplicate neighbours *across rows* — the same
        // per-iteration dedup schedule as the reference backend's rebuild,
        // at O(live) cost.
        let base = self.next_token;
        self.next_token += self.stamp.len() as u64;
        // Reset exactly the entries the previous pass wrote.
        if self.touched_valid {
            for &o in &self.touched {
                best[o as usize] = KEY_SENTINEL;
                choice[o as usize] = u32::MAX;
            }
        } else {
            best.fill(KEY_SENTINEL);
            choice.fill(u32::MAX);
            self.touched_valid = true;
        }
        self.touched.clear();
        let mut live = 0usize;
        let mut reclaimed = 0usize;
        for r in 0..n {
            let s = self.row_ptr[r] as usize;
            let len = self.row_len[r] as usize;
            if len == 0 {
                continue;
            }
            let o = if filter {
                let o = redirect[self.row_owner[r] as usize];
                self.row_owner[r] = o;
                o
            } else {
                self.row_owner[r]
            } as usize;
            let token = base + o as u64;
            let chooser = hot[o].id;
            let mut b = best[o];
            if b == KEY_SENTINEL {
                self.touched.push(o as u32);
            }
            let mut w = s; // in-row write cursor; never passes the read one
            for j in s..s + len {
                let c = self.col[j];
                let (c2, wk) = if filter {
                    ops += 1;
                    let c2 = redirect[c as usize] as usize;
                    if c2 == o || self.stamp[c2] == token {
                        continue;
                    }
                    let wk = weight(o, c2);
                    if !keeps(o, c2, wk) {
                        continue;
                    }
                    self.stamp[c2] = token;
                    (c2 as u32, wk)
                } else {
                    (c, weight(o, c as usize))
                };
                self.col[w] = c2;
                w += 1;
                let (k0, k1) = tie_key(policy, iteration, chooser, hot[c2 as usize].id);
                let k = (wk, k0, k1, c2);
                if k < b {
                    b = k;
                }
            }
            let kept = w - s;
            reclaimed += len - kept;
            live += kept;
            self.row_len[r] = kept as u32;
            best[o] = b;
        }
        self.live = live;
        // Next iteration's choices, for exactly the owners that have one.
        for &o in &self.touched {
            choice[o as usize] = best[o as usize].3;
        }
        self.precomputed = true;
        self.precomputed_for = (policy, iteration);
        (ops, reclaimed)
    }

    /// The incremental end-of-step pass for deterministic tie policies
    /// ([`TieBreak::SmallestId`] / [`TieBreak::LargestId`]): instead of
    /// rescanning every live slot, it rescans only the *dirty
    /// neighbourhood* of this iteration's merges.
    ///
    /// Validity: deterministic tie keys do not depend on the iteration, a
    /// region's statistics change only when it merges, and a slot's
    /// endpoints change only when one of them merges. Hence a row whose
    /// owner did not merge and whose slots name no merged region has an
    /// unchanged candidate list, unchanged weights, and unchanged ranking
    /// — its `best`/`choice` from the previous iteration stay exact. The
    /// dirty set is therefore `winners ∪ losers ∪ their neighbours`; the
    /// owner→rows lists enumerate it in O(dirty slots), and every dirty
    /// owner's rows are redirected / filtered / deduped / squeezed and
    /// re-ranked exactly as the full pass would.
    ///
    /// A new mutual pair must involve a vertex whose choice changed (two
    /// unchanged mutual choices would have merged an iteration earlier),
    /// so handing `dirty` to the next [`Merger::apply_mutual_merges`] as
    /// its candidate list keeps the apply step O(dirty) too. (Random
    /// tie-breaking re-randomises every ranking each iteration, which
    /// forces the full rescan — the same global work the reference
    /// backend's choice pass does — so it stays on [`Csr::fused_pass`].)
    #[allow(clippy::too_many_arguments)]
    fn fast_pass<P: Intensity>(
        &mut self,
        stats: &SoaStats<P>,
        hot: &[HotVertex],
        crit: Criterion,
        t: u32,
        redirect: &[u32],
        losers: &[u32],
        policy: TieBreak,
        iteration: u32,
        best: &mut [CandKey],
        choice: &mut [u32],
    ) -> (u64, usize) {
        match crit {
            Criterion::PixelRange => {
                let cut = u64::from(t) << 16;
                self.fast_pass_impl(
                    hot,
                    redirect,
                    losers,
                    policy,
                    iteration,
                    best,
                    choice,
                    |o, c| {
                        let (a, b) = (hot[o], hot[c]);
                        range_weight_fp16(a.min.min(b.min), a.max.max(b.max))
                    },
                    |_, _, wk| wk <= cut,
                )
            }
            Criterion::MeanDifference => self.fast_pass_impl(
                hot,
                redirect,
                losers,
                policy,
                iteration,
                best,
                choice,
                |o, c| mean_weight_fp16(stats.sum[o], stats.cnt[o], stats.sum[c], stats.cnt[c]),
                |o, c, _| mean_satisfies(stats.sum[o], stats.cnt[o], stats.sum[c], stats.cnt[c], t),
            ),
        }
    }

    /// Criterion-monomorphised body of [`Csr::fast_pass`].
    #[allow(clippy::too_many_arguments)]
    fn fast_pass_impl<W, K>(
        &mut self,
        hot: &[HotVertex],
        redirect: &[u32],
        losers: &[u32],
        policy: TieBreak,
        iteration: u32,
        best: &mut [CandKey],
        choice: &mut [u32],
        weight: W,
        keeps: K,
    ) -> (u64, usize)
    where
        W: Fn(usize, usize) -> u64,
        K: Fn(usize, usize, u64) -> bool,
    {
        // `iteration` is the next step's index — strictly increasing, so
        // `iteration + 1` is a unique epoch (and clears the zero init).
        let epoch = iteration + 1;
        self.dirty.clear();
        let mark = |dirty: &mut Vec<u32>, epochs: &mut [u32], x: u32| {
            if epochs[x as usize] != epoch {
                epochs[x as usize] = epoch;
                dirty.push(x);
            }
        };
        // Seed with this iteration's winners and losers, then mark their
        // neighbours by walking the winners' row lists (loser rows were
        // spliced in before this pass, so one walk covers the pair).
        for &v in losers {
            mark(&mut self.dirty, &mut self.dirty_epoch, v);
            mark(&mut self.dirty, &mut self.dirty_epoch, redirect[v as usize]);
        }
        let seeds = self.dirty.len();
        for i in 0..seeds {
            let d = self.dirty[i] as usize;
            let mut r = self.row_head[d];
            while r != NO_ROW {
                let ri = r as usize;
                let s = self.row_ptr[ri] as usize;
                for j in s..s + self.row_len[ri] as usize {
                    mark(
                        &mut self.dirty,
                        &mut self.dirty_epoch,
                        redirect[self.col[j] as usize],
                    );
                }
                r = self.row_next[ri];
            }
        }
        // Recompute the dirty owners from scratch; everyone else keeps
        // last iteration's `best`/`choice` (still exact — see above).
        for &d in &self.dirty {
            best[d as usize] = KEY_SENTINEL;
            choice[d as usize] = u32::MAX;
        }
        let base = self.next_token;
        self.next_token += self.stamp.len() as u64;
        let mut ops = 0u64;
        let mut reclaimed = 0usize;
        for i in 0..self.dirty.len() {
            let d = self.dirty[i] as usize;
            let token = base + d as u64;
            let chooser = hot[d].id;
            let mut b = KEY_SENTINEL;
            let mut r = self.row_head[d];
            let mut prev = NO_ROW;
            while r != NO_ROW {
                let ri = r as usize;
                let next = self.row_next[ri];
                let s = self.row_ptr[ri] as usize;
                let len = self.row_len[ri] as usize;
                self.row_owner[ri] = d as u32;
                let mut w = s;
                for j in s..s + len {
                    ops += 1;
                    let c2 = redirect[self.col[j] as usize] as usize;
                    if c2 == d || self.stamp[c2] == token {
                        continue;
                    }
                    let wk = weight(d, c2);
                    if !keeps(d, c2, wk) {
                        continue;
                    }
                    self.stamp[c2] = token;
                    self.col[w] = c2 as u32;
                    w += 1;
                    let (k0, k1) = tie_key(policy, iteration, chooser, hot[c2].id);
                    let k = (wk, k0, k1, c2 as u32);
                    if k < b {
                        b = k;
                    }
                }
                let kept = w - s;
                reclaimed += len - kept;
                self.live -= len - kept;
                self.row_len[ri] = kept as u32;
                if kept == 0 {
                    // Unlink the emptied row so no future walk revisits it.
                    if prev == NO_ROW {
                        self.row_head[d] = next;
                    } else {
                        self.row_next[prev as usize] = next;
                    }
                    if next == NO_ROW {
                        self.row_tail[d] = prev;
                    }
                } else {
                    prev = r;
                }
                r = next;
            }
            best[d] = b;
            choice[d] = b.3; // `u32::MAX` when no candidate survived
        }
        // Hand the dirty list to the next apply step as its candidates.
        std::mem::swap(&mut self.touched, &mut self.dirty);
        self.precomputed = true;
        self.precomputed_for = (policy, iteration);
        (ops, reclaimed)
    }
}

/// The backend-specific adjacency state.
///
/// Exactly one `BackendState` exists per [`Merger`], so the size gap
/// between the thin reference variant and the many-vector CSR variant
/// costs nothing — boxing would only add a pointer chase to every pass.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum BackendState {
    /// Canonical sorted-unique edge list, rebuilt every iteration.
    Reference { edges: Vec<(u32, u32)> },
    /// Incremental CSR, squeezed in place by the fused end-of-step pass.
    Csr(Csr),
}

/// The stepping merge engine over a RAG.
///
/// Construct with [`Merger::new`], then either [`Merger::run`] to
/// completion or [`Merger::step`] repeatedly (the paper's Figure 2
/// walkthrough is validated this way).
#[derive(Debug)]
pub struct Merger<P: Intensity> {
    threshold: u32,
    criterion: Criterion,
    tie: TieBreak,
    max_stall: u32,

    /// Canonical region ID per dense vertex (order-isomorphic to the dense
    /// index; used for tie-break hashing only).
    ids: Vec<u64>,
    /// Region statistics in SoA layout, current at representative indices.
    stats: SoaStats<P>,
    /// Packed (min, max, id) per vertex for the CSR kernels; the extrema
    /// are folded alongside `stats` on every merge.
    hot: Vec<HotVertex>,
    /// Backend adjacency state.
    backend: BackendState,
    /// Full merge history (original vertex → representative).
    history: DisjointSets,
    /// One-iteration redirect table (identity outside merged losers).
    redirect: Vec<u32>,
    /// Losers of the current iteration, pending redirect reset.
    pending_losers: Vec<u32>,

    /// Persistent scratch: per-representative best candidate key.
    best: Vec<CandKey>,
    /// Persistent scratch: per-representative chosen neighbour.
    choice: Vec<u32>,
    /// Persistent scratch: criterion-filtered edge list used to (re)build
    /// the backend (kept so [`Merger::reset_from`] allocates nothing).
    edges_scratch: Vec<(u32, u32)>,

    iterations: u32,
    merges_per_iteration: Vec<u32>,
    num_regions: usize,
    stalls: u32,
    trace: Option<MergeTrace>,

    /// Total endpoint relabels / slot moves performed (the counter the CI
    /// perf-smoke guard compares across backends).
    relabel_ops: u64,
    /// Maximum of [`Merger::active_edges`] observed over the run.
    peak_active_edges: u64,
    /// Number of CSR compaction passes performed.
    compactions: u64,
}

impl<P: Intensity> Merger<P> {
    /// Creates the engine. `ids[v]` is the canonical ID of dense vertex
    /// `v`; IDs must be strictly increasing (raster order of the regions).
    ///
    /// Edges of `rag` that do not satisfy the criterion are de-activated
    /// immediately (the paper's step 2). The backend is chosen by
    /// [`Config::merge_backend`].
    pub fn new(rag: Rag<'_, P>, ids: Vec<u64>, config: &Config) -> Self {
        let mut m = Self::hollow(config);
        m.reset_from(&rag.stats, &rag.edges, &ids, config);
        m
    }

    /// A merger with every buffer empty; must be initialised by
    /// [`Merger::reset_from`] before stepping.
    pub(crate) fn hollow(config: &Config) -> Self {
        Self {
            threshold: config.threshold,
            criterion: config.criterion,
            tie: config.tie_break,
            max_stall: config.max_stall,
            ids: Vec::new(),
            stats: SoaStats::empty(),
            hot: Vec::new(),
            backend: match config.merge_backend {
                MergeBackend::Csr => BackendState::Csr(Csr::empty()),
                MergeBackend::Reference => BackendState::Reference { edges: Vec::new() },
            },
            history: DisjointSets::new(0),
            redirect: Vec::new(),
            pending_losers: Vec::new(),
            best: Vec::new(),
            choice: Vec::new(),
            edges_scratch: Vec::new(),
            iterations: 0,
            merges_per_iteration: Vec::new(),
            num_regions: 0,
            stalls: 0,
            trace: None,
            relabel_ops: 0,
            peak_active_edges: 0,
            compactions: 0,
        }
    }

    /// Re-initialises the engine **in place** for a new graph, reusing
    /// every internal buffer's capacity: in steady state (same-shape
    /// graphs through one merger) this performs **zero** heap allocations.
    ///
    /// Semantically equivalent to `*self = Merger::new(rag, ids, config)` —
    /// edges that do not satisfy the criterion are de-activated immediately
    /// (the paper's step 2), the backend is rebuilt per
    /// [`Config::merge_backend`] (switching variants reallocates once), and
    /// any enabled trace is dropped.
    pub fn reset_from(
        &mut self,
        stats: &[RegionStats<P>],
        edges: &[(u32, u32)],
        ids: &[u64],
        config: &Config,
    ) {
        assert_eq!(ids.len(), stats.len(), "ids length mismatch");
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must increase");
        let n = stats.len();
        let t = config.threshold;
        let crit = config.criterion;
        self.threshold = t;
        self.criterion = crit;
        self.tie = config.tie_break;
        self.max_stall = config.max_stall;
        self.ids.clear();
        self.ids.extend_from_slice(ids);
        self.stats.refill(stats);
        {
            // Criterion filter (the paper's step 2), written into the
            // persistent scratch so backend (re)builds read a slice.
            let Self {
                stats,
                edges_scratch,
                ..
            } = self;
            edges_scratch.clear();
            edges_scratch.extend(
                edges
                    .iter()
                    .copied()
                    .filter(|&(u, v)| stats.satisfies(crit, t, u as usize, v as usize)),
            );
        }
        let initial_edges = self.edges_scratch.len();
        {
            let Self {
                stats, ids, hot, ..
            } = self;
            hot.clear();
            hot.extend((0..n).map(|i| HotVertex {
                min: stats.min[i].to_u32(),
                max: stats.max[i].to_u32(),
                id: ids[i],
            }));
        }
        match (&mut self.backend, config.merge_backend) {
            (BackendState::Csr(csr), MergeBackend::Csr) => csr.rebuild(n, &self.edges_scratch),
            (BackendState::Reference { edges }, MergeBackend::Reference) => {
                edges.clear();
                edges.extend_from_slice(&self.edges_scratch);
            }
            // Backend switch: a one-off reallocation is acceptable.
            (slot, MergeBackend::Csr) => {
                *slot = BackendState::Csr(Csr::new(n, &self.edges_scratch));
            }
            (slot, MergeBackend::Reference) => {
                *slot = BackendState::Reference {
                    edges: self.edges_scratch.clone(),
                };
            }
        }
        self.history.reset(n);
        self.redirect.clear();
        self.redirect.extend(0..n as u32);
        self.pending_losers.clear();
        self.best.clear();
        self.best.resize(n, KEY_SENTINEL);
        self.choice.clear();
        self.choice.resize(n, u32::MAX);
        self.iterations = 0;
        self.merges_per_iteration.clear();
        self.num_regions = n;
        self.stalls = 0;
        self.trace = None;
        self.relabel_ops = 0;
        self.peak_active_edges = initial_edges as u64;
        self.compactions = 0;
    }

    /// Starts recording a [`MergeTrace`] (call before the first step).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(MergeTrace::new(self.ids.len()));
        }
    }

    /// Takes the recorded trace, if tracing was enabled.
    pub fn take_trace(&mut self) -> Option<MergeTrace> {
        self.trace.take()
    }

    /// `true` when no active edges remain.
    pub fn is_done(&self) -> bool {
        match &self.backend {
            BackendState::Reference { edges } => edges.is_empty(),
            BackendState::Csr(csr) => csr.live == 0,
        }
    }

    /// Active undirected edge count (for the CSR backend: half the live
    /// directed slot count; the fused pass dedups per owner every
    /// productive iteration, mirroring the reference backend's rebuild).
    pub fn active_edges(&self) -> usize {
        match &self.backend {
            BackendState::Reference { edges } => edges.len(),
            BackendState::Csr(csr) => csr.live / 2,
        }
    }

    /// Which backend this engine runs.
    pub fn backend(&self) -> MergeBackend {
        match self.backend {
            BackendState::Reference { .. } => MergeBackend::Reference,
            BackendState::Csr(_) => MergeBackend::Csr,
        }
    }

    /// Total edge-relabel data movement performed so far — the counter the
    /// CI perf-smoke guard compares across backends. For the CSR backend:
    /// one op per live slot touched by the fused relabel/filter/squeeze
    /// pass of each productive iteration. For the reference backend: two
    /// endpoint maps per edge plus the per-iteration canonicalising sort
    /// (`E·⌈log₂E⌉` element moves) and dedup scan it performs to rebuild
    /// the edge list.
    pub fn relabel_work(&self) -> u64 {
        self.relabel_ops
    }

    /// Maximum active-edge count observed over the run.
    pub fn peak_active_edges(&self) -> u64 {
        self.peak_active_edges
    }

    /// CSR passes that reclaimed dead slots (0 under the reference
    /// backend). With the fused squeeze this counts the productive
    /// iterations whose slot array actually shrank.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Iterations executed so far.
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// Regions currently alive.
    pub fn num_regions(&self) -> usize {
        self.num_regions
    }

    /// Merges performed in each iteration so far.
    pub fn merges_per_iteration(&self) -> &[u32] {
        &self.merges_per_iteration
    }

    /// Statistics of the region represented by dense vertex `rep`.
    pub fn stats_of(&self, rep: u32) -> RegionStats<P> {
        self.stats.get(rep as usize)
    }

    /// Representative (dense index) of each original vertex, resolved with
    /// one batched pointer-jumping pass over the whole history forest
    /// instead of per-vertex `find` calls.
    pub fn labels_by_vertex(&self) -> Vec<u32> {
        self.history.resolve_all()
    }

    /// [`Merger::labels_by_vertex`] into a caller-owned buffer (cleared
    /// first); performs no allocation once `out` has warmed up.
    pub fn labels_by_vertex_into(&self, out: &mut Vec<u32>) {
        self.history.resolve_all_into(out);
    }

    /// Executes one merge iteration; no-op when already done.
    pub fn step(&mut self) -> StepReport {
        self.step_traced(&mut NullTelemetry)
    }

    /// Like [`Merger::step`], bracketing the three phases of the iteration
    /// — candidate selection, mutual-merge apply, end-of-step
    /// relabel/filter/squeeze — in [`SpanKind::Choice`] /
    /// [`SpanKind::Apply`] / [`SpanKind::Compact`] spans on `tel`. On a
    /// disabled sink (the default [`NullTelemetry`] path through
    /// [`Merger::step`]) the guards emit nothing.
    ///
    /// The caller is expected to hold the enclosing
    /// [`SpanKind::MergeIteration`] span open around this call (see
    /// `engine::merge_from_split_with`).
    pub fn step_traced(&mut self, tel: &mut dyn Telemetry) -> StepReport {
        if self.is_done() {
            return StepReport {
                merges: 0,
                used_fallback: false,
                active_edges: 0,
                compacted: false,
            };
        }
        let used_fallback =
            matches!(self.tie, TieBreak::Random { .. }) && self.stalls >= self.max_stall;
        let policy = if used_fallback {
            TieBreak::SmallestId
        } else {
            self.tie
        };

        {
            let _span = SpanGuard::enter(&mut *tel, SpanKind::Choice);
            self.compute_choices(policy);
        }
        let merges = {
            let _span = SpanGuard::enter(&mut *tel, SpanKind::Apply);
            let mut choice = std::mem::take(&mut self.choice);
            let merges = self.apply_mutual_merges(&mut choice);
            self.choice = choice;
            merges
        };
        // Advance the iteration/stall counters *before* the end-of-step
        // pass: the CSR backend folds the next iteration's choice minima in
        // the same sweep, and needs the next step's policy and index.
        self.iterations += 1;
        self.merges_per_iteration.push(merges);
        if merges == 0 {
            self.stalls += 1;
        } else {
            self.stalls = 0;
        }
        let compacted = {
            let _span = SpanGuard::enter(&mut *tel, SpanKind::Compact);
            self.end_of_step(merges)
        };
        let active_edges = self.active_edges() as u64;
        self.peak_active_edges = self.peak_active_edges.max(active_edges);
        StepReport {
            merges,
            used_fallback,
            active_edges,
            compacted,
        }
    }

    /// Runs to completion.
    pub fn run(&mut self) -> MergeSummary {
        while !self.is_done() {
            self.step();
        }
        MergeSummary {
            iterations: self.iterations,
            merges_per_iteration: self.merges_per_iteration.clone(),
            num_regions: self.num_regions,
        }
    }

    /// Fills `self.choice`: for every vertex incident to an active edge,
    /// its chosen neighbour (`u32::MAX` = no choice). The choice minimises
    /// the [`CandKey`] `(weight, tie_key, neighbour)`.
    fn compute_choices(&mut self, policy: TieBreak) {
        let iteration = self.iterations;
        let crit = self.criterion;
        let Self {
            ids,
            stats,
            backend,
            best,
            choice,
            ..
        } = self;
        match backend {
            BackendState::Reference { edges } => {
                let cand = |chooser: u32, nb: u32| -> CandKey {
                    let w = stats.weight(crit, chooser as usize, nb as usize);
                    let (k0, k1) =
                        tie_key(policy, iteration, ids[chooser as usize], ids[nb as usize]);
                    (w, k0, k1, nb)
                };
                best.fill(KEY_SENTINEL);
                for &(u, v) in edges.iter() {
                    let ku = cand(u, v);
                    if ku < best[u as usize] {
                        best[u as usize] = ku;
                    }
                    let kv = cand(v, u);
                    if kv < best[v as usize] {
                        best[v as usize] = kv;
                    }
                }
            }
            BackendState::Csr(csr) => {
                if csr.precomputed {
                    // `best` *and* `choice` were produced by the previous
                    // step's fused pass under exactly this (policy,
                    // iteration): the steady-state choice pass is a no-op.
                    debug_assert_eq!(
                        csr.precomputed_for,
                        (policy, iteration),
                        "stale precomputed choice minima"
                    );
                    return;
                } else {
                    // Segmented-min sweep: one pass over the slot array,
                    // folding each row's candidates into its owner's best.
                    best.fill(KEY_SENTINEL);
                    for r in 0..csr.row_owner.len() {
                        let s = csr.row_ptr[r] as usize;
                        let e = s + csr.row_len[r] as usize;
                        if s == e {
                            continue;
                        }
                        let o = csr.row_owner[r] as usize;
                        let chooser = ids[o];
                        let mut b = best[o];
                        for &c in &csr.col[s..e] {
                            let w = stats.weight(crit, o, c as usize);
                            let (k0, k1) = tie_key(policy, iteration, chooser, ids[c as usize]);
                            let k = (w, k0, k1, c);
                            if k < b {
                                b = k;
                            }
                        }
                        best[o] = b;
                    }
                }
            }
        }
        for (c, b) in choice.iter_mut().zip(best.iter()) {
            *c = b.3;
        }
    }

    /// Merges every mutual pair; returns the number of merges.
    ///
    /// In the CSR steady state only the fused pass's `touched` owners can
    /// hold a choice (everyone else is `u32::MAX`), so the scan visits
    /// exactly those vertices — no O(vertices) sweep. The full scan
    /// remains for the reference backend, the first iteration, and when
    /// tracing (trace events are emitted in ascending-winner order, which
    /// the `touched` list does not guarantee; the merges themselves are a
    /// matching, so application order is otherwise irrelevant).
    fn apply_mutual_merges(&mut self, choice: &mut [u32]) -> u32 {
        let touched = match &mut self.backend {
            BackendState::Csr(csr) if csr.touched_valid && self.trace.is_none() => {
                Some(std::mem::take(&mut csr.touched))
            }
            _ => None,
        };
        let mut merges = 0u32;
        match &touched {
            Some(list) => {
                for &u in list {
                    merges += u32::from(self.try_merge(u, choice));
                }
            }
            None => {
                for u in 0..choice.len() as u32 {
                    merges += u32::from(self.try_merge(u, choice));
                }
            }
        }
        if let (Some(list), BackendState::Csr(csr)) = (touched, &mut self.backend) {
            csr.touched = list;
        }
        merges
    }

    /// Merges `x` with its choice if the choice is mutual; disarms
    /// `choice[winner]` afterwards so the pair cannot re-apply when the
    /// scan (or a duplicate `touched` entry) reaches the other endpoint.
    ///
    /// The check is bidirectional — either endpoint of a mutual pair
    /// triggers the merge — because the incremental fast pass only
    /// guarantees that at least one endpoint of any *new* mutual pair is
    /// in the dirty list, not which one. In full-scan (ascending) order
    /// the smaller endpoint is always reached first, so trace-event order
    /// is unchanged.
    #[inline]
    fn try_merge(&mut self, x: u32, choice: &mut [u32]) -> bool {
        let y = choice[x as usize];
        if y == u32::MAX || choice[y as usize] != x {
            return false;
        }
        let (u, v) = (x.min(y), x.max(y));
        if let Some(trace) = &mut self.trace {
            trace.events.push(MergeEvent {
                iteration: self.iterations,
                winner: u,
                loser: v,
                weight_fp16: self.stats.weight(self.criterion, u as usize, v as usize),
            });
        }
        // Representative = smaller dense index = smaller ID.
        self.stats.fold(u as usize, v as usize);
        let l = self.hot[v as usize];
        let hw = &mut self.hot[u as usize];
        hw.min = hw.min.min(l.min);
        hw.max = hw.max.max(l.max);
        self.redirect[v as usize] = u;
        self.pending_losers.push(v);
        self.history.union_min_rep(u, v);
        self.num_regions -= 1;
        choice[u as usize] = u32::MAX;
        true
    }

    /// Backend-specific step 4 (plus the CSR backend's choice prefetch).
    ///
    /// Reference: relabel endpoints through this iteration's redirects,
    /// drop self-loops and criterion-violating edges, re-sort and dedup —
    /// skipped on stall iterations (`merges == 0`), which change no
    /// statistic and no representative, so every edge survives unchanged.
    ///
    /// CSR: one [`Csr::fused_pass`] that performs the same relabel /
    /// filter / squeeze *and* folds the next iteration's choice minima
    /// into `best` under the policy the next step's prologue will select
    /// (the stall counter is already updated and `self.iterations` is the
    /// next step's index). On stall iterations the pass runs in
    /// choice-only mode: the re-randomised tie keys still demand a rescan,
    /// but no filtering work is counted — the reference backend does that
    /// same rescan inside its own choice pass.
    ///
    /// Returns `true` if the CSR backend reclaimed dead slots.
    fn end_of_step(&mut self, merges: u32) -> bool {
        let crit = self.criterion;
        let t = self.threshold;
        let mut compacted = false;
        let Self {
            backend,
            stats,
            hot,
            redirect,
            best,
            choice,
            tie,
            max_stall,
            stalls,
            iterations,
            pending_losers,
            relabel_ops,
            compactions,
            ..
        } = self;
        match backend {
            BackendState::Reference { edges } => {
                if merges > 0 {
                    let stats = &*stats;
                    let redirect = &*redirect;
                    let map = |&(u, v): &(u32, u32)| -> Option<(u32, u32)> {
                        let (mut a, mut b) = (redirect[u as usize], redirect[v as usize]);
                        if a == b {
                            return None;
                        }
                        if a > b {
                            std::mem::swap(&mut a, &mut b);
                        }
                        if stats.satisfies(crit, t, a as usize, b as usize) {
                            Some((a, b))
                        } else {
                            None
                        }
                    };
                    // Two endpoint maps per edge …
                    *relabel_ops += 2 * edges.len() as u64;
                    let mut next: Vec<(u32, u32)> = edges.iter().filter_map(map).collect();
                    next.sort_unstable();
                    // … plus the canonicalising sort (⌈log₂ E⌉ element
                    // moves per edge) and the dedup scan (one more) — the
                    // O(E log E) term the CSR backend exists to eliminate.
                    let e = next.len() as u64;
                    if e > 0 {
                        *relabel_ops += e * u64::from(e.ilog2() + 1) + e;
                    }
                    next.dedup();
                    *edges = next;
                }
            }
            BackendState::Csr(csr) => {
                let next_fallback =
                    matches!(*tie, TieBreak::Random { .. }) && *stalls >= *max_stall;
                let next_policy = if next_fallback {
                    TieBreak::SmallestId
                } else {
                    *tie
                };
                // Deterministic policies have iteration-independent tie
                // keys, so only the merged pairs' neighbourhoods can change
                // their choice: splice each loser's rows onto its winner
                // and run the incremental pass over the dirty set. Random
                // re-randomises every key each iteration — the full sweep
                // is mandatory (the reference backend pays the same sweep
                // inside its choice pass).
                let deterministic = !matches!(*tie, TieBreak::Random { .. });
                if deterministic {
                    for &v in pending_losers.iter() {
                        csr.splice(redirect[v as usize] as usize, v as usize);
                    }
                }
                let (ops, reclaimed) = if deterministic && csr.touched_valid {
                    csr.fast_pass(
                        stats,
                        hot,
                        crit,
                        t,
                        redirect,
                        pending_losers,
                        next_policy,
                        *iterations,
                        best,
                        choice,
                    )
                } else {
                    csr.fused_pass(
                        stats,
                        hot,
                        crit,
                        t,
                        redirect,
                        merges > 0,
                        next_policy,
                        *iterations,
                        best,
                        choice,
                    )
                };
                if merges > 0 {
                    *relabel_ops += ops;
                    if reclaimed > 0 {
                        *compactions += 1;
                        compacted = true;
                    }
                }
            }
        }
        // Reset redirects for the merged losers.
        for l in pending_losers.drain(..) {
            redirect[l as usize] = l;
        }
        compacted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Connectivity;
    use crate::split::split;
    use rg_imaging::synth;

    fn make_merger_on(t: u32, tie: TieBreak, backend: MergeBackend) -> Merger<u8> {
        let img = synth::figure1_image();
        let cfg = Config::with_threshold(t)
            .tie_break(tie)
            .merge_backend(backend);
        let s = split(&img, &cfg);
        let rag = Rag::from_split(&s, Connectivity::Four);
        let ids: Vec<u64> = s.squares.iter().map(|sq| sq.id(4) as u64).collect();
        Merger::new(rag, ids, &cfg)
    }

    fn make_merger(t: u32, tie: TieBreak) -> Merger<u8> {
        make_merger_on(t, tie, MergeBackend::Csr)
    }

    fn figure2_walkthrough(mut m: Merger<u8>) {
        assert_eq!(m.num_regions(), 7);

        let r1 = m.step();
        assert_eq!(r1.merges, 2);
        assert_eq!(m.num_regions(), 5);
        let labels = m.labels_by_vertex();
        assert_eq!(labels[5], 0); // B merged into A
        assert_eq!(labels[4], 2); // pixel 4 merged into pixel 3's region

        let r2 = m.step();
        assert_eq!(r2.merges, 1);
        assert_eq!(m.num_regions(), 4);
        assert_eq!(m.labels_by_vertex()[6], 3); // C merged into region 3

        let r3 = m.step();
        assert_eq!(r3.merges, 2);
        assert_eq!(m.num_regions(), 2);
        assert!(m.is_done());
        assert_eq!(r3.active_edges, 0);
        assert_eq!(m.iterations(), 3);

        let labels = m.labels_by_vertex();
        assert_eq!(labels, vec![0, 1, 1, 0, 1, 0, 0]);
        // Final stats: region 0 = {6..8} ∪ {5} ∪ {7,8} ∪ {5,6}, range 3.
        assert_eq!(m.stats_of(0).min, 5);
        assert_eq!(m.stats_of(0).max, 8);
        assert_eq!(m.stats_of(1).min, 1);
        assert_eq!(m.stats_of(1).max, 4);
    }

    #[test]
    fn figure2_walkthrough_smallest_id() {
        // Hand-verified against the paper's Figure 2 (see DESIGN.md):
        // start: 7 regions; iter 1 merges {0,5} and {2,4}; iter 2 merges
        // {3,6}; iter 3 merges {0,3} and {1,2}; done with 2 regions.
        figure2_walkthrough(make_merger(3, TieBreak::SmallestId));
    }

    #[test]
    fn figure2_walkthrough_reference_backend() {
        figure2_walkthrough(make_merger_on(
            3,
            TieBreak::SmallestId,
            MergeBackend::Reference,
        ));
    }

    #[test]
    fn csr_matches_reference_on_synthetic_images() {
        for (name, img) in [
            ("circles", synth::circle_collection(48)),
            ("rects", synth::random_rects(64, 40, 11, 5)),
            ("nested", synth::nested_rects(32)),
        ] {
            for tie in [
                TieBreak::SmallestId,
                TieBreak::LargestId,
                TieBreak::Random { seed: 17 },
            ] {
                let run = |backend: MergeBackend| {
                    let cfg = Config::with_threshold(12)
                        .tie_break(tie)
                        .merge_backend(backend);
                    let s = split(&img, &cfg);
                    let rag = Rag::from_split(&s, Connectivity::Four);
                    let stride = s.width as u32;
                    let ids: Vec<u64> = s.squares.iter().map(|sq| sq.id(stride) as u64).collect();
                    let mut m = Merger::new(rag, ids, &cfg);
                    m.enable_trace();
                    let summary = m.run();
                    let trace = m.take_trace().unwrap();
                    (summary, trace, m.labels_by_vertex())
                };
                let csr = run(MergeBackend::Csr);
                let reference = run(MergeBackend::Reference);
                assert_eq!(csr, reference, "{name} {tie:?}");
            }
        }
    }

    #[test]
    fn compaction_triggers_and_preserves_parity() {
        // Merge-only on a uniform image: singleton squares collapse to one
        // region over many iterations, shedding edges fast enough to force
        // several compaction passes.
        let img: rg_imaging::Image<u8> = rg_imaging::Image::new(32, 32, 50);
        let run = |backend: MergeBackend| {
            let cfg = Config::with_threshold(0)
                .tie_break(TieBreak::SmallestId)
                .max_square_log2(Some(0))
                .merge_backend(backend);
            let s = split(&img, &cfg);
            let rag = Rag::from_split(&s, Connectivity::Four);
            let ids: Vec<u64> = s.squares.iter().map(|sq| sq.id(32) as u64).collect();
            let mut m = Merger::new(rag, ids, &cfg);
            let summary = m.run();
            (
                summary,
                m.labels_by_vertex(),
                m.compactions(),
                m.relabel_work(),
            )
        };
        let (s_csr, l_csr, compactions, work_csr) = run(MergeBackend::Csr);
        let (s_ref, l_ref, _, work_ref) = run(MergeBackend::Reference);
        assert_eq!(s_csr, s_ref);
        assert_eq!(l_csr, l_ref);
        assert!(compactions > 0, "expected at least one compaction pass");
        assert!(
            work_csr <= work_ref,
            "CSR relabel work {work_csr} exceeds reference {work_ref}"
        );
    }

    #[test]
    fn step_reports_active_edges_monotone_under_smallest_id() {
        let mut m = make_merger(3, TieBreak::SmallestId);
        let mut prev = m.active_edges() as u64;
        let peak0 = m.peak_active_edges();
        assert_eq!(peak0, prev);
        while !m.is_done() {
            let r = m.step();
            assert!(r.active_edges <= prev, "active edges must not grow");
            prev = r.active_edges;
        }
        assert_eq!(m.peak_active_edges(), peak0);
    }

    #[test]
    fn random_seeds_are_deterministic() {
        let run = |seed| {
            let mut m = make_merger(3, TieBreak::Random { seed });
            m.run();
            m.labels_by_vertex()
        };
        assert_eq!(run(1), run(1));
        assert_eq!(run(2), run(2));
    }

    #[test]
    fn smallest_id_always_progresses() {
        // A ring of equal-intensity singleton regions: every edge has equal
        // weight, the worst case for ties. Smallest-ID must still merge at
        // least one pair per iteration.
        let img = synth::checkerboard(16, 1, 100, 100); // uniform, actually
        let cfg = Config::with_threshold(0)
            .tie_break(TieBreak::SmallestId)
            .max_square_log2(Some(0));
        let s = split(&img, &cfg);
        let rag = Rag::from_split(&s, Connectivity::Four);
        let ids: Vec<u64> = s.squares.iter().map(|sq| sq.id(16) as u64).collect();
        let mut m = Merger::new(rag, ids, &cfg);
        while !m.is_done() {
            let r = m.step();
            assert!(r.merges >= 1, "smallest-ID iteration with zero merges");
        }
        assert_eq!(m.num_regions(), 1);
    }

    #[test]
    fn random_ties_merge_faster_on_tie_heavy_input() {
        // Uniform image, merge-only: every edge weight is 0, so every
        // choice is a tie. Random tie-breaking should finish in fewer
        // iterations than smallest-ID (the paper's central claim).
        let img: rg_imaging::Image<u8> = rg_imaging::Image::new(32, 32, 50);
        let run = |tie| {
            let cfg = Config::with_threshold(0)
                .tie_break(tie)
                .max_square_log2(Some(0));
            let s = split(&img, &cfg);
            let rag = Rag::from_split(&s, Connectivity::Four);
            let ids: Vec<u64> = s.squares.iter().map(|sq| sq.id(32) as u64).collect();
            let mut m = Merger::new(rag, ids, &cfg);
            let summary = m.run();
            assert_eq!(summary.num_regions, 1);
            summary.iterations
        };
        let random = run(TieBreak::Random { seed: 42 });
        let smallest = run(TieBreak::SmallestId);
        assert!(
            random < smallest,
            "random ({random}) should beat smallest-ID ({smallest})"
        );
    }

    #[test]
    fn no_active_edges_means_zero_iterations() {
        let mut m = make_merger(0, TieBreak::SmallestId);
        // T = 0: which edges are active? Only pairs with identical
        // min=max. Figure-1 squares have ranges > 0, so most edges die;
        // run must terminate quickly regardless.
        let summary = m.run();
        assert_eq!(
            summary.iterations as usize,
            summary.merges_per_iteration.len()
        );
    }

    #[test]
    fn tie_priority_spreads() {
        // Sanity: the hash separates close inputs.
        let a = tie_priority(0, 0, 1, 2);
        let b = tie_priority(0, 0, 1, 3);
        let c = tie_priority(0, 1, 1, 2);
        let d = tie_priority(1, 0, 1, 2);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn choice_key_matches_tie_key() {
        let k = choice_key(TieBreak::Random { seed: 5 }, 2, 10, 20, 7, 3);
        let (k0, k1) = tie_key(TieBreak::Random { seed: 5 }, 2, 10, 20);
        assert_eq!(k, (7, k0, k1, 3));
    }

    #[test]
    fn merge_summary_consistency() {
        let mut m = make_merger(3, TieBreak::Random { seed: 9 });
        let start = m.num_regions();
        let summary = m.run();
        let merged: u32 = summary.merges_per_iteration.iter().sum();
        assert_eq!(start - merged as usize, summary.num_regions);
    }
}
