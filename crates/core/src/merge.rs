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
//! ### The engine
//!
//! [`Merger`] keeps flat per-region adjacency in the spirit of the CM
//! implementations' flat arrays. Every region owns one contiguous segment
//! of a single slot arena, holding the current representatives of its
//! neighbours. One kernel, `Csr::rescan`, does all the per-owner work for
//! a list of owners: it redirects each slot through the iteration's
//! one-level redirect table (exact, because a representative never loses
//! in the iteration it wins), drops self-loops, per-owner duplicates and
//! criterion-violating slots, squeezes the survivors, and folds the next
//! iteration's `(weight, tie keys, id)` argmin. A region that won this
//! iteration reads its own segment and its loser's and writes the
//! survivors to the arena tail; every other owner is squeezed in place.
//! When the tail would overflow, the same pass rewrites every live owner
//! into a spare arena and the two swap. The kernel runs on every region
//! with slots at a reset, which folds iteration 0's choices; after each
//! iteration it runs on every live owner under random ties (whose keys
//! change every iteration) and, under deterministic ties, only on the
//! merged pairs and their neighbours (no other ranking can change). No
//! per-iteration edge-list rebuild, no global sort and no steady-state
//! allocation.
//!
//! The differential oracle is [`crate::merge_ref::merge_reference`]: the
//! same algorithm over one edge list that is rebuilt, re-sorted and
//! re-deduped every iteration. It is a separate function for tests and
//! for the baseline rows of `BENCH_merge.json`, not a mode of this engine.
//!
//! ### Resets
//!
//! A reset applies the paper's step 2 (drop the edges that violate the
//! criterion) while it fills the CSR. [`Merger::reset_from_split`]
//! takes a split's edges straight from the square-perimeter walk
//! ([`crate::graph::square_forward_neighbours`]): each pair is tested as
//! the walk finds it, and the CSR counts the survivors' degrees and lays
//! them out as per-region segments, so no edge list exists.
//! [`Merger::reset_from`] does the same from an edge list, for graphs that
//! only exist as one (the tiled stitch's seam RAG, [`Merger::new`]).
//! Stamp tokens and dirty-set epochs keep counting up across resets, so a
//! reset rewrites neither per-vertex array.
//!
//! The engine and the oracle produce byte-identical merge histories: the
//! candidate argmin is order-invariant (strict total order per chooser,
//! see `prop_tiebreak.rs`), duplicate parallel edges never change a
//! minimum, and the engine filters criterion-violating slots *eagerly* at
//! the end of each iteration — exactly when the oracle filters — so the
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

use std::marker::PhantomData;

use crate::config::{
    mean_satisfies, mean_weight_fp16, range_satisfies, range_weight_fp16, Config, Criterion,
    RegionStats, TieBreak,
};
use crate::graph::{square_forward_neighbours, Rag};
use crate::hierarchy::{MergeEvent, MergeTrace};
use crate::split::SplitResult;
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
/// under any scan order — the property every engine's segmented-min
/// relies on.
pub type CandKey = (u64, u64, u64, u32);

/// Identity element of the [`CandKey`] min-fold ("no candidate seen").
pub(crate) const KEY_SENTINEL: CandKey = (u64::MAX, u64::MAX, u64::MAX, u32::MAX);

/// Builds the full [`CandKey`] for one directed candidate. Shared by the
/// reference merge and the message-passing engine so every implementation
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
    /// Active undirected edges remaining *after* this iteration.
    pub active_edges: u64,
    /// `true` when the engine compacted its slot arena this iteration.
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

/// Region statistics in structure-of-arrays layout, one entry per vertex
/// and current at representatives: the pixel-range extrema with the
/// canonical ID in `hot`, the mean-difference sums in `sum`/`cnt`, so each
/// criterion's kernels touch only the fields they need.
#[derive(Debug, Default)]
struct SoaStats {
    hot: Vec<HotVertex>,
    sum: Vec<u64>,
    cnt: Vec<u64>,
}

impl SoaStats {
    /// Re-fills the SoA in place from an AoS slice and the parallel
    /// canonical IDs, reusing capacity.
    fn refill<P: Intensity>(&mut self, stats: &[RegionStats<P>], ids: impl Iterator<Item = u64>) {
        self.hot.clear();
        self.hot
            .extend(stats.iter().zip(ids).map(|(s, id)| HotVertex {
                min: s.min.to_u32(),
                max: s.max.to_u32(),
                id,
            }));
        self.sum.clear();
        self.sum.extend(stats.iter().map(|s| s.sum));
        self.cnt.clear();
        self.cnt.extend(stats.iter().map(|s| s.count));
    }

    /// 16.16 fixed-point merge weight of regions `a` and `b`.
    #[inline]
    fn weight(&self, crit: Criterion, a: usize, b: usize) -> u64 {
        match crit {
            Criterion::PixelRange => {
                let (x, y) = (self.hot[a], self.hot[b]);
                range_weight_fp16(x.min.min(y.min), x.max.max(y.max))
            }
            Criterion::MeanDifference => {
                mean_weight_fp16(self.sum[a], self.cnt[a], self.sum[b], self.cnt[b])
            }
        }
    }

    /// `true` iff merging `a` and `b` satisfies the criterion at `t`.
    #[inline]
    fn satisfies(&self, crit: Criterion, t: u32, a: usize, b: usize) -> bool {
        match crit {
            Criterion::PixelRange => {
                let (x, y) = (self.hot[a], self.hot[b]);
                range_satisfies(x.min.min(y.min), x.max.max(y.max), t)
            }
            Criterion::MeanDifference => {
                mean_satisfies(self.sum[a], self.cnt[a], self.sum[b], self.cnt[b], t)
            }
        }
    }

    /// Folds `loser`'s statistics into `winner` (region union).
    #[inline]
    fn fold(&mut self, winner: usize, loser: usize) {
        let l = self.hot[loser];
        let w = &mut self.hot[winner];
        w.min = w.min.min(l.min);
        w.max = w.max.max(l.max);
        self.sum[winner] += self.sum[loser];
        self.cnt[winner] += self.cnt[loser];
    }
}

/// Hot per-vertex record: the pixel-range extrema and the canonical
/// tie-break ID packed into one 16-byte slot, so ranking a candidate costs
/// a single gather instead of three.
#[derive(Debug, Clone, Copy)]
struct HotVertex {
    /// Current region minimum, widened to `u32`.
    min: u32,
    /// Current region maximum, widened to `u32`.
    max: u32,
    /// Canonical region ID (see [`crate::split::Square::id`]).
    id: u64,
}

/// Arena capacity in multiples of the initial slot count. Live slots never
/// exceed the initial count, so a compaction leaves at least twice that
/// much room free. Under deterministic ties each compaction is a full
/// rescan; with a factor of 2 instead of 3 they came often enough to cost
/// more relabel work than the reset-time rescan saves (`BENCH_merge.json`,
/// `rects/smallest_id`).
const ARENA_FACTOR: usize = 3;

/// The CSR adjacency state plus all persistent scratch, so steady-state
/// iterations perform no heap allocation.
#[derive(Debug, Default)]
struct Csr {
    /// Start of each region's segment in `col`.
    start: Vec<u32>,
    /// Live slots of each region's segment (0 for merged losers and for
    /// regions without active edges).
    len: Vec<u32>,
    /// The slot arena: `col[start[v] .. start[v] + len[v]]` holds the
    /// current representatives of region `v`'s neighbours. Winners append
    /// at the end, so `col.len()` is the arena's tail.
    col: Vec<u32>,
    /// The arena a compaction rewrites into; swapped with `col` after.
    spare: Vec<u32>,
    /// Slots either arena may hold: `ARENA_FACTOR` times the initial slot
    /// count, reserved up front so appends never reallocate.
    cap: usize,
    /// Number of live directed slots (`== len` sum).
    live: usize,
    /// The owners the next rescan visits, each at most once. After a
    /// rescan: the visited owners that kept a slot, which are exactly the
    /// regions that can hold a choice, so the apply step scans only them.
    owners: Vec<u32>,
    /// Epoch marks backing the deterministic-tie dirty set. Marks persist
    /// across resets; the array grows (zero-filling only its new tail) the
    /// first time a graph with more vertices is marked.
    dirty_epoch: Vec<u32>,
    /// The last epoch handed to `dirty_epoch`; strictly increasing, so a
    /// stale mark never equals a fresh one.
    epoch: u32,
    /// Per-neighbour stamp for per-owner duplicate detection; a fresh
    /// token per (owner, pass) makes the check exact with no clearing.
    /// Tokens persist across resets; only a growing graph zero-fills the
    /// new tail.
    stamp: Vec<u64>,
    /// The last stamp token handed out (monotonically increasing; tokens
    /// start above it, so none is 0, the zero-filled tail's value).
    next_token: u64,
}

impl Csr {
    /// Starts a rebuild over `n` vertices: zero degrees and an empty
    /// survivor list. Feed every surviving canonical pair (`u < v`, unique)
    /// to [`Csr::keep`], then lay them out with [`Csr::place`].
    fn begin(&mut self, n: usize) {
        self.len.clear();
        self.len.resize(n, 0);
        self.spare.clear();
    }

    /// Keeps the undirected edge `(u, v)`: counts both endpoints' degrees
    /// and stages the pair in the spare arena, which is idle until the
    /// first compaction and is reserved for three times these slots
    /// anyway.
    #[inline]
    fn keep(&mut self, u: u32, v: u32) {
        self.len[u as usize] += 1;
        self.len[v as usize] += 1;
        self.spare.extend([u, v]);
    }

    /// Lays the staged pairs out **in place**, reusing every array's
    /// capacity: one segment per vertex, in vertex order, and every vertex
    /// with slots queued for the first rescan.
    fn place(&mut self) {
        let n = self.len.len();
        let slots = self.spare.len();
        self.cap = ARENA_FACTOR * slots;
        assert!(self.cap < u32::MAX as usize, "CSR slot count exceeds u32");
        // `start` is the scatter's fill cursor: it begins one past each
        // segment's end and counts down to the segment's start.
        self.start.clear();
        let mut end = 0u32;
        self.start.extend(self.len.iter().map(|&l| {
            end += l;
            end
        }));
        self.col.clear();
        self.col.reserve(self.cap);
        self.col.resize(slots, 0);
        for p in self.spare.chunks_exact(2) {
            let (u, v) = (p[0], p[1]);
            self.start[u as usize] -= 1;
            self.col[self.start[u as usize] as usize] = v;
            self.start[v as usize] -= 1;
            self.col[self.start[v as usize] as usize] = u;
        }
        self.spare.clear();
        self.spare.reserve(self.cap);
        self.live = slots;
        self.owners.clear();
        let len = &self.len;
        self.owners
            .extend((0..n as u32).filter(|&v| len[v as usize] > 0));
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
    }

    /// Queues the deterministic-tie dirty set for the next rescan: this
    /// iteration's losers, their winners, and every neighbour of either.
    ///
    /// Deterministic tie keys do not depend on the iteration, a region's
    /// statistics change only when it merges, and a slot's endpoints
    /// change only when one of them merges. So an owner outside this set
    /// has an unchanged candidate list, unchanged weights and an unchanged
    /// ranking, and its `choice` stays exact. A new mutual pair must
    /// involve an owner whose choice changed (two unchanged mutual choices
    /// would have merged an iteration earlier), so the apply step needs
    /// only the owners the rescan keeps.
    ///
    /// Each call marks with a fresh epoch from the CSR's own counter, so
    /// marks left by earlier calls, earlier graphs included, never match.
    fn mark_dirty(&mut self, losers: &[u32], redirect: &[u32]) {
        let n = self.len.len();
        if self.epoch == u32::MAX {
            // Counter exhausted: start over from clean marks.
            self.dirty_epoch.fill(0);
            self.epoch = 0;
        }
        if self.dirty_epoch.len() < n {
            self.dirty_epoch.resize(n, 0);
        }
        self.epoch += 1;
        let epoch = self.epoch;
        self.owners.clear();
        for &v in losers {
            self.mark(v, epoch);
            self.mark(redirect[v as usize], epoch);
        }
        for i in 0..self.owners.len() {
            let d = self.owners[i] as usize;
            let s = self.start[d] as usize;
            for j in s..s + self.len[d] as usize {
                self.mark(redirect[self.col[j] as usize], epoch);
            }
        }
    }

    #[inline]
    fn mark(&mut self, x: u32, epoch: u32) {
        if self.dirty_epoch[x as usize] != epoch {
            self.dirty_epoch[x as usize] = epoch;
            self.owners.push(x);
        }
    }

    /// The end-of-step kernel. For every queued owner it
    ///
    /// 1. resets the owner's `choice`, and skips it if it lost this
    ///    iteration (its winner reads its segment);
    /// 2. reads the owner's segment and, if it won this iteration, its
    ///    loser's; the winner's `choice` still names its loser (see
    ///    [`Merger::try_merge`]);
    /// 3. redirects every slot through the one-level `redirect` (exact,
    ///    because an iteration's mutual pairs form a matching), and drops
    ///    self-loops, duplicate neighbours and neighbours whose union
    ///    would violate the criterion;
    /// 4. writes the survivors to the arena tail if it won, or squeezes
    ///    them in place otherwise;
    /// 5. folds the survivors' `(weight, tie keys, id)` argmin under
    ///    `policy` at `iteration` (the next step's) into `choice`, so the
    ///    next choice pass is a table read.
    ///
    /// If the winners' appends might not fit in the arena's capacity,
    /// every live owner is queued instead and rewritten into the spare
    /// arena, which then becomes the arena. Afterwards `owners` holds the
    /// visited owners that kept a slot.
    ///
    /// Dropping a duplicate slot is free of semantic effect: the argmin is
    /// invariant under duplicates, the criterion filter would kill every
    /// copy together, and at least one copy per direction always survives.
    ///
    /// Returns `(slots read, compacted)`.
    #[allow(clippy::too_many_arguments)]
    fn rescan(
        &mut self,
        stats: &SoaStats,
        crit: Criterion,
        t: u32,
        redirect: &[u32],
        losers: &[u32],
        policy: TieBreak,
        iteration: u32,
        choice: &mut [u32],
    ) -> (u64, bool) {
        match crit {
            Criterion::PixelRange => {
                // `range_weight_fp16` is exactly the union range in 16.16,
                // so the criterion test is a comparison of the weight the
                // ranking needs anyway against `threshold << 16` — one
                // extrema gather serves both filter and argmin.
                let cut = u64::from(t) << 16;
                self.rescan_impl(
                    &stats.hot,
                    redirect,
                    losers,
                    policy,
                    iteration,
                    choice,
                    |o, c| stats.weight(Criterion::PixelRange, o, c),
                    |_, _, wk| wk <= cut,
                )
            }
            Criterion::MeanDifference => self.rescan_impl(
                &stats.hot,
                redirect,
                losers,
                policy,
                iteration,
                choice,
                |o, c| stats.weight(Criterion::MeanDifference, o, c),
                // Floor division makes the 16.16 mean distance an inexact
                // proxy for the criterion; keep the exact integer predicate.
                |o, c, _| stats.satisfies(Criterion::MeanDifference, t, o, c),
            ),
        }
    }

    /// Criterion-monomorphised body of [`Csr::rescan`]: `weight(o, c)`
    /// ranks a candidate, `keeps(o, c, weight)` is the de-activation
    /// predicate (both are loop-invariant closures, so the inner loop
    /// specialises per criterion with no per-slot dispatch).
    #[allow(clippy::too_many_arguments)]
    fn rescan_impl<W, K>(
        &mut self,
        hot: &[HotVertex],
        redirect: &[u32],
        losers: &[u32],
        policy: TieBreak,
        iteration: u32,
        choice: &mut [u32],
        weight: W,
        keeps: K,
    ) -> (u64, bool)
    where
        W: Fn(usize, usize) -> u64,
        K: Fn(usize, usize, u64) -> bool,
    {
        let n = self.len.len();
        // Each winner appends at most its pair's slots.
        let appends: usize = losers
            .iter()
            .map(|&v| (self.len[v as usize] + self.len[redirect[v as usize] as usize]) as usize)
            .sum();
        let compact = self.col.len() + appends > self.cap;
        if compact {
            std::mem::swap(&mut self.col, &mut self.spare);
            self.col.clear();
            self.owners.clear();
            let len = &self.len;
            self.owners
                .extend((0..n as u32).filter(|&v| len[v as usize] > 0));
        }
        // Token `base + o` is unique to (pass, owner `o`) and above every
        // earlier token, so `stamp[c] == token` dedups the owner's
        // neighbours across both segments it reads.
        let base = self.next_token + 1;
        self.next_token += n as u64;
        let mut ops = 0u64;
        let mut kept_owners = 0;
        for i in 0..self.owners.len() {
            let o = self.owners[i] as usize;
            let mate = choice[o];
            choice[o] = u32::MAX;
            if redirect[o] as usize != o {
                continue;
            }
            let won = mate != u32::MAX && redirect[mate as usize] as usize == o;
            let own = (self.start[o] as usize, self.len[o] as usize);
            let absorbed = if won {
                let m = mate as usize;
                let seg = (self.start[m] as usize, self.len[m] as usize);
                self.len[m] = 0;
                seg
            } else {
                (0, 0)
            };
            let moved = compact || won;
            let dst = if moved { self.col.len() } else { own.0 };
            let token = base + o as u64;
            let chooser = hot[o].id;
            let mut b = KEY_SENTINEL;
            // In place, the write cursor never passes the read cursor; a
            // moving owner writes behind every segment.
            let mut w = dst;
            for (s, len) in [own, absorbed] {
                for j in s..s + len {
                    let c = if compact { self.spare[j] } else { self.col[j] };
                    let c = redirect[c as usize] as usize;
                    if c == o || self.stamp[c] == token {
                        continue;
                    }
                    let wk = weight(o, c);
                    if !keeps(o, c, wk) {
                        continue;
                    }
                    self.stamp[c] = token;
                    if moved {
                        self.col.push(c as u32);
                    } else {
                        self.col[w] = c as u32;
                    }
                    w += 1;
                    let (k0, k1) = tie_key(policy, iteration, chooser, hot[c].id);
                    b = b.min((wk, k0, k1, c as u32));
                }
            }
            let read = own.1 + absorbed.1;
            let kept = w - dst;
            ops += read as u64;
            self.live -= read - kept;
            self.start[o] = dst as u32;
            self.len[o] = kept as u32;
            choice[o] = b.3; // `u32::MAX` when no candidate survived
            if kept > 0 {
                self.owners[kept_owners] = o as u32;
                kept_owners += 1;
            }
        }
        self.owners.truncate(kept_owners);
        (ops, compact)
    }
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

    /// Region statistics and canonical IDs, current at representative
    /// indices.
    stats: SoaStats,
    /// The per-region adjacency segments.
    csr: Csr,
    /// Full merge history (original vertex → representative).
    history: DisjointSets,
    /// One-iteration redirect table (identity outside merged losers).
    redirect: Vec<u32>,
    /// Losers of the current iteration, pending redirect reset.
    pending_losers: Vec<u32>,

    /// Persistent scratch: per-representative chosen neighbour.
    choice: Vec<u32>,
    /// Persistent scratch: the perimeter walk's per-square neighbour list
    /// (see [`Merger::reset_from_split`]).
    neighbours: Vec<u32>,

    iterations: u32,
    merges_per_iteration: Vec<u32>,
    num_regions: usize,
    stalls: u32,
    trace: Option<MergeTrace>,

    /// Total slot reads of the end-of-step rescans after productive
    /// iterations (the counter the CI perf-smoke guard compares against
    /// the reference merge's).
    relabel_ops: u64,
    /// Maximum of [`Merger::active_edges`] observed over the run.
    peak_active_edges: u64,
    /// Number of CSR arena compactions performed.
    compactions: u64,
    _pixel: PhantomData<P>,
}

impl<P: Intensity> Merger<P> {
    /// Creates the engine. `ids[v]` is the canonical ID of dense vertex
    /// `v`; IDs must be strictly increasing (raster order of the regions).
    ///
    /// Edges of `rag` that do not satisfy the criterion are de-activated
    /// immediately (the paper's step 2).
    pub fn new(rag: Rag<'_, P>, ids: Vec<u64>, config: &Config) -> Self {
        let mut m = Self::hollow(config);
        m.reset_from(&rag.stats, &rag.edges, &ids, config);
        m
    }

    /// A merger with every buffer empty; must be initialised by
    /// [`Merger::reset_from`] or [`Merger::reset_from_split`] before
    /// stepping.
    pub(crate) fn hollow(config: &Config) -> Self {
        Self {
            threshold: config.threshold,
            criterion: config.criterion,
            tie: config.tie_break,
            max_stall: config.max_stall,
            stats: SoaStats::default(),
            csr: Csr::default(),
            history: DisjointSets::new(0),
            redirect: Vec::new(),
            pending_losers: Vec::new(),
            choice: Vec::new(),
            neighbours: Vec::new(),
            iterations: 0,
            merges_per_iteration: Vec::new(),
            num_regions: 0,
            stalls: 0,
            trace: None,
            relabel_ops: 0,
            peak_active_edges: 0,
            compactions: 0,
            _pixel: PhantomData,
        }
    }

    /// Re-initialises the engine **in place** for a new graph, reusing
    /// every internal buffer's capacity: in steady state (same-shape
    /// graphs through one merger) this performs **zero** heap allocations.
    ///
    /// Semantically equivalent to `*self = Merger::new(rag, ids, config)` —
    /// edges that do not satisfy the criterion are de-activated immediately
    /// (the paper's step 2) and any enabled trace is dropped.
    pub fn reset_from(
        &mut self,
        stats: &[RegionStats<P>],
        edges: &[(u32, u32)],
        ids: &[u64],
        config: &Config,
    ) {
        assert_eq!(ids.len(), stats.len(), "ids length mismatch");
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must increase");
        self.begin_reset(stats, ids.iter().copied(), config);
        let (crit, t) = (self.criterion, self.threshold);
        let Self { stats, csr, .. } = self;
        for &(u, v) in edges {
            if stats.satisfies(crit, t, u as usize, v as usize) {
                csr.keep(u, v);
            }
        }
        self.finish_reset();
    }

    /// [`Merger::reset_from`] for the squares of a split, without an edge
    /// list: region IDs are [`crate::split::Square::id`], and the criterion
    /// filter runs inside the perimeter walk
    /// ([`crate::graph::square_forward_neighbours`]), so only the pairs
    /// that survive it reach the CSR. Equivalent to
    /// `reset_from` over [`Rag::from_split`] with those IDs.
    pub fn reset_from_split(&mut self, split: &SplitResult<P>, config: &Config) {
        let stride = split.width as u32;
        let ids = split.squares.iter().map(|s| u64::from(s.id(stride)));
        self.begin_reset(&split.stats, ids, config);
        let (crit, t) = (self.criterion, self.threshold);
        let Self {
            stats,
            csr,
            neighbours,
            ..
        } = self;
        square_forward_neighbours(split, config.connectivity, neighbours, |u, nb| {
            for &v in nb {
                if stats.satisfies(crit, t, u as usize, v as usize) {
                    csr.keep(u, v);
                }
            }
        });
        self.finish_reset();
    }

    /// The shared first half of a reset: configuration, statistics, the
    /// per-vertex state and an empty CSR ready for its edges.
    fn begin_reset(
        &mut self,
        stats: &[RegionStats<P>],
        ids: impl Iterator<Item = u64>,
        config: &Config,
    ) {
        let n = stats.len();
        self.threshold = config.threshold;
        self.criterion = config.criterion;
        self.tie = config.tie_break;
        self.max_stall = config.max_stall;
        self.stats.refill(stats, ids);
        self.history.reset(n);
        self.redirect.clear();
        self.redirect.extend(0..n as u32);
        self.pending_losers.clear();
        self.choice.clear();
        self.choice.resize(n, u32::MAX);
        self.iterations = 0;
        self.merges_per_iteration.clear();
        self.num_regions = n;
        self.stalls = 0;
        self.trace = None;
        self.relabel_ops = 0;
        self.compactions = 0;
        self.csr.begin(n);
    }

    /// The shared second half of a reset, once the CSR has staged every
    /// edge that satisfies the criterion: lay out the segments and fold
    /// iteration 0's choices with the end-of-step kernel over every region
    /// with slots.
    fn finish_reset(&mut self) {
        let policy = self.policy().0;
        self.csr.place();
        self.peak_active_edges = self.csr.live as u64 / 2;
        self.csr.rescan(
            &self.stats,
            self.criterion,
            self.threshold,
            &self.redirect,
            &[],
            policy,
            0,
            &mut self.choice,
        );
    }

    /// Starts recording a [`MergeTrace`] (call before the first step).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(MergeTrace::new(self.stats.hot.len()));
        }
    }

    /// Takes the recorded trace, if tracing was enabled.
    pub fn take_trace(&mut self) -> Option<MergeTrace> {
        self.trace.take()
    }

    /// `true` when no active edges remain.
    pub fn is_done(&self) -> bool {
        self.csr.live == 0
    }

    /// Active undirected edge count: half the live directed slot count.
    /// The rescan dedups every owner it visits, so this equals the
    /// reference merge's deduplicated edge list.
    pub fn active_edges(&self) -> usize {
        self.csr.live / 2
    }

    /// Total edge-relabel data movement performed so far — the counter the
    /// CI perf-smoke guard compares against
    /// [`crate::merge_ref::ReferenceMerge::relabel_work`]: one op per slot
    /// the end-of-step rescan reads after a productive iteration (every
    /// live slot under random ties, the merged pairs' and their
    /// neighbours' slots under deterministic ties, every live slot when
    /// the arena compacts).
    pub fn relabel_work(&self) -> u64 {
        self.relabel_ops
    }

    /// Maximum active-edge count observed over the run.
    pub fn peak_active_edges(&self) -> u64 {
        self.peak_active_edges
    }

    /// Times the engine rewrote its live slots into the spare arena
    /// because the winners' appends might not fit.
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
        let i = rep as usize;
        let h = self.stats.hot[i];
        // Exact: the extrema were widened from `P` values.
        RegionStats {
            min: P::from_u32_saturating(h.min),
            max: P::from_u32_saturating(h.max),
            sum: self.stats.sum[i],
            count: self.stats.cnt[i],
        }
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
    /// [`Merger::step`]) the guards emit nothing. The choices were folded
    /// by the previous rescan, so the `Choice` span is empty; it stays so
    /// the journal keeps one span per phase.
    ///
    /// The caller is expected to hold the enclosing
    /// [`SpanKind::MergeIteration`] span open around this call (the host
    /// backend's merge stage does, through
    /// [`crate::driver::MergeCx::iteration`]).
    pub fn step_traced(&mut self, tel: &mut dyn Telemetry) -> StepReport {
        if self.is_done() {
            return StepReport {
                merges: 0,
                used_fallback: false,
                active_edges: 0,
                compacted: false,
            };
        }
        let used_fallback = self.policy().1;
        {
            let _span = SpanGuard::enter(&mut *tel, SpanKind::Choice);
        }
        let merges = {
            let _span = SpanGuard::enter(&mut *tel, SpanKind::Apply);
            let mut choice = std::mem::take(&mut self.choice);
            let merges = self.apply_mutual_merges(&mut choice);
            self.choice = choice;
            merges
        };
        // Advance the iteration/stall counters *before* the end-of-step
        // pass: it folds the next iteration's choice minima in the same
        // sweep, and needs the next step's policy and index.
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

    /// The tie policy of the iteration about to run, and whether it is
    /// the stall guard's fallback: under random ties, [`Config::max_stall`]
    /// consecutive empty iterations force one smallest-ID iteration.
    fn policy(&self) -> (TieBreak, bool) {
        let fallback = matches!(self.tie, TieBreak::Random { .. }) && self.stalls >= self.max_stall;
        (
            if fallback {
                TieBreak::SmallestId
            } else {
                self.tie
            },
            fallback,
        )
    }

    /// Merges every mutual pair; returns the number of merges.
    ///
    /// Only the owners the last rescan kept can hold a choice (everyone
    /// else is `u32::MAX`), so an untraced scan visits exactly those
    /// vertices — no O(vertices) sweep. Traced runs scan every vertex in
    /// ascending order, because trace events are emitted in
    /// ascending-winner order, which the owner list does not guarantee;
    /// the merges themselves are a matching, so application order is
    /// otherwise irrelevant.
    fn apply_mutual_merges(&mut self, choice: &mut [u32]) -> u32 {
        let mut merges = 0u32;
        if self.trace.is_some() {
            for u in 0..choice.len() as u32 {
                merges += u32::from(self.try_merge(u, choice));
            }
        } else {
            let owners = std::mem::take(&mut self.csr.owners);
            for &u in &owners {
                merges += u32::from(self.try_merge(u, choice));
            }
            self.csr.owners = owners;
        }
        merges
    }

    /// Merges `x` with its choice if the choice is mutual; disarms the
    /// loser's `choice` afterwards so the pair cannot re-apply when the
    /// scan reaches the other endpoint. The winner's `choice` keeps naming
    /// its loser: the CSR rescan reads it to find the segment to absorb.
    ///
    /// The check is bidirectional — either endpoint of a mutual pair
    /// triggers the merge — because the deterministic-tie rescan only
    /// guarantees that at least one endpoint of any *new* mutual pair is
    /// in the owner list, not which one. In full-scan (ascending) order
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
        self.redirect[v as usize] = u;
        self.pending_losers.push(v);
        self.history.union_min_rep(u, v);
        self.num_regions -= 1;
        choice[v as usize] = u32::MAX;
        true
    }

    /// Step 4 plus the next iteration's choices: one [`Csr::rescan`] that
    /// relabels, filters and squeezes the slots *and* folds the next
    /// iteration's choices into `choice` under the policy the next step
    /// will use (the stall counter is already updated and
    /// `self.iterations` is the next step's index). Random ties
    /// re-randomise every key each iteration, so every live owner is
    /// rescanned; the reference merge pays the same sweep inside its
    /// choice pass, so a stall iteration's rescan counts no relabel work.
    /// Deterministic ties rescan only the dirty set ([`Csr::mark_dirty`]).
    ///
    /// Returns `true` if the arena compacted.
    fn end_of_step(&mut self, merges: u32) -> bool {
        let policy = self.policy().0;
        let csr = &mut self.csr;
        if !matches!(self.tie, TieBreak::Random { .. }) {
            csr.mark_dirty(&self.pending_losers, &self.redirect);
        }
        let (ops, compacted) = csr.rescan(
            &self.stats,
            self.criterion,
            self.threshold,
            &self.redirect,
            &self.pending_losers,
            policy,
            self.iterations,
            &mut self.choice,
        );
        if merges > 0 {
            self.relabel_ops += ops;
        }
        self.compactions += u64::from(compacted);
        // Reset redirects for the merged losers.
        for l in self.pending_losers.drain(..) {
            self.redirect[l as usize] = l;
        }
        compacted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Connectivity;
    use crate::merge_ref::{merge_reference, ReferenceMerge};
    use crate::split::split;
    use rg_imaging::synth;

    fn make_merger(t: u32, tie: TieBreak) -> Merger<u8> {
        let img = synth::figure1_image();
        let cfg = Config::with_threshold(t).tie_break(tie);
        let s = split(&img, &cfg);
        let rag = Rag::from_split(&s, Connectivity::Four);
        let ids: Vec<u64> = s.squares.iter().map(|sq| sq.id(4) as u64).collect();
        Merger::new(rag, ids, &cfg)
    }

    /// Steps `m` to the end and returns its step reports, with the
    /// engine-only `compacted` flag cleared so they compare with the
    /// reference merge's.
    fn run_steps(m: &mut Merger<u8>) -> Vec<StepReport> {
        let mut steps = Vec::new();
        while !m.is_done() {
            steps.push(StepReport {
                compacted: false,
                ..m.step()
            });
        }
        steps
    }

    /// Steps an untraced merger over `img`'s split to the end next to the
    /// reference merge, asserting every step report (bar `compacted`), the
    /// labels and the peak agree. The untraced merger is the one
    /// production runs: under deterministic ties its rescan visits only
    /// the dirty owners. A second, traced merger (which scans every vertex)
    /// must take the same steps and record the oracle's trace. Returns the
    /// untraced merger, for its work counters, and the oracle's run.
    fn step_against_oracle(
        img: &rg_imaging::Image<u8>,
        cfg: &Config,
    ) -> (Merger<u8>, ReferenceMerge) {
        let s = split(img, cfg);
        let rag = Rag::from_split(&s, Connectivity::Four);
        let stride = s.width as u32;
        let ids: Vec<u64> = s.squares.iter().map(|sq| sq.id(stride) as u64).collect();
        let oracle = merge_reference(&rag, &ids, cfg);

        let mut m = Merger::new(rag.clone(), ids.clone(), cfg);
        assert_eq!(run_steps(&mut m), oracle.steps);
        assert_eq!(m.labels_by_vertex(), oracle.labels_by_vertex);
        assert_eq!(m.peak_active_edges(), oracle.peak_active_edges);

        let mut traced = Merger::new(rag, ids, cfg);
        traced.enable_trace();
        assert_eq!(run_steps(&mut traced), oracle.steps);
        assert_eq!(traced.take_trace().as_ref(), Some(&oracle.trace));
        (m, oracle)
    }

    #[test]
    fn figure2_walkthrough_smallest_id() {
        // Hand-verified against the paper's Figure 2 (see DESIGN.md):
        // start: 7 regions; iter 1 merges {0,5} and {2,4}; iter 2 merges
        // {3,6}; iter 3 merges {0,3} and {1,2}; done with 2 regions.
        let mut m = make_merger(3, TieBreak::SmallestId);
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
    fn merger_matches_reference_on_synthetic_images() {
        for img in [
            synth::circle_collection(48),
            synth::random_rects(64, 40, 11, 5),
            synth::nested_rects(32),
        ] {
            for tie in [
                TieBreak::SmallestId,
                TieBreak::LargestId,
                TieBreak::Random { seed: 17 },
            ] {
                step_against_oracle(&img, &Config::with_threshold(12).tie_break(tie));
            }
        }
    }

    #[test]
    fn compaction_triggers_and_preserves_parity() {
        // Merge-only, one isolated dot on every even pixel of a uniform
        // background: the background coalesces first, then absorbs one dot
        // per iteration and re-appends its whole segment each time, which
        // forces arena compactions under every tie family.
        let img =
            rg_imaging::Image::from_fn(
                32,
                32,
                |x, y| {
                    if x % 2 == 0 && y % 2 == 0 {
                        52u8
                    } else {
                        50
                    }
                },
            );
        for tie in [
            TieBreak::SmallestId,
            TieBreak::LargestId,
            TieBreak::Random { seed: 3 },
        ] {
            let cfg = Config::with_threshold(2)
                .tie_break(tie)
                .max_square_log2(Some(0));
            // Every rescan dedups exactly, so the live slots are the
            // oracle's edge list in both directions, every step.
            let (m, oracle) = step_against_oracle(&img, &cfg);
            assert!(m.compactions() > 0, "{tie:?}: expected an arena compaction");
            assert!(
                m.relabel_work() <= oracle.relabel_work,
                "{tie:?}: CSR relabel work {} exceeds reference {}",
                m.relabel_work(),
                oracle.relabel_work
            );
        }
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
