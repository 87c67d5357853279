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
//! criterion-violating slots, squeezes the survivors, folds the next
//! iteration's argmin and records the next iteration's mutual pairs. A
//! region that won this iteration copies its own segment and its loser's
//! to the arena's tail cursor and squeezes them there; every other owner
//! is squeezed in place. When the tail would pass the arena's
//! capacity, the same pass rewrites every live owner into a spare arena
//! and the two swap. The kernel runs on every region with slots at a
//! reset, which folds iteration 0's choices; after each iteration it runs
//! on every live owner under random ties (whose keys change every
//! iteration) and, under deterministic ties, only on the merged pairs and
//! their neighbours (no other ranking can change). That dirty set is built
//! by the pass itself: it starts as the iteration's winners, and each
//! winner queues the neighbours it meets while it reads its pair's slots,
//! so every slot is read once. No per-iteration edge-list rebuild, no
//! global sort and no steady-state allocation.
//!
//! A pair is recorded when the pass finishes its second endpoint: an owner
//! whose choice `b` chose it back is paired with `b` if `b`'s choice is
//! final for the pass. Each pass takes two tokens for its per-vertex
//! marks, *queued* and *visited*, so `b`'s choice is final when `b` was
//! visited this pass, or when the pass is a dirty-set pass and never
//! queued `b` (its choice cannot have changed). The step then merges
//! exactly the recorded pairs: no scan over the owners looks for them.
//!
//! Like the CM-2's segmented minimum under a context mask, the kernel's
//! slot loop does not branch on the data. Each slot is weighed, stamped
//! and written at the write cursor, which advances by the predicate
//! `fresh` (not a self-loop, not a duplicate, keeps the criterion); on
//! noise each of those tests is a coin flip a branch would mispredict.
//! The argmin fold is one masked select on every slot, of a packed key and
//! the candidate carried beside it; only the key is picked per tie family,
//! once per call. Deterministic ties pack the weight above the candidate's
//! 32 bits (the candidate flipped for [`TieBreak::LargestId`]):
//! `(range << 32) | candidate` in a `u64` under the pixel range,
//! `(weight << 32) | candidate` in a `u128` under the mean difference,
//! whose 16.16 weights reach 2⁴⁸. That key is exact: canonical IDs
//! strictly increase with the dense index, so the full `(weight, id, 0,
//! candidate)` key orders like `(weight, candidate)`. Random ties hash
//! every slot into `(weight << 64) | tie_priority` in a `u128`, exact
//! because the priority is a bijection of the candidate's canonical ID for
//! a fixed chooser (see `random_key`). The per-vertex records the slot
//! loop gathers are narrow: an 8-byte `HotVertex` of extrema (canonical
//! IDs live apart) and a `u32` stamp token.
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
//! [`Merger::reset_from`] does the same from a canonical edge list, for
//! graphs that only exist as one (the tiled stitch's seam RAG,
//! [`Merger::new`]). Either way no segment can hold a self-loop, a
//! duplicate or a criterion violation, and the redirect is the identity,
//! so the reset's rescan folds iteration 0's argmin only: the same kernel
//! with its upkeep switched off for that call.
//! Stamp tokens and pass tokens keep counting up across resets, so a
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

use std::hint::black_box;
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

/// `if c { a } else { b }` through an all-ones or all-zero mask that the
/// optimiser cannot see through, so it stays arithmetic. LLVM turns a
/// plain select in a running minimum back into a branch, even under
/// [`std::hint::select_unpredictable`], and on noise that branch
/// mispredicts often.
#[inline(always)]
fn blend(c: bool, a: u128, b: u128) -> u128 {
    let m = black_box(0u128.wrapping_sub(u128::from(c)));
    (a & m) | (b & !m)
}

/// [`blend`] at half the width.
#[inline(always)]
fn blend64(c: bool, a: u64, b: u64) -> u64 {
    let m = black_box(0u64.wrapping_sub(u64::from(c)));
    (a & m) | (b & !m)
}

/// A packed ranking key, the weight in its high bits, folded by a masked
/// select ([`fold_slot`]): `u64` for deterministic ties under the
/// pixel-range criterion, `u128` otherwise (see [`Csr::rescan`]).
trait PackedKey: Copy + Ord {
    /// The fold's start value, at least every key.
    const MAX: Self;
    /// `if c { a } else { b }`, branch-free.
    fn blend(c: bool, a: Self, b: Self) -> Self;
}

impl PackedKey for u64 {
    const MAX: Self = u64::MAX;
    #[inline(always)]
    fn blend(c: bool, a: Self, b: Self) -> Self {
        blend64(c, a, b)
    }
}

impl PackedKey for u128 {
    const MAX: Self = u128::MAX;
    #[inline(always)]
    fn blend(c: bool, a: Self, b: Self) -> Self {
        blend(c, a, b)
    }
}

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

/// The random-tie ranking key of a candidate at 16.16 `weight` whose
/// [`tie_priority`] is `k0`: the weight above the priority in one `u128`.
///
/// For a fixed `(seed, iteration, chooser)`, `k0` is a bijection of the
/// candidate's canonical ID (its multiplier is odd and the splitmix64
/// finaliser is bijective), so distinct candidates never share a key and
/// the key orders them exactly as [`choice_key`]'s `(weight, k0, k1,
/// candidate)` does. Copies of one candidate share its key.
#[inline(always)]
fn random_key(weight: u64, k0: u64) -> u128 {
    u128::from(weight) << 64 | u128::from(k0)
}

/// Folds one slot, candidate `c` ranked by `key`, into an argmin `(key,
/// candidate)` that starts at `(MAX, u32::MAX)`, branch-free: the slot
/// wins iff it is `fresh` and its key is at most `best`'s. Only copies of
/// one candidate share a key, so taking ties is exact, and a fresh key of
/// `MAX` still wins: the candidate is `u32::MAX` iff no slot was fresh.
#[inline(always)]
fn fold_slot<Key: PackedKey>(best: (Key, u32), fresh: bool, key: Key, c: u32) -> (Key, u32) {
    let take = fresh & (key <= best.0);
    let c = blend64(take, u64::from(c), u64::from(best.1)) as u32;
    (Key::blend(take, key, best.0), c)
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
/// and current at representatives: the pixel-range extrema in `hot`, the
/// canonical IDs in `id`, the mean-difference sums in `sum`/`cnt`, so each
/// criterion's kernels touch only the fields they need.
#[derive(Debug, Default)]
struct SoaStats {
    hot: Vec<HotVertex>,
    /// Canonical region IDs (see [`crate::split::Square::id`]); only the
    /// random-tie fold reads them.
    id: Vec<u64>,
    sum: Vec<u64>,
    cnt: Vec<u64>,
}

impl SoaStats {
    /// Re-fills the SoA in place from an AoS slice and the parallel
    /// canonical IDs, reusing capacity.
    fn refill<P: Intensity>(&mut self, stats: &[RegionStats<P>], ids: impl Iterator<Item = u64>) {
        self.hot.clear();
        self.hot.extend(stats.iter().map(|s| HotVertex {
            min: s.min.to_u32(),
            max: s.max.to_u32(),
        }));
        self.id.clear();
        self.id.extend(ids);
        self.sum.clear();
        self.sum.extend(stats.iter().map(|s| s.sum));
        self.cnt.clear();
        self.cnt.extend(stats.iter().map(|s| s.count));
    }

    /// 16.16 fixed-point merge weight of regions `a` and `b`.
    #[inline]
    fn weight(&self, crit: Criterion, a: usize, b: usize) -> u64 {
        match crit {
            Criterion::PixelRange => self.hot[a].union_weight(self.hot[b]),
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

/// Hot per-vertex record: the pixel-range extrema in one 8-byte slot, so
/// ranking a candidate under the range criterion costs a single narrow
/// gather. The canonical IDs live apart ([`SoaStats::id`]): deterministic
/// ties never read them.
#[derive(Debug, Clone, Copy)]
struct HotVertex {
    /// Current region minimum, widened to `u32`.
    min: u32,
    /// Current region maximum, widened to `u32`.
    max: u32,
}

impl HotVertex {
    /// 16.16 range weight of the union of `self` and `other`.
    #[inline(always)]
    fn union_weight(self, other: Self) -> u64 {
        range_weight_fp16(self.min.min(other.min), self.max.max(other.max))
    }
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
    /// current representatives of region `v`'s neighbours. Every segment
    /// lies below `tail`; the length is the arena's high-water mark and
    /// never shrinks, so a pass grows it only where it writes past it.
    col: Vec<u32>,
    /// End of the used part of `col`: winners copy their pair's slots
    /// here and squeeze them.
    tail: usize,
    /// The arena a compaction rewrites into; swapped with `col` after.
    spare: Vec<u32>,
    /// Slots either arena may hold: `ARENA_FACTOR` times the initial slot
    /// count, reserved up front so appends never reallocate.
    cap: usize,
    /// Number of live directed slots (`== len` sum).
    live: usize,
    /// The owners the next rescan visits, each at most once. Under random
    /// ties and at a reset the rescan leaves the visited owners that kept
    /// a slot, every live owner, for the next pass; a dirty-set pass
    /// rebuilds the list from the iteration's winners.
    owners: Vec<u32>,
    /// The mutual pairs the last rescan found, `(winner, loser)` with the
    /// winner the smaller index: the next step merges exactly these.
    pairs: Vec<(u32, u32)>,
    /// Per-vertex pass marks. Each rescan takes two fresh tokens from
    /// `epoch`, *queued* and *visited* = queued + 1: the dirty set marks
    /// the owners it queues with the first, and every owner the rescan
    /// finishes gets the second. Marks persist across resets; the array
    /// grows (zero-filling only its new tail) the first time a graph with
    /// more vertices is rescanned.
    pass_mark: Vec<u32>,
    /// The last token handed to `pass_mark`; strictly increasing, so a
    /// stale mark is below every fresh one.
    epoch: u32,
    /// Per-neighbour stamp for per-owner duplicate detection; a fresh
    /// token per (owner, pass) makes the check exact with no clearing.
    /// Tokens persist across resets; only a growing graph zero-fills the
    /// new tail, and only an exhausted counter clears the whole array.
    stamp: Vec<u32>,
    /// The last stamp token handed out (increasing until it would pass
    /// `u32::MAX`; tokens start above it, so none is 0, the cleared
    /// value).
    next_token: u32,
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

    /// Keeps the undirected edge `(u, v)` if `kept`: counts both
    /// endpoints' degrees and stages the pair in the spare arena, which is
    /// idle until the first compaction and is reserved for three times
    /// these slots anyway. The pair is staged either way and the truncate
    /// drops it, so the test costs no branch: on speckle about one pair in
    /// ten survives the criterion, at random.
    #[inline]
    fn keep(&mut self, u: u32, v: u32, kept: bool) {
        let k = u32::from(kept);
        self.len[u as usize] += k;
        self.len[v as usize] += k;
        let staged = self.spare.len();
        self.spare.extend([u, v]);
        self.spare.truncate(staged + 2 * k as usize);
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
        self.col.reserve(self.cap.saturating_sub(self.col.len()));
        if self.col.len() < slots {
            self.col.resize(slots, 0);
        }
        self.tail = slots;
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
        self.queue_all();
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
    }

    /// Queues every vertex with slots, in vertex order. The write cursor
    /// advances by `len > 0` instead of a branch: at a reset on speckle
    /// about one vertex in four keeps a slot, at random.
    fn queue_all(&mut self) {
        let Self { len, owners, .. } = self;
        owners.clear();
        owners.resize(len.len(), 0);
        let mut kept = 0;
        for (v, &l) in len.iter().enumerate() {
            owners[kept] = v as u32;
            kept += usize::from(l > 0);
        }
        owners.truncate(kept);
    }

    /// Takes the next rescan's two pass tokens and returns the first,
    /// *queued*; *visited* is the one above it. Both exceed every mark
    /// left by earlier passes, earlier graphs included, so a stale mark
    /// reads as "never queued". When the counter would pass `u32::MAX`,
    /// the marks are cleared and it starts over.
    fn begin_pass(&mut self) -> u32 {
        let n = self.len.len();
        if u32::MAX - self.epoch < 2 {
            self.pass_mark.fill(0);
            self.epoch = 0;
        }
        if self.pass_mark.len() < n {
            self.pass_mark.resize(n, 0);
        }
        self.epoch += 2;
        self.epoch - 1
    }

    /// Starts the deterministic-tie dirty set for the next rescan: this
    /// iteration's merged pairs and every neighbour of either endpoint.
    /// Only the winners are queued here, with the pass's `queued` token.
    /// A loser needs no visit of its own, because its winner reads its
    /// segment, and the winners' rescan queues the neighbours while it
    /// reads the pair's slots (see [`Csr::rescan`]), so no slot is read
    /// twice.
    ///
    /// Deterministic tie keys do not depend on the iteration, a region's
    /// statistics change only when it merges, and a slot's endpoints
    /// change only when one of them merges. So an owner outside this set
    /// has an unchanged candidate list, unchanged weights and an unchanged
    /// ranking, and its `choice` stays exact: the rescan may read it as
    /// final without visiting it. Two owners outside the set cannot form a
    /// new mutual pair, since they would have merged an iteration earlier.
    fn mark_dirty(&mut self, merged: &[(u32, u32)], queued: u32) {
        self.owners.clear();
        // The merges are a matching, so no winner repeats.
        for &(w, _) in merged {
            self.pass_mark[w as usize] = queued;
            self.owners.push(w);
        }
    }

    /// Queues `x` on `owners` unless this pass already queued or visited
    /// it; the mark is raised to `queued` and never lowers a visited
    /// token. The push is unconditional and the truncate keeps it only for
    /// a stale mark, so the test costs no branch: where the merged pairs'
    /// neighbourhoods overlap, as on noise, whether a mark repeats is hard
    /// to predict.
    #[inline(always)]
    fn mark(pass_mark: &mut [u32], owners: &mut Vec<u32>, x: u32, queued: u32) {
        let m = pass_mark[x as usize];
        pass_mark[x as usize] = m.max(queued);
        let len = owners.len();
        owners.push(x);
        owners.truncate(len + usize::from(m < queued));
    }

    /// The end-of-step kernel. It first picks its owner list: every live
    /// owner when the winners' writes might pass the arena's capacity (a
    /// *compaction*), else the winners of `merged` under `MARK`
    /// ([`Csr::mark_dirty`]), else the list the last pass left. For every
    /// queued owner it
    ///
    /// 1. skips the owner if it lost this iteration (its winner reads its
    ///    segment);
    /// 2. reads the owner's segment in place or, if it won this iteration
    ///    or the pass compacts, first copies it (and a winner's loser's,
    ///    which the winner's `choice` still names) to the arena's `tail`;
    /// 3. redirects every slot through the one-level `redirect` (exact,
    ///    because an iteration's mutual pairs form a matching), and drops
    ///    self-loops, duplicate neighbours and neighbours whose union
    ///    would violate the criterion; under `MARK` a winner also queues
    ///    every redirected neighbour, kept or not, that the pass has not
    ///    queued yet;
    /// 4. writes the survivors over the slots it read; a copied owner's
    ///    `tail` then advances past them;
    /// 5. folds the survivors' argmin under `policy` at `iteration` (the
    ///    next step's) into `choice`, so the next choice pass is a table
    ///    read;
    /// 6. records the pair with its choice `b` in `pairs` if `b` chose it
    ///    back and `b`'s choice is final for this pass: `b` was visited
    ///    this pass, or the pass is a dirty-set pass and never queued `b`
    ///    (its choice is unchanged, see [`Csr::mark_dirty`]). Every mutual
    ///    pair has an endpoint the pass visits, and it is recorded once,
    ///    when its second endpoint is finished.
    ///
    /// `MARK` is the deterministic-tie end of step, picked by
    /// [`Merger::end_of_step`]: `owners` starts as this iteration's
    /// winners and grows while it is walked, so the walk goes by index.
    /// Every winner precedes every neighbour it queues, so the dirty set
    /// is complete before the first owner whose unqueued choice may count
    /// as final. Marking is a constant, not a flag, so the random-tie slot
    /// loop compiles without it. Without `MARK`, the visited owners that
    /// kept a slot are written behind the cursor as the next pass's list.
    ///
    /// A compaction queues every live owner, marks nothing, and copies
    /// every owner from the spare arena, which then becomes the arena;
    /// its choices are final only once visited.
    ///
    /// Dropping a duplicate slot is free of semantic effect: the argmin is
    /// invariant under duplicates, the criterion filter would kill every
    /// copy together, and at least one copy per direction always survives.
    ///
    /// The slot loop has no data-dependent branch. Every slot is
    /// redirected, weighed and stamped, and written at the write cursor,
    /// which then advances by the predicate `fresh` (not a self-loop, not
    /// yet stamped by this owner, keeps the criterion). Stamping a
    /// rejected neighbour is exact: the criterion test depends only on the
    /// owner and the neighbour, so every later copy of it is rejected
    /// too. The argmin fold is the same for every policy: [`fold_slot`]
    /// selects, without a branch, the slot's key and candidate `c` when
    /// the slot is `fresh` and its key is at most the running best. The
    /// pair record is a push kept by a truncate, as [`Csr::mark`]'s. The
    /// criterion and the tie family are picked here, once per call, as
    /// closures for [`Csr::rescan_impl`]; the tie family only builds the
    /// key:
    ///
    /// - **Deterministic ties** pack the weight above the candidate `c`
    ///   (`u32::MAX - c` for [`TieBreak::LargestId`]). Canonical IDs
    ///   strictly increase with the dense index (see [`Merger::new`]), so
    ///   [`choice_key`]'s `(w, id, 0, c)` orders exactly like `(w, c)`,
    ///   and [`tie_key`] is never called. Under the pixel range the key
    ///   is `(range << 32) | c` in a `u64`, exact because a range fits in
    ///   32 bits. The mean difference's 16.16 weight carries fraction bits
    ///   up to 2⁴⁸, so its key is `(weight << 32) | c` in a `u128`. Under [`TieBreak::LargestId`],
    ///   range `u32::MAX` to candidate 0 packs to exactly `u64::MAX`, the
    ///   fold's start value, which the fold still takes.
    /// - **Random ties** hash every slot, fresh or not, into
    ///   [`random_key`]'s `(weight << 64) | k0` in a `u128`, with `k0` the
    ///   [`tie_priority`] of the candidate's canonical ID. One form serves
    ///   both criteria (every 16.16 weight is below 2⁴⁸), and it orders
    ///   candidates exactly as [`choice_key`] does.
    ///
    /// `UPKEEP = false` is the reset's mode, picked once per call by
    /// [`Merger::finish_reset`]: the redirect is the identity, no owner
    /// won, and every segment already holds unique, criterion-filtered
    /// neighbours other than its owner, so steps 3 and 4 are no-ops. The
    /// slot loop then only weighs each slot and folds it, with `fresh`
    /// constant `true`; it redirects, stamps and writes nothing.
    ///
    /// Returns `(slots read, owners visited, compacted)`.
    #[allow(clippy::too_many_arguments)]
    fn rescan<const UPKEEP: bool, const MARK: bool>(
        &mut self,
        stats: &SoaStats,
        crit: Criterion,
        t: u32,
        redirect: &[u32],
        merged: &[(u32, u32)],
        policy: TieBreak,
        iteration: u32,
        choice: &mut [u32],
    ) -> (u64, u64, bool) {
        let ids = &stats.id[..];
        // The closures capture slices, not `stats`: `blend`'s clobber
        // would make the slot loop reload a `Vec` header on every slot.
        match crit {
            Criterion::PixelRange => {
                // `range_weight_fp16` is exactly the union range in 16.16,
                // so the criterion test is a comparison of the weight the
                // ranking needs anyway against `threshold << 16` — one
                // extrema gather serves both filter and argmin.
                let hot = &stats.hot[..];
                let cut = u64::from(t) << 16;
                self.rescan_tie::<UPKEEP, MARK, _, _, _, _>(
                    ids,
                    redirect,
                    merged,
                    policy,
                    iteration,
                    choice,
                    |o, c| hot[o].union_weight(hot[c]),
                    |_, _, wk| wk <= cut,
                    // The weight is `range << 16`: this is `(range << 32) | c`.
                    |wk, c| wk << 16 | u64::from(c),
                )
            }
            Criterion::MeanDifference => {
                let (sum, cnt) = (&stats.sum[..], &stats.cnt[..]);
                self.rescan_tie::<UPKEEP, MARK, _, _, _, _>(
                    ids,
                    redirect,
                    merged,
                    policy,
                    iteration,
                    choice,
                    |o, c| mean_weight_fp16(sum[o], cnt[o], sum[c], cnt[c]),
                    // Floor division makes the 16.16 mean distance an
                    // inexact proxy for the criterion; keep the exact
                    // integer predicate.
                    |o, c, _| mean_satisfies(sum[o], cnt[o], sum[c], cnt[c], t),
                    |wk, c| u128::from(wk) << 32 | u128::from(c),
                )
            }
        }
    }

    /// The tie-family half of [`Csr::rescan`]'s dispatch: hands
    /// [`Csr::rescan_impl`] the ranking key for `policy`, which for
    /// deterministic ties is `pack(weight, c)`.
    #[allow(clippy::too_many_arguments)]
    fn rescan_tie<const UPKEEP: bool, const MARK: bool, W, K, Key, Pk>(
        &mut self,
        ids: &[u64],
        redirect: &[u32],
        merged: &[(u32, u32)],
        policy: TieBreak,
        iteration: u32,
        choice: &mut [u32],
        weight: W,
        keeps: K,
        pack: Pk,
    ) -> (u64, u64, bool)
    where
        W: Fn(usize, usize) -> u64,
        K: Fn(usize, usize, u64) -> bool,
        Key: PackedKey,
        Pk: Fn(u64, u32) -> Key,
    {
        match policy {
            // Random ties rescan every live owner, so they never mark.
            TieBreak::Random { seed } => self.rescan_impl::<UPKEEP, false, _, _, _, _>(
                ids,
                redirect,
                merged,
                choice,
                weight,
                keeps,
                |chooser, wk, c| random_key(wk, tie_priority(seed, iteration, chooser, ids[c])),
            ),
            TieBreak::SmallestId | TieBreak::LargestId => {
                let flip = if policy == TieBreak::LargestId {
                    u32::MAX
                } else {
                    0
                };
                self.rescan_impl::<UPKEEP, MARK, _, _, _, _>(
                    ids,
                    redirect,
                    merged,
                    choice,
                    weight,
                    keeps,
                    |_, wk, c| pack(wk, c as u32 ^ flip),
                )
            }
        }
    }

    /// Criterion- and tie-monomorphised body of [`Csr::rescan`]:
    /// `weight(o, c)` ranks a candidate, `keeps(o, c, weight)` is the
    /// de-activation predicate, and `key(chooser_id, weight, c)` is the
    /// packed ranking key [`fold_slot`] folds into the owner's choice
    /// (`u32::MAX` for none). All are loop-invariant closures, and
    /// `UPKEEP` and `MARK` are constants, so the inner loop specialises
    /// with no per-slot dispatch.
    #[allow(clippy::too_many_arguments)]
    fn rescan_impl<const UPKEEP: bool, const MARK: bool, W, K, Key, Kf>(
        &mut self,
        ids: &[u64],
        redirect: &[u32],
        merged: &[(u32, u32)],
        choice: &mut [u32],
        weight: W,
        keeps: K,
        key: Kf,
    ) -> (u64, u64, bool)
    where
        W: Fn(usize, usize) -> u64,
        K: Fn(usize, usize, u64) -> bool,
        Key: PackedKey,
        Kf: Fn(u64, u64, usize) -> Key,
    {
        let n = self.len.len();
        // Each winner writes at most its pair's slots.
        let appends: usize = merged
            .iter()
            .map(|&(u, v)| (self.len[u as usize] + self.len[v as usize]) as usize)
            .sum();
        let compact = self.tail + appends > self.cap;
        let queued = self.begin_pass();
        let visited = queued + 1;
        if compact {
            std::mem::swap(&mut self.col, &mut self.spare);
            self.tail = 0;
            self.queue_all();
        } else if MARK {
            self.mark_dirty(merged, queued);
        }
        // Every write lands below this: an owner keeps at most what it
        // reads, and a compaction reads the live slots.
        let end = if compact {
            self.live
        } else {
            self.tail + appends
        };
        if self.col.len() < end {
            self.col.resize(end, 0);
        }
        // Token `base + o` is unique to (pass, owner `o`) and above every
        // token since the stamps were last cleared, so `stamp[c] == token`
        // dedups the owner's neighbours across both segments it reads.
        // When the tokens would pass `u32::MAX`, clear and start over.
        if u32::MAX - self.next_token < n as u32 {
            self.stamp.fill(0);
            self.next_token = 0;
        }
        let base = self.next_token + 1;
        self.next_token += n as u32;
        // A dirty-set pass leaves every unqueued owner's choice exact, so
        // it may read those choices as final without visiting them.
        let dirty = MARK && !compact;
        let Self {
            start,
            len,
            col,
            tail,
            spare,
            live,
            owners,
            pairs,
            pass_mark,
            stamp,
            ..
        } = self;
        let (stamp, pass_mark) = (stamp.as_mut_slice(), pass_mark.as_mut_slice());
        pairs.clear();
        let (mut ops, mut visits) = (0u64, 0u64);
        let mut kept_owners = 0;
        // Under `MARK` the list grows while it is walked.
        let mut i = 0;
        while i < owners.len() {
            let o = owners[i] as usize;
            i += 1;
            if redirect[o] as usize != o {
                continue;
            }
            let mate = choice[o];
            let won = mate != u32::MAX && redirect[mate as usize] as usize == o;
            let marks = dirty && won;
            let own = (start[o] as usize, len[o] as usize);
            let absorbed = if won {
                let m = mate as usize;
                let seg = (start[m] as usize, len[m] as usize);
                len[m] = 0;
                seg
            } else {
                (0, 0)
            };
            let moved = compact || won;
            let read = own.1 + absorbed.1;
            // A moving owner copies its raw slots to the arena tail and
            // squeezes them there; every other owner squeezes its segment
            // where it is.
            let dst = if moved { *tail } else { own.0 };
            if moved {
                let mut at = dst;
                for (s, l) in [own, absorbed] {
                    if compact {
                        col[at..at + l].copy_from_slice(&spare[s..s + l]);
                    } else {
                        col.copy_within(s..s + l, at);
                    }
                    at += l;
                }
            }
            let token = base + o as u32;
            let chooser = ids[o];
            let seg = &mut col[dst..dst + read];
            let mut best = (Key::MAX, u32::MAX);
            // The write cursor never passes the read cursor.
            let mut w = 0;
            for j in 0..seg.len() {
                let c = if UPKEEP {
                    redirect[seg[j] as usize] as usize
                } else {
                    seg[j] as usize
                };
                if marks {
                    Self::mark(pass_mark, owners, c as u32, queued);
                }
                let wk = weight(o, c);
                let fresh = !UPKEEP || (c != o) & (stamp[c] != token) & keeps(o, c, wk);
                if UPKEEP {
                    stamp[c] = token;
                    seg[w] = c as u32;
                }
                w += usize::from(fresh);
                best = fold_slot(best, fresh, key(chooser, wk, c), c as u32);
            }
            if moved {
                *tail += w;
            }
            ops += read as u64;
            visits += 1;
            *live -= read - w;
            start[o] = dst as u32;
            len[o] = w as u32;
            choice[o] = best.1;
            // Without a choice, `b` is `o` itself, whose choice is not `o`.
            let b = if best.1 == u32::MAX {
                o
            } else {
                best.1 as usize
            };
            let m = pass_mark[b];
            let settled = (m == visited) | (dirty & (m < queued));
            let mutual = settled & (choice[b] as usize == o);
            let recorded = pairs.len();
            pairs.push((o.min(b) as u32, o.max(b) as u32));
            pairs.truncate(recorded + usize::from(mutual));
            pass_mark[o] = visited;
            if !MARK && w > 0 {
                // Behind the cursor: `kept_owners < i`.
                owners[kept_owners] = o as u32;
                kept_owners += 1;
            }
        }
        if !MARK {
            owners.truncate(kept_owners);
        }
        (ops, visits, compact)
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
    /// The current iteration's merged pairs, `(winner, loser)`: the pairs
    /// the last rescan recorded, copied out of [`Csr::pairs`] by the apply
    /// step and kept until the end-of-step pass resets the losers'
    /// redirects.
    merged: Vec<(u32, u32)>,

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
    /// Owners those same rescans visited.
    owners_visited: u64,
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
            merged: Vec::new(),
            choice: Vec::new(),
            neighbours: Vec::new(),
            iterations: 0,
            merges_per_iteration: Vec::new(),
            num_regions: 0,
            stalls: 0,
            trace: None,
            relabel_ops: 0,
            owners_visited: 0,
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
    /// (the paper's step 2) and any enabled trace is dropped. `edges` must
    /// be canonical, as [`Rag::edges`] is: `u < v`, sorted and unique.
    pub fn reset_from(
        &mut self,
        stats: &[RegionStats<P>],
        edges: &[(u32, u32)],
        ids: &[u64],
        config: &Config,
    ) {
        assert_eq!(ids.len(), stats.len(), "ids length mismatch");
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must increase");
        // The reset's argmin-only rescan relies on this: no self-loop and
        // no duplicate reaches a segment.
        debug_assert!(
            edges.iter().all(|&(u, v)| u < v) && edges.windows(2).all(|p| p[0] < p[1]),
            "edges must be canonical: u < v, sorted, unique"
        );
        self.begin_reset(stats, ids.iter().copied(), config);
        let (crit, t) = (self.criterion, self.threshold);
        let Self { stats, csr, .. } = self;
        for &(u, v) in edges {
            csr.keep(u, v, stats.satisfies(crit, t, u as usize, v as usize));
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
                csr.keep(u, v, stats.satisfies(crit, t, u as usize, v as usize));
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
        self.merged.clear();
        self.choice.clear();
        self.choice.resize(n, u32::MAX);
        self.iterations = 0;
        self.merges_per_iteration.clear();
        self.num_regions = n;
        self.stalls = 0;
        self.trace = None;
        self.relabel_ops = 0;
        self.owners_visited = 0;
        self.compactions = 0;
        self.csr.begin(n);
    }

    /// The shared second half of a reset, once the CSR has staged every
    /// edge that satisfies the criterion: lay out the segments, fold
    /// iteration 0's choices and record its mutual pairs with the
    /// end-of-step kernel over every region with slots. Every staged pair was canonical and unique and passed
    /// the criterion, so the kernel runs argmin-only (`UPKEEP = false`).
    fn finish_reset(&mut self) {
        let policy = self.policy().0;
        self.csr.place();
        self.peak_active_edges = self.csr.live as u64 / 2;
        self.csr.rescan::<false, false>(
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

    /// Owners the end-of-step rescans visited after productive
    /// iterations, the rescans [`Merger::relabel_work`] counts: every live
    /// owner under random ties or in a compaction, the winners and their
    /// neighbours under deterministic ties. A merged loser is not visited;
    /// its winner reads its slots.
    pub fn owners_visited(&self) -> u64 {
        self.owners_visited
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
            self.apply_mutual_merges()
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

    /// Merges every mutual pair the last rescan recorded; returns the
    /// number of merges.
    ///
    /// The pairs are a matching, so application order is irrelevant to
    /// the outcome. The list is in the order the rescan finished the
    /// pairs' second endpoints (under deterministic ties: the winners,
    /// then the neighbours in the order their rescan met them), not index
    /// order, so a traced run sorts the iteration's events by winner
    /// afterwards: a [`MergeTrace`] lists each iteration's merges in
    /// ascending-winner order.
    fn apply_mutual_merges(&mut self) -> u32 {
        // A copy, not a swap: each list keeps its own high-water capacity.
        self.merged.clear();
        self.merged.extend_from_slice(&self.csr.pairs);
        let Self {
            merged,
            stats,
            redirect,
            history,
            trace,
            criterion,
            iterations,
            ..
        } = self;
        let traced = trace.as_ref().map_or(0, |t| t.events.len());
        for &(u, v) in merged.iter() {
            if let Some(trace) = trace {
                trace.events.push(MergeEvent {
                    iteration: *iterations,
                    winner: u,
                    loser: v,
                    weight_fp16: stats.weight(*criterion, u as usize, v as usize),
                });
            }
            // Representative = smaller dense index = smaller ID.
            stats.fold(u as usize, v as usize);
            redirect[v as usize] = u;
            history.union_min_rep(u, v);
        }
        if let Some(trace) = trace {
            trace.events[traced..].sort_unstable_by_key(|e| e.winner);
        }
        self.num_regions -= merged.len();
        merged.len() as u32
    }

    /// Step 4 plus the next iteration's choices and pairs: one
    /// [`Csr::rescan`] that relabels, filters and squeezes the slots,
    /// folds the next iteration's choices into `choice` under the policy
    /// the next step will use (the stall counter is already updated and
    /// `self.iterations` is the next step's index) and records its mutual
    /// pairs. Random ties re-randomise every key each iteration, so every
    /// live owner is rescanned; the reference merge pays the same sweep
    /// inside its choice pass, so a stall iteration's rescan counts no
    /// relabel work. Deterministic ties rescan only the dirty set: the
    /// winners ([`Csr::mark_dirty`]) and the neighbours their rescan
    /// queues.
    ///
    /// Returns `true` if the arena compacted.
    fn end_of_step(&mut self, merges: u32) -> bool {
        let policy = self.policy().0;
        let rescan = if matches!(self.tie, TieBreak::Random { .. }) {
            Csr::rescan::<true, false>
        } else {
            Csr::rescan::<true, true>
        };
        let (ops, visits, compacted) = rescan(
            &mut self.csr,
            &self.stats,
            self.criterion,
            self.threshold,
            &self.redirect,
            &self.merged,
            policy,
            self.iterations,
            &mut self.choice,
        );
        if merges > 0 {
            self.relabel_ops += ops;
            self.owners_visited += visits;
        }
        self.compactions += u64::from(compacted);
        // Reset redirects for the merged losers.
        for &(_, l) in &self.merged {
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
    /// labels and the peak agree. Under deterministic ties the rescan
    /// visits only the dirty owners. A second, traced merger must take the
    /// same steps and record the oracle's trace, event for event. Returns
    /// the untraced merger, for its work counters, and the oracle's run.
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
    fn reset_argmin_only_rescan_matches_full_rescan() {
        // The reset's rescan skips redirect, stamp, filter and squeeze.
        // The same reset with the full kernel must leave the same choices,
        // pairs, segments and live count.
        let state = |m: &Merger<u8>| {
            let csr = &m.csr;
            let segments = (csr.start.clone(), csr.len.clone(), csr.col.clone());
            (m.choice.clone(), csr.pairs.clone(), segments, csr.live)
        };
        for img in [
            synth::uniform_noise(48, 40, 0, 255, 3),
            synth::uniform_noise(48, 40, 120, 135, 4),
        ] {
            for tie in [
                TieBreak::SmallestId,
                TieBreak::LargestId,
                TieBreak::Random { seed: 11 },
            ] {
                for conn in [Connectivity::Four, Connectivity::Eight] {
                    let cfg = Config::with_threshold(12).tie_break(tie).connectivity(conn);
                    let s = split(&img, &cfg);
                    let mut fast = Merger::hollow(&cfg);
                    fast.reset_from_split(&s, &cfg);

                    // `reset_from_split` step by step, ending in the full
                    // kernel instead of the argmin-only one.
                    let mut full = Merger::hollow(&cfg);
                    let ids = s.squares.iter().map(|q| u64::from(q.id(s.width as u32)));
                    full.begin_reset(&s.stats, ids, &cfg);
                    let (crit, t) = (full.criterion, full.threshold);
                    let Merger {
                        stats,
                        csr,
                        neighbours,
                        ..
                    } = &mut full;
                    square_forward_neighbours(&s, conn, neighbours, |u, nb| {
                        for &v in nb {
                            csr.keep(u, v, stats.satisfies(crit, t, u as usize, v as usize));
                        }
                    });
                    full.csr.place();
                    full.csr.rescan::<true, false>(
                        &full.stats,
                        crit,
                        t,
                        &full.redirect,
                        &[],
                        full.policy().0,
                        0,
                        &mut full.choice,
                    );

                    assert!(fast.csr.live > 0, "{tie:?} {conn:?}: no active edges");
                    assert_eq!(state(&fast), state(&full), "{tie:?} {conn:?}");
                }
            }
        }
    }

    #[test]
    fn stamp_and_epoch_wraps_keep_the_oracle_history() {
        // A warm merger's counters are set to run out within the next
        // run's first end-of-step pass, and its stamps to the stale value
        // 1, which the restarted counter reaches first. The reset's pass
        // leaves the last pass tokens on every live owner. Without the
        // wrap clears the counters overflow, or they restart below the
        // stale values: owner 0's neighbours all look like duplicates, and
        // every live owner looks queued or visited in the restarted pass.
        let img = synth::uniform_noise(40, 40, 120, 135, 5);
        for tie in [
            TieBreak::SmallestId,
            TieBreak::LargestId,
            TieBreak::Random { seed: 7 },
        ] {
            let cfg = Config::with_threshold(10).tie_break(tie);
            let s = split(&img, &cfg);
            let rag = Rag::from_split(&s, Connectivity::Four);
            let ids: Vec<u64> = s.squares.iter().map(|q| u64::from(q.id(40))).collect();
            let oracle = merge_reference(&rag, &ids, &cfg);
            let mut m = Merger::new(rag.clone(), ids.clone(), &cfg);
            m.run();
            let n = ids.len() as u32;
            // The reset's pass takes the last `n` stamp tokens and the
            // last two pass tokens; the first end-of-step pass must clear
            // both.
            m.csr.next_token = u32::MAX - n;
            m.csr.epoch = u32::MAX - 2;
            m.csr.stamp.fill(1);
            m.reset_from(&rag.stats, &rag.edges, &ids, &cfg);
            m.enable_trace();
            // Step by step: a lost dirty owner can stall the run forever.
            for (i, want) in oracle.steps.iter().enumerate() {
                let got = StepReport {
                    compacted: false,
                    ..m.step()
                };
                assert_eq!(got, *want, "{tie:?}: step {i}");
            }
            assert!(m.is_done(), "{tie:?}: runs past the oracle");
            assert_eq!(m.labels_by_vertex(), oracle.labels_by_vertex, "{tie:?}");
            assert_eq!(m.take_trace().as_ref(), Some(&oracle.trace), "{tie:?}");
            assert!(oracle.steps.len() >= 3, "{tie:?}: too few steps to wrap");
            assert!(
                m.csr.next_token < u32::MAX - n,
                "{tie:?}: tokens never wrapped"
            );
            assert!(m.csr.epoch < u32::MAX - 2, "{tie:?}: epochs never wrapped");
        }
    }

    /// The mutual pairs among every vertex's `choice`, `(x, choice[x])`
    /// with `x < choice[x]`, in order. Merged losers keep a stale choice
    /// naming their winner, which never chooses them back.
    fn mutual_choices(m: &Merger<u8>) -> Vec<(u32, u32)> {
        let choice = &m.choice;
        (0..choice.len() as u32)
            .filter_map(|x| {
                let y = choice[x as usize];
                (y != u32::MAX && x < y && choice[y as usize] == x).then_some((x, y))
            })
            .collect()
    }

    #[test]
    fn recorded_pairs_are_exactly_the_mutual_choices() {
        // After the reset's pass and after every step, the pairs the
        // rescan recorded are the mutual choices over all vertices: none
        // missed, none recorded twice, none from a choice the pass changed
        // afterwards. The dot image forces compactions (see
        // `compaction_triggers_and_preserves_parity`).
        let dots =
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
        let scenes = [
            (synth::uniform_noise(40, 40, 120, 135, 5), 10, None),
            (synth::random_rects(48, 40, 9, 3), 12, None),
            (dots, 2, Some(0)),
        ];
        for (img, t, max_log2) in &scenes {
            for tie in [
                TieBreak::SmallestId,
                TieBreak::LargestId,
                TieBreak::Random { seed: 13 },
            ] {
                for crit in [Criterion::PixelRange, Criterion::MeanDifference] {
                    let cfg = Config::with_threshold(*t)
                        .tie_break(tie)
                        .criterion(crit)
                        .max_square_log2(*max_log2);
                    let s = split(img, &cfg);
                    let rag = Rag::from_split(&s, Connectivity::Four);
                    let stride = s.width as u32;
                    let ids: Vec<u64> = s.squares.iter().map(|q| u64::from(q.id(stride))).collect();
                    let mut m = Merger::new(rag, ids, &cfg);
                    let mut merges = 0;
                    loop {
                        let mut recorded = m.csr.pairs.clone();
                        recorded.sort_unstable();
                        let step = m.iterations();
                        assert_eq!(
                            recorded,
                            mutual_choices(&m),
                            "{tie:?} {crit:?}: step {step}"
                        );
                        if m.is_done() {
                            break;
                        }
                        let report = m.step();
                        assert_eq!(report.merges as usize, recorded.len());
                        merges += report.merges;
                    }
                    assert!(merges > 0, "{tie:?} {crit:?}: nothing merged");
                    if max_log2.is_some() && crit == Criterion::PixelRange {
                        assert!(m.compactions() > 0, "{tie:?}: expected an arena compaction");
                    }
                }
            }
        }
    }

    /// The random-tie fold over [`random_key`] picks, from any slot list,
    /// the fresh slot with the least [`choice_key`], or no candidate when
    /// no slot is fresh. The lists repeat candidates, mix in non-fresh
    /// slots and tie weights, and draw weights up to 2⁴⁸ that agree in
    /// their low 32 bits, so a key that narrowed the weight, or a fold that
    /// let a non-fresh slot win, picks wrongly.
    #[test]
    fn random_fold_picks_the_least_choice_key_among_fresh_slots() {
        const WEIGHTS: [u64; 8] = [
            0,
            1,
            7,
            u32::MAX as u64,
            1 << 32,
            (1 << 32) + 1,
            1 << 48,
            (1 << 48) - 1,
        ];
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            rng = tie_priority(rng, 0, 0, 0);
            rng
        };
        for _ in 0..4000 {
            let (seed, iteration, chooser) = (next() % 1000, next() as u32 % 64, next() % 10_000);
            let n = 1 + next() as usize % 6;
            // Canonical IDs strictly increase with the dense index.
            let mut ids = Vec::with_capacity(n);
            let mut id = next() % 100;
            for _ in 0..n {
                id += 1 + next() % 50;
                ids.push(id);
            }
            let w: Vec<u64> = (0..n)
                .map(|_| WEIGHTS[next() as usize % WEIGHTS.len()])
                .collect();
            let slots: Vec<(usize, bool)> = (0..next() % 12)
                .map(|_| (next() as usize % n, next() % 3 != 0))
                .collect();
            let mut best = (u128::MAX, u32::MAX);
            for &(c, fresh) in &slots {
                let k0 = tie_priority(seed, iteration, chooser, ids[c]);
                best = fold_slot(best, fresh, random_key(w[c], k0), c as u32);
            }
            let random = TieBreak::Random { seed };
            let expect = slots
                .iter()
                .filter(|&&(_, fresh)| fresh)
                .map(|&(c, _)| choice_key(random, iteration, chooser, ids[c], w[c], c as u32))
                .min()
                .map_or(u32::MAX, |k| k.3);
            assert_eq!(best.1, expect, "slots {slots:?}, weights {w:?}");
        }
    }

    #[test]
    fn gathered_records_stay_narrow() {
        // The slot loop gathers one `HotVertex` and one stamp per slot.
        fn element_size<T>(_: &[T]) -> usize {
            std::mem::size_of::<T>()
        }
        assert_eq!(std::mem::size_of::<HotVertex>(), 8);
        assert_eq!(element_size(&Csr::default().stamp), 4);
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
