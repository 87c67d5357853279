//! The split stage: bottom-up coalescing of homogeneous squares.
//!
//! *"At first, each pixel is considered a homogeneous square region of size
//! 1×1. Then every group of four adjacent pixels are tested for homogeneity.
//! If the homogeneity criterion is satisfied, the pixels are combined into
//! one larger square region of size 2×2, and so on."*
//!
//! Implementation notes:
//!
//! * Level 0 is the image itself: a pixel's min and max are the pixel and
//!   its sum is the widened pixel, so nothing is copied out of
//!   [`Image::pixels`]. Per level `k ≥ 1` the block statistics live in
//!   packed structure-of-arrays planes (`min` / `max`, plus `sum` under the
//!   mean criterion, one flat lane each) over the **tight** floor grid
//!   `(w >> k) × (h >> k)` — only blocks wholly inside the image ever have
//!   their stats consumed, and such blocks form exactly that rectangle, so
//!   no `Option` tag, no validity mask and no padding to the enclosing
//!   power-of-two square are needed.
//! * Like the CM-2's elementwise min/max over every block of a level, the
//!   `min` and `max` planes fold through one fixed-width lane-block kernel
//!   for every level: 32 child lanes of a top and a bottom row fold
//!   vertically, split into even and odd lanes and fold again, a shape the
//!   autovectoriser turns into SIMD min/max on the baseline target; a
//!   scalar tail takes the leftover cells. Each cell is written once.
//!   Sums are folded only where the mean criterion's next decide reads
//!   them; the range criterion, like the paper's `max − min ≤ T` test,
//!   never folds one.
//! * `is_square` levels are packed `u64` bitsets over the ceil grid
//!   `⌈w/2ᵏ⌉ × ⌈h/2ᵏ⌉`. The "four whole child squares" test runs a word at
//!   a time: two [`crate::kernels::coalesce_pair_words`] calls AND 128
//!   child bits down to one 64-block parent word, and all-zero candidate
//!   words skip the criterion entirely. A partially-outside block can never
//!   have four whole children (induction from level 0 = real pixels), so
//!   the old per-block bounds test is implied by the child bits. The range
//!   test of a full candidate word runs over 64 lanes into a byte array
//!   that [`crate::kernels::pack_lane_tests`] packs 8 lanes per multiply.
//! * Iteration `k` can only coalesce groups of four *whole* level-(k−1)
//!   squares, so the first unproductive iteration is terminal; like the
//!   paper we report only productive iterations.
//! * The maximal squares leave in one row-major pass over the pixels that
//!   writes `squares`, `stats` and `square_of` together, already in raster
//!   order of the top-left corners, into outputs sized once from the
//!   bitsets' popcounts. Each run of pixels outside every larger square
//!   (clear level-1 bits) becomes 1×1 squares in three bulk appends; a
//!   pixel under a square begun on an earlier row finds that square in
//!   the row above, writes its run of `square_of` and adds that row's
//!   pixels to the square's sum; any other pixel is a corner whose square is the
//!   highest aligned level with its `is_square` bit set, taking its min
//!   and max from that level's planes and starting its sum with its first
//!   row. The squares tile the image, so every sum is one row-major read
//!   of each pixel, the same path under both criteria. No stack and no
//!   sort: on speckle, where nearly every pixel is its own 1×1 square, the
//!   pass is a few bulk appends per row.
//! * [`Config::max_square_log2`] caps square growth; `Some(0)` disables the
//!   stage (the merge-only baseline).
//! * [`split`] is bit-identical to the retained pre-optimisation oracle
//!   [`crate::split_ref::split_reference`] (differential-proptested).

use crate::config::{range_satisfies, Config, Criterion, RegionStats};
use crate::kernels::{coalesce_pair_words, gather2x2, lane_sum4, pack_lane_tests};
use rg_imaging::{Image, Intensity};

/// One homogeneous square produced by the split stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Square {
    /// Column of the top-left pixel.
    pub x: u32,
    /// Row of the top-left pixel.
    pub y: u32,
    /// log2 of the side length (side = `1 << log2`).
    pub log2: u8,
}

impl Square {
    /// Side length in pixels.
    #[inline]
    pub fn side(&self) -> u32 {
        1 << self.log2
    }

    /// The paper's region ID: the linear (row-major) index of the top-left
    /// pixel in the *global* image of width `stride`. IDs are unique,
    /// canonical across all engines (sequential, data-parallel,
    /// message-passing), and their order is the raster order of the squares.
    #[inline]
    pub fn id(&self, stride: u32) -> u32 {
        self.y * stride + self.x
    }
}

/// Machine-independent work counters of one split run.
///
/// All counts are deterministic functions of the image shape, contents and
/// config, which makes them usable as perf-regression gates
/// (`bench_record split`) on any machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SplitMetrics {
    /// Stats levels available to the run, including level 0 (the image
    /// itself, which is read in place rather than copied).
    pub levels_built: u32,
    /// Levels with at least one coalesce (equals `iterations`).
    pub productive_levels: u32,
    /// Homogeneity/coalesce test operations: packed candidate words for the
    /// word-parallel engine, scalar block probes for the reference oracle.
    pub words_tested: u64,
    /// Stats cells written by pyramid folds (levels `k ≥ 1`; level 0 is
    /// the image and is never written). A cell is one block's min and max,
    /// plus its sum where the mean criterion's next decide reads it.
    pub cells_folded: u64,
}

/// Output of the split stage.
#[derive(Debug, Clone)]
pub struct SplitResult<P: Intensity> {
    /// The homogeneous squares, sorted by raster order of their top-left
    /// pixel (so the *dense index* of a square orders exactly like its
    /// [`Square::id`]).
    pub squares: Vec<Square>,
    /// Per-square statistics, parallel to `squares`.
    pub stats: Vec<RegionStats<P>>,
    /// For every pixel (row-major), the dense index of its square.
    pub square_of: Vec<u32>,
    /// Number of productive split iterations (≥ 1 coalesce each).
    pub iterations: u32,
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
    /// Work counters of this run (engine-internal; excluded from
    /// cross-engine conformance).
    pub metrics: SplitMetrics,
}

impl<P: Intensity> SplitResult<P> {
    /// Number of square regions found.
    pub fn num_squares(&self) -> usize {
        self.squares.len()
    }
}

impl<P: Intensity> Default for SplitResult<P> {
    fn default() -> Self {
        Self {
            squares: Vec::new(),
            stats: Vec::new(),
            square_of: Vec::new(),
            iterations: 0,
            width: 0,
            height: 0,
            metrics: SplitMetrics::default(),
        }
    }
}

/// One level (`k ≥ 1`) of the stats pyramid: packed structure-of-arrays
/// planes over the tight floor grid (no `Option` tags — every cell is a
/// whole in-image block by construction). `sum` is written only by mean
/// criterion runs and holds stale cells otherwise.
#[derive(Debug)]
struct PlaneLevel<P: Intensity> {
    min: Vec<P>,
    max: Vec<P>,
    sum: Vec<u64>,
}

impl<P: Intensity> PlaneLevel<P> {
    fn new() -> Self {
        Self {
            min: Vec::new(),
            max: Vec::new(),
            sum: Vec::new(),
        }
    }
}

/// Packed `u64` bitset over a 2-D block grid, one bit per block, row-major
/// words. Each row owns `wpr` words: `⌈width/64⌉` data words plus one
/// always-zero spare so the parent level's pair-coalesce may read child
/// word `2j+1` unconditionally.
#[derive(Debug, Default)]
struct BitGrid {
    words: Vec<u64>,
    width: usize,
    height: usize,
    wpr: usize,
}

impl BitGrid {
    /// Re-dimensions (and zeroes) the grid, keeping capacity.
    fn reset(&mut self, width: usize, height: usize) {
        self.width = width;
        self.height = height;
        self.wpr = width.div_ceil(64) + 1;
        self.words.clear();
        self.words.resize(self.wpr * height, 0);
    }

    #[inline]
    fn get(&self, x: usize, y: usize) -> bool {
        debug_assert!(x < self.width && y < self.height);
        (self.words[y * self.wpr + x / 64] >> (x % 64)) & 1 == 1
    }

    /// The first column `≥ x` of row `y` whose bit is set, or `width` if
    /// there is none.
    #[inline]
    fn next_set(&self, x: usize, y: usize) -> usize {
        let row = &self.words[y * self.wpr..(y + 1) * self.wpr];
        let mut j = x / 64;
        let mut word = row[j] & (!0u64 << (x % 64));
        while word == 0 {
            j += 1;
            if j == row.len() {
                return self.width;
            }
            word = row[j];
        }
        64 * j + word.trailing_zeros() as usize
    }

    fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Number of set bits.
    fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Reusable scratch for [`split_into`]: the per-level SoA stats planes and
/// the packed per-level `is_square` bitsets. Emission needs nothing more:
/// it reads the bitsets and writes the output vectors directly.
///
/// All buffers grow to a high-water mark and are never freed, so running
/// many same-shape images through one scratch performs **zero** heap
/// allocations after the first (warm-up) image. Sizing is **tight**: level
/// 0 is the image itself, so a `w × h` image allocates
/// `w·h (1/4 + 1/16 + …) < 1/3·w·h` stats cells, never the enclosing
/// power-of-two square (a 513×100 image does *not* pay for 1024² cells —
/// pinned by a regression test). A cell is a min and a max; the `u64` sum
/// planes exist only once a mean criterion run has folded them.
#[derive(Debug)]
pub struct SplitScratch<P: Intensity> {
    /// `levels[k]` (`k ≥ 1`): stats planes over the level-`k` floor grid
    /// `(w >> k) × (h >> k)`. Index 0 is an always-empty placeholder —
    /// level 0 is the image and is read in place.
    levels: Vec<PlaneLevel<P>>,
    /// `bits[k]` (`k ≥ 1`): packed `is_square` bitset over the level-`k`
    /// ceil grid. Index 0 is an always-empty placeholder — level-0 squares
    /// are exactly the real pixels and are never materialised.
    bits: Vec<BitGrid>,
}

impl<P: Intensity> SplitScratch<P> {
    /// Creates an empty scratch (no allocation until first use).
    pub fn new() -> Self {
        Self {
            levels: Vec::new(),
            bits: Vec::new(),
        }
    }

    /// Ensures at least `n` level slots exist (outer `Vec`s only; inner
    /// buffers are sized lazily by the folds).
    fn ensure_levels(&mut self, n: usize) {
        while self.levels.len() < n {
            self.levels.push(PlaneLevel::new());
        }
        while self.bits.len() < n {
            self.bits.push(BitGrid::default());
        }
    }

    /// Total stats-plane cells currently allocated across all levels — the
    /// scratch's high-water stats footprint. The padding regression test
    /// pins this to the tight geometric series of the actual rectangle.
    pub fn plane_cells(&self) -> usize {
        self.levels.iter().map(|l| l.min.capacity()).sum()
    }

    /// Total packed bitset words currently allocated across all levels.
    pub fn bitset_words(&self) -> usize {
        self.bits.iter().map(|b| b.words.capacity()).sum()
    }
}

impl<P: Intensity> Default for SplitScratch<P> {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs the split stage sequentially.
pub fn split<P: Intensity>(img: &Image<P>, config: &Config) -> SplitResult<P> {
    let mut scratch = SplitScratch::new();
    let mut out = SplitResult::default();
    split_into(img, config, &mut scratch, &mut out);
    out
}

/// Runs `f` over the block rows of `buf` (chunks of `stride`), visiting
/// only rows `0..rows`.
fn for_rows<T, F>(buf: &mut [T], stride: usize, rows: usize, mut f: F)
where
    F: FnMut(usize, &mut [T]),
{
    if rows == 0 || stride == 0 {
        return;
    }
    for (y, row) in buf.chunks_mut(stride).enumerate().take(rows) {
        f(y, row);
    }
}

/// Widens a pixel to its level-0 sum.
#[inline]
fn widen<P: Intensity>(p: P) -> u64 {
    p.to_u32() as u64
}

/// Sum of a run of pixels, each widened to its level-0 sum.
#[inline]
fn row_sum<P: Intensity>(row: &[P]) -> u64 {
    row.iter().map(|&p| widen(p)).sum()
}

/// The stats of a level-0 square (one pixel): `min = max = pixel`, `sum` =
/// widened pixel.
#[inline]
fn pixel_stats<P: Intensity>(p: P) -> RegionStats<P> {
    RegionStats {
        min: p,
        max: p,
        sum: widen(p),
        count: 1,
    }
}

/// Child lanes of one block of the min/max fold: 32 lanes of a top and a
/// bottom child row fold to 16 parent cells.
const FOLD_LANES: usize = 32;

/// Rewrites `dst` with the min or max fold (`op`) of the child plane `src`
/// (row stride `stride`): for every block row `by < fh`, child rows `2by`
/// and `2by+1` are folded block by block. A block folds [`FOLD_LANES`]
/// lanes of the two rows vertically, splits the result into even and odd
/// lanes and folds those, one fixed-width shape the autovectoriser turns
/// into SIMD min/max and shuffles; the leftover cells of a row fold one
/// 2×2 quad at a time. Each cell is written exactly once.
fn fold_extrema<P: Intensity>(
    dst: &mut Vec<P>,
    src: &[P],
    stride: usize,
    fw: usize,
    fh: usize,
    op: impl Fn(P, P) -> P + Copy,
) {
    dst.clear();
    if fw == 0 || fh == 0 {
        return;
    }
    dst.reserve(fw * fh);
    for pair in src.chunks_exact(2 * stride).take(fh) {
        let (top, bot) = pair.split_at(stride);
        let (mut tops, mut bots) = (
            top[..2 * fw].chunks_exact(FOLD_LANES),
            bot[..2 * fw].chunks_exact(FOLD_LANES),
        );
        for (t, b) in (&mut tops).zip(&mut bots) {
            let v: [P; FOLD_LANES] = std::array::from_fn(|i| op(t[i], b[i]));
            let even: [P; FOLD_LANES / 2] = std::array::from_fn(|i| v[2 * i]);
            let odd: [P; FOLD_LANES / 2] = std::array::from_fn(|i| v[2 * i + 1]);
            let folded: [P; FOLD_LANES / 2] = std::array::from_fn(|i| op(even[i], odd[i]));
            dst.extend_from_slice(&folded);
        }
        let (t, b) = (tops.remainder(), bots.remainder());
        dst.extend(
            t.chunks_exact(2)
                .zip(b.chunks_exact(2))
                .map(|(t, b)| op(op(t[0], b[0]), op(t[1], b[1]))),
        );
    }
}

/// Rewrites `dst` with one row-pair fold of the child plane `src` (row
/// stride `stride`): for every block row `by < fh`, child rows `2by` and
/// `2by+1` are walked in lockstep two lanes at a time and each 2×2 quad
/// (TL, TR, BL, BR) is combined by `f`. Each cell is written exactly once
/// — no zero-fill, no per-lane index math. The sum planes fold with it.
fn fold_plane<T: Copy, U>(
    dst: &mut Vec<U>,
    src: &[T],
    stride: usize,
    fw: usize,
    fh: usize,
    f: impl Fn([T; 4]) -> U,
) {
    dst.clear();
    if fw == 0 || fh == 0 {
        return;
    }
    dst.reserve(fw * fh);
    for pair in src.chunks_exact(2 * stride).take(fh) {
        let (top, bot) = pair.split_at(stride);
        dst.extend(
            top.chunks_exact(2)
                .zip(bot.chunks_exact(2))
                .map(|(t, b)| f([t[0], t[1], b[0], b[1]])),
        );
    }
}

/// Folds the level-`k` stats planes from level `k−1` — from the image
/// itself at `k == 1` — over the tight floor grid: the min and max planes
/// always, the sum plane only when `sums` (the mean criterion's decide
/// at level `k+1` reads it; emitted squares take their sums from the
/// pixels).
fn fold_level<P: Intensity>(img: &Image<P>, levels: &mut [PlaneLevel<P>], k: usize, sums: bool) {
    let (w, h) = (img.width(), img.height());
    let (fw, fh) = (w >> k, h >> k);
    let (lo, hi) = levels.split_at_mut(k);
    let cur = &mut hi[0];
    let (min, max, stride) = if k == 1 {
        let px = img.pixels();
        (px, px, w)
    } else {
        let child = &lo[k - 1];
        (&child.min[..], &child.max[..], w >> (k - 1))
    };
    fold_extrema(&mut cur.min, min, stride, fw, fh, Ord::min);
    fold_extrema(&mut cur.max, max, stride, fw, fh, Ord::max);
    if sums {
        if k == 1 {
            fold_plane(&mut cur.sum, img.pixels(), w, fw, fh, |q| {
                lane_sum4(q.map(widen))
            });
        } else {
            fold_plane(&mut cur.sum, &lo[k - 1].sum, stride, fw, fh, lane_sum4);
        }
    }
}

/// Mask selecting the low `lanes` bits of a word.
#[inline]
fn lanes_mask(lanes: usize) -> u64 {
    if lanes >= 64 {
        !0
    } else {
        (1u64 << lanes) - 1
    }
}

/// The "four whole child squares" test for 64 parent candidates at once.
/// At level 1 the children are raw pixels, whole by definition inside the
/// floor rect (the caller masks to it).
#[inline]
fn children_ok_word(child_words: &[u64], child_wpr: usize, k: usize, by: usize, j: usize) -> u64 {
    if k == 1 {
        !0
    } else {
        let top = 2 * by * child_wpr + 2 * j;
        let bot = top + child_wpr;
        coalesce_pair_words(child_words[top], child_words[top + 1])
            & coalesce_pair_words(child_words[bot], child_words[bot + 1])
    }
}

/// Decides `is_square` for level `k`, writing the packed bitset. Candidate
/// words that are all-zero after the child coalesce skip the criterion.
fn decide_level<P: Intensity>(
    img: &Image<P>,
    levels: &[PlaneLevel<P>],
    bits: &mut [BitGrid],
    k: usize,
    crit: Criterion,
    t: u32,
) {
    let (w, h) = (img.width(), img.height());
    let (fw, fh) = (w >> k, h >> k);
    let (cw, ch) = ((w + (1 << k) - 1) >> k, (h + (1 << k) - 1) >> k);
    let (bits_lo, bits_hi) = bits.split_at_mut(k);
    let cur = &mut bits_hi[0];
    cur.reset(cw, ch);
    if fw == 0 || fh == 0 {
        return;
    }
    let nw = fw.div_ceil(64);
    let wpr = cur.wpr;
    let (child_words, child_wpr): (&[u64], usize) = if k >= 2 {
        (&bits_lo[k - 1].words, bits_lo[k - 1].wpr)
    } else {
        (&[], 0)
    };

    match crit {
        Criterion::PixelRange => {
            // The block's range is the range of its (already folded)
            // level-k stats: one branch-free compare per lane, and a full
            // candidate word packs its 64 lane tests 8 at a time.
            let (minp, maxp) = (&levels[k].min, &levels[k].max);
            let test = |(lo, hi): (&P, &P)| range_satisfies(lo.to_u32(), hi.to_u32(), t);
            for_rows(&mut cur.words, wpr, fh, |by, row| {
                let (mins, maxs) = (&minp[by * fw..][..fw], &maxp[by * fw..][..fw]);
                let words = row.iter_mut().zip(mins.chunks(64).zip(maxs.chunks(64)));
                for (j, (slot, (mn, mx))) in words.enumerate() {
                    let cok =
                        children_ok_word(child_words, child_wpr, k, by, j) & lanes_mask(mn.len());
                    if cok == 0 {
                        continue;
                    }
                    let rb = match (<&[P; 64]>::try_from(mn), <&[P; 64]>::try_from(mx)) {
                        (Ok(mn), Ok(mx)) => {
                            pack_lane_tests(&std::array::from_fn(|i| test((&mn[i], &mx[i])) as u8))
                        }
                        _ => mn
                            .iter()
                            .zip(mx)
                            .enumerate()
                            .fold(0, |rb, (i, lane)| rb | (test(lane) as u64) << i),
                    };
                    *slot = cok & rb;
                }
            });
        }
        Criterion::MeanDifference => {
            // Pairwise child-mean tests need the four child stats, so walk
            // the surviving candidate bits and gather from level k−1 (the
            // image itself at k == 1).
            let child = &levels[k - 1];
            let (cmin, cmax, csum) = (&child.min, &child.max, &child.sum);
            let cfw = w >> (k - 1);
            let ccount = 1u64 << (2 * (k - 1));
            let px = img.pixels();
            for_rows(&mut cur.words, wpr, fh, |by, row| {
                for (j, slot) in row.iter_mut().enumerate().take(nw) {
                    let lanes = (fw - 64 * j).min(64);
                    let mut cok =
                        children_ok_word(child_words, child_wpr, k, by, j) & lanes_mask(lanes);
                    if cok == 0 {
                        continue;
                    }
                    let mut bits_out = 0u64;
                    while cok != 0 {
                        let i = cok.trailing_zeros() as usize;
                        cok &= cok - 1;
                        let bx = 64 * j + i;
                        let kids = if k == 1 {
                            gather2x2(px, cfw, bx, by).map(pixel_stats)
                        } else {
                            let mn = gather2x2(cmin, cfw, bx, by);
                            let mx = gather2x2(cmax, cfw, bx, by);
                            let sm = gather2x2(csum, cfw, bx, by);
                            [0usize, 1, 2, 3].map(|q| RegionStats {
                                min: mn[q],
                                max: mx[q],
                                sum: sm[q],
                                count: ccount,
                            })
                        };
                        if crit.combine_ok(&kids, t) {
                            bits_out |= 1 << i;
                        }
                    }
                    *slot = bits_out;
                }
            });
        }
    }
}

/// Runs the split stage into caller-owned buffers: all intermediate state
/// lives in `scratch` and the result is written into `out` (cleared first).
///
/// Produces exactly the same result as [`split`], but performs **no heap
/// allocation** once `scratch` and
/// `out` have warmed up to the high-water mark of the image shapes seen.
pub fn split_into<P: Intensity>(
    img: &Image<P>,
    config: &Config,
    scratch: &mut SplitScratch<P>,
    out: &mut SplitResult<P>,
) {
    let (w, h) = (img.width(), img.height());
    let top_possible = w.max(h).next_power_of_two().trailing_zeros() as usize;
    let cap = config
        .max_square_log2
        .map(|m| m as usize)
        .unwrap_or(top_possible)
        .min(top_possible);
    let t = config.threshold;
    let crit = config.criterion;

    scratch.ensure_levels(cap + 1);
    let SplitScratch { levels, bits } = scratch;
    // Level 0 is the image: nothing to fill.
    let mut metrics = SplitMetrics {
        levels_built: 1,
        ..SplitMetrics::default()
    };

    let mut iterations = 0u32;
    // Highest level actually probed this run (the first unproductive level
    // still gets its bitset written before the loop breaks, matching the
    // paper's "first unproductive iteration is terminal" probe).
    let mut top = 0usize;
    for k in 1..=cap {
        let (fw, fh) = (w >> k, h >> k);
        top = k;

        // Under the range criterion the level-k fold comes first — the
        // candidate test *is* a range check on the folded stats. The mean
        // criterion tests child pairs instead, so its fold is deferred
        // until the level is known productive (skipping the apex probe).
        // Only the mean criterion's next decide reads this level's sums.
        let fold_first = matches!(crit, Criterion::PixelRange);
        let sums = !fold_first && k < cap;
        if fold_first {
            fold_level(img, levels, k, sums);
            metrics.levels_built += 1;
            metrics.cells_folded += (fw * fh) as u64;
        }

        decide_level(img, levels, bits, k, crit, t);
        metrics.words_tested += (fh * fw.div_ceil(64)) as u64;

        if !bits[k].any() {
            break;
        }
        if !fold_first {
            fold_level(img, levels, k, sums);
            metrics.levels_built += 1;
            metrics.cells_folded += (fw * fh) as u64;
        }
        iterations += 1;
    }
    metrics.productive_levels = iterations;

    // Emit the maximal squares, their stats and the pixel -> square map in
    // one row-major pass, so squares come out in raster order of their
    // top-left corners. A set `is_square` bit implies its whole subtree,
    // so a pixel lies in a larger square iff its level-1 block is one:
    // each run of other pixels is emitted at once as 1×1 squares. A pixel
    // of a larger square that started on an earlier row finds that square
    // in the row above and writes its run of `square_of` again. Any other
    // one is the top-left corner of its square (the squares left of it on
    // this row were skipped whole), which is the highest level `k <= top`
    // the corner is aligned to whose bit is set.
    let SplitResult {
        squares,
        stats,
        square_of,
        ..
    } = out;
    // A set bit at level k covers four set bits at level k − 1 (or four
    // pixels), so the maximal squares number w·h − 3·(set bits at levels
    // 1..=top). Sizing both outputs once spares them growth by doubling.
    let num_squares = w * h - 3 * (1..=top).map(|k| bits[k].count()).sum::<usize>();
    squares.clear();
    squares.reserve(num_squares);
    stats.clear();
    stats.reserve(num_squares);
    square_of.clear();
    square_of.reserve(w * h);
    let px = img.pixels();
    for y in 0..h {
        let row = &px[y * w..(y + 1) * w];
        let mut x = 0;
        while x < w {
            let end = if top == 0 {
                w
            } else {
                (2 * bits[1].next_set(x >> 1, y >> 1)).min(w)
            };
            if end > x {
                let i = squares.len() as u32;
                squares.extend((x..end).map(|x| Square {
                    x: x as u32,
                    y: y as u32,
                    log2: 0,
                }));
                stats.extend(row[x..end].iter().map(|&p| pixel_stats(p)));
                square_of.extend(i..i + (end - x) as u32);
                x = end;
                continue;
            }
            if y > 0 {
                let above = (y - 1) * w + x;
                let si = square_of[above] as usize;
                let s = squares[si];
                let side = s.side() as usize;
                if s.y as usize + side > y {
                    stats[si].sum += row_sum(&row[x..x + side]);
                    // The run above is all `si`: write it, do not copy it.
                    square_of.extend(std::iter::repeat_n(si as u32, side));
                    x += side;
                    continue;
                }
            }
            let mut k = ((x | y).trailing_zeros() as usize).min(top);
            while !bits[k].get(x >> k, y >> k) {
                k -= 1;
            }
            // A whole level-k block: its min and max are one cell of the
            // tight planes, its count is the constant 4^k, and its sum
            // starts as the sum of its first pixel row; each row below
            // adds its own when the branch above emits it.
            let side = 1 << k;
            let i = squares.len() as u32;
            squares.push(Square {
                x: x as u32,
                y: y as u32,
                log2: k as u8,
            });
            let idx = (y >> k) * (w >> k) + (x >> k);
            let lvl = &levels[k];
            let sum = row_sum(&row[x..x + side]);
            stats.push(RegionStats {
                min: lvl.min[idx],
                max: lvl.max[idx],
                sum,
                count: 1u64 << (2 * k),
            });
            square_of.extend(std::iter::repeat_n(i, side));
            x += side;
        }
    }
    debug_assert_eq!(squares.len(), num_squares);
    debug_assert_eq!(square_of.len(), w * h);

    out.iterations = iterations;
    out.width = w;
    out.height = h;
    out.metrics = metrics;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Criterion;
    use rg_imaging::synth;

    fn cfg(t: u32) -> Config {
        Config::with_threshold(t)
    }

    #[test]
    fn figure1_split() {
        // Paper Figure 1: 4×4 image, T = 3 → after one iteration, three 2×2
        // squares coalesce (top-left, bottom-left, bottom-right); the
        // top-right quadrant stays four 1×1 squares. 7 squares total.
        let img = synth::figure1_image();
        let r = split(&img, &cfg(3));
        assert_eq!(r.iterations, 1);
        assert_eq!(r.num_squares(), 7);
        let sides: Vec<(u32, u32, u32)> = r.squares.iter().map(|s| (s.x, s.y, s.side())).collect();
        assert!(sides.contains(&(0, 0, 2)));
        assert!(sides.contains(&(0, 2, 2)));
        assert!(sides.contains(&(2, 2, 2)));
        assert!(sides.contains(&(2, 0, 1)));
        assert!(sides.contains(&(3, 0, 1)));
        assert!(sides.contains(&(2, 1, 1)));
        assert!(sides.contains(&(3, 1, 1)));
        // Stats of the top-left square: {6,7,8,6}.
        let tl = r.squares.iter().position(|s| (s.x, s.y) == (0, 0)).unwrap();
        assert_eq!(r.stats[tl].min, 6);
        assert_eq!(r.stats[tl].max, 8);
        assert_eq!(r.stats[tl].sum, 27);
        assert_eq!(r.stats[tl].count, 4);
    }

    #[test]
    fn uniform_image_becomes_one_square() {
        let img: Image<u8> = Image::new(16, 16, 42);
        let r = split(&img, &cfg(0));
        assert_eq!(r.num_squares(), 1);
        assert_eq!(r.squares[0].side(), 16);
        assert_eq!(r.iterations, 4); // 2,4,8,16
    }

    #[test]
    fn worst_case_checkerboard_one_unproductive_probe() {
        // 1-pixel checkerboard with contrast > T: nothing ever coalesces.
        let img = synth::checkerboard(8, 1, 0, 200);
        let r = split(&img, &cfg(10));
        assert_eq!(r.iterations, 0);
        assert_eq!(r.num_squares(), 64);
        assert!(r.squares.iter().all(|s| s.side() == 1));
    }

    #[test]
    fn cap_limits_square_growth() {
        let img: Image<u8> = Image::new(32, 32, 7);
        let r = split(&img, &cfg(5).max_square_log2(Some(3)));
        assert!(r.squares.iter().all(|s| s.side() == 8));
        assert_eq!(r.num_squares(), 16);
        assert_eq!(r.iterations, 3);
        // Cap 0 = merge-only baseline: every pixel is a square.
        let r0 = split(&img, &cfg(5).max_square_log2(Some(0)));
        assert_eq!(r0.num_squares(), 32 * 32);
        assert_eq!(r0.iterations, 0);
    }

    #[test]
    fn non_pow2_image_border_stays_fine() {
        let img: Image<u8> = Image::new(10, 6, 9);
        let r = split(&img, &cfg(0));
        // Coverage is exact.
        let mut covered = [false; 60];
        for s in &r.squares {
            for y in s.y..s.y + s.side() {
                for x in s.x..s.x + s.side() {
                    assert!(x < 10 && y < 6, "square leaks outside image");
                    let i = (y * 10 + x) as usize;
                    assert!(!covered[i], "double cover at ({x},{y})");
                    covered[i] = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c));
        // The largest possible square in a 10×6 uniform image is 4 (at
        // aligned positions 0 and 4); column 8..10 gives 2s and the bottom
        // rows 4..6 give 2s.
        assert!(r.squares.iter().all(|s| s.side() <= 4));
        assert!(r.squares.iter().any(|s| s.side() == 4));
    }

    #[test]
    fn squares_sorted_by_raster_order_and_ids_increase() {
        let img = synth::rect_collection(64);
        let r = split(&img, &cfg(10));
        for w in r.squares.windows(2) {
            assert!((w[0].y, w[0].x) < (w[1].y, w[1].x));
            assert!(w[0].id(64) < w[1].id(64));
        }
    }

    #[test]
    fn square_of_consistent_with_squares() {
        let img = synth::circle_collection(64);
        let r = split(&img, &cfg(10));
        for (i, s) in r.squares.iter().enumerate() {
            assert_eq!(r.square_of[(s.y as usize) * 64 + s.x as usize], i as u32);
        }
        // Every pixel's square actually contains it.
        for y in 0..64usize {
            for x in 0..64usize {
                let s = r.squares[r.square_of[y * 64 + x] as usize];
                assert!(x >= s.x as usize && x < (s.x + s.side()) as usize);
                assert!(y >= s.y as usize && y < (s.y + s.side()) as usize);
            }
        }
    }

    #[test]
    fn every_square_homogeneous_and_maximal() {
        let img = synth::random_rects(48, 48, 8, 3);
        let t = 12;
        let r = split(&img, &cfg(t));
        for (s, st) in r.squares.iter().zip(&r.stats) {
            // Homogeneous.
            assert!(
                st.range() <= t,
                "square at ({},{}) range {}",
                s.x,
                s.y,
                st.range()
            );
            // Stats correct (recompute brute force).
            let mut lo = u8::MAX;
            let mut hi = u8::MIN;
            let mut sum = 0u64;
            for y in s.y..s.y + s.side() {
                for x in s.x..s.x + s.side() {
                    let p = img.get(x as usize, y as usize);
                    lo = lo.min(p);
                    hi = hi.max(p);
                    sum += p as u64;
                }
            }
            assert_eq!(
                (st.min, st.max, st.sum, st.count),
                (lo, hi, sum, (s.side() as u64).pow(2))
            );
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_across_shapes() {
        // One scratch + one output buffer, reused across images of varying
        // shapes and configs, must produce bit-identical results to fresh
        // calls (including after shrinking from a larger image).
        let mut scratch = SplitScratch::new();
        let mut out = SplitResult::default();
        let images = [
            synth::random_rects(96, 64, 10, 1),
            synth::random_rects(32, 32, 6, 2),
            synth::random_rects(96, 64, 10, 3),
            synth::random_rects(17, 9, 4, 4),
        ];
        for img in &images {
            for t in [0u32, 8, 40] {
                let fresh = split(img, &cfg(t));
                split_into(img, &cfg(t), &mut scratch, &mut out);
                assert_eq!(fresh.squares, out.squares);
                assert_eq!(fresh.stats, out.stats);
                assert_eq!(fresh.square_of, out.square_of);
                assert_eq!(fresh.iterations, out.iterations);
                assert_eq!(fresh.metrics, out.metrics);
                assert_eq!((fresh.width, fresh.height), (out.width, out.height));
            }
        }
    }

    #[test]
    fn mean_criterion_split() {
        // For singleton pixels the two criteria coincide (max pairwise
        // value difference = range), so the divergence shows at level 2:
        // blocks whose means are close but whose pooled range is wide
        // coalesce under MeanDifference only.
        #[rustfmt::skip]
        let img: Image<u8> = Image::from_vec(4, 4, vec![
            0, 8,  4, 12,
            8, 0, 12,  4,
            4, 12, 0,  8,
            12, 4, 8,  0,
        ]);
        let range_cfg = cfg(8);
        let mean_cfg = cfg(8).criterion(Criterion::MeanDifference);
        // Both coalesce the four 2×2 blocks (internal diffs ≤ 8) ...
        let r = split(&img, &range_cfg);
        assert_eq!(r.num_squares(), 4);
        assert!(r.squares.iter().all(|s| s.side() == 2));
        // ... but only the mean criterion accepts the 4×4 (means all 6,
        // pooled range 12 > 8).
        assert_eq!(split(&img, &mean_cfg).num_squares(), 1);
    }

    #[test]
    fn one_by_n_and_n_by_one_degenerate() {
        // Nothing ever coalesces in a 1-pixel-wide strip (no 2×2 block
        // fits), regardless of contents.
        let tall: Image<u8> = Image::new(1, 37, 5);
        let r = split(&tall, &cfg(255));
        assert_eq!(r.iterations, 0);
        assert_eq!(r.num_squares(), 37);
        let wide: Image<u8> = Image::new(129, 1, 5);
        let r = split(&wide, &cfg(255));
        assert_eq!(r.iterations, 0);
        assert_eq!(r.num_squares(), 129);
        let dot: Image<u8> = Image::new(1, 1, 9);
        let r = split(&dot, &cfg(0));
        assert_eq!(r.num_squares(), 1);
        assert_eq!(r.stats[0].count, 1);
    }

    #[test]
    fn metrics_accounting() {
        // Uniform 16×16, T=0: folds at levels 1..=4 (64+16+4+1), all
        // productive. Level 0 is the image and is never written.
        let img: Image<u8> = Image::new(16, 16, 42);
        let r = split(&img, &cfg(0));
        assert_eq!(r.metrics.levels_built, 5);
        assert_eq!(r.metrics.productive_levels, 4);
        assert_eq!(r.metrics.cells_folded, 64 + 16 + 4 + 1);
        // One candidate word per block row per level: 8 + 4 + 2 + 1.
        assert_eq!(r.metrics.words_tested, 8 + 4 + 2 + 1);
        // Checkerboard: one unproductive probe folds level 1 then stops.
        let cb = split(&synth::checkerboard(8, 1, 0, 200), &cfg(10));
        assert_eq!(cb.metrics.levels_built, 2);
        assert_eq!(cb.metrics.productive_levels, 0);
        assert_eq!(cb.metrics.cells_folded, 16);
        assert_eq!(cb.metrics.words_tested, 4);
    }

    #[test]
    fn rect_scratch_footprint_is_tight() {
        // The padding regression: a 513×100 image must allocate the tight
        // geometric series of the rectangle above level 0 (< 1/3 · w·h
        // stats cells; level 0 is the image itself), not the 1024×1024
        // enclosing power-of-two square of the old layout.
        let img: Image<u8> = Image::new(513, 100, 7);
        let mut scratch = SplitScratch::new();
        let mut out = SplitResult::default();
        split_into(&img, &cfg(0), &mut scratch, &mut out);
        let cells = scratch.plane_cells();
        assert!(
            cells < 513 * 100 / 3 + 64,
            "stats planes allocated {cells} cells — padding or a level-0 copy is back?"
        );
        assert!(
            cells < 1024 * 1024 / 4,
            "stats planes allocated {cells} cells — comparable to the padded square"
        );
        // Packed bitsets are a rounding error next to the old Vec<bool>
        // levels (which held side² bytes at level 1 alone).
        let words = scratch.bitset_words();
        assert!(
            words * 64 < 2 * 513 * 100,
            "bitsets allocated {words} words"
        );
    }
}
