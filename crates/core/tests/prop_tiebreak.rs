//! Property tests for the tie-break machinery shared by every engine.
//!
//! Three families of properties:
//!
//! 1. **Order invariance** — `tie_key` induces a strict total order over a
//!    chooser's candidates, so the winning candidate (the argmin) does not
//!    depend on the order the candidates are visited in. This is what lets
//!    the sequential, data-parallel, and message-passing engines —
//!    which all enumerate neighbours in different orders — make identical
//!    choices.
//!
//! 2. **Stall-guard termination** — under `TieBreak::Random`, an iteration
//!    may produce no merge when choices form a cycle. The engine's guard
//!    (`Config::max_stall` empty iterations, then one smallest-ID fallback
//!    iteration) must force termination on adversarial graphs where *every*
//!    edge is an exact tie: equal-intensity rings and chorded rings, the
//!    worst case for cyclic choices.
//!
//! 3. **Oracle differential** — the CSR [`Merger`] steps exactly like the
//!    reference edge-list merge ([`rg_core::merge_reference`]): on random
//!    rectangles, on narrow-band noise, on fully-tied rings, and on `u16`
//!    and `u32` rasters whose 16.16 weights pass 2³², so a ranking key
//!    that truncated the weight would fail, and on `u32` rasters whose
//!    ranges reach `u32::MAX`, where a packed key can equal the value its
//!    fold starts from.

use proptest::prelude::*;
use rg_core::graph::Rag;
use rg_core::merge::{tie_key, tie_priority, Merger};
use rg_core::telemetry::derive_merge_iterations;
use rg_core::{merge_reference, split, Config, Connectivity, Criterion, RegionStats, TieBreak};
use rg_imaging::{synth, Image, Intensity};

/// Deterministically shuffles `v` with a splitmix-style keyed sort.
fn shuffle<T: Copy>(v: &[T], key: u64) -> Vec<T> {
    let mut pairs: Vec<(u64, T)> = v
        .iter()
        .enumerate()
        .map(|(i, &x)| (tie_priority(key, 0, i as u64, 0), x))
        .collect();
    pairs.sort_by_key(|&(k, _)| k);
    pairs.into_iter().map(|(_, x)| x).collect()
}

/// The winner `chooser` picks among `candidates` under `policy` at
/// `iteration`: minimum `tie_key`, scanning in the given order.
fn pick(policy: TieBreak, iteration: u32, chooser: u64, candidates: &[u64]) -> u64 {
    let mut best: Option<(u64, (u64, u64))> = None;
    for &c in candidates {
        let k = tie_key(policy, iteration, chooser, c);
        if best.is_none_or(|(_, bk)| k < bk) {
            best = Some((c, k));
        }
    }
    best.expect("non-empty candidate list").0
}

/// An equal-intensity ring of `n` regions with `chords` extra edges: every
/// edge weight is 0, so every neighbour choice is a pure tie.
fn adversarial_ring(n: usize, chords: &[(usize, usize)]) -> (Rag<'static, u8>, Vec<u64>) {
    let stats = vec![RegionStats::of_pixel(128u8); n];
    let mut edges: Vec<(u32, u32)> = (0..n)
        .map(|i| {
            let j = (i + 1) % n;
            ((i.min(j)) as u32, (i.max(j)) as u32)
        })
        .collect();
    for &(a, b) in chords {
        let (a, b) = (a % n, b % n);
        if a != b {
            edges.push(((a.min(b)) as u32, (a.max(b)) as u32));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    // Canonical IDs must be strictly increasing but need not be dense.
    let ids: Vec<u64> = (0..n as u64).map(|i| i * 5 + 2).collect();
    (Rag::from_parts(stats, edges), ids)
}

prop_compose! {
    fn candidate_set()(
        raw in proptest::collection::vec(0u64..10_000, 1..24),
    ) -> Vec<u64> {
        let mut v = raw;
        v.sort_unstable();
        v.dedup();
        v
    }
}

// Random rectangles: large squares and exact ties on flat regions.
prop_compose! {
    fn rects_scene()(
        w in 8usize..48,
        h in 8usize..48,
        rects in 0usize..9,
        seed in 0u64..1_000,
        threshold in 0u32..48,
    ) -> (Image<u8>, u32) {
        (synth::random_rects(w, h, rects, seed), threshold)
    }
}

// Narrow-band noise: dense 1×1 squares, many duplicate slots after each
// round of merges, and criterion tests that pass about half the time.
prop_compose! {
    fn noise_scene()(
        w in 8usize..48,
        h in 8usize..48,
        lo in 0u8..=235,
        band in 0u8..=20,
        seed in 0u64..1_000,
        threshold in 0u32..=24,
    ) -> (Image<u8>, u32) {
        (synth::uniform_noise(w, h, lo, lo + band, seed), threshold)
    }
}

/// A raster for the per-step differential, with a threshold drawn for it.
fn scene() -> impl Strategy<Value = (Image<u8>, u32)> {
    prop_oneof![rects_scene(), noise_scene()]
}

/// One of the three tie policies.
fn tie(policy: usize, seed: u64) -> TieBreak {
    [
        TieBreak::SmallestId,
        TieBreak::LargestId,
        TieBreak::Random { seed },
    ][policy]
}

/// Splits `img` under `cfg` and runs [`assert_steps_match`] on its RAG.
fn assert_split_steps_match<P: Intensity>(img: &Image<P>, cfg: &Config) -> Result<(), String> {
    let s = split(img, cfg);
    let stride = s.width as u32;
    let ids: Vec<u64> = s.squares.iter().map(|q| u64::from(q.id(stride))).collect();
    assert_steps_match(Rag::from_split(&s, cfg.connectivity), ids, cfg)
}

prop_compose! {
    fn ring()(
        n in 3usize..48,
    )(
        chords in proptest::collection::vec((0usize.., 0usize..), 0..16),
        n in Just(n),
    ) -> (usize, Vec<(usize, usize)>) {
        (n, chords.into_iter().map(|(a, b)| (a % n, b % n)).collect())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `tie_key` is injective over distinct candidates for a fixed chooser
    /// (the secondary component guarantees it even on hash collisions), so
    /// the argmin is unique.
    #[test]
    fn tie_key_is_injective_per_chooser(
        cands in candidate_set(),
        chooser in 0u64..10_000,
        iteration in 0u32..64,
        seed in 0u64..1_000,
    ) {
        for policy in [
            TieBreak::SmallestId,
            TieBreak::LargestId,
            TieBreak::Random { seed },
        ] {
            let mut keys: Vec<(u64, u64)> = cands
                .iter()
                .map(|&c| tie_key(policy, iteration, chooser, c))
                .collect();
            keys.sort_unstable();
            let len = keys.len();
            keys.dedup();
            prop_assert_eq!(keys.len(), len, "{:?}: duplicate keys", policy);
        }
        // The random priority alone is injective too: the CSR engine folds
        // `(weight, k0)` and drops the second component.
        let mut k0: Vec<u64> = cands
            .iter()
            .map(|&c| tie_priority(seed, iteration, chooser, c))
            .collect();
        k0.sort_unstable();
        let len = k0.len();
        k0.dedup();
        prop_assert_eq!(k0.len(), len, "duplicate random priorities");
    }

    /// The winning candidate is invariant under any enumeration order of
    /// the candidate list — the property the engines rely on.
    #[test]
    fn winner_is_enumeration_order_invariant(
        cands in candidate_set(),
        chooser in 0u64..10_000,
        iteration in 0u32..64,
        seed in 0u64..1_000,
        shuffles in proptest::collection::vec(0u64.., 1..6),
    ) {
        for policy in [
            TieBreak::SmallestId,
            TieBreak::LargestId,
            TieBreak::Random { seed },
        ] {
            let base = pick(policy, iteration, chooser, &cands);
            for &k in &shuffles {
                let shuffled = shuffle(&cands, k);
                prop_assert_eq!(
                    pick(policy, iteration, chooser, &shuffled),
                    base,
                    "{:?}: winner changed under shuffle", policy
                );
            }
            // Reversal is the adversarial order for scan-based argmins.
            let mut rev = cands.clone();
            rev.reverse();
            prop_assert_eq!(pick(policy, iteration, chooser, &rev), base);
        }
    }

    /// `tie_priority` is a pure function: identical inputs give identical
    /// outputs across calls (no hidden state), and it actually depends on
    /// the iteration (re-randomisation between rounds).
    #[test]
    fn tie_priority_is_pure_and_reseeds_each_iteration(
        seed in 0u64.., chooser in 0u64.., candidate in 0u64..,
        iteration in 0u32..1_000,
    ) {
        let a = tie_priority(seed, iteration, chooser, candidate);
        let b = tie_priority(seed, iteration, chooser, candidate);
        prop_assert_eq!(a, b);
        // Not a proof of independence, just a regression guard: the next
        // iteration's priority differs somewhere in a small window.
        let differs = (1..=4u32).any(|d| {
            tie_priority(seed, iteration + d, chooser, candidate) != a
        });
        prop_assert!(differs, "priorities constant across iterations");
    }

    /// Random tie-breaking with the stall guard terminates on fully-tied
    /// adversarial rings, fully merging them, within the guard's bound:
    /// each fallback window (`max_stall` empty iterations + 1 forced
    /// smallest-ID iteration) guarantees at least one merge.
    #[test]
    fn random_ties_terminate_on_adversarial_rings(
        (n, chords) in ring(),
        seed in 0u64..10_000,
        max_stall in 1u32..4,
    ) {
        let (rag, ids) = adversarial_ring(n, &chords);
        let config = Config::with_threshold(10)
            .tie_break(TieBreak::Random { seed });
        let config = Config { max_stall, ..config };
        let mut merger = Merger::new(rag, ids, &config);
        let summary = merger.run();
        prop_assert_eq!(summary.num_regions, 1, "ring must fully coalesce");
        let total: u32 = summary.merges_per_iteration.iter().sum();
        prop_assert_eq!(total as usize, n - 1);
        // Worst case: every productive iteration merges exactly one pair
        // and is preceded by a full stall window.
        let bound = (n as u32 - 1) * (max_stall + 1) + max_stall;
        prop_assert!(
            summary.iterations <= bound,
            "{} iterations exceeds stall-guard bound {}", summary.iterations, bound
        );
    }

    /// `derive_merge_iterations` (used by the simulated engines' telemetry)
    /// replays exactly the fallback decisions the live `Merger` made.
    #[test]
    fn derived_fallback_flags_match_live_stepping(
        (n, chords) in ring(),
        seed in 0u64..10_000,
        max_stall in 1u32..4,
    ) {
        let (rag, ids) = adversarial_ring(n, &chords);
        let config = Config::with_threshold(10)
            .tie_break(TieBreak::Random { seed });
        let config = Config { max_stall, ..config };
        let mut merger = Merger::new(rag, ids, &config);
        let mut live = Vec::new();
        while !merger.is_done() {
            let rep = merger.step();
            live.push((rep.merges, rep.used_fallback));
        }
        let merges: Vec<u32> = live.iter().map(|&(m, _)| m).collect();
        let derived = derive_merge_iterations(&merges, config.tie_break, config.max_stall);
        prop_assert_eq!(derived.len(), live.len());
        for (i, (rec, &(m, f))) in derived.iter().zip(&live).enumerate() {
            prop_assert_eq!(rec.iteration as usize, i);
            prop_assert_eq!(rec.merges, m);
            prop_assert_eq!(rec.used_fallback, f, "iteration {}", i);
        }
    }

    /// **Per-step oracle differential.** The CSR engine and the reference
    /// edge-list merge are different data structures implementing one
    /// algorithm: for any image, threshold, connectivity, criterion and
    /// tie policy, every step must merge the same number of pairs, take
    /// the same fallback decision and leave the same active edges, and the
    /// runs must end with the same merge trace, labels and peak. The
    /// engine never moves more data than the oracle.
    #[test]
    fn merger_steps_match_reference_merge(
        (img, threshold) in scene(),
        eight in any::<bool>(),
        mean in any::<bool>(),
        policy in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let conn = if eight { Connectivity::Eight } else { Connectivity::Four };
        let crit = if mean { Criterion::MeanDifference } else { Criterion::PixelRange };
        let cfg = Config::with_threshold(threshold)
            .tie_break(tie(policy, seed))
            .connectivity(conn)
            .criterion(crit);
        assert_split_steps_match(&img, &cfg)?;
    }

    /// The same differential on wide rasters: random rectangles with each
    /// grey level `v` scaled to `v << shift` in a `u32` raster (intensities
    /// up to 2³², so 16.16 weights up to 2⁴⁸) or to `257 v` in a `u16`
    /// one, with thresholds in the same units or `u32::MAX`. The tiled
    /// stitch runs a `Merger<u32>` in production.
    #[test]
    fn merger_steps_match_reference_merge_on_wide_intensities(
        w in 8usize..40,
        h in 8usize..40,
        rects in 0usize..9,
        img_seed in 0u64..1_000,
        shift in 16u32..=24,
        levels in 0u32..48,
        unbounded in any::<bool>(),
        wide32 in any::<bool>(),
        mean in any::<bool>(),
        policy in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let base = synth::random_rects(w, h, rects, img_seed);
        let scale = if wide32 { 1 << shift } else { 257 };
        let threshold = if unbounded { u32::MAX } else { levels * scale };
        let crit = if mean { Criterion::MeanDifference } else { Criterion::PixelRange };
        let cfg = Config::with_threshold(threshold)
            .tie_break(tie(policy, seed))
            .criterion(crit);
        if wide32 {
            assert_split_steps_match(&base.map(|v| u32::from(v) << shift), &cfg)?;
        } else {
            assert_split_steps_match(&base.map(|v| u16::from(v) * 257), &cfg)?;
        }
    }

    /// The same differential on fully-tied adversarial rings under random
    /// ties, where empty iterations and stall-guard fallbacks are common.
    #[test]
    fn merger_steps_match_reference_merge_on_rings(
        (n, chords) in ring(),
        seed in 0u64..10_000,
        max_stall in 1u32..4,
    ) {
        let (rag, ids) = adversarial_ring(n, &chords);
        let config = Config::with_threshold(10).tie_break(TieBreak::Random { seed });
        assert_steps_match(rag, ids, &Config { max_stall, ..config })?;
    }
}

/// The oracle differential at the top of the range: 0 beside `u32::MAX`
/// at threshold `u32::MAX`. Under largest-ID ties the pixel-range key of
/// range `u32::MAX` to candidate 0 is `u64::MAX`, the value the
/// deterministic fold starts from, so the fold must take a key equal to
/// its start value. In the 2×2 scene the last merge is exactly that
/// choice; in the 2×1 and 1×2 scenes, the first. Under random ties the
/// weight is about 2⁴⁸, so the random key's top bits are all ones.
#[test]
fn merger_steps_match_reference_merge_at_the_extreme_range() {
    const M: u32 = u32::MAX;
    let scenes = [
        Image::from_fn(2, 1, |x, _| if x == 0 { 0 } else { M }),
        Image::from_fn(1, 2, |_, y| if y == 0 { 0 } else { M }),
        Image::from_fn(2, 2, |x, y| if x + y == 0 { 0 } else { M }),
        synth::random_rects(12, 10, 6, 3).map(|v| if v % 2 == 0 { 0 } else { M }),
    ];
    for img in &scenes {
        let random = [0, 1, 7, 12_345].map(|seed| TieBreak::Random { seed });
        for tie in [TieBreak::LargestId, TieBreak::SmallestId]
            .into_iter()
            .chain(random)
        {
            let cfg = Config::with_threshold(M)
                .tie_break(tie)
                .max_square_log2(Some(0));
            assert_split_steps_match(img, &cfg).unwrap();
        }
    }
}

/// Steps an untraced [`Merger`] over `rag` next to [`merge_reference`]
/// and compares everything both observe (all of a [`rg_core::StepReport`]
/// but the engine-only `compacted` flag). The untraced merger is the one
/// production runs: under deterministic ties its rescan visits only the
/// dirty owners. A traced merger, which scans every vertex instead, steps
/// alongside and must take the same steps and record the oracle's trace.
fn assert_steps_match<P: Intensity>(
    rag: Rag<'_, P>,
    ids: Vec<u64>,
    cfg: &Config,
) -> Result<(), String> {
    let oracle = merge_reference(&rag, &ids, cfg);
    let mut traced = Merger::new(rag.clone(), ids.clone(), cfg);
    traced.enable_trace();
    let mut m = Merger::new(rag, ids, cfg);
    for (i, expect) in oracle.steps.iter().enumerate() {
        let expect = (expect.merges, expect.used_fallback, expect.active_edges);
        for (merger, name) in [(&mut m, "untraced"), (&mut traced, "traced")] {
            prop_assert!(
                !merger.is_done(),
                "{} engine finished after {} of {} steps",
                name,
                i,
                oracle.steps.len()
            );
            let step = merger.step();
            prop_assert_eq!(
                (step.merges, step.used_fallback, step.active_edges),
                expect,
                "{} engine, step {}",
                name,
                i
            );
        }
    }
    prop_assert!(
        m.is_done() && traced.is_done(),
        "engine runs past the oracle's {} steps",
        oracle.steps.len()
    );
    prop_assert_eq!(traced.take_trace(), Some(oracle.trace));
    prop_assert_eq!(m.labels_by_vertex(), oracle.labels_by_vertex);
    prop_assert_eq!(m.peak_active_edges(), oracle.peak_active_edges);
    prop_assert!(
        m.relabel_work() <= oracle.relabel_work,
        "engine relabel work {} exceeds the oracle's {}",
        m.relabel_work(),
        oracle.relabel_work
    );
    Ok(())
}
