//! Property tests for the tie-break machinery shared by every engine.
//!
//! Two families of properties:
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

use proptest::prelude::*;
use rg_core::graph::Rag;
use rg_core::merge::{tie_key, tie_priority, Merger};
use rg_core::telemetry::derive_merge_iterations;
use rg_core::{segment, Config, Connectivity, Criterion, MergeBackend, RegionStats, TieBreak};
use rg_imaging::synth;

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

    /// **Differential backend equivalence.** The incremental CSR merge
    /// engine and the reference edge-list engine are different data
    /// structures implementing one algorithm: for any image, threshold,
    /// connectivity, criterion and tie policy, they must produce the *identical*
    /// [`rg_core::Segmentation`] — same final labels, same region count,
    /// and the same merge history iteration by iteration (the
    /// merges-per-iteration trajectory, which pins down every intermediate
    /// RAG state, not just the fixed point).
    #[test]
    fn csr_backend_matches_reference_backend(
        w in 8usize..48,
        h in 8usize..48,
        rects in 0usize..9,
        img_seed in 0u64..1_000,
        threshold in 0u32..48,
        eight in any::<bool>(),
        mean in any::<bool>(),
        policy in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let img = synth::random_rects(w, h, rects, img_seed);
        let tie = [
            TieBreak::SmallestId,
            TieBreak::LargestId,
            TieBreak::Random { seed },
        ][policy];
        let conn = if eight { Connectivity::Eight } else { Connectivity::Four };
        let crit = if mean { Criterion::MeanDifference } else { Criterion::PixelRange };
        let base = Config::with_threshold(threshold)
            .tie_break(tie)
            .connectivity(conn)
            .criterion(crit);
        let csr = Config { merge_backend: MergeBackend::Csr, ..base };
        let reference = Config { merge_backend: MergeBackend::Reference, ..base };
        prop_assert_eq!(
            segment(&img, &csr),
            segment(&img, &reference),
            "backends diverged: {:?} conn={:?} {:?} t={}",
            tie, conn, crit, threshold
        );
    }
}
