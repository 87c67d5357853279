//! Property-based tests of the segmentation invariants on arbitrary
//! scenes: for any image, threshold, policy, and connectivity, the result
//! must verify (connected + homogeneous + maximal).

use proptest::prelude::*;
use rg_core::{segment, split, verify_segmentation, Config, Connectivity, TieBreak};
use rg_imaging::{synth, Image};

prop_compose! {
    fn scene()(
        seed in 0u64..1_000_000,
        w in 8usize..48,
        h in 8usize..48,
        count in 0usize..10,
    ) -> Image<u8> {
        synth::random_rects(w, h, count, seed)
    }
}

prop_compose! {
    fn config()(
        t in 0u32..120,
        tie in prop_oneof![
            Just(TieBreak::SmallestId),
            Just(TieBreak::LargestId),
            (0u64..1000).prop_map(|seed| TieBreak::Random { seed }),
        ],
        conn in prop_oneof![Just(Connectivity::Four), Just(Connectivity::Eight)],
        cap in prop_oneof![Just(None), (0u8..6).prop_map(Some)],
    ) -> Config {
        Config::with_threshold(t).tie_break(tie).connectivity(conn).max_square_log2(cap)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn segmentation_invariants_hold(img in scene(), cfg in config()) {
        let seg = segment(&img, &cfg);
        if let Err(violations) = verify_segmentation(&img, &seg, &cfg) {
            prop_assert!(false, "violations: {:?}", &violations[..violations.len().min(3)]);
        }
    }

    #[test]
    fn split_squares_tile_and_are_maximal(img in scene(), t in 0u32..100) {
        let cfg = Config::with_threshold(t);
        let s = split(&img, &cfg);
        // Tiling: every pixel covered exactly once.
        let mut covered = vec![false; img.len()];
        for sq in &s.squares {
            for y in sq.y..sq.y + sq.side() {
                for x in sq.x..sq.x + sq.side() {
                    let i = y as usize * img.width() + x as usize;
                    prop_assert!(!covered[i], "double cover at ({x},{y})");
                    covered[i] = true;
                }
            }
        }
        prop_assert!(covered.iter().all(|&c| c));
        // Homogeneity of every square.
        for (sq, st) in s.squares.iter().zip(&s.stats) {
            prop_assert!(st.range() <= t, "square ({},{}) range {}", sq.x, sq.y, st.range());
        }
        // Maximality: four sibling whole squares of equal size never have a
        // combined range within the threshold.
        use std::collections::HashMap;
        let mut by_pos: HashMap<(u32, u32), usize> = HashMap::new();
        for (i, sq) in s.squares.iter().enumerate() {
            by_pos.insert((sq.x, sq.y), i);
        }
        for (i, sq) in s.squares.iter().enumerate() {
            let b = sq.side();
            if sq.x % (2 * b) != 0 || sq.y % (2 * b) != 0 {
                continue;
            }
            if (sq.x + 2 * b) as usize > img.width() || (sq.y + 2 * b) as usize > img.height() {
                continue;
            }
            let sib = [
                by_pos.get(&(sq.x + b, sq.y)),
                by_pos.get(&(sq.x, sq.y + b)),
                by_pos.get(&(sq.x + b, sq.y + b)),
            ];
            let all_same_size = sib
                .iter()
                .all(|o| o.is_some_and(|&j| s.squares[j].log2 == sq.log2));
            if !all_same_size {
                continue;
            }
            let mut acc = s.stats[i];
            for o in sib.into_iter().flatten() {
                acc = acc.fold(s.stats[*o]);
            }
            prop_assert!(
                acc.range() > t,
                "four siblings at ({},{}) size {} should have coalesced (range {})",
                sq.x, sq.y, b, acc.range()
            );
        }
    }

    #[test]
    fn partition_is_threshold_monotone_in_region_count(img in scene()) {
        // Region counts are not monotone in T for split-and-merge in
        // general, but the extremes are safe anchors: T=255 always yields
        // one region, and T=0 yields the flat connected components, an
        // upper bound on every other threshold's count.
        let lo = segment(&img, &Config::with_threshold(0));
        let hi = segment(&img, &Config::with_threshold(255));
        prop_assert_eq!(hi.num_regions, 1);
        prop_assert!(lo.num_regions >= hi.num_regions);
    }
}
