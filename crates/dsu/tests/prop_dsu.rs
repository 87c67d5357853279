//! Property tests: union-find partition semantics.

use proptest::prelude::*;
use rg_dsu::DisjointSets;

prop_compose! {
    fn ops()(
        n in 2usize..256,
    )(
        pairs in proptest::collection::vec((0usize.., 0usize..), 0..400),
        n in Just(n),
    ) -> (usize, Vec<(u32, u32)>) {
        (n, pairs.into_iter().map(|(a, b)| ((a % n) as u32, (b % n) as u32)).collect())
    }
}

proptest! {
    #[test]
    fn union_min_rep_root_is_minimum((n, pairs) in ops()) {
        let mut d = DisjointSets::new(n);
        for &(a, b) in &pairs {
            d.union_min_rep(a, b);
        }
        // Every root must be the minimum element of its set.
        let mut min_of_root = std::collections::HashMap::new();
        for i in 0..n as u32 {
            let r = d.find(i);
            let e = min_of_root.entry(r).or_insert(i);
            *e = (*e).min(i);
        }
        for (root, min) in min_of_root {
            prop_assert_eq!(root, min);
        }
    }

    #[test]
    fn num_sets_matches_distinct_roots((n, pairs) in ops()) {
        let mut d = DisjointSets::new(n);
        for &(a, b) in &pairs {
            d.union(a, b);
        }
        let roots: std::collections::HashSet<u32> = (0..n as u32).map(|i| d.find(i)).collect();
        prop_assert_eq!(roots.len(), d.num_sets());
        let labels = d.compact_labels();
        let distinct: std::collections::HashSet<u32> = labels.iter().copied().collect();
        prop_assert_eq!(distinct.len(), roots.len());
    }
}
