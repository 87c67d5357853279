//! Sequential union-find with union by rank and full path compression.

/// A forest of disjoint sets over the universe `0..len`.
///
/// `find` compresses paths; `union` links by rank. Both are amortised
/// O(α(n)). Element indices are `u32` — the region-growing graphs never
/// exceed the pixel count of an image, which comfortably fits.
#[derive(Debug, Clone)]
pub struct DisjointSets {
    parent: Vec<u32>,
    rank: Vec<u8>,
    /// Number of distinct sets currently in the forest.
    num_sets: usize,
}

impl DisjointSets {
    /// Creates `len` singleton sets.
    pub fn new(len: usize) -> Self {
        assert!(len <= u32::MAX as usize, "universe too large for u32 ids");
        Self {
            parent: (0..len as u32).collect(),
            rank: vec![0; len],
            num_sets: len,
        }
    }

    /// Re-initialises the forest to `len` singleton sets **in place**,
    /// reusing the existing allocations when `len` fits in the current
    /// capacity. Equivalent to `*self = DisjointSets::new(len)` but
    /// allocation-free in steady state.
    pub fn reset(&mut self, len: usize) {
        assert!(len <= u32::MAX as usize, "universe too large for u32 ids");
        self.parent.clear();
        self.parent.extend(0..len as u32);
        self.rank.clear();
        self.rank.resize(len, 0);
        self.num_sets = len;
    }

    /// Size of the universe.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` iff the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of distinct sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Representative of `x`'s set, compressing the traversed path.
    pub fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Second pass: point every node on the path at the root.
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets of `a` and `b`; returns `false` if already joined.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        self.num_sets -= 1;
        true
    }

    /// Merges the sets of `a` and `b` making **the smaller root id the
    /// representative** — the paper's convention ("the region with the
    /// smaller ID becomes the representative of the two").
    ///
    /// Gives up union-by-rank, so worst-case depth is O(n); in the merge
    /// stage every union is followed by relabelling, which keeps paths
    /// short in practice.
    pub fn union_min_rep(&mut self, a: u32, b: u32) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        let (rep, other) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[other as usize] = rep;
        self.num_sets -= 1;
        true
    }

    /// Resolves **every** element to its root in one batched pass, without
    /// mutating the forest (no per-element [`DisjointSets::find`] calls).
    ///
    /// The first sweep resolves all *monotone* links (`parent[v] ≤ v`) in
    /// strictly increasing index order and records, branch-free, whether
    /// it met any other link. For forests built exclusively with
    /// [`DisjointSets::union_min_rep`] (the merge engine's convention)
    /// there is none, and this single O(n) pass is the whole resolve.
    /// Non-monotone links (possible under rank-based
    /// [`DisjointSets::union`]) are finished by pointer jumping
    /// (`out ← out[out]`), which halves every path per round and therefore
    /// terminates in O(log n) rounds.
    pub fn resolve_all(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.resolve_all_into(&mut out);
        out
    }

    /// [`DisjointSets::resolve_all`] writing into a caller-owned buffer
    /// (cleared first), so steady-state reuse performs no heap allocation
    /// once the buffer has reached its high-water capacity.
    pub fn resolve_all_into(&self, out: &mut Vec<u32>) {
        let n = self.parent.len();
        out.clear();
        out.reserve(n);
        let mut monotone = true;
        for v in 0..n {
            let p = self.parent[v];
            monotone &= p as usize <= v;
            out.push(if (p as usize) < v { out[p as usize] } else { p });
        }
        if monotone {
            return;
        }
        loop {
            let mut changed = false;
            for v in 0..n {
                let hop = out[out[v] as usize];
                if hop != out[v] {
                    out[v] = hop;
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Representative of `x`'s set, found without mutating the forest: the
    /// oracle the `resolve_all` tests compare against.
    fn find_immutable(d: &DisjointSets, x: u32) -> u32 {
        let mut root = x;
        while d.parent[root as usize] != root {
            root = d.parent[root as usize];
        }
        root
    }

    #[test]
    fn singletons() {
        let mut d = DisjointSets::new(5);
        assert_eq!(d.num_sets(), 5);
        assert_eq!(d.len(), 5);
        for i in 0..5 {
            assert_eq!(d.find(i), i);
        }
    }

    #[test]
    fn union_and_find() {
        let mut d = DisjointSets::new(6);
        assert!(d.union(0, 1));
        assert!(d.union(2, 3));
        assert!(!d.union(1, 0));
        assert_eq!(d.find(0), d.find(1));
        assert_ne!(d.find(0), d.find(2));
        assert!(d.union(1, 3));
        assert_eq!(d.find(0), d.find(2));
        assert_eq!(d.num_sets(), 3);
    }

    #[test]
    fn union_min_rep_keeps_smallest() {
        let mut d = DisjointSets::new(10);
        d.union_min_rep(7, 3);
        assert_eq!(d.find(7), 3);
        d.union_min_rep(3, 9);
        assert_eq!(d.find(9), 3);
        d.union_min_rep(1, 9);
        assert_eq!(d.find(7), 1);
        assert_eq!(d.find(3), 1);
    }

    #[test]
    fn resolve_all_matches_find_on_min_rep_forest() {
        let mut d = DisjointSets::new(64);
        // Arbitrary min-rep unions, including chains.
        for (a, b) in [(3, 7), (7, 12), (0, 3), (20, 21), (21, 40), (63, 20)] {
            d.union_min_rep(a, b);
        }
        let resolved = d.resolve_all();
        for v in 0..64u32 {
            assert_eq!(resolved[v as usize], find_immutable(&d, v), "v={v}");
        }
    }

    #[test]
    fn resolve_all_matches_find_on_rank_forest() {
        // Rank unions can produce non-monotone parent links; the pointer
        // jumping fallback must still resolve everything.
        let mut d = DisjointSets::new(50);
        for i in 0..49u32 {
            d.union(48 - i, 49 - i);
        }
        let resolved = d.resolve_all();
        for v in 0..50u32 {
            assert_eq!(resolved[v as usize], find_immutable(&d, v), "v={v}");
        }
    }

    /// A forest with the given parent links, built directly so a test can
    /// place a non-monotone link (`parent[v] > v`) exactly.
    fn forest(parent: Vec<u32>) -> DisjointSets {
        let n = parent.len();
        DisjointSets {
            parent,
            rank: vec![0; n],
            num_sets: 0,
        }
    }

    fn assert_resolves_like_find(d: &DisjointSets) {
        let resolved = d.resolve_all();
        for v in 0..d.len() as u32 {
            assert_eq!(resolved[v as usize], find_immutable(d, v), "v={v}");
        }
    }

    #[test]
    fn resolve_all_finishes_a_lone_link_to_the_last_index() {
        // 3 → 4 is the only non-monotone link, as late as one can sit: the
        // monotone sweep leaves 3 at 4, which it resolves to 0 only after.
        let d = forest(vec![0, 0, 1, 4, 2]);
        assert_resolves_like_find(&d);
        assert_eq!(d.resolve_all(), vec![0; 5]);
    }

    #[test]
    fn resolve_all_finishes_a_lone_link_mid_chain() {
        // 7 → 6 → 4 → 3 → 5 → 2 → 1 → 0, with 3 → 5 the only
        // non-monotone link, in the middle of the chain.
        let d = forest(vec![0, 0, 1, 5, 3, 2, 4, 6, 8]);
        assert_resolves_like_find(&d);
        assert_eq!(d.resolve_all(), vec![0, 0, 0, 0, 0, 0, 0, 0, 8]);
    }

    #[test]
    fn resolve_all_on_singletons_is_identity() {
        let d = DisjointSets::new(5);
        assert_eq!(d.resolve_all(), vec![0, 1, 2, 3, 4]);
        assert!(DisjointSets::new(0).resolve_all().is_empty());
    }

    #[test]
    fn reset_restores_singletons_and_reuses_capacity() {
        let mut d = DisjointSets::new(16);
        for i in 1..16u32 {
            d.union_min_rep(i - 1, i);
        }
        assert_eq!(d.num_sets(), 1);
        d.reset(16);
        assert_eq!(d.num_sets(), 16);
        for i in 0..16u32 {
            assert_eq!(d.find(i), i);
        }
        // Shrinking reset also works.
        d.reset(4);
        assert_eq!(d.len(), 4);
        assert_eq!(d.num_sets(), 4);
        // And behaves identically to a fresh forest afterwards.
        d.union_min_rep(3, 1);
        assert_eq!(d.find(3), 1);
    }

    #[test]
    fn resolve_all_into_matches_resolve_all() {
        let mut d = DisjointSets::new(32);
        for (a, b) in [(3, 7), (7, 12), (0, 3), (20, 21), (21, 30)] {
            d.union_min_rep(a, b);
        }
        let fresh = d.resolve_all();
        let mut reused = vec![9999u32; 5]; // stale garbage must be cleared
        d.resolve_all_into(&mut reused);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn long_chain_compresses() {
        let n = 10_000;
        let mut d = DisjointSets::new(n);
        for i in 1..n as u32 {
            d.union_min_rep(i - 1, i);
        }
        assert_eq!(d.num_sets(), 1);
        assert_eq!(d.find(n as u32 - 1), 0);
        // After compression the path from the deepest node is short.
        assert_eq!(d.parent[n - 1], 0);
    }
}
