//! Exact reproduction of the paper's worked examples (Figures 1 and 2).
//!
//! Figure 2's intermediate states were hand-verified from the paper (see
//! DESIGN.md): with smallest-ID tie-breaking the 4×4 example merges
//! {0,5} and {2,4} in iteration 1, {3,6} in iteration 2, and {0,3} plus
//! {1,2} in iteration 3, finishing with 2 regions.

use rg_core::graph::Rag;
use rg_core::{split, Config, Connectivity, Merger, TieBreak};
use rg_imaging::synth::figure1_image;

fn cfg() -> Config {
    Config::with_threshold(3).tie_break(TieBreak::SmallestId)
}

#[test]
fn figure1_square_regions() {
    let img = figure1_image();
    let s = split(&img, &cfg());
    // (b) after the first and final split iteration: three 2×2 squares and
    // the four raw pixels of the top-right quadrant.
    assert_eq!(s.iterations, 1);
    let squares: Vec<(u32, u32, u32)> = s.squares.iter().map(|q| (q.x, q.y, q.side())).collect();
    assert_eq!(
        squares,
        vec![
            (0, 0, 2),
            (2, 0, 1),
            (3, 0, 1),
            (2, 1, 1),
            (3, 1, 1),
            (0, 2, 2),
            (2, 2, 2),
        ]
    );
}

#[test]
fn figure2_rag_weights() {
    // Edge weights at the start of the merge stage, from the figure:
    // w(0,5)=2, w(0,3)=3, w(0,1)=7 (inactive at T=3), w(1,2)=2, w(3,4)=1,
    // w(3,6)=1, w(5,6)=3, ...
    let img = figure1_image();
    let s = split(&img, &cfg());
    let rag = Rag::from_split(&s, Connectivity::Four);
    let weight = |u: usize, v: usize| {
        rg_core::Criterion::PixelRange.weight(&rag.stats[u], &rag.stats[v]) >> 16
    };
    assert_eq!(weight(0, 5), 2);
    assert_eq!(weight(0, 3), 3);
    assert_eq!(weight(0, 1), 7);
    assert_eq!(weight(1, 2), 2);
    assert_eq!(weight(3, 4), 1);
    assert_eq!(weight(3, 6), 1);
    assert_eq!(weight(5, 6), 3);
}

#[test]
fn figure2_iteration_by_iteration() {
    let img = figure1_image();
    let config = cfg();
    let s = split(&img, &config);
    let rag = Rag::from_split(&s, Connectivity::Four);
    let ids: Vec<u64> = s.squares.iter().map(|q| q.id(4) as u64).collect();
    let mut m = Merger::new(rag, ids, &config);

    // (a) start: 7 regions.
    assert_eq!(m.num_regions(), 7);

    // (b) iteration 1: {0,5} and {2,4} merge.
    assert_eq!(m.step().merges, 2);
    let l = m.labels_by_vertex();
    assert_eq!(l[5], 0);
    assert_eq!(l[4], 2);
    assert_eq!(m.num_regions(), 5);

    // (c) iteration 2: {3,6} merges.
    assert_eq!(m.step().merges, 1);
    assert_eq!(m.labels_by_vertex()[6], 3);
    assert_eq!(m.num_regions(), 4);

    // (d) iteration 3 (final): {0,3} and {1,2} merge; no active edges.
    assert_eq!(m.step().merges, 2);
    assert!(m.is_done());
    assert_eq!(m.num_regions(), 2);
    assert_eq!(m.iterations(), 3);
    assert_eq!(m.labels_by_vertex(), vec![0, 1, 1, 0, 1, 0, 0]);
}
