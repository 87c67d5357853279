//! Tests of merge-trace recording and the weight-cut hierarchy.

use rg_core::labels::compact_first_appearance;
use rg_core::{segment, segment_with_trace, Config, TieBreak};
use rg_dsu::DisjointSets;
use rg_imaging::synth;

#[test]
fn trace_does_not_change_segmentation() {
    let img = synth::circle_collection(64);
    let cfg = Config::with_threshold(10).tie_break(TieBreak::Random { seed: 4 });
    let plain = segment(&img, &cfg);
    let (traced, trace) = segment_with_trace(&img, &cfg);
    assert_eq!(plain, traced);
    // Total events = squares - final regions.
    assert_eq!(trace.len(), traced.num_squares - traced.num_regions);
    assert_eq!(trace.num_vertices, traced.num_squares);
}

#[test]
fn full_cut_reproduces_final_partition() {
    let img = synth::rect_collection(64);
    let cfg = Config::with_threshold(10);
    let (seg, trace) = segment_with_trace(&img, &cfg);
    // Cutting at the full threshold replays every merge.
    assert_eq!(trace.regions_at_cut(cfg.threshold), seg.num_regions);
    // Replay every event, map through the split to per-pixel labels and
    // compare partitions.
    let mut dsu = DisjointSets::new(trace.num_vertices);
    for e in &trace.events {
        dsu.union_min_rep(e.winner, e.loser);
    }
    let split = rg_core::split(&img, &cfg);
    let raw: Vec<u32> = split.square_of.iter().map(|&q| dsu.find(q)).collect();
    let (labels, n) = compact_first_appearance(&raw);
    assert_eq!(n, seg.num_regions);
    assert_eq!(labels, seg.labels);
}

#[test]
fn zero_cut_restores_squares() {
    let img = synth::rect_collection(64);
    let cfg = Config::with_threshold(10);
    let (seg, trace) = segment_with_trace(&img, &cfg);
    // All merges in these flat scenes happen at weight 0 (regions of equal
    // intensity), so a weight-0 cut replays everything...
    assert_eq!(trace.regions_at_cut(0), seg.num_regions);
    // ...and no merge has a positive weight.
    assert!(trace.events.iter().all(|e| e.weight_fp16 == 0));
}

#[test]
fn noisy_scene_has_monotone_weight_cuts() {
    let img = synth::uniform_noise(96, 96, 40, 220, 9);
    let cfg = Config::with_threshold(60);
    let (seg, trace) = segment_with_trace(&img, &cfg);
    let mut weights: Vec<u32> = trace
        .events
        .iter()
        .map(|e| (e.weight_fp16 >> 16) as u32)
        .collect();
    weights.sort_unstable();
    weights.dedup();
    assert!(!weights.is_empty());
    let regions: Vec<usize> = weights.iter().map(|&w| trace.regions_at_cut(w)).collect();
    for w in regions.windows(2) {
        assert!(w[0] > w[1], "every distinct weight admits a merge");
    }
    // The last cut admits every merge.
    assert_eq!(*regions.last().unwrap(), seg.num_regions);
    // Merges-per-iteration grouping is consistent with the summary.
    let per_iter = trace.merges_per_iteration();
    let total: u32 = per_iter.iter().map(|&(_, n)| n).sum();
    assert_eq!(total as usize, trace.len());
}

#[test]
fn absorbed_vertices_are_exactly_the_losers() {
    let img = synth::nested_rects(64);
    let cfg = Config::with_threshold(10);
    let (seg, trace) = segment_with_trace(&img, &cfg);
    let mut losers: Vec<u32> = trace.events.iter().map(|e| e.loser).collect();
    losers.sort_unstable();
    losers.dedup();
    assert_eq!(losers.len(), trace.num_vertices - seg.num_regions);
}
