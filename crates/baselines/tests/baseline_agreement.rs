//! Agreement and divergence between the baselines and the paper's
//! parallel split-and-merge algorithm.

use proptest::prelude::*;
use rg_baselines::{ccl, hp, seeded};
use rg_core::labels::compact_first_appearance;
use rg_core::{segment, split, Config, Connectivity};
use rg_imaging::synth;

/// `true` iff two label buffers induce the same partition of the pixels
/// (possibly under different numbering).
fn same_partition(a: &[u32], b: &[u32]) -> bool {
    a.len() == b.len() && compact_first_appearance(a).0 == compact_first_appearance(b).0
}

#[test]
fn same_partition_ignores_numbering() {
    let a = vec![0, 0, 1, 1];
    let b = vec![5, 5, 2, 2];
    let c = vec![0, 1, 1, 1];
    assert!(same_partition(&a, &b));
    assert!(!same_partition(&a, &c));
    assert!(!same_partition(&a, &[0, 0, 1]));
}

#[test]
fn all_algorithms_agree_on_flat_contrast_scenes() {
    // When every pair of distinct intensities differs by more than T, the
    // partition is unique: flat connected components. Every algorithm must
    // find it.
    for pi in [
        synth::PaperImage::Image1,
        synth::PaperImage::Image2,
        synth::PaperImage::Image3,
    ] {
        let img = pi.generate();
        let cfg = Config::with_threshold(10);
        let sm = segment(&img, &cfg);
        let grown = seeded::grow_regions(&img, &cfg);
        let hp_seg = hp::split_and_merge(&img, &cfg);
        let comps = ccl::label_components(&img, Connectivity::Four);
        assert_eq!(sm.num_regions, comps.num_components, "{pi:?}");
        assert!(same_partition(&sm.labels, &grown.labels), "{pi:?} seeded");
        assert!(same_partition(&sm.labels, &hp_seg.labels), "{pi:?} hp");
        assert!(same_partition(&sm.labels, &comps.labels), "{pi:?} ccl");
    }
}

#[test]
fn hp_merge_steps_dwarf_parallel_iterations() {
    // The point of the parallel formulation: HP performs one merge per
    // step; the mutual-choice merge performs many per iteration.
    let img = synth::circle_collection(128);
    let cfg = Config::with_threshold(10);
    let sm = segment(&img, &cfg);
    let hp_seg = hp::split_and_merge(&img, &cfg);
    assert_eq!(sm.num_regions, hp_seg.num_regions);
    assert!(
        hp_seg.merge_steps as u32 > 10 * sm.merge_iterations,
        "hp {} steps vs parallel {} iterations",
        hp_seg.merge_steps,
        sm.merge_iterations
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hp_leaves_equal_bottom_up_squares(
        seed in 0u64..10_000,
        w in 8usize..48,
        h in 8usize..48,
        count in 0usize..8,
        t in 0u32..100,
    ) {
        // Top-down (Horowitz-Pavlidis) and bottom-up (the paper) quadtree
        // decomposition produce the same leaves under the pixel-range
        // criterion.
        let img = synth::random_rects(w, h, count, seed);
        let cfg = Config::with_threshold(t);
        let hp_seg = hp::split_and_merge(&img, &cfg);
        let bu = split(&img, &cfg);
        prop_assert_eq!(hp_seg.num_leaves, bu.num_squares());
    }

    #[test]
    fn ccl_equals_threshold_zero_segmentation(
        seed in 0u64..10_000,
        w in 4usize..40,
        h in 4usize..40,
        count in 0usize..8,
    ) {
        let img = synth::random_rects(w, h, count, seed);
        let cfg = Config::with_threshold(0);
        let sm = segment(&img, &cfg);
        let comps = ccl::label_components(&img, Connectivity::Four);
        prop_assert_eq!(&sm.labels, &comps.labels);
        prop_assert_eq!(sm.num_regions, comps.num_components);
    }

    #[test]
    fn seeded_regions_never_fewer_than_unique_partition_bound(
        seed in 0u64..10_000,
        w in 8usize..40,
        h in 8usize..40,
        count in 0usize..6,
        t in 0u32..60,
    ) {
        // Any valid segmentation has at least as many regions as the
        // number of flat components mergeable into each other... the
        // cheap sound check: seeded growth can never produce more regions
        // than pixels or fewer than 1, and its region count at T is at
        // most the count at 0 (absorbing more can only reduce seeds).
        let img = synth::random_rects(w, h, count, seed);
        let at_t = seeded::grow_regions(&img, &Config::with_threshold(t));
        let at_0 = seeded::grow_regions(&img, &Config::with_threshold(0));
        prop_assert!(at_t.num_regions >= 1);
        prop_assert!(at_t.num_regions <= at_0.num_regions);
    }
}

#[test]
fn metrics_quantify_agreement_and_divergence() {
    use rg_core::metrics::{rand_index, variation_of_information};
    // Flat-contrast scene: all algorithms produce the identical partition,
    // so the metrics sit at their ideal values.
    let img = synth::rect_collection(64);
    let cfg = Config::with_threshold(10);
    let sm = segment(&img, &cfg);
    let grown = seeded::grow_regions(&img, &cfg);
    assert_eq!(rand_index(&sm.labels, &grown.labels), 1.0);
    assert!(variation_of_information(&sm.labels, &grown.labels) < 1e-12);

    // Gradient scene: order-dependence makes seeded growth drift from the
    // split-and-merge partition — the metrics must register a real but
    // bounded difference.
    let ramp = synth::gradient(64, 64, 1);
    let cfg = Config::with_threshold(12);
    let sm = segment(&ramp, &cfg);
    let grown = seeded::grow_regions(&ramp, &cfg);
    let ri = rand_index(&sm.labels, &grown.labels);
    let vi = variation_of_information(&sm.labels, &grown.labels);
    assert!(ri < 1.0, "partitions should differ on a ramp");
    assert!(ri > 0.5, "but they should still be broadly similar");
    assert!(vi > 0.0);
}
