//! Cross-engine equivalence: the sequential, data-parallel (CM-2 and CM-5
//! cost models), and message-passing (LP and Async) engines must produce
//! the identical `Segmentation` for the same configuration.
//!
//! This is the strongest end-to-end property of the reproduction: the
//! paper's three codebases (CM Fortran on two machines, F77 + CMMD) were
//! meant to compute the same thing; ours provably do.

use cm_sim::CostModel;
use cmmd_sim::CommScheme;
use rg_core::{
    segment, segment_with_telemetry, Config, Connectivity, Criterion, Recorder, Stage,
    TelemetryReport, TieBreak,
};
use rg_datapar::{segment_datapar, segment_datapar_with_telemetry};
use rg_imaging::synth;
use rg_msgpass::{segment_msgpass, segment_msgpass_with_telemetry, Decomposition};

/// Runs every engine and asserts equality of the segmentations.
fn assert_all_engines_agree(img: &rg_imaging::GrayImage, config: &Config, nodes: usize) {
    // Clamp the cap as the message-passing decomposition requires.
    let d = Decomposition::for_nodes(nodes, img.width(), img.height()).unwrap();
    let cap = config
        .max_square_log2
        .map(|c| c.min(d.max_safe_square_log2()))
        .unwrap_or(d.max_safe_square_log2());
    let cfg = Config {
        max_square_log2: Some(cap),
        ..*config
    };

    let host = segment(img, &cfg);

    for model in [
        CostModel::cm2_8k(),
        CostModel::cm2_16k(),
        CostModel::cm5_dp_32(),
    ] {
        let dp = segment_datapar(img, &cfg, model);
        assert_eq!(
            host, dp.seg,
            "data-parallel engine diverged on {}",
            dp.platform
        );
    }
    for scheme in [CommScheme::LinearPermutation, CommScheme::Async] {
        let mp = segment_msgpass(img, &cfg, nodes, scheme);
        assert_eq!(host, mp.seg, "message-passing engine diverged ({scheme:?})");
    }
}

#[test]
fn engines_agree_on_paper_worked_example() {
    let img = synth::figure1_image();
    assert_all_engines_agree(
        &img,
        &Config::with_threshold(3).tie_break(TieBreak::SmallestId),
        4,
    );
}

#[test]
fn engines_agree_on_nested_rects() {
    let img = synth::nested_rects(64);
    assert_all_engines_agree(&img, &Config::with_threshold(10), 8);
}

#[test]
fn engines_agree_on_circles_with_random_ties() {
    let img = synth::circle_collection(64);
    assert_all_engines_agree(
        &img,
        &Config::with_threshold(10).tie_break(TieBreak::Random { seed: 123 }),
        16,
    );
}

#[test]
fn engines_agree_on_random_scenes() {
    for seed in 0..3u64 {
        let img = synth::random_rects(48, 32, 7, seed);
        for tie in [TieBreak::SmallestId, TieBreak::Random { seed: 9 }] {
            assert_all_engines_agree(&img, &Config::with_threshold(25).tie_break(tie), 4);
        }
    }
}

#[test]
fn engines_agree_with_eight_connectivity() {
    let img = synth::rect_collection(64);
    assert_all_engines_agree(
        &img,
        &Config::with_threshold(10).connectivity(Connectivity::Eight),
        4,
    );
}

#[test]
fn engines_agree_with_mean_criterion() {
    let img = synth::uniform_noise(48, 48, 90, 120, 4);
    assert_all_engines_agree(
        &img,
        &Config::with_threshold(6).criterion(Criterion::MeanDifference),
        4,
    );
}

#[test]
fn engines_agree_on_merge_only_baseline() {
    let img = synth::rect_collection(32);
    assert_all_engines_agree(
        &img,
        &Config::with_threshold(10).max_square_log2(Some(0)),
        4,
    );
}

#[test]
fn engines_agree_on_noise_that_fully_coalesces() {
    // Noise within the threshold: one region total.
    let img = synth::uniform_noise(64, 64, 100, 104, 8);
    assert_all_engines_agree(&img, &Config::with_threshold(8), 8);
}

/// Collects a telemetry report from every engine for the same image and
/// configuration (cap clamped to the message-passing decomposition so all
/// engines are bit-identical, as in [`assert_all_engines_agree`]).
fn collect_all_reports(
    img: &rg_imaging::GrayImage,
    config: &Config,
    nodes: usize,
) -> Vec<TelemetryReport> {
    let d = Decomposition::for_nodes(nodes, img.width(), img.height()).unwrap();
    let cap = config
        .max_square_log2
        .map(|c| c.min(d.max_safe_square_log2()))
        .unwrap_or(d.max_safe_square_log2());
    let cfg = Config {
        max_square_log2: Some(cap),
        ..*config
    };

    let mut reports = Vec::new();
    let mut rec = Recorder::new();
    segment_with_telemetry(img, &cfg, &mut rec);
    reports.push(rec.into_report());
    for model in [
        CostModel::cm2_8k(),
        CostModel::cm2_16k(),
        CostModel::cm5_dp_32(),
    ] {
        let mut rec = Recorder::new();
        segment_datapar_with_telemetry(img, &cfg, model, &mut rec);
        reports.push(rec.into_report());
    }
    for scheme in [CommScheme::LinearPermutation, CommScheme::Async] {
        let mut rec = Recorder::new();
        segment_msgpass_with_telemetry(img, &cfg, nodes, scheme, &mut rec);
        reports.push(rec.into_report());
    }
    reports
}

/// Telemetry conformance: every engine's recorded report must agree on the
/// observable segmentation history — per-iteration merge counts (including
/// which iterations used the stall-guard fallback), split iteration count,
/// square count, and final region count — for a fixed seed and config.
#[test]
fn telemetry_reports_agree_across_engines() {
    let img = synth::circle_collection(64);
    let cfg = Config::with_threshold(10).tie_break(TieBreak::Random { seed: 0x5EED });
    let reports = collect_all_reports(&img, &cfg, 16);
    assert_eq!(reports.len(), 6);
    let base = &reports[0];
    assert_eq!(base.engine, "seq");
    assert!(base.num_regions > 0);
    assert!(base.total_merge_iterations() > 0);
    // Compare the *observable* history through `conformance_view()`, which
    // normalises away the backend-internal per-iteration fields
    // (`active_edges`, `compacted`) that only the host engine reports.
    let base_view = base.conformance_view();
    for r in &reports[1..] {
        assert_eq!(
            r.conformance_view(),
            base_view,
            "observable history diverged on {}",
            r.engine
        );
    }
}

/// Every engine emits the same stage sequence, and only the simulated
/// engines attach simulated seconds to their spans.
#[test]
fn telemetry_stage_structure_is_uniform() {
    let img = synth::nested_rects(64);
    let cfg = Config::with_threshold(10);
    let reports = collect_all_reports(&img, &cfg, 8);
    for r in &reports {
        let stages: Vec<Stage> = r.stages.iter().map(|s| s.stage).collect();
        assert_eq!(
            stages,
            [Stage::Split, Stage::Graph, Stage::Merge, Stage::Label],
            "{}",
            r.engine
        );
        let simulated = r.engine.starts_with("datapar:") || r.engine.starts_with("msgpass:");
        for span in &r.stages {
            if span.stage == Stage::Label {
                assert!(span.sim_seconds.is_none(), "{}", r.engine);
            } else {
                assert_eq!(span.sim_seconds.is_some(), simulated, "{}", r.engine);
            }
        }
        // Comm counters exist exactly for the message-passing engines.
        assert_eq!(
            r.comm.is_some(),
            r.engine.starts_with("msgpass:"),
            "{}",
            r.engine
        );
        if let Some(comm) = &r.comm {
            assert!(comm.rounds > 0);
            assert!(comm.messages > 0);
            assert!(comm.bytes > 0);
        }
    }
}

/// Large-scale smoke test: 1024² scene through the host engine plus one
/// simulated platform each. Run with `cargo test -- --ignored --release`.
#[test]
#[ignore = "large; run explicitly with --ignored in release mode"]
fn engines_agree_at_1024() {
    let img = synth::circle_collection(1024);
    assert_all_engines_agree(&img, &Config::with_threshold(10), 32);
}
