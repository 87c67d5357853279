//! Telemetry golden-file snapshots.
//!
//! Two golden files pin the full report schema for deterministic runs of
//! the 64×64 nested-rectangles scene — on the simulated CM-2 (8K), and on
//! the host pipeline (which adds the packed split stage's `split.*`
//! counters) — after canonicalising away host wall-clock times
//! (`without_wall_times`).
//! Simulated seconds, iteration histories, and per-primitive counters are
//! all exact and platform-independent, so any change to the event schema or
//! to the engines' behaviour shows up as a diff against the snapshot.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test telemetry_golden
//! ```

use cm_sim::CostModel;
use rg_core::{segment_with_telemetry, Config, Recorder, TelemetryReport, TieBreak};
use rg_imaging::synth;
use std::path::Path;

const GOLDEN: &str = "tests/golden/telemetry_nested64.json";
const GOLDEN_HOST: &str = "tests/golden/telemetry_host_nested64.json";

fn golden_report() -> TelemetryReport {
    let img = synth::nested_rects(64);
    let cfg = Config::with_threshold(10).tie_break(TieBreak::Random { seed: 0x5EED });
    let mut rec = Recorder::new();
    rg_datapar::segment_datapar_with_telemetry(&img, &cfg, CostModel::cm2_8k(), &mut rec);
    rec.into_report().without_wall_times()
}

/// Same scene through the host pipeline, which additionally emits the
/// packed split stage's deterministic `split.*` counters (levels built,
/// productive levels, bitset words tested, stats cells folded).
fn golden_host_report() -> TelemetryReport {
    let img = synth::nested_rects(64);
    let cfg = Config::with_threshold(10).tie_break(TieBreak::Random { seed: 0x5EED });
    let mut rec = Recorder::new();
    segment_with_telemetry(&img, &cfg, &mut rec);
    rec.into_report().without_wall_times()
}

fn check_golden(report: &TelemetryReport, golden: &str) {
    let rendered = report.to_json_pretty();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(golden);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {golden} ({e}); run with UPDATE_GOLDEN=1"));
    // The exact rendering: field order, float formatting and every value.
    assert_eq!(
        rendered.trim_end(),
        expected.trim_end(),
        "telemetry JSON rendering diverged from golden snapshot {golden}"
    );
}

#[test]
fn golden_snapshot_matches() {
    check_golden(&golden_report(), GOLDEN);
}

#[test]
fn golden_host_snapshot_matches() {
    check_golden(&golden_host_report(), GOLDEN_HOST);
}

#[test]
fn host_report_carries_split_counters() {
    // The split stage's packed-engine counters are deterministic data, so
    // they belong in the snapshot — but they stay out of the cross-engine
    // conformance view (`conformance_view()` strips counters).
    let report = golden_host_report();
    for name in [
        "split.levels_built",
        "split.productive_levels",
        "split.words_tested",
        "split.cells_folded",
    ] {
        assert!(
            report.counter(name).is_some(),
            "host report missing counter {name}"
        );
    }
    assert!(report.counter("split.levels_built").unwrap() >= 1.0);
}

#[test]
fn golden_run_is_deterministic() {
    // The snapshot is only meaningful if the canonicalised report is
    // bit-identical across runs.
    assert_eq!(golden_report(), golden_report());
    assert_eq!(golden_host_report(), golden_host_report());
}
