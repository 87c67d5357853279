//! Perf-regression differ for `BENCH_*.json` documents.
//!
//! Compares a *current* benchmark document against a *baseline* (both in
//! a `bench_record` schema: `bench-merge-v1`, `bench-split-v1`,
//! `bench-batch-v1` or `bench-tiles-v1`) and classifies every metric of
//! every row:
//!
//! * **identity metrics** (`initial_edges`, `num_regions`, `num_squares`)
//!   are products of the deterministic pipeline — any change at all is a
//!   regression (it means the segmentation itself drifted, not just its
//!   cost);
//! * **work metrics** (`iterations`, `peak_live_edges`, `relabel_work`,
//!   `owners_visited`, `compactions`, `cells_touched`, `words_tested`) are
//!   machine-independent operation counts — the diff
//!   fails when `current > baseline * (1 + tolerance)`; getting *better*
//!   is reported but never fatal;
//! * **noise metrics** (`wall_ms`, `edges_per_sec`, and the wall-derived
//!   `speedup` ratio) depend on the host —
//!   they are compared with the same tolerance but only *warn* by
//!   default, since CI machines are noisy; [`DiffOptions::strict_wall`]
//!   promotes wall-time regressions to failures for quiet hardware.
//!
//! Rows are matched by `(backend, image, tie_break, threshold)`. A row
//! present in the baseline but missing from the current document is a
//! regression (coverage loss); a new row is informational.

use rg_core::json::Json;
use std::fmt::Write as _;

/// Metrics whose values must match the baseline exactly.
pub const IDENTITY_METRICS: &[&str] = &["initial_edges", "num_regions", "num_squares"];
/// Machine-independent work counters guarded with the tolerance.
/// `critical_path_us` and `imbalance_pct` come from `trace_analyze
/// --bench` rows: both derive from the simulator's deterministic virtual
/// clock, so they gate like operation counts, not like wall time.
pub const WORK_METRICS: &[&str] = &[
    "iterations",
    "peak_live_edges",
    "relabel_work",
    "owners_visited",
    "compactions",
    "cells_touched",
    "words_tested",
    "critical_path_us",
    "imbalance_pct",
];
/// Host-dependent metrics that warn rather than fail (unless
/// [`DiffOptions::strict_wall`]). For `edges_per_sec` and `speedup`,
/// *lower* is worse. The tiled `speedup` is a ratio of wall times (worker
/// fan-out, or tiled over whole-image): a faster whole-image path lowers
/// it although nothing got slower, so it cannot gate.
pub const NOISE_METRICS: &[&str] = &["wall_ms", "edges_per_sec", "speedup"];
/// Metrics where *lower* is the regression direction (throughputs and
/// speedups); everything else regresses upward.
const DOWNWARD_METRICS: &[&str] = &["edges_per_sec", "speedup"];

/// Knobs for [`diff_docs`].
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Allowed fractional growth of work metrics (0.15 = +15 %).
    pub tolerance: f64,
    /// Treat wall-time / throughput regressions as failures, not warnings.
    pub strict_wall: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            tolerance: 0.15,
            strict_wall: false,
        }
    }
}

/// Severity of one finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Within tolerance (or an improvement).
    Ok,
    /// Host-dependent drift beyond tolerance — reported, exit 0.
    Warning,
    /// Work-counter / identity drift beyond tolerance — exit 1.
    Regression,
}

/// One metric comparison in one row.
#[derive(Debug, Clone)]
pub struct Finding {
    /// `backend/image/tie_break` key of the row.
    pub row: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value.
    pub base: f64,
    /// Current value.
    pub cur: f64,
    /// Fractional change (`cur / base - 1`), `0.0` when `base == 0`.
    pub delta: f64,
    /// Classification under the supplied [`DiffOptions`].
    pub severity: Severity,
}

/// Everything [`diff_docs`] concluded.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Per-metric findings, in document order.
    pub findings: Vec<Finding>,
    /// Rows in the baseline that the current document lacks.
    pub missing_rows: Vec<String>,
    /// Rows in the current document the baseline lacks (informational).
    pub new_rows: Vec<String>,
}

impl DiffReport {
    /// `true` when nothing crossed the failure threshold.
    pub fn ok(&self) -> bool {
        self.missing_rows.is_empty()
            && self
                .findings
                .iter()
                .all(|f| f.severity != Severity::Regression)
    }

    /// Count of findings at the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// Renders an aligned table of all non-`Ok` findings (plus a summary
    /// line), the format the CLI prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let shown: Vec<&Finding> = self
            .findings
            .iter()
            .filter(|f| f.severity != Severity::Ok)
            .collect();
        if !shown.is_empty() {
            let _ = writeln!(
                out,
                "{:<28} {:<16} {:>14} {:>14} {:>9}  status",
                "row", "metric", "baseline", "current", "delta"
            );
            for f in &shown {
                let _ = writeln!(
                    out,
                    "{:<28} {:<16} {:>14} {:>14} {:>8.1}%  {}",
                    f.row,
                    f.metric,
                    fmt_num(f.base),
                    fmt_num(f.cur),
                    f.delta * 100.0,
                    match f.severity {
                        Severity::Regression => "REGRESSED",
                        Severity::Warning => "warn",
                        Severity::Ok => "ok",
                    }
                );
            }
        }
        for row in &self.missing_rows {
            let _ = writeln!(out, "MISSING ROW: {row} (present in baseline)");
        }
        for row in &self.new_rows {
            let _ = writeln!(out, "new row: {row} (not in baseline)");
        }
        let _ = writeln!(
            out,
            "{} metric(s) compared, {} regression(s), {} warning(s){}",
            self.findings.len(),
            self.count(Severity::Regression) + self.missing_rows.len(),
            self.count(Severity::Warning),
            if self.ok() { " — OK" } else { "" }
        );
        out
    }
}

fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

fn row_key(row: &Json) -> Option<String> {
    let backend = row.get("backend")?.as_str()?;
    let image = row.get("image")?.as_str()?;
    let tie = row.get("tie_break")?.as_str()?;
    let threshold = row.get("threshold")?.as_f64()?;
    Some(format!("{backend}/{image}/{tie}/t{threshold}"))
}

/// Validates the schema tag: one of the four `bench_record` schemas.
fn check_schema(doc: &Json, which: &str) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some("bench-merge-v1" | "bench-split-v1" | "bench-batch-v1" | "bench-tiles-v1") => Ok(()),
        Some(other) => Err(format!("{which}: unsupported schema {other:?}")),
        None => Err(format!("{which}: missing schema field")),
    }
}

fn rows_of<'j>(doc: &'j Json, which: &str) -> Result<Vec<(String, &'j Json)>, String> {
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{which}: missing rows array"))?;
    rows.iter()
        .map(|r| {
            row_key(r)
                .map(|k| (k, r))
                .ok_or_else(|| format!("{which}: row missing backend/image/tie_break/threshold"))
        })
        .collect()
}

/// Classify one metric of one row.
fn classify(metric: &str, base: f64, cur: f64, opts: &DiffOptions) -> Severity {
    if IDENTITY_METRICS.contains(&metric) {
        return if base == cur {
            Severity::Ok
        } else {
            Severity::Regression
        };
    }
    // Throughput/speedup metrics regress downward; everything else upward.
    let worse = if DOWNWARD_METRICS.contains(&metric) {
        base > 0.0 && cur < base * (1.0 - opts.tolerance)
    } else {
        cur > base * (1.0 + opts.tolerance) + f64::EPSILON
    };
    if !worse {
        Severity::Ok
    } else if NOISE_METRICS.contains(&metric) && !opts.strict_wall {
        Severity::Warning
    } else {
        Severity::Regression
    }
}

/// Diffs two `bench_record` documents. Errors on schema/shape problems;
/// regressions are reported through the returned [`DiffReport`], not as
/// `Err`.
pub fn diff_docs(
    baseline: &Json,
    current: &Json,
    opts: &DiffOptions,
) -> Result<DiffReport, String> {
    check_schema(baseline, "baseline")?;
    check_schema(current, "current")?;
    let mut report = DiffReport::default();
    let base_rows = rows_of(baseline, "baseline")?;
    let cur_rows = rows_of(current, "current")?;
    for (key, brow) in &base_rows {
        let Some((_, crow)) = cur_rows.iter().find(|(k, _)| k == key) else {
            report.missing_rows.push(key.clone());
            continue;
        };
        for &metric in IDENTITY_METRICS
            .iter()
            .chain(WORK_METRICS)
            .chain(NOISE_METRICS)
        {
            let (Some(base), Some(cur)) = (
                brow.get(metric).and_then(Json::as_f64),
                crow.get(metric).and_then(Json::as_f64),
            ) else {
                // A metric absent on either side is simply not compared —
                // lets the schema grow columns without breaking old files.
                continue;
            };
            let delta = if base != 0.0 { cur / base - 1.0 } else { 0.0 };
            report.findings.push(Finding {
                row: key.clone(),
                metric: metric.to_string(),
                base,
                cur,
                delta,
                severity: classify(metric, base, cur, opts),
            });
        }
    }
    for (key, _) in &cur_rows {
        if !base_rows.iter().any(|(k, _)| k == key) {
            report.new_rows.push(key.clone());
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(relabel_work: f64, wall_ms: f64, num_regions: f64) -> Json {
        Json::obj(vec![
            ("schema", "bench-merge-v1".into()),
            (
                "rows",
                Json::Arr(vec![Json::obj(vec![
                    ("backend", "csr".into()),
                    ("image", "noise".into()),
                    ("tie_break", "random".into()),
                    ("threshold", 10.0.into()),
                    ("initial_edges", 1000.0.into()),
                    ("iterations", 20.0.into()),
                    ("num_regions", num_regions.into()),
                    ("wall_ms", wall_ms.into()),
                    ("edges_per_sec", 1e6.into()),
                    ("peak_live_edges", 900.0.into()),
                    ("relabel_work", relabel_work.into()),
                    ("compactions", 3.0.into()),
                ])]),
            ),
        ])
    }

    #[test]
    fn self_diff_is_clean() {
        let d = doc(5000.0, 12.0, 40.0);
        let r = diff_docs(&d, &d, &DiffOptions::default()).unwrap();
        assert!(r.ok(), "{}", r.render());
        assert_eq!(r.count(Severity::Regression), 0);
        assert_eq!(r.count(Severity::Warning), 0);
        assert!(r.missing_rows.is_empty() && r.new_rows.is_empty());
    }

    #[test]
    fn perturbed_work_counter_regresses() {
        let base = doc(5000.0, 12.0, 40.0);
        let cur = doc(5000.0 * 1.3, 12.0, 40.0); // +30 % > 15 % tolerance
        let r = diff_docs(&base, &cur, &DiffOptions::default()).unwrap();
        assert!(!r.ok());
        let bad: Vec<&Finding> = r
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Regression)
            .collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].metric, "relabel_work");
        assert!(r.render().contains("REGRESSED"));
    }

    /// Rows written by `trace_analyze --bench` gate on the causal metrics:
    /// a critical-path or imbalance regression past the tolerance fails,
    /// and an improvement never does.
    #[test]
    fn trace_analyze_rows_gate_on_causal_metrics() {
        let trace_doc = |critical_path_us: f64, imbalance_pct: f64| {
            Json::obj(vec![
                ("schema", "bench-merge-v1".into()),
                (
                    "rows",
                    Json::Arr(vec![Json::obj(vec![
                        ("backend", "msgpass:async:4".into()),
                        ("image", "128x128".into()),
                        ("tie_break", "random".into()),
                        ("threshold", 10.0.into()),
                        ("critical_path_us", critical_path_us.into()),
                        ("imbalance_pct", imbalance_pct.into()),
                        ("utilization_pct", 80.0.into()),
                        ("wall_us", 45_000.0.into()),
                    ])]),
                ),
            ])
        };
        let base = trace_doc(40_000.0, 8.0);
        let r = diff_docs(
            &base,
            &trace_doc(40_000.0 * 1.3, 8.0),
            &DiffOptions::default(),
        )
        .unwrap();
        assert!(!r.ok());
        assert!(r
            .findings
            .iter()
            .any(|f| f.severity == Severity::Regression && f.metric == "critical_path_us"));
        let r = diff_docs(
            &base,
            &trace_doc(40_000.0, 8.0 * 1.5),
            &DiffOptions::default(),
        )
        .unwrap();
        assert!(!r.ok());
        assert!(r
            .findings
            .iter()
            .any(|f| f.severity == Severity::Regression && f.metric == "imbalance_pct"));
        // A faster, better-balanced run sails through.
        let r = diff_docs(&base, &trace_doc(30_000.0, 2.0), &DiffOptions::default()).unwrap();
        assert!(r.ok(), "{}", r.render());
    }

    #[test]
    fn tolerance_absorbs_small_growth_and_any_improvement() {
        let base = doc(5000.0, 12.0, 40.0);
        let within = doc(5000.0 * 1.10, 12.0, 40.0);
        assert!(diff_docs(&base, &within, &DiffOptions::default())
            .unwrap()
            .ok());
        let better = doc(2500.0, 6.0, 40.0);
        assert!(diff_docs(&base, &better, &DiffOptions::default())
            .unwrap()
            .ok());
        // Tighter tolerance flips the +10 % case.
        let tight = DiffOptions {
            tolerance: 0.05,
            ..DiffOptions::default()
        };
        assert!(!diff_docs(&base, &within, &tight).unwrap().ok());
    }

    #[test]
    fn identity_metric_change_always_fails() {
        let base = doc(5000.0, 12.0, 40.0);
        let cur = doc(5000.0, 12.0, 41.0); // one extra region
        let r = diff_docs(&base, &cur, &DiffOptions::default()).unwrap();
        assert!(!r.ok());
        assert!(r
            .findings
            .iter()
            .any(|f| f.metric == "num_regions" && f.severity == Severity::Regression));
    }

    #[test]
    fn wall_time_noise_warns_unless_strict() {
        let base = doc(5000.0, 12.0, 40.0);
        let slow = doc(5000.0, 30.0, 40.0); // 2.5x slower
        let r = diff_docs(&base, &slow, &DiffOptions::default()).unwrap();
        assert!(r.ok(), "wall noise must not fail by default");
        assert_eq!(r.count(Severity::Warning), 1);
        let strict = DiffOptions {
            strict_wall: true,
            ..DiffOptions::default()
        };
        assert!(!diff_docs(&base, &slow, &strict).unwrap().ok());
    }

    #[test]
    fn missing_row_fails_new_row_informs() {
        let base = doc(5000.0, 12.0, 40.0);
        let empty = Json::obj(vec![
            ("schema", "bench-merge-v1".into()),
            ("rows", Json::Arr(vec![])),
        ]);
        let r = diff_docs(&base, &empty, &DiffOptions::default()).unwrap();
        assert!(!r.ok());
        assert_eq!(r.missing_rows.len(), 1);
        let r2 = diff_docs(&empty, &base, &DiffOptions::default()).unwrap();
        assert!(r2.ok());
        assert_eq!(r2.new_rows.len(), 1);
    }

    #[test]
    fn split_row_metrics_are_guarded() {
        // `bench_record split` rows carry `cells_touched`/`words_tested`
        // (work) and `num_squares` (identity); merge rows simply lack them
        // and are skipped — the schema grows without breaking old files.
        let split_doc = |cells: f64, squares: f64| {
            Json::obj(vec![
                ("schema", "bench-merge-v1".into()),
                (
                    "rows",
                    Json::Arr(vec![Json::obj(vec![
                        ("backend", "packed".into()),
                        ("image", "nested".into()),
                        ("tie_break", "range".into()),
                        ("threshold", 10.0.into()),
                        ("iterations", 6.0.into()),
                        ("num_squares", squares.into()),
                        ("wall_ms", 3.0.into()),
                        ("cells_touched", cells.into()),
                        ("words_tested", 5000.0.into()),
                    ])]),
                ),
            ])
        };
        let base = split_doc(100_000.0, 400.0);
        assert!(diff_docs(&base, &base, &DiffOptions::default())
            .unwrap()
            .ok());
        // +30 % cells_touched is a work regression.
        let slow = split_doc(130_000.0, 400.0);
        let r = diff_docs(&base, &slow, &DiffOptions::default()).unwrap();
        assert!(!r.ok());
        assert!(r
            .findings
            .iter()
            .any(|f| f.metric == "cells_touched" && f.severity == Severity::Regression));
        // Any num_squares drift is an identity failure.
        let drift = split_doc(100_000.0, 401.0);
        let r2 = diff_docs(&base, &drift, &DiffOptions::default()).unwrap();
        assert!(!r2.ok());
        assert!(r2
            .findings
            .iter()
            .any(|f| f.metric == "num_squares" && f.severity == Severity::Regression));
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let bad = Json::obj(vec![("schema", "bench-merge-v0".into())]);
        assert!(diff_docs(&bad, &bad, &DiffOptions::default()).is_err());
        assert!(diff_docs(&Json::obj(vec![]), &bad, &DiffOptions::default()).is_err());
    }

    #[test]
    fn current_schemas_are_accepted() {
        for tag in [
            "bench-merge-v1",
            "bench-split-v1",
            "bench-batch-v1",
            "bench-tiles-v1",
        ] {
            let d = Json::obj(vec![("schema", tag.into()), ("rows", Json::Arr(vec![]))]);
            let r = diff_docs(&d, &d, &DiffOptions::default()).unwrap();
            assert!(r.ok(), "{tag}: {}", r.render());
        }
    }

    #[test]
    fn speedup_warns_downward() {
        // Tiled rows carry a wall-derived `speedup`: losing it past the
        // tolerance warns (and fails only under `strict_wall`); gaining
        // never does.
        let tiles_doc = |speedup: f64| {
            Json::obj(vec![
                ("schema", "bench-tiles-v1".into()),
                (
                    "rows",
                    Json::Arr(vec![Json::obj(vec![
                        ("backend", "tiled-jN".into()),
                        ("image", "speckle".into()),
                        ("tie_break", "smallest".into()),
                        ("threshold", 10.0.into()),
                        ("num_regions", 5000.0.into()),
                        ("speedup", speedup.into()),
                        ("wall_ms", 100.0.into()),
                    ])]),
                ),
            ])
        };
        let base = tiles_doc(1.5);
        let r = diff_docs(&base, &tiles_doc(1.0), &DiffOptions::default()).unwrap();
        assert!(r.ok(), "{}", r.render());
        assert!(r
            .findings
            .iter()
            .any(|f| f.metric == "speedup" && f.severity == Severity::Warning));
        let strict = DiffOptions {
            strict_wall: true,
            ..DiffOptions::default()
        };
        let r = diff_docs(&base, &tiles_doc(1.0), &strict).unwrap();
        assert!(!r.ok());
        let r = diff_docs(&base, &tiles_doc(2.0), &DiffOptions::default()).unwrap();
        assert!(r.ok(), "{}", r.render());
    }
}
