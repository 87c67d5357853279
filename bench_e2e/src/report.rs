//! The metric table and the output format: `# key value` context lines,
//! one `name value unit` line per metric, and a final JSON line with the
//! keys `correct`, `attempted`, `failed` and `metrics`.

/// End-to-end metrics (printed untraced), with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_mpix_s", "Mpx/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("cpu_ms_per_mpix", "ms/Mpx"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (printed by `--trace 1`), with their units. A metric
/// of a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("split.self_ms", "ms"),
    ("split.share_pct", "%"),
    ("split.ns_per_px", "ns/px"),
    ("split.iterations", "count"),
    ("split.squares", "count"),
    ("split.cells_folded", "count"),
    ("split.words_tested", "count"),
    ("graph.self_ms", "ms"),
    ("graph.share_pct", "%"),
    ("graph.ns_per_px", "ns/px"),
    ("merge.self_ms", "ms"),
    ("merge.share_pct", "%"),
    ("merge.choice_ms", "ms"),
    ("merge.apply_ms", "ms"),
    ("merge.compact_ms", "ms"),
    ("merge.iterations", "count"),
    ("merge.merges", "count"),
    ("merge.productive_iter_frac", "frac"),
    ("merge.fallback_iters", "count"),
    ("merge.compactions", "count"),
    ("label.self_ms", "ms"),
    ("label.share_pct", "%"),
    ("label.ns_per_px", "ns/px"),
    ("driver.self_ms", "ms"),
    ("part.ms_median", "ms"),
    ("part.ms_max", "ms"),
    ("part.imbalance", "x"),
    ("tiles.stitch_share_pct", "%"),
    ("tiles.seam_edges", "count"),
    ("tiles.stitch_merges", "count"),
    ("tiles.stitch_iterations", "count"),
    ("tiles.fanout_speedup", "x"),
    ("batch.fanout_speedup", "x"),
    ("imaging.pgm.read_mb_s", "MB/s"),
    ("imaging.pgm.share_pct", "%"),
    ("pipeline.allocs_per_call", "count"),
    ("pipeline.heap_peak_mb", "MB"),
    ("telemetry.stamp_overhead_pct", "%"),
    ("telemetry.recorder_overhead_pct", "%"),
    ("telemetry.jsonl_overhead_pct", "%"),
    ("host.nproc", "count"),
    ("host.jobs", "count"),
    ("host.calib_ms_start", "ms"),
    ("host.calib_ms_end", "ms"),
];

/// Everything one invocation prints.
pub struct Report {
    /// `# key value` lines: host stamp, call counts, notes.
    pub context: Vec<(String, String)>,
    /// Metric values, keyed by the names of one of the tables above.
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Renders the report. `table` fixes which metrics are printed and in
    /// which order; a metric missing from `self.metrics` is a bug.
    pub fn render(&self, table: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for (k, v) in &self.context {
            out.push_str(&format!("# {k} {v}\n"));
        }
        let mut json = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            // JSON has no NaN or infinity; a ratio over nothing reads 0.
            let value = if value.is_finite() { value } else { 0.0 };
            out.push_str(&format!("{name} {value} {unit}\n"));
            json.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.failed == 0,
            self.attempted,
            self.failed,
            json.join(", ")
        ));
        out
    }
}
