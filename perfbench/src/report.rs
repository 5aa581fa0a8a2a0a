//! The metric catalog and the result line the benchmark prints last.

/// End-to-end metrics: `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("req_latency_ms_p50", "ms"),
    ("req_latency_ms_tail", "ms"),
    ("peak_heap_mb", "MiB"),
    ("test_coverage_pct", "%"),
    ("fault_efficiency_pct", "%"),
    ("pattern_count", "count"),
    ("sdql_sum", "sdql"),
    ("shape_checks_ok", "count"),
];

/// Per-layer metrics: `(name, unit)`, printed by every traced run. A
/// layer that is not on a workload's path reads 0 there.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("atpg.run_s", "s"),
    ("atpg.self_s", "s"),
    ("atpg.podem.calls", "count"),
    ("atpg.podem.busy_s", "s"),
    ("atpg.podem.aborted", "count"),
    ("atpg.podem.aborted_busy_s", "s"),
    ("atpg.podem.useful_frac", "frac"),
    ("atpg.decisions", "count"),
    ("atpg.backtracks", "count"),
    ("atpg.alloc_bytes", "bytes"),
    ("atpg.classify_s", "s"),
    ("atpg.lint_pruned", "count"),
    ("fsim.calls", "count"),
    ("fsim.busy_s", "s"),
    ("fsim.pattern_faults", "count"),
    ("fsim.bulk_busy_s", "s"),
    ("fsim.compaction_busy_s", "s"),
    ("fsim.model_build_s", "s"),
    ("bist.run_lbist_s", "s"),
    ("bist.kernel_detected", "count"),
    ("bist.x_masked", "count"),
    ("flow.stage.timing_s", "s"),
    ("flow.stage.pattern_source_s", "s"),
    ("flow.stage.lint_s", "s"),
    ("flow.stage.atpg_s", "s"),
    ("flow.overhead_s", "s"),
    ("lint.run_s", "s"),
    ("lint.untestable", "count"),
    ("soc.generate_s", "s"),
    ("server.op.ping_ms_p50", "ms"),
    ("server.op.analyze_warm_ms_p50", "ms"),
    ("server.op.analyze_cold_ms_p50", "ms"),
    ("server.op.flow_ms_p50", "ms"),
    ("server.op.metrics_ms_p50", "ms"),
    ("server.queue_wait_ms_p50", "ms"),
    ("server.flow_report_ms_p50", "ms"),
    ("server.cache.hit_frac", "frac"),
    ("server.cache.evictions", "count"),
    ("server.cache.resident_mb", "MiB"),
    ("server.refused", "count"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// One run's outcome: the result line plus human-readable notes.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Requests attempted in the timed phase.
    pub attempted: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// `(name, value)` pairs; units come from the catalog.
    pub metrics: Vec<(&'static str, f64)>,
    /// Lines for standard error: what failed, and the per-mode table.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Marks the run incorrect, with the reason.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("MISMATCH: {why}"));
    }

    /// The result line for the `catalog`: every catalog metric in
    /// catalog order, each with its unit. A catalog metric the run did
    /// not set, or a non-finite value, marks the run incorrect.
    pub fn result_line(&mut self, catalog: &[(&'static str, &'static str)]) -> String {
        let mut body = Vec::with_capacity(catalog.len());
        for &(name, unit) in catalog {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v);
            let value = match value {
                Some(v) if v.is_finite() => v,
                other => {
                    self.fail(format!("metric {name} not measured ({other:?})"));
                    0.0
                }
            };
            body.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_server::Json;

    /// The catalog and `BENCHMARK.json` name the same metrics with the
    /// same units, in the same order.
    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalog) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = spec
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_owned();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = catalog
                .iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut out = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        for &(name, _) in &END_TO_END {
            out.set(name, 1.25);
        }
        let line = out.result_line(&END_TO_END);
        let v = Json::parse(&line).expect("result line parses");
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(3));
        let metrics = v.get("metrics").and_then(Json::as_object).expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));

        let mut missing = Outcome {
            correct: true,
            attempted: 1,
            ..Outcome::default()
        };
        missing.set("setup_s", f64::NAN);
        let _ = missing.result_line(&END_TO_END);
        assert!(!missing.correct, "missing or NaN metrics fail the run");
    }
}
