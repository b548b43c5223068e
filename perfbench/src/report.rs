//! The metric catalog and the result line.
//!
//! Every workload prints every end-to-end metric (`--trace 0`) or every
//! per-layer metric (`--trace 1`); a layer a workload does not exercise
//! reads 0. The last line of standard output is the result object; the
//! lines before it carry provenance and detail.

/// End-to-end metrics: name and unit. Definitions live in `main.rs`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("time_to_solution_s", "s"),
    ("sparsify_s", "s"),
    ("solve_ms", "ms"),
    ("solve_tail_ms", "ms"),
    ("pcg_iters", "count"),
    ("density", "edges/vertex"),
];

/// Per-layer metrics of the traced run: name and unit. Stage times are
/// per sparsify replay, PCG splits per PCG solve.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.tree_s", "s"),
    ("graph.laplacian_s", "s"),
    ("graph.subgraph_s", "s"),
    ("solver.factor_s", "s"),
    ("solver.factor_calls", "count"),
    ("solver.factor_nnz", "count"),
    ("solver.precond_factor_s", "s"),
    ("core.extremes.lambda_max_s", "s"),
    ("core.extremes.lambda_min_s", "s"),
    ("core.extremes.power_iters", "count"),
    ("core.embedding.probe_s", "s"),
    ("core.embedding.score_s", "s"),
    ("core.filter.select_s", "s"),
    ("core.similarity.prune_s", "s"),
    ("core.densify.update_s", "s"),
    ("core.rounds", "count"),
    ("core.candidates", "count"),
    ("core.accepted", "count"),
    ("core.accept_ratio", "ratio"),
    ("sparse.spmv_s", "s"),
    ("sparse.spmv_calls", "count"),
    ("solver.precond_apply_s", "s"),
    ("solver.precond_calls", "count"),
    ("solver.pcg_other_s", "s"),
    ("serve.protocol.encode_us", "us"),
    ("serve.protocol.decode_us", "us"),
    ("serve.protocol.frame_bytes", "bytes"),
    ("serve.server.passes", "count"),
    ("serve.server.cols_per_pass", "count"),
    ("serve.server.deadline_misses", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.resident_bytes", "bytes"),
    ("serve.throughput_rps", "1/s"),
    ("serve.mutate_p50_ms", "ms"),
    ("solver.pass_ms", "ms"),
    ("serve.wait_est_ms", "ms"),
    ("core.churn.apply_ms", "ms"),
    ("core.churn.cols_refactored", "count"),
    ("core.churn.reuse_frac", "ratio"),
    ("core.churn.full_refactors", "count"),
    ("trace.coverage_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// One run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (errors, refusals, deadline misses,
    /// unconverged solves).
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
    detail: Vec<(String, String)>,
}

impl Report {
    /// An empty report that is correct until a check fails.
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Records metric `name`.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a numeric detail line entry.
    pub fn detail(&mut self, key: &str, value: f64) {
        self.detail.push((key.to_string(), num(value)));
    }

    /// Records a string detail line entry.
    pub fn detail_str(&mut self, key: &str, value: &str) {
        self.detail.push((key.to_string(), quote(value)));
    }

    /// Marks the run incorrect, explaining why on standard error.
    pub fn fail_check(&mut self, why: &str) {
        eprintln!("perfbench: check failed: {why}");
        self.correct = false;
    }

    /// Prints the detail line, then the result line with the metrics of
    /// `catalog` in catalog order. With `missing_reads_zero`, a catalog
    /// metric the workload never recorded (a layer it does not exercise)
    /// prints as 0.
    ///
    /// # Panics
    ///
    /// Panics if a metric is recorded twice, a required one never, or a
    /// recorded one is not in the catalog — a bug in the workload.
    pub fn print(mut self, catalog: &[(&'static str, &str)], missing_reads_zero: bool) {
        if missing_reads_zero {
            for (name, _) in catalog {
                if !self.metrics.iter().any(|(m, _)| m == name) {
                    self.metrics.push((name, 0.0));
                }
            }
        }
        for (name, _) in &self.metrics {
            assert!(
                catalog.iter().any(|(c, _)| c == name),
                "metric {name} is not in the catalog"
            );
        }
        let mut body = Vec::new();
        for (name, unit) in catalog {
            let vals: Vec<f64> = self
                .metrics
                .iter()
                .filter(|(m, _)| m == name)
                .map(|&(_, v)| v)
                .collect();
            assert_eq!(vals.len(), 1, "metric {name} recorded {} times", vals.len());
            if !vals[0].is_finite() {
                self.fail_check(&format!("metric {name} is not finite"));
            }
            body.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(vals[0]),
                quote(unit)
            ));
        }
        let detail: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect();
        println!("{{\"detail\": {{{}}}}}", detail.join(", "));
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

/// A JSON number; non-finite values print as 0 (the caller marks the run
/// incorrect).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalog here and the one in BENCHMARK.json must name the same
    /// metrics with the same units, in any order.
    #[test]
    fn catalog_matches_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section end")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| {
                    let name = s[..s.find('"').unwrap()].to_string();
                    let u = s.find("\"unit\": \"").unwrap() + 9;
                    let unit = s[u..u + s[u..].find('"').unwrap()].to_string();
                    (name, unit)
                })
                .collect()
        };
        for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let mut want: Vec<(String, String)> = catalog
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            let mut got = section(key);
            want.sort();
            got.sort();
            assert_eq!(got, want, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(0.25), "0.25");
    }
}
