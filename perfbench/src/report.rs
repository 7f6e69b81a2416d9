//! The metric catalogue and the result line.
//!
//! The last line of a run's standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; an untraced run
//! reports every [`END_TO_END`] metric, a traced run every [`PER_LAYER`]
//! metric. Both lists must match `BENCHMARK.json` (a test checks it).

use std::collections::BTreeMap;
use std::fmt::Write;

/// The metrics a user of the services sees: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("served_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// The metrics of single layers, reported by traced runs: `(name,
/// unit)`. A layer that does no work on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("link.msgs_per_op", "count"),
    ("link.drop_full_ratio", "ratio"),
    ("link.send_ns", "ns"),
    ("link.recv_ns", "ns"),
    ("link.empty_recv_ratio", "ratio"),
    ("mux.activations_per_op", "count"),
    ("mux.deliveries_per_op", "count"),
    ("mux.effective_activation_ratio", "ratio"),
    ("mux.cpu_util", "cores"),
    ("mux.self_ns_per_step", "ns"),
    ("me.action_ns", "ns"),
    ("forward.action_ns", "ns"),
    ("net.send_ns", "ns"),
    ("net.recv_ns", "ns"),
    ("net.sys_share", "ratio"),
    ("net.lost_reorder", "count"),
    ("setup.connect_s", "s"),
    ("service.latency_p99_ms", "ms"),
    ("service.latency_samples", "count"),
    ("monitor.cuts_per_s", "1/s"),
    ("monitor.staleness_ms", "ms"),
    ("monitor.project_s", "s"),
    ("trace.events_per_op", "count"),
    ("trace.merge_s", "s"),
    ("spec.check_s", "s"),
    ("spec.events_per_s", "1/s"),
    ("sim.ns_per_step", "ns"),
    ("sim.steps_per_op", "count"),
    ("bench.traced_served_per_s", "1/s"),
    ("bench.tracing_overhead", "ratio"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one run found.
#[derive(Debug)]
pub struct Outcome {
    /// True when every completed operation passed every check.
    pub correct: bool,
    /// Operations attempted (whole rounds).
    pub attempted: u64,
    /// Operations that failed or did not complete.
    pub failed: u64,
    /// The reported metrics (the catalogue selected by the trace flag).
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line: names from `catalogue` in order, each with its
    /// unit; a name missing from `metrics` reads 0. Values print with
    /// every digit Rust's shortest round-trip formatting gives.
    pub fn json(&self, catalogue: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }

    /// One human-readable line per metric of `catalogue`.
    pub fn table(&self, catalogue: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for (name, unit) in catalogue {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            writeln!(out, "  {name:<34} {value:>16.6} {unit}").expect("String write");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_and_every_catalogue_metric() {
        let mut metrics = Metrics::new();
        metrics.insert("served_per_s", 2312.25);
        metrics.insert("setup_s", 0.000123456789);
        metrics.insert("cpu_ms_per_op", f64::NAN);
        let outcome = Outcome {
            correct: true,
            attempted: 800,
            failed: 0,
            metrics,
        };
        let line = outcome.json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 800, \"failed\": 0, "));
        assert!(line.contains("\"served_per_s\": {\"value\": 2312.25, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.000123456789, \"unit\": \"s\"}"));
        assert!(line.contains("\"cpu_ms_per_op\": {\"value\": 0.0, \"unit\": \"ms\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MiB\"}"));
        assert!(line.ends_with("}}"));
        assert!(!line.contains('\n'));
        let opens = line.matches('{').count();
        assert_eq!(opens, line.matches('}').count());
        assert_eq!(opens, 2 + END_TO_END.len());
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(manifest) else {
            return; // the package built outside its repository
        };
        let compact: String = json.split_whitespace().collect();
        let mut names = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(names.insert(name), "{name} listed twice");
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(compact.matches("\"unit\":").count(), names.len());
    }
}
