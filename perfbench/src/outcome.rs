//! A run's result: the failure tally and the metrics, printed as a
//! table for people and, on the last line, as one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

use crate::check::Tally;
use std::fmt::Write as _;

/// End-to-end metrics: every run with tracing off prints all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sims_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("req_ms_p50", "ms"),
    ("req_ms_p99", "ms"),
    ("delta_ms_p50", "ms"),
    ("delta_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics: every traced run prints all of them; a layer not
/// on a workload's path reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.load_ms", "ms"),
    ("mapping.ms", "ms"),
    ("partition.ms", "ms"),
    ("noc.route_table_ms", "ms"),
    ("noc.route_tables", "count"),
    ("noc.traffic_ms", "ms"),
    ("core.precompute_ms", "ms"),
    ("core.walk_ms", "ms"),
    ("core.finalize_ms", "ms"),
    ("core.unprofiled_ms", "ms"),
    ("graph.alloc_mb", "MB"),
    ("noc.alloc_mb", "MB"),
    ("pool.busy_frac", "ratio"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.execute_ms_p50", "ms"),
    ("serve.wire_ms_p50", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.failed", "count"),
    ("sessions.route_table_ms", "ms"),
    ("sessions.traffic_ms", "ms"),
    ("sessions.mapping_ms", "ms"),
    ("sessions.other_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// One measured value with the sample count behind it and how it was
/// taken.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
    pub how: String,
}

/// What a run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize, how: impl Into<String>) {
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.metrics.push(Metric {
            name,
            value,
            samples,
            how: how.into(),
        });
    }

    /// Sets every metric of `list` not measured to 0: the layer is not
    /// on this workload's path.
    pub fn fill_absent(&mut self, list: &[(&'static str, &str)]) {
        for &(name, _) in list {
            if self.get(name).is_none() {
                self.set(name, 0.0, 0, "not on this workload's path");
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The table and the final JSON line for the metric set `wanted`.
    /// Panics if a wanted metric was not measured.
    pub fn render(&self, wanted: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for &(name, unit) in wanted {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let _ = writeln!(
                out,
                "{name:<26} {:>14.4} {unit:<6} n={:<6} {}",
                m.value, m.samples, m.how
            );
        }
        if let Some(f) = &self.tally.first_failure {
            let _ = writeln!(out, "first failure: {f}");
        }
        let metrics: Vec<String> = wanted
            .iter()
            .map(|&(name, unit)| {
                let v = self.get(name).expect("checked above");
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        );
        out
    }
}

/// The process's peak resident set (`VmHWM`), MB, for `pid` (`None`:
/// this process).
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM is readable in /proc")
}
