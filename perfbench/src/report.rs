//! The result line and the metric vocabulary behind it.
//!
//! An untraced run prints every end-to-end metric and a traced run every
//! per-layer metric, whatever the workload. A layer the workload bypasses
//! did no work and reads 0.

use std::collections::BTreeMap;

use gqa::served::ServedStats;

/// End-to-end metrics, `(name, unit)`. `METRICS.md` defines each one per
/// workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("lut_mse", "mse"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("registry.compile_s.gelu", "s"),
    ("registry.compile_s.exp", "s"),
    ("registry.compile_s.div", "s"),
    ("registry.compile_s.rsqrt", "s"),
    ("serve.engine_build_ms", "ms"),
    ("setup.calibrate_ms", "ms"),
    ("models.init_ms", "ms"),
    ("served.start_ms", "ms"),
    ("models.forward_us", "us"),
    ("models.rows_per_forward", "rows"),
    ("models.step_us", "us"),
    ("models.prefill_steps", "count"),
    ("serve.lut_ns.gelu", "ns"),
    ("serve.lut_ns.exp", "ns"),
    ("serve.lut_ns.recip", "ns"),
    ("serve.lut_ns.rsqrt", "ns"),
    ("serve.lut_elems.gelu", "count"),
    ("serve.lut_elems.exp", "count"),
    ("serve.lut_elems.recip", "count"),
    ("serve.lut_elems.rsqrt", "count"),
    ("tensor.non_lut_us_per_row", "us"),
    ("served.submit_us", "us"),
    ("served.wait_us", "us"),
    ("served.mean_batch", "rows"),
    ("served.batches", "count"),
    ("served.rejected", "count"),
    ("session.ttft_p50_ms", "ms"),
    ("session.ttft_p90_ms", "ms"),
    ("net.non_forward_us", "us"),
    ("net.admission_wait_ticks", "ticks"),
    ("net.quota_rejections", "count"),
    ("net.protocol_errors", "count"),
    ("loadgen.late_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Adds every value of `other`, replacing any of the same name.
    pub fn extend(&mut self, other: Values) {
        self.0.extend(other.0);
    }
}

/// Operations attempted and failed. A mismatch is a failure whose output
/// came back but differs from its reference.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatched: u64,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    pub fn mismatch(&mut self) {
        self.fail();
        self.mismatched += 1;
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
    }

    pub fn log(&self, label: &str) {
        println!(
            "{label}: attempted {}, succeeded {}, failed {} ({} mismatched)",
            self.attempted,
            self.attempted - self.failed,
            self.failed,
            self.mismatched
        );
    }
}

/// `served.mean_batch`, `served.batches` and `served.rejected` from
/// `Served::stats()` taken around the traced pass.
pub fn served_stats(before: &ServedStats, after: &ServedStats, values: &mut Values) {
    let batches = after.batches - before.batches;
    let rows = after.batched_rows - before.batched_rows;
    let mean_batch = if batches == 0 {
        0.0
    } else {
        rows as f64 / batches as f64
    };
    values.set("served.mean_batch", mean_batch);
    values.set("served.batches", batches as f64);
    values.set("served.rejected", (after.rejected - before.rejected) as f64);
}

/// How much slower the traced pass was than the untraced one, in percent.
pub fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    if untraced > 0.0 {
        100.0 * (traced / untraced - 1.0)
    } else {
        0.0
    }
}

/// Peak resident set size so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Prints the result line: every metric of `vocabulary`, each with its
/// unit, from `values` (absent ones read 0).
///
/// # Panics
///
/// Panics if `values` holds a metric outside `vocabulary` or a NaN.
pub fn print_result(tally: Tally, values: &Values, vocabulary: &[(&str, &str)]) {
    for name in values.0.keys() {
        assert!(
            vocabulary.iter().any(|(n, _)| n == name),
            "metric {name} is not in the vocabulary"
        );
    }
    let metrics: Vec<String> = vocabulary
        .iter()
        .map(|(name, unit)| {
            let value = values.0.get(*name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.mismatched == 0,
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
}

/// JSON has no infinity: a percentile that fell on a failed request
/// prints as the largest finite number.
fn json_number(v: f64) -> String {
    assert!(!v.is_nan(), "a metric came out NaN");
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}
