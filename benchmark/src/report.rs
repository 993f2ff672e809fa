//! Metric values, host-side probes (`/proc`) and the small statistics
//! the workloads share.

use serde::json::Value;
use std::time::Duration;

/// One measured figure.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose outputs were checked (cells, searches, requests).
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Every figure the workload measured, end-to-end and per-layer.
    pub metrics: Vec<Metric>,
    /// Caveats printed beside the figures they qualify.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Records one checked operation; `errors` lists its failed checks.
    pub fn check(&mut self, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            self.failures.extend(errors);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Quantile of a non-empty sample, interpolating linearly between the
/// two nearest ranks.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `n`, quartiles and median of a sample, for notes.
pub fn summary(xs: &[f64]) -> String {
    format!(
        "n={}, q1 {:.4e}, median {:.4e}, q3 {:.4e}",
        xs.len(),
        quantile(xs, 0.25),
        median(xs),
        quantile(xs, 0.75)
    )
}

/// Process CPU time (user + system, all threads) in seconds, from
/// `/proc/self/stat`. Linux reports it in USER_HZ ticks, which is 100 on
/// every mainstream architecture, so the resolution is 10 ms.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat readable");
    // The command name (field 2) may contain spaces; fields after it
    // start at the last ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, i.e. 11 and
    // 12 after the state field (field 3), which starts `rest`.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// Peak resident set size (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM present");
    kb / 1024.0
}

/// A metric as it appears in the result line: `{"value": v, "unit": u}`.
pub fn metric_value(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".to_string(), Value::F64(value)),
        ("unit".to_string(), Value::String(unit.to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.25), 1.75);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn proc_probes_read_positive_values() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
