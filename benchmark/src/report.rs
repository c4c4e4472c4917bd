//! The run's result: operation counts, failures, metrics, and the final
//! JSON line.

use std::collections::BTreeMap;

use datapath_merge::metrics::Json;

/// What one run measured and found.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the timed phase (whole rounds).
    pub attempted: u64,
    /// Operations that failed (typed error, panic, degraded answer, or
    /// failed check).
    pub failed: u64,
    /// Failure reason per operation id, with how many times it failed.
    pub failures: BTreeMap<String, (u64, String)>,
    /// Problems that are not operation failures: inputs that do not
    /// reproduce, rounds that disagree, a broken post-run check.
    pub problems: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Records a failed operation.
    pub fn fail(&mut self, op: &str, reason: impl Into<String>) {
        self.failed += 1;
        let entry = self.failures.entry(op.to_string()).or_insert((0, reason.into()));
        entry.0 += 1;
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Whether every output that did not fail was checked and found right.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Prints the failed operations, any problems, and the final JSON
    /// line.
    pub fn print(&self) {
        for (op, (count, reason)) in &self.failures {
            println!("FAILED {op} ({count}x): {reason}");
        }
        for p in &self.problems {
            println!("PROBLEM {p}");
        }
        println!("{}", self.line());
    }

    /// The final JSON line. A non-finite metric (a ratio over nothing)
    /// reads 0.
    pub fn line(&self) -> String {
        let metrics = self.metrics.iter().map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            (name.clone(), Json::obj().field("value", v).field("unit", *unit))
        });
        Json::obj()
            .field("correct", self.correct())
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", Json::Object(metrics.collect()))
            .render()
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn final_line_is_one_json_object() {
        let mut r = Report { attempted: 3, ..Report::default() };
        r.fail("op-1", "degraded");
        r.metric("latency_ms_p50", 1.25, "ms");
        assert_eq!(r.failed, 1);
        assert!(r.correct());
        assert_eq!(
            r.line(),
            r#"{"correct":true,"attempted":3,"failed":1,"metrics":{"latency_ms_p50":{"value":1.25,"unit":"ms"}}}"#
        );
        r.problems.push("x".into());
        assert!(!r.correct());
    }
}
