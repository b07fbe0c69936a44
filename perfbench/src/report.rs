//! The result line: named metrics with units, operation counts, and the
//! correctness verdict, printed as one JSON object.

use std::collections::BTreeMap;

/// Whether `name` uses only `[A-Za-z0-9_.-]`, starts with a letter or digit
/// and has at most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Operations attempted and failed in one phase of a run. A failed check
/// fails every operation of its phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

/// Metrics, operation counts and check results of one run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
    ops: Ops,
    violations: Vec<String>,
}

impl Report {
    /// Records metric `name` (must be in the metric charset).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "bad metric name {name:?}");
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Records a phase of `attempted` operations; when `ok` is false every
    /// one of them counts as failed.
    pub fn phase(&mut self, attempted: u64, ok: bool) {
        self.ops.attempted += attempted;
        if !ok {
            self.ops.failed += attempted;
        }
    }

    /// Records the outcome of one correctness check and returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.violations.push(msg);
        }
        ok
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.ops.failed == 0
    }

    /// Names of the recorded metrics.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.metrics.keys().map(String::as_str)
    }

    /// Removes every metric not in `keep`.
    pub fn retain(&mut self, keep: &[&str]) {
        self.metrics.retain(|k, _| keep.contains(&k.as_str()));
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, (v, unit))| {
                format!(
                    "\"{k}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.ops.attempted,
            self.ops.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in [
            "setup_s",
            "kernel.spmm.s",
            "tensor.pager.hit_ratio",
            "a-b",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "op::spmm", "a b", "µs", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let mut r = Report::default();
        r.metric("setup_s", 0.5, "s");
        r.phase(10, true);
        r.phase(4, false);
        let line = r.to_json();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 14, \"failed\": 4,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }
}
