//! The result of one run and its JSON rendering.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests or transactions the run attempted in its measured phases.
    pub attempted: u64,
    /// Of those, the ones that failed (`Busy`, `Error`, unanswered).
    pub failed: u64,
    /// Named measurements.
    pub metrics: Vec<Metric>,
    /// Correctness violations; any entry makes the run fail.
    pub violations: Vec<String>,
    /// Free-form facts about the run (configuration, rates, notes).
    pub context: Vec<(String, String)>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Record a context fact.
    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.context.push((key.into(), value.to_string()));
    }

    /// Record a correctness check; a failed one is kept as a violation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// The context line: every note, as one JSON object.
    pub fn context_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.context.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}{}: {}", quote(k), quote(v));
        }
        s.push('}');
        s
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.violations.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}{}: {{\"value\": {value:?}, \"unit\": {}}}",
                quote(&m.name),
                quote(m.unit)
            );
        }
        s.push_str("}}");
        s
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
