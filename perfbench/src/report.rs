//! Metrics, correctness checks and the result line.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was obtained, printed beside it (e.g. the tail
    /// percentile and sample count, or "computed").
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// One correctness or determinism check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

#[derive(Debug, Default)]
pub struct Checks {
    pub list: Vec<Check>,
}

impl Checks {
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.list.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn failed(&self) -> usize {
        self.list.iter().filter(|c| !c.ok).count()
    }
}

/// Exchange outcomes over the measured cycles.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    /// Exchanges initiated plus exchanges vetoed before any message.
    pub attempted: u64,
    pub lost: u64,
    pub blocked: u64,
}

impl Ops {
    /// (messages lost + exchanges blocked) ÷ attempts.
    pub fn fail_ratio(&self) -> f64 {
        (self.lost + self.blocked) as f64 / self.attempted.max(1) as f64
    }
}

/// Formats a value with every digit Rust's shortest round-trip printing
/// gives, as a JSON number.
fn json_number(value: f64) -> String {
    let text = format!("{value:?}");
    if text.contains('.') || text.contains('e') {
        text
    } else {
        format!("{text}.0")
    }
}

/// The final result line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_and_full_precision_values() {
        let line = result_json(
            true,
            12,
            0,
            &[
                Metric::new("a_ms", 1.2034567891, "ms"),
                Metric::new("n", 3.0, "count"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.2034567891, \"unit\": \"ms\"}, \"n\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn fail_ratio_counts_losses_and_blocks_against_attempts() {
        let ops = Ops {
            attempted: 200,
            lost: 10,
            blocked: 22,
        };
        assert_eq!(ops.fail_ratio(), 0.16);
        assert_eq!(Ops::default().fail_ratio(), 0.0);
    }
}
