//! A run's result and the one JSON line it prints.

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports: whether every output check passed, operations
/// attempted and failed, and its metrics in the order they were taken.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why `correct` is false, one line each, the first
    /// [`MAX_PROBLEMS`] kept (printed to stderr).
    pub problems: Vec<String>,
}

/// Failure descriptions kept per report.
const MAX_PROBLEMS: usize = 20;

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        debug_assert!(valid_name(&name), "bad metric name {name:?}");
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Record a failed operation or output check: the run is no longer
    /// correct.
    pub fn fail_check(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.failed += 1;
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(why.into());
        }
    }

    /// Fold another pass's operations and failures into this report (not
    /// its metrics).
    pub fn absorb(&mut self, other: Report) {
        self.correct &= other.correct;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            if self.problems.len() < MAX_PROBLEMS {
                self.problems.push(p);
            }
        }
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A metric name: `[A-Za-z0-9_.-]+`, starting with a letter or digit,
/// at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Shortest round-trip decimal; JSON has no NaN/inf, so those become
/// `null` (and the run is marked incorrect by its caller).
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
    fn json_line_shape() {
        let mut r = Report::new();
        r.attempted = 3;
        r.put("setup_s", 0.25, "s");
        r.put("a.b-c_d", 2.0, "count");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"a.b-c_d\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn names_are_checked() {
        assert!(valid_name("model.forward_us.wcnn.b64"));
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name(""));
    }
}
