//! Turning a labeled workload into a training dataset for one problem:
//! label extraction plus the paper's log transformation (§4.4.1).

use serde::{Deserialize, Serialize};

use sqlan_workload::Workload;

use crate::problem::Problem;

/// The paper's regression-label transform `y' = ln(y + ε − min(y))` with
/// ε = 1, making the transform non-negative. Stored so predictions can be
/// mapped back to the raw scale for qerror.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogTransform {
    pub min: f64,
    pub eps: f64,
}

impl LogTransform {
    /// Fit on raw labels.
    pub fn fit(raw: &[f64]) -> LogTransform {
        let min = raw.iter().cloned().fold(f64::INFINITY, f64::min);
        let min = if min.is_finite() { min } else { 0.0 };
        LogTransform { min, eps: 1.0 }
    }

    pub fn apply(&self, y: f64) -> f64 {
        (y + self.eps - self.min).max(self.eps * 1e-12).ln()
    }

    /// Inverse transform back to the raw scale.
    pub fn invert(&self, y_log: f64) -> f64 {
        y_log.exp() - self.eps + self.min
    }
}

/// A problem-specific dataset view over a workload.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub problem: Problem,
    pub statements: Vec<String>,
    /// Class indices (classification problems).
    pub class_labels: Vec<usize>,
    /// Raw numeric labels (regression problems).
    pub raw_labels: Vec<f64>,
    /// Log-transformed labels (regression problems).
    pub log_labels: Vec<f64>,
    pub transform: Option<LogTransform>,
}

impl Dataset {
    /// Build from workload entries. Entries lacking the problem's label
    /// (e.g. session class on SQLShare) are skipped.
    pub fn build(workload: &Workload, problem: Problem) -> Dataset {
        let mut statements = Vec::new();
        let mut class_labels = Vec::new();
        let mut raw_labels = Vec::new();
        for e in &workload.entries {
            match problem {
                Problem::ErrorClassification => {
                    statements.push(e.statement.clone());
                    class_labels.push(e.error_class.index());
                }
                Problem::SessionClassification => {
                    if let Some(c) = e.session_class {
                        statements.push(e.statement.clone());
                        class_labels.push(c.index());
                    }
                }
                Problem::CpuTime => {
                    statements.push(e.statement.clone());
                    raw_labels.push(e.cpu_seconds);
                }
                Problem::AnswerSize => {
                    statements.push(e.statement.clone());
                    raw_labels.push(e.answer_size);
                }
            }
        }
        let (transform, log_labels) = if problem.is_classification() {
            (None, Vec::new())
        } else {
            let t = LogTransform::fit(&raw_labels);
            let logs = raw_labels.iter().map(|&y| t.apply(y)).collect();
            (Some(t), logs)
        };
        Dataset {
            problem,
            statements,
            class_labels,
            raw_labels,
            log_labels,
            transform,
        }
    }

    pub fn len(&self) -> usize {
        self.statements.len()
    }

    pub fn is_empty(&self) -> bool {
        self.statements.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlan_workload::{build_sdss, Scale, SdssConfig};

    fn workload() -> Workload {
        build_sdss(SdssConfig {
            n_sessions: 150,
            scale: Scale(0.02),
            seed: 3,
        })
    }

    #[test]
    fn log_transform_roundtrip() {
        let t = LogTransform::fit(&[-1.0, 0.0, 100.0]);
        assert_eq!(t.min, -1.0);
        for y in [-1.0, 0.0, 5.0, 1e6] {
            let back = t.invert(t.apply(y));
            assert!((back - y).abs() < 1e-6 * y.abs().max(1.0), "{y} -> {back}");
        }
        // Non-negative after transform at the minimum.
        assert!(t.apply(-1.0) >= 0.0);
    }

    #[test]
    fn error_dataset_covers_all_entries() {
        let w = workload();
        let d = Dataset::build(&w, Problem::ErrorClassification);
        assert_eq!(d.len(), w.len());
        assert!(d.class_labels.iter().all(|&c| c < 3));
    }

    #[test]
    fn session_dataset_covers_sdss_entries() {
        let w = workload();
        let d = Dataset::build(&w, Problem::SessionClassification);
        assert_eq!(d.len(), w.len()); // SDSS entries all carry a session class
        assert!(d.class_labels.iter().all(|&c| c < 7));
    }

    #[test]
    fn regression_dataset_has_transform() {
        let w = workload();
        let d = Dataset::build(&w, Problem::AnswerSize);
        assert!(d.transform.is_some());
        assert_eq!(d.log_labels.len(), d.raw_labels.len());
        // Transformed labels are finite and ≥ 0.
        assert!(d.log_labels.iter().all(|&y| y.is_finite() && y >= 0.0));
    }
}
