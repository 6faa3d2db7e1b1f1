//! End-to-end experiment pipeline: dataset → split → train each model →
//! evaluate on the test slice. This is what the experiment harness
//! (`sqlan-bench`, one experiment per setting and problem) and the
//! examples drive.

use serde::{Deserialize, Serialize};

use sqlan_engine::Database;
use sqlan_workload::{Split, Workload};

use crate::config::TrainConfig;
use crate::dataset::Dataset;
use crate::eval::{
    evaluate_classifier, evaluate_regressor_with_shift, ClassificationEval, RegressionEval,
};
use crate::models::neural::{Labels, Task};
use crate::models::zoo::{train_model, ModelKind, TrainData, TrainedModel};
use crate::problem::Problem;

/// One model's results on one problem.
#[derive(Debug)]
pub struct ModelRun {
    pub kind: ModelKind,
    pub vocab_size: Option<usize>,
    pub n_parameters: Option<usize>,
    pub classification: Option<ClassificationEval>,
    pub regression: Option<RegressionEval>,
    pub model: TrainedModel,
}

/// Results for a whole experiment (one problem, one split, many models).
#[derive(Debug)]
pub struct Experiment {
    pub problem: Problem,
    pub dataset: Dataset,
    pub split: Split,
    pub runs: Vec<ModelRun>,
}

/// Serializable summary row: one model's test metrics, as the harness
/// writes them under `results/`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SummaryRow {
    pub model: String,
    pub vocab_size: Option<usize>,
    pub n_parameters: Option<usize>,
    pub loss: f64,
    pub accuracy: Option<f64>,
    pub mse: Option<f64>,
}

impl Experiment {
    pub fn summary_rows(&self) -> Vec<SummaryRow> {
        self.runs
            .iter()
            .map(|r| SummaryRow {
                model: r.kind.name().to_string(),
                vocab_size: r.vocab_size,
                n_parameters: r.n_parameters,
                loss: r
                    .classification
                    .as_ref()
                    .map(|c| c.loss)
                    .or_else(|| r.regression.as_ref().map(|g| g.loss))
                    .unwrap_or(f64::NAN),
                accuracy: r.classification.as_ref().map(|c| c.accuracy),
                mse: r.regression.as_ref().map(|g| g.mse),
            })
            .collect()
    }
}

fn gather<T: Clone>(xs: &[T], idx: &[usize]) -> Vec<T> {
    idx.iter().map(|&i| xs[i].clone()).collect()
}

/// Run one experiment: train every `kind` on the split's train slice
/// (validation slice for early stopping) and evaluate on the test slice.
///
/// `opt_db` supplies optimizer estimates for [`ModelKind::Opt`]; models
/// that don't need it ignore it.
pub fn run_experiment(
    workload: &Workload,
    problem: Problem,
    split: Split,
    kinds: &[ModelKind],
    cfg: &TrainConfig,
    opt_db: Option<&Database>,
) -> Experiment {
    let dataset = Dataset::build(workload, problem);
    assert!(
        split
            .train
            .iter()
            .chain(&split.valid)
            .chain(&split.test)
            .all(|&i| i < dataset.len()),
        "split indices out of range for dataset"
    );

    let train_stmts = gather(&dataset.statements, &split.train);
    let valid_stmts = gather(&dataset.statements, &split.valid);
    let test_stmts = gather(&dataset.statements, &split.test);

    // Models are independent given the (shared, read-only) split slices,
    // so the whole zoo trains and evaluates on the [`sqlan_par`] pool —
    // one worker per model, results merged in `kinds` order. Each model's
    // internal minibatch fan-out inherits the same thread budget.
    let runs: Vec<ModelRun> = if problem.is_classification() {
        let n = problem.n_classes();
        let train_y = gather(&dataset.class_labels, &split.train);
        let valid_y = gather(&dataset.class_labels, &split.valid);
        let test_y = gather(&dataset.class_labels, &split.test);
        cfg.pool().par_map(kinds, |&kind| {
            let data = TrainData {
                statements: &train_stmts,
                labels: Labels::Classes(&train_y),
                valid_statements: &valid_stmts,
                valid_labels: Labels::Classes(&valid_y),
            };
            let model = train_model(kind, Task::Classify(n), &data, cfg, opt_db);
            let eval = evaluate_classifier(&model, &test_stmts, &test_y, n);
            ModelRun {
                kind,
                vocab_size: model.vocab_size(),
                n_parameters: model.n_parameters(),
                classification: Some(eval),
                regression: None,
                model,
            }
        })
    } else {
        let transform = dataset.transform.expect("regression dataset has transform");
        let train_y = gather(&dataset.log_labels, &split.train);
        let valid_y = gather(&dataset.log_labels, &split.valid);
        let test_y = gather(&dataset.log_labels, &split.test);
        let test_raw = gather(&dataset.raw_labels, &split.test);
        cfg.pool().par_map(kinds, |&kind| {
            let data = TrainData {
                statements: &train_stmts,
                labels: Labels::Values(&train_y),
                valid_statements: &valid_stmts,
                valid_labels: Labels::Values(&valid_y),
            };
            let model = train_model(kind, Task::Regress, &data, cfg, opt_db);
            // qerror shift matched to the label scale: counts use 1 row,
            // CPU seconds use 10 ms (medians sit far below one second).
            let shift = match problem {
                Problem::CpuTime => 0.01,
                _ => 1.0,
            };
            let eval = evaluate_regressor_with_shift(
                &model,
                &test_stmts,
                &test_y,
                &test_raw,
                transform,
                cfg.huber_delta as f64,
                shift,
            );
            ModelRun {
                kind,
                vocab_size: model.vocab_size(),
                n_parameters: model.n_parameters(),
                classification: None,
                regression: Some(eval),
                model,
            }
        })
    };
    Experiment {
        problem,
        dataset,
        split,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlan_workload::{build_sdss, random_split, Scale, SdssConfig};

    fn workload() -> Workload {
        build_sdss(SdssConfig {
            n_sessions: 250,
            scale: Scale(0.02),
            seed: 11,
        })
    }

    #[test]
    fn classification_experiment_end_to_end() {
        let w = workload();
        let split = random_split(w.len(), 1);
        let cfg = TrainConfig {
            epochs: 2,
            ..TrainConfig::tiny()
        };
        let exp = run_experiment(
            &w,
            Problem::ErrorClassification,
            split,
            &[ModelKind::MFreq, ModelKind::CTfidf],
            &cfg,
            None,
        );
        assert_eq!(exp.runs.len(), 2);
        for r in &exp.runs {
            let c = r.classification.as_ref().unwrap();
            assert!(c.accuracy >= 0.0 && c.accuracy <= 1.0);
            assert_eq!(c.per_class.len(), 3);
        }
        // mfreq must be beaten or matched on accuracy by the learned model
        // (not guaranteed in theory, but at this separability it holds).
        let rows = exp.summary_rows();
        assert_eq!(rows[0].model, "mfreq");
        assert!(rows[1].loss <= rows[0].loss + 1.0);
    }

    #[test]
    fn regression_experiment_end_to_end() {
        let w = workload();
        let split = random_split(w.len(), 2);
        let cfg = TrainConfig {
            epochs: 2,
            ..TrainConfig::tiny()
        };
        let db = sqlan_workload::sdss_database(SdssConfig {
            n_sessions: 250,
            scale: Scale(0.02),
            seed: 11,
        });
        let exp = run_experiment(
            &w,
            Problem::AnswerSize,
            split,
            &[ModelKind::Median, ModelKind::Opt, ModelKind::CTfidf],
            &cfg,
            Some(&db),
        );
        for r in &exp.runs {
            let g = r.regression.as_ref().unwrap();
            assert!(g.loss.is_finite(), "{}: loss", r.kind.name());
            assert!(g.mse.is_finite());
            assert_eq!(g.preds_log.len(), exp.split.test.len());
        }
    }
}
