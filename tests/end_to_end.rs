//! Cross-crate integration: workload synthesis → dataset → every model
//! kind → evaluation, for all four problems of Definition 4.

use sqlan_core::prelude::*;

fn sdss() -> (Workload, sqlan_workload::Split) {
    let w = build_sdss(SdssConfig {
        n_sessions: 220,
        scale: Scale(0.02),
        seed: 101,
    });
    let s = random_split(w.len(), 101);
    (w, s)
}

#[test]
fn all_four_problems_run() {
    let (w, s) = sdss();
    let cfg = TrainConfig {
        epochs: 1,
        ..TrainConfig::tiny()
    };
    for problem in [
        Problem::ErrorClassification,
        Problem::SessionClassification,
        Problem::CpuTime,
        Problem::AnswerSize,
    ] {
        let kinds = if problem.is_classification() {
            vec![ModelKind::MFreq, ModelKind::WTfidf]
        } else {
            vec![ModelKind::Median, ModelKind::WTfidf]
        };
        let exp = run_experiment(&w, problem, s.clone(), &kinds, &cfg, None);
        assert_eq!(exp.runs.len(), 2, "{problem}");
        for (run, row) in exp.runs.iter().zip(exp.summary_rows()) {
            assert_eq!(row.model, run.kind.name(), "{problem}");
            assert!(
                row.loss.is_finite(),
                "{problem}/{}: loss {}",
                row.model,
                row.loss
            );
        }
    }
}

#[test]
fn every_model_kind_trains_on_error_classification() {
    let (w, s) = sdss();
    let cfg = TrainConfig {
        epochs: 1,
        ..TrainConfig::tiny()
    };
    let kinds = [
        ModelKind::MFreq,
        ModelKind::CTfidf,
        ModelKind::WTfidf,
        ModelKind::CCnn,
        ModelKind::WCnn,
        ModelKind::CLstm,
        ModelKind::WLstm,
    ];
    let exp = run_experiment(&w, Problem::ErrorClassification, s, &kinds, &cfg, None);
    assert_eq!(exp.runs.len(), 7);
    for run in &exp.runs {
        let c = run.classification.as_ref().expect("classification eval");
        assert!((0.0..=1.0).contains(&c.accuracy), "{}", run.kind.name());
        assert_eq!(c.per_class.len(), 3);
        assert!(c.loss.is_finite());
        // Learned models report their capacity columns.
        if run.kind != ModelKind::MFreq {
            assert!(run.vocab_size.unwrap() > 0);
            assert!(run.n_parameters.unwrap() > 0);
        }
    }
}

#[test]
fn every_regressor_kind_trains_on_cpu_time_with_opt() {
    let (w, s) = sdss();
    let db = sdss_database(SdssConfig {
        n_sessions: 220,
        scale: Scale(0.02),
        seed: 101,
    });
    let cfg = TrainConfig {
        epochs: 1,
        ..TrainConfig::tiny()
    };
    let kinds = [
        ModelKind::Median,
        ModelKind::Opt,
        ModelKind::CTfidf,
        ModelKind::CCnn,
        ModelKind::CLstm,
    ];
    let exp = run_experiment(&w, Problem::CpuTime, s, &kinds, &cfg, Some(&db));
    for run in &exp.runs {
        let g = run.regression.as_ref().expect("regression eval");
        assert!(g.loss.is_finite(), "{}", run.kind.name());
        assert!(g.mse.is_finite());
        assert!(!g.qerror.rows.is_empty());
        // All qerrors ≥ 1 by definition.
        assert!(g.qerror.rows.iter().all(|(_, q)| *q >= 1.0 || q.is_nan()));
    }
}

#[test]
fn sqlshare_settings_run_end_to_end() {
    let cfg_w = SqlShareConfig {
        n_queries: 160,
        n_users: 12,
        scale: Scale(0.03),
        seed: 55,
    };
    let w = build_sqlshare(cfg_w);
    let db = sqlshare_database(cfg_w);
    let cfg = TrainConfig {
        epochs: 1,
        ..TrainConfig::tiny()
    };

    // Homogeneous Schema (random) and Heterogeneous Schema (by user).
    let hom = run_experiment(
        &w,
        Problem::CpuTime,
        random_split(w.len(), 9),
        &[ModelKind::Median, ModelKind::Opt, ModelKind::CCnn],
        &cfg,
        Some(&db),
    );
    let het_split = split_by_user(&w.entries, 0.8, 0.07, 9);
    assert!(
        !het_split.test.is_empty(),
        "user split must produce a test set"
    );
    let het = run_experiment(
        &w,
        Problem::CpuTime,
        het_split,
        &[ModelKind::Median, ModelKind::Opt, ModelKind::CCnn],
        &cfg,
        Some(&db),
    );
    for exp in [&hom, &het] {
        for run in &exp.runs {
            assert!(run.regression.as_ref().unwrap().loss.is_finite());
        }
    }
}

#[test]
fn pipeline_is_deterministic() {
    let run = || {
        let (w, s) = sdss();
        let cfg = TrainConfig {
            epochs: 1,
            ..TrainConfig::tiny()
        };
        let exp = run_experiment(
            &w,
            Problem::ErrorClassification,
            s,
            &[ModelKind::CTfidf],
            &cfg,
            None,
        );
        let e = exp.runs[0].classification.as_ref().unwrap().clone();
        (e.loss, e.accuracy, e.preds)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

#[test]
fn trained_models_are_total_on_arbitrary_input() {
    let (w, s) = sdss();
    let cfg = TrainConfig {
        epochs: 1,
        ..TrainConfig::tiny()
    };
    let exp = run_experiment(
        &w,
        Problem::ErrorClassification,
        s,
        &[ModelKind::CTfidf, ModelKind::CCnn, ModelKind::CLstm],
        &cfg,
        None,
    );
    let nasty = ["", " ", "𓀀𓀁𓀂", "SELECT", "'", &"(".repeat(5000), "\0\0\0"];
    for run in &exp.runs {
        for s in nasty {
            let c = run.model.predict_class(s);
            assert!(c < 3, "{} on nasty input", run.kind.name());
        }
    }
}
