//! Model-quality floors: the paper's qualitative claims that the learned
//! models beat the trivial baselines, checked on the harness-default
//! configuration (seed `0x5D55`). Each floor held on seeds `0x5D55`, 1
//! and 2. The claims that did not hold on all three are left out: Table 2
//! accuracy and per-class F (`ccnn` predicts the majority class), `opt`
//! against `median`, and per-model growth of error with heterogeneity.
//!
//! Ignored by default: it trains all six experiments at the default size,
//! which takes about a minute in a release build and hours in a debug
//! one. Run it with
//!
//! ```sh
//! cargo test --release -p sqlan-bench --test quality_floors -- --ignored
//! ```

use sqlan_bench::{Harness, Runs, TABLES};
use sqlan_core::{Experiment, ModelKind, Problem, Setting, SummaryRow};

/// `kind`'s test metrics in `exp`.
fn row(exp: &Experiment, kind: ModelKind) -> SummaryRow {
    let mut rows = exp.summary_rows().into_iter();
    rows.find(|r| r.model == kind.name())
        .unwrap_or_else(|| panic!("{} is not in the lineup", kind.name()))
}

/// Every learned kind's test loss is below `baseline`'s.
fn learned_beat(what: &str, exp: &Experiment, baseline: ModelKind) {
    let floor = row(exp, baseline).loss;
    for kind in ModelKind::LEARNED {
        let loss = row(exp, kind).loss;
        assert!(
            loss < floor,
            "{what}: {} loss {loss:.4} is not below {} {floor:.4}",
            kind.name(),
            baseline.name()
        );
    }
}

/// `wtfidf` has the lowest test loss of the lineup.
fn wtfidf_lowest(what: &str, exp: &Experiment) {
    let best = row(exp, ModelKind::WTfidf).loss;
    for r in exp.summary_rows() {
        assert!(
            r.model == "wtfidf" || best < r.loss,
            "{what}: wtfidf loss {best:.4} is not below {} {:.4}",
            r.model,
            r.loss
        );
    }
}

#[test]
#[ignore = "trains six experiments at the default size; run in release with --ignored"]
fn learned_models_beat_the_baselines_at_the_default_size() {
    let runs = Runs::new(Harness::default());
    assert_eq!(runs.harness.seed, 0x5D55);
    for (name, render) in TABLES {
        let (text, json) = render(&runs);
        assert!(text.starts_with("\n== "), "{name} renders no table");
        let artifact = serde_json::to_string_pretty(&json).unwrap();
        if let Err(e) = serde_json::from_str::<serde_json::Value>(&artifact) {
            panic!("results/{name}.json does not parse: {e:?}");
        }
    }

    // Table 2: error class, CPU time and answer size.
    let hi = Setting::HomogeneousInstance;
    for (problem, baseline) in [
        (Problem::ErrorClassification, ModelKind::MFreq),
        (Problem::CpuTime, ModelKind::Median),
        (Problem::AnswerSize, ModelKind::Median),
    ] {
        let what = format!("Table 2 {problem}");
        let exp = runs.experiment(hi, problem);
        learned_beat(&what, exp, baseline);
        wtfidf_lowest(&what, exp);
    }

    // Table 4: session classification, on loss and on accuracy.
    let sessions = runs.experiment(hi, Problem::SessionClassification);
    learned_beat("Table 4", sessions, ModelKind::MFreq);
    wtfidf_lowest("Table 4", sessions);
    let accuracy = |kind| row(sessions, kind).accuracy.expect("a classifier's row");
    let floor = accuracy(ModelKind::MFreq);
    for kind in ModelKind::LEARNED {
        assert!(
            accuracy(kind) > floor,
            "Table 4: {} accuracy {:.4} is not above mfreq {floor:.4}",
            kind.name(),
            accuracy(kind)
        );
    }

    // Table 5: SQLShare CPU time under both schema splits.
    for setting in [Setting::HomogeneousSchema, Setting::HeterogeneousSchema] {
        let what = format!("Table 5 {setting}");
        let exp = runs.experiment(setting, Problem::CpuTime);
        learned_beat(&what, exp, ModelKind::Median);
        learned_beat(&what, exp, ModelKind::Opt);
    }
}
