//! Regression: a hot swap that *removes* a problem must not strand jobs
//! already admitted for it. Jobs pin the bundle they were admitted
//! against, so the batch worker scores them under that generation even
//! if the live bundle no longer carries the model.
//!
//! Plus the reload-storm regression: under a barrage of concurrent
//! reloads, every scored batch must come from exactly one bundle
//! (bitwise — the generation-aware cache and the pinned-bundle worker
//! must never mix generations within a batch), and displaced
//! generations must actually free — only the live bundle may stay
//! alive, down to the generation the last reload displaced.

use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

use sqlan_core::{train_model, Labels, ModelKind, Problem, Task, TrainConfig, TrainData};
use sqlan_serve::{
    save_bundle, LiveBundle, ModelRegistry, ScoreError, ScoringConfig, ScoringEngine,
};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sqlan-swap-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

#[test]
fn swap_removing_problem_does_not_strand_admitted_jobs() {
    let xs: Vec<String> = (0..40).map(|i| format!("SELECT {i} FROM t")).collect();
    let cls: Vec<usize> = (0..40).map(|i| i % 2).collect();
    let vals: Vec<f64> = (0..40).map(|i| i as f64).collect();
    let cfg = TrainConfig::tiny();
    let classifier = train_model(
        ModelKind::MFreq,
        Task::Classify(2),
        &TrainData {
            statements: &xs[..30],
            labels: Labels::Classes(&cls[..30]),
            valid_statements: &xs[30..],
            valid_labels: Labels::Classes(&cls[30..]),
        },
        &cfg,
        None,
    );
    let regressor = train_model(
        ModelKind::Median,
        Task::Regress,
        &TrainData {
            statements: &xs[..30],
            labels: Labels::Values(&vals[..30]),
            valid_statements: &xs[30..],
            valid_labels: Labels::Values(&vals[30..]),
        },
        &cfg,
        None,
    );

    let dir_a = tmp_dir("a");
    let dir_b = tmp_dir("b");
    save_bundle(
        &dir_a,
        "a",
        1,
        &[(Problem::ErrorClassification, &classifier)],
    )
    .expect("save a");
    // Bundle B has no error_classification model at all.
    save_bundle(&dir_b, "b", 1, &[(Problem::AnswerSize, &regressor)]).expect("save b");

    let registry = Arc::new(ModelRegistry::open(&dir_a).expect("open"));
    // One worker that holds its batch open long enough for the reload
    // below to land before scoring starts.
    let engine = ScoringEngine::start(
        Arc::clone(&registry),
        ScoringConfig {
            workers: 1,
            max_batch: 64,
            max_wait: Duration::from_millis(300),
            ..ScoringConfig::default()
        },
    );

    let result = std::thread::scope(|s| {
        let engine = &engine;
        let scorer = s.spawn(move || {
            engine.score(
                Problem::ErrorClassification,
                &["SELECT 1 FROM t".to_string()],
            )
        });
        // Let the job be admitted and picked up, then swap the problem
        // away while the worker is still holding the batch open.
        std::thread::sleep(Duration::from_millis(50));
        registry.reload(&dir_b).expect("reload");
        scorer.join().expect("scorer thread must not panic")
    });
    let scored = result.expect("admitted job must be served from its pinned bundle");
    assert_eq!(scored.generation, 1, "scored under the admitted generation");
    assert_eq!(scored.predictions.len(), 1);
    assert!(scored.predictions[0].class.is_some());

    // New admissions, by contrast, see the swapped bundle and reject.
    assert!(matches!(
        engine.score(Problem::ErrorClassification, &["SELECT 2".to_string()]),
        Err(ScoreError::UnknownProblem(_))
    ));
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Train a classifier whose per-statement probabilities depend on
/// `flip`, so bundles built from the two are bitwise distinguishable.
fn train_flip_classifier(flip: bool) -> sqlan_core::TrainedModel {
    let mut xs = Vec::new();
    let mut cls = Vec::new();
    for i in 0..60 {
        let heavy = (i % 3 == 0) ^ flip;
        xs.push(if heavy {
            format!("SELECT * FROM huge WHERE f(x) > {i}")
        } else {
            format!("SELECT 1 FROM small WHERE id = {i}")
        });
        cls.push(heavy as usize);
    }
    train_model(
        ModelKind::WTfidf,
        Task::Classify(2),
        &TrainData {
            statements: &xs[..40],
            labels: Labels::Classes(&cls[..40]),
            valid_statements: &xs[40..],
            valid_labels: Labels::Classes(&cls[40..]),
        },
        &TrainConfig::tiny(),
        None,
    )
}

fn proba_bits(p: &[f32]) -> Vec<u32> {
    p.iter().map(|f| f.to_bits()).collect()
}

#[test]
fn reload_storm_never_mixes_generations_within_a_batch() {
    let model_a = train_flip_classifier(false);
    let model_b = train_flip_classifier(true);
    let probes: Vec<String> = (0..8)
        .map(|i| format!("SELECT * FROM huge WHERE f(x) > {}", 100 + i))
        .collect();
    let expect_a: Vec<Vec<u32>> = probes
        .iter()
        .map(|s| proba_bits(&model_a.predict_proba(s)))
        .collect();
    let expect_b: Vec<Vec<u32>> = probes
        .iter()
        .map(|s| proba_bits(&model_b.predict_proba(s)))
        .collect();
    for (i, (a, b)) in expect_a.iter().zip(&expect_b).enumerate() {
        assert_ne!(a, b, "probe {i} cannot distinguish the bundles");
    }

    let dir_a = tmp_dir("storm-a");
    let dir_b = tmp_dir("storm-b");
    save_bundle(&dir_a, "a", 1, &[(Problem::ErrorClassification, &model_a)]).expect("save a");
    save_bundle(&dir_b, "b", 1, &[(Problem::ErrorClassification, &model_b)]).expect("save b");

    let registry = Arc::new(ModelRegistry::open(&dir_a).expect("open"));
    // A generation that will be displaced early in the storm: if the
    // swap path leaks pinned Arcs, this is the one that stays alive.
    let displaced_early = Arc::downgrade(&registry.current());
    let engine = ScoringEngine::start(
        Arc::clone(&registry),
        ScoringConfig {
            workers: 2,
            ..ScoringConfig::default()
        },
    );

    // A weak handle on the live bundle after each storm reload: every
    // one that is not the final live bundle must free.
    let seen: Mutex<Vec<Weak<LiveBundle>>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for r in 0..4 {
            let registry = Arc::clone(&registry);
            let (dir_a, dir_b) = (dir_a.clone(), dir_b.clone());
            let seen = &seen;
            s.spawn(move || {
                for i in 0..25 {
                    let dir = if (i + r) % 2 == 0 { &dir_a } else { &dir_b };
                    registry.reload(dir).expect("storm reload");
                    let live = Arc::downgrade(&registry.current());
                    seen.lock().expect("seen lock").push(live);
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
        }
        for _ in 0..4 {
            let engine = &engine;
            let (probes, expect_a, expect_b) = (&probes, &expect_a, &expect_b);
            s.spawn(move || {
                for i in 0..50 {
                    let scored = engine
                        .score(Problem::ErrorClassification, probes)
                        .expect("storm score");
                    assert_eq!(scored.predictions.len(), probes.len());
                    let got: Vec<Vec<u32>> = scored
                        .predictions
                        .iter()
                        .map(|p| proba_bits(p.proba.as_deref().expect("classifier proba")))
                        .collect();
                    // All-A or all-B; anything else is a mixed batch.
                    assert!(
                        got == *expect_a || got == *expect_b,
                        "iteration {i}: batch mixes generations \
                         (admitted generation {})",
                        scored.generation
                    );
                }
            });
        }
    });

    engine.shutdown();
    // 100 reloads displaced 100 generations. All but the live bundle
    // must have freed.
    assert!(
        displaced_early.upgrade().is_none(),
        "generation 1 still pinned after the storm — reload leaks bundles"
    );
    let live = registry.current();
    for weak in seen.into_inner().expect("seen lock") {
        if let Some(b) = weak.upgrade() {
            assert!(
                Arc::ptr_eq(&b, &live),
                "displaced generation {} still alive (live is {})",
                b.generation,
                live.generation
            );
        }
    }
    // Including the generation the last reload displaced: the registry
    // pins nothing but the live bundle.
    let last = Arc::downgrade(&live);
    drop(live);
    registry.reload(&dir_a).expect("final reload");
    assert!(
        last.upgrade().is_none(),
        "the generation displaced by the last reload is still pinned"
    );
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
