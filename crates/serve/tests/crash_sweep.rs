//! The atomicity headline proof: crash the bundle save at *every* commit
//! point (`bundle.crash=@k` for k = 0, 1, 2, …) and show that a reload
//! from the directory always yields exactly the old bundle or exactly
//! the new one — never a torn hybrid — and that the recovery sweep
//! leaves no debris behind.

use std::path::{Path, PathBuf};

use sqlan_core::{train_model, Labels, ModelKind, Problem, Task, TrainConfig, TrainData};
use sqlan_serve::bundle::{load_bundle, save_bundle, sweep_bundle_dir, BundleError, MANIFEST_FILE};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqlan-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

/// Train a classifier whose predictions depend on `flip`: the two
/// bundles in the sweep must be distinguishable by behavior, not just
/// by manifest name.
fn train_classifier(flip: bool) -> sqlan_core::TrainedModel {
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

fn manifest_name(dir: &Path) -> String {
    let manifest: sqlan_serve::BundleManifest = serde_json::from_str(
        &std::fs::read_to_string(dir.join(MANIFEST_FILE)).expect("read manifest"),
    )
    .expect("parse manifest");
    manifest.name
}

#[test]
fn crash_at_every_commit_point_yields_old_or_new_never_torn() {
    let dir = tmp_dir("sweep");
    let probe = "SELECT * FROM huge WHERE f(x) > 1".to_string();
    let model_a = train_classifier(false);
    let model_b = train_classifier(true);
    let expect_a = model_a.predict_proba(&probe);
    let expect_b = model_b.predict_proba(&probe);
    assert_ne!(
        expect_a.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        expect_b.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        "the two generations must be behaviorally distinguishable"
    );

    save_bundle(&dir, "a", 1, &[(Problem::ErrorClassification, &model_a)]).expect("save a");

    let mut crash_points = 0u64;
    let mut committed_early = false;
    loop {
        let guard = sqlan_fault::install(7, &format!("bundle.crash=@{crash_points}"))
            .expect("install fault plane");
        let outcome = save_bundle(&dir, "b", 2, &[(Problem::ErrorClassification, &model_b)]);
        drop(guard);
        match outcome {
            Err(BundleError::Crashed { point }) => {
                assert_eq!(point, crash_points, "crash fired at the requested point");
                // The invariant: whatever state the crash left, a load
                // sees exactly generation A or exactly generation B.
                let bundle = load_bundle(&dir).expect("post-crash load");
                let name = manifest_name(&dir);
                let expect = match name.as_str() {
                    "a" => &expect_a,
                    "b" => {
                        committed_early = true; // crash landed after the rename
                        &expect_b
                    }
                    other => panic!("unexpected manifest name {other:?}"),
                };
                let model = bundle
                    .model(Problem::ErrorClassification)
                    .expect("model present");
                assert_eq!(
                    model.predict_proba(&probe).iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                    expect.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                    "crash at point {crash_points}: loaded bundle is neither exactly A nor exactly B"
                );
                crash_points += 1;
            }
            Err(other) => panic!("crash at point {crash_points}: unexpected error {other:?}"),
            Ok(_) => break, // the point index ran off the end of the commit sequence
        }
    }
    // The save path has one crash point bracketing every write syscall
    // of artifact + manifest commit; a short sweep means the
    // instrumentation fell out of the write path.
    assert!(
        crash_points >= 8,
        "only {crash_points} crash points swept — commit instrumentation missing?"
    );
    assert!(
        committed_early,
        "no crash point landed after the manifest rename — the post-commit points are gone"
    );

    // Final state: generation B, and after a recovery sweep the
    // directory holds the manifest plus exactly the files it references.
    assert_eq!(manifest_name(&dir), "b");
    let report = sweep_bundle_dir(&dir).expect("sweep");
    assert_eq!(report.temps_removed, 0, "saves must clean their own temps");
    let bundle = load_bundle(&dir).expect("final load");
    let model = bundle
        .model(Problem::ErrorClassification)
        .expect("model present");
    assert_eq!(
        model
            .predict_proba(&probe)
            .iter()
            .map(|f| f.to_bits())
            .collect::<Vec<_>>(),
        expect_b.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
    );
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("read dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert!(
        files.iter().all(|f| !f.ends_with(".tmp")),
        "temp debris after sweep: {files:?}"
    );
    let manifest: sqlan_serve::BundleManifest = serde_json::from_str(
        &std::fs::read_to_string(dir.join(MANIFEST_FILE)).expect("read manifest"),
    )
    .expect("parse manifest");
    let mut expected: Vec<String> = manifest.entries.iter().map(|e| e.file.clone()).collect();
    expected.push(MANIFEST_FILE.to_string());
    expected.sort();
    assert_eq!(files, expected, "directory holds exactly the live bundle");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_sweep_removes_temps_and_orphans() {
    let dir = tmp_dir("recover");
    let model = train_classifier(false);
    // The sweep test above installs `bundle.crash` planes process-wide;
    // hold the fault lock so none of them fires inside this save.
    let _no_faults = sqlan_fault::exclusive();
    save_bundle(&dir, "a", 1, &[(Problem::ErrorClassification, &model)]).expect("save");
    // Debris a crashed save could leave: a half-written temp and a
    // fully-written artifact no manifest references.
    std::fs::write(dir.join("half.json.tmp"), b"{\"partial").expect("temp");
    std::fs::write(dir.join("orphan-0123456789abcdef.json"), b"{}").expect("orphan");
    let report = sweep_bundle_dir(&dir).expect("sweep");
    assert_eq!(report.temps_removed, 1);
    assert_eq!(report.orphans_removed, 1);
    load_bundle(&dir).expect("bundle still loads");

    // Without a parseable manifest the sweep must stay conservative:
    // temps go (they are never live state) but artifacts stay — the
    // sweeper cannot prove they are orphans.
    std::fs::write(dir.join(MANIFEST_FILE), b"{not json").expect("break manifest");
    std::fs::write(dir.join("half.json.tmp"), b"{\"partial").expect("temp");
    std::fs::write(dir.join("keep-0123456789abcdef.json"), b"{}").expect("artifact");
    let report = sweep_bundle_dir(&dir).expect("sweep");
    assert_eq!(report.temps_removed, 1);
    assert_eq!(report.orphans_removed, 0);
    assert!(dir.join("keep-0123456789abcdef.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
