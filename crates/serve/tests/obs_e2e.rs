//! End-to-end observability: boot the server, drive a real `/predict`,
//! and assert over HTTP that
//!
//! * `GET /debug/trace` returns per-stage spans (parse → cache probe →
//!   queue wait → batch score) for that request;
//! * `GET /metrics?format=prom` is well-formed Prometheus text
//!   exposition (HELP/TYPE headers, cumulative `_bucket` series with a
//!   `+Inf` bound, `_sum`/`_count`);
//! * prediction bytes are identical with observability on and off
//!   (`SQLAN_OBS` is a pure observer);
//! * `/healthz` reports the HTTP tier (`"epoll"`) and an uptime.
//!
//! Everything lives in one `#[test]` because `sqlan_obs::set_enabled`
//! is process-global: parallel test threads flipping it would race.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use sqlan_core::{
    train_model, Dataset, Labels, ModelKind, Problem, Task, TrainConfig, TrainData, TrainedModel,
};
use sqlan_serve::{
    save_bundle, Client, ModelRegistry, PredictRequest, ScoringConfig, ServeConfig, ServerHandle,
    TraceDump,
};
use sqlan_workload::{build_sdss, Scale, SdssConfig};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqlan-obs-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn dataset() -> Dataset {
    let w = build_sdss(SdssConfig {
        n_sessions: 120,
        scale: Scale(0.02),
        seed: 2020,
    });
    Dataset::build(&w, Problem::ErrorClassification)
}

fn train_classifier(ds: &Dataset) -> TrainedModel {
    let cfg = TrainConfig {
        epochs: 1,
        ..TrainConfig::tiny()
    };
    let n = ds.len();
    let cut = n * 4 / 5;
    train_model(
        ModelKind::WTfidf,
        Task::Classify(Problem::ErrorClassification.n_classes()),
        &TrainData {
            statements: &ds.statements[..cut],
            labels: Labels::Classes(&ds.class_labels[..cut]),
            valid_statements: &ds.statements[cut..],
            valid_labels: Labels::Classes(&ds.class_labels[cut..]),
        },
        &cfg,
        None,
    )
}

fn boot(registry: &Arc<ModelRegistry>) -> ServerHandle {
    sqlan_serve::start(
        Arc::clone(registry),
        ServeConfig {
            http_workers: 2,
            scoring: ScoringConfig {
                workers: 1,
                max_batch: 16,
                max_wait: Duration::from_millis(1),
                ..ScoringConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("start server")
}

fn predict_body(statements: &[String]) -> String {
    serde_json::to_string(&PredictRequest {
        problem: Problem::ErrorClassification.name().to_string(),
        statements: statements.to_vec(),
    })
    .expect("request serializes")
}

/// Span names recorded for the most recent `/predict` trace.
fn predict_span_names(client: &mut Client) -> Vec<String> {
    let (status, body) = client.get("/debug/trace?n=16").expect("debug trace");
    assert_eq!(status, 200, "{body}");
    let dump: TraceDump = serde_json::from_str(&body).expect("trace json");
    assert!(dump.enabled, "obs must be on for this probe");
    let trace = dump
        .traces
        .iter()
        .find(|t| t.route == "/predict")
        .expect("a /predict trace in the ring");
    assert!(trace.total_ns > 0);
    assert_eq!(trace.status, 200);
    trace.spans.iter().map(|s| s.name.clone()).collect()
}

/// Trace spans, Prometheus text, healthz shape, and the obs-on/off
/// byte comparison against one running server.
fn exercise(handle: &ServerHandle, statements: &[String]) {
    let mut client = Client::connect(handle.addr()).expect("connect");
    let body = predict_body(statements);

    // Drive a real prediction with obs on; its trace must land in the
    // ring with the per-stage spans.
    sqlan_obs::set_enabled(true);
    let (status, on_bytes) = client.post("/predict", &body).expect("predict");
    assert_eq!(status, 200, "{on_bytes}");
    let spans = predict_span_names(&mut client);
    for expected in ["parse", "normalize", "cache_probe", "batch_score"] {
        assert!(
            spans.iter().any(|s| s == expected),
            "expected span `{expected}`, got {spans:?}"
        );
    }

    // Prometheus exposition: HELP/TYPE headers, histogram series with a
    // cumulative +Inf bucket and _sum/_count, and the serve counters.
    let (status, prom) = client.get("/metrics?format=prom").expect("prom");
    assert_eq!(status, 200);
    assert!(prom.contains("# HELP sqlan_http_requests_total"));
    assert!(prom.contains("# TYPE sqlan_http_requests_total counter"));
    assert!(prom.contains("# TYPE sqlan_request_duration_seconds histogram"));
    assert!(prom.contains("sqlan_request_duration_seconds_bucket{le=\"+Inf\"}"));
    assert!(prom.contains("sqlan_request_duration_seconds_sum"));
    assert!(prom.contains("sqlan_request_duration_seconds_count"));
    assert!(prom.contains("sqlan_statements_total{problem=\"error_classification\"}"));
    assert!(prom.contains("sqlan_http_responses_total{class=\"2xx\"}"));
    // The features crate reports featurize wall time into the global
    // registry, merged into the same exposition.
    assert!(prom.contains("# TYPE sqlan_featurize_seconds histogram"));
    for line in prom.lines() {
        assert!(
            line.starts_with('#') || line.contains(' '),
            "sample lines are `name value`: {line:?}"
        );
    }

    // Healthz names the HTTP tier and carries an uptime.
    let (status, health) = client.get("/healthz").expect("healthz");
    assert_eq!(status, 200);
    let health: sqlan_serve::HealthResponse = serde_json::from_str(&health).expect("health json");
    assert_eq!(health.http_tier, "epoll");
    assert!(health.uptime_s >= 0.0);
    assert_eq!(health.generation, 1);

    // Pure observer: the same request with obs off serves byte-identical
    // prediction bytes, and /debug/trace reports itself disabled.
    sqlan_obs::set_enabled(false);
    let (status, off_bytes) = client.post("/predict", &body).expect("predict obs-off");
    assert_eq!(status, 200);
    assert_eq!(
        on_bytes, off_bytes,
        "SQLAN_OBS must not change served bytes"
    );
    let (status, dump) = client.get("/debug/trace").expect("trace obs-off");
    assert_eq!(status, 200);
    let dump: TraceDump = serde_json::from_str(&dump).expect("trace json");
    assert!(!dump.enabled);
    sqlan_obs::set_enabled(true);
}

#[test]
fn tracing_and_prometheus_are_pure_observers() {
    let ds = dataset();
    let classifier = train_classifier(&ds);
    let dir = tmp_dir("bundle");
    save_bundle(
        &dir,
        "obs-e2e",
        2020,
        &[(Problem::ErrorClassification, &classifier)],
    )
    .expect("save bundle");
    let registry = Arc::new(ModelRegistry::open(&dir).expect("open registry"));
    let statements: Vec<String> = ds.statements.iter().take(8).cloned().collect();

    let handle = boot(&registry);
    exercise(&handle, &statements);
    handle.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}
