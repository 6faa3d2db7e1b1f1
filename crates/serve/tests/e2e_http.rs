//! End-to-end: train on a small fixed-seed workload, save a bundle, boot
//! the server on an ephemeral port, and assert over HTTP that
//! batched/cached predictions are byte-identical to in-process
//! `predict_*` calls — including after a hot-swap reload — plus the
//! operational surface (healthz, metrics, shedding, error paths).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use sqlan_core::{
    train_model, Dataset, Labels, ModelKind, Problem, Task, TrainConfig, TrainData, TrainedModel,
};
use sqlan_serve::{
    save_bundle, Client, ModelRegistry, PredictRequest, PredictResponse, ScoringConfig, ServeConfig,
};
use sqlan_workload::{build_sdss, Scale, SdssConfig};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqlan-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

/// Small fixed-seed workload shared by both bundles.
fn datasets() -> (Dataset, Dataset) {
    let w = build_sdss(SdssConfig {
        n_sessions: 120,
        scale: Scale(0.02),
        seed: 2020,
    });
    (
        Dataset::build(&w, Problem::ErrorClassification),
        Dataset::build(&w, Problem::AnswerSize),
    )
}

fn train_classifier(kind: ModelKind, ds: &Dataset, cfg: &TrainConfig) -> TrainedModel {
    let n = ds.len();
    let cut = n * 4 / 5;
    train_model(
        kind,
        Task::Classify(Problem::ErrorClassification.n_classes()),
        &TrainData {
            statements: &ds.statements[..cut],
            labels: Labels::Classes(&ds.class_labels[..cut]),
            valid_statements: &ds.statements[cut..],
            valid_labels: Labels::Classes(&ds.class_labels[cut..]),
        },
        cfg,
        None,
    )
}

fn train_regressor(kind: ModelKind, ds: &Dataset, cfg: &TrainConfig) -> TrainedModel {
    let n = ds.len();
    let cut = n * 4 / 5;
    train_model(
        kind,
        Task::Regress,
        &TrainData {
            statements: &ds.statements[..cut],
            labels: Labels::Values(&ds.log_labels[..cut]),
            valid_statements: &ds.statements[cut..],
            valid_labels: Labels::Values(&ds.log_labels[cut..]),
        },
        cfg,
        None,
    )
}

fn predict_body(problem: Problem, statements: &[String]) -> String {
    serde_json::to_string(&PredictRequest {
        problem: problem.name().to_string(),
        statements: statements.to_vec(),
    })
    .expect("request serializes")
}

fn assert_matches_in_process(
    response: &PredictResponse,
    classifier: &TrainedModel,
    statements: &[String],
) {
    assert_eq!(response.predictions.len(), statements.len());
    let expect_classes = classifier.predict_class_batch(statements);
    let expect_probas = classifier.predict_proba_batch(statements);
    for (i, p) in response.predictions.iter().enumerate() {
        assert_eq!(p.class, Some(expect_classes[i]), "statement {i}");
        let got = p.proba.as_ref().expect("classifier returns proba");
        assert_eq!(
            got.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            expect_probas[i]
                .iter()
                .map(|f| f.to_bits())
                .collect::<Vec<_>>(),
            "proba bits for statement {i}"
        );
        assert_eq!(p.value, None);
    }
}

#[test]
fn http_predictions_match_in_process_including_hot_swap() {
    let (cls_ds, reg_ds) = datasets();
    let cfg = TrainConfig {
        epochs: 1,
        ..TrainConfig::tiny()
    };
    // Bundle A: learned classifier + median regressor. Bundle B swaps in
    // a different model family so post-reload predictions must change.
    let classifier_a = train_classifier(ModelKind::WTfidf, &cls_ds, &cfg);
    let regressor_a = train_regressor(ModelKind::Median, &reg_ds, &cfg);
    let classifier_b = train_classifier(ModelKind::MFreq, &cls_ds, &cfg);
    let regressor_b = train_regressor(ModelKind::CTfidf, &reg_ds, &cfg);

    let dir_a = tmp_dir("bundle-a");
    let dir_b = tmp_dir("bundle-b");
    save_bundle(
        &dir_a,
        "sdss-a",
        2020,
        &[
            (Problem::ErrorClassification, &classifier_a),
            (Problem::AnswerSize, &regressor_a),
        ],
    )
    .expect("save bundle a");
    save_bundle(
        &dir_b,
        "sdss-b",
        2020,
        &[
            (Problem::ErrorClassification, &classifier_b),
            (Problem::AnswerSize, &regressor_b),
        ],
    )
    .expect("save bundle b");

    let registry = Arc::new(ModelRegistry::open(&dir_a).expect("open registry"));
    let handle = sqlan_serve::start(
        Arc::clone(&registry),
        ServeConfig {
            http_workers: 2,
            scoring: ScoringConfig {
                workers: 2,
                max_batch: 16,
                max_wait: Duration::from_millis(1),
                ..ScoringConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Health reflects bundle A.
    let (status, body) = client.get("/healthz").expect("healthz");
    assert_eq!(status, 200, "{body}");
    let health: sqlan_serve::HealthResponse = serde_json::from_str(&body).expect("health json");
    assert_eq!(health.generation, 1);
    assert_eq!(health.bundle, "sdss-a");
    assert!(health
        .problems
        .contains(&"error_classification".to_string()));

    // Batched classification over HTTP == in-process, bit for bit.
    let test_statements: Vec<String> = cls_ds.statements.iter().take(48).cloned().collect();
    let body_a = predict_body(Problem::ErrorClassification, &test_statements);
    let (status, first) = client.post("/predict", &body_a).expect("predict");
    assert_eq!(status, 200, "{first}");
    let response: PredictResponse = serde_json::from_str(&first).expect("predict json");
    assert_eq!(response.generation, 1);
    assert_matches_in_process(&response, &classifier_a, &test_statements);

    // Regression too (f64 bit equality).
    let reg_statements: Vec<String> = reg_ds.statements.iter().take(16).cloned().collect();
    let (status, body) = client
        .post(
            "/predict",
            &predict_body(Problem::AnswerSize, &reg_statements),
        )
        .expect("predict reg");
    assert_eq!(status, 200, "{body}");
    let reg_response: PredictResponse = serde_json::from_str(&body).expect("reg json");
    let expect = regressor_a.predict_value_batch(&reg_statements);
    for (i, p) in reg_response.predictions.iter().enumerate() {
        assert_eq!(p.value.expect("value").to_bits(), expect[i].to_bits());
        assert_eq!(p.class, None);
    }

    // The identical request again is served from the cache — same bytes.
    let (status, second) = client.post("/predict", &body_a).expect("cached predict");
    assert_eq!(status, 200);
    assert_eq!(first, second, "cached response must be byte-identical");
    let (_, metrics_body) = client.get("/metrics").expect("metrics");
    let metrics: sqlan_serve::MetricsSnapshot =
        serde_json::from_str(&metrics_body).expect("metrics json");
    assert!(
        metrics.cache_hits >= test_statements.len() as u64,
        "expected cache hits, got {}",
        metrics.cache_hits
    );
    assert!(metrics.predict_requests >= 3);
    assert!(metrics.batches >= 1);

    // Hot swap to bundle B over HTTP; readers see generation 2 and the
    // new model's (different) predictions, again bit-identical.
    let (status, body) = client
        .post(
            "/reload",
            &format!("{{\"dir\": {:?}}}", dir_b.display().to_string()),
        )
        .expect("reload");
    assert_eq!(status, 200, "{body}");
    let (status, body) = client
        .post("/predict", &body_a)
        .expect("predict after swap");
    assert_eq!(status, 200, "{body}");
    let response_b: PredictResponse = serde_json::from_str(&body).expect("swap json");
    assert_eq!(response_b.generation, 2);
    assert_matches_in_process(&response_b, &classifier_b, &test_statements);
    // mfreq predicts one constant class everywhere, wtfidf does not (it
    // must separate at least one statement) — so the swap is observable.
    assert_ne!(
        response.predictions, response_b.predictions,
        "hot swap must change predictions"
    );

    // Unknown problem and malformed JSON are client errors, not crashes.
    let (status, _) = client
        .post("/predict", "{\"problem\": \"nope\", \"statements\": []}")
        .expect("bad problem");
    assert_eq!(status, 400);
    let (status, _) = client.post("/predict", "{not json").expect("bad json");
    assert_eq!(status, 400);
    let (status, _) = client.get("/no-such-route").expect("404");
    assert_eq!(status, 404);

    drop(client);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// The wire contract, pinned: for every request shape — happy path,
/// routing errors, and each hardened parse error — one connection, one
/// request, and the complete response (status line, headers, body) must
/// be exactly these bytes.
#[test]
fn front_end_serves_pinned_status_lines_and_bodies() {
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};

    let (cls_ds, _) = datasets();
    let cfg = TrainConfig {
        epochs: 1,
        ..TrainConfig::tiny()
    };
    let classifier = train_classifier(ModelKind::WTfidf, &cls_ds, &cfg);
    let dir = tmp_dir("wire-pin");
    save_bundle(
        &dir,
        "wire-pin",
        2020,
        &[(Problem::ErrorClassification, &classifier)],
    )
    .expect("save");
    let registry = Arc::new(ModelRegistry::open(&dir).expect("open"));
    let handle = sqlan_serve::start(
        registry,
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
    .expect("start server");

    /// One connection, one request, read to EOF (every probe either sends
    /// `Connection: close` or triggers an error that closes). Returns the
    /// status line and the body, after asserting the exact header block.
    fn exchange(addr: SocketAddr, raw: &[u8]) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream.write_all(raw).expect("write");
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("read");
        let text = String::from_utf8(response).expect("utf8 response");
        let (head, body) = text.split_once("\r\n\r\n").expect("head terminator");
        let (status_line, headers) = head.split_once("\r\n").expect("status line");
        assert_eq!(
            headers,
            format!(
                "content-type: application/json\r\ncontent-length: {}\r\nconnection: close",
                body.len()
            ),
            "headers for `{status_line}`"
        );
        (status_line.to_string(), body.to_string())
    }

    let predict_statements = &cls_ds.statements[..8];
    let predict = predict_body(Problem::ErrorClassification, predict_statements);
    let oversized_head = {
        let mut raw = b"GET / HTTP/1.1\r\nx-filler: ".to_vec();
        raw.resize(20 * 1024, b'a'); // > MAX_HEAD_BYTES in one write
        raw
    };
    let addr = handle.addr();

    let (status, body) = exchange(
        addr,
        format!(
            "POST /predict HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{}",
            predict.len(),
            predict
        )
        .as_bytes(),
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    let response: PredictResponse = serde_json::from_str(&body).expect("predict json");
    assert_matches_in_process(&response, &classifier, predict_statements);

    let (status, body) = exchange(
        addr,
        b"POST /predict HTTP/1.1\r\ncontent-length: 9\r\nconnection: close\r\n\r\n{not json",
    );
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(
        body.starts_with(r#"{"error":"bad predict request: "#) && body.ends_with(r#""}"#),
        "bad json body: {body}"
    );

    let error_probes: [(&str, &[u8], &str, &str); 6] = [
        (
            "unknown route",
            b"GET /no-such-route HTTP/1.1\r\nconnection: close\r\n\r\n",
            "HTTP/1.1 404 Not Found",
            "no such route",
        ),
        (
            "wrong method",
            b"DELETE /predict HTTP/1.1\r\nconnection: close\r\n\r\n",
            "HTTP/1.1 405 Method Not Allowed",
            "method not allowed",
        ),
        (
            "signed Content-Length",
            b"POST /predict HTTP/1.1\r\ncontent-length: +4\r\n\r\nabcd",
            "HTTP/1.1 400 Bad Request",
            "malformed request: bad content-length",
        ),
        (
            "conflicting Content-Length",
            b"POST /predict HTTP/1.1\r\ncontent-length: 4\r\ncontent-length: 5\r\n\r\nabcd",
            "HTTP/1.1 400 Bad Request",
            "malformed request: conflicting content-length headers",
        ),
        (
            "non-UTF-8 head",
            b"GET /\xff\xfe HTTP/1.1\r\n\r\n",
            "HTTP/1.1 400 Bad Request",
            "malformed request: request line is not valid UTF-8",
        ),
        (
            "oversized head",
            &oversized_head,
            "HTTP/1.1 431 Request Header Fields Too Large",
            "request head too large",
        ),
    ];
    for (name, raw, want_status, want_error) in error_probes {
        let (status, body) = exchange(addr, raw);
        assert_eq!(status, want_status, "probe `{name}`");
        assert_eq!(
            body,
            format!(r#"{{"error":"{want_error}"}}"#),
            "probe `{name}`"
        );
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn saturation_sheds_with_503() {
    let (cls_ds, _) = datasets();
    let cfg = TrainConfig {
        epochs: 1,
        ..TrainConfig::tiny()
    };
    let classifier = train_classifier(ModelKind::MFreq, &cls_ds, &cfg);
    let dir = tmp_dir("shed");
    save_bundle(
        &dir,
        "shed",
        1,
        &[(Problem::ErrorClassification, &classifier)],
    )
    .expect("save");
    let registry = Arc::new(ModelRegistry::open(&dir).expect("open"));
    // queue_capacity 0: every cache miss overflows the queue — the
    // deterministic way to exercise the shedding path end to end.
    let handle = sqlan_serve::start(
        registry,
        ServeConfig {
            http_workers: 1,
            scoring: ScoringConfig {
                workers: 1,
                queue_capacity: 0,
                cache_capacity: 0,
                ..ScoringConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("start");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let (status, body) = client
        .post(
            "/predict",
            &predict_body(Problem::ErrorClassification, &["SELECT 1".to_string()]),
        )
        .expect("shed request");
    assert_eq!(status, 503, "{body}");
    let (_, metrics_body) = client.get("/metrics").expect("metrics");
    let metrics: sqlan_serve::MetricsSnapshot =
        serde_json::from_str(&metrics_body).expect("metrics json");
    assert_eq!(metrics.shed, 1);
    drop(client);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
