//! Seeded chaos, end to end, on the scoring configuration that ships
//! (`ScoringConfig::default()`): with scoring panics, stalls, and socket
//! faults injected at fixed probabilities, concurrent retrying clients
//! must see only well-formed responses from the expected status set —
//! every 200 byte-equal to the model's in-process answer, every 500 the
//! typed `scoring failed internally` error — no panic may escape the
//! process, the model must answer again once the plane clears, the
//! counter algebra must still add up, and the fault schedule itself must
//! replay: each point's fire count equals the pure `decide` function
//! summed over its observed calls. A second test pins the answer to one
//! panicked batch on its own.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqlan_core::{
    train_model, Dataset, Labels, ModelKind, Problem, Task, TrainConfig, TrainData, TrainedModel,
};
use sqlan_serve::{
    normalize_statement, save_bundle, Client, MetricsSnapshot, ModelRegistry, PredictRequest,
    PredictResponse, Prediction, ReloadRequest, RetryPolicy, ScoringConfig, ServeConfig,
    ServerHandle,
};
use sqlan_workload::{build_sdss, Scale, SdssConfig};

const CHAOS_SEED: u64 = 0x5eed_cafe;
const CHAOS_SPEC: &str =
    "score.panic=0.05,score.stall=0.01/10,net.read.eagain=0.05,net.write.short=0.05,net.write.reset=0.01";
const CLIENTS: usize = 3;
const REQUESTS_PER_CLIENT: usize = 60;
/// The body of a `/predict` whose batch panicked.
const PANIC_BODY: &str = r#"{"error":"scoring failed internally"}"#;

fn boot(tag: &str) -> (ServerHandle, std::path::PathBuf, Vec<String>, TrainedModel) {
    let w = build_sdss(SdssConfig {
        n_sessions: 40,
        scale: Scale(0.02),
        seed: 7,
    });
    let ds = Dataset::build(&w, Problem::ErrorClassification);
    let cut = ds.len() * 4 / 5;
    let model = train_model(
        ModelKind::MFreq,
        Task::Classify(Problem::ErrorClassification.n_classes()),
        &TrainData {
            statements: &ds.statements[..cut],
            labels: Labels::Classes(&ds.class_labels[..cut]),
            valid_statements: &ds.statements[cut..],
            valid_labels: Labels::Classes(&ds.class_labels[cut..]),
        },
        &TrainConfig {
            epochs: 1,
            ..TrainConfig::tiny()
        },
        None,
    );
    let dir = std::env::temp_dir().join(format!("sqlan-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    save_bundle(&dir, "chaos", 7, &[(Problem::ErrorClassification, &model)]).expect("save");
    let registry = Arc::new(ModelRegistry::open(&dir).expect("open"));
    let handle = sqlan_serve::start(
        registry,
        ServeConfig {
            http_workers: 2,
            idle_timeout: Duration::from_secs(2),
            scoring: ScoringConfig::default(),
            ..ServeConfig::default()
        },
    )
    .expect("start");
    (handle, dir, ds.statements, model)
}

fn predict_body(statements: Vec<String>) -> String {
    serde_json::to_string(&PredictRequest {
        problem: Problem::ErrorClassification.name().to_string(),
        statements,
    })
    .expect("serialize")
}

/// The bytes a 200 `/predict` must carry: the model's in-process
/// prediction of the normalized statements, under the opening
/// generation (every reload in these tests fails).
fn model_answer(model: &TrainedModel, statements: &[String]) -> String {
    let normalized: Vec<String> = statements.iter().map(|s| normalize_statement(s)).collect();
    let classes = model.predict_class_batch(&normalized);
    let probas = model.predict_proba_batch(&normalized);
    serde_json::to_string(&PredictResponse {
        generation: 1,
        degraded: false,
        predictions: classes
            .into_iter()
            .zip(probas)
            .map(|(class, proba)| Prediction {
                class: Some(class),
                proba: Some(proba),
                value: None,
            })
            .collect(),
    })
    .expect("serialize")
}

fn metrics(client: &mut Client) -> MetricsSnapshot {
    let (status, body) = client.get("/metrics").expect("metrics");
    assert_eq!(status, 200);
    serde_json::from_str(&body).expect("metrics json")
}

/// One client's share of the storm. Transport errors (injected resets)
/// reconnect and move on; everything that *does* come back must be a
/// well-formed response from the expected status set, and a `/predict`
/// answers with the model's bytes (200) or the typed panic error (500).
fn client_storm(
    addr: std::net::SocketAddr,
    tid: usize,
    statements: &[String],
    model: &TrainedModel,
    saw_500: &AtomicBool,
) {
    let mut client = Client::connect(addr).expect("connect");
    let policy = RetryPolicy {
        attempts: 4,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(50),
        seed: CHAOS_SEED ^ tid as u64,
    };
    for i in 0..REQUESTS_PER_CLIENT {
        let mut batch = Vec::new();
        let outcome = if i % 7 == 3 {
            client.request_with_retry("GET", "/healthz", "", &[], &policy)
        } else if i % 7 == 5 {
            client.request_with_retry("GET", "/metrics", "", &[], &policy)
        } else if i % 11 == 4 && tid == 0 {
            // Breaker fodder: reloads from a directory that does not
            // exist. 400 while the breaker counts, 503 once it opens.
            let body = serde_json::to_string(&ReloadRequest {
                dir: "/nonexistent/sqlan-chaos-bundle".to_string(),
            })
            .expect("serialize");
            client.request_with("POST", "/reload", &body, &[])
        } else {
            // Fresh identifiers defeat the prediction cache so scoring
            // (and its injected panics) actually runs.
            batch = statements.iter().skip(i % 50).take(4).cloned().collect();
            batch.push(format!("SELECT chaos_{tid}_{i} FROM storm WHERE flag"));
            let body = predict_body(batch.clone());
            if i % 13 == 6 {
                // An already-expired deadline must shed with 504 before
                // the model runs. No retry: 504 is the expected answer.
                client.request_with("POST", "/predict", &body, &[("x-sqlan-deadline-ms", "0")])
            } else {
                client.request_with_retry("POST", "/predict", &body, &[], &policy)
            }
        };
        match outcome {
            Ok((status, body)) => {
                assert!(
                    matches!(status, 200 | 400 | 500 | 503 | 504),
                    "client {tid} req {i}: unexpected status {status}: {body}"
                );
                let _: serde_json::Value = serde_json::from_str(&body).unwrap_or_else(|e| {
                    panic!("client {tid} req {i}: malformed body ({e}): {body:?}")
                });
                if !batch.is_empty() {
                    match status {
                        200 => assert_eq!(
                            body,
                            model_answer(model, &batch),
                            "client {tid} req {i}: a 200 must be the model's answer"
                        ),
                        500 => {
                            assert_eq!(body, PANIC_BODY, "client {tid} req {i}");
                            saw_500.store(true, Ordering::Relaxed);
                        }
                        _ => {}
                    }
                }
                if i % 13 == 6 && i % 7 != 3 && i % 7 != 5 && !(i % 11 == 4 && tid == 0) {
                    assert_eq!(
                        status, 504,
                        "client {tid} req {i}: expired deadline must shed with 504"
                    );
                }
            }
            Err(_) => {
                // Injected reset mid-response (or every retry ate one).
                // The connection is trash; a fresh dial must work.
                let _ = client.reconnect();
            }
        }
    }
}

#[test]
fn seeded_chaos_serves_well_formed_responses() {
    let (handle, dir, statements, model) = boot("storm");
    let guard = sqlan_fault::install(CHAOS_SEED, CHAOS_SPEC).expect("install chaos plane");

    let saw_500 = Arc::new(AtomicBool::new(false));
    let statements = Arc::new(statements);
    let model = Arc::new(model);
    let mut threads = Vec::new();
    for tid in 0..CLIENTS {
        let addr = handle.addr();
        let statements = Arc::clone(&statements);
        let model = Arc::clone(&model);
        let saw_500 = Arc::clone(&saw_500);
        threads.push(std::thread::spawn(move || {
            client_storm(addr, tid, &statements, &model, &saw_500)
        }));
    }
    for t in threads {
        t.join().expect("no client panicked");
    }

    // Schedule audit, read while the plane is still installed: each
    // point's fire count must equal the pure decision function
    // summed over its observed calls — the "same seed, same
    // schedule" contract, checked against what actually ran.
    let stats = sqlan_fault::stats();
    assert!(!stats.is_empty(), "fault plane vanished mid-test");
    let mut panic_fires = 0u64;
    for p in &stats {
        let replayed: u64 = (0..p.calls)
            .filter(|&n| sqlan_fault::decide(CHAOS_SEED, &p.rule.point, n, p.rule.trigger))
            .count() as u64;
        assert_eq!(
            p.fires, replayed,
            "{}: {} fires recorded, {} replayed over {} calls",
            p.rule.point, p.fires, replayed, p.calls
        );
        if p.rule.point == "score.panic" {
            panic_fires = p.fires;
        }
    }
    assert!(
        stats
            .iter()
            .any(|p| p.rule.point == "score.panic" && p.calls > 0),
        "the storm never reached the scoring path"
    );
    // Clear the plane but keep the guard: the other test in this binary
    // installs its own plane and must not see this server's probes.
    sqlan_fault::clear();

    // The plane is gone: the server must be healthy, not limping.
    let mut client = Client::connect(handle.addr()).expect("reconnect");
    let (status, _) = client.get("/healthz").expect("healthz");
    assert_eq!(status, 200, "unhealthy after chaos cleared");

    // Recovery: within a bounded wait, a fresh (uncached) statement is
    // answered 200 with the model's bytes.
    let deadline = Instant::now() + Duration::from_secs(10);
    for probe in 0.. {
        let batch = vec![format!("SELECT recovery_{probe} FROM chaos_probe")];
        let (status, body) = client
            .post("/predict", &predict_body(batch.clone()))
            .expect("recovery probe");
        if status == 200 {
            assert_eq!(body, model_answer(&model, &batch), "recovery probe {probe}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "still no model answer after {probe} probes: {status} {body}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let m = metrics(&mut client);
    // Counter algebra at quiescence: every request got exactly one
    // response class, panics included, and the statement total is the
    // sum of its per-problem split.
    assert_eq!(
        m.http_requests,
        m.responses_2xx + m.responses_4xx + m.responses_5xx,
        "response classes must partition requests"
    );
    assert_eq!(
        m.statements,
        m.statements_by_problem.iter().sum::<u64>(),
        "statement total must equal the per-problem sum"
    );
    if panic_fires > 0 {
        assert!(
            m.worker_panics >= panic_fires,
            "{panic_fires} injected panics but only {} caught",
            m.worker_panics
        );
        assert!(
            saw_500.load(Ordering::Relaxed),
            "{panic_fires} panics fired but no request answered 500"
        );
    }
    assert!(
        m.deadline_expired > 0,
        "the zero-deadline requests never shed"
    );
    assert!(
        m.breaker_opens >= 1,
        "repeated reload failures never opened the breaker"
    );

    handle.shutdown();
    drop(guard);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The shipped answer to a panicked batch: a typed 500, after which the
/// same statements are scored by the model — the panic neither kills a
/// worker nor leaves anything in the cache.
#[test]
fn panicked_batch_answers_500_then_the_model_answers() {
    let (handle, dir, _, model) = boot("panic");
    let _faults = sqlan_fault::install(CHAOS_SEED, "score.panic=@0").expect("install plane");
    let batch = vec![
        "SELECT panic_probe FROM storm WHERE flag".to_string(),
        "SELECT objid FROM panic_probe WHERE ra > 180".to_string(),
    ];
    let body = predict_body(batch.clone());
    let mut client = Client::connect(handle.addr()).expect("connect");

    let (status, got) = client.post("/predict", &body).expect("first predict");
    assert_eq!((status, got.as_str()), (500, PANIC_BODY));

    let (status, got) = client.post("/predict", &body).expect("second predict");
    assert_eq!(status, 200, "{got}");
    assert_eq!(got, model_answer(&model, &batch));

    let m = metrics(&mut client);
    assert_eq!(m.worker_panics, 1);
    assert_eq!(m.worker_respawns, 0);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
