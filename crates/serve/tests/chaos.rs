//! Seeded chaos, end to end: with scoring panics, stalls, and socket
//! faults injected at fixed probabilities, concurrent retrying clients
//! must see only well-formed responses from the expected status set, no
//! panic may escape the process, the server must be healthy once the
//! plane clears, the response-counter algebra must still add up, and the
//! fault schedule itself must replay: each point's fire count equals the
//! pure `decide` function summed over its observed calls.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sqlan_core::{train_model, Dataset, Labels, ModelKind, Problem, Task, TrainConfig, TrainData};
use sqlan_serve::{
    save_bundle, Client, ModelRegistry, PredictRequest, PredictResponse, ReloadRequest,
    RetryPolicy, ScoringConfig, ServeConfig, ServerHandle,
};
use sqlan_workload::{build_sdss, Scale, SdssConfig};

const CHAOS_SEED: u64 = 0x5eed_cafe;
const CHAOS_SPEC: &str =
    "score.panic=0.05,score.stall=0.01/10,net.read.eagain=0.05,net.write.short=0.05,net.write.reset=0.01";
const CLIENTS: usize = 3;
const REQUESTS_PER_CLIENT: usize = 60;

fn boot(tag: &str) -> (ServerHandle, std::path::PathBuf, Vec<String>) {
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
            scoring: ScoringConfig {
                workers: 2,
                degrade: true,
                ..ScoringConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("start");
    (handle, dir, ds.statements)
}

/// One client's share of the storm. Transport errors (injected resets)
/// reconnect and move on; everything that *does* come back must be a
/// well-formed response from the expected status set.
fn client_storm(
    addr: std::net::SocketAddr,
    tid: usize,
    statements: &[String],
    saw_degraded: &AtomicBool,
) {
    let mut client = Client::connect(addr).expect("connect");
    let policy = RetryPolicy {
        attempts: 4,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(50),
        seed: CHAOS_SEED ^ tid as u64,
    };
    for i in 0..REQUESTS_PER_CLIENT {
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
            let mut batch: Vec<String> = statements.iter().skip(i % 50).take(4).cloned().collect();
            batch.push(format!("SELECT chaos_{tid}_{i} FROM storm WHERE flag"));
            let body = serde_json::to_string(&PredictRequest {
                problem: Problem::ErrorClassification.name().to_string(),
                statements: batch,
            })
            .expect("serialize");
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
                if status == 200 {
                    if let Ok(p) = serde_json::from_str::<PredictResponse>(&body) {
                        if p.degraded {
                            saw_degraded.store(true, Ordering::Relaxed);
                        }
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
fn seeded_chaos_serves_well_formed_responses_in_both_modes() {
    let (handle, dir, statements) = boot("storm");
    let guard = sqlan_fault::install(CHAOS_SEED, CHAOS_SPEC).expect("install chaos plane");

    let saw_degraded = Arc::new(AtomicBool::new(false));
    let statements = Arc::new(statements);
    let mut threads = Vec::new();
    for tid in 0..CLIENTS {
        let addr = handle.addr();
        let statements = Arc::clone(&statements);
        let saw_degraded = Arc::clone(&saw_degraded);
        threads.push(std::thread::spawn(move || {
            client_storm(addr, tid, &statements, &saw_degraded)
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
    drop(guard);

    // The plane is gone: the server must be healthy, not limping.
    let mut client = Client::connect(handle.addr()).expect("reconnect");
    let (status, _) = client.get("/healthz").expect("healthz");
    assert_eq!(status, 200, "unhealthy after chaos cleared");

    let (status, body) = client.get("/metrics").expect("metrics");
    assert_eq!(status, 200);
    let m: sqlan_serve::MetricsSnapshot = serde_json::from_str(&body).expect("metrics json");
    // Counter algebra at quiescence: every request got exactly one
    // response class, panics included.
    assert_eq!(
        m.http_requests,
        m.responses_2xx + m.responses_4xx + m.responses_5xx,
        "response classes must partition requests"
    );
    if panic_fires > 0 {
        assert!(
            m.worker_panics >= panic_fires,
            "{panic_fires} injected panics but only {} caught",
            m.worker_panics
        );
        assert!(
            saw_degraded.load(Ordering::Relaxed) || m.degraded_responses > 0,
            "panics fired but nothing degraded — who answered those requests?"
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
    let _ = std::fs::remove_dir_all(&dir);
}
