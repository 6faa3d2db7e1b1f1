//! The performance half of observability's pure-observer contract:
//! warm-cache `/predict` throughput with `sqlan-obs` on stays within 3%
//! of off.
//!
//! A timing A/B, so it is ignored in the default suite. CI's `obs-overhead`
//! job runs it:
//!
//!     cargo test --release -p sqlan-serve --test obs_overhead -- --ignored
//!
//! The settings are the ones the 3% budget was set with: the `SQLAN_FAST`
//! harness corpus (SDSS + SQLShare), a wtfidf error classifier plus a
//! ctfidf answer-size regressor, 8 HTTP workers, one warm-up round, then
//! three interleaved rounds per arm of 2 clients × 200 requests × 8
//! statements, best round per arm. `sqlan_obs::set_enabled` is
//! process-global, so this binary holds one test.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use sqlan_core::{
    train_model, Dataset, Labels, ModelKind, Problem, Task, TrainConfig, TrainData, TrainedModel,
};
use sqlan_serve::{
    save_bundle, Client, ModelRegistry, PredictRequest, PredictResponse, ServeConfig,
};
use sqlan_workload::{build_sdss, build_sqlshare, Scale, SdssConfig, SqlShareConfig};

/// The harness's master seed. The corpus and training sizes below are
/// its `SQLAN_FAST` ones.
const SEED: u64 = 0x5D55;
const CLIENTS: usize = 2;
const REQUESTS: usize = 200;
const BATCH: usize = 8;
const ROUNDS: usize = 3;
const BUDGET: f64 = 0.03;

/// Train `kind` on the first four fifths of `ds`, validating on the rest.
fn train(ds: &Dataset, kind: ModelKind) -> TrainedModel {
    let cut = ds.len() * 4 / 5;
    let (task, labels, valid_labels) = if ds.problem.is_classification() {
        (
            Task::Classify(ds.problem.n_classes()),
            Labels::Classes(&ds.class_labels[..cut]),
            Labels::Classes(&ds.class_labels[cut..]),
        )
    } else {
        (
            Task::Regress,
            Labels::Values(&ds.log_labels[..cut]),
            Labels::Values(&ds.log_labels[cut..]),
        )
    };
    let cfg = TrainConfig {
        epochs: 1,
        seed: SEED ^ 0x7EA1,
        ..TrainConfig::default()
    };
    let data = TrainData {
        statements: &ds.statements[..cut],
        labels,
        valid_statements: &ds.statements[cut..],
        valid_labels,
    };
    train_model(kind, task, &data, &cfg, None)
}

/// One closed-loop client: `REQUESTS` predictions back to back on one
/// keep-alive connection, alternating problems, walking the corpus from
/// `offset`.
fn run_client(addr: SocketAddr, corpus: &[String], offset: usize) {
    let mut client = Client::connect(addr).expect("connect");
    for r in 0..REQUESTS {
        let start = offset + r * BATCH;
        let statements = (start..start + BATCH)
            .map(|i| corpus[i % corpus.len()].clone())
            .collect();
        let problem = [Problem::ErrorClassification, Problem::AnswerSize][r % 2];
        let body = serde_json::to_string(&PredictRequest {
            problem: problem.name().to_string(),
            statements,
        })
        .expect("request serializes");
        let (status, response) = client.post("/predict", &body).expect("predict");
        assert_eq!(status, 200, "predict failed: {response}");
        let parsed: PredictResponse = serde_json::from_str(&response).expect("predict json");
        assert_eq!(parsed.predictions.len(), BATCH);
    }
}

/// One round of `CLIENTS` concurrent clients; scored statements/s.
fn round(addr: SocketAddr, corpus: &[String]) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            s.spawn(move || run_client(addr, corpus, c * 37));
        }
    });
    (CLIENTS * REQUESTS * BATCH) as f64 / start.elapsed().as_secs_f64()
}

#[test]
#[ignore = "timing A/B; run with --ignored on an otherwise idle machine"]
fn obs_on_throughput_within_three_percent_of_off() {
    let sdss = build_sdss(SdssConfig {
        n_sessions: 350,
        scale: Scale(0.03),
        seed: SEED,
    });
    let sqlshare = build_sqlshare(SqlShareConfig {
        n_queries: 250,
        n_users: 20,
        scale: Scale(0.06),
        seed: SEED ^ 0x5A5E,
    });
    let corpus: Vec<String> = sdss
        .entries
        .iter()
        .chain(&sqlshare.entries)
        .map(|e| e.statement.clone())
        .collect();

    let classifier = train(
        &Dataset::build(&sdss, Problem::ErrorClassification),
        ModelKind::WTfidf,
    );
    let regressor = train(
        &Dataset::build(&sdss, Problem::AnswerSize),
        ModelKind::CTfidf,
    );
    let dir = std::env::temp_dir().join(format!("sqlan-obs-overhead-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    save_bundle(
        &dir,
        "obs-overhead",
        SEED,
        &[
            (Problem::ErrorClassification, &classifier),
            (Problem::AnswerSize, &regressor),
        ],
    )
    .expect("save bundle");
    let registry = Arc::new(ModelRegistry::open(&dir).expect("open bundle"));
    let handle = sqlan_serve::start(
        registry,
        ServeConfig {
            http_workers: 8,
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let addr = handle.addr();

    // Warm-up: every statement of the walk is cache-resident before
    // either arm is timed. Arms interleave so they share machine state.
    round(addr, &corpus);
    let (mut on, mut off) = (0.0f64, 0.0f64);
    for _ in 0..ROUNDS {
        sqlan_obs::set_enabled(false);
        off = off.max(round(addr, &corpus));
        sqlan_obs::set_enabled(true);
        on = on.max(round(addr, &corpus));
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let overhead = (off - on) / off;
    eprintln!(
        "obs on {on:.0} stmts/s, off {off:.0} stmts/s, overhead {:+.2}%",
        overhead * 100.0
    );
    assert!(
        overhead < BUDGET,
        "observability costs {:.2}% of warm-cache throughput, over the {:.0}% budget \
         (on {on:.0} stmts/s, off {off:.0} stmts/s)",
        overhead * 100.0,
        BUDGET * 100.0
    );
}
