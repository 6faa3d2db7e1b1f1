//! Closed-loop load generator for the online prediction service.
//!
//! Trains a small fixed-seed bundle (error classifier + answer-size
//! regressor), saves it, boots `sqlan-serve` on an ephemeral port, and
//! replays the SDSS + SQLShare statement corpus over keep-alive HTTP at
//! 1/2/4/8 closed-loop client threads. Writes `BENCH_serve.json` with
//! per-level throughput, p50/p95/p99 request latency, and the server's
//! cache hit rate.
//!
//! Knobs:
//!
//! | env var                  | default | meaning                         |
//! |--------------------------|---------|---------------------------------|
//! | `SQLAN_BENCH_REQUESTS`   | 200     | requests per client thread      |
//! | `SQLAN_BENCH_BATCH`      | 8       | statements per request          |
//! | `SQLAN_BENCH_CLIENTS`    | 1,2,4,8 | client-thread levels (csv)      |
//! | `SQLAN_BENCH_C10K`       | 10000   | idle keep-alive conns to hold   |
//! | `SQLAN_BENCH_OUT`        | BENCH_serve.json | output path            |
//!
//! The harness sizing knobs (`SQLAN_SESSIONS`, `SQLAN_FAST`, …) shrink
//! the training corpus the same way they do for every other binary.
//!
//! ## The c10k section
//!
//! After the closed-loop levels, the bench holds `SQLAN_BENCH_C10K` idle
//! keep-alive connections open against the server *at once* — a load a
//! thread-per-connection server could never carry — then measures
//! predict throughput and sampled keep-alive liveness while they are
//! held. One process cannot own both sides of 10k sockets within the fd
//! limit, so the bench re-execs itself into child processes (marked by
//! `SQLAN_C10K_CHILD`) that each hold a slice of the connections and
//! answer probe commands over stdin/stdout.

use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;
use sqlan_bench::Harness;
use sqlan_core::{train_model, Dataset, Labels, ModelKind, Problem, Task, TrainData, TrainedModel};
use sqlan_metrics::LatencySummary;
use sqlan_serve::{
    save_bundle, Client, MetricsSnapshot, ModelRegistry, PredictRequest, PredictResponse,
    ScoringConfig, ServeConfig,
};

#[derive(Debug, Serialize)]
struct LevelStats {
    clients: usize,
    requests: usize,
    statements: usize,
    seconds: f64,
    /// Scored statements per second across all clients.
    stmts_per_sec: f64,
    /// Predict requests per second across all clients.
    requests_per_sec: f64,
    latency: LatencySummary,
    /// Server-side cumulative cache hit rate after this level.
    cache_hit_rate: f64,
}

#[derive(Debug, Serialize)]
struct C10kStats {
    /// Connections asked for (after clamping to the fd budget).
    target: usize,
    /// Connections the child processes actually established and held.
    held: usize,
    /// The server's own open-connection count while the hold was live.
    server_connections: u64,
    /// Sampled held connections that still answered a keep-alive
    /// request after the hold + load phase.
    probe_alive: usize,
    probe_sampled: usize,
    /// Predict throughput while all `held` connections stayed open.
    stmts_per_sec_under_hold: f64,
    p99_s_under_hold: f64,
    /// `RLIMIT_NOFILE` soft limit after raising it — the fd budget that
    /// clamped `target`.
    nofile_soft: u64,
}

/// Warm-cache throughput with observability on vs off (`SQLAN_OBS`).
/// The serving layer's contract is that metrics and tracing are pure
/// observers; this block pins the performance half of that contract.
#[derive(Debug, Serialize)]
struct ObsAbStats {
    rounds: usize,
    requests_per_round: usize,
    statements_per_round: usize,
    /// Best round, scored statements per second.
    obs_on_stmts_per_sec: f64,
    obs_off_stmts_per_sec: f64,
    /// `(off - on) / off` — positive when observability costs throughput.
    overhead_frac: f64,
}

/// Throughput under an installed fault plane (injected scoring panics
/// and stalls, degradation on) and how fast the service returns to
/// non-degraded answers once the plane clears.
#[derive(Debug, Serialize)]
struct ChaosStats {
    /// The installed `SQLAN_FAULTS`-grammar spec.
    spec: String,
    seed: u64,
    /// Same closed-loop round as the levels, faults off (warm cache).
    baseline_stmts_per_sec: f64,
    /// The same round with the fault plane installed.
    degraded_stmts_per_sec: f64,
    /// `(baseline - degraded) / baseline`.
    degradation_frac: f64,
    /// Server counters accumulated during the chaos round.
    degraded_responses: u64,
    worker_panics: u64,
    /// Time from clearing the plane to the first non-degraded 200.
    recovery_ms: f64,
}

#[derive(Debug, Serialize)]
struct BenchServe {
    machine: sqlan_bench::MachineInfo,
    corpus_statements: usize,
    requests_per_client: usize,
    statements_per_request: usize,
    levels: Vec<LevelStats>,
    obs_ab: ObsAbStats,
    c10k: C10kStats,
    chaos: ChaosStats,
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn train_bundle(harness: &Harness) -> (std::path::PathBuf, usize, Vec<String>) {
    eprintln!("[bench_serve] building SDSS + SQLShare corpus…");
    let sdss = harness.sdss_workload();
    let sqlshare = harness.sqlshare_workload();
    let mut corpus: Vec<String> = sdss.entries.iter().map(|e| e.statement.clone()).collect();
    corpus.extend(sqlshare.entries.iter().map(|e| e.statement.clone()));

    eprintln!("[bench_serve] training bundle (wtfidf classifier + ctfidf regressor)…");
    let cls = Dataset::build(&sdss, Problem::ErrorClassification);
    let reg = Dataset::build(&sdss, Problem::AnswerSize);
    let cfg = harness.train_config();
    let cut = |n: usize| n * 4 / 5;
    let classifier: TrainedModel = train_model(
        ModelKind::WTfidf,
        Task::Classify(Problem::ErrorClassification.n_classes()),
        &TrainData {
            statements: &cls.statements[..cut(cls.len())],
            labels: Labels::Classes(&cls.class_labels[..cut(cls.len())]),
            valid_statements: &cls.statements[cut(cls.len())..],
            valid_labels: Labels::Classes(&cls.class_labels[cut(cls.len())..]),
        },
        &cfg,
        None,
    );
    let regressor: TrainedModel = train_model(
        ModelKind::CTfidf,
        Task::Regress,
        &TrainData {
            statements: &reg.statements[..cut(reg.len())],
            labels: Labels::Values(&reg.log_labels[..cut(reg.len())]),
            valid_statements: &reg.statements[cut(reg.len())..],
            valid_labels: Labels::Values(&reg.log_labels[cut(reg.len())..]),
        },
        &cfg,
        None,
    );
    let dir = std::env::temp_dir().join(format!("sqlan-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    save_bundle(
        &dir,
        "bench",
        harness.seed,
        &[
            (Problem::ErrorClassification, &classifier),
            (Problem::AnswerSize, &regressor),
        ],
    )
    .expect("save bundle");
    let n = corpus.len();
    (dir, n, corpus)
}

/// One closed-loop client: issues `requests` predictions back to back on
/// one keep-alive connection, alternating problems, walking the corpus
/// from a per-client offset. Returns per-request latencies (seconds).
fn run_client(
    addr: std::net::SocketAddr,
    corpus: &[String],
    requests: usize,
    batch: usize,
    offset: usize,
) -> Vec<f64> {
    let mut client = Client::connect(addr).expect("connect");
    let mut latencies = Vec::with_capacity(requests);
    let mut pos = offset;
    for r in 0..requests {
        let statements: Vec<String> = (0..batch)
            .map(|i| corpus[(pos + i) % corpus.len()].clone())
            .collect();
        pos += batch;
        let problem = if r % 2 == 0 {
            Problem::ErrorClassification
        } else {
            Problem::AnswerSize
        };
        let body = serde_json::to_string(&PredictRequest {
            problem: problem.name().to_string(),
            statements,
        })
        .expect("request serializes");
        let start = Instant::now();
        let (status, response) = client.post("/predict", &body).expect("predict");
        latencies.push(start.elapsed().as_secs_f64());
        assert_eq!(status, 200, "predict failed: {response}");
        let parsed: PredictResponse = serde_json::from_str(&response).expect("predict json");
        assert_eq!(parsed.predictions.len(), batch);
    }
    latencies
}

/// One raw keep-alive HTTP round trip on an already-open socket: write a
/// `GET /healthz`, read status line + headers + `content-length` body.
/// Uses a single fd per connection (no stream cloning) so a child can
/// hold 2 500 of them comfortably.
fn healthz_roundtrip(stream: &mut std::net::TcpStream) -> std::io::Result<()> {
    use std::io::{Read, Write};
    stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n")?;
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut tmp = [0u8; 1024];
    let (head_end, content_length) = loop {
        let n = stream.read(&mut tmp)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "closed mid-response",
            ));
        }
        buf.extend_from_slice(&tmp[..n]);
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..pos]);
            let content_length = head
                .lines()
                .find_map(|l| {
                    let (name, value) = l.split_once(':')?;
                    name.eq_ignore_ascii_case("content-length")
                        .then(|| value.trim().parse::<usize>().ok())
                        .flatten()
                })
                .unwrap_or(0);
            break (pos + 4, content_length);
        }
    };
    while buf.len() < head_end + content_length {
        let n = stream.read(&mut tmp)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "closed mid-body",
            ));
        }
        buf.extend_from_slice(&tmp[..n]);
    }
    Ok(())
}

/// Child-process mode (`SQLAN_C10K_CHILD="<addr> <n>"`): open and hold
/// `n` keep-alive connections, report `ready <count>`, then answer
/// `probe` (sample liveness) and `exit` commands on stdin.
fn c10k_child(spec: &str) {
    use std::io::{BufRead, Write};
    let mut parts = spec.split_whitespace();
    let addr: std::net::SocketAddr = parts.next().expect("child addr").parse().expect("addr");
    let n: usize = parts.next().expect("child count").parse().expect("count");
    let _ = sqlan_net::raise_nofile_limit();
    let mut conns: Vec<std::net::TcpStream> = Vec::with_capacity(n);
    for _ in 0..n {
        let Ok(mut stream) = std::net::TcpStream::connect(addr) else {
            break;
        };
        let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(30)));
        // Prove the connection end to end once, then leave it idle.
        if healthz_roundtrip(&mut stream).is_err() {
            break;
        }
        conns.push(stream);
    }
    let stdout = std::io::stdout();
    writeln!(stdout.lock(), "ready {}", conns.len()).expect("report ready");
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.unwrap_or_default();
        match line.trim() {
            "probe" => {
                // Sample across the held range: first, last, and a spread.
                let sample = conns.len().min(50);
                let mut alive = 0usize;
                for i in 0..sample {
                    let idx = i * conns.len() / sample.max(1);
                    if healthz_roundtrip(&mut conns[idx]).is_ok() {
                        alive += 1;
                    }
                }
                writeln!(stdout.lock(), "alive {alive} {sample}").expect("report probe");
            }
            _ => break,
        }
    }
}

/// Hold `target` idle keep-alive connections from child processes while
/// this process keeps serving, measure predict throughput under the
/// hold, then probe that the held connections still answer.
fn run_c10k(
    handle: &sqlan_serve::ServerHandle,
    corpus: &[String],
    batch: usize,
    nofile_soft: u64,
) -> C10kStats {
    use std::io::{BufRead, BufReader, Write};
    let addr = handle.addr();
    // fd budget: this process holds one fd per server-side connection
    // plus the bundle/pipes/epoll overhead; leave a 2 000-fd margin.
    let requested = env_usize("SQLAN_BENCH_C10K", 10_000);
    let target = requested.min(nofile_soft.saturating_sub(2_000) as usize);
    if target < requested {
        eprintln!(
            "[bench_serve] c10k: clamped {requested} -> {target} by RLIMIT_NOFILE={nofile_soft}"
        );
    }
    const PER_CHILD: usize = 2_500;
    let exe = std::env::current_exe().expect("current exe");
    let mut children = Vec::new();
    let mut remaining = target;
    while remaining > 0 {
        let slice = remaining.min(PER_CHILD);
        remaining -= slice;
        let child = std::process::Command::new(&exe)
            .env("SQLAN_C10K_CHILD", format!("{addr} {slice}"))
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn c10k child");
        children.push(child);
    }
    // Children establish concurrently; collect their ready counts.
    let mut readers: Vec<BufReader<std::process::ChildStdout>> = children
        .iter_mut()
        .map(|c| BufReader::new(c.stdout.take().expect("child stdout")))
        .collect();
    let mut held = 0usize;
    for reader in &mut readers {
        let mut line = String::new();
        reader.read_line(&mut line).expect("child ready");
        let n: usize = line
            .trim()
            .strip_prefix("ready ")
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("bad child handshake: {line:?}"));
        held += n;
    }
    let server_connections = handle.connections();
    eprintln!(
        "[bench_serve] c10k: holding {held} connections (server sees {server_connections}); \
         measuring predict throughput under the hold…"
    );

    // Closed-loop predict load while every held connection stays open.
    let requests = env_usize("SQLAN_BENCH_REQUESTS", 200);
    let start = Instant::now();
    let latencies: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|c| s.spawn(move || run_client(addr, corpus, requests, batch, c * 37)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let seconds = start.elapsed().as_secs_f64();
    let stmts = 2 * requests * batch;

    // The held connections must have survived the load phase: probe a
    // sample on every child.
    let (mut probe_alive, mut probe_sampled) = (0usize, 0usize);
    for (child, reader) in children.iter_mut().zip(&mut readers) {
        let stdin = child.stdin.as_mut().expect("child stdin");
        writeln!(stdin, "probe").expect("send probe");
        let mut line = String::new();
        reader.read_line(&mut line).expect("probe answer");
        let mut parts = line.trim().strip_prefix("alive ").unwrap_or("").split(' ');
        probe_alive += parts
            .next()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0);
        probe_sampled += parts
            .next()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0);
    }
    for mut child in children {
        if let Some(stdin) = child.stdin.as_mut() {
            let _ = writeln!(stdin, "exit");
        }
        let _ = child.wait();
    }
    C10kStats {
        target,
        held,
        server_connections,
        probe_alive,
        probe_sampled,
        stmts_per_sec_under_hold: stmts as f64 / seconds.max(1e-9),
        p99_s_under_hold: LatencySummary::from_seconds(&latencies).p99_s,
        nofile_soft,
    }
}

fn fetch_metrics(addr: std::net::SocketAddr) -> MetricsSnapshot {
    let mut client = Client::connect(addr).expect("connect");
    let (status, body) = client.get("/metrics").expect("metrics");
    assert_eq!(status, 200);
    serde_json::from_str(&body).expect("metrics json")
}

/// One closed-loop round: `clients` threads × `requests` requests.
/// Returns scored statements per second.
fn measure_round(
    addr: std::net::SocketAddr,
    corpus: &[String],
    requests: usize,
    batch: usize,
    clients: usize,
) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| s.spawn(move || run_client(addr, corpus, requests, batch, c * 37)))
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });
    (clients * requests * batch) as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// A/B the serving hot path with observability on vs off over the same
/// warm-cache load, best of `rounds` each (interleaved to share thermal
/// and scheduler conditions). Asserts the <3% overhead contract.
fn run_obs_ab(
    addr: std::net::SocketAddr,
    corpus: &[String],
    requests: usize,
    batch: usize,
) -> ObsAbStats {
    const CLIENTS: usize = 2;
    const ROUNDS: usize = 3;
    // One warmup pass so every template in the walk is cache-resident
    // before either arm is timed.
    measure_round(addr, corpus, requests, batch, CLIENTS);
    let (mut best_on, mut best_off) = (0.0f64, 0.0f64);
    for _ in 0..ROUNDS {
        sqlan_obs::set_enabled(false);
        best_off = best_off.max(measure_round(addr, corpus, requests, batch, CLIENTS));
        sqlan_obs::set_enabled(true);
        best_on = best_on.max(measure_round(addr, corpus, requests, batch, CLIENTS));
    }
    let overhead_frac = (best_off - best_on) / best_off.max(1e-9);
    let stats = ObsAbStats {
        rounds: ROUNDS,
        requests_per_round: CLIENTS * requests,
        statements_per_round: CLIENTS * requests * batch,
        obs_on_stmts_per_sec: best_on,
        obs_off_stmts_per_sec: best_off,
        overhead_frac,
    };
    eprintln!(
        "    obs A/B: on {:.0} stmts/s  off {:.0} stmts/s  overhead {:+.2}%",
        best_on,
        best_off,
        overhead_frac * 100.0
    );
    assert!(
        overhead_frac < 0.03,
        "observability overhead {:.2}% exceeds the 3% warm-cache budget \
         (on {best_on:.0} stmts/s, off {best_off:.0} stmts/s)",
        overhead_frac * 100.0
    );
    stats
}

/// Counter-algebra invariants served by `/metrics`, checked while the
/// server is quiescent: every counted request landed in exactly one
/// response class, and the statement total is the sum of its per-problem
/// decomposition. Exact equalities — a lost increment fails the bench.
fn check_metrics_consistency(addr: std::net::SocketAddr) {
    let m = fetch_metrics(addr);
    assert_eq!(
        m.http_requests,
        m.responses_2xx + m.responses_4xx + m.responses_5xx,
        "requests must equal the sum of response classes"
    );
    assert_eq!(
        m.statements,
        m.statements_by_problem.iter().sum::<u64>(),
        "statement total must equal the per-problem sum"
    );
    eprintln!(
        "    metrics consistent: {} requests = {} 2xx + {} 4xx + {} 5xx; {} statements",
        m.http_requests, m.responses_2xx, m.responses_4xx, m.responses_5xx, m.statements
    );
}

/// The chaos round: a dedicated server with degradation enabled, the
/// same closed-loop load with and without injected scoring faults, and
/// the recovery time back to non-degraded answers.
fn run_chaos(bundle_dir: &std::path::Path, requests: usize, batch: usize, seed: u64) -> ChaosStats {
    let spec = "score.panic=0.05,score.stall=0.02/5".to_string();
    let registry = Arc::new(ModelRegistry::open(bundle_dir).expect("open bundle"));
    let handle = sqlan_serve::start(
        registry,
        ServeConfig {
            http_workers: 2,
            scoring: ScoringConfig {
                degrade: true,
                ..ScoringConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("start chaos server");
    let addr = handle.addr();
    eprintln!("[bench_serve] chaos: seed {seed} spec {spec}");

    // Cold synthetic corpora, one per round: scoring faults only fire
    // when scoring actually runs, so a warm-cache walk would measure
    // nothing. Same shape for both rounds keeps the comparison fair.
    let fresh_corpus = |tag: &str| -> Vec<String> {
        (0..2 * requests * batch + 128)
            .map(|i| format!("SELECT col_{i} FROM {tag} WHERE id = {i}"))
            .collect()
    };
    let baseline = measure_round(addr, &fresh_corpus("chaos_base"), requests, batch, 2);
    let before = fetch_metrics(addr);
    let guard = sqlan_fault::install(seed, &spec).expect("install fault plane");
    let degraded = measure_round(addr, &fresh_corpus("chaos_fault"), requests, batch, 2);
    let after = fetch_metrics(addr);
    drop(guard);

    // Recovery: with the plane cleared, time until a fresh (uncached)
    // statement comes back non-degraded.
    let recover_start = Instant::now();
    let mut client = Client::connect(addr).expect("connect");
    let mut recovery_ms = f64::NAN;
    for i in 0..1_000 {
        let body = serde_json::to_string(&PredictRequest {
            problem: Problem::ErrorClassification.name().to_string(),
            statements: vec![format!("SELECT recovery_{i} FROM chaos_probe")],
        })
        .expect("request serializes");
        let (status, response) = client.post("/predict", &body).expect("recovery probe");
        if status == 200 {
            let parsed: PredictResponse = serde_json::from_str(&response).expect("predict json");
            if !parsed.degraded {
                recovery_ms = recover_start.elapsed().as_secs_f64() * 1e3;
                break;
            }
        }
    }
    assert!(
        recovery_ms.is_finite(),
        "service never recovered to non-degraded answers after faults cleared"
    );
    handle.shutdown();

    let stats = ChaosStats {
        spec,
        seed,
        baseline_stmts_per_sec: baseline,
        degraded_stmts_per_sec: degraded,
        degradation_frac: (baseline - degraded) / baseline.max(1e-9),
        degraded_responses: after.degraded_responses - before.degraded_responses,
        worker_panics: after.worker_panics - before.worker_panics,
        recovery_ms,
    };
    eprintln!(
        "    chaos: baseline {:.0} stmts/s  degraded {:.0} stmts/s ({:+.1}%)  \
         {} degraded responses  {} panics caught  recovery {:.1}ms",
        stats.baseline_stmts_per_sec,
        stats.degraded_stmts_per_sec,
        -stats.degradation_frac * 100.0,
        stats.degraded_responses,
        stats.worker_panics,
        stats.recovery_ms
    );
    stats
}

fn main() {
    // Re-exec'd child holding a slice of the c10k connections?
    if let Ok(spec) = std::env::var("SQLAN_C10K_CHILD") {
        c10k_child(&spec);
        return;
    }
    let nofile_soft = sqlan_net::raise_nofile_limit()
        .map(|(soft, _)| soft)
        .unwrap_or(1024);

    let harness = Harness::from_env();
    let requests = env_usize("SQLAN_BENCH_REQUESTS", 200);
    let batch = env_usize("SQLAN_BENCH_BATCH", 8);
    let levels: Vec<usize> = std::env::var("SQLAN_BENCH_CLIENTS")
        .unwrap_or_else(|_| "1,2,4,8".to_string())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let machine = sqlan_bench::machine_info();

    let (bundle_dir, corpus_len, corpus) = train_bundle(&harness);
    let registry = Arc::new(ModelRegistry::open(&bundle_dir).expect("open bundle"));
    let handle = sqlan_serve::start(
        registry,
        ServeConfig {
            http_workers: levels.iter().copied().max().unwrap_or(8),
            // The c10k hold keeps connections idle for the whole load
            // phase; the sweep must not reap them mid-measurement.
            idle_timeout: std::time::Duration::from_secs(300),
            scoring: ScoringConfig::default(),
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let addr = handle.addr();
    eprintln!(
        "[bench_serve] cores={} simd={} corpus={corpus_len} serving on {addr}",
        machine.cores, machine.simd_tier
    );

    let mut out_levels = Vec::new();
    for &clients in &levels {
        eprintln!("[bench_serve] level: {clients} client(s) × {requests} requests × {batch} stmts");
        let start = Instant::now();
        let latencies: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let corpus = &corpus;
                    // Per-client offsets overlap across levels, so later
                    // levels re-walk statements the cache already holds —
                    // deliberately: that is the steady-state serving mix.
                    s.spawn(move || run_client(addr, corpus, requests, batch, c * 37))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        let seconds = start.elapsed().as_secs_f64();
        let metrics = fetch_metrics(addr);
        let n_requests = clients * requests;
        let n_statements = n_requests * batch;
        let stats = LevelStats {
            clients,
            requests: n_requests,
            statements: n_statements,
            seconds,
            stmts_per_sec: n_statements as f64 / seconds.max(1e-9),
            requests_per_sec: n_requests as f64 / seconds.max(1e-9),
            latency: LatencySummary::from_seconds(&latencies),
            cache_hit_rate: metrics.cache_hit_rate,
        };
        eprintln!(
            "    {:.3}s  {:.0} stmts/s  p50 {:.2}ms  p99 {:.2}ms  cache {:.1}%",
            stats.seconds,
            stats.stmts_per_sec,
            stats.latency.p50_s * 1e3,
            stats.latency.p99_s * 1e3,
            stats.cache_hit_rate * 100.0
        );
        out_levels.push(stats);
    }

    // Observability A/B on the now-warm cache, then the counter-algebra
    // invariants while nothing else is in flight.
    let obs_ab = run_obs_ab(addr, &corpus, requests, batch);
    check_metrics_consistency(addr);

    let c10k = run_c10k(&handle, &corpus, batch, nofile_soft);
    eprintln!(
        "    c10k: held {} (server {})  probe {}/{}  {:.0} stmts/s under hold  p99 {:.2}ms",
        c10k.held,
        c10k.server_connections,
        c10k.probe_alive,
        c10k.probe_sampled,
        c10k.stmts_per_sec_under_hold,
        c10k.p99_s_under_hold * 1e3
    );

    handle.shutdown();

    // The chaos round runs on its own server instance (degradation is
    // an engine-start decision) after the main one is gone.
    let chaos = run_chaos(&bundle_dir, requests, batch, harness.seed);
    let _ = std::fs::remove_dir_all(&bundle_dir);

    let report = BenchServe {
        machine,
        corpus_statements: corpus_len,
        requests_per_client: requests,
        statements_per_request: batch,
        levels: out_levels,
        obs_ab,
        c10k,
        chaos,
    };
    let out = std::env::var("SQLAN_BENCH_OUT").unwrap_or_else(|_| "BENCH_serve.json".into());
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, &json).expect("write BENCH_serve.json");
    println!("{json}");
    eprintln!("[saved {out}]");
}
