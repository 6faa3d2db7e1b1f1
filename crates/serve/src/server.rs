//! The HTTP front end: the readiness-driven event loop from
//! [`sqlan_net`]. One I/O thread holds every connection (non-blocking
//! accept, per-connection buffers, idle sweep), and `http_workers`
//! handler threads run the routing below, so tens of thousands of idle
//! keep-alive connections cost an fd each, not a thread each. Responses
//! render through the shared byte renderer, and `tests/e2e_http.rs` pins
//! their bytes.
//!
//! | route              | body                                  | answer |
//! |--------------------|---------------------------------------|--------|
//! | `POST /predict`    | `{"problem": "...", "statements": []}`| predictions + generation |
//! | `GET /healthz`     | —                                     | status, generation, uptime, tier, models |
//! | `GET /metrics`     | — (`?format=prom` for Prometheus text)| [`MetricsSnapshot`] |
//! | `GET /debug/trace` | — (`?n=` caps the count)              | recent per-stage request traces |
//! | `POST /reload`     | `{"dir": "..."}`                      | new generation (hot swap) |
//!
//! `/predict` answers with the live model's predictions or a typed error
//! (`{"error": ...}`): 503 when the scoring queue is saturated, 400 for
//! a problem the live bundle has no model for, 500 when the batch's
//! scoring panicked, 504 when the request's deadline expired. Malformed
//! input gets 400, oversized requests 413/431.
//!
//! When observability is on ([`sqlan_obs::enabled`], the default) every
//! request mints a [`TraceCtx`] whose id and per-stage spans (`parse`,
//! `cache_probe`, `queue_wait`, `batch_score`, `featurize`, ...) land in
//! the trace ring behind `GET /debug/trace`; requests slower than
//! `SQLAN_SLOW_MS` additionally log one stderr line.

use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use sqlan_core::Problem;
use sqlan_net::{Answer, Request};
use sqlan_obs::TraceCtx;

use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::registry::ModelRegistry;
use crate::scoring::{Prediction, ScoreError, ScoreOptions, ScoringConfig, ScoringEngine};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Request-handling threads: they run routing for the single I/O
    /// loop, bounding concurrent in-flight requests.
    pub http_workers: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Idle keep-alive connections are dropped after this long.
    pub idle_timeout: Duration,
    /// Accept stops above this many open connections.
    pub max_connections: usize,
    pub scoring: ScoringConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            http_workers: 4,
            max_body_bytes: 1 << 20,
            idle_timeout: Duration::from_secs(5),
            max_connections: 120_000,
            scoring: ScoringConfig::default(),
        }
    }
}

/// `POST /predict` request body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictRequest {
    /// Problem wire name (`Problem::name`), e.g. `"error_classification"`.
    pub problem: String,
    pub statements: Vec<String>,
}

/// `POST /predict` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictResponse {
    /// Bundle generation the request was admitted under — the one that
    /// scored it: jobs pin their admitted bundle even across a
    /// concurrent hot swap.
    pub generation: u64,
    /// Always `false`: every answer comes from the model. The field
    /// stays so that the response bytes keep their shape.
    pub degraded: bool,
    pub predictions: Vec<Prediction>,
}

/// `POST /reload` request body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReloadRequest {
    pub dir: String,
}

/// `POST /reload` / error envelope bodies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReloadResponse {
    pub generation: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorResponse {
    pub error: String,
}

/// `GET /healthz` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HealthResponse {
    pub status: String,
    pub generation: u64,
    pub bundle: String,
    /// Wire names of the problems the live bundle answers.
    pub problems: Vec<String>,
    /// Model kind per problem, same order.
    pub models: Vec<String>,
    /// Seconds since this server instance started — lets a probe detect
    /// a silently restarted (and therefore possibly stale-bundle) server.
    pub uptime_s: f64,
    /// Active HTTP front end (always `"epoll"`).
    pub http_tier: String,
}

/// One span inside a [`TraceEntry`], as served by `GET /debug/trace`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceSpan {
    pub name: String,
    /// Offset from the trace origin, nanoseconds.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Work items the span covered (statements, operators, ...).
    pub n: u64,
}

/// One completed request trace, as served by `GET /debug/trace`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceEntry {
    pub trace_id: u64,
    pub route: String,
    pub status: u16,
    pub total_ns: u64,
    pub spans: Vec<TraceSpan>,
}

/// `GET /debug/trace` response body: recent traces, newest first.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceDump {
    /// Whether observability is currently enabled ([`sqlan_obs::enabled`]).
    pub enabled: bool,
    pub traces: Vec<TraceEntry>,
}

/// A running server. Dropping the handle does NOT stop it; call
/// [`ServerHandle::shutdown`].
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    engine: Arc<ScoringEngine>,
    metrics: Arc<ServeMetrics>,
    net: sqlan_net::EventLoopHandle,
}

impl ServerHandle {
    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn engine(&self) -> &Arc<ScoringEngine> {
        &self.engine
    }

    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// Open connections.
    pub fn connections(&self) -> u64 {
        self.net.connections()
    }

    /// Stop accepting, drain in-flight work, join all threads.
    pub fn shutdown(self) {
        self.net.shutdown();
        self.engine.shutdown();
    }
}

/// Start a server: bind, spawn scoring workers and the event loop,
/// return immediately.
pub fn start(registry: Arc<ModelRegistry>, cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let engine = ScoringEngine::start(Arc::clone(&registry), cfg.scoring);
    let metrics = Arc::new(ServeMetrics::default());
    let service = Arc::new(EpollService {
        engine: Arc::clone(&engine),
        metrics: Arc::clone(&metrics),
    });
    let net = sqlan_net::serve(
        listener,
        service,
        sqlan_net::NetConfig {
            handler_threads: cfg.http_workers.max(1),
            max_body_bytes: cfg.max_body_bytes,
            idle_timeout: cfg.idle_timeout,
            max_connections: cfg.max_connections,
        },
    )?;
    Ok(ServerHandle {
        addr,
        engine,
        metrics,
        net,
    })
}

/// The event loop's application callback: routing and counters via
/// [`respond`].
#[derive(Debug)]
struct EpollService {
    engine: Arc<ScoringEngine>,
    metrics: Arc<ServeMetrics>,
}

impl sqlan_net::Service for EpollService {
    fn call(&self, req: &Request) -> Answer {
        respond(req, &self.engine, &self.metrics)
    }

    fn on_parse_error(&self, _err: &sqlan_net::HttpError) {
        self.metrics.on_parse_error();
    }
}

fn error_body(message: &str) -> String {
    serde_json::to_string(&ErrorResponse {
        error: message.to_string(),
    })
    .expect("error body serializes")
}

/// Split a request target into path and query (`""` when absent).
fn split_target(target: &str) -> (&str, &str) {
    target.split_once('?').unwrap_or((target, ""))
}

/// First value of `key` in an `a=b&c=d` query string.
fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query.split('&').find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        (k == key).then_some(v)
    })
}

/// Static route label for trace grouping.
fn route_label(method: &str, path: &str) -> &'static str {
    match (method, path) {
        ("POST", "/predict") => "/predict",
        ("GET", "/healthz") => "/healthz",
        ("GET", "/metrics") => "/metrics",
        ("GET", "/debug/trace") => "/debug/trace",
        ("POST", "/reload") => "/reload",
        _ => "other",
    }
}

/// Route one request and maintain the request/error counters. Counters
/// move *after* routing so every counted request has already landed in
/// exactly one response class.
fn respond(req: &Request, engine: &ScoringEngine, metrics: &ServeMetrics) -> Answer {
    let (path, query) = split_target(&req.path);
    let trace = TraceCtx::start(route_label(req.method.as_str(), path));
    let answer = {
        // Install the trace for this thread so `obs::timed` call sites
        // anywhere below (parsing, cache probe, featurizers) attach
        // spans without threading the context explicitly.
        let _installed = trace.as_ref().map(sqlan_obs::trace::install_one);
        route(req, path, query, engine, metrics, trace.as_ref())
    };
    if let Some(t) = trace {
        let done = t.finish(answer.status);
        if let Some(limit) = sqlan_obs::trace::slow_threshold_ns() {
            if done.total_ns >= limit {
                eprintln!("{}", sqlan_obs::trace::slow_log_line(&done));
            }
        }
        metrics.traces().publish(Arc::new(done));
    }
    metrics.on_response(answer.status);
    answer
}

fn route(
    req: &Request,
    path: &str,
    query: &str,
    engine: &ScoringEngine,
    metrics: &ServeMetrics,
    trace: Option<&Arc<TraceCtx>>,
) -> Answer {
    match (req.method.as_str(), path) {
        ("POST", "/predict") => predict(req, engine, metrics, trace),
        ("GET", "/healthz") => healthz(engine, metrics),
        ("GET", "/metrics") => metrics_route(engine, metrics, query),
        ("GET", "/debug/trace") => trace_route(metrics, query),
        ("POST", "/reload") => reload(req, engine),
        ("GET", _) | ("POST", _) => Answer::json(404, error_body("no such route")),
        _ => Answer::json(405, error_body("method not allowed")),
    }
}

fn predict(
    req: &Request,
    engine: &ScoringEngine,
    metrics: &ServeMetrics,
    trace: Option<&Arc<TraceCtx>>,
) -> Answer {
    let parsed = sqlan_obs::trace::timed("parse", 1, || {
        let text = std::str::from_utf8(&req.body).map_err(|_| error_body("body is not UTF-8"))?;
        serde_json::from_str::<PredictRequest>(text)
            .map_err(|e| error_body(&format!("bad predict request: {e}")))
    });
    let request = match parsed {
        Ok(r) => r,
        Err(body) => return Answer::json(400, body),
    };
    let Some(problem) = Problem::from_name(&request.problem) else {
        return Answer::json(
            400,
            error_body(&format!("unknown problem `{}`", request.problem)),
        );
    };
    let start = Instant::now();
    // `x-sqlan-deadline-ms` anchors at request receipt; the engine sheds
    // expired work (admission and queue) with 504 before a model forward.
    let deadline = req.deadline_ms.map(|ms| start + Duration::from_millis(ms));
    match engine.score_opts(
        problem,
        &request.statements,
        ScoreOptions { trace, deadline },
    ) {
        Ok(scored) => {
            metrics.observe_predict(
                problem,
                request.statements.len() as u64,
                start.elapsed().as_nanos() as u64,
            );
            let body = PredictResponse {
                generation: scored.generation,
                degraded: false,
                predictions: scored.predictions,
            };
            Answer::json(
                200,
                serde_json::to_string(&body).expect("response serializes"),
            )
        }
        Err(ScoreError::Saturated) => Answer::json(503, error_body("scoring queue saturated")),
        Err(ScoreError::ShuttingDown) => Answer::json(503, error_body("shutting down")),
        Err(e @ ScoreError::DeadlineExceeded) => Answer::json(504, error_body(&e.to_string())),
        Err(e @ ScoreError::WorkerPanicked) => Answer::json(500, error_body(&e.to_string())),
        Err(e @ ScoreError::UnknownProblem(_)) => Answer::json(400, error_body(&e.to_string())),
    }
}

fn healthz(engine: &ScoringEngine, metrics: &ServeMetrics) -> Answer {
    let live = engine.registry().current();
    let body = HealthResponse {
        status: "ok".to_string(),
        generation: live.generation,
        bundle: live.bundle.manifest.name.clone(),
        problems: live
            .bundle
            .manifest
            .entries
            .iter()
            .map(|e| e.problem.name().to_string())
            .collect(),
        models: live
            .bundle
            .manifest
            .entries
            .iter()
            .map(|e| e.kind.name().to_string())
            .collect(),
        uptime_s: metrics.uptime_s(),
        http_tier: "epoll".to_string(),
    };
    Answer::json(
        200,
        serde_json::to_string(&body).expect("health serializes"),
    )
}

fn metrics_route(engine: &ScoringEngine, metrics: &ServeMetrics, query: &str) -> Answer {
    let (hits, misses) = engine.cache().stats();
    let batches = engine.batch_stats.batches.load(Ordering::Relaxed);
    let batched = engine.batch_stats.statements.load(Ordering::Relaxed);
    let generation = engine.registry().generation();
    metrics.sync_engine_stats(
        hits,
        misses,
        engine.cache().len() as u64,
        batches,
        batched,
        engine.queue_depth() as u64,
        generation,
    );
    let registry = engine.registry();
    metrics.sync_resilience(
        &engine.resilience,
        registry.breaker_opens(),
        registry.breaker_open(),
    );
    if query_param(query, "format") == Some("prom") {
        let serve_snap = metrics.registry().snapshot();
        let global_snap = sqlan_obs::global().snapshot();
        return Answer::text(
            200,
            sqlan_obs::prom::CONTENT_TYPE,
            sqlan_obs::prom::render(&[&serve_snap, &global_snap]),
        );
    }
    let uptime = metrics.uptime_s().max(1e-9);
    let statements = metrics.statements_total();
    let predict_requests = metrics.predict_requests();
    let [responses_2xx, responses_4xx, responses_5xx] = metrics.responses_by_class();
    let snapshot = MetricsSnapshot {
        uptime_s: uptime,
        generation,
        http_requests: metrics.http_requests(),
        predict_requests,
        statements,
        shed: metrics.shed(),
        client_errors: metrics.client_errors(),
        responses_2xx,
        responses_4xx,
        responses_5xx,
        statements_by_problem: metrics.statements_per_problem(),
        statement_qps: statements as f64 / uptime,
        request_qps: predict_requests as f64 / uptime,
        latency: metrics.latency_summary(),
        cache_hits: hits,
        cache_misses: misses,
        cache_hit_rate: if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
        cache_entries: engine.cache().len() as u64,
        batches,
        batched_statements: batched,
        mean_batch: if batches == 0 {
            0.0
        } else {
            batched as f64 / batches as f64
        },
        max_batch: engine.batch_stats.max_batch.load(Ordering::Relaxed),
        queue_depth: engine.queue_depth() as u64,
        deadline_expired: engine.resilience.deadline_expired.load(Ordering::Relaxed),
        worker_panics: engine.resilience.worker_panics.load(Ordering::Relaxed),
        worker_respawns: engine.resilience.worker_respawns.load(Ordering::Relaxed),
        breaker_opens: registry.breaker_opens(),
        breaker_open: registry.breaker_open() as u64,
    };
    Answer::json(
        200,
        serde_json::to_string(&snapshot).expect("metrics serialize"),
    )
}

fn trace_route(metrics: &ServeMetrics, query: &str) -> Answer {
    let n = query_param(query, "n")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(16);
    let traces: Vec<TraceEntry> = metrics
        .traces()
        .recent(n)
        .iter()
        .map(|t| TraceEntry {
            trace_id: t.id,
            route: t.route.to_string(),
            status: t.status,
            total_ns: t.total_ns,
            spans: t
                .spans
                .iter()
                .map(|s| TraceSpan {
                    name: s.name.to_string(),
                    start_ns: s.start_ns,
                    dur_ns: s.dur_ns,
                    n: s.n,
                })
                .collect(),
        })
        .collect();
    let dump = TraceDump {
        enabled: sqlan_obs::enabled(),
        traces,
    };
    Answer::json(
        200,
        serde_json::to_string(&dump).expect("trace dump serializes"),
    )
}

fn reload(req: &Request, engine: &ScoringEngine) -> Answer {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Answer::json(400, error_body("body is not UTF-8"));
    };
    let parsed: Result<ReloadRequest, _> = serde_json::from_str(text);
    let request = match parsed {
        Ok(r) => r,
        Err(e) => return Answer::json(400, error_body(&format!("bad reload request: {e}"))),
    };
    match engine.registry().reload(Path::new(&request.dir)) {
        Ok(generation) => Answer::json(
            200,
            serde_json::to_string(&ReloadResponse { generation }).expect("reload serializes"),
        ),
        // An open breaker is a transient server-side condition (retry
        // after cooldown), not a caller mistake: 503, not 400.
        Err(e @ crate::bundle::BundleError::CircuitOpen { .. }) => {
            Answer::json(503, error_body(&format!("reload failed: {e}")))
        }
        Err(e) => Answer::json(400, error_body(&format!("reload failed: {e}"))),
    }
}
