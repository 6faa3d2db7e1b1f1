//! The prediction journey: an in-process HTTP server answering
//! statements it has never seen (interactive) and batches it has mostly
//! seen (bulk).
//!
//! Set-up (repeated, median reported as `setup_s`): label a small log
//! drawn from the canonical seed ([`LOG_SEED`]), train one model per
//! problem spanning the TF-IDF, CNN and LSTM families (the run's seed
//! drives training), save the bundle, open it with `ModelRegistry::open`
//! and start the server in-process with `sqlan_serve::start`. The
//! requests are drawn from the run's seed and the workload's generator.
//!
//! Every round of the run has two timed windows:
//!
//! - interactive: an open loop at a fixed rate well under capacity, one
//!   never-seen statement per request, problems rotating over the bundle.
//!   Latency is timed from each request's due time.
//! - bulk: a closed loop on one keep-alive connection; each request
//!   carries many statements, a quarter of them never seen and the rest
//!   Zipf-skewed repeats of earlier ones, so the prediction cache answers
//!   about three quarters.
//!
//! The benchmark holds each statement once: a request is a list of
//! indices into one pool, and its body is built just before it is sent.
//! What comes back is kept as a digest of its exact bytes, checked after
//! the last window against the in-process `predict_*_batch` rendering on
//! the loaded bundle. So the benchmark's own buffers stay a small part of
//! `peak_rss_mb`.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlan_core::{train_model, ModelKind, Problem, TrainConfig, TrainedModel};
use sqlan_serve::{
    save_bundle, Client, ModelRegistry, PredictRequest, PredictResponse, Prediction, ScoringConfig,
    ScoringEngine, ServeConfig, ServerHandle, TraceDump,
};
use sqlan_sql::normalize_statement;
use sqlan_workload::session::class_weights;
use sqlan_workload::{
    build_sdss, build_sqlshare, sdss_statement, sqlshare_catalog, sqlshare_statement, Scale,
    SdssConfig, SqlShareConfig, UserSchema, Workload as Log,
};

use crate::offline::{task, Split, LOG_SEED};
use crate::report::Report;
use crate::stats::{median, quantile, secs, Digest};
use crate::trace::{SpanId, Tracer};
use crate::{nproc, Args, Workload};

/// The served bundle: one model per problem, spanning the three families.
pub const SERVE_KINDS: [(Problem, ModelKind); 4] = [
    (Problem::ErrorClassification, ModelKind::WTfidf),
    (Problem::SessionClassification, ModelKind::WCnn),
    (Problem::CpuTime, ModelKind::WLstm),
    (Problem::AnswerSize, ModelKind::CCnn),
];

/// TF-IDF features of the served model. Loading a TF-IDF artifact is
/// superlinear in its feature count (README.md, findings): at the
/// default 20 000 features the load alone takes about 7 s on the small
/// log, so set-up could not be repeated within a run.
const SERVE_TFIDF_FEATURES: usize = 3_000;
/// Interactive: open-loop request rate (requests/s).
const RATE: f64 = 200.0;
/// Bulk: statements per request.
const BULK_BATCH: usize = 64;
/// Share of bulk statements never seen before (the rest repeat).
const BULK_FRESH_SHARE: f64 = 0.25;
/// Zipf exponent of bulk repeats over earlier statements.
const BULK_ZIPF_S: f64 = 1.0;
/// Statements per second the bulk input is sized for: about 1.3 times
/// what one connection reaches (8–9.5k on a 2-CPU x86-64 VM), so the
/// windows do not run out of input while the benchmark holds little
/// more than the statements it sends. If a faster program does run out,
/// the slices cover the part of the window the input filled.
const BULK_MAX_STMTS_PER_S: f64 = 12_000.0;
/// Seconds of interactive and of bulk windows in a run, per second of
/// `--seconds`; the timed run splits them evenly over its rounds.
pub const INTERACTIVE_PER_SECOND: f64 = 0.5;
pub const BULK_PER_SECOND: f64 = 0.6;
/// Slices of each timed window; end-to-end serving metrics are medians
/// over the slices of every window of the run.
const SLICES: usize = 5;
/// Cold statements scored in-process, one at a time, in the traced run.
const SCORE_PROBES: usize = 200;
/// Batches per kind and batch size for the forward probes.
const FORWARD_PROBES: usize = 100;

/// Draws never-seen statements (by normalized text) from the workload's
/// generator: SDSS session templates or SQLShare users' ad hoc queries.
pub struct StatementSource {
    rng: StdRng,
    workload: Workload,
    users: Vec<UserSchema>,
    /// Digests of the normalized statements drawn or excluded so far (a
    /// collision can only skip a fresh statement, never repeat one).
    seen: HashSet<Digest>,
    weights: [(sqlan_workload::SessionClass, f64); 7],
}

impl StatementSource {
    pub fn new(seed: u64, workload: Workload) -> StatementSource {
        let (_, users) = sqlshare_catalog(40, Scale(0.01), seed ^ 0x0051);
        StatementSource {
            rng: StdRng::seed_from_u64(seed ^ 0x57A7),
            workload,
            users,
            seen: HashSet::new(),
            weights: class_weights(),
        }
    }

    /// Mark statements as seen so they are never drawn.
    pub fn exclude<'a>(&mut self, stmts: impl IntoIterator<Item = &'a String>) {
        self.seen.extend(
            stmts
                .into_iter()
                .map(|s| Digest::of(normalize_statement(s).as_bytes())),
        );
    }

    pub fn fresh(&mut self) -> String {
        loop {
            let stmt = match self.workload {
                Workload::Sdss => {
                    let total: f64 = self.weights.iter().map(|(_, w)| w).sum();
                    let mut x = self.rng.gen_range(0.0..total);
                    let mut class = self.weights[0].0;
                    for (c, w) in self.weights {
                        class = c;
                        if x < w {
                            break;
                        }
                        x -= w;
                    }
                    sdss_statement(class, &mut self.rng)
                }
                Workload::Sqlshare => {
                    let u = self.rng.gen_range(0..self.users.len());
                    sqlshare_statement(&self.users[u], &mut self.rng)
                }
            };
            if self
                .seen
                .insert(Digest::of(normalize_statement(&stmt).as_bytes()))
            {
                return stmt;
            }
        }
    }
}

/// One request: its problem and its statements, as indices into
/// [`Requests::pool`].
pub struct Request {
    pub problem: Problem,
    pub stmts: Vec<u32>,
}

/// A request stream over one pool of distinct statements.
#[derive(Default)]
pub struct Requests {
    pub pool: Vec<String>,
    pub reqs: Vec<Request>,
}

impl Requests {
    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    /// Add a statement to the pool; returns its index.
    fn add(&mut self, stmt: String) -> u32 {
        self.pool.push(stmt);
        (self.pool.len() - 1) as u32
    }

    /// The statements of request `i`.
    pub fn statements(&self, i: usize) -> impl Iterator<Item = &String> {
        self.reqs[i].stmts.iter().map(|&k| &self.pool[k as usize])
    }

    /// The JSON body of request `i`, built when it is about to be sent.
    pub fn body(&self, i: usize) -> String {
        serde_json::to_string(&PredictRequest {
            problem: self.reqs[i].problem.name().to_string(),
            statements: self.statements(i).cloned().collect(),
        })
        .expect("request serializes")
    }
}

/// What came back for one request.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status, or `None` on a transport error.
    pub status: Option<u16>,
    /// Digest of the body's exact bytes.
    pub body: Digest,
    /// Due time (open loop) or send time (closed loop), seconds after
    /// its window started.
    pub start_s: f64,
    /// Completion minus due time (open loop) or send time (closed loop).
    pub latency_s: f64,
    /// How late the request was sent against its due time.
    pub late_s: f64,
}

/// The interactive inputs: `n` single-statement requests, problems
/// rotating over the bundle.
pub fn interactive_requests(src: &mut StatementSource, n: usize) -> Requests {
    let mut out = Requests::default();
    for i in 0..n {
        let k = out.add(src.fresh());
        out.reqs.push(Request {
            problem: SERVE_KINDS[i % 4].0,
            stmts: vec![k],
        });
    }
    out
}

/// The bulk inputs: `n` requests of [`BULK_BATCH`] statements each. Each
/// slot is a never-seen statement with probability [`BULK_FRESH_SHARE`],
/// else a Zipf-ranked repeat of an earlier statement for the same problem
/// (rank 1 = first seen).
pub fn bulk_requests(src: &mut StatementSource, seed: u64, n: usize) -> Requests {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB01C);
    // Pool indices of each problem's statements, in first-seen order.
    let mut ranked: [Vec<u32>; 4] = Default::default();
    let mut zipf_cdf: Vec<f64> = Vec::new();
    let mut out = Requests::default();
    for i in 0..n {
        let p = i % 4;
        let earlier = ranked[p].len();
        while zipf_cdf.len() < earlier {
            let k = zipf_cdf.len() as f64 + 1.0;
            let prev = zipf_cdf.last().copied().unwrap_or(0.0);
            zipf_cdf.push(prev + k.powf(-BULK_ZIPF_S));
        }
        let mut stmts = Vec::with_capacity(BULK_BATCH);
        let mut fresh = Vec::new();
        for _ in 0..BULK_BATCH {
            if earlier == 0 || rng.gen_bool(BULK_FRESH_SHARE) {
                let k = out.add(src.fresh());
                fresh.push(k);
                stmts.push(k);
            } else {
                let x = rng.gen_range(0.0..zipf_cdf[earlier - 1]);
                let rank = zipf_cdf[..earlier].partition_point(|&c| c <= x);
                stmts.push(ranked[p][rank.min(earlier - 1)]);
            }
        }
        ranked[p].extend(fresh);
        out.reqs.push(Request {
            problem: SERVE_KINDS[p].0,
            stmts,
        });
    }
    out
}

/// A started server and what set-up cost.
pub struct Setup {
    pub server: ServerHandle,
    pub registry: Arc<ModelRegistry>,
    pub setup_s: f64,
    pub load_s: f64,
    pub bundle_bytes: u64,
    pub digest: String,
    pub log: Log,
}

/// Label the small log, train the bundle, save, load, start the server.
pub fn setup(args: &Args, dir: &Path, tracer: &Tracer, parent: Option<SpanId>) -> Setup {
    let s = args.size;
    let t0 = Instant::now();
    let log = tracer.span("workload.build_small_log", 0, parent, |_| {
        let sdss = build_sdss(SdssConfig {
            n_sessions: s.serve_sessions,
            scale: Scale(s.serve_scale),
            seed: LOG_SEED ^ 0x5E4E,
        });
        let share = build_sqlshare(SqlShareConfig {
            n_queries: s.serve_sqlshare,
            n_users: 20,
            scale: Scale(s.serve_scale * 2.0),
            seed: LOG_SEED ^ 0x5E4F,
        });
        let mut log = sdss;
        log.sampled_logs += share.sampled_logs;
        log.repetitions.extend(share.repetitions);
        log.entries.extend(share.entries);
        log
    });
    let cfg = TrainConfig {
        epochs: 1,
        patience: 0,
        seed: args.seed ^ 0x7EA2,
        tfidf_features: SERVE_TFIDF_FEATURES,
        ..TrainConfig::default()
    };
    let models: Vec<(Problem, TrainedModel)> = SERVE_KINDS
        .iter()
        .map(|&(problem, kind)| {
            let split = Split::new(&log, problem);
            let model = tracer.span(&format!("model.train.{}", kind.name()), 0, parent, |_| {
                train_model(kind, task(problem), &split.train_data(), &cfg, None)
            });
            (problem, model)
        })
        .collect();
    let pairs: Vec<(Problem, &TrainedModel)> = models.iter().map(|(p, m)| (*p, m)).collect();
    let manifest = tracer.span("serve.bundle_save", 0, parent, |_| {
        save_bundle(dir, "perfbench", cfg.seed, &pairs).expect("save bundle")
    });
    let mut digest = Digest::default();
    for e in &manifest.entries {
        digest.update(e.file.as_bytes());
    }
    let t = Instant::now();
    let registry = tracer.span("serve.bundle_load", 0, parent, |_| {
        Arc::new(ModelRegistry::open(dir).expect("open bundle"))
    });
    let load_s = secs(t);
    let server = tracer.span("serve.start", 0, parent, |_| {
        sqlan_serve::start(
            Arc::clone(&registry),
            ServeConfig {
                http_workers: nproc(),
                scoring: ScoringConfig {
                    workers: nproc(),
                    ..ScoringConfig::default()
                },
                ..ServeConfig::default()
            },
        )
        .expect("start server")
    });
    Setup {
        server,
        registry,
        setup_s: secs(t0),
        load_s,
        bundle_bytes: manifest.entries.iter().map(|e| e.bytes).sum(),
        digest: digest.hex(),
        log,
    }
}

/// Post `body` on `client`, reconnecting once after a transport error.
/// Returns the status and the digest of the response body.
fn post(client: &mut Option<Client>, addr: SocketAddr, body: &str) -> (Option<u16>, Digest) {
    if client.is_none() {
        *client = Client::connect(addr).ok();
    }
    let Some(c) = client.as_mut() else {
        return (None, Digest::default());
    };
    match c.post("/predict", body) {
        Ok((status, body)) => (Some(status), Digest::of(body.as_bytes())),
        Err(_) => {
            *client = None;
            (None, Digest::default())
        }
    }
}

/// The open loop over requests `range`: the `j`-th of them is due at
/// `start + j / rate`; `clients` threads each own one connection and take
/// every `clients`-th request.
pub fn open_loop(
    addr: SocketAddr,
    reqs: &Requests,
    range: Range<usize>,
    rate: f64,
    clients: usize,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Vec<Response> {
    let start = Instant::now() + Duration::from_millis(20);
    let first = range.start;
    let mut out: Vec<Option<Response>> = vec![None; range.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|k| {
                let range = range.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).ok();
                    let mut mine = Vec::new();
                    for i in range.skip(k).step_by(clients) {
                        let due = start + Duration::from_secs_f64((i - first) as f64 / rate);
                        let req_body = reqs.body(i);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let (status, body) = tracer.span("net.post", i as u64, parent, |_| {
                            post(&mut client, addr, &req_body)
                        });
                        let done = Instant::now();
                        mine.push((
                            i - first,
                            Response {
                                status,
                                body,
                                start_s: (due - start).as_secs_f64(),
                                latency_s: (done - due).as_secs_f64(),
                                late_s: sent.saturating_duration_since(due).as_secs_f64(),
                            },
                        ));
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            for (j, r) in h.join().expect("client thread panicked") {
                out[j] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every request answered"))
        .collect()
}

/// The closed loop: one connection posts requests `first..` back to back
/// until `seconds` have passed (or the input runs out). Returns the
/// responses and the part of the window they cover: `seconds`, or less if
/// the input ran out.
pub fn closed_loop(
    addr: SocketAddr,
    reqs: &Requests,
    first: usize,
    seconds: f64,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> (Vec<Response>, f64) {
    let mut client = Client::connect(addr).ok();
    let mut out = Vec::new();
    let start = Instant::now();
    for i in first..reqs.len() {
        if secs(start) >= seconds {
            return (out, seconds);
        }
        let req_body = reqs.body(i);
        let sent = Instant::now();
        let (status, body) = tracer.span("net.post", i as u64, parent, |_| {
            post(&mut client, addr, &req_body)
        });
        out.push(Response {
            status,
            body,
            start_s: (sent - start).as_secs_f64(),
            latency_s: secs(sent),
            late_s: 0.0,
        });
    }
    let wall = secs(start);
    eprintln!("[perfbench] bulk input ran out after {wall:.3} s of {seconds} s");
    (out, wall.min(seconds))
}

/// Requests `start..end` of a stream, sent in one timed window.
#[derive(Debug, Clone, Copy)]
struct Window {
    start: usize,
    end: usize,
    seconds: f64,
}

/// `f` applied to each of [`SLICES`] equal slices of every window (the
/// (request, response) pairs due or sent in it, and the slice's length).
/// End-to-end serving metrics are the median over slices: a co-tenant's
/// burst on a shared machine disturbs some slices, a change to the
/// program moves every slice.
fn per_slice(
    reqs: &Requests,
    resps: &[Response],
    windows: &[Window],
    f: impl Fn(&[(&Request, &Response)], f64) -> f64,
) -> Vec<f64> {
    let mut out = Vec::new();
    for w in windows {
        let width = w.seconds / SLICES as f64;
        let mut slices: Vec<Vec<(&Request, &Response)>> = vec![Vec::new(); SLICES];
        let pairs = reqs.reqs[w.start..w.end].iter().zip(&resps[w.start..w.end]);
        for (req, resp) in pairs {
            let k = (resp.start_s / width) as usize;
            if k < SLICES {
                slices[k].push((req, resp));
            }
        }
        out.extend(slices.iter().filter(|s| !s.is_empty()).map(|s| f(s, width)));
    }
    out
}

/// Latency in ms of each pair; failed requests count as infinitely slow.
fn latencies_ms(pairs: &[(&Request, &Response)]) -> Vec<f64> {
    pairs
        .iter()
        .map(|(_, r)| {
            if r.status == Some(200) {
                r.latency_s * 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// Expected predictions, in-process, for every distinct (problem, pool
/// statement) in the first `n` requests, scored in batches of 64 on the
/// normalized text, as the server scores it.
fn expected_predictions(
    registry: &ModelRegistry,
    reqs: &Requests,
    n: usize,
) -> HashMap<(Problem, u32), Prediction> {
    let live = registry.current();
    let mut todo: HashMap<Problem, Vec<u32>> = HashMap::new();
    let mut seen: HashSet<(Problem, u32)> = HashSet::new();
    for r in &reqs.reqs[..n] {
        for &k in &r.stmts {
            if seen.insert((r.problem, k)) {
                todo.entry(r.problem).or_default().push(k);
            }
        }
    }
    let mut out = HashMap::new();
    for (problem, ks) in todo {
        let model = live
            .bundle
            .model(problem)
            .expect("bundle serves every problem");
        for chunk in ks.chunks(64) {
            let stmts: Vec<String> = chunk
                .iter()
                .map(|&k| normalize_statement(&reqs.pool[k as usize]))
                .collect();
            let preds = predict(model, problem, &stmts);
            for (&k, p) in chunk.iter().zip(preds) {
                out.insert((problem, k), p);
            }
        }
    }
    out
}

/// In-process predictions, shaped as the server renders them.
pub fn predict(model: &TrainedModel, problem: Problem, stmts: &[String]) -> Vec<Prediction> {
    if problem.is_classification() {
        model
            .predict_proba_batch(stmts)
            .into_iter()
            .map(|p| Prediction {
                class: Some(sqlan_ml::argmax(&p)),
                proba: Some(p),
                value: None,
            })
            .collect()
    } else {
        model
            .predict_value_batch(stmts)
            .into_iter()
            .map(|v| Prediction {
                class: None,
                proba: None,
                value: Some(v),
            })
            .collect()
    }
}

/// Check every response: a 200 whose body has the same bytes as the
/// in-process prediction rendered as the server renders it (compared by
/// digest). Returns how many failed.
pub fn check_responses(
    report: &mut Report,
    registry: &ModelRegistry,
    reqs: &Requests,
    resps: &[Response],
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> u64 {
    let expected = tracer.span("model.predict_expected", 0, parent, |_| {
        expected_predictions(registry, reqs, resps.len())
    });
    let generation = registry.generation();
    let mut failed = 0;
    for (i, (req, resp)) in reqs.reqs.iter().zip(resps).enumerate() {
        let why = match resp.status {
            None => Some("transport error".to_string()),
            Some(200) => {
                let body = serde_json::to_string(&PredictResponse {
                    generation,
                    degraded: false,
                    predictions: req
                        .stmts
                        .iter()
                        .map(|&k| expected[&(req.problem, k)].clone())
                        .collect(),
                })
                .expect("response serializes");
                (Digest::of(body.as_bytes()) != resp.body)
                    .then(|| "body differs from in-process prediction".to_string())
            }
            Some(code) => Some(format!("status {code}")),
        };
        if let Some(why) = why {
            failed += 1;
            report.fail_check(format!("request {i} ({}): {why}", req.problem.name()));
        }
    }
    failed
}

/// Server-side queue wait, in ms, of the most recent requests.
fn queue_wait_ms(addr: SocketAddr) -> Vec<f64> {
    Client::connect(addr)
        .and_then(|mut c| c.get("/debug/trace?n=256"))
        .ok()
        .and_then(|(_, body)| serde_json::from_str::<TraceDump>(&body).ok())
        .map(|d| {
            d.traces
                .iter()
                .flat_map(|t| t.spans.iter().filter(|s| s.name == "queue_wait"))
                .map(|s| s.dur_ns as f64 / 1e6)
                .collect()
        })
        .unwrap_or_default()
}

/// The journey's state across rounds: the live server, the request
/// streams, and what each window sent and got back.
pub struct Serving {
    live: Setup,
    setup_s: Vec<f64>,
    load_s: Vec<f64>,
    clients: usize,
    warm: Requests,
    warm_resps: Vec<Response>,
    interactive: Requests,
    interactive_resps: Vec<Response>,
    interactive_windows: Vec<Window>,
    bulk: Requests,
    bulk_resps: Vec<Response>,
    bulk_windows: Vec<Window>,
    probes: Vec<String>,
    /// Queue wait after the latest interactive and bulk windows.
    interactive_wait_ms: Vec<f64>,
    bulk_wait_ms: Vec<f64>,
    /// Over the bulk windows: (batches, statements batched) and (cache
    /// hits, misses).
    bulk_batches: (u64, u64),
    bulk_cache: (u64, u64),
}

impl Serving {
    /// Set up `reps` times (the last one serves), draw the inputs for
    /// `windows` seconds of interactive and bulk windows in all, and warm
    /// up.
    pub fn start(
        args: &Args,
        reps: usize,
        windows: (f64, f64),
        dir: &Path,
        tracer: &Tracer,
        root: Option<SpanId>,
        report: &mut Report,
    ) -> Serving {
        // Earlier set-ups stay loaded until all have run: shutting each
        // down and freeing it before the next made set-up slower and less
        // steady (interleaved runs on a 2-CPU x86-64 VM: 1.64–1.96 s
        // against 1.89–2.81 s).
        let mut setups = Vec::new();
        let mut digests = HashSet::new();
        for rep in 0..reps {
            let _ = std::fs::remove_dir_all(dir);
            let s = tracer.span("bench.setup", rep as u64, root, |p| {
                setup(args, dir, tracer, p)
            });
            digests.insert(s.digest.clone());
            setups.push(s);
        }
        if digests.len() != 1 {
            report.fail_check("served bundle differs between set-up repetitions");
        }
        let setup_s: Vec<f64> = setups.iter().map(|s| s.setup_s).collect();
        let load_s: Vec<f64> = setups.iter().map(|s| s.load_s).collect();
        let live = setups.pop().expect("one set-up");
        for s in setups {
            s.server.shutdown();
        }

        // Inputs (not timed), drawn from the workload's generator.
        let clients = nproc().min(2);
        let (warm, interactive, bulk, probes) =
            tracer.span("workload.generate_requests", 0, root, |_| {
                let mut src = StatementSource::new(args.seed, args.workload);
                src.exclude(live.log.entries.iter().map(|e| &e.statement));
                let warm = interactive_requests(&mut src, 8 * clients);
                let n = RATE * windows.0;
                let interactive = interactive_requests(&mut src, n.round() as usize);
                let n = BULK_MAX_STMTS_PER_S * windows.1 / BULK_BATCH as f64;
                let bulk = bulk_requests(&mut src, args.seed, (n as usize).max(8));
                let probes: Vec<String> = (0..2 * SCORE_PROBES).map(|_| src.fresh()).collect();
                (warm, interactive, bulk, probes)
            });

        // Warm-up: connections and first-touch allocations, not timed.
        let warm_resps = tracer.span("bench.warmup", 0, root, |p| {
            open_loop(
                live.server.addr(),
                &warm,
                0..warm.len(),
                1000.0,
                clients,
                tracer,
                p,
            )
        });
        Serving {
            live,
            setup_s,
            load_s,
            clients,
            warm,
            warm_resps,
            interactive,
            interactive_resps: Vec::new(),
            interactive_windows: Vec::new(),
            bulk,
            bulk_resps: Vec::new(),
            bulk_windows: Vec::new(),
            probes,
            interactive_wait_ms: Vec::new(),
            bulk_wait_ms: Vec::new(),
            bulk_batches: (0, 0),
            bulk_cache: (0, 0),
        }
    }

    /// One interactive window of `seconds`: the next `RATE × seconds`
    /// requests of the open loop.
    pub fn interactive_window(&mut self, seconds: f64, tracer: &Tracer, parent: Option<SpanId>) {
        let addr = self.live.server.addr();
        let start = self.interactive_resps.len();
        let end = (start + (RATE * seconds).round() as usize).min(self.interactive.len());
        let resps = tracer.span("gen.open_loop", 0, parent, |p| {
            open_loop(
                addr,
                &self.interactive,
                start..end,
                RATE,
                self.clients,
                tracer,
                p,
            )
        });
        self.interactive_resps.extend(resps);
        self.interactive_windows.push(Window {
            start,
            end,
            seconds,
        });
        self.interactive_wait_ms = queue_wait_ms(addr);
    }

    /// One bulk window of `seconds`, continuing the closed loop's stream.
    pub fn bulk_window(&mut self, seconds: f64, tracer: &Tracer, parent: Option<SpanId>) {
        let addr = self.live.server.addr();
        let engine = self.live.server.engine();
        let batch_counts = || {
            let b = &engine.batch_stats;
            (b.batches.load(Relaxed), b.statements.load(Relaxed))
        };
        let batches_before = batch_counts();
        let cache_before = engine.cache().stats();
        let start = self.bulk_resps.len();
        let (resps, covered) = tracer.span("gen.closed_loop", 0, parent, |p| {
            closed_loop(addr, &self.bulk, start, seconds, tracer, p)
        });
        let batches = batch_counts();
        let cache = engine.cache().stats();
        self.bulk_batches.0 += batches.0 - batches_before.0;
        self.bulk_batches.1 += batches.1 - batches_before.1;
        self.bulk_cache.0 += cache.0 - cache_before.0;
        self.bulk_cache.1 += cache.1 - cache_before.1;
        self.bulk_resps.extend(resps);
        self.bulk_windows.push(Window {
            start,
            end: self.bulk_resps.len(),
            seconds: covered,
        });
        self.bulk_wait_ms = queue_wait_ms(addr);
    }

    /// Output checks, after the last window: every response of every
    /// window and of the warm-up.
    pub fn check(&self, report: &mut Report, tracer: &Tracer, parent: Option<SpanId>) {
        let registry = &self.live.registry;
        tracer.span("bench.check", 0, parent, |p| {
            for (reqs, resps) in [
                (&self.warm, &self.warm_resps),
                (&self.interactive, &self.interactive_resps),
                (&self.bulk, &self.bulk_resps),
            ] {
                check_responses(report, registry, reqs, resps, tracer, p);
                report.attempted += resps.len() as u64;
            }
        });
    }

    /// End-to-end metrics of the timed run.
    pub fn put_metrics(&self, report: &mut Report) {
        report.put("setup_s", median(&self.setup_s), "s");
        let p50 = self.interactive_slices(0.5);
        eprintln!("[perfbench] slice p50 ms {p50:.3?}");
        report.put("predict_p50_ms", median(&p50), "ms");
        let rates = per_slice(
            &self.bulk,
            &self.bulk_resps,
            &self.bulk_windows,
            |s, width| s.iter().map(|(q, _)| q.stmts.len()).sum::<usize>() as f64 / width,
        );
        eprintln!("[perfbench] slice stmts/s {rates:.0?}");
        report.put("predict_stmts_per_s", median(&rates), "stmts/s");
    }

    /// Each interactive slice's latency `q`-quantile, in ms.
    fn interactive_slices(&self, q: f64) -> Vec<f64> {
        per_slice(
            &self.interactive,
            &self.interactive_resps,
            &self.interactive_windows,
            |s, _| quantile(&latencies_ms(s), q),
        )
    }

    /// Per-layer metrics of the traced run (after [`Serving::probe`]).
    pub fn put_layer_metrics(&self, report: &mut Report) {
        report.put("serve.bundle_load_s", median(&self.load_s), "s");
        report.put("serve.bundle_bytes", self.live.bundle_bytes as f64, "bytes");
        let (batches, batched) = self.bulk_batches;
        report.put(
            "serve.batch_size_mean",
            batched as f64 / batches.max(1) as f64,
            "stmts",
        );
        let (hits, misses) = self.bulk_cache;
        report.put(
            "serve.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        report.put(
            "serve.queue_wait_ms_p50",
            quantile(&self.interactive_wait_ms, 0.5),
            "ms",
        );
        report.put(
            "serve.queue_wait_ms_p50.bulk",
            quantile(&self.bulk_wait_ms, 0.5),
            "ms",
        );
        report.put(
            "predict_requests",
            (self.interactive_resps.len() + self.bulk_resps.len()) as f64,
            "count",
        );
        let all = |reqs: &Requests, resps: &[Response]| {
            let pairs: Vec<(&Request, &Response)> = reqs.reqs.iter().zip(resps).collect();
            latencies_ms(&pairs)
        };
        let latency_ms = all(&self.interactive, &self.interactive_resps);
        let http_p50 = quantile(&latency_ms, 0.5);
        let score_p50 = report.get("serve.score_ms_p50").unwrap_or(f64::NAN);
        report.put("net.http_overhead_ms_p50", http_p50 - score_p50, "ms");
        report.put(
            "predict_p90_ms",
            median(&self.interactive_slices(0.9)),
            "ms",
        );
        report.put("predict_p99_ms", quantile(&latency_ms, 0.99), "ms");
        report.put("predict_p99_samples", latency_ms.len() as f64, "count");
        let late = self
            .interactive_resps
            .iter()
            .map(|r| r.late_s)
            .fold(0.0, f64::max);
        report.put("gen.late_ms_max", late * 1e3, "ms");
        report.put(
            "predict_latency_ms_p50",
            quantile(&all(&self.bulk, &self.bulk_resps), 0.5),
            "ms",
        );
    }

    /// One line on stderr: what the windows sent and got back.
    pub fn log_summary(&self) {
        let stmts: usize = self.bulk.reqs[..self.bulk_resps.len()]
            .iter()
            .map(|r| r.stmts.len())
            .sum();
        eprintln!(
            "[perfbench] serving setup_s={:?} interactive={} bulk={} bulk_stmts={} \
             batches={:?} cache={:?} pool={}",
            self.setup_s,
            self.interactive_resps.len(),
            self.bulk_resps.len(),
            stmts,
            self.bulk_batches,
            self.bulk_cache,
            self.interactive.pool.len() + self.bulk.pool.len(),
        );
    }

    pub fn shutdown(self) {
        self.live.server.shutdown();
    }

    /// The traced run's in-process probes: cold statements one at a time
    /// through the scoring engine (with and without its batching window),
    /// normalization, and every served model's forward at batch 1 and 64.
    pub fn probe(&self, tracer: &Tracer, root: Option<SpanId>, report: &mut Report) {
        let live = &self.live;
        let engine = live.server.engine();
        let (cold, cold_no_wait) = self.probes.split_at(self.probes.len() / 2);
        let mut score_ms = Vec::new();
        tracer.span("bench.score_probe", 0, root, |p| {
            for (i, s) in cold.iter().enumerate() {
                let problem = SERVE_KINDS[i % 4].0;
                let t = Instant::now();
                let r = tracer.span("serve.score", i as u64, p, |_| {
                    engine.score(problem, std::slice::from_ref(s))
                });
                score_ms.push(secs(t) * 1e3);
                if r.is_err() {
                    report.fail_check(format!("in-process score failed: {r:?}"));
                }
            }
        });
        report.put("serve.score_ms_p50", quantile(&score_ms, 0.5), "ms");

        // The same, on a scoring engine that cuts batches without waiting
        // for stragglers: what the batching window costs one statement.
        let no_wait = ScoringEngine::start(
            Arc::clone(&live.registry),
            ScoringConfig {
                workers: nproc(),
                max_wait: Duration::ZERO,
                ..ScoringConfig::default()
            },
        );
        let mut no_wait_ms = Vec::new();
        tracer.span("bench.score_probe_no_wait", 0, root, |p| {
            for (i, s) in cold_no_wait.iter().enumerate() {
                let problem = SERVE_KINDS[i % 4].0;
                let t = Instant::now();
                let r = tracer.span("serve.score", i as u64, p, |_| {
                    no_wait.score(problem, std::slice::from_ref(s))
                });
                no_wait_ms.push(secs(t) * 1e3);
                if r.is_err() {
                    report.fail_check(format!("in-process score failed: {r:?}"));
                }
            }
        });
        no_wait.shutdown();
        report.put(
            "serve.score_ms_p50.max_wait_0",
            quantile(&no_wait_ms, 0.5),
            "ms",
        );

        // Normalization of the interactive statements.
        tracer.span("bench.normalize_probe", 0, root, |p| {
            for (i, s) in self.interactive.pool.iter().take(2000).enumerate() {
                tracer.span("sql.normalize", i as u64, p, |_| {
                    std::hint::black_box(normalize_statement(s))
                });
            }
        });
        let norm = tracer.durations("sql.normalize");
        report.put("sql.normalize_us_p50", quantile(&norm, 0.5) * 1e6, "us");

        // Model forwards at batch 1 (interactive) and 64 (bulk), per kind.
        let bundle = &live.registry.current().bundle;
        for batch in [1, BULK_BATCH] {
            let pool: Vec<String> = self
                .bulk
                .pool
                .iter()
                .take(FORWARD_PROBES * batch)
                .map(|s| normalize_statement(s))
                .collect();
            for (problem, kind) in SERVE_KINDS {
                let model = bundle.model(problem).expect("bundle serves every problem");
                let name = format!("model.forward.{}.b{batch}", kind.name());
                tracer.span("bench.forward_probe", 0, root, |p| {
                    for (i, chunk) in pool.chunks(batch).enumerate() {
                        tracer.span(&name, i as u64, p, |_| {
                            std::hint::black_box(predict(model, problem, chunk))
                        });
                    }
                });
                report.put(
                    format!("model.forward_us.{}.b{batch}", kind.name()),
                    median(&tracer.durations(&name)) * 1e6,
                    "us",
                );
            }
        }
    }
}
