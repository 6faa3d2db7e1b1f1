//! The batched scoring engine.
//!
//! Requests are admitted into a bounded micro-batching queue; scoring
//! workers drain up to `max_batch` statements for one problem (waiting at
//! most `max_wait` for stragglers to fill the batch) and score them in a
//! single `predict_*_batch` call. For the neural models that call is
//! *true batched forward* — the batch plans into length-bucketed tiles
//! and each tile runs one tensorized tape (one `(B,K)·(K,N)` matmul per
//! layer), bit-identical to per-statement scoring, rather than a
//! `par_map` of per-statement graphs — so the micro-batching queue buys
//! real kernel-level batching, not just thread fan-out. A full queue
//! sheds the request instead of queueing unbounded work
//! ([`ScoreError::Saturated`] → HTTP 503 upstream).
//!
//! The cache sits in front of the queue: hits answer immediately from the
//! sharded LRU ([`crate::cache::PredictionCache`]); only misses are
//! queued, and workers populate the cache under the generation they
//! scored with, so a hot-swapped bundle never serves stale entries.
//!
//! Every request gets the live model's answer or a typed error — there
//! is no fallback predictor. Requests can carry a **deadline**:
//! already-expired work is shed at admission and queued jobs that expire
//! before their batch is cut are dropped without a model forward
//! ([`ScoreError::DeadlineExceeded`] → HTTP 504 upstream). A problem the
//! live bundle has no model for is rejected before anything is queued
//! ([`ScoreError::UnknownProblem`] → 400). Batch scoring runs under
//! `catch_unwind`, so a panicking model (or an injected `score.panic`
//! fault) fails every request in its batch with
//! [`ScoreError::WorkerPanicked`] (→ 500) instead of stranding callers,
//! and a worker thread that somehow unwinds anyway is respawned. Shed
//! deadlines, caught panics and respawns are counted in
//! [`ResilienceStats`].

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use sqlan_core::Problem;
use sqlan_obs::trace::{install, timed};
use sqlan_obs::TraceCtx;

use crate::cache::{normalize_statement, PredictionCache};
use crate::registry::{LiveBundle, ModelRegistry};

/// One scored statement. Classification problems fill `class` + `proba`,
/// regression problems fill `value` (log-label space, matching
/// `TrainedModel::predict_value`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    pub class: Option<usize>,
    pub proba: Option<Vec<f32>>,
    pub value: Option<f64>,
}

/// A scored request: the predictions plus the bundle generation that
/// produced them (the generation the request was *admitted* under —
/// jobs pin that bundle even across a concurrent hot swap).
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredBatch {
    pub generation: u64,
    pub predictions: Vec<Prediction>,
}

/// Why a scoring request was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScoreError {
    /// The queue is full — shed instead of queueing unbounded work.
    Saturated,
    /// The live bundle has no model for this problem.
    UnknownProblem(Problem),
    /// The engine is shutting down.
    ShuttingDown,
    /// The request's deadline passed before its statements were scored.
    DeadlineExceeded,
    /// Batch scoring panicked.
    WorkerPanicked,
}

impl std::fmt::Display for ScoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScoreError::Saturated => f.write_str("scoring queue saturated"),
            ScoreError::UnknownProblem(p) => write!(f, "no model for problem `{p}`"),
            ScoreError::ShuttingDown => f.write_str("engine shutting down"),
            ScoreError::DeadlineExceeded => f.write_str("request deadline exceeded"),
            ScoreError::WorkerPanicked => f.write_str("scoring failed internally"),
        }
    }
}

impl std::error::Error for ScoreError {}

/// Micro-batching and cache knobs.
#[derive(Debug, Clone, Copy)]
pub struct ScoringConfig {
    /// Scoring worker threads; at least 1 ([`ScoringEngine::start`]
    /// panics on 0, which would queue jobs no worker ever drains).
    pub workers: usize,
    /// Statements per scoring batch.
    pub max_batch: usize,
    /// How long a worker holds a non-full batch open for stragglers.
    pub max_wait: Duration,
    /// Queued-statement bound; admission beyond it sheds the request.
    pub queue_capacity: usize,
    /// Total prediction-cache entries (0 disables the cache).
    pub cache_capacity: usize,
}

/// Prediction-cache shard count.
const CACHE_SHARDS: usize = 16;

impl Default for ScoringConfig {
    fn default() -> ScoringConfig {
        ScoringConfig {
            workers: 2,
            max_batch: 64,
            max_wait: Duration::from_millis(2),
            queue_capacity: 4096,
            cache_capacity: 65_536,
        }
    }
}

/// Per-request options for [`ScoringEngine::score_opts`].
#[derive(Debug, Default)]
pub struct ScoreOptions<'a> {
    /// Request trace minted at the HTTP edge, if any.
    pub trace: Option<&'a Arc<TraceCtx>>,
    /// Absolute deadline: expired work is shed (504) before a model
    /// forward is spent on it.
    pub deadline: Option<Instant>,
}

/// Resilience counters, mirrored into `/metrics` at scrape time.
#[derive(Debug, Default)]
pub struct ResilienceStats {
    /// Requests shed because their deadline passed (at admission or in
    /// the queue).
    pub deadline_expired: AtomicU64,
    /// Batches whose scoring panicked (caught, never escaped).
    pub worker_panics: AtomicU64,
    /// Scoring worker threads respawned after an unwind escaped the
    /// batch guard.
    pub worker_respawns: AtomicU64,
}

/// How one queued job failed, reported over the reply channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobFail {
    /// Deadline passed while queued; dropped before scoring.
    Expired,
    /// The batch's scoring call panicked.
    Panicked,
}

struct Job {
    problem: Problem,
    normalized: String,
    /// The bundle the job was admitted against. Scoring uses exactly
    /// this bundle, so a concurrent hot swap to one *without* the
    /// problem can never strand the job (admission already validated
    /// it here), and the cache entry lands under the right generation.
    live: Arc<LiveBundle>,
    /// Caller's scatter index and reply channel.
    index: usize,
    reply: mpsc::Sender<(usize, Result<Prediction, JobFail>)>,
    /// Absolute deadline; a job still queued past it is dropped without
    /// a model forward.
    deadline: Option<Instant>,
    /// The request trace this job belongs to, if one was minted at the
    /// HTTP edge. Workers dedup per-trace before recording spans, so a
    /// many-statement request gets one `queue_wait` / `batch_score`
    /// span per batch, not one per statement.
    trace: Option<Arc<TraceCtx>>,
    /// When the job entered the queue (start of its `queue_wait` span).
    admitted: Instant,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("problem", &self.problem)
            .field("index", &self.index)
            .finish()
    }
}

#[derive(Debug, Default)]
pub struct BatchStats {
    /// Scoring batches executed.
    pub batches: AtomicU64,
    /// Statements scored through batches (batched_statements / batches =
    /// achieved batch size).
    pub statements: AtomicU64,
    /// Largest batch observed.
    pub max_batch: AtomicU64,
}

/// Queue state shared by admission and the workers: the jobs plus the
/// per-problem deficit-round-robin credit that decides which problem
/// the next batch serves.
#[derive(Debug, Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    /// Carried-over service credit per problem (indexed by position in
    /// [`Problem::ALL`]). A problem earns one quantum each time a batch
    /// is cut while it has jobs waiting, and spends what a batch serves;
    /// unspent credit carries over, so a trickle of jobs for one problem
    /// cannot be starved behind a flood for another.
    credit: [u32; Problem::ALL.len()],
}

#[inline]
fn pidx(p: Problem) -> usize {
    Problem::ALL
        .iter()
        .position(|&q| q == p)
        .expect("problem in ALL")
}

/// Deficit-round-robin selection: every present problem (`first[i]` is
/// the queue position of its oldest job) earns `quantum`, then the
/// highest-credit present problem wins, ties broken FIFO by oldest job.
/// Absent problems forfeit their credit (no hoarding while idle).
/// Credit is capped at `4 * quantum` so a long-present, rarely-chosen
/// problem cannot bank unbounded priority. Returns the winning index
/// into [`Problem::ALL`].
fn drr_select(first: &[Option<usize>], credit: &mut [u32], quantum: u32) -> usize {
    let mut winner: Option<usize> = None;
    for i in 0..first.len() {
        match first[i] {
            None => credit[i] = 0,
            Some(pos) => {
                credit[i] = (credit[i] + quantum).min(4 * quantum);
                let better = match winner {
                    None => true,
                    Some(w) => {
                        credit[i] > credit[w]
                            || (credit[i] == credit[w]
                                && pos < first[w].expect("winner is present"))
                    }
                };
                if better {
                    winner = Some(i);
                }
            }
        }
    }
    winner.expect("at least one problem present")
}

/// The engine: cache → queue → scoring workers.
#[derive(Debug)]
pub struct ScoringEngine {
    registry: Arc<ModelRegistry>,
    cache: PredictionCache,
    cfg: ScoringConfig,
    queue: Mutex<QueueState>,
    /// Signals workers (new work / shutdown).
    work_ready: Condvar,
    shutdown: AtomicBool,
    pub batch_stats: BatchStats,
    pub resilience: ResilienceStats,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ScoringEngine {
    /// Build the engine and spawn its scoring workers.
    ///
    /// # Panics
    ///
    /// If `cfg.workers` is 0.
    pub fn start(registry: Arc<ModelRegistry>, cfg: ScoringConfig) -> Arc<ScoringEngine> {
        assert!(cfg.workers > 0, "ScoringConfig::workers must be at least 1");
        let engine = Arc::new(ScoringEngine {
            registry,
            cache: PredictionCache::new(cfg.cache_capacity, CACHE_SHARDS),
            cfg,
            queue: Mutex::new(QueueState::default()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            batch_stats: BatchStats::default(),
            resilience: ResilienceStats::default(),
            workers: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::with_capacity(cfg.workers);
        for i in 0..cfg.workers {
            let e = Arc::clone(&engine);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("sqlan-score-{i}"))
                    .spawn(move || {
                        // Batch scoring is individually unwind-guarded; if
                        // a panic escapes the loop anyway (a poisoned
                        // invariant, an injected fault in an unexpected
                        // place), respawn the loop rather than silently
                        // shrinking the pool.
                        loop {
                            if catch_unwind(AssertUnwindSafe(|| e.worker_loop())).is_ok() {
                                break;
                            }
                            e.resilience.worker_respawns.fetch_add(1, Ordering::Relaxed);
                            if e.shutdown.load(Ordering::Acquire) {
                                break;
                            }
                        }
                    })
                    .expect("spawn scoring worker"),
            );
        }
        *engine.workers.lock().expect("workers lock") = handles;
        engine
    }

    /// The registry this engine scores against.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The prediction cache (for metrics).
    pub fn cache(&self) -> &PredictionCache {
        &self.cache
    }

    /// Statements currently queued.
    pub fn queue_depth(&self) -> usize {
        self.queue.lock().expect("queue lock").jobs.len()
    }

    /// Score `statements` for `problem`: cache hits answer immediately,
    /// misses ride the micro-batching queue. Results come back in input
    /// order, stamped with the generation that scored them. Sheds
    /// (without enqueueing anything) if the misses would overflow the
    /// queue.
    pub fn score(
        &self,
        problem: Problem,
        statements: &[String],
    ) -> Result<ScoredBatch, ScoreError> {
        self.score_opts(problem, statements, ScoreOptions::default())
    }

    /// The full scoring entry point: cache → queue → workers, honoring a
    /// per-request deadline.
    pub fn score_opts(
        &self,
        problem: Problem,
        statements: &[String],
        opts: ScoreOptions<'_>,
    ) -> Result<ScoredBatch, ScoreError> {
        if self.shutdown.load(Ordering::Acquire) {
            return Err(ScoreError::ShuttingDown);
        }
        if let Some(d) = opts.deadline {
            // Shed before spending anything — not even a cache probe —
            // on a request whose client has already given up.
            if Instant::now() >= d {
                self.resilience
                    .deadline_expired
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ScoreError::DeadlineExceeded);
            }
        }
        let live = self.registry.current();
        if live.bundle.model(problem).is_none() {
            return Err(ScoreError::UnknownProblem(problem));
        }
        let generation = live.generation;
        let trace = opts.trace;

        let normalized: Vec<String> = timed("normalize", statements.len() as u64, || {
            statements.iter().map(|s| normalize_statement(s)).collect()
        });
        let mut out: Vec<Option<Prediction>> = vec![None; statements.len()];
        let mut misses: Vec<usize> = Vec::new();
        timed("cache_probe", statements.len() as u64, || {
            for (i, n) in normalized.iter().enumerate() {
                // Duplicate statements within one request dedup through the
                // cache only if an earlier batch already stored them; within
                // this request each occurrence is scored (identical inputs
                // produce identical outputs, so semantics are unaffected).
                match self.cache.get(problem, n, generation) {
                    Some(p) => out[i] = Some(p),
                    None => misses.push(i),
                }
            }
        });

        if !misses.is_empty() {
            let (tx, rx) = mpsc::channel();
            {
                let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
                // Re-checked under the queue lock: `shutdown()` joins
                // workers after setting the flag, so a store observed
                // here means no worker will ever drain jobs we would
                // push — without this check a racing caller could
                // enqueue past a completed shutdown and block on
                // `recv` forever.
                if self.shutdown.load(Ordering::Acquire) {
                    return Err(ScoreError::ShuttingDown);
                }
                if q.jobs.len() + misses.len() > self.cfg.queue_capacity {
                    return Err(ScoreError::Saturated);
                }
                let admitted = Instant::now();
                for &i in &misses {
                    q.jobs.push_back(Job {
                        problem,
                        normalized: normalized[i].clone(),
                        live: Arc::clone(&live),
                        index: i,
                        reply: tx.clone(),
                        deadline: opts.deadline,
                        trace: trace.map(Arc::clone),
                        admitted,
                    });
                }
            }
            self.work_ready.notify_all();
            drop(tx);
            let mut expired = false;
            let mut panicked = false;
            for _ in 0..misses.len() {
                let (i, r) = rx.recv().map_err(|_| ScoreError::ShuttingDown)?;
                match r {
                    Ok(p) => out[i] = Some(p),
                    Err(JobFail::Expired) => expired = true,
                    Err(JobFail::Panicked) => panicked = true,
                }
            }
            if expired {
                self.resilience
                    .deadline_expired
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ScoreError::DeadlineExceeded);
            }
            if panicked {
                return Err(ScoreError::WorkerPanicked);
            }
        }
        Ok(ScoredBatch {
            generation,
            predictions: out
                .into_iter()
                .map(|p| p.expect("every slot filled"))
                .collect(),
        })
    }

    /// Score one batch against the bundle it was admitted under and
    /// populate the cache for that generation.
    fn score_batch_now(
        &self,
        live: &LiveBundle,
        problem: Problem,
        normalized: &[String],
    ) -> Vec<Prediction> {
        // Injection points for the chaos suite: an artificial stall
        // (arg = milliseconds) and a worker panic — caught by the unwind
        // guard in `worker_loop`.
        if let Some(ms) = sqlan_fault::fire_arg("score.stall") {
            std::thread::sleep(Duration::from_millis(ms.max(1)));
        }
        if sqlan_fault::fires("score.panic") {
            panic!("injected: scoring panic");
        }
        let model = live
            .bundle
            .model(problem)
            .expect("admission validated the problem against this same bundle");
        let preds: Vec<Prediction> = timed("batch_score", normalized.len() as u64, || {
            if problem.is_classification() {
                let proba = model.predict_proba_batch(normalized);
                proba
                    .into_iter()
                    .map(|p| Prediction {
                        class: Some(sqlan_ml::argmax(&p)),
                        proba: Some(p),
                        value: None,
                    })
                    .collect()
            } else {
                model
                    .predict_value_batch(normalized)
                    .into_iter()
                    .map(|v| Prediction {
                        class: None,
                        proba: None,
                        value: Some(v),
                    })
                    .collect()
            }
        });
        let n = normalized.len() as u64;
        self.batch_stats.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_stats.statements.fetch_add(n, Ordering::Relaxed);
        self.batch_stats.max_batch.fetch_max(n, Ordering::Relaxed);
        for (s, p) in normalized.iter().zip(&preds) {
            self.cache
                .put(problem, s.clone(), live.generation, p.clone());
        }
        preds
    }

    /// Gather up to the remaining batch capacity of jobs matching `same`
    /// from anywhere in the queue, preserving their relative order.
    fn gather_matching(
        &self,
        q: &mut QueueState,
        batch: &mut Vec<Job>,
        same: &impl Fn(&Job) -> bool,
    ) {
        let mut i = 0;
        while i < q.jobs.len() && batch.len() < self.cfg.max_batch {
            if same(&q.jobs[i]) {
                batch.push(q.jobs.remove(i).expect("index checked"));
            } else {
                i += 1;
            }
        }
    }

    /// Worker: pick the next problem by deficit round robin (per-problem
    /// credit carries over between batches, so no problem starves behind
    /// a flood for another), gather its jobs from anywhere in the queue,
    /// hold the batch open (up to `max_wait`) for stragglers, score,
    /// reply. Within one problem jobs stay in arrival order.
    fn worker_loop(&self) {
        loop {
            let batch: Vec<Job> = {
                let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if !q.jobs.is_empty() {
                        break;
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    q = self
                        .work_ready
                        .wait_timeout(q, Duration::from_millis(50))
                        .expect("queue lock")
                        .0;
                }
                // Oldest queue position per present problem, then the
                // carried-credit winner takes the batch.
                let mut first: [Option<usize>; Problem::ALL.len()] = Default::default();
                for (pos, j) in q.jobs.iter().enumerate() {
                    let slot = &mut first[pidx(j.problem)];
                    if slot.is_none() {
                        *slot = Some(pos);
                    }
                }
                let win = drr_select(&first, &mut q.credit, self.cfg.max_batch as u32);
                let lead = q
                    .jobs
                    .remove(first[win].expect("winner is present"))
                    .expect("position valid");
                let problem = lead.problem;
                let live = Arc::clone(&lead.live);
                let same = |j: &Job| j.problem == problem && Arc::ptr_eq(&j.live, &live);
                let mut batch = vec![lead];
                let deadline = Instant::now() + self.cfg.max_wait;
                loop {
                    self.gather_matching(&mut q, &mut batch, &same);
                    if batch.len() >= self.cfg.max_batch || self.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (guard, timed_out) = self
                        .work_ready
                        .wait_timeout(q, deadline - now)
                        .expect("queue lock");
                    q = guard;
                    if timed_out.timed_out() {
                        // Drain anything that raced in, then close the batch.
                        self.gather_matching(&mut q, &mut batch, &same);
                        break;
                    }
                }
                q.credit[win] = q.credit[win].saturating_sub(batch.len() as u32);
                batch
            };
            // Expired jobs are dropped here, before the model forward —
            // their callers get 504s; the batch scores only live work.
            let now = Instant::now();
            let (batch, expired): (Vec<Job>, Vec<Job>) = batch
                .into_iter()
                .partition(|j| j.deadline.is_none_or(|d| now < d));
            for j in expired {
                let _ = j.reply.send((j.index, Err(JobFail::Expired)));
            }
            if batch.is_empty() {
                continue;
            }
            let problem = batch[0].problem;
            let live = Arc::clone(&batch[0].live);
            let stmts: Vec<String> = batch.iter().map(|j| j.normalized.clone()).collect();
            // One `queue_wait` span per distinct member request (earliest
            // admission among its jobs), then score with every member
            // trace installed so `batch_score` / `featurize` spans fan
            // out to all requests the batch serves.
            let mut member_traces: Vec<(Arc<TraceCtx>, Instant, u64)> = Vec::new();
            for j in &batch {
                if let Some(t) = &j.trace {
                    match member_traces.iter_mut().find(|(x, _, _)| Arc::ptr_eq(x, t)) {
                        Some(e) => {
                            e.1 = e.1.min(j.admitted);
                            e.2 += 1;
                        }
                        None => member_traces.push((Arc::clone(t), j.admitted, 1)),
                    }
                }
            }
            let drained = Instant::now();
            for (t, admitted, n) in &member_traces {
                t.record(
                    "queue_wait",
                    *admitted,
                    drained.saturating_duration_since(*admitted),
                    *n,
                );
            }
            let installed: Vec<Arc<TraceCtx>> = member_traces
                .iter()
                .map(|(t, _, _)| Arc::clone(t))
                .collect();
            // The scoring call is unwind-guarded: a panicking model (or
            // injected fault) fails this batch with typed replies instead
            // of killing the worker and stranding every caller in it.
            let result = catch_unwind(AssertUnwindSafe(|| {
                let _g = install(&installed);
                self.score_batch_now(&live, problem, &stmts)
            }));
            match result {
                Ok(preds) => {
                    for (job, pred) in batch.into_iter().zip(preds) {
                        // A dropped receiver (caller gave up) is fine.
                        let _ = job.reply.send((job.index, Ok(pred)));
                    }
                }
                Err(_) => {
                    self.resilience
                        .worker_panics
                        .fetch_add(1, Ordering::Relaxed);
                    for job in batch {
                        let _ = job.reply.send((job.index, Err(JobFail::Panicked)));
                    }
                }
            }
        }
    }

    /// Stop accepting work, finish queued jobs, join workers.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.work_ready.notify_all();
        let handles = std::mem::take(&mut *self.workers.lock().expect("workers lock"));
        for h in handles {
            let _ = h.join();
        }
        // Workers exit only on an empty queue; anything that raced in
        // after the flag gets its sender dropped here, unblocking callers.
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .jobs
            .clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "ScoringConfig::workers must be at least 1")]
    fn zero_workers_fail_fast_at_start() {
        use sqlan_core::{train_model, Labels, ModelKind, Task, TrainConfig, TrainData};
        let xs: Vec<String> = (0..4).map(|i| format!("SELECT {i} FROM t")).collect();
        let cls = [0usize, 1, 0, 1];
        let model = train_model(
            ModelKind::MFreq,
            Task::Classify(2),
            &TrainData {
                statements: &xs[..2],
                labels: Labels::Classes(&cls[..2]),
                valid_statements: &xs[2..],
                valid_labels: Labels::Classes(&cls[2..]),
            },
            &TrainConfig::tiny(),
            None,
        );
        let dir = std::env::temp_dir().join(format!("sqlan-zero-workers-{}", std::process::id()));
        crate::save_bundle(&dir, "zero", 1, &[(Problem::ErrorClassification, &model)])
            .expect("save");
        let registry = Arc::new(ModelRegistry::open(&dir).expect("open"));
        let _ = std::fs::remove_dir_all(&dir);
        // No engine exists to take jobs: start refuses before any worker
        // or queue is built.
        ScoringEngine::start(
            registry,
            ScoringConfig {
                workers: 0,
                ..ScoringConfig::default()
            },
        );
    }

    #[test]
    fn drr_first_round_is_fifo() {
        // All credits start equal, so the tie breaks to the oldest job.
        let mut credit = [0u32; 4];
        let first = [Some(3), Some(0), None, Some(1)];
        assert_eq!(drr_select(&first, &mut credit, 64), 1);
    }

    #[test]
    fn drr_carried_credit_beats_fifo_flood() {
        // Problem 0 floods (always first in the queue) but problem 1's
        // carried-over credit wins it a batch after waiting one round.
        let mut credit = [0u32; 4];
        let first = [Some(0), Some(5), None, None];
        let w = drr_select(&first, &mut credit, 64);
        assert_eq!(w, 0, "first round is FIFO");
        credit[w] = credit[w].saturating_sub(64); // full batch served
        let w2 = drr_select(&first, &mut credit, 64);
        assert_eq!(w2, 1, "waiting problem carried its credit over");
    }

    #[test]
    fn drr_absent_problem_forfeits_credit() {
        let mut credit = [0u32, 200, 0, 0];
        let first = [Some(0), None, None, None];
        assert_eq!(drr_select(&first, &mut credit, 64), 0);
        assert_eq!(credit[1], 0, "idle problem cannot hoard credit");
    }

    #[test]
    fn drr_credit_is_capped() {
        let mut credit = [0u32; 4];
        // Present but never served: credit must not grow unbounded.
        let first = [Some(0), Some(1), None, None];
        for _ in 0..100 {
            let w = drr_select(&first, &mut credit, 64);
            credit[w] = credit[w].saturating_sub(64);
        }
        assert!(credit.iter().all(|&c| c <= 4 * 64));
    }
}
