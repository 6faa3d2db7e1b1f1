//! Service counters and the `/metrics` snapshot, backed by the
//! lock-free [`sqlan_obs`] registry.
//!
//! Every request-path observation is an atomic `fetch_add`: counters per
//! response class and per problem, plus a log-linear histogram for
//! `/predict` service time. The old mutex-guarded latency ring (and its
//! `expect("latency ring poisoned")` panic path) is gone — the histogram
//! never locks and never loses increments. The same registry renders as
//! both the legacy JSON [`MetricsSnapshot`] and Prometheus text
//! (`GET /metrics?format=prom`), and a bounded [`TraceRing`] retains the
//! most recent completed request traces for `GET /debug/trace`.

use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use sqlan_core::Problem;
use sqlan_metrics::LatencySummary;
use sqlan_obs::{Counter, Gauge, Histogram, MetricRegistry, TraceRing};

/// Completed request traces retained for `GET /debug/trace`.
const TRACE_RING_CAPACITY: usize = 256;

/// Position of a problem in the per-problem statement counters.
fn pidx(p: Problem) -> usize {
    Problem::ALL
        .iter()
        .position(|&q| q == p)
        .expect("Problem::ALL is exhaustive")
}

/// Live counters for one server instance. All hot-path methods are
/// lock-free; the registry mutex is touched only at construction and
/// scrape time.
#[derive(Debug)]
pub struct ServeMetrics {
    started: Instant,
    registry: MetricRegistry,
    traces: TraceRing,
    http_requests: Arc<Counter>,
    /// Response-class counters, indexed 2xx / 4xx / 5xx. Every response
    /// from routing increments exactly one class and `http_requests`, so
    /// at quiescence `http_requests == responses.iter().sum()` — the
    /// counter algebra `tests/chaos.rs` asserts.
    responses: [Arc<Counter>; 3],
    predict_requests: Arc<Counter>,
    /// Statements scored in 200 responses, one counter per problem. The
    /// JSON `statements` field is the sum, so it always equals the sum
    /// of the per-problem Prometheus series.
    statements: [Arc<Counter>; 4],
    shed: Arc<Counter>,
    client_errors: Arc<Counter>,
    /// `/predict` service time in nanoseconds (scale 1e-9 → seconds).
    request_duration_ns: Arc<Histogram>,
    // Scrape-time mirrors of engine-owned state (cache, batch stats,
    // queue) synced via `Counter::store` so Prometheus sees them.
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    batches: Arc<Counter>,
    batched_statements: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    cache_entries: Arc<Gauge>,
    generation: Arc<Gauge>,
    uptime: Arc<Gauge>,
    // Resilience mirrors (engine / registry owned, synced at scrape).
    deadline_expired: Arc<Counter>,
    worker_panics: Arc<Counter>,
    worker_respawns: Arc<Counter>,
    breaker_opens: Arc<Counter>,
    breaker_open: Arc<Gauge>,
}

impl Default for ServeMetrics {
    fn default() -> ServeMetrics {
        let registry = MetricRegistry::new();
        let http_requests = registry.counter(
            "sqlan_http_requests_total",
            "HTTP requests parsed and routed, any route",
        );
        let responses = ["2xx", "4xx", "5xx"].map(|class| {
            registry.counter_with(
                "sqlan_http_responses_total",
                "HTTP responses by status class",
                &[("class", class)],
            )
        });
        let predict_requests = registry.counter(
            "sqlan_predict_requests_total",
            "POST /predict requests answered 200",
        );
        let statements = Problem::ALL.map(|p| {
            registry.counter_with(
                "sqlan_statements_total",
                "statements scored in 200 responses, by problem",
                &[("problem", p.name())],
            )
        });
        let shed = registry.counter("sqlan_shed_total", "requests shed with 503");
        let client_errors = registry.counter(
            "sqlan_client_errors_total",
            "4xx responses plus protocol parse errors",
        );
        let request_duration_ns = registry.histogram(
            "sqlan_request_duration_seconds",
            "POST /predict service time",
            1e-9,
        );
        let cache_hits = registry.counter(
            "sqlan_prediction_cache_hits_total",
            "prediction cache hits (synced at scrape)",
        );
        let cache_misses = registry.counter(
            "sqlan_prediction_cache_misses_total",
            "prediction cache misses (synced at scrape)",
        );
        let batches = registry.counter(
            "sqlan_score_batches_total",
            "micro-batches scored (synced at scrape)",
        );
        let batched_statements = registry.counter(
            "sqlan_score_batched_statements_total",
            "statements scored through micro-batches (synced at scrape)",
        );
        let queue_depth = registry.gauge("sqlan_queue_depth", "scoring queue depth at scrape");
        let cache_entries =
            registry.gauge("sqlan_prediction_cache_entries", "resident cache entries");
        let generation = registry.gauge("sqlan_bundle_generation", "live bundle generation");
        let uptime = registry.gauge("sqlan_uptime_seconds", "seconds since server start");
        let deadline_expired = registry.counter(
            "sqlan_deadline_expired_total",
            "requests shed 504 because their deadline passed (synced at scrape)",
        );
        let worker_panics = registry.counter(
            "sqlan_score_panics_total",
            "scoring batches that panicked and were caught (synced at scrape)",
        );
        let worker_respawns = registry.counter(
            "sqlan_score_worker_respawns_total",
            "scoring worker threads respawned after an escaped unwind (synced at scrape)",
        );
        let breaker_opens = registry.counter(
            "sqlan_reload_breaker_opens_total",
            "times the reload circuit breaker opened (synced at scrape)",
        );
        let breaker_open = registry.gauge(
            "sqlan_reload_breaker_open",
            "1 while the reload circuit breaker is fast-failing",
        );
        ServeMetrics {
            started: Instant::now(),
            registry,
            traces: TraceRing::new(TRACE_RING_CAPACITY),
            http_requests,
            responses,
            predict_requests,
            statements,
            shed,
            client_errors,
            request_duration_ns,
            cache_hits,
            cache_misses,
            batches,
            batched_statements,
            queue_depth,
            cache_entries,
            generation,
            uptime,
            deadline_expired,
            worker_panics,
            worker_respawns,
            breaker_opens,
            breaker_open,
        }
    }
}

impl ServeMetrics {
    /// The registry backing these counters, for Prometheus exposition.
    pub fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    /// Completed request traces for `GET /debug/trace`.
    pub fn traces(&self) -> &TraceRing {
        &self.traces
    }

    /// Count one routed response: its status class, the legacy
    /// `client_errors` (4xx) / `shed` (503) counters, and the request
    /// total.
    pub fn on_response(&self, status: u16) {
        let class = match status {
            400..=499 => 1,
            500..=599 => 2,
            _ => 0,
        };
        self.responses[class].inc();
        if class == 1 {
            self.client_errors.inc();
        } else if status == 503 {
            self.shed.inc();
        }
        self.http_requests.inc();
    }

    /// Count a protocol violation that never reached routing (no
    /// response class — the connection handler answers it directly).
    pub fn on_parse_error(&self) {
        self.client_errors.inc();
    }

    /// Record one served `/predict` request: `statements` scored for
    /// `problem` in `latency_ns` nanoseconds.
    pub fn observe_predict(&self, problem: Problem, statements: u64, latency_ns: u64) {
        self.predict_requests.inc();
        self.statements[pidx(problem)].add(statements);
        self.request_duration_ns.record(latency_ns);
    }

    /// Mirror engine-owned stats into the registry so a Prometheus
    /// scrape sees them; called from `/metrics` only.
    #[allow(clippy::too_many_arguments)]
    pub fn sync_engine_stats(
        &self,
        cache_hits: u64,
        cache_misses: u64,
        cache_entries: u64,
        batches: u64,
        batched_statements: u64,
        queue_depth: u64,
        generation: u64,
    ) {
        self.cache_hits.store(cache_hits);
        self.cache_misses.store(cache_misses);
        self.cache_entries.set(cache_entries as f64);
        self.batches.store(batches);
        self.batched_statements.store(batched_statements);
        self.queue_depth.set(queue_depth as f64);
        self.generation.set(generation as f64);
        self.uptime.set(self.uptime_s());
    }

    /// Mirror the engine's [`crate::scoring::ResilienceStats`] and the
    /// registry breaker state into the registry; called from `/metrics`.
    pub fn sync_resilience(
        &self,
        stats: &crate::scoring::ResilienceStats,
        breaker_opens: u64,
        breaker_open: bool,
    ) {
        use std::sync::atomic::Ordering::Relaxed;
        self.deadline_expired
            .store(stats.deadline_expired.load(Relaxed));
        self.worker_panics.store(stats.worker_panics.load(Relaxed));
        self.worker_respawns
            .store(stats.worker_respawns.load(Relaxed));
        self.breaker_opens.store(breaker_opens);
        self.breaker_open.set(if breaker_open { 1.0 } else { 0.0 });
    }

    pub fn http_requests(&self) -> u64 {
        self.http_requests.get()
    }

    /// (2xx, 4xx, 5xx) response counts.
    pub fn responses_by_class(&self) -> [u64; 3] {
        [
            self.responses[0].get(),
            self.responses[1].get(),
            self.responses[2].get(),
        ]
    }

    pub fn predict_requests(&self) -> u64 {
        self.predict_requests.get()
    }

    /// Statements scored across all 200 responses — by construction the
    /// sum of the per-problem counters.
    pub fn statements_total(&self) -> u64 {
        self.statements.iter().map(|c| c.get()).sum()
    }

    /// Per-problem statement counts, in [`Problem::ALL`] order.
    pub fn statements_per_problem(&self) -> Vec<u64> {
        self.statements.iter().map(|c| c.get()).collect()
    }

    pub fn shed(&self) -> u64 {
        self.shed.get()
    }

    pub fn client_errors(&self) -> u64 {
        self.client_errors.get()
    }

    /// Summarize the request-duration histogram in the shape the JSON
    /// snapshot has always carried. Quantiles are bucket midpoints
    /// (≤ 1/32 relative error); the summary now covers the server's
    /// whole lifetime rather than the last 8k samples.
    pub fn latency_summary(&self) -> LatencySummary {
        let snap = self.request_duration_ns.snapshot();
        let count = snap.count();
        let q = |p: f64| snap.quantile(p).unwrap_or(0) as f64 * 1e-9;
        LatencySummary::from_stats(
            count as usize,
            snap.mean().unwrap_or(f64::NAN) * 1e-9,
            q(0.50),
            q(0.95),
            q(0.99),
            snap.max as f64 * 1e-9,
        )
    }

    pub fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// The JSON body `/metrics` returns.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub uptime_s: f64,
    pub generation: u64,
    pub http_requests: u64,
    pub predict_requests: u64,
    pub statements: u64,
    pub shed: u64,
    pub client_errors: u64,
    /// Responses by status class. Every routed response lands in exactly
    /// one, so at quiescence `http_requests == 2xx + 4xx + 5xx`.
    pub responses_2xx: u64,
    pub responses_4xx: u64,
    pub responses_5xx: u64,
    /// Statements scored per problem wire name, same order as
    /// [`Problem::ALL`]; `statements` is their sum.
    pub statements_by_problem: Vec<u64>,
    /// Scored statements per second of uptime.
    pub statement_qps: f64,
    /// Served predict requests per second of uptime.
    pub request_qps: f64,
    pub latency: LatencySummary,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// hits / (hits + misses), 0 when nothing has been looked up.
    pub cache_hit_rate: f64,
    pub cache_entries: u64,
    pub batches: u64,
    pub batched_statements: u64,
    /// batched_statements / batches — the achieved micro-batch size.
    pub mean_batch: f64,
    pub max_batch: u64,
    pub queue_depth: u64,
    /// Requests shed 504 because their deadline passed.
    pub deadline_expired: u64,
    /// Scoring batches that panicked and were caught.
    pub worker_panics: u64,
    /// Scoring worker threads respawned after an escaped unwind.
    pub worker_respawns: u64,
    /// Times the reload circuit breaker opened.
    pub breaker_opens: u64,
    /// 1 while the breaker is currently fast-failing reloads.
    pub breaker_open: u64,
}

impl MetricsSnapshot {
    /// Per-problem statement counts as `(wire name, count)` pairs.
    pub fn statements_per_problem(&self) -> Vec<(&'static str, u64)> {
        Problem::ALL
            .iter()
            .zip(&self.statements_by_problem)
            .map(|(p, &n)| (p.name(), n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_classes_partition_requests() {
        let m = ServeMetrics::default();
        for status in [200u16, 200, 400, 404, 503, 500] {
            m.on_response(status);
        }
        assert_eq!(m.http_requests(), 6);
        assert_eq!(m.responses_by_class(), [2, 2, 2]);
        assert_eq!(m.client_errors(), 2);
        assert_eq!(m.shed(), 1);
        m.on_parse_error();
        assert_eq!(m.client_errors(), 3);
        assert_eq!(m.http_requests(), 6, "parse errors are not routed requests");
    }

    #[test]
    fn statements_total_is_per_problem_sum() {
        let m = ServeMetrics::default();
        m.observe_predict(Problem::ErrorClassification, 5, 1_000);
        m.observe_predict(Problem::CpuTime, 7, 2_000);
        m.observe_predict(Problem::CpuTime, 1, 500);
        assert_eq!(m.predict_requests(), 3);
        assert_eq!(m.statements_total(), 13);
        let summary = m.latency_summary();
        assert_eq!(summary.count, 3);
        assert!(summary.p50_s > 0.0);
    }

    #[test]
    fn empty_latency_summary_matches_legacy_shape() {
        let m = ServeMetrics::default();
        let s = m.latency_summary();
        assert_eq!(s.count, 0);
        assert!(s.p50_s.is_nan() && s.mean_s.is_nan());
    }
}
