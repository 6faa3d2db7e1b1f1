//! `sqlan-obs` — the workspace's observability core.
//!
//! Dependency-free by design: every layer of the stack (engine,
//! featurizers, scoring queue, HTTP edge) instruments through this crate,
//! so it sits below all of them and pulls in nothing.
//!
//! Three pieces:
//!
//! * **Metrics** ([`registry`], [`metric`], [`hist`]) — named families of
//!   lock-free counters, gauges and log-linear histograms with mergeable
//!   snapshots, rendered to Prometheus text by [`prom::render`].
//! * **Tracing** ([`trace`]) — per-request span collection carried
//!   through the scoring queue and bridged into the engine via a
//!   thread-local install stack; completed traces land in a bounded
//!   ring and slow requests can log to stderr (`SQLAN_SLOW_MS`).
//! * **The kill switch** ([`enabled`], [`set_enabled`]) — tracing is a
//!   *pure observer*: predictions, golden labels and trained parameters
//!   are byte-identical with observability on or off, and `off` reduces
//!   every span call site to a relaxed atomic load.
//!
//! Registries come in two flavors: per-instance ([`MetricRegistry::new`])
//! for serving metrics, where tests boot many servers per process and
//! counters must not bleed between them, and one process-wide [`global`]
//! registry for engine/featurizer instrumentation, where a single shared
//! namespace is the point.

pub mod hist;
pub mod metric;
pub mod prom;
pub mod registry;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

pub use hist::{HistSnapshot, Histogram};
pub use metric::{Counter, Gauge};
pub use registry::{Kind, MetricRegistry, RegistrySnapshot, SeriesValue};
pub use trace::{CompletedTrace, SpanRec, TraceCtx, TraceRing};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether observability is on (it starts on). One relaxed load, cheap
/// enough for every span site to check.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Switch observability on or off for the whole process — used by tests
/// (the golden-label pin, serve's `obs_e2e` and its obs-on/obs-off
/// throughput A/B `obs_overhead`), which must flip the flag inside one
/// process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide registry for engine and featurizer metrics
/// (plan-cache hit/miss/bypass, EXPLAIN ANALYZE operator wall time,
/// featurize latency). Serving metrics live in per-server registries
/// instead; `/metrics` renders both.
pub fn global() -> &'static MetricRegistry {
    static GLOBAL: OnceLock<MetricRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        global()
            .counter("sqlan_obs_selftest_total", "self test")
            .inc();
        global()
            .counter("sqlan_obs_selftest_total", "self test")
            .inc();
        assert_eq!(
            global()
                .counter("sqlan_obs_selftest_total", "self test")
                .get(),
            2
        );
    }
}
