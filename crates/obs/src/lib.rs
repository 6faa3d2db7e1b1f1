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
//! * **The kill switch** ([`enabled`], `SQLAN_OBS`) — tracing is a *pure
//!   observer*: predictions, golden labels and trained parameters are
//!   byte-identical with observability on or off, and `off` reduces
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

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

pub use hist::{HistSnapshot, Histogram};
pub use metric::{Counter, Gauge};
pub use registry::{Kind, MetricRegistry, RegistrySnapshot, SeriesValue};
pub use trace::{CompletedTrace, SpanRec, TraceCtx, TraceRing};

/// Environment variable toggling observability: `off`/`0`/`false`
/// disable tracing and engine-side instrumentation; anything else (or
/// unset) leaves it on.
pub const OBS_ENV: &str = "SQLAN_OBS";

const STATE_UNRESOLVED: u8 = 0;
const STATE_ON: u8 = 1;
const STATE_OFF: u8 = 2;
static ENABLED: AtomicU8 = AtomicU8::new(STATE_UNRESOLVED);

/// Whether observability is on. Resolved from `SQLAN_OBS` on first call
/// and cached; one relaxed load afterwards, cheap enough for every span
/// site to check.
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => {
            let on = match std::env::var(OBS_ENV) {
                Ok(v) => !matches!(
                    v.trim().to_ascii_lowercase().as_str(),
                    "off" | "0" | "false"
                ),
                Err(_) => true,
            };
            ENABLED.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
            on
        }
    }
}

/// Programmatic override of [`enabled`] — used by tests (serve's
/// `obs_e2e` and its obs-on/obs-off throughput A/B `obs_overhead`),
/// which must flip the flag inside one process.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
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
