//! Bridge from engine internals to the process-global [`sqlan_obs`]
//! registry.
//!
//! The engine is a library — it owns no registry of its own.  Everything
//! it reports lands in [`sqlan_obs::global()`], where the serving layer's
//! `/metrics?format=prom` endpoint merges it with the per-server
//! registry.  All handles are resolved once through `OnceLock` so the
//! hot paths (plan-cache probes, per-operator timing) pay one atomic
//! load, never a registry lookup.  Every recording site is additionally
//! gated on [`sqlan_obs::enabled()`]: with observability switched off
//! ([`sqlan_obs::set_enabled`]) the engine performs no metric work at
//! all, which is what makes the pure-observer contract (`submit`
//! outcomes byte-identical with obs on or off) easy to audit — no
//! counter here is ever read back by execution code.

use std::sync::{Arc, OnceLock};

use sqlan_obs::{Counter, Histogram};

/// Plan-cache probe counters: template found / template absent /
/// statement fell back to the uncached path (unclean lex, parse error,
/// fingerprint slot mismatch).
pub(crate) struct PlanCacheCounters {
    pub hits: Arc<Counter>,
    pub misses: Arc<Counter>,
    pub bypass: Arc<Counter>,
}

pub(crate) fn plan_cache_counters() -> &'static PlanCacheCounters {
    static C: OnceLock<PlanCacheCounters> = OnceLock::new();
    C.get_or_init(|| {
        let r = sqlan_obs::global();
        PlanCacheCounters {
            hits: r.counter(
                "sqlan_plan_cache_hits_total",
                "Template plan cache probes that found a cached skeleton",
            ),
            misses: r.counter(
                "sqlan_plan_cache_misses_total",
                "Template plan cache probes that found no cached skeleton",
            ),
            bypass: r.counter(
                "sqlan_plan_cache_bypass_total",
                "Statements that bypassed the template plan cache (unclean lex, parse error, or slot mismatch)",
            ),
        }
    })
}

/// Per-operator wall time observed by `EXPLAIN ANALYZE`, seconds.
pub(crate) fn op_wall_hist() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        sqlan_obs::global().histogram(
            "sqlan_engine_op_wall_seconds",
            "Observed wall time per physical operator under EXPLAIN ANALYZE",
            1e-9,
        )
    })
}

/// Failed columnar operators settled on their row twins.
pub(crate) fn row_twins_total() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| {
        sqlan_obs::global().counter(
            "sqlan_engine_row_twins_total",
            "Failed columnar operators settled on their row-engine twins",
        )
    })
}

/// Statements submitted through [`Database::submit`], by outcome class.
///
/// [`Database::submit`]: crate::Database::submit
pub(crate) struct SubmitCounters {
    pub success: Arc<Counter>,
    pub non_severe: Arc<Counter>,
    pub severe: Arc<Counter>,
}

pub(crate) fn submit_counters() -> &'static SubmitCounters {
    static C: OnceLock<SubmitCounters> = OnceLock::new();
    C.get_or_init(|| {
        let r = sqlan_obs::global();
        SubmitCounters {
            success: r.counter_with(
                "sqlan_engine_submits_total",
                "Statements submitted to the engine, by outcome error class",
                &[("class", "success")],
            ),
            non_severe: r.counter_with(
                "sqlan_engine_submits_total",
                "Statements submitted to the engine, by outcome error class",
                &[("class", "non_severe")],
            ),
            severe: r.counter_with(
                "sqlan_engine_submits_total",
                "Statements submitted to the engine, by outcome error class",
                &[("class", "severe")],
            ),
        }
    })
}
