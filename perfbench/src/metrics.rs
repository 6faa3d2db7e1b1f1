//! The catalogue of every metric the benchmark reports, by name and
//! unit. Every workload reports all of them: the end-to-end ones when
//! untraced, the per-layer ones when traced. `BENCHMARK.json` lists the
//! same names and units (the benchmark's tests hold the two together).

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// Reported by untraced runs.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s"),
    spec("peak_rss_mb", "MB"),
    spec("label_stmts_per_s", "stmts/s"),
    spec("train_tfidf_examples_per_s", "example-epochs/s"),
    spec("train_cnn_examples_per_s", "example-epochs/s"),
    spec("train_lstm_examples_per_s", "example-epochs/s"),
    spec("predict_p50_ms", "ms"),
    spec("predict_stmts_per_s", "stmts/s"),
];

/// Reported by traced runs.
pub const PER_LAYER: &[Spec] = &[
    // sqlan-workload
    spec("workload.generate_s", "s"),
    // sqlan-sql
    spec("sql.fingerprint_us_p50", "us"),
    spec("sql.parse_us_p50", "us"),
    spec("sql.normalize_us_p50", "us"),
    // sqlan-engine, per outcome class of the labelled statements
    spec("engine.submit_s.success", "s"),
    spec("engine.submit_s.non_severe", "s"),
    spec("engine.submit_s.severe", "s"),
    spec("engine.submit_count.success", "count"),
    spec("engine.submit_count.non_severe", "count"),
    spec("engine.submit_count.severe", "count"),
    spec("engine.submit_us_p50", "us"),
    spec("engine.row_only_s.non_severe", "s"),
    spec("engine.plan_cache_hit_ratio", "ratio"),
    spec("engine.plan_cache_entries", "count"),
    // sqlan-par
    spec("par.label_speedup", "x"),
    // sqlan-features
    spec("features.tfidf_fit_s", "s"),
    spec("features.tfidf_transform_us_p50", "us"),
    // sqlan-core / sqlan-nn / sqlan-ml
    spec("model.train_s.ctfidf", "s"),
    spec("model.train_s.wtfidf", "s"),
    spec("model.train_s.ccnn", "s"),
    spec("model.train_s.wcnn", "s"),
    spec("model.train_s.clstm", "s"),
    spec("model.train_s.wlstm", "s"),
    spec("model.forward_us.wtfidf.b1", "us"),
    spec("model.forward_us.wcnn.b1", "us"),
    spec("model.forward_us.wlstm.b1", "us"),
    spec("model.forward_us.ccnn.b1", "us"),
    spec("model.forward_us.wtfidf.b64", "us"),
    spec("model.forward_us.wcnn.b64", "us"),
    spec("model.forward_us.wlstm.b64", "us"),
    spec("model.forward_us.ccnn.b64", "us"),
    // sqlan-serve
    spec("serve.bundle_save_s", "s"),
    spec("serve.bundle_bytes", "bytes"),
    spec("serve.bundle_load_s", "s"),
    spec("serve.score_ms_p50", "ms"),
    spec("serve.score_ms_p50.max_wait_0", "ms"),
    spec("serve.queue_wait_ms_p50", "ms"),
    spec("serve.queue_wait_ms_p50.bulk", "ms"),
    spec("serve.batch_size_mean", "stmts"),
    spec("serve.cache_hit_ratio", "ratio"),
    // sqlan-net (HTTP) and the load generator
    spec("net.http_overhead_ms_p50", "ms"),
    spec("predict_requests", "count"),
    spec("predict_p90_ms", "ms"),
    spec("predict_p99_ms", "ms"),
    spec("predict_p99_samples", "count"),
    spec("predict_latency_ms_p50", "ms"),
    spec("gen.late_ms_max", "ms"),
    // Self time per layer in the traced pass; with `unattributed_s` it
    // adds up to `traced_wall_s`.
    spec("self_s.workload", "s"),
    spec("self_s.sql", "s"),
    spec("self_s.engine", "s"),
    spec("self_s.features", "s"),
    spec("self_s.model", "s"),
    spec("self_s.serve", "s"),
    spec("self_s.net", "s"),
    spec("self_s.gen", "s"),
    spec("unattributed_s", "s"),
    spec("traced_wall_s", "s"),
    spec("trace_overhead_s", "s"),
];

/// The metrics every run of the mode must report.
pub fn expected(traced: bool) -> &'static [Spec] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}
