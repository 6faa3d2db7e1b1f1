//! # sqlan-serve
//!
//! The online prediction service: the paper's promise — telling a user
//! *before execution* whether a query will error, how long it will run,
//! and how big the answer will be — only pays off if predictions are
//! served at interactive latency to many concurrent users. This crate
//! turns the trained model zoo into that service, in four layers:
//!
//! 1. **Model artifacts** ([`bundle`]): a versioned on-disk bundle
//!    (manifest + one `TrainedModel` JSON per problem), written
//!    atomically, validated on load.
//! 2. **Registry** ([`registry`]): the live bundle behind an
//!    `RwLock<Arc<_>>` — readers clone the `Arc` and never block on a
//!    hot-swap reload.
//! 3. **Batched scoring** ([`scoring`] + [`cache`]): a bounded
//!    micro-batching queue scored through the `predict_*_batch` APIs
//!    (which fan out on the [`sqlan_par`] pool), fronted by a sharded
//!    LRU cache keyed on normalized statement text. Saturation sheds.
//! 4. **HTTP front end** ([`server`]): the `sqlan-net` epoll event
//!    loop, consuming its sans-io parser, with keep-alive,
//!    `POST /predict`, `GET /healthz`, `GET /metrics`, and
//!    `POST /reload`. Serving is Linux-only, like `sqlan-net`.
//!
//! See `crates/serve/README.md` for a quickstart and
//! `crates/bench/src/bin/bench_serve.rs` for the closed-loop load
//! generator that measures it.

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod bundle;
pub mod cache;
pub mod client;
pub mod metrics;
pub mod registry;
pub mod scoring;
pub mod server;

pub use bundle::{load_bundle, save_bundle, Bundle, BundleError, BundleManifest, ManifestEntry};
pub use cache::{normalize_statement, PredictionCache};
pub use client::{Client, RetryPolicy};
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use registry::{LiveBundle, ModelRegistry};
pub use scoring::{Prediction, ScoreError, ScoredBatch, ScoringConfig, ScoringEngine};
pub use server::{
    start, ErrorResponse, HealthResponse, PredictRequest, PredictResponse, ReloadRequest,
    ReloadResponse, ServeConfig, ServerHandle, TraceDump, TraceEntry, TraceSpan,
};
