//! # sqlan-workload
//!
//! Synthetic SDSS-like and SQLShare-like query workloads for the `sqlan`
//! reproduction of *"Facilitating SQL Query Composition and Analysis"*
//! (SIGMOD 2020).
//!
//! We cannot redistribute the original workloads, so this crate rebuilds
//! their *generating process*: per-session-class query templates, hit-
//! stream simulation with 30-minute-gap session identification, execution
//! against a deterministic engine for ground-truth labels, and the paper's
//! extraction pipeline (per-session sampling, statement dedup with label
//! aggregation). The substitution keeps what the learning problem
//! depends on: each label follows from the statement text and the
//! seeded catalog, and session classes differ in syntactic style as
//! they do in the paper's logs.
//!
//! ```
//! use sqlan_workload::{build_sdss, SdssConfig, Scale};
//!
//! let workload = build_sdss(SdssConfig { n_sessions: 100, scale: Scale(0.02), seed: 1 });
//! assert!(!workload.is_empty());
//! // Every entry has the paper's labels attached.
//! let e = &workload.entries[0];
//! assert!(e.session_class.is_some());
//! ```

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod build;
pub mod labels;
pub mod schema;
pub mod session;
pub mod split;
pub mod templates;

pub use analysis::{
    by_session_class, pearson, repetition_histogram, statement_type_shares, BoxStats, LogHistogram,
    PropsMatrix, SummaryStats,
};
pub use build::{
    build_sdss, build_sqlshare, sdss_database, sqlshare_database, SdssConfig, SqlShareConfig,
    Workload,
};
pub use labels::{ErrorClass, Hit, SessionClass, WorkloadEntry};
pub use schema::{sdss_catalog, sqlshare_catalog, Scale, UserSchema};
pub use session::{
    identify_sessions, simulate_sessions, GeneratedSession, IdentifiedSession, SESSION_GAP_SECONDS,
};
pub use split::{random_split, split_by_user, split_with_fractions, Split};
pub use templates::{sdss_statement, sqlshare_statement};
