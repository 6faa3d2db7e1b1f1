//! # sqlan-engine
//!
//! An in-memory columnar relational engine with **deterministic cost
//! accounting**, built as the label-generating substrate for the `sqlan`
//! reproduction of *"Facilitating SQL Query Composition and Analysis"*
//! (SIGMOD 2020).
//!
//! The paper's workloads carry three execution-derived labels per query:
//! error class, answer size, and CPU time. We cannot obtain the original
//! SDSS/SQLShare databases, so this engine executes synthesized queries
//! over synthesized catalogs and produces those labels from first
//! principles — structure in, labels out — preserving the learning
//! problem's causal shape (see DESIGN.md §2).
//!
//! ```
//! use sqlan_engine::{Catalog, ColumnSpec, Database, ErrorClass, TableSpec};
//!
//! let catalog = Catalog::generate(
//!     &[TableSpec::new("Galaxy", 1000)
//!         .column("objid", ColumnSpec::SeqId)
//!         .column("ra", ColumnSpec::Uniform(0.0, 360.0))],
//!     42,
//! );
//! let db = Database::new(catalog);
//! let out = db.submit("SELECT count(*) FROM Galaxy WHERE ra < 180");
//! assert_eq!(out.error_class, ErrorClass::Success);
//! assert_eq!(out.answer_size, 1);
//! ```

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod cost;
pub mod db;
pub mod error;
pub mod eval;
pub mod exec;
pub mod functions;
mod obs;
pub mod optimizer;
pub mod physical;
pub mod plan;
pub mod plan_cache;
pub mod relation;
pub mod value;

pub use catalog::{Catalog, ColType, ColumnDef, ColumnSpec, ColumnVec, Table, TableSpec};
pub use cost::{estimate_cost, estimate_plan, CostCounter, CostEstimate};
pub use db::{Database, QueryOutcome};
pub use error::{ErrorClass, RuntimeError};
pub use exec::{Engine, ExecCtx, ExecLimits, OpStats};
pub use functions::{FnRegistry, ScalarFn};
pub use optimizer::OptLevel;
pub use plan::{lower, FoldStep, JoinStrategy, LogicalPlan, QueryPlan, SelectOp};
pub use plan_cache::{CachedTemplate, PlanCache, PlanCacheStats, DEFAULT_PLAN_CACHE_CAPACITY};
pub use relation::{ColRef, ColumnBatch, Relation};
pub use value::{Column, ColumnBuilder, Value};
