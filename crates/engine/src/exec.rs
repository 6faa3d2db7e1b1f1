//! Execution context and entry point.
//!
//! Queries run through an explicit three-layer pipeline:
//!
//! 1. [`crate::plan`] lowers the AST into a [`crate::plan::QueryPlan`];
//! 2. [`crate::optimizer::plan`] rewrites the plan at the context's
//!    [`OptLevel`] (predicate pushdown, then equi-join detection);
//! 3. [`crate::physical`] executes the optimized plan, charging every row
//!    touched, function called, comparison sorted and hash probed to a
//!    [`crate::CostCounter`]; the resulting deterministic cost is the
//!    CPU-time label of the workload entry.
//!
//! This module owns the shared state threaded through that pipeline: the
//! catalog/function registry borrows, resource budgets, the cost counter,
//! the uncorrelated-subquery cache, and the per-statement plan cache
//! (correlated subqueries re-execute per outer row; caching plans by AST
//! identity keeps re-planning out of the hot loop **and** keeps the
//! subquery result cache stable, since cache keys are expression
//! addresses inside the cached plan).

use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use sqlan_sql::{Expr, Query};

use crate::catalog::Catalog;
use crate::cost::CostCounter;
use crate::error::RuntimeError;
use crate::functions::FnRegistry;
use crate::optimizer::OptLevel;
use crate::plan::QueryPlan;
use crate::relation::{ColumnBatch, Relation};
use crate::value::Value;

// Former residents of this module, re-exported for compatibility: conjunct
// analysis moved into the plan/optimizer layers.
pub use crate::optimizer::equi_join_keys;
pub use crate::plan::{query_has_aggregate, split_conjuncts};

/// Budget limits standing in for the server-side timeouts real portals
/// enforce. Exceeding them raises [`RuntimeError::ResourceExhausted`].
#[derive(Debug, Clone, Copy)]
pub struct ExecLimits {
    /// Maximum rows in any materialized relation.
    pub max_rows: usize,
    /// Maximum total cost units.
    pub max_units: u64,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            max_rows: 400_000,
            max_units: 2_000_000_000,
        }
    }
}

/// Which execution engine runs query plans.
///
/// Both engines produce byte-identical results and [`CostCounter`]
/// charges on every statement: each columnar operator charges what its
/// row twin charges when it succeeds, and an operator that fails is
/// settled on its row twin (`ExecCtx::settle`), whose charge *order*
/// up to the abort point is the label contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Row-at-a-time interpretation (`Vec<Vec<Value>>` pulls).
    Row,
    /// Vectorized columnar batches with selection vectors (the default).
    #[default]
    Columnar,
}

/// One executed operator's observed statistics (EXPLAIN ANALYZE).
#[derive(Debug, Clone)]
pub struct OpStats {
    /// Operator description, e.g. `Filter (p.type = 0)`.
    pub op: String,
    /// Rows the operator produced.
    pub rows: u64,
    /// Cost units charged while it (and everything it evaluated, nested
    /// subqueries included) ran.
    pub units: u64,
    /// Wall-clock nanoseconds elapsed while it ran.  Unlike `units`, this
    /// is real machine time — diagnostic only, never part of any label.
    pub wall_ns: u64,
    /// The operator returned the statement's error: `rows` is 0 and
    /// `units` is what it charged before aborting.
    pub failed: bool,
}

/// The EXPLAIN ANALYZE log of one root plan while it runs: each
/// operator's charge is the counter's growth since the previous one.
pub(crate) struct OpLog {
    stats: Vec<OpStats>,
    units: u64,
    at: Instant,
}

/// What an operator produced, as EXPLAIN ANALYZE counts it.
pub(crate) trait OpOutput {
    fn rows(&self) -> usize;
}

impl OpOutput for Relation {
    fn rows(&self) -> usize {
        self.len()
    }
}

impl OpOutput for ColumnBatch {
    fn rows(&self) -> usize {
        self.len()
    }
}

/// Execution context shared down the query tree.
pub struct ExecCtx<'a> {
    pub catalog: &'a Catalog,
    pub fns: &'a FnRegistry,
    pub limits: ExecLimits,
    pub counter: CostCounter,
    level: OptLevel,
    engine: Engine,
    /// Armed by EXPLAIN ANALYZE: the root plan's operators log their
    /// observed row counts and cost charges here.
    pub(crate) analyze: Option<Vec<OpStats>>,
    /// Cache of uncorrelated subquery results keyed by AST address.
    subquery_cache: HashMap<usize, CachedSubquery>,
    /// Keys of `subquery_cache` in insertion order, so a failed columnar
    /// operator can drop what its attempt cached.
    cache_journal: Vec<usize>,
    /// Row twins run by [`ExecCtx::settle`] (diagnostic only).
    row_twins: u64,
    /// Optimized plans keyed by `Query` AST address (stable for the
    /// lifetime of this context).
    plan_cache: HashMap<usize, Rc<QueryPlan>>,
}

#[derive(Debug, Clone)]
pub(crate) enum CachedSubquery {
    Scalar(Value),
    Set(std::collections::HashSet<Vec<u8>>),
    NonEmpty(bool),
}

impl std::fmt::Debug for ExecCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCtx")
            .field("counter", &self.counter)
            .finish()
    }
}

/// One level of row scope for correlated name resolution.
#[derive(Debug, Clone, Copy)]
pub struct Scope<'r> {
    pub rel: &'r Relation,
    pub row: &'r [Value],
}

impl<'a> ExecCtx<'a> {
    /// A context planning at [`OptLevel::Default`] (the label-stable
    /// pass set) on the row engine.
    pub fn new(catalog: &'a Catalog, fns: &'a FnRegistry, limits: ExecLimits) -> Self {
        ExecCtx {
            catalog,
            fns,
            limits,
            counter: CostCounter::default(),
            level: OptLevel::Default,
            engine: Engine::Row,
            analyze: None,
            subquery_cache: HashMap::new(),
            cache_journal: Vec::new(),
            row_twins: 0,
            plan_cache: HashMap::new(),
        }
    }

    /// Select the execution engine. [`ExecCtx::new`] starts on the row
    /// engine; a [`crate::Database`] passes its own engine, which is
    /// [`Engine::Columnar`] unless `Database::with_engine` picked another.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Select the level every query this context runs is planned at
    /// ([`ExecCtx::new`] starts at [`OptLevel::Default`]).
    pub(crate) fn with_opt_level(mut self, level: OptLevel) -> Self {
        self.level = level;
        self
    }

    /// Arm EXPLAIN ANALYZE instrumentation: the next root plan execution
    /// records per-operator observations, retrievable with
    /// [`ExecCtx::take_observations`].
    pub fn analyzed(mut self) -> Self {
        self.analyze = Some(Vec::new());
        self
    }

    /// Drain the recorded per-operator observations.
    pub fn take_observations(&mut self) -> Vec<OpStats> {
        self.analyze.take().unwrap_or_default()
    }

    /// Take the armed EXPLAIN ANALYZE log for the plan about to run.
    /// Nested plans (derived tables, subqueries) then find none, so their
    /// charges roll into the enclosing operator's.
    pub(crate) fn open_log(&mut self) -> Option<OpLog> {
        let stats = self.analyze.take()?;
        Some(OpLog {
            stats,
            units: self.counter.units(),
            at: Instant::now(),
        })
    }

    pub(crate) fn close_log(&mut self, log: Option<OpLog>) {
        self.analyze = log.map(|log| log.stats);
    }

    /// Run one operator of a root plan, logging it when analysis is
    /// armed: its rows and charged units, or, when it fails, the units it
    /// charged before aborting, marked failed. Either way the logged
    /// units add up to the statement's [`CostCounter::units`].
    pub(crate) fn step<T: OpOutput>(
        &mut self,
        log: &mut Option<OpLog>,
        op: impl FnOnce() -> String,
        run: impl FnOnce(&mut Self) -> Result<T, RuntimeError>,
    ) -> Result<T, RuntimeError> {
        let out = run(self);
        if let Some(log) = log {
            let units = self.counter.units();
            let now = Instant::now();
            log.stats.push(OpStats {
                op: op(),
                rows: out.as_ref().map_or(0, |t| t.rows() as u64),
                units: units.saturating_sub(log.units),
                wall_ns: now.duration_since(log.at).as_nanos() as u64,
                failed: out.is_err(),
            });
            log.units = units;
            log.at = now;
        }
        out
    }

    /// How many failed columnar operators this context settled on their
    /// row twins. Execution never reads it.
    pub(crate) fn row_twins(&self) -> u64 {
        self.row_twins
    }

    /// Run one columnar operator, settling a failure on its row twin.
    ///
    /// A columnar operator that succeeds charges what its row twin
    /// charges, so before each operator this context holds exactly the
    /// state the row engine would hold. One that fails may abort where
    /// the twin does not, or charge in another order first, and the row
    /// engine's charges up to its abort point are the label. So when
    /// `batch` fails, the cost counter, the subquery-cache entries the
    /// attempt added and `used_outer` are put back, and `twin` runs on
    /// the same input with subqueries on the row engine too; its error,
    /// or its result as a batch, is the operator's outcome.
    pub(crate) fn settle(
        &mut self,
        used_outer: &mut bool,
        batch: impl FnOnce(&mut Self, &mut bool) -> Result<ColumnBatch, RuntimeError>,
        twin: impl FnOnce(&mut Self, &mut bool) -> Result<Relation, RuntimeError>,
    ) -> Result<ColumnBatch, RuntimeError> {
        let counter = self.counter;
        let cached = self.cache_journal.len();
        let consulted = *used_outer;
        if let Ok(out) = batch(self, used_outer) {
            return Ok(out);
        }
        self.counter = counter;
        for key in self.cache_journal.drain(cached..) {
            self.subquery_cache.remove(&key);
        }
        *used_outer = consulted;
        self.row_twins += 1;
        let engine = std::mem::replace(&mut self.engine, Engine::Row);
        let out = twin(self, used_outer);
        self.engine = engine;
        out.map(|rel| ColumnBatch::from_relation(&rel))
    }

    pub(crate) fn check_budget(&self, extra_rows: usize) -> Result<(), RuntimeError> {
        if extra_rows > self.limits.max_rows || self.counter.units() > self.limits.max_units {
            Err(RuntimeError::ResourceExhausted)
        } else {
            Ok(())
        }
    }

    /// Execute a query; `outer` is the chain of enclosing row scopes for
    /// correlated subqueries (innermost last). Returns the result plus a
    /// flag saying whether any outer scope was actually consulted.
    /// Dispatches on the configured [`Engine`]; the columnar engine
    /// materializes its final batch as a row [`Relation`] (intermediates
    /// stay columnar).
    pub fn exec_query(
        &mut self,
        q: &Query,
        outer: &[Scope<'_>],
    ) -> Result<(Relation, bool), RuntimeError> {
        match self.engine {
            Engine::Row => {
                let plan = self.plan_for(q);
                self.exec_plan(&plan, outer)
            }
            Engine::Columnar => self
                .exec_query_batch(q, outer)
                .map(|(b, uo)| (b.to_relation(), uo)),
        }
    }

    /// Execute a query through the columnar engine, keeping the result
    /// columnar (subqueries and the answer-size path need no rows).
    pub fn exec_query_batch(
        &mut self,
        q: &Query,
        outer: &[Scope<'_>],
    ) -> Result<(ColumnBatch, bool), RuntimeError> {
        let plan = self.plan_for(q);
        self.exec_plan_batch(&plan, outer)
    }

    /// Pre-seed the per-context plan memo with an already-optimized plan
    /// for `q` (keyed by AST address, like [`ExecCtx::plan_for`]).  The
    /// database-level template cache uses this to hand a rebound cached
    /// skeleton to execution without re-planning; nested subqueries not
    /// covered by the seed still plan lazily as usual.
    pub(crate) fn seed_plan(&mut self, q: &Query, plan: Rc<QueryPlan>) {
        self.plan_cache.insert(q as *const Query as usize, plan);
    }

    /// Lower + optimize `q`, memoized on the query's address.
    fn plan_for(&mut self, q: &Query) -> Rc<QueryPlan> {
        let key = q as *const Query as usize;
        if let Some(plan) = self.plan_cache.get(&key) {
            return Rc::clone(plan);
        }
        let plan = Rc::new(crate::optimizer::plan(q, self.catalog, self.level));
        self.plan_cache.insert(key, Rc::clone(&plan));
        plan
    }

    // ================= scalar evaluation bridge =================

    /// Evaluate `expr` for one row of `rel`, with `outer` correlation scopes.
    pub fn eval_with_row(
        &mut self,
        expr: &Expr,
        rel: &Relation,
        row: &[Value],
        outer: &[Scope<'_>],
        used_outer: &mut bool,
    ) -> Result<Value, RuntimeError> {
        crate::eval::eval(self, expr, rel, row, outer, used_outer)
    }

    pub(crate) fn cached_subquery(&self, key: usize) -> Option<&CachedSubquery> {
        self.subquery_cache.get(&key)
    }

    pub(crate) fn cache_scalar(&mut self, key: usize, v: Value) {
        self.cache(key, CachedSubquery::Scalar(v));
    }

    pub(crate) fn cache_set(&mut self, key: usize, s: std::collections::HashSet<Vec<u8>>) {
        self.cache(key, CachedSubquery::Set(s));
    }

    pub(crate) fn cache_nonempty(&mut self, key: usize, b: bool) {
        self.cache(key, CachedSubquery::NonEmpty(b));
    }

    fn cache(&mut self, key: usize, entry: CachedSubquery) {
        if self.subquery_cache.insert(key, entry).is_none() {
            self.cache_journal.push(key);
        }
    }
}
