//! The top-level `Database`: parse → execute → labeled outcome.
//!
//! This is the label generator for synthesized workloads: given arbitrary
//! statement text it produces exactly the three properties the paper
//! extracts from the SDSS logs — error class, answer size (`rows`), and
//! CPU time (`busy`) — deterministically.

use std::borrow::Borrow;
use std::rc::Rc;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use sqlan_sql::{parse, Literal, QualifiedName, Query, Statement};

use crate::catalog::Catalog;
use crate::cost::{estimate_cost, CostCounter, CostEstimate};
use crate::error::{ErrorClass, RuntimeError};
use crate::exec::{Engine, ExecCtx, ExecLimits};
use crate::functions::FnRegistry;
use crate::optimizer::{plan, OptLevel};
use crate::plan::QueryPlan;
use crate::plan_cache::{
    rebind_plan, rebind_statement, CachedTemplate, PlanCache, PlanCacheStats,
    DEFAULT_PLAN_CACHE_CAPACITY,
};
use crate::relation::Relation;

/// The observable outcome of submitting one statement to the database —
/// the ground-truth labels of one workload entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryOutcome {
    /// Success / non-severe / severe (§4.1).
    pub error_class: ErrorClass,
    /// Rows retrieved; `-1` when the query did not run (matches the SDSS
    /// convention: "ranges from a minimum of -1 (the query did not run due
    /// to an error)", Figure 6c).
    pub answer_size: i64,
    /// Deterministic CPU seconds (`SqlLog.busy` analogue).
    pub cpu_seconds: f64,
    /// Human-readable error description, if any.
    pub error_message: Option<String>,
}

/// An executable database instance.
///
/// `Database` is immutable after construction: every `submit`/`run_query`
/// builds its own [`ExecCtx`] (plan memo, cost counter, row budget), so
/// one instance can be shared by any number of concurrent reader threads.
/// The assertion below makes that `Send + Sync` guarantee a compile-time
/// contract.  The single sanctioned piece of interior mutability is the
/// template [`PlanCache`]: it is thread-safe, shared across clones, and
/// **result-invisible** — it only changes how an outcome is computed,
/// never what the outcome is (see `plan_cache.rs` for the rebind
/// contract).  Any other result-bearing mutable state must stay confined
/// to `ExecCtx`, or the data-parallel workload labeler breaks.
#[derive(Debug, Clone)]
pub struct Database {
    pub catalog: Catalog,
    pub fns: FnRegistry,
    pub limits: ExecLimits,
    /// The level every statement is planned at: [`OptLevel::Default`]
    /// unless [`Database::with_opt_level`] picks another.
    opt_level: OptLevel,
    /// Execution engine: columnar unless [`Database::with_engine`] picks
    /// another.
    /// Both engines are label-identical: each columnar operator charges
    /// the same [`CostCounter`] totals as its row twin when it succeeds,
    /// and one that fails is settled on that twin (whose charge *order*
    /// up to the abort point is the label contract).
    pub engine: Engine,
    /// Template → optimized-plan cache ([`DEFAULT_PLAN_CACHE_CAPACITY`]
    /// templates unless [`Database::with_plan_cache`] sets another);
    /// `None` when the capacity is 0.
    plan_cache: Option<Arc<PlanCache>>,
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
};

impl Database {
    pub fn new(catalog: Catalog) -> Self {
        Database {
            catalog,
            fns: FnRegistry::standard(),
            limits: ExecLimits::default(),
            opt_level: OptLevel::Default,
            engine: Engine::Columnar,
            plan_cache: Self::build_plan_cache(DEFAULT_PLAN_CACHE_CAPACITY),
        }
    }

    /// A fresh cache of the given capacity, unless the capacity is 0
    /// (caching off).
    fn build_plan_cache(capacity: usize) -> Option<Arc<PlanCache>> {
        (capacity > 0).then(|| Arc::new(PlanCache::new(capacity)))
    }

    pub fn with_limits(mut self, limits: ExecLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Select the execution engine (the default is [`Engine::Columnar`]).
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Select the planning level. [`OptLevel::Default`] is the
    /// label-stable level the workload generator relies on.
    ///
    /// Resets the plan cache to a fresh one of the default capacity:
    /// cached skeletons belong to a level, and clones share a cache.
    /// Call [`Database::with_plan_cache`] *after* this to set an explicit
    /// capacity.
    pub fn with_opt_level(mut self, level: OptLevel) -> Self {
        self.opt_level = level;
        self.plan_cache = Self::build_plan_cache(DEFAULT_PLAN_CACHE_CAPACITY);
        self
    }

    /// Set the template plan cache capacity (the default is
    /// [`DEFAULT_PLAN_CACHE_CAPACITY`]).  `0` disables caching.
    pub fn with_plan_cache(mut self, capacity: usize) -> Self {
        self.plan_cache = Self::build_plan_cache(capacity);
        self
    }

    /// Hit/miss/occupancy counters of the template plan cache, if one is
    /// active.
    pub fn plan_cache_stats(&self) -> Option<PlanCacheStats> {
        self.plan_cache.as_ref().map(|c| c.stats())
    }

    /// Submit raw statement text, as an end user would. Never panics.
    ///
    /// When the template plan cache is active, the text is fingerprinted
    /// first (one literal-stripping scan, no parse): a template hit skips
    /// the parse → plan pipeline and executes a rebound copy of the
    /// cached skeleton; a miss parses once with literal slots lifted to
    /// parameters and caches the optimized template for the next
    /// instance.  Anything irregular — unclean lex, parse error, slot
    /// mismatch — falls back to the uncached path, so outcomes (labels,
    /// error messages, charge order) are bit-identical with the cache on
    /// or off.
    ///
    /// Observability is write-only: while [`sqlan_obs::enabled`],
    /// submits are counted by outcome class and cache bypasses are
    /// mirrored into the global registry, and span timings are recorded
    /// against any trace installed on the calling thread — none of it
    /// feeds back into how the outcome is computed.
    pub fn submit(&self, text: &str) -> QueryOutcome {
        let outcome = if let Some(cache) = &self.plan_cache {
            match self.submit_cached(cache, text) {
                Some(outcome) => outcome,
                None => {
                    if sqlan_obs::enabled() {
                        crate::obs::plan_cache_counters().bypass.inc();
                    }
                    self.submit_uncached(text)
                }
            }
        } else {
            self.submit_uncached(text)
        };
        if sqlan_obs::enabled() {
            let c = crate::obs::submit_counters();
            match outcome.error_class {
                ErrorClass::Success => c.success.inc(),
                ErrorClass::NonSevere => c.non_severe.inc(),
                ErrorClass::Severe => c.severe.inc(),
            }
        }
        outcome
    }

    fn submit_cached(&self, cache: &PlanCache, text: &str) -> Option<QueryOutcome> {
        let probe = sqlan_obs::trace::timed("cache_probe", 1, || sqlan_sql::fingerprint(text));
        // Portal-level lex rejections take the legacy path: its error
        // outcome (and its precedence against parse errors) is the label.
        if probe.report.unterminated_string || probe.report.unterminated_comment {
            return None;
        }
        if let Some(tpl) = cache.get(probe.fingerprint) {
            if tpl.param_count == probe.literals.len() {
                return Some(self.run_template(&tpl, &probe.literals));
            }
            // Defensive: equal fingerprints imply equal slot structure,
            // so this only fires on a 128-bit collision.
            return None;
        }
        // Miss: lex once more materializing tokens, parse with literal
        // slots lifted to `Expr::Param`, plan the template eagerly.
        let fp = sqlan_sql::lex_fingerprint(text);
        let script = match sqlan_obs::trace::timed("sql_parse", 1, || {
            sqlan_sql::parse_tokens(&fp.toks, fp.report, &fp.params).result
        }) {
            // Parse errors embed literal spellings in their messages —
            // never cache them; the legacy path reproduces them exactly.
            Err(_) => return None,
            Ok(s) => s,
        };
        let plans = sqlan_obs::trace::timed("plan", 1, || {
            script
                .statements
                .iter()
                .map(|stmt| match stmt {
                    Statement::Select(q) => Some(plan(q, &self.catalog, self.opt_level)),
                    _ => None,
                })
                .collect()
        });
        let tpl = Arc::new(CachedTemplate {
            script,
            plans,
            param_count: fp.literals.len(),
        });
        let outcome = self.run_template(&tpl, &fp.literals);
        cache.insert(fp.fingerprint, tpl);
        Some(outcome)
    }

    /// Execute one cached template instance: clone the template, splice
    /// the statement's literals into every parameter slot (statement and
    /// plan skeleton both), and run the statements as
    /// [`Database::submit_uncached`] does. Each statement is rebound only
    /// once the ones before it succeeded.
    fn run_template(&self, tpl: &CachedTemplate, literals: &[Literal]) -> QueryOutcome {
        self.run_script(
            tpl.script
                .statements
                .iter()
                .zip(&tpl.plans)
                .map(|(stmt, plan)| {
                    sqlan_obs::trace::timed("rebind", 1, || {
                        let mut stmt = stmt.clone();
                        rebind_statement(&mut stmt, literals);
                        let seed = plan.as_ref().map(|skeleton| {
                            let mut plan = skeleton.clone();
                            rebind_plan(&mut plan, literals);
                            Rc::new(plan)
                        });
                        (stmt, seed)
                    })
                }),
        )
    }

    /// The statement loop of a submit: run each statement (with its
    /// seeded plan, if any) on one cost counter, stopping at the first
    /// failure, whose outcome is non-severe; otherwise the answer size is
    /// the last statement's.
    fn run_script<S: Borrow<Statement>>(
        &self,
        statements: impl Iterator<Item = (S, Option<Rc<QueryPlan>>)>,
    ) -> QueryOutcome {
        let mut counter = CostCounter::default();
        let mut answer: i64 = 0;
        for (stmt, seed) in statements {
            match sqlan_obs::trace::timed("execute", 1, || {
                self.run_statement_seeded(stmt.borrow(), &mut counter, seed)
            }) {
                Ok(rows) => answer = rows,
                Err(e) => {
                    return QueryOutcome {
                        error_class: ErrorClass::NonSevere,
                        answer_size: -1,
                        cpu_seconds: counter.cpu_seconds(),
                        error_message: Some(e.to_string()),
                    };
                }
            }
        }
        QueryOutcome {
            error_class: ErrorClass::Success,
            answer_size: answer,
            cpu_seconds: counter.cpu_seconds(),
            error_message: None,
        }
    }

    /// The uncached submit path: parse → execute, no templates involved.
    fn submit_uncached(&self, text: &str) -> QueryOutcome {
        let outcome = sqlan_obs::trace::timed("sql_parse", 1, || parse(text));
        let script = match outcome.result {
            Err(e) => {
                // Rejected before reaching the server: severe (§4.1).
                return QueryOutcome {
                    error_class: ErrorClass::Severe,
                    answer_size: -1,
                    cpu_seconds: 0.0,
                    error_message: Some(e.to_string()),
                };
            }
            Ok(s) => s,
        };
        // An unterminated string is a portal-level rejection too.
        if outcome.lex_report.unterminated_string || outcome.lex_report.unterminated_comment {
            return QueryOutcome {
                error_class: ErrorClass::Severe,
                answer_size: -1,
                cpu_seconds: 0.0,
                error_message: Some("unterminated literal".into()),
            };
        }
        self.run_script(script.statements.iter().map(|stmt| (stmt, None)))
    }

    /// Execute one parsed statement, returning its answer size.
    pub fn run_statement(
        &self,
        stmt: &Statement,
        counter: &mut CostCounter,
    ) -> Result<i64, RuntimeError> {
        self.run_statement_seeded(stmt, counter, None)
    }

    /// [`Database::run_statement`] with an optional pre-optimized plan
    /// for the top-level SELECT (the template cache's rebound skeleton).
    fn run_statement_seeded(
        &self,
        stmt: &Statement,
        counter: &mut CostCounter,
        seed: Option<Rc<QueryPlan>>,
    ) -> Result<i64, RuntimeError> {
        match stmt {
            Statement::Select(q) => self.query_row_count(q, counter, seed),
            Statement::Execute { name, arg_count } => {
                // Stored procedures: known `sp`-prefixed names succeed with
                // a fixed moderate cost; anything else is unknown.
                if starts_with_ci(name.base(), "sp") || starts_with_ci(name.base(), "usp") {
                    counter.eval_units += 5_000 + (*arg_count as u64) * 500;
                    Ok(1)
                } else {
                    Err(RuntimeError::UnknownFunction(name.canonical()))
                }
            }
            Statement::Ddl { verb: _, object } => {
                // DDL against "MyDB"-style user namespaces succeeds; DDL
                // against shared catalog tables is denied (the portal's
                // read-only enforcement).
                match object {
                    Some(o) if self.catalog.get(o.base()).is_some() && !name_mentions_mydb(o) => {
                        Err(RuntimeError::Unsupported(format!(
                            "cannot modify shared table `{}`",
                            o.canonical()
                        )))
                    }
                    _ => {
                        counter.eval_units += 1_000;
                        Ok(0)
                    }
                }
            }
            Statement::Dml { verb, table, query } => {
                use sqlan_sql::DmlVerb;
                // Target must be writable (MyDB); shared tables are denied.
                if let Some(t) = table {
                    if self.catalog.get(t.base()).is_some() && !name_mentions_mydb(t) {
                        return Err(RuntimeError::Unsupported(format!(
                            "cannot modify shared table `{}`",
                            t.canonical()
                        )));
                    }
                }
                match verb {
                    DmlVerb::Insert => match query {
                        Some(q) if !q.select.is_empty() => self.query_row_count(q, counter, None),
                        _ => {
                            counter.eval_units += 10;
                            Ok(1)
                        }
                    },
                    DmlVerb::Update | DmlVerb::Delete => {
                        // Affected rows = rows matching the WHERE clause of
                        // a scan over the target, when the target exists.
                        match (table, query) {
                            (Some(t), Some(q)) => {
                                if let Some(tab) = self.catalog.get(t.base()) {
                                    let mut scan = Query::empty();
                                    scan.select.push(sqlan_sql::SelectItem {
                                        expr: sqlan_sql::Expr::Wildcard(None),
                                        alias: None,
                                    });
                                    scan.from.push(sqlan_sql::FromItem {
                                        factor: sqlan_sql::TableFactor::Table {
                                            name: sqlan_sql::QualifiedName::single(
                                                tab.name.clone(),
                                            ),
                                            alias: None,
                                        },
                                        joins: Vec::new(),
                                    });
                                    scan.where_clause = q.where_clause.clone();
                                    self.query_row_count(&scan, counter, None)
                                } else {
                                    // Unknown user table: pretend empty.
                                    counter.eval_units += 10;
                                    Ok(0)
                                }
                            }
                            _ => Ok(0),
                        }
                    }
                }
            }
            Statement::Procedural => {
                counter.eval_units += 10;
                Ok(0)
            }
        }
    }

    /// Execute a SELECT and return the full relation.
    ///
    /// `counter` receives the statement's charges whether it succeeds or
    /// fails; an error outcome carries the charges *at the abort point*.
    /// Both engines give the same result and charges (enforced by the
    /// differential test suite).
    pub fn run_query(
        &self,
        q: &Query,
        counter: &mut CostCounter,
    ) -> Result<Relation, RuntimeError> {
        self.run_dispatch(q, counter, None, |batch| batch.to_relation(), |rel| rel)
    }

    /// Answer size of a SELECT — the labeling hot path. The columnar
    /// engine reads the cardinality straight off the final batch without
    /// materializing any rows.
    fn query_row_count(
        &self,
        q: &Query,
        counter: &mut CostCounter,
        seed: Option<Rc<QueryPlan>>,
    ) -> Result<i64, RuntimeError> {
        self.run_dispatch(
            q,
            counter,
            seed,
            |batch| batch.len() as i64,
            |rel| rel.len() as i64,
        )
    }

    /// Engine dispatch: run `q` on this database's engine and project the
    /// columnar engine's final batch with `from_batch`, or the row
    /// engine's relation with `from_rel`. Either way the result is final:
    /// a columnar operator that fails has already been settled on its
    /// row twin. `seed` is the template cache's rebound plan for `q`, if
    /// any, so a cache hit never changes which plan runs.
    fn run_dispatch<T>(
        &self,
        q: &Query,
        counter: &mut CostCounter,
        seed: Option<Rc<QueryPlan>>,
        from_batch: impl FnOnce(crate::relation::ColumnBatch) -> T,
        from_rel: impl FnOnce(Relation) -> T,
    ) -> Result<T, RuntimeError> {
        let mut ctx = self.exec_ctx();
        if let Some(plan) = seed {
            ctx.seed_plan(q, plan);
        }
        let result = match self.engine {
            Engine::Columnar => ctx.exec_query_batch(q, &[]).map(|(b, _)| from_batch(b)),
            Engine::Row => ctx.exec_query(q, &[]).map(|(rel, _)| from_rel(rel)),
        };
        counter.add(&ctx.counter);
        if sqlan_obs::enabled() && ctx.row_twins() > 0 {
            crate::obs::row_twins_total().add(ctx.row_twins());
        }
        result
    }

    /// A fresh execution context at this database's engine and level.
    fn exec_ctx(&self) -> ExecCtx<'_> {
        ExecCtx::new(&self.catalog, &self.fns, self.limits)
            .with_engine(self.engine)
            .with_opt_level(self.opt_level)
    }

    /// EXPLAIN: render the optimized plan of every statement in `text`
    /// without executing anything. Returns `Err` with the parse error
    /// message for statements the portal would reject.
    pub fn explain(&self, text: &str) -> Result<String, String> {
        let script = parse(text).result.map_err(|e| e.to_string())?;
        let mut out = String::new();
        for (i, stmt) in script.statements.iter().enumerate() {
            if script.statements.len() > 1 {
                out.push_str(&format!("-- statement {}\n", i + 1));
            }
            match stmt {
                Statement::Select(q) => {
                    out.push_str(&plan(q, &self.catalog, self.opt_level).render());
                }
                Statement::Dml {
                    verb,
                    query: Some(q),
                    ..
                } => {
                    out.push_str(&format!("{verb:?}\n"));
                    out.push_str(&plan(q, &self.catalog, self.opt_level).render());
                }
                other => {
                    out.push_str(&format!("{}\n", statement_kind(other)));
                }
            }
        }
        out.push_str(&self.plan_cache_provenance(text));
        Ok(out)
    }

    /// One `-- plan cache: …` line describing how [`Database::submit`]
    /// would treat this text.  Probe-only: no counters move, nothing is
    /// inserted, LRU stamps stay put.
    fn plan_cache_provenance(&self, text: &str) -> String {
        let Some(cache) = &self.plan_cache else {
            return "-- plan cache: status=off\n".to_string();
        };
        let probe = sqlan_sql::fingerprint(text);
        if probe.report.unterminated_string || probe.report.unterminated_comment {
            return "-- plan cache: status=bypass (unclean lex)\n".to_string();
        }
        let status = if cache.contains(probe.fingerprint) {
            "hit"
        } else {
            "miss"
        };
        format!(
            "-- plan cache: status={status} fp={:#034x} params={}\n",
            probe.fingerprint,
            probe.literals.len()
        )
    }

    /// EXPLAIN ANALYZE: render the optimized plan of every statement in
    /// `text` **and execute it**, annotating the output with each
    /// operator's observed row count and cost-unit charges (in execution
    /// order), plus the statement's outcome labels. Observed charges
    /// include everything the operator evaluated — nested subqueries roll
    /// into the operator that ran them — and an operator that fails is
    /// listed with what it charged before aborting, so the listed units
    /// add up to the statement's label.
    pub fn explain_analyze(&self, text: &str) -> Result<String, String> {
        let t_parse = std::time::Instant::now();
        let script = parse(text).result.map_err(|e| e.to_string())?;
        let parse_ns = t_parse.elapsed().as_nanos() as u64;
        let mut out = String::new();
        for (i, stmt) in script.statements.iter().enumerate() {
            if script.statements.len() > 1 {
                out.push_str(&format!("-- statement {}\n", i + 1));
            }
            match stmt {
                Statement::Select(q) => {
                    let t_plan = std::time::Instant::now();
                    let rendered = plan(q, &self.catalog, self.opt_level).render();
                    let plan_ns = t_plan.elapsed().as_nanos() as u64;
                    out.push_str(&rendered);
                    let t_exec = std::time::Instant::now();
                    self.analyze_select(q, &mut out);
                    let exec_ns = t_exec.elapsed().as_nanos() as u64;
                    out.push_str(&format!(
                        "-- wall: parse={}us plan={}us execute={}us\n",
                        parse_ns / 1_000,
                        plan_ns / 1_000,
                        exec_ns / 1_000
                    ));
                }
                other => {
                    // Non-SELECT statements have no operator pipeline; run
                    // them for their outcome labels only.
                    out.push_str(&format!("{}\n", statement_kind(other)));
                    let mut counter = CostCounter::default();
                    match self.run_statement(other, &mut counter) {
                        Ok(rows) => out.push_str(&format!(
                            "-- observed: rows={rows} cpu_seconds={:?}\n",
                            counter.cpu_seconds()
                        )),
                        Err(e) => out.push_str(&format!("-- observed: error: {e}\n")),
                    }
                }
            }
        }
        out.push_str(&self.plan_cache_provenance(text));
        Ok(out)
    }

    /// Execute one SELECT with operator instrumentation and append the
    /// observations to `out`.
    fn analyze_select(&self, q: &Query, out: &mut String) {
        let mut ctx = self.exec_ctx().analyzed();
        let res = ctx.exec_query(q, &[]).map(|(rel, _)| rel.len());
        let obs = ctx.take_observations();
        let engine_name = match self.engine {
            Engine::Row => "row",
            Engine::Columnar => "columnar",
        };
        // Bridge the per-operator observations into the global registry
        // so EXPLAIN ANALYZE runs show up on /metrics?format=prom.
        if sqlan_obs::enabled() {
            let h = crate::obs::op_wall_hist();
            for s in &obs {
                h.record(s.wall_ns);
            }
        }
        out.push_str(&format!(
            "-- observed (engine={engine_name}, operators in execution order)\n"
        ));
        for s in &obs {
            out.push_str(&format!(
                "--   rows={:<9} units=+{:<11} wall=+{:<8} {}{}\n",
                if s.failed {
                    "-".to_string()
                } else {
                    s.rows.to_string()
                },
                s.units,
                format!("{}us", s.wall_ns / 1_000),
                s.op,
                if s.failed { " (failed)" } else { "" }
            ));
        }
        match res {
            Ok(rows) => out.push_str(&format!(
                "-- answer_size={rows} cpu_seconds={:?}\n",
                ctx.counter.cpu_seconds()
            )),
            Err(e) => out.push_str(&format!(
                "-- error: {e} (cpu_seconds={:?})\n",
                ctx.counter.cpu_seconds()
            )),
        }
        out.push_str(&format!("-- row twins: {}\n", ctx.row_twins()));
    }

    /// Optimizer cost estimate for the `opt` baseline. Works even for
    /// statements that would fail at runtime (the real optimizer estimates
    /// before execution), and returns `None` only for unparseable text.
    /// Estimates walk the plan this database executes, so they track
    /// [`Database::with_opt_level`].
    pub fn estimate(&self, text: &str) -> Option<CostEstimate> {
        let script = parse(text).result.ok()?;
        let mut total = CostEstimate::default();
        for stmt in &script.statements {
            let e = estimate_cost(stmt, &self.catalog, self.opt_level);
            total.total_cost += e.total_cost;
            total.est_rows = e.est_rows;
        }
        Some(total)
    }
}

/// Byte-wise ASCII-case-insensitive prefix test — the allocation-free
/// equivalent of `s.to_ascii_lowercase().starts_with(prefix)` for an
/// ASCII-lowercase `prefix`.
fn starts_with_ci(s: &str, prefix: &str) -> bool {
    let (s, p) = (s.as_bytes(), prefix.as_bytes());
    s.len() >= p.len() && s[..p.len()].eq_ignore_ascii_case(p)
}

/// Does any part of `name` contain "mydb" (case-insensitively)?
///
/// Equivalent to `name.canonical().contains("mydb")` without building the
/// canonical string: "mydb" cannot contain the `.` separator, so a match
/// in the joined rendering always lies within a single part, and for the
/// rare non-ASCII part the Unicode-lowercase fallback matches
/// `canonical()`'s per-char lowering ("mydb" is ASCII, so the one
/// context-sensitive case, final sigma, cannot affect the answer).
fn name_mentions_mydb(name: &QualifiedName) -> bool {
    name.parts.iter().any(|p| {
        if p.is_ascii() {
            p.as_bytes()
                .windows(4)
                .any(|w| w.eq_ignore_ascii_case(b"mydb"))
        } else {
            p.to_lowercase().contains("mydb")
        }
    })
}

/// One-line description of a non-query statement for EXPLAIN output.
fn statement_kind(stmt: &Statement) -> String {
    match stmt {
        Statement::Select(_) => "Select".to_string(),
        Statement::Execute { name, arg_count } => {
            format!("Execute {} ({arg_count} args)", name.canonical())
        }
        Statement::Ddl { verb, object } => format!(
            "Ddl {verb:?}{}",
            object
                .as_ref()
                .map(|o| format!(" {}", o.canonical()))
                .unwrap_or_default()
        ),
        Statement::Dml { verb, table, .. } => format!(
            "Dml {verb:?}{}",
            table
                .as_ref()
                .map(|t| format!(" {}", t.canonical()))
                .unwrap_or_default()
        ),
        Statement::Procedural => "Procedural".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColumnSpec, TableSpec};

    fn db() -> Database {
        let specs = vec![
            TableSpec::new("PhotoObj", 2_000)
                .column("objid", ColumnSpec::SeqId)
                .column("ra", ColumnSpec::Uniform(0.0, 360.0))
                .column("dec", ColumnSpec::Uniform(-90.0, 90.0))
                .column("type", ColumnSpec::Categorical(7))
                .column("flags", ColumnSpec::Bitmask(20))
                .column("u", ColumnSpec::Normal(19.0, 2.0))
                .column("g", ColumnSpec::Normal(18.5, 2.0)),
            TableSpec::new("SpecObj", 500)
                .column("specobjid", ColumnSpec::SeqId)
                .column("bestobjid", ColumnSpec::IntUniform(0, 1_999))
                .column("z", ColumnSpec::Uniform(0.0, 3.0))
                .column("class", ColumnSpec::StrChoice(&["GALAXY", "STAR", "QSO"])),
        ];
        Database::new(Catalog::generate(&specs, 42))
    }

    #[test]
    fn select_star_returns_all_rows() {
        let out = db().submit("SELECT * FROM PhotoObj");
        assert_eq!(out.error_class, ErrorClass::Success);
        assert_eq!(out.answer_size, 2_000);
        assert!(out.cpu_seconds > 0.0);
    }

    #[test]
    fn filters_reduce_answer_size() {
        let d = db();
        let all = d.submit("SELECT * FROM PhotoObj").answer_size;
        let some = d
            .submit("SELECT * FROM PhotoObj WHERE ra < 180")
            .answer_size;
        let none = d.submit("SELECT * FROM PhotoObj WHERE ra < -5").answer_size;
        assert!(some < all);
        assert!(some > 0);
        assert_eq!(none, 0);
    }

    #[test]
    fn count_star() {
        let d = db();
        let out = d.submit("SELECT count(*) FROM PhotoObj WHERE type = 0");
        assert_eq!(out.error_class, ErrorClass::Success);
        assert_eq!(out.answer_size, 1);
    }

    #[test]
    fn group_by_and_having() {
        let d = db();
        let rel = {
            let mut c = CostCounter::default();
            let q = match sqlan_sql::parse_script(
                "SELECT type, count(*) AS n FROM PhotoObj GROUP BY type HAVING count(*) > 10 ORDER BY n DESC",
            )
            .unwrap()
            .statements
            .remove(0)
            {
                Statement::Select(q) => q,
                _ => unreachable!(),
            };
            d.run_query(&q, &mut c).unwrap()
        };
        assert!(!rel.is_empty());
        // Sorted descending by count.
        let counts: Vec<i64> = rel.rows.iter().map(|r| r[1].as_i64().unwrap()).collect();
        let mut sorted = counts.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(counts, sorted);
    }

    #[test]
    fn equijoin_comma_style_matches_explicit_join() {
        let d = db();
        let a = d.submit(
            "SELECT s.z FROM SpecObj s, PhotoObj p WHERE s.bestobjid = p.objid AND p.type = 0",
        );
        let b = d.submit(
            "SELECT s.z FROM SpecObj s INNER JOIN PhotoObj p ON s.bestobjid = p.objid WHERE p.type = 0",
        );
        assert_eq!(a.error_class, ErrorClass::Success);
        assert_eq!(a.answer_size, b.answer_size);
        assert!(a.answer_size > 0);
    }

    #[test]
    fn left_join_keeps_unmatched() {
        let d = db();
        let inner = d
            .submit("SELECT p.objid FROM PhotoObj p INNER JOIN SpecObj s ON p.objid = s.bestobjid");
        let left =
            d.submit("SELECT p.objid FROM PhotoObj p LEFT JOIN SpecObj s ON p.objid = s.bestobjid");
        assert!(left.answer_size >= inner.answer_size);
        assert!(left.answer_size >= 2_000);
    }

    #[test]
    fn scalar_subquery_and_in_subquery() {
        let d = db();
        let out = d.submit("SELECT objid FROM PhotoObj WHERE ra > (SELECT avg(ra) FROM PhotoObj)");
        assert_eq!(out.error_class, ErrorClass::Success);
        assert!(out.answer_size > 0 && out.answer_size < 2_000);

        let out2 = d.submit(
            "SELECT z FROM SpecObj WHERE bestobjid IN (SELECT objid FROM PhotoObj WHERE type = 0)",
        );
        assert_eq!(out2.error_class, ErrorClass::Success);
        assert!(out2.answer_size > 0);
    }

    #[test]
    fn correlated_exists() {
        let d = db();
        let out = d.submit(
            "SELECT p.objid FROM PhotoObj p WHERE EXISTS \
             (SELECT 1 FROM SpecObj s WHERE s.bestobjid = p.objid)",
        );
        assert_eq!(out.error_class, ErrorClass::Success);
        assert!(out.answer_size > 0 && out.answer_size <= 500);
    }

    #[test]
    fn syntax_error_is_severe() {
        let out = db().submit("SELEC * FROMM PhotoObj");
        assert_eq!(out.error_class, ErrorClass::Severe);
        assert_eq!(out.answer_size, -1);
        assert_eq!(out.cpu_seconds, 0.0);
    }

    #[test]
    fn natural_language_is_severe() {
        let out = db().submit("show me all galaxies brighter than 18th magnitude");
        assert_eq!(out.error_class, ErrorClass::Severe);
    }

    #[test]
    fn unknown_table_is_non_severe() {
        let out = db().submit("SELECT * FROM NoSuchTable");
        assert_eq!(out.error_class, ErrorClass::NonSevere);
        assert_eq!(out.answer_size, -1);
    }

    #[test]
    fn unknown_column_is_non_severe() {
        let out = db().submit("SELECT nocolumn FROM PhotoObj");
        assert_eq!(out.error_class, ErrorClass::NonSevere);
        // The failing projection is settled on its row twin, and listed
        // with the units it charged before aborting.
        let analyzed = db()
            .explain_analyze("SELECT nocolumn FROM PhotoObj")
            .unwrap();
        assert!(analyzed.contains("\n-- row twins: 1\n"), "{analyzed}");
        let failed = analyzed
            .lines()
            .find(|l| l.ends_with(" Project [1 exprs] (failed)"))
            .unwrap_or_else(|| panic!("no failed operator line:\n{analyzed}"));
        assert!(
            failed.contains("rows=- ") && failed.contains("units=+2000 "),
            "{failed}"
        );
    }

    #[test]
    fn division_by_zero_is_non_severe() {
        let out = db().submit("SELECT 1/0 FROM PhotoObj");
        assert_eq!(out.error_class, ErrorClass::NonSevere);
    }

    #[test]
    fn functions_in_where_charge_per_row() {
        let d = db();
        let plain = d.submit("SELECT objid FROM PhotoObj WHERE flags > 0");
        let heavy =
            d.submit("SELECT objid FROM PhotoObj WHERE flags & dbo.fPhotoFlags('BLENDED') > 0");
        assert_eq!(heavy.error_class, ErrorClass::Success);
        assert!(
            heavy.cpu_seconds > plain.cpu_seconds,
            "per-row function call must cost more: {} vs {}",
            heavy.cpu_seconds,
            plain.cpu_seconds
        );
    }

    #[test]
    fn top_and_order_by() {
        let d = db();
        let out = d.submit("SELECT TOP 7 objid FROM PhotoObj ORDER BY ra DESC");
        assert_eq!(out.answer_size, 7);
    }

    #[test]
    fn distinct_reduces_rows() {
        let d = db();
        let all = d.submit("SELECT type FROM PhotoObj").answer_size;
        let distinct = d.submit("SELECT DISTINCT type FROM PhotoObj").answer_size;
        assert!(distinct <= 7);
        assert!(distinct < all);
    }

    #[test]
    fn exec_known_proc_succeeds_unknown_fails() {
        let d = db();
        assert_eq!(
            d.submit("EXEC dbo.spGetNeighbors 1, 2").error_class,
            ErrorClass::Success
        );
        assert_eq!(
            d.submit("EXEC dbo.blah 1").error_class,
            ErrorClass::NonSevere
        );
    }

    #[test]
    fn ddl_on_mydb_succeeds_on_shared_fails() {
        let d = db();
        assert_eq!(
            d.submit("DROP TABLE mydb.results").error_class,
            ErrorClass::Success
        );
        assert_eq!(
            d.submit("DROP TABLE PhotoObj").error_class,
            ErrorClass::NonSevere
        );
    }

    #[test]
    fn outcome_is_deterministic() {
        let d = db();
        let sql = "SELECT type, count(*) FROM PhotoObj WHERE ra BETWEEN 10 AND 250 GROUP BY type";
        let a = d.submit(sql);
        let b = d.submit(sql);
        assert_eq!(a, b);
    }

    #[test]
    fn estimate_available_for_failing_queries() {
        let d = db();
        assert!(d.estimate("SELECT * FROM NoSuchTable").is_some());
        assert!(d.estimate("complete garbage ~~~").is_none());
    }

    #[test]
    fn select_without_from() {
        let out = db().submit("SELECT 1");
        assert_eq!(out.error_class, ErrorClass::Success);
        assert_eq!(out.answer_size, 1);
    }

    #[test]
    fn explain_renders_optimized_plan() {
        let d = db();
        let plan = d
            .explain(
                "SELECT s.z FROM SpecObj s, PhotoObj p \
                 WHERE s.bestobjid = p.objid AND p.type = 0",
            )
            .unwrap();
        assert!(plan.contains("HashJoin"), "expected a hash join:\n{plan}");
        assert!(
            plan.contains("Filter (p.type = 0)"),
            "expected pushed filter:\n{plan}"
        );
        assert!(plan.contains("Scan"), "expected scans:\n{plan}");

        let naive = d
            .clone()
            .with_opt_level(crate::OptLevel::None)
            .explain("SELECT s.z FROM SpecObj s, PhotoObj p WHERE s.bestobjid = p.objid")
            .unwrap();
        assert!(
            naive.contains("CrossJoin"),
            "naive plan folds with cross joins:\n{naive}"
        );

        assert!(d.explain("SELEC nonsense").is_err());
        assert!(d
            .explain("DROP TABLE mydb.results")
            .unwrap()
            .contains("Ddl"));
    }

    #[test]
    fn update_counts_affected_rows() {
        // Shared tables are write-denied; unknown user tables affect 0 rows.
        let d = db();
        let out = d.submit("UPDATE mydb.mytable SET x = 1 WHERE y > 0");
        assert_eq!(out.error_class, ErrorClass::Success);
        assert_eq!(out.answer_size, 0);
    }
}
