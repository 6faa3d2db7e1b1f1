//! Template-aware parameterized plan cache.
//!
//! A statement's *template* is what remains after every literal is lifted
//! out: `SELECT x FROM Obj WHERE id = 7` and `SELECT x FROM Obj WHERE
//! id = 42` share one template.
//! [`sqlan_sql::fingerprint`](fn@sqlan_sql::fingerprint) maps a raw
//! statement to a 128-bit template fingerprint plus the ordered vector of
//! lifted literals; this module caches the parsed [`Script`] and the
//! optimized [`QueryPlan`] skeletons per fingerprint so repeated template
//! instances skip the parse → plan pipeline entirely.
//!
//! ## Rebind contract
//!
//! Cached templates carry [`Expr::Param`] placeholders where literals
//! used to be.  Before execution the template is *cloned* and every
//! `Param { slot }` is replaced by `Literal(literals[slot])` — so by the
//! time a plan reaches the evaluator or the physical engine it contains
//! only ordinary `Literal` nodes, exactly as a fresh parse would produce.
//! Correctness rests on two invariants:
//!
//! 1. The fingerprint lexer slots a literal **iff** the parser would
//!    consume it as an [`Expr::Literal`] (structural literals — `TOP n`,
//!    aliases, CAST type arguments — stay concrete and are hashed by
//!    value).  Two statements with equal fingerprints therefore differ
//!    only in literal *values* at expression positions.
//! 2. [`crate::optimizer::plan`] treats `Param` exactly like an opaque
//!    literal at every level: lowering copies expressions as written,
//!    and predicate pushdown and equi-join detection decide by the
//!    columns a conjunct references, never by a literal's value.  So
//!    `plan(template)` rebound with literals L equals
//!    `plan(statement-with-L)` node for node.
//!
//! ## Concurrency
//!
//! The cache is shared across [`Database`](crate::Database) clones and is
//! safe for concurrent readers: fingerprints are sharded across a small
//! fixed set of `RwLock`-protected maps (read-mostly — a hit takes a read
//! lock only).  Eviction is sampled LRU, the same policy as the serving
//! layer's `PredictionCache`: when a shard is full, a handful of resident
//! entries are inspected and the least-recently-touched one is dropped.
//! The cache never influences results — only how they are computed — so
//! the `Database` interior-mutability rule (no result-bearing state
//! behind shared references) is preserved.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use fxhash::FxHashMap;
use sqlan_sql::ast::{Expr, Literal, Script, Statement};
use sqlan_sql::visit::{walk_expr_mut, walk_statement_exprs_mut};

use crate::plan::{FoldStep, JoinStrategy, LogicalPlan, QueryPlan, SelectOp};

/// Number of cached templates a [`crate::Database`] starts with.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 1024;

const SHARDS: usize = 8;

/// How many resident entries an insert inspects when picking an eviction
/// victim.  Same sampled-LRU policy as the serving layer's cache.
const EVICTION_SAMPLE: usize = 8;

/// A parsed + planned statement template, shared read-only between all
/// executions of statements with the same fingerprint.
#[derive(Debug)]
pub struct CachedTemplate {
    /// Parsed script with `Expr::Param` placeholders at literal slots.
    pub script: Script,
    /// Optimized plan skeleton per statement; `Some` only for
    /// `Statement::Select` entries (DML re-plans its synthesized scan
    /// per execution, so only parse work is saved there).
    pub plans: Vec<Option<QueryPlan>>,
    /// Number of literal slots the template expects.  A probe whose
    /// literal vector disagrees bypasses the cache.
    pub param_count: usize,
}

/// Counters exposed for tests and the bench harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
    pub capacity: usize,
}

impl PlanCacheStats {
    /// Fraction of probes answered from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    tpl: Arc<CachedTemplate>,
    /// Logical timestamp of the last touch, for sampled-LRU eviction.
    stamp: AtomicU64,
}

/// Sharded, bounded, thread-safe template → plan map.
pub struct PlanCache {
    shards: Vec<RwLock<FxHashMap<u128, Entry>>>,
    per_shard_capacity: usize,
    capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("PlanCache")
            .field("capacity", &s.capacity)
            .field("entries", &s.entries)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

impl PlanCache {
    /// A cache holding at most `capacity` templates (rounded up to the
    /// shard count).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        PlanCache {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(FxHashMap::default()))
                .collect(),
            per_shard_capacity: capacity.div_ceil(SHARDS).max(1),
            capacity,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, fp: u128) -> &RwLock<FxHashMap<u128, Entry>> {
        // Fingerprints are already uniformly hashed; fold both halves so
        // shard choice uses more than the low bits.
        let h = (fp as u64) ^ ((fp >> 64) as u64);
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Look up a template by fingerprint, refreshing its LRU stamp.
    ///
    /// The per-instance atomics below are the source of truth for
    /// [`PlanCache::stats`]; the global [`sqlan_obs`] counters are a
    /// write-only mirror (never read back by execution code) so the
    /// serving layer's Prometheus endpoint sees cache behavior without
    /// holding a reference to any particular `Database`.
    pub fn get(&self, fp: u128) -> Option<Arc<CachedTemplate>> {
        let guard = self.shard(fp).read().expect("plan cache shard poisoned");
        match guard.get(&fp) {
            Some(entry) => {
                let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
                entry.stamp.store(now, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                if sqlan_obs::enabled() {
                    crate::obs::plan_cache_counters().hits.inc();
                }
                Some(Arc::clone(&entry.tpl))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if sqlan_obs::enabled() {
                    crate::obs::plan_cache_counters().misses.inc();
                }
                None
            }
        }
    }

    /// Is a template resident for this fingerprint?  Unlike
    /// [`PlanCache::get`] this moves no counters and refreshes no LRU
    /// stamp — EXPLAIN uses it to report provenance without perturbing
    /// the cache.
    pub fn contains(&self, fp: u128) -> bool {
        self.shard(fp)
            .read()
            .expect("plan cache shard poisoned")
            .contains_key(&fp)
    }

    /// Insert (or replace) a template, evicting a sampled-LRU victim if
    /// the shard is at capacity.
    pub fn insert(&self, fp: u128, tpl: Arc<CachedTemplate>) {
        let mut guard = self.shard(fp).write().expect("plan cache shard poisoned");
        if guard.len() >= self.per_shard_capacity && !guard.contains_key(&fp) {
            let victim = guard
                .iter()
                .take(EVICTION_SAMPLE)
                .min_by_key(|(_, e)| e.stamp.load(Ordering::Relaxed))
                .map(|(k, _)| *k);
            if let Some(victim) = victim {
                guard.remove(&victim);
            }
        }
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        guard.insert(
            fp,
            Entry {
                tpl,
                stamp: AtomicU64::new(now),
            },
        );
    }

    /// Hit/miss/occupancy counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.read().expect("plan cache shard poisoned").len())
                .sum(),
            capacity: self.capacity,
        }
    }
}

/// Replace every `Expr::Param { slot }` in `expr` (including inside
/// subqueries) with `Literal(literals[slot])`.
///
/// The caller guarantees `literals.len()` equals the template's
/// `param_count`; slots are assigned densely by the fingerprint lexer so
/// every slot index is in range.
pub fn rebind_expr(expr: &mut Expr, literals: &[Literal]) {
    walk_expr_mut(expr, &mut |node| {
        if let Expr::Param { slot, .. } = node {
            let value = literals
                .get(*slot as usize)
                .cloned()
                .expect("plan cache rebind: literal slot out of range");
            *node = Expr::Literal(value);
        }
    });
}

/// Rebind a cloned template statement in place: after this call the AST
/// contains no `Param` nodes and is value-identical to a fresh parse of
/// the probed statement.
pub fn rebind_statement(stmt: &mut Statement, literals: &[Literal]) {
    walk_statement_exprs_mut(stmt, &mut |node| {
        if let Expr::Param { slot, .. } = node {
            let value = literals
                .get(*slot as usize)
                .cloned()
                .expect("plan cache rebind: literal slot out of range");
            *node = Expr::Literal(value);
        }
    });
}

/// Rebind a cloned plan skeleton in place, covering every expression
/// position an optimized [`QueryPlan`] can carry.
pub fn rebind_plan(plan: &mut QueryPlan, literals: &[Literal]) {
    for item in &mut plan.items {
        rebind_node(item, literals);
    }
    for (_, pred) in &mut plan.pushed {
        rebind_expr(pred, literals);
    }
    for fold in &mut plan.folds {
        match fold {
            FoldStep::Cross => {}
            FoldStep::Hash {
                left_key,
                right_key,
                condition,
            } => {
                rebind_expr(left_key, literals);
                rebind_expr(right_key, literals);
                rebind_expr(condition, literals);
            }
        }
    }
    for pred in &mut plan.residual {
        rebind_expr(pred, literals);
    }
    match &mut plan.select {
        SelectOp::Project { items } => {
            for item in items {
                rebind_expr(&mut item.expr, literals);
            }
        }
        SelectOp::Aggregate {
            items,
            group_by,
            having,
        } => {
            for item in items {
                rebind_expr(&mut item.expr, literals);
            }
            for key in group_by {
                rebind_expr(key, literals);
            }
            if let Some(h) = having {
                rebind_expr(h, literals);
            }
        }
    }
    for ob in &mut plan.order_by {
        rebind_expr(&mut ob.expr, literals);
    }
}

fn rebind_node(node: &mut LogicalPlan, literals: &[Literal]) {
    match node {
        LogicalPlan::Scan { .. } => {}
        LogicalPlan::Subquery { plan, .. } => rebind_plan(plan, literals),
        LogicalPlan::Join {
            left,
            right,
            on,
            strategy,
            ..
        } => {
            rebind_node(left, literals);
            rebind_node(right, literals);
            if let Some(on) = on {
                rebind_expr(on, literals);
            }
            match strategy {
                JoinStrategy::NestedLoop => {}
                JoinStrategy::Hash {
                    left_key,
                    right_key,
                } => {
                    rebind_expr(left_key, literals);
                    rebind_expr(right_key, literals);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tpl(n: usize) -> Arc<CachedTemplate> {
        Arc::new(CachedTemplate {
            script: Script { statements: vec![] },
            plans: vec![],
            param_count: n,
        })
    }

    #[test]
    fn get_miss_then_hit() {
        let c = PlanCache::new(16);
        assert!(c.get(7).is_none());
        c.insert(7, tpl(0));
        let got = c.get(7).expect("inserted template");
        assert_eq!(got.param_count, 0);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn capacity_is_bounded() {
        let c = PlanCache::new(8);
        for fp in 0..1000u128 {
            c.insert(fp, tpl(0));
        }
        // div_ceil(8) = 1 per shard; 8 shards → at most 8 resident.
        assert!(c.stats().entries <= 8, "entries = {}", c.stats().entries);
    }

    #[test]
    fn eviction_prefers_stale_entries() {
        // Capacity 16 → two entries per shard, so the shard below fills
        // at two residents and the third insert must evict.
        let c = PlanCache::new(16);
        // Three fingerprints that land in the same shard: same folded
        // hash modulo SHARDS.  0, SHARDS, 2*SHARDS all fold to shard 0.
        let a = 0u128;
        let b = SHARDS as u128;
        let d = (2 * SHARDS) as u128;
        c.insert(a, tpl(1));
        c.insert(b, tpl(2));
        c.get(a); // refresh a; b is now the LRU entry
        c.insert(d, tpl(3));
        assert!(c.get(a).is_some(), "recently touched entry survived");
    }

    #[test]
    fn rebind_replaces_every_param() {
        use sqlan_sql::parse;
        let sql = "SELECT x FROM t WHERE a = 1 AND b = 'q' OR c IN (2, 3)";
        let fp = sqlan_sql::lex_fingerprint(sql);
        let outcome = sqlan_sql::parse_tokens(&fp.toks, fp.report.clone(), &fp.params);
        let mut script = outcome.result.expect("template parses");
        assert_eq!(fp.literals.len(), 4);
        for stmt in &mut script.statements {
            rebind_statement(stmt, &fp.literals);
        }
        let fresh = parse(sql).result.expect("fresh parse");
        assert_eq!(script, fresh, "rebound template equals fresh parse");
    }
}
