//! Optimizer passes over [`QueryPlan`]s.
//!
//! The optimizer is a sequence of composable [`OptimizerPass`] rules,
//! selected by [`OptLevel`] or assembled pass-by-pass for experiments.
//! Passes rewrite the plan; they never execute anything, and all of their
//! name-resolution decisions use the same [`Relation::resolve`] rules the
//! physical layer applies at runtime, so plan-time classification cannot
//! disagree with execution.
//!
//! Levels:
//!
//! * [`OptLevel::None`] — the naive lowered plan: cross-product folds,
//!   nested-loop joins, every WHERE conjunct a residual filter.
//! * [`OptLevel::Default`] — predicate pushdown + equi-join detection:
//!   exactly the decisions the original monolithic executor's
//!   "mini optimizer" made inline. **This level reproduces the historical
//!   execution semantics and deterministic cost labels byte-for-byte**
//!   (pinned by `tests/golden_labels.rs`); it is the level the workload
//!   label generator must always use.
//! * [`OptLevel::Aggressive`] — adds constant folding and projection
//!   pruning. Result rows are identical; cost labels may legitimately
//!   differ (folding removes per-row evaluation work), which is why it is
//!   opt-in.

use std::sync::Arc;

use sqlan_sql::{Expr, Literal, Op, Query, UnaryOp};

use crate::catalog::Catalog;
use crate::plan::{
    lower, node_schema, schema_relation, split_conjuncts, FoldStep, JoinStrategy, LogicalPlan,
    QueryPlan, SelectOp,
};
use crate::relation::Relation;
use crate::value::Value;

/// Optimization level: which pass set a [`Optimizer`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptLevel {
    /// No passes: execute the naive lowered plan.
    None,
    /// Predicate pushdown + equi-join detection (label-stable).
    Default,
    /// Default plus constant folding and projection pruning.
    Aggressive,
}

/// One rewrite rule.
pub trait OptimizerPass: std::fmt::Debug + Send + Sync {
    fn name(&self) -> &'static str;
    fn apply(&self, plan: &mut QueryPlan, catalog: &Catalog);
}

/// A pipeline of passes. Cheap to clone (passes are shared).
#[derive(Debug, Clone)]
pub struct Optimizer {
    passes: Vec<Arc<dyn OptimizerPass>>,
}

impl Default for Optimizer {
    fn default() -> Self {
        Optimizer::with_level(OptLevel::Default)
    }
}

impl Optimizer {
    /// An optimizer running no passes at all.
    pub fn none() -> Optimizer {
        Optimizer { passes: Vec::new() }
    }

    pub fn with_level(level: OptLevel) -> Optimizer {
        let mut opt = Optimizer::none();
        match level {
            OptLevel::None => {}
            OptLevel::Default => {
                opt = opt
                    .with_pass(PredicatePushdown)
                    .with_pass(EquiJoinDetection);
            }
            OptLevel::Aggressive => {
                opt = opt
                    .with_pass(ConstantFolding)
                    .with_pass(PredicatePushdown)
                    .with_pass(EquiJoinDetection)
                    .with_pass(ProjectionPruning);
            }
        }
        opt
    }

    /// Append a pass to the pipeline.
    pub fn with_pass(mut self, pass: impl OptimizerPass + 'static) -> Optimizer {
        self.passes.push(Arc::new(pass));
        self
    }

    /// Remove a pass by name (per-query toggling of individual rules).
    pub fn without_pass(mut self, name: &str) -> Optimizer {
        self.passes.retain(|p| p.name() != name);
        self
    }

    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// True when every pass in the pipeline is **value-independent**: its
    /// decisions depend only on query structure (column references, join
    /// shape, projection names), never on literal values. Value-independent
    /// pipelines produce the same plan *shape* for every statement of a
    /// template, which is the precondition for the cross-statement plan
    /// cache: a cached template plan rebound with fresh literals is then
    /// provably identical to fresh parse+optimize.
    ///
    /// `constant_folding` reads literal values (it evaluates them), and an
    /// unknown custom pass could do anything — either disables caching
    /// entirely (the uncacheable-template escape hatch; see "Plan cache &
    /// parsing front end" in the repository's `ARCHITECTURE.md`).
    pub fn cache_safe(&self) -> bool {
        self.passes.iter().all(|p| {
            matches!(
                p.name(),
                "predicate_pushdown" | "equi_join_detection" | "projection_pruning"
            )
        })
    }

    /// Lower `q` and run every pass over the plan (nested subquery plans
    /// included, innermost first).
    pub fn plan(&self, q: &Query, catalog: &Catalog) -> QueryPlan {
        let mut plan = lower(q);
        self.run(&mut plan, catalog);
        plan
    }

    /// Run the pass pipeline over an already-lowered plan.
    pub fn run(&self, plan: &mut QueryPlan, catalog: &Catalog) {
        for item in &mut plan.items {
            self.run_node(item, catalog);
        }
        for pass in &self.passes {
            pass.apply(plan, catalog);
        }
    }

    fn run_node(&self, node: &mut LogicalPlan, catalog: &Catalog) {
        match node {
            LogicalPlan::Scan { .. } => {}
            LogicalPlan::Subquery { plan, .. } => self.run(plan, catalog),
            LogicalPlan::Filter { input, .. } => self.run_node(input, catalog),
            LogicalPlan::Join { left, right, .. } => {
                self.run_node(left, catalog);
                self.run_node(right, catalog);
            }
        }
    }
}

// ================= conjunct classification =================

enum ConjunctClass {
    SingleItem(usize),
    EquiJoin,
    Residual,
}

/// Which FROM items does this conjunct touch? Resolution runs against the
/// items' schemas; a name resolvable in no item (or ambiguous within one)
/// makes the conjunct residual.
fn classify_conjunct(c: &Expr, items: &[Relation]) -> ConjunctClass {
    let mut touched: Vec<usize> = Vec::new();
    let mut unresolved = false;
    collect_column_parts(c, &mut |parts| {
        let mut any = false;
        for (i, rel) in items.iter().enumerate() {
            if let Ok(Some(_)) = rel.resolve(parts) {
                if !touched.contains(&i) {
                    touched.push(i);
                }
                any = true;
                break;
            }
        }
        if !any {
            unresolved = true;
        }
    });
    if unresolved {
        return ConjunctClass::Residual;
    }
    match touched.len() {
        0 | 1 => ConjunctClass::SingleItem(touched.first().copied().unwrap_or(0)),
        2 if is_equality(c) => ConjunctClass::EquiJoin,
        _ => ConjunctClass::Residual,
    }
}

fn is_equality(e: &Expr) -> bool {
    matches!(e, Expr::Binary { op: Op::Eq, .. })
}

fn collect_column_parts<'a>(e: &'a Expr, f: &mut impl FnMut(&'a [String])) {
    sqlan_sql::visit::walk_expr(e, &mut |x| {
        if let Expr::Column(c) = x {
            f(&c.parts);
        }
    });
}

/// If `cond` (or its first equality conjunct) is `lhs = rhs` with `lhs`
/// fully resolvable in `left` and `rhs` in `right` (or vice versa), return
/// the key expressions oriented as (left_key, right_key).
pub fn equi_join_keys(cond: &Expr, left: &Relation, right: &Relation) -> Option<(Expr, Expr)> {
    for c in split_conjuncts(cond) {
        if let Expr::Binary {
            left: l,
            op: Op::Eq,
            right: r,
        } = c
        {
            let l_in_left = expr_resolvable(l, left);
            let r_in_right = expr_resolvable(r, right);
            if l_in_left && r_in_right {
                return Some(((**l).clone(), (**r).clone()));
            }
            let l_in_right = expr_resolvable(l, right);
            let r_in_left = expr_resolvable(r, left);
            if l_in_right && r_in_left {
                return Some(((**r).clone(), (**l).clone()));
            }
        }
    }
    None
}

/// Does every column in `e` resolve within `rel`, with at least one column
/// present (constants alone don't make a join key)?
fn expr_resolvable(e: &Expr, rel: &Relation) -> bool {
    let mut any = false;
    let mut all = true;
    collect_column_parts(e, &mut |parts| {
        any = true;
        if !matches!(rel.resolve(parts), Ok(Some(_))) {
            all = false;
        }
    });
    any && all && !contains_subquery(e)
}

fn contains_subquery(e: &Expr) -> bool {
    let mut found = false;
    sqlan_sql::visit::walk_expr(e, &mut |x| {
        if matches!(
            x,
            Expr::Subquery(_) | Expr::InSubquery { .. } | Expr::Exists { .. }
        ) {
            found = true;
        }
    });
    found
}

// ================= pass: predicate pushdown =================

/// Move residual conjuncts that touch a single FROM item into the plan's
/// pushed-filter list (original conjunct order preserved — that order is
/// observable through the cost counter).
#[derive(Debug, Clone, Copy)]
pub struct PredicatePushdown;

impl OptimizerPass for PredicatePushdown {
    fn name(&self) -> &'static str {
        "predicate_pushdown"
    }

    fn apply(&self, plan: &mut QueryPlan, catalog: &Catalog) {
        if plan.items.is_empty() {
            // FROM-less queries filter the unit row; nothing to push.
            return;
        }
        let schemas: Vec<Relation> = plan
            .items
            .iter()
            .map(|it| schema_relation(node_schema(it, catalog)))
            .collect();
        let conjuncts = std::mem::take(&mut plan.residual);
        for c in conjuncts {
            match classify_conjunct(&c, &schemas) {
                ConjunctClass::SingleItem(i) => plan.pushed.push((i, c)),
                _ => plan.residual.push(c),
            }
        }
    }
}

// ================= pass: equi-join detection =================

/// Turn cross-product folds into single-key hash joins using equality
/// conjuncts from the WHERE clause, and annotate explicit JOIN nodes whose
/// ON condition contains a usable equality with a hash strategy.
#[derive(Debug, Clone, Copy)]
pub struct EquiJoinDetection;

impl OptimizerPass for EquiJoinDetection {
    fn name(&self) -> &'static str {
        "equi_join_detection"
    }

    fn apply(&self, plan: &mut QueryPlan, catalog: &Catalog) {
        // Explicit JOIN nodes inside each item tree.
        for item in &mut plan.items {
            annotate_join_strategies(item, catalog);
        }

        if plan.items.len() < 2 {
            return;
        }
        let schemas: Vec<Relation> = plan
            .items
            .iter()
            .map(|it| schema_relation(node_schema(it, catalog)))
            .collect();

        // Pull the equality conjuncts that connect exactly two items out
        // of the residual list, keeping everything else in place.
        let mut join_conds: Vec<Expr> = Vec::new();
        let residual = std::mem::take(&mut plan.residual);
        for c in residual {
            match classify_conjunct(&c, &schemas) {
                ConjunctClass::EquiJoin => join_conds.push(c),
                _ => plan.residual.push(c),
            }
        }

        // Fold items left to right, consuming every join condition that
        // becomes applicable at each step (mirroring how the accumulated
        // relation's schema grows).
        let mut folds = Vec::with_capacity(plan.items.len() - 1);
        let mut acc_cols = schemas[0].cols.clone();
        for next in &schemas[1..] {
            let acc_rel = schema_relation(acc_cols.clone());
            let (applicable, rest): (Vec<Expr>, Vec<Expr>) = join_conds
                .into_iter()
                .partition(|c| equi_join_keys(c, &acc_rel, next).is_some());
            join_conds = rest;
            let step = match applicable.first() {
                Some(first) => {
                    let (lk, rk) = equi_join_keys(first, &acc_rel, next)
                        .expect("partition guarantees applicability");
                    let condition =
                        applicable
                            .iter()
                            .skip(1)
                            .fold(applicable[0].clone(), |acc, c| Expr::Logical {
                                left: Box::new(acc),
                                and: true,
                                right: Box::new(c.clone()),
                            });
                    FoldStep::Hash {
                        left_key: lk,
                        right_key: rk,
                        condition,
                    }
                }
                None => FoldStep::Cross,
            };
            folds.push(step);
            acc_cols.extend(next.cols.iter().cloned());
        }
        // Join conditions that never became applicable fall back to
        // residual filtering, after the other residual conjuncts.
        plan.residual.extend(join_conds);
        plan.folds = folds;
    }
}

fn annotate_join_strategies(node: &mut LogicalPlan, catalog: &Catalog) {
    match node {
        LogicalPlan::Scan { .. } | LogicalPlan::Subquery { .. } => {}
        LogicalPlan::Filter { input, .. } => annotate_join_strategies(input, catalog),
        LogicalPlan::Join {
            left,
            right,
            on,
            strategy,
            ..
        } => {
            annotate_join_strategies(left, catalog);
            annotate_join_strategies(right, catalog);
            if let Some(cond) = on {
                let lrel = schema_relation(node_schema(left, catalog));
                let rrel = schema_relation(node_schema(right, catalog));
                if let Some((lk, rk)) = equi_join_keys(cond, &lrel, &rrel) {
                    *strategy = JoinStrategy::Hash {
                        left_key: Box::new(lk),
                        right_key: Box::new(rk),
                    };
                }
            }
        }
    }
}

// ================= pass: constant folding =================

/// Fold literal-only arithmetic (`1 + 2`, `-3.5`, `'a' + 'b'`) ahead of
/// execution. Comparisons and logic are left alone — they produce boolean
/// *values* the literal grammar cannot represent — and anything that would
/// error (`1 / 0`) is left unfolded so runtime error labels are preserved.
#[derive(Debug, Clone, Copy)]
pub struct ConstantFolding;

impl OptimizerPass for ConstantFolding {
    fn name(&self) -> &'static str {
        "constant_folding"
    }

    fn apply(&self, plan: &mut QueryPlan, _catalog: &Catalog) {
        for (_, e) in &mut plan.pushed {
            fold_expr(e);
        }
        for e in &mut plan.residual {
            fold_expr(e);
        }
        for f in &mut plan.folds {
            if let FoldStep::Hash {
                left_key,
                right_key,
                condition,
            } = f
            {
                fold_expr(left_key);
                fold_expr(right_key);
                fold_expr(condition);
            }
        }
        match &mut plan.select {
            SelectOp::Project { items } => {
                for i in items {
                    fold_expr(&mut i.expr);
                }
            }
            SelectOp::Aggregate {
                items,
                group_by,
                having,
            } => {
                for i in items {
                    fold_expr(&mut i.expr);
                }
                for g in group_by {
                    fold_expr(g);
                }
                if let Some(h) = having {
                    fold_expr(h);
                }
            }
        }
        for o in &mut plan.order_by {
            fold_expr(&mut o.expr);
        }
        for item in &mut plan.items {
            fold_node(item);
        }
    }
}

fn fold_node(node: &mut LogicalPlan) {
    match node {
        LogicalPlan::Scan { .. } | LogicalPlan::Subquery { .. } => {}
        LogicalPlan::Filter { input, predicate } => {
            fold_expr(predicate);
            fold_node(input);
        }
        LogicalPlan::Join {
            left,
            right,
            on,
            strategy,
            ..
        } => {
            fold_node(left);
            fold_node(right);
            if let Some(c) = on {
                fold_expr(c);
            }
            if let JoinStrategy::Hash {
                left_key,
                right_key,
            } = strategy
            {
                fold_expr(left_key);
                fold_expr(right_key);
            }
        }
    }
}

/// Bottom-up literal folding, in place.
fn fold_expr(e: &mut Expr) {
    // Recurse first.
    match e {
        Expr::Unary { expr, .. } => fold_expr(expr),
        Expr::Binary { left, right, .. } => {
            fold_expr(left);
            fold_expr(right);
        }
        Expr::Logical { left, right, .. } => {
            fold_expr(left);
            fold_expr(right);
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            fold_expr(expr);
            fold_expr(low);
            fold_expr(high);
        }
        Expr::InList { expr, list, .. } => {
            fold_expr(expr);
            for x in list {
                fold_expr(x);
            }
        }
        Expr::Like { expr, pattern, .. } => {
            fold_expr(expr);
            fold_expr(pattern);
        }
        Expr::IsNull { expr, .. } => fold_expr(expr),
        Expr::Function(f) => {
            for a in &mut f.args {
                fold_expr(a);
            }
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            if let Some(o) = operand {
                fold_expr(o);
            }
            for (c, v) in branches {
                fold_expr(c);
                fold_expr(v);
            }
            if let Some(x) = else_expr {
                fold_expr(x);
            }
        }
        Expr::Cast { expr, .. } => fold_expr(expr),
        // Subqueries are separate execution scopes; leave their ASTs
        // untouched (their plans are optimized when they run). Params are
        // opaque leaves: folding one would bake a template's seed literal
        // into the plan shape, which is exactly what makes a template
        // uncacheable — the plan cache refuses to cache under this pass
        // (see `Optimizer::cache_safe`), and `literal_of` below never
        // looks through a Param.
        Expr::Column(_)
        | Expr::Wildcard(_)
        | Expr::Literal(_)
        | Expr::Param { .. }
        | Expr::Subquery(_)
        | Expr::InSubquery { .. }
        | Expr::Exists { .. } => {}
    }

    // Then fold this node if it is a literal-only arithmetic operation.
    let folded: Option<Literal> = match &*e {
        Expr::Binary { left, op, right } if op_is_arithmetic(*op) => {
            match (literal_of(left), literal_of(right)) {
                (Some(l), Some(r)) => crate::eval::apply_binary(&l, *op, &r)
                    .ok()
                    .and_then(value_to_literal),
                _ => None,
            }
        }
        Expr::Unary {
            op: UnaryOp::Neg,
            expr,
        } => literal_of(expr)
            .and_then(|v| v.neg().ok())
            .and_then(value_to_literal),
        Expr::Unary {
            op: UnaryOp::Plus,
            expr,
        } => literal_of(expr).and_then(value_to_literal),
        _ => None,
    };
    if let Some(lit) = folded {
        *e = Expr::Literal(lit);
    }
}

fn op_is_arithmetic(op: Op) -> bool {
    matches!(
        op,
        Op::Plus
            | Op::Minus
            | Op::Star
            | Op::Slash
            | Op::Percent
            | Op::BitAnd
            | Op::BitOr
            | Op::BitXor
            | Op::Concat
    )
}

fn literal_of(e: &Expr) -> Option<Value> {
    match e {
        Expr::Literal(l) => Some(crate::eval::literal_value(l)),
        _ => None,
    }
}

fn value_to_literal(v: Value) -> Option<Literal> {
    match v {
        Value::Int(i) => Some(Literal::Number(i as f64, i.to_string())),
        Value::Float(f) if f.is_finite() => Some(Literal::Number(f, format!("{f:?}"))),
        Value::Str(s) => Some(Literal::String(s)),
        Value::Null => Some(Literal::Null),
        // Booleans have no literal form; keep the expression.
        _ => None,
    }
}

// ================= pass: projection pruning =================

/// Restrict base-table scans to the columns the query can observe. Row
/// counts and cost-counter charges are unchanged (the counters charge per
/// row, not per column); the win is materialization width. Name-based
/// retention keeps every column whose name is referenced anywhere —
/// qualified or not — so ambiguity errors still fire exactly as before.
#[derive(Debug, Clone, Copy)]
pub struct ProjectionPruning;

impl OptimizerPass for ProjectionPruning {
    fn name(&self) -> &'static str {
        "projection_pruning"
    }

    fn apply(&self, plan: &mut QueryPlan, catalog: &Catalog) {
        let mut used = UsedColumns::default();
        collect_plan_usage(plan, &mut used);
        if used.all {
            return;
        }
        for item in &mut plan.items {
            prune_node(item, catalog, &used);
        }
    }
}

#[derive(Debug, Default)]
struct UsedColumns {
    /// Lower-cased bare column names referenced anywhere.
    names: std::collections::HashSet<String>,
    /// Lower-cased qualifiers of `alias.*` wildcards.
    wildcard_quals: std::collections::HashSet<String>,
    /// An unqualified `*` (or anything else un-analyzable) was seen.
    all: bool,
}

fn collect_plan_usage(plan: &QueryPlan, used: &mut UsedColumns) {
    for (_, e) in &plan.pushed {
        collect_expr_usage(e, used);
    }
    for e in &plan.residual {
        collect_expr_usage(e, used);
    }
    for f in &plan.folds {
        if let FoldStep::Hash {
            left_key,
            right_key,
            condition,
        } = f
        {
            collect_expr_usage(left_key, used);
            collect_expr_usage(right_key, used);
            collect_expr_usage(condition, used);
        }
    }
    match &plan.select {
        SelectOp::Project { items } => {
            for i in items {
                collect_expr_usage(&i.expr, used);
            }
        }
        SelectOp::Aggregate {
            items,
            group_by,
            having,
        } => {
            for i in items {
                collect_expr_usage(&i.expr, used);
            }
            for g in group_by {
                collect_expr_usage(g, used);
            }
            if let Some(h) = having {
                collect_expr_usage(h, used);
            }
        }
    }
    for o in &plan.order_by {
        collect_expr_usage(&o.expr, used);
    }
    for item in &plan.items {
        collect_node_usage(item, used);
    }
}

fn collect_node_usage(node: &LogicalPlan, used: &mut UsedColumns) {
    match node {
        LogicalPlan::Scan { .. } => {}
        // A derived table's internals resolve against its own scope, but
        // correlated references inside it can reach this query's columns.
        LogicalPlan::Subquery { plan, .. } => collect_plan_usage(plan, used),
        LogicalPlan::Filter { input, predicate } => {
            collect_expr_usage(predicate, used);
            collect_node_usage(input, used);
        }
        LogicalPlan::Join {
            left,
            right,
            on,
            strategy,
            ..
        } => {
            collect_node_usage(left, used);
            collect_node_usage(right, used);
            if let Some(c) = on {
                collect_expr_usage(c, used);
            }
            if let JoinStrategy::Hash {
                left_key,
                right_key,
            } = strategy
            {
                collect_expr_usage(left_key, used);
                collect_expr_usage(right_key, used);
            }
        }
    }
}

/// Record every column name in `e`, descending into subqueries (their
/// correlated references resolve against this query's relations).
fn collect_expr_usage(e: &Expr, used: &mut UsedColumns) {
    sqlan_sql::visit::walk_expr(e, &mut |x| match x {
        Expr::Column(c) => {
            if let Some(last) = c.parts.last() {
                used.names.insert(last.to_ascii_lowercase());
            }
        }
        Expr::Wildcard(None) => used.all = true,
        Expr::Wildcard(Some(q)) => {
            used.wildcard_quals.insert(q.to_ascii_lowercase());
        }
        _ => {}
    });
    sqlan_sql::visit::walk_expr_queries(e, &mut |q| collect_query_usage(q, used));
}

fn collect_query_usage(q: &Query, used: &mut UsedColumns) {
    sqlan_sql::visit::walk_query_exprs(q, &mut |e| match e {
        Expr::Column(c) => {
            if let Some(last) = c.parts.last() {
                used.names.insert(last.to_ascii_lowercase());
            }
        }
        Expr::Wildcard(None) => used.all = true,
        Expr::Wildcard(Some(qual)) => {
            used.wildcard_quals.insert(qual.to_ascii_lowercase());
        }
        _ => {}
    });
    sqlan_sql::visit::walk_child_queries(q, &mut |c| collect_query_usage(c, used));
}

fn prune_node(node: &mut LogicalPlan, catalog: &Catalog, used: &UsedColumns) {
    match node {
        LogicalPlan::Scan {
            table,
            alias,
            columns,
        } => {
            let Some(t) = catalog.get(&table.canonical()) else {
                return;
            };
            let qualifier = alias.as_ref().map(|a| a.to_ascii_lowercase());
            let tname = t.name.to_ascii_lowercase();
            let binding_matches =
                |q: &String| qualifier.as_ref() == Some(q) || (qualifier.is_none() && *q == tname);
            if used.wildcard_quals.iter().any(binding_matches) {
                return; // `alias.*` needs the whole row
            }
            let keep: Vec<usize> = t
                .columns
                .iter()
                .enumerate()
                .filter(|(_, c)| used.names.contains(&c.name.to_ascii_lowercase()))
                .map(|(i, _)| i)
                .collect();
            if keep.len() < t.columns.len() {
                *columns = Some(keep);
            }
        }
        // Derived tables already prune their own scans via the recursive
        // optimizer run; their projection head defines their schema.
        LogicalPlan::Subquery { .. } => {}
        LogicalPlan::Filter { input, .. } => prune_node(input, catalog, used),
        LogicalPlan::Join { left, right, .. } => {
            prune_node(left, catalog, used);
            prune_node(right, catalog, used);
        }
    }
}
