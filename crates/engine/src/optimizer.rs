//! The planner: lowering plus the label pass set.
//!
//! [`plan`] lowers a query and, at [`OptLevel::Default`], runs two
//! rewrites over the plan: predicate pushdown, then equi-join detection.
//! They never execute anything, and all of their name-resolution
//! decisions use the same [`Relation::resolve`] rules the physical layer
//! applies at runtime, so plan-time classification cannot disagree with
//! execution.
//!
//! Levels:
//!
//! * [`OptLevel::None`] — the naive lowered plan: cross-product folds,
//!   nested-loop joins, every WHERE conjunct a residual filter. It is the
//!   test oracle for "optimization never changes rows".
//! * [`OptLevel::Default`] — predicate pushdown + equi-join detection:
//!   exactly the decisions the original monolithic executor's
//!   "mini optimizer" made inline. **This level reproduces the historical
//!   execution semantics and deterministic cost labels byte-for-byte**
//!   (pinned by `tests/golden_labels.rs`); it is the level the workload
//!   label generator must always use.

use sqlan_sql::{Expr, Op, Query};

use crate::catalog::Catalog;
use crate::plan::{
    lower, node_schema, schema_relation, split_conjuncts, FoldStep, JoinStrategy, LogicalPlan,
    QueryPlan,
};
use crate::relation::Relation;

/// Optimization level: whether [`plan`] rewrites the lowered plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptLevel {
    /// No rewrites: execute the naive lowered plan.
    None,
    /// Predicate pushdown + equi-join detection (label-stable).
    Default,
}

/// Lower `q` and, at [`OptLevel::Default`], run predicate pushdown then
/// equi-join detection over the plan (derived-table plans first,
/// innermost first).
pub fn plan(q: &Query, catalog: &Catalog, level: OptLevel) -> QueryPlan {
    let mut plan = lower(q);
    if level == OptLevel::Default {
        optimize(&mut plan, catalog);
    }
    plan
}

fn optimize(plan: &mut QueryPlan, catalog: &Catalog) {
    for item in &mut plan.items {
        optimize_node(item, catalog);
    }
    predicate_pushdown(plan, catalog);
    equi_join_detection(plan, catalog);
}

fn optimize_node(node: &mut LogicalPlan, catalog: &Catalog) {
    match node {
        LogicalPlan::Scan { .. } => {}
        LogicalPlan::Subquery { plan, .. } => optimize(plan, catalog),
        LogicalPlan::Filter { input, .. } => optimize_node(input, catalog),
        LogicalPlan::Join { left, right, .. } => {
            optimize_node(left, catalog);
            optimize_node(right, catalog);
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

// ================= predicate pushdown =================

/// Move residual conjuncts that touch a single FROM item into the plan's
/// pushed-filter list (original conjunct order preserved — that order is
/// observable through the cost counter).
fn predicate_pushdown(plan: &mut QueryPlan, catalog: &Catalog) {
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

// ================= equi-join detection =================

/// Turn cross-product folds into single-key hash joins using equality
/// conjuncts from the WHERE clause, and annotate explicit JOIN nodes whose
/// ON condition contains a usable equality with a hash strategy.
fn equi_join_detection(plan: &mut QueryPlan, catalog: &Catalog) {
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
                let condition = applicable
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
