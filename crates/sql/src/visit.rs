//! Lightweight AST walkers.
//!
//! The property extractor and the engine both need to traverse expressions
//! and queries; centralizing the recursion here keeps the traversal order
//! consistent and avoids four separate hand-rolled walkers drifting apart.

use crate::ast::*;

/// Walk every sub-expression of `expr` (including `expr` itself), calling
/// `f` on each. Subqueries are **not** entered; [`walk_child_queries`]
/// finds the subqueries of a query.
pub fn walk_expr<'a>(expr: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(expr);
    match expr {
        Expr::Column(_) | Expr::Wildcard(_) | Expr::Literal(_) | Expr::Param { .. } => {}
        Expr::Unary { expr, .. } => walk_expr(expr, f),
        Expr::Binary { left, right, .. } => {
            walk_expr(left, f);
            walk_expr(right, f);
        }
        Expr::Logical { left, right, .. } => {
            walk_expr(left, f);
            walk_expr(right, f);
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            walk_expr(expr, f);
            walk_expr(low, f);
            walk_expr(high, f);
        }
        Expr::InList { expr, list, .. } => {
            walk_expr(expr, f);
            for e in list {
                walk_expr(e, f);
            }
        }
        Expr::InSubquery { expr, .. } => walk_expr(expr, f),
        Expr::Like { expr, pattern, .. } => {
            walk_expr(expr, f);
            walk_expr(pattern, f);
        }
        Expr::IsNull { expr, .. } => walk_expr(expr, f),
        Expr::Exists { .. } => {}
        Expr::Subquery(_) => {}
        Expr::Function(call) => {
            for a in &call.args {
                walk_expr(a, f);
            }
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            if let Some(op) = operand {
                walk_expr(op, f);
            }
            for (c, v) in branches {
                walk_expr(c, f);
                walk_expr(v, f);
            }
            if let Some(e) = else_expr {
                walk_expr(e, f);
            }
        }
        Expr::Cast { expr, .. } => walk_expr(expr, f),
    }
}

/// Call `f` on every expression appearing directly in `query` (select list,
/// join conditions, where, group by, having, order by) without entering
/// subqueries.
pub fn walk_query_exprs<'a>(query: &'a Query, f: &mut impl FnMut(&'a Expr)) {
    for item in &query.select {
        walk_expr(&item.expr, f);
    }
    for fi in &query.from {
        for j in &fi.joins {
            if let Some(on) = &j.on {
                walk_expr(on, f);
            }
        }
    }
    if let Some(w) = &query.where_clause {
        walk_expr(w, f);
    }
    for g in &query.group_by {
        walk_expr(g, f);
    }
    if let Some(h) = &query.having {
        walk_expr(h, f);
    }
    for o in &query.order_by {
        walk_expr(&o.expr, f);
    }
}

/// Call `f` on each immediate child query of `query`: derived tables in
/// FROM plus subqueries in any expression position.
pub fn walk_child_queries<'a>(query: &'a Query, f: &mut impl FnMut(&'a Query)) {
    for fi in &query.from {
        if let TableFactor::Derived { subquery, .. } = &fi.factor {
            f(subquery);
        }
        for j in &fi.joins {
            if let TableFactor::Derived { subquery, .. } = &j.factor {
                f(subquery);
            }
        }
    }
    walk_query_exprs(query, &mut |e| {
        walk_expr_queries_shallow(e, f);
    });
}

// walk_query_exprs already recurses through each expression tree, so here we
// only need to look at the node itself to avoid double-visiting subqueries.
fn walk_expr_queries_shallow<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Query)) {
    match e {
        Expr::InSubquery { subquery, .. }
        | Expr::Exists { subquery, .. }
        | Expr::Subquery(subquery) => f(subquery),
        _ => {}
    }
}

/// Mutably walk every sub-expression of `expr` (including `expr` itself),
/// calling `f` on each node *before* recursing into its children, and
/// entering subqueries (via [`walk_query_exprs_mut`]). Used by the plan
/// cache to rebind [`Expr::Param`] slots to fresh literal values; unlike
/// [`walk_expr`], this traversal is exhaustive over nested queries so no
/// parameter can hide from a rebind.
pub fn walk_expr_mut(expr: &mut Expr, f: &mut impl FnMut(&mut Expr)) {
    f(expr);
    match expr {
        Expr::Column(_) | Expr::Wildcard(_) | Expr::Literal(_) | Expr::Param { .. } => {}
        Expr::Unary { expr, .. } => walk_expr_mut(expr, f),
        Expr::Binary { left, right, .. } | Expr::Logical { left, right, .. } => {
            walk_expr_mut(left, f);
            walk_expr_mut(right, f);
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            walk_expr_mut(expr, f);
            walk_expr_mut(low, f);
            walk_expr_mut(high, f);
        }
        Expr::InList { expr, list, .. } => {
            walk_expr_mut(expr, f);
            for e in list {
                walk_expr_mut(e, f);
            }
        }
        Expr::InSubquery { expr, subquery, .. } => {
            walk_expr_mut(expr, f);
            walk_query_exprs_mut(subquery, f);
        }
        Expr::Like { expr, pattern, .. } => {
            walk_expr_mut(expr, f);
            walk_expr_mut(pattern, f);
        }
        Expr::IsNull { expr, .. } => walk_expr_mut(expr, f),
        Expr::Exists { subquery, .. } => walk_query_exprs_mut(subquery, f),
        Expr::Subquery(subquery) => walk_query_exprs_mut(subquery, f),
        Expr::Function(call) => {
            for a in &mut call.args {
                walk_expr_mut(a, f);
            }
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            if let Some(op) = operand {
                walk_expr_mut(op, f);
            }
            for (c, v) in branches {
                walk_expr_mut(c, f);
                walk_expr_mut(v, f);
            }
            if let Some(e) = else_expr {
                walk_expr_mut(e, f);
            }
        }
        Expr::Cast { expr, .. } => walk_expr_mut(expr, f),
    }
}

/// Mutably visit every expression reachable from `query`, including those
/// inside derived tables, join conditions, and subqueries at any depth.
pub fn walk_query_exprs_mut(query: &mut Query, f: &mut impl FnMut(&mut Expr)) {
    for item in &mut query.select {
        walk_expr_mut(&mut item.expr, f);
    }
    for fi in &mut query.from {
        if let TableFactor::Derived { subquery, .. } = &mut fi.factor {
            walk_query_exprs_mut(subquery, f);
        }
        for j in &mut fi.joins {
            if let TableFactor::Derived { subquery, .. } = &mut j.factor {
                walk_query_exprs_mut(subquery, f);
            }
            if let Some(on) = &mut j.on {
                walk_expr_mut(on, f);
            }
        }
    }
    if let Some(w) = &mut query.where_clause {
        walk_expr_mut(w, f);
    }
    for g in &mut query.group_by {
        walk_expr_mut(g, f);
    }
    if let Some(h) = &mut query.having {
        walk_expr_mut(h, f);
    }
    for o in &mut query.order_by {
        walk_expr_mut(&mut o.expr, f);
    }
}

/// Mutably visit every expression in a statement (see
/// [`walk_query_exprs_mut`]); statements without expressions are no-ops.
pub fn walk_statement_exprs_mut(stmt: &mut Statement, f: &mut impl FnMut(&mut Expr)) {
    match stmt {
        Statement::Select(q) => walk_query_exprs_mut(q, f),
        Statement::Dml { query: Some(q), .. } => walk_query_exprs_mut(q, f),
        _ => {}
    }
}

/// All queries in a statement, paired with their nesting depth (the
/// outermost query has depth 0). Traversal is breadth-first.
pub fn queries_with_depth(stmt: &Statement) -> Vec<(&Query, u32)> {
    let mut out = Vec::new();
    let mut frontier: Vec<(&Query, u32)> = Vec::new();
    match stmt {
        Statement::Select(q) => frontier.push((q, 0)),
        Statement::Dml { query: Some(q), .. } => frontier.push((q, 0)),
        _ => {}
    }
    while let Some((q, d)) = frontier.pop() {
        out.push((q, d));
        walk_child_queries(q, &mut |c| frontier.push((c, d + 1)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_script;

    fn first(stmt: &str) -> Statement {
        parse_script(stmt)
            .unwrap()
            .statements
            .into_iter()
            .next()
            .unwrap()
    }

    #[test]
    fn depth_of_flat_query_is_zero() {
        let s = first("SELECT x FROM t WHERE y = 1");
        let qs = queries_with_depth(&s);
        assert_eq!(qs.len(), 1);
        assert_eq!(qs[0].1, 0);
    }

    #[test]
    fn depth_counts_nested_subqueries() {
        let s =
            first("SELECT x FROM t WHERE y = (SELECT max(y) FROM u WHERE z IN (SELECT z FROM v))");
        let qs = queries_with_depth(&s);
        let max = qs.iter().map(|(_, d)| *d).max().unwrap();
        assert_eq!(qs.len(), 3);
        assert_eq!(max, 2);
    }

    #[test]
    fn derived_tables_count_as_depth() {
        let s = first("SELECT a FROM (SELECT a FROM t) d");
        let qs = queries_with_depth(&s);
        assert_eq!(qs.len(), 2);
        assert_eq!(qs.iter().map(|(_, d)| *d).max().unwrap(), 1);
    }

    #[test]
    fn walk_query_exprs_visits_all_clauses() {
        let s = first(
            "SELECT a + 1 FROM t JOIN u ON t.i = u.i WHERE b > 2 \
             GROUP BY c HAVING count(*) > 3 ORDER BY d DESC",
        );
        let q = match &s {
            Statement::Select(q) => q,
            _ => unreachable!(),
        };
        let mut cols = Vec::new();
        walk_query_exprs(q, &mut |e| {
            if let Expr::Column(c) = e {
                cols.push(c.canonical());
            }
        });
        for want in ["a", "t.i", "u.i", "b", "c", "d"] {
            assert!(cols.iter().any(|c| c == want), "missing {want} in {cols:?}");
        }
    }
}
