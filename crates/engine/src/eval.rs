//! Scalar expression evaluation, row-at-a-time **and** vectorized.
//!
//! [`eval`] is the row engine's evaluator: one expression against one row,
//! with correlated-subquery support and uncorrelated-subquery caching.
//! `eval_batch` is the columnar engine's evaluator: the same expression
//! against a whole [`ColumnBatch`] at once, producing a typed [`Column`].
//! The two must charge the *same total* [`crate::CostCounter`] on every
//! successful evaluation — per-row short-circuiting (AND/OR, CASE
//! branches, IN-list early exit) is reproduced with shrinking row
//! subsets, so exactly the same (row, subexpression) pairs are evaluated,
//! merely in column order instead of row order.

use std::collections::HashSet;
use std::sync::Arc;

use sqlan_sql::{Expr, Literal, Op, UnaryOp};

use crate::catalog::ColumnVec;
use crate::error::RuntimeError;
use crate::exec::{CachedSubquery as SubqueryCacheEntry, ExecCtx, Scope};
use crate::relation::{gather, ColumnBatch, Relation};
use crate::value::{Column, ColumnBuilder, Value};

/// Evaluate `expr` for `row` of `rel`; `outer` carries enclosing scopes for
/// correlated references (innermost last). Sets `used_outer` when an outer
/// scope actually supplied a column.
pub fn eval(
    ctx: &mut ExecCtx<'_>,
    expr: &Expr,
    rel: &Relation,
    row: &[Value],
    outer: &[Scope<'_>],
    used_outer: &mut bool,
) -> Result<Value, RuntimeError> {
    match expr {
        Expr::Literal(l) => Ok(literal_value(l)),
        // Plan-cache templates rebind every Param to a Literal before
        // execution; if one slips through, its carried value is still the
        // literal the template was built from.
        Expr::Param { value, .. } => Ok(literal_value(value)),
        Expr::Column(name) => {
            // Current row first, then outer scopes from innermost out.
            if let Some(i) = rel.resolve(&name.parts)? {
                return Ok(row.get(i).cloned().unwrap_or(Value::Null));
            }
            for scope in outer.iter().rev() {
                if let Some(i) = scope.rel.resolve(&name.parts)? {
                    *used_outer = true;
                    return Ok(scope.row.get(i).cloned().unwrap_or(Value::Null));
                }
            }
            Err(RuntimeError::UnknownColumn(name.canonical()))
        }
        Expr::Wildcard(_) => Err(RuntimeError::TypeError(
            "wildcard is not a scalar expression".into(),
        )),
        Expr::Unary { op, expr } => {
            let v = eval(ctx, expr, rel, row, outer, used_outer)?;
            match op {
                UnaryOp::Neg => v.neg(),
                UnaryOp::Plus => Ok(v),
                UnaryOp::Not => Ok(Value::Bool(!v.is_truthy())),
            }
        }
        Expr::Binary { left, op, right } => {
            let l = eval(ctx, left, rel, row, outer, used_outer)?;
            let r = eval(ctx, right, rel, row, outer, used_outer)?;
            apply_binary(&l, *op, &r)
        }
        Expr::Logical { left, and, right } => {
            let l = eval(ctx, left, rel, row, outer, used_outer)?;
            // Short-circuit, charging only what we evaluate.
            if *and && !l.is_truthy() {
                return Ok(Value::Bool(false));
            }
            if !*and && l.is_truthy() {
                return Ok(Value::Bool(true));
            }
            let r = eval(ctx, right, rel, row, outer, used_outer)?;
            Ok(Value::Bool(r.is_truthy()))
        }
        Expr::Between {
            expr,
            negated,
            low,
            high,
        } => {
            let v = eval(ctx, expr, rel, row, outer, used_outer)?;
            let lo = eval(ctx, low, rel, row, outer, used_outer)?;
            let hi = eval(ctx, high, rel, row, outer, used_outer)?;
            let inside = matches!(
                v.sql_cmp(&lo),
                Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
            ) && matches!(
                v.sql_cmp(&hi),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            );
            Ok(Value::Bool(inside != *negated))
        }
        Expr::InList {
            expr,
            negated,
            list,
        } => {
            let v = eval(ctx, expr, rel, row, outer, used_outer)?;
            let mut found = false;
            for item in list {
                let w = eval(ctx, item, rel, row, outer, used_outer)?;
                if matches!(v.sql_cmp(&w), Some(std::cmp::Ordering::Equal)) {
                    found = true;
                    break;
                }
            }
            Ok(Value::Bool(found != *negated))
        }
        Expr::Like {
            expr,
            negated,
            pattern,
        } => {
            let v = eval(ctx, expr, rel, row, outer, used_outer)?;
            let p = eval(ctx, pattern, rel, row, outer, used_outer)?;
            ctx.counter.eval_units += 1;
            let m = v.like(&p)?;
            Ok(Value::Bool(m.is_truthy() != *negated))
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(ctx, expr, rel, row, outer, used_outer)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Function(f) => {
            let mut args = Vec::with_capacity(f.args.len());
            for a in &f.args {
                args.push(eval(ctx, a, rel, row, outer, used_outer)?);
            }
            if f.aggregate.is_some() {
                // Aggregate outside GROUP BY context (e.g. in WHERE):
                // T-SQL rejects this; we surface it as a type error, which
                // maps to a non-severe execution failure.
                return Err(RuntimeError::TypeError(format!(
                    "aggregate {}() not allowed here",
                    f.name.base()
                )));
            }
            let (v, cost) = ctx.fns.call(&f.name.canonical(), &args)?;
            ctx.counter.fn_units += cost;
            Ok(v)
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            let op_val = match operand {
                Some(o) => Some(eval(ctx, o, rel, row, outer, used_outer)?),
                None => None,
            };
            for (cond, result) in branches {
                let c = eval(ctx, cond, rel, row, outer, used_outer)?;
                let hit = match &op_val {
                    Some(v) => matches!(v.sql_cmp(&c), Some(std::cmp::Ordering::Equal)),
                    None => c.is_truthy(),
                };
                if hit {
                    return eval(ctx, result, rel, row, outer, used_outer);
                }
            }
            match else_expr {
                Some(e) => eval(ctx, e, rel, row, outer, used_outer),
                None => Ok(Value::Null),
            }
        }
        Expr::Cast { expr, ty } => {
            let v = eval(ctx, expr, rel, row, outer, used_outer)?;
            cast_value(v, ty)
        }
        Expr::Subquery(q) => {
            let key = (&**q) as *const _ as usize;
            if let Some(SubqueryCacheEntry::Scalar(v)) = ctx.cached_subquery(key) {
                return Ok(v.clone());
            }
            ctx.counter.subquery_execs += 1;
            let scope = Scope { rel, row };
            let mut scopes: Vec<Scope<'_>> = outer.to_vec();
            scopes.push(scope);
            let (result, sub_used_outer) = ctx.exec_query(q, &scopes)?;
            let v = scalar_from_relation(&result)?;
            if !sub_used_outer {
                ctx.cache_scalar(key, v.clone());
            } else {
                *used_outer = true;
            }
            Ok(v)
        }
        Expr::InSubquery {
            expr,
            negated,
            subquery,
        } => {
            let v = eval(ctx, expr, rel, row, outer, used_outer)?;
            let key = (&**subquery) as *const _ as usize;
            let set = match ctx.cached_subquery(key) {
                Some(SubqueryCacheEntry::Set(s)) => s.clone(),
                _ => {
                    ctx.counter.subquery_execs += 1;
                    let scope = Scope { rel, row };
                    let mut scopes: Vec<Scope<'_>> = outer.to_vec();
                    scopes.push(scope);
                    let (result, sub_used_outer) = ctx.exec_query(subquery, &scopes)?;
                    let mut s: HashSet<Vec<u8>> = HashSet::with_capacity(result.len());
                    for r in &result.rows {
                        if let Some(first) = r.first() {
                            if !first.is_null() {
                                let mut k = Vec::new();
                                first.group_key(&mut k);
                                s.insert(k);
                            }
                        }
                    }
                    if !sub_used_outer {
                        ctx.cache_set(key, s.clone());
                    } else {
                        *used_outer = true;
                    }
                    s
                }
            };
            let found = if v.is_null() {
                false
            } else {
                let mut k = Vec::new();
                v.group_key(&mut k);
                set.contains(&k)
            };
            Ok(Value::Bool(found != *negated))
        }
        Expr::Exists { negated, subquery } => {
            let key = (&**subquery) as *const _ as usize;
            let nonempty = match ctx.cached_subquery(key) {
                Some(SubqueryCacheEntry::NonEmpty(b)) => *b,
                _ => {
                    ctx.counter.subquery_execs += 1;
                    let scope = Scope { rel, row };
                    let mut scopes: Vec<Scope<'_>> = outer.to_vec();
                    scopes.push(scope);
                    let (result, sub_used_outer) = ctx.exec_query(subquery, &scopes)?;
                    let b = !result.is_empty();
                    if !sub_used_outer {
                        ctx.cache_nonempty(key, b);
                    } else {
                        *used_outer = true;
                    }
                    b
                }
            };
            Ok(Value::Bool(nonempty != *negated))
        }
    }
}

/// Apply a binary operator to already-evaluated operands.
pub fn apply_binary(l: &Value, op: Op, r: &Value) -> Result<Value, RuntimeError> {
    match op {
        Op::Plus => l.add(r),
        Op::Minus => l.sub(r),
        Op::Star => l.mul(r),
        Op::Slash => l.div(r),
        Op::Percent => l.rem(r),
        Op::BitAnd => l.bit_and(r),
        Op::BitOr => l.bit_or(r),
        Op::BitXor => l.bit_xor(r),
        Op::Concat => l.concat(r),
        Op::Eq => Ok(Value::Bool(matches!(
            l.sql_cmp(r),
            Some(std::cmp::Ordering::Equal)
        ))),
        Op::Neq => Ok(Value::Bool(matches!(
            l.sql_cmp(r),
            Some(std::cmp::Ordering::Less | std::cmp::Ordering::Greater)
        ))),
        Op::Lt => Ok(Value::Bool(matches!(
            l.sql_cmp(r),
            Some(std::cmp::Ordering::Less)
        ))),
        Op::Lte => Ok(Value::Bool(matches!(
            l.sql_cmp(r),
            Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
        ))),
        Op::Gt => Ok(Value::Bool(matches!(
            l.sql_cmp(r),
            Some(std::cmp::Ordering::Greater)
        ))),
        Op::Gte => Ok(Value::Bool(matches!(
            l.sql_cmp(r),
            Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
        ))),
    }
}

pub(crate) fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Number(v, text) => {
            // Integers stay integers.
            if !text.contains('.') && !text.contains('e') && !text.contains('E') {
                if let Ok(i) = text.parse::<i64>() {
                    return Value::Int(i);
                }
            }
            Value::Float(*v)
        }
        Literal::Hex(v, _) => Value::Int(*v as i64),
        Literal::String(s) => Value::Str(s.clone()),
        Literal::Null => Value::Null,
    }
}

fn cast_value(v: Value, ty: &str) -> Result<Value, RuntimeError> {
    let base = ty
        .split('(')
        .next()
        .unwrap_or(ty)
        .trim()
        .to_ascii_lowercase();
    match base.as_str() {
        "int" | "bigint" | "smallint" | "tinyint" => match &v {
            Value::Null => Ok(Value::Null),
            Value::Str(s) => s
                .trim()
                .parse::<f64>()
                .map(|f| Value::Int(f as i64))
                .map_err(|_| RuntimeError::TypeError(format!("cannot cast '{s}' to {base}"))),
            other => other
                .as_i64()
                .map(Value::Int)
                .ok_or_else(|| RuntimeError::TypeError(format!("cannot cast to {base}"))),
        },
        "float" | "real" | "decimal" | "numeric" => match &v {
            Value::Null => Ok(Value::Null),
            Value::Str(s) => s
                .trim()
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| RuntimeError::TypeError(format!("cannot cast '{s}' to {base}"))),
            other => other
                .as_f64()
                .map(Value::Float)
                .ok_or_else(|| RuntimeError::TypeError(format!("cannot cast to {base}"))),
        },
        "varchar" | "char" | "nvarchar" | "nchar" | "text" => match &v {
            Value::Null => Ok(Value::Null),
            other => Ok(Value::Str(other.display())),
        },
        _ => Err(RuntimeError::TypeError(format!(
            "unknown cast target `{ty}`"
        ))),
    }
}

fn scalar_from_relation(rel: &Relation) -> Result<Value, RuntimeError> {
    match rel.len() {
        0 => Ok(Value::Null),
        1 => Ok(rel.rows[0].first().cloned().unwrap_or(Value::Null)),
        _ => Err(RuntimeError::ScalarSubqueryCardinality),
    }
}

// =====================================================================
// Vectorized evaluation over column batches
// =====================================================================

/// The set of logical batch rows an evaluation covers. Short-circuiting
/// constructs shrink this set instead of branching per row.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RowSet<'a> {
    /// All logical rows `0..n`.
    All(usize),
    /// An explicit subset of logical row indices, in increasing order of
    /// original position (so float reductions and charge totals match the
    /// row engine's row order).
    Subset(&'a [usize]),
}

impl RowSet<'_> {
    pub fn len(&self) -> usize {
        match self {
            RowSet::All(n) => *n,
            RowSet::Subset(s) => s.len(),
        }
    }

    /// The logical batch row at position `i` of this set.
    #[inline]
    pub fn get(&self, i: usize) -> usize {
        match self {
            RowSet::All(_) => i,
            RowSet::Subset(s) => s[i],
        }
    }
}

/// Dense column of `batch` column `ci` over `rows` — zero-copy when the
/// request is the whole unselected batch.
fn column_ref(batch: &ColumnBatch, ci: usize, rows: &RowSet<'_>) -> Arc<Column> {
    if matches!(rows, RowSet::All(_)) && batch.sel.is_none() {
        return Arc::clone(&batch.columns[ci]);
    }
    let phys: Vec<usize> = (0..rows.len()).map(|i| batch.phys(rows.get(i))).collect();
    Arc::new(gather(&batch.columns[ci], &phys))
}

/// One row of `batch`, materialized for correlated-subquery scopes.
fn materialize_row(batch: &ColumnBatch, logical: usize) -> Vec<Value> {
    let p = batch.phys(logical);
    batch.columns.iter().map(|c| c.get(p)).collect()
}

/// Scalar result of a subquery executed columnar-side.
fn scalar_from_batch(b: &ColumnBatch) -> Result<Value, RuntimeError> {
    match b.len() {
        0 => Ok(Value::Null),
        1 => Ok(if b.width() == 0 {
            Value::Null
        } else {
            b.value(0, 0)
        }),
        _ => Err(RuntimeError::ScalarSubqueryCardinality),
    }
}

/// First-column membership set of a subquery result (IN semantics),
/// byte-identical to the row engine's key set.
fn set_from_batch(b: &ColumnBatch) -> HashSet<Vec<u8>> {
    let mut s: HashSet<Vec<u8>> = HashSet::with_capacity(b.len());
    if b.width() == 0 {
        return s;
    }
    let col = &b.columns[0];
    for i in 0..b.len() {
        let p = b.phys(i);
        if !col.is_null_at(p) {
            let mut k = Vec::new();
            col.group_key_at(p, &mut k);
            s.insert(k);
        }
    }
    s
}

/// Evaluate `expr` over the rows of `batch` named by `rows`, producing a
/// dense column aligned with the positions of `rows`.
///
/// Success-path contract: identical [`crate::CostCounter`] totals and
/// identical per-row values to running the row-engine [`eval`] on every
/// row of `rows` in order. Error paths may charge in a different order —
/// the failing operator is then settled on its row twin, whose charge
/// order is the label contract.
pub(crate) fn eval_batch(
    ctx: &mut ExecCtx<'_>,
    expr: &Expr,
    batch: &ColumnBatch,
    rows: &RowSet<'_>,
    outer: &[Scope<'_>],
    used_outer: &mut bool,
) -> Result<Arc<Column>, RuntimeError> {
    let n = rows.len();
    if n == 0 {
        // The row engine evaluates nothing over zero rows — not even name
        // resolution — so neither do we.
        return Ok(Arc::new(Column::Values(Vec::new())));
    }
    match expr {
        Expr::Literal(l) => Ok(Arc::new(Column::Const(literal_value(l), n))),
        Expr::Param { value, .. } => Ok(Arc::new(Column::Const(literal_value(value), n))),
        Expr::Column(name) => {
            if let Some(ci) = batch.resolve(&name.parts)? {
                return Ok(column_ref(batch, ci, rows));
            }
            for scope in outer.iter().rev() {
                if let Some(i) = scope.rel.resolve(&name.parts)? {
                    *used_outer = true;
                    let v = scope.row.get(i).cloned().unwrap_or(Value::Null);
                    return Ok(Arc::new(Column::Const(v, n)));
                }
            }
            Err(RuntimeError::UnknownColumn(name.canonical()))
        }
        Expr::Wildcard(_) => Err(RuntimeError::TypeError(
            "wildcard is not a scalar expression".into(),
        )),
        Expr::Unary { op, expr } => {
            let v = eval_batch(ctx, expr, batch, rows, outer, used_outer)?;
            match op {
                UnaryOp::Plus => Ok(v),
                UnaryOp::Not => {
                    let out: Vec<bool> = (0..n).map(|i| !v.is_truthy_at(i)).collect();
                    Ok(Arc::new(Column::Bool(out)))
                }
                UnaryOp::Neg => Ok(Arc::new(neg_column(&v, n)?)),
            }
        }
        Expr::Binary { left, op, right } => {
            let l = eval_batch(ctx, left, batch, rows, outer, used_outer)?;
            let r = eval_batch(ctx, right, batch, rows, outer, used_outer)?;
            Ok(Arc::new(apply_binary_batch(&l, *op, &r, n)?))
        }
        Expr::Logical { left, and, right } => {
            let l = eval_batch(ctx, left, batch, rows, outer, used_outer)?;
            // Short-circuit per row: only rows whose result is still open
            // evaluate the right side (same charges as the row engine).
            let mut out = vec![false; n];
            let mut open_pos: Vec<usize> = Vec::new();
            let mut open_rows: Vec<usize> = Vec::new();
            for (i, slot) in out.iter_mut().enumerate() {
                let lt = l.is_truthy_at(i);
                if *and {
                    if lt {
                        open_pos.push(i);
                        open_rows.push(rows.get(i));
                    } // else stays false
                } else if lt {
                    *slot = true;
                } else {
                    open_pos.push(i);
                    open_rows.push(rows.get(i));
                }
            }
            let r = eval_batch(
                ctx,
                right,
                batch,
                &RowSet::Subset(&open_rows),
                outer,
                used_outer,
            )?;
            for (j, &p) in open_pos.iter().enumerate() {
                out[p] = r.is_truthy_at(j);
            }
            Ok(Arc::new(Column::Bool(out)))
        }
        Expr::Between {
            expr,
            negated,
            low,
            high,
        } => {
            let v = eval_batch(ctx, expr, batch, rows, outer, used_outer)?;
            let lo = eval_batch(ctx, low, batch, rows, outer, used_outer)?;
            let hi = eval_batch(ctx, high, batch, rows, outer, used_outer)?;
            if let (Some(a), Some(b), Some(c)) = (f64_view(&v), f64_view(&lo), f64_view(&hi)) {
                let mut out = vec![false; n];
                sqlan_simd::between_f64(a.as_arg(), b.as_arg(), c.as_arg(), *negated, &mut out);
                return Ok(Arc::new(Column::Bool(out)));
            }
            let mut out = Vec::with_capacity(n);
            {
                for i in 0..n {
                    let x = v.get(i);
                    let inside = matches!(
                        x.sql_cmp(&lo.get(i)),
                        Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
                    ) && matches!(
                        x.sql_cmp(&hi.get(i)),
                        Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
                    );
                    out.push(inside != *negated);
                }
            }
            Ok(Arc::new(Column::Bool(out)))
        }
        Expr::InList {
            expr,
            negated,
            list,
        } => {
            let v = eval_batch(ctx, expr, batch, rows, outer, used_outer)?;
            let mut found = vec![false; n];
            let mut remaining: Vec<usize> = (0..n).collect(); // positions
            for item in list {
                if remaining.is_empty() {
                    break;
                }
                let logical: Vec<usize> = remaining.iter().map(|&p| rows.get(p)).collect();
                let w = eval_batch(
                    ctx,
                    item,
                    batch,
                    &RowSet::Subset(&logical),
                    outer,
                    used_outer,
                )?;
                let mut still = Vec::with_capacity(remaining.len());
                for (j, &p) in remaining.iter().enumerate() {
                    if matches!(v.get(p).sql_cmp(&w.get(j)), Some(std::cmp::Ordering::Equal)) {
                        found[p] = true;
                    } else {
                        still.push(p);
                    }
                }
                remaining = still;
            }
            let out: Vec<bool> = found.into_iter().map(|f| f != *negated).collect();
            Ok(Arc::new(Column::Bool(out)))
        }
        Expr::Like {
            expr,
            negated,
            pattern,
        } => {
            let v = eval_batch(ctx, expr, batch, rows, outer, used_outer)?;
            let p = eval_batch(ctx, pattern, batch, rows, outer, used_outer)?;
            ctx.counter.eval_units += n as u64;
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let m = v.get(i).like(&p.get(i))?;
                out.push(m.is_truthy() != *negated);
            }
            Ok(Arc::new(Column::Bool(out)))
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_batch(ctx, expr, batch, rows, outer, used_outer)?;
            let out: Vec<bool> = (0..n).map(|i| v.is_null_at(i) != *negated).collect();
            Ok(Arc::new(Column::Bool(out)))
        }
        Expr::Function(f) => {
            let mut arg_cols = Vec::with_capacity(f.args.len());
            for a in &f.args {
                arg_cols.push(eval_batch(ctx, a, batch, rows, outer, used_outer)?);
            }
            if f.aggregate.is_some() {
                return Err(RuntimeError::TypeError(format!(
                    "aggregate {}() not allowed here",
                    f.name.base()
                )));
            }
            let name = f.name.canonical();
            let mut b = ColumnBuilder::with_capacity(n);
            let mut args: Vec<Value> = Vec::with_capacity(arg_cols.len());
            for i in 0..n {
                args.clear();
                args.extend(arg_cols.iter().map(|c| c.get(i)));
                let (v, cost) = ctx.fns.call(&name, &args)?;
                ctx.counter.fn_units += cost;
                b.push(v);
            }
            Ok(Arc::new(b.finish()))
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            let op_col = match operand {
                Some(o) => Some(eval_batch(ctx, o, batch, rows, outer, used_outer)?),
                None => None,
            };
            let mut out: Vec<Value> = vec![Value::Null; n];
            let mut remaining: Vec<usize> = (0..n).collect(); // positions
            for (cond, result) in branches {
                if remaining.is_empty() {
                    break;
                }
                let logical: Vec<usize> = remaining.iter().map(|&p| rows.get(p)).collect();
                let c = eval_batch(
                    ctx,
                    cond,
                    batch,
                    &RowSet::Subset(&logical),
                    outer,
                    used_outer,
                )?;
                let mut hit_pos = Vec::new();
                let mut still = Vec::new();
                for (j, &p) in remaining.iter().enumerate() {
                    let hit = match &op_col {
                        Some(oc) => matches!(
                            oc.get(p).sql_cmp(&c.get(j)),
                            Some(std::cmp::Ordering::Equal)
                        ),
                        None => c.is_truthy_at(j),
                    };
                    if hit {
                        hit_pos.push(p);
                    } else {
                        still.push(p);
                    }
                }
                if !hit_pos.is_empty() {
                    let logical_hit: Vec<usize> = hit_pos.iter().map(|&p| rows.get(p)).collect();
                    let r = eval_batch(
                        ctx,
                        result,
                        batch,
                        &RowSet::Subset(&logical_hit),
                        outer,
                        used_outer,
                    )?;
                    for (j, &p) in hit_pos.iter().enumerate() {
                        out[p] = r.get(j);
                    }
                }
                remaining = still;
            }
            if let Some(e) = else_expr {
                if !remaining.is_empty() {
                    let logical: Vec<usize> = remaining.iter().map(|&p| rows.get(p)).collect();
                    let r =
                        eval_batch(ctx, e, batch, &RowSet::Subset(&logical), outer, used_outer)?;
                    for (j, &p) in remaining.iter().enumerate() {
                        out[p] = r.get(j);
                    }
                }
            }
            // Unmatched rows without ELSE stay NULL, as in the row engine.
            Ok(Arc::new(Column::from_values(out)))
        }
        Expr::Cast { expr, ty } => {
            let v = eval_batch(ctx, expr, batch, rows, outer, used_outer)?;
            let mut b = ColumnBuilder::with_capacity(n);
            for i in 0..n {
                b.push(cast_value(v.get(i), ty)?);
            }
            Ok(Arc::new(b.finish()))
        }
        Expr::Subquery(q) => {
            let key = (&**q) as *const _ as usize;
            if let Some(SubqueryCacheEntry::Scalar(v)) = ctx.cached_subquery(key) {
                return Ok(Arc::new(Column::Const(v.clone(), n)));
            }
            let scope_rel = Relation {
                cols: batch.cols.clone(),
                rows: Vec::new(),
            };
            // First row decides correlation (`used_outer` cannot vary by
            // outer row: the first outer-value-dependent branch point in
            // the subquery itself consults the outer scope).
            ctx.counter.subquery_execs += 1;
            let row0 = materialize_row(batch, rows.get(0));
            let (first, sub_used_outer) = {
                let mut scopes: Vec<Scope<'_>> = outer.to_vec();
                scopes.push(Scope {
                    rel: &scope_rel,
                    row: &row0,
                });
                ctx.exec_query_batch(q, &scopes)?
            };
            let v0 = scalar_from_batch(&first)?;
            if !sub_used_outer {
                ctx.cache_scalar(key, v0.clone());
                return Ok(Arc::new(Column::Const(v0, n)));
            }
            *used_outer = true;
            let mut b = ColumnBuilder::with_capacity(n);
            b.push(v0);
            for i in 1..n {
                ctx.counter.subquery_execs += 1;
                let row = materialize_row(batch, rows.get(i));
                let (result, _) = {
                    let mut scopes: Vec<Scope<'_>> = outer.to_vec();
                    scopes.push(Scope {
                        rel: &scope_rel,
                        row: &row,
                    });
                    ctx.exec_query_batch(q, &scopes)?
                };
                b.push(scalar_from_batch(&result)?);
            }
            Ok(Arc::new(b.finish()))
        }
        Expr::InSubquery {
            expr,
            negated,
            subquery,
        } => {
            let v = eval_batch(ctx, expr, batch, rows, outer, used_outer)?;
            let key = (&**subquery) as *const _ as usize;
            let contains = |set: &HashSet<Vec<u8>>, col: &Column, i: usize| {
                if col.is_null_at(i) {
                    false
                } else {
                    let mut k = Vec::new();
                    col.group_key_at(i, &mut k);
                    set.contains(&k)
                }
            };
            let shared_set: Option<HashSet<Vec<u8>>> = match ctx.cached_subquery(key) {
                Some(SubqueryCacheEntry::Set(s)) => Some(s.clone()),
                _ => None,
            };
            let out: Vec<bool> = if let Some(set) = shared_set {
                (0..n).map(|i| contains(&set, &v, i) != *negated).collect()
            } else {
                let scope_rel = Relation {
                    cols: batch.cols.clone(),
                    rows: Vec::new(),
                };
                ctx.counter.subquery_execs += 1;
                let row0 = materialize_row(batch, rows.get(0));
                let (first, sub_used_outer) = {
                    let mut scopes: Vec<Scope<'_>> = outer.to_vec();
                    scopes.push(Scope {
                        rel: &scope_rel,
                        row: &row0,
                    });
                    ctx.exec_query_batch(subquery, &scopes)?
                };
                let set0 = set_from_batch(&first);
                if !sub_used_outer {
                    ctx.cache_set(key, set0.clone());
                    (0..n).map(|i| contains(&set0, &v, i) != *negated).collect()
                } else {
                    *used_outer = true;
                    let mut out = Vec::with_capacity(n);
                    out.push(contains(&set0, &v, 0) != *negated);
                    for i in 1..n {
                        ctx.counter.subquery_execs += 1;
                        let row = materialize_row(batch, rows.get(i));
                        let (result, _) = {
                            let mut scopes: Vec<Scope<'_>> = outer.to_vec();
                            scopes.push(Scope {
                                rel: &scope_rel,
                                row: &row,
                            });
                            ctx.exec_query_batch(subquery, &scopes)?
                        };
                        let set = set_from_batch(&result);
                        out.push(contains(&set, &v, i) != *negated);
                    }
                    out
                }
            };
            Ok(Arc::new(Column::Bool(out)))
        }
        Expr::Exists { negated, subquery } => {
            let key = (&**subquery) as *const _ as usize;
            let cached = match ctx.cached_subquery(key) {
                Some(SubqueryCacheEntry::NonEmpty(b)) => Some(*b),
                _ => None,
            };
            let out: Vec<bool> = if let Some(b) = cached {
                vec![b != *negated; n]
            } else {
                let scope_rel = Relation {
                    cols: batch.cols.clone(),
                    rows: Vec::new(),
                };
                ctx.counter.subquery_execs += 1;
                let row0 = materialize_row(batch, rows.get(0));
                let (first, sub_used_outer) = {
                    let mut scopes: Vec<Scope<'_>> = outer.to_vec();
                    scopes.push(Scope {
                        rel: &scope_rel,
                        row: &row0,
                    });
                    ctx.exec_query_batch(subquery, &scopes)?
                };
                let b0 = !first.is_empty();
                if !sub_used_outer {
                    ctx.cache_nonempty(key, b0);
                    vec![b0 != *negated; n]
                } else {
                    *used_outer = true;
                    let mut out = Vec::with_capacity(n);
                    out.push(b0 != *negated);
                    for i in 1..n {
                        ctx.counter.subquery_execs += 1;
                        let row = materialize_row(batch, rows.get(i));
                        let (result, _) = {
                            let mut scopes: Vec<Scope<'_>> = outer.to_vec();
                            scopes.push(Scope {
                                rel: &scope_rel,
                                row: &row,
                            });
                            ctx.exec_query_batch(subquery, &scopes)?
                        };
                        out.push(result.is_empty() == *negated);
                    }
                    out
                }
            };
            Ok(Arc::new(Column::Bool(out)))
        }
    }
}

// ---- vectorized kernels ----------------------------------------------

/// Borrowed numeric view of a column, for monomorphic f64 loops. `None`
/// when the column may hold non-numeric or NULL values (generic path).
enum F64View<'a> {
    I(&'a [i64]),
    F(&'a [f64]),
    Const(f64),
}

impl<'a> F64View<'a> {
    /// The kernel-side mirror of this view (`sqlan-simd` runs the
    /// tiered loops; the truth tables are the engine's — see the crate
    /// docs there).
    #[inline]
    fn as_arg(&self) -> sqlan_simd::ArgF64<'a> {
        match self {
            F64View::I(v) => sqlan_simd::ArgF64::I(v),
            F64View::F(v) => sqlan_simd::ArgF64::F(v),
            F64View::Const(x) => sqlan_simd::ArgF64::C(*x),
        }
    }
}

fn f64_view(c: &Column) -> Option<F64View<'_>> {
    match c {
        Column::Int(v) => Some(F64View::I(v)),
        Column::Float(v) => Some(F64View::F(v)),
        Column::Shared(cv) => match &**cv {
            ColumnVec::Int(v) => Some(F64View::I(v)),
            ColumnVec::Float(v) => Some(F64View::F(v)),
            ColumnVec::Str(_) => None,
        },
        Column::Const(Value::Int(i), _) => Some(F64View::Const(*i as f64)),
        Column::Const(Value::Float(f), _) => Some(F64View::Const(*f)),
        _ => None,
    }
}

/// Borrowed integer view (pure `i64` data only).
enum I64View<'a> {
    I(&'a [i64]),
    Const(i64),
}

impl<'a> I64View<'a> {
    #[inline]
    fn get(&self, i: usize) -> i64 {
        match self {
            I64View::I(v) => v[i],
            I64View::Const(x) => *x,
        }
    }

    #[inline]
    fn as_arg(&self) -> sqlan_simd::ArgI64<'a> {
        match self {
            I64View::I(v) => sqlan_simd::ArgI64::I(v),
            I64View::Const(x) => sqlan_simd::ArgI64::C(*x),
        }
    }
}

fn i64_view(c: &Column) -> Option<I64View<'_>> {
    match c {
        Column::Int(v) => Some(I64View::I(v)),
        Column::Shared(cv) => match &**cv {
            ColumnVec::Int(v) => Some(I64View::I(v)),
            _ => None,
        },
        Column::Const(Value::Int(i), _) => Some(I64View::Const(*i)),
        _ => None,
    }
}

/// The kernel-side comparison operator. `sqlan_simd::CmpOp`'s truth
/// table is `matches!(partial_cmp, ...)`'s (NaN false everywhere,
/// including `Neq`) — the differential tests in `sqlan-simd` pin that
/// equivalence against [`Value::sql_cmp`]'s numeric arm.
#[inline]
fn cmp_kernel_op(op: Op) -> sqlan_simd::CmpOp {
    match op {
        Op::Eq => sqlan_simd::CmpOp::Eq,
        Op::Neq => sqlan_simd::CmpOp::Neq,
        Op::Lt => sqlan_simd::CmpOp::Lt,
        Op::Lte => sqlan_simd::CmpOp::Lte,
        Op::Gt => sqlan_simd::CmpOp::Gt,
        Op::Gte => sqlan_simd::CmpOp::Gte,
        _ => unreachable!("cmp_kernel_op on non-comparison"),
    }
}

/// Element-wise binary operator over two dense columns of length `n`.
/// Typed fast paths replicate [`apply_binary`]'s semantics exactly
/// (numeric comparison through `f64`, checked integer arithmetic widening
/// to float on overflow); everything else goes through [`apply_binary`]
/// per element.
pub(crate) fn apply_binary_batch(
    l: &Column,
    op: Op,
    r: &Column,
    n: usize,
) -> Result<Column, RuntimeError> {
    if matches!(op, Op::Eq | Op::Neq | Op::Lt | Op::Lte | Op::Gt | Op::Gte) {
        if let (Some(a), Some(b)) = (f64_view(l), f64_view(r)) {
            let mut out = vec![false; n];
            sqlan_simd::cmp_f64(cmp_kernel_op(op), a.as_arg(), b.as_arg(), &mut out);
            return Ok(Column::Bool(out));
        }
    }
    if matches!(op, Op::Plus | Op::Minus | Op::Star) {
        if let (Some(a), Some(b)) = (i64_view(l), i64_view(r)) {
            // Both pure ints: checked op, widening to float on overflow.
            let mut bld = ColumnBuilder::with_capacity(n);
            for i in 0..n {
                let (x, y) = (a.get(i), b.get(i));
                let checked = match op {
                    Op::Plus => x.checked_add(y),
                    Op::Minus => x.checked_sub(y),
                    _ => x.checked_mul(y),
                };
                bld.push(match checked {
                    Some(v) => Value::Int(v),
                    None => Value::Float(match op {
                        Op::Plus => x as f64 + y as f64,
                        Op::Minus => x as f64 - y as f64,
                        _ => x as f64 * y as f64,
                    }),
                });
            }
            return Ok(bld.finish());
        }
        if let (Some(a), Some(b)) = (f64_view(l), f64_view(r)) {
            let kop = match op {
                Op::Plus => sqlan_simd::ArithOp::Add,
                Op::Minus => sqlan_simd::ArithOp::Sub,
                _ => sqlan_simd::ArithOp::Mul,
            };
            let mut out = vec![0.0f64; n];
            sqlan_simd::arith_f64(kop, a.as_arg(), b.as_arg(), &mut out);
            return Ok(Column::Float(out));
        }
    }
    if matches!(op, Op::BitAnd | Op::BitOr | Op::BitXor) {
        if let (Some(a), Some(b)) = (i64_view(l), i64_view(r)) {
            let kop = match op {
                Op::BitAnd => sqlan_simd::BitOp::And,
                Op::BitOr => sqlan_simd::BitOp::Or,
                _ => sqlan_simd::BitOp::Xor,
            };
            let mut out = vec![0i64; n];
            sqlan_simd::bit_i64(kop, a.as_arg(), b.as_arg(), &mut out);
            return Ok(Column::Int(out));
        }
    }
    let mut b = ColumnBuilder::with_capacity(n);
    for i in 0..n {
        b.push(apply_binary(&l.get(i), op, &r.get(i))?);
    }
    Ok(b.finish())
}

/// Element-wise negation matching [`Value::neg`].
fn neg_column(v: &Column, n: usize) -> Result<Column, RuntimeError> {
    if let Some(a) = i64_view(v) {
        return Ok(Column::Int(
            (0..n).map(|i| a.get(i).wrapping_neg()).collect(),
        ));
    }
    if let Some(F64View::F(f)) = f64_view(v) {
        return Ok(Column::Float(f.iter().map(|x| -x).collect()));
    }
    let mut b = ColumnBuilder::with_capacity(n);
    for i in 0..n {
        b.push(v.get(i).neg()?);
    }
    Ok(b.finish())
}
