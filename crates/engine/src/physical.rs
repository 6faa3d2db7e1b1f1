//! Physical operators: execution of an optimized [`QueryPlan`] against
//! the catalog.
//!
//! Every operator charges the [`crate::CostCounter`] exactly as the
//! original monolithic executor did — rows scanned, hash build/probe
//! operations, per-row predicate evaluations, sort comparisons, rows
//! materialized. Those charges (and even their *order*, which becomes
//! observable when a query aborts on a resource budget) are workload
//! labels, so this module treats them as part of each operator's contract,
//! not an implementation detail. The plan's phase structure (items →
//! pushed filters → folds → residual → select → distinct → sort → limit)
//! is executed literally.

use std::collections::HashMap;
use std::sync::Arc;

use sqlan_sql::{Aggregate, Expr, JoinKind, OrderByItem, QualifiedName, SelectItem, UnaryOp};

use crate::error::RuntimeError;
use crate::eval::{apply_binary, eval_batch, RowSet};
use crate::exec::{ExecCtx, OpLog, Scope};
use crate::plan::{
    projection_plan, scan_schema, schema_relation, FoldStep, JoinStrategy, LogicalPlan, ProjStep,
    QueryPlan, SelectOp,
};
use crate::relation::{gather, ColRef, ColumnBatch, Relation};
use crate::value::{Column, ColumnBuilder, Value};

/// Pair-evaluation chunk bound for the streaming batch nested-loop join:
/// each condition evaluation covers at most this many left×right pairs
/// (rounded up to whole left rows), so the join's transient working set
/// is bounded no matter how large the cross product is. Purely a memory
/// knob — charges and output are identical at any value.
const NLJ_PAIR_CHUNK: usize = 4096;

/// One-line operator descriptions for EXPLAIN ANALYZE observations.
fn item_label(node: &LogicalPlan) -> String {
    match node {
        LogicalPlan::Scan { table, alias, .. } => match alias {
            Some(a) => format!("Scan {} AS {a}", table.canonical()),
            None => format!("Scan {}", table.canonical()),
        },
        LogicalPlan::Subquery { alias, .. } => match alias {
            Some(a) => format!("Subquery AS {a}"),
            None => "Subquery".into(),
        },
        LogicalPlan::Join { kind, strategy, .. } => {
            let head = match strategy {
                JoinStrategy::Hash { .. } => "HashJoin",
                JoinStrategy::NestedLoop => "NestedLoopJoin",
            };
            format!("{head} {kind:?}")
        }
    }
}

fn fold_label(step: Option<&FoldStep>) -> String {
    match step {
        Some(FoldStep::Hash { condition, .. }) => format!("HashJoin ({condition})"),
        _ => "CrossJoin".into(),
    }
}

fn select_label(select: &SelectOp) -> String {
    match select {
        SelectOp::Project { items } => format!("Project [{} exprs]", items.len()),
        SelectOp::Aggregate {
            items, group_by, ..
        } => {
            if group_by.is_empty() {
                format!("Aggregate [{} exprs]", items.len())
            } else {
                format!(
                    "Aggregate [{} exprs] group by [{} keys]",
                    items.len(),
                    group_by.len()
                )
            }
        }
    }
}

impl ExecCtx<'_> {
    /// Execute a full query plan. `outer` carries enclosing row scopes for
    /// correlated subqueries; the returned flag reports whether any outer
    /// scope was actually consulted (the uncorrelated-subquery cache
    /// depends on it).
    pub(crate) fn exec_plan(
        &mut self,
        plan: &QueryPlan,
        outer: &[Scope<'_>],
    ) -> Result<(Relation, bool), RuntimeError> {
        // Only the root plan logs EXPLAIN ANALYZE observations.
        let mut log = self.open_log();
        let res = self.exec_plan_row(plan, outer, &mut log);
        self.close_log(log);
        res
    }

    fn exec_plan_row(
        &mut self,
        plan: &QueryPlan,
        outer: &[Scope<'_>],
        log: &mut Option<OpLog>,
    ) -> Result<(Relation, bool), RuntimeError> {
        let mut used_outer = false;

        // ---- FROM items -------------------------------------------------
        let mut item_rels: Vec<Relation> = Vec::with_capacity(plan.items.len());
        for item in &plan.items {
            let rel = self.step(
                log,
                || item_label(item),
                |ctx| ctx.exec_node(item, outer, &mut used_outer),
            )?;
            item_rels.push(rel);
        }

        // ---- pushed single-item filters, in original conjunct order ----
        for (i, pred) in &plan.pushed {
            let rel = std::mem::take(&mut item_rels[*i]);
            item_rels[*i] = self.step(
                log,
                || format!("Filter ({pred})"),
                |ctx| ctx.filter(rel, pred, outer, &mut used_outer),
            )?;
        }

        // ---- fold the comma-list items ---------------------------------
        let mut source = match item_rels.len() {
            0 => Relation::unit(),
            _ => {
                let mut acc = item_rels.remove(0);
                for (k, next) in item_rels.into_iter().enumerate() {
                    let step = plan.folds.get(k);
                    acc = self.step(
                        log,
                        || fold_label(step),
                        |ctx| ctx.fold(acc, next, step, outer, &mut used_outer),
                    )?;
                }
                acc
            }
        };

        // ---- residual WHERE ---------------------------------------------
        for pred in &plan.residual {
            source = self.step(
                log,
                || format!("Filter ({pred})"),
                |ctx| ctx.filter(source, pred, outer, &mut used_outer),
            )?;
        }

        // ---- projection / aggregation ----------------------------------
        let is_agg = matches!(plan.select, SelectOp::Aggregate { .. });
        let mut projected = self.step(
            log,
            || select_label(&plan.select),
            |ctx| ctx.select(&plan.select, &source, outer, &mut used_outer),
        )?;

        // ---- DISTINCT ----------------------------------------------------
        if plan.distinct {
            projected = self.step(log, || "Distinct".into(), |ctx| ctx.distinct(projected))?;
        }

        // ---- ORDER BY (on projected output, falling back to source) ----
        if !plan.order_by.is_empty() {
            // Aggregate outputs sort on their projected columns only.
            let empty = Relation::default();
            let keys_from = if is_agg { &empty } else { &source };
            projected = self.step(
                log,
                || format!("Sort [{} keys]", plan.order_by.len()),
                |ctx| ctx.order_by(&plan.order_by, projected, keys_from, outer, &mut used_outer),
            )?;
        }

        // ---- TOP ----------------------------------------------------------
        if let Some(n) = plan.top {
            projected.rows.truncate(n as usize);
            projected = self.step(log, || format!("Limit {n}"), |_| Ok(projected))?;
        }

        Ok((projected, used_outer))
    }

    // ================= FROM-item operator trees =================

    fn exec_node(
        &mut self,
        node: &LogicalPlan,
        outer: &[Scope<'_>],
        used_outer: &mut bool,
    ) -> Result<Relation, RuntimeError> {
        match node {
            LogicalPlan::Scan { table, alias } => self.scan(table, alias.as_deref()),
            LogicalPlan::Subquery { plan, alias } => {
                let (mut rel, uo) = self.exec_plan(plan, outer)?;
                *used_outer |= uo;
                // Rebind all columns under the derived alias.
                let qualifier = alias.as_ref().map(|a| a.to_ascii_lowercase());
                for c in &mut rel.cols {
                    c.qualifier = qualifier.clone();
                    c.table = None;
                }
                Ok(rel)
            }
            LogicalPlan::Join {
                left,
                right,
                kind,
                on,
                strategy,
            } => {
                let l = self.exec_node(left, outer, used_outer)?;
                let r = self.exec_node(right, outer, used_outer)?;
                self.join(l, r, *kind, on.as_ref(), strategy, outer, used_outer)
            }
        }
    }

    /// An explicit join node: hash join when the planner found an
    /// equi-key, nested loop otherwise.
    #[allow(clippy::too_many_arguments)]
    fn join(
        &mut self,
        left: Relation,
        right: Relation,
        kind: JoinKind,
        on: Option<&Expr>,
        strategy: &JoinStrategy,
        outer: &[Scope<'_>],
        used_outer: &mut bool,
    ) -> Result<Relation, RuntimeError> {
        let cols: Vec<ColRef> = left.cols.iter().chain(right.cols.iter()).cloned().collect();
        match (strategy, on) {
            (
                JoinStrategy::Hash {
                    left_key,
                    right_key,
                },
                Some(cond),
            ) => self.hash_join(
                left, right, cols, left_key, right_key, cond, kind, outer, used_outer,
            ),
            _ => self.nested_loop_join(left, right, cols, kind, on, outer, used_outer),
        }
    }

    fn scan(
        &mut self,
        table: &QualifiedName,
        alias: Option<&str>,
    ) -> Result<Relation, RuntimeError> {
        let canonical = table.canonical();
        let table = self
            .catalog
            .get(&canonical)
            .ok_or_else(|| RuntimeError::UnknownTable(canonical.clone()))?;
        let n = table.row_count();
        self.counter.rows_scanned += n as u64;
        self.check_budget(n)?;
        let rows = (0..n)
            .map(|r| table.data.iter().map(|c| c.get(r)).collect())
            .collect();
        Ok(Relation {
            cols: scan_schema(table, alias),
            rows,
        })
    }

    /// Combine two comma-list items according to the planned fold step
    /// (inner-join semantics, which is what comma joins mean).
    fn fold(
        &mut self,
        left: Relation,
        right: Relation,
        step: Option<&FoldStep>,
        outer: &[Scope<'_>],
        used_outer: &mut bool,
    ) -> Result<Relation, RuntimeError> {
        let cols: Vec<ColRef> = left.cols.iter().chain(right.cols.iter()).cloned().collect();
        match step {
            Some(FoldStep::Hash {
                left_key,
                right_key,
                condition,
            }) => self.hash_join(
                left,
                right,
                cols,
                left_key,
                right_key,
                condition,
                JoinKind::Inner,
                outer,
                used_outer,
            ),
            // Pure cartesian product.
            _ => self.nested_loop_join(left, right, cols, JoinKind::Cross, None, outer, used_outer),
        }
    }

    /// Nested-loop join (also handles CROSS JOIN and non-equi ON).
    #[allow(clippy::too_many_arguments)]
    fn nested_loop_join(
        &mut self,
        left: Relation,
        right: Relation,
        cols: Vec<ColRef>,
        kind: JoinKind,
        on: Option<&Expr>,
        outer: &[Scope<'_>],
        used_outer: &mut bool,
    ) -> Result<Relation, RuntimeError> {
        let est = left.len().saturating_mul(right.len().max(1));
        self.check_budget(est)?;
        let mut rows = Vec::new();
        let mut right_matched = vec![false; right.len()];
        let tmp_cols = Relation {
            cols: cols.clone(),
            rows: Vec::new(),
        };
        // Scratch pair row, reused across the inner loop: the left side is
        // cloned once per *left* row instead of once per pair, and
        // non-matching pairs allocate nothing.
        let lw = left.width();
        let mut scratch: Vec<Value> = Vec::with_capacity(cols.len());
        for lrow in &left.rows {
            let mut matched = false;
            scratch.clear();
            scratch.extend(lrow.iter().cloned());
            for (ri, rrow) in right.rows.iter().enumerate() {
                self.counter.eval_units += 1;
                scratch.truncate(lw);
                scratch.extend(rrow.iter().cloned());
                let keep = match on {
                    None => true,
                    Some(cond) => self
                        .eval_with_row(cond, &tmp_cols, &scratch, outer, used_outer)?
                        .is_truthy(),
                };
                if keep {
                    matched = true;
                    right_matched[ri] = true;
                    rows.push(scratch.clone());
                    if rows.len() > self.limits.max_rows {
                        return Err(RuntimeError::ResourceExhausted);
                    }
                }
            }
            if !matched && matches!(kind, JoinKind::Left | JoinKind::Full) {
                let mut padded = lrow.clone();
                padded.extend(std::iter::repeat_n(Value::Null, right.width()));
                rows.push(padded);
            }
        }
        if matches!(kind, JoinKind::Right | JoinKind::Full) {
            for (ri, rrow) in right.rows.iter().enumerate() {
                if !right_matched[ri] {
                    let mut padded: Vec<Value> =
                        std::iter::repeat_n(Value::Null, left.width()).collect();
                    padded.extend(rrow.iter().cloned());
                    rows.push(padded);
                }
            }
        }
        self.counter.rows_materialized += rows.len() as u64;
        Ok(Relation { cols, rows })
    }

    /// Hash join on single-key equality, preserving outer-join semantics.
    /// The full `ON`/fold condition is re-checked on each hash candidate
    /// (it may carry residual conjuncts beyond the hash key).
    #[allow(clippy::too_many_arguments)]
    fn hash_join(
        &mut self,
        left: Relation,
        right: Relation,
        cols: Vec<ColRef>,
        lk: &Expr,
        rk: &Expr,
        full_cond: &Expr,
        kind: JoinKind,
        outer: &[Scope<'_>],
        used_outer: &mut bool,
    ) -> Result<Relation, RuntimeError> {
        // Build on the right side.
        let mut table: HashMap<Vec<u8>, Vec<usize>> = HashMap::new();
        for (ri, rrow) in right.rows.iter().enumerate() {
            let v = self.eval_with_row(rk, &right, rrow, outer, used_outer)?;
            if v.is_null() {
                continue;
            }
            let mut key = Vec::new();
            v.group_key(&mut key);
            table.entry(key).or_default().push(ri);
            self.counter.hash_ops += 1;
        }

        let mut rows = Vec::new();
        let mut right_matched = vec![false; right.len()];
        let tmp_cols = Relation {
            cols: cols.clone(),
            rows: Vec::new(),
        };
        // Same scratch-row trick as the nested loop: clone the left side
        // once per probe row, the right side once per candidate, and a
        // full pair row only when the condition holds.
        let lw = left.width();
        let mut scratch: Vec<Value> = Vec::with_capacity(cols.len());
        for lrow in &left.rows {
            self.counter.hash_ops += 1;
            let v = self.eval_with_row(lk, &left, lrow, outer, used_outer)?;
            let mut matched = false;
            if !v.is_null() {
                let mut key = Vec::new();
                v.group_key(&mut key);
                if let Some(cands) = table.get(&key) {
                    scratch.clear();
                    scratch.extend(lrow.iter().cloned());
                    for &ri in cands {
                        scratch.truncate(lw);
                        scratch.extend(right.rows[ri].iter().cloned());
                        self.counter.eval_units += 1;
                        if self
                            .eval_with_row(full_cond, &tmp_cols, &scratch, outer, used_outer)?
                            .is_truthy()
                        {
                            matched = true;
                            right_matched[ri] = true;
                            rows.push(scratch.clone());
                            if rows.len() > self.limits.max_rows {
                                return Err(RuntimeError::ResourceExhausted);
                            }
                        }
                    }
                }
            }
            if !matched && matches!(kind, JoinKind::Left | JoinKind::Full) {
                let mut padded = lrow.clone();
                padded.extend(std::iter::repeat_n(Value::Null, right.width()));
                rows.push(padded);
            }
        }
        if matches!(kind, JoinKind::Right | JoinKind::Full) {
            for (ri, rrow) in right.rows.iter().enumerate() {
                if !right_matched[ri] {
                    let mut padded: Vec<Value> =
                        std::iter::repeat_n(Value::Null, left.width()).collect();
                    padded.extend(rrow.iter().cloned());
                    rows.push(padded);
                }
            }
        }
        self.counter.rows_materialized += rows.len() as u64;
        Ok(Relation { cols, rows })
    }

    // ================= row pipeline operators =================

    /// The plan's SELECT phase: projection or aggregation.
    fn select(
        &mut self,
        select: &SelectOp,
        source: &Relation,
        outer: &[Scope<'_>],
        used_outer: &mut bool,
    ) -> Result<Relation, RuntimeError> {
        match select {
            SelectOp::Aggregate {
                items,
                group_by,
                having,
            } => self.aggregate(items, group_by, having.as_ref(), source, outer, used_outer),
            SelectOp::Project { items } => self.project(items, source, outer, used_outer),
        }
    }

    fn filter(
        &mut self,
        rel: Relation,
        pred: &Expr,
        outer: &[Scope<'_>],
        used_outer: &mut bool,
    ) -> Result<Relation, RuntimeError> {
        let mut rows = Vec::new();
        self.counter.eval_units += rel.rows.len() as u64;
        // Periodic budget check so runaway predicates with functions abort.
        for (i, row) in rel.rows.iter().enumerate() {
            if i % 4096 == 0 {
                self.check_budget(0)?;
            }
            let v = self.eval_with_row(pred, &rel, row, outer, used_outer)?;
            if v.is_truthy() {
                rows.push(row.clone());
            }
        }
        self.counter.rows_materialized += rows.len() as u64;
        Ok(Relation {
            cols: rel.cols,
            rows,
        })
    }

    fn project(
        &mut self,
        select: &[SelectItem],
        source: &Relation,
        outer: &[Scope<'_>],
        used_outer: &mut bool,
    ) -> Result<Relation, RuntimeError> {
        let (cols, plan) = projection_plan(select, source)?;
        let mut rows = Vec::with_capacity(source.len());
        self.counter.eval_units += (source.len() * plan.len().max(1)) as u64;
        for (i, row) in source.rows.iter().enumerate() {
            if i % 4096 == 0 {
                self.check_budget(0)?;
            }
            let mut out = Vec::with_capacity(cols.len());
            for p in &plan {
                match p {
                    ProjStep::Passthrough(idx) => out.push(row[*idx].clone()),
                    ProjStep::Eval(e) => {
                        out.push(self.eval_with_row(e, source, row, outer, used_outer)?)
                    }
                }
            }
            rows.push(out);
        }
        self.counter.rows_materialized += rows.len() as u64;
        Ok(Relation { cols, rows })
    }

    fn aggregate(
        &mut self,
        select: &[SelectItem],
        group_by: &[Expr],
        having: Option<&Expr>,
        source: &Relation,
        outer: &[Scope<'_>],
        used_outer: &mut bool,
    ) -> Result<Relation, RuntimeError> {
        // Group rows by the GROUP BY key (single group if absent).
        let mut groups: Vec<Vec<usize>> = Vec::new();
        if group_by.is_empty() {
            groups.push((0..source.len()).collect());
        } else {
            let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
            for (ri, row) in source.rows.iter().enumerate() {
                let mut key = Vec::new();
                for g in group_by {
                    let v = self.eval_with_row(g, source, row, outer, used_outer)?;
                    v.group_key(&mut key);
                }
                self.counter.hash_ops += 1;
                let gid = *index.entry(key).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[gid].push(ri);
            }
        }

        // HAVING filters groups.
        let mut kept: Vec<&Vec<usize>> = Vec::new();
        for g in &groups {
            if group_by.is_empty() || !g.is_empty() {
                let keep = match having {
                    None => true,
                    Some(h) => self
                        .eval_in_group(h, source, g, outer, used_outer)?
                        .is_truthy(),
                };
                if keep {
                    kept.push(g);
                }
            }
        }
        // An empty input with no GROUP BY still yields one aggregate row
        // (COUNT(*) = 0), which `groups` already encodes.

        let cols = crate::plan::aggregate_output_cols(select);
        let mut rows = Vec::with_capacity(kept.len());
        for g in kept {
            self.check_budget(0)?;
            let mut out = Vec::with_capacity(select.len());
            for item in select {
                out.push(self.eval_in_group(&item.expr, source, g, outer, used_outer)?);
            }
            rows.push(out);
        }

        let rel = Relation { cols, rows };
        self.counter.rows_materialized += rel.rows.len() as u64;
        Ok(rel)
    }

    /// Evaluate an expression in aggregate context: aggregate calls reduce
    /// over the group's rows; bare columns take their value from the first
    /// row of the group (lenient T-SQL-ish behaviour).
    fn eval_in_group(
        &mut self,
        expr: &Expr,
        source: &Relation,
        group: &[usize],
        outer: &[Scope<'_>],
        used_outer: &mut bool,
    ) -> Result<Value, RuntimeError> {
        match expr {
            Expr::Function(f) if f.aggregate.is_some() => {
                let agg = f.aggregate.unwrap();
                self.counter.eval_units += group.len() as u64;
                match agg {
                    Aggregate::Count => {
                        if f.args.is_empty() || matches!(f.args.first(), Some(Expr::Wildcard(_))) {
                            return Ok(Value::Int(group.len() as i64));
                        }
                        let mut n = 0i64;
                        let mut seen = std::collections::HashSet::new();
                        for &ri in group {
                            let v = self.eval_with_row(
                                &f.args[0],
                                source,
                                &source.rows[ri],
                                outer,
                                used_outer,
                            )?;
                            if !v.is_null() {
                                if f.distinct {
                                    let mut k = Vec::new();
                                    v.group_key(&mut k);
                                    if seen.insert(k) {
                                        n += 1;
                                    }
                                } else {
                                    n += 1;
                                }
                            }
                        }
                        Ok(Value::Int(n))
                    }
                    Aggregate::Min | Aggregate::Max | Aggregate::Sum | Aggregate::Avg => {
                        let arg = f.args.first().ok_or_else(|| {
                            RuntimeError::TypeError(format!("{}() needs an argument", agg.name()))
                        })?;
                        let mut acc: Option<Value> = None;
                        let mut sum = 0.0f64;
                        let mut all_int = true;
                        let mut n = 0u64;
                        for &ri in group {
                            let v = self.eval_with_row(
                                arg,
                                source,
                                &source.rows[ri],
                                outer,
                                used_outer,
                            )?;
                            if v.is_null() {
                                continue;
                            }
                            n += 1;
                            match agg {
                                Aggregate::Min => {
                                    acc = Some(match acc {
                                        None => v,
                                        Some(a) => {
                                            if v.total_cmp(&a).is_lt() {
                                                v
                                            } else {
                                                a
                                            }
                                        }
                                    });
                                }
                                Aggregate::Max => {
                                    acc = Some(match acc {
                                        None => v,
                                        Some(a) => {
                                            if v.total_cmp(&a).is_gt() {
                                                v
                                            } else {
                                                a
                                            }
                                        }
                                    });
                                }
                                _ => {
                                    if !matches!(v, Value::Int(_)) {
                                        all_int = false;
                                    }
                                    sum += v.as_f64().ok_or_else(|| {
                                        RuntimeError::TypeError(format!(
                                            "{}() over non-numeric values",
                                            agg.name()
                                        ))
                                    })?;
                                }
                            }
                        }
                        match agg {
                            Aggregate::Min | Aggregate::Max => Ok(acc.unwrap_or(Value::Null)),
                            Aggregate::Sum => {
                                if n == 0 {
                                    Ok(Value::Null)
                                } else if all_int {
                                    Ok(Value::Int(sum as i64))
                                } else {
                                    Ok(Value::Float(sum))
                                }
                            }
                            Aggregate::Avg => {
                                if n == 0 {
                                    Ok(Value::Null)
                                } else {
                                    Ok(Value::Float(sum / n as f64))
                                }
                            }
                            Aggregate::Count => unreachable!(),
                        }
                    }
                }
            }
            Expr::Literal(_) => self.eval_with_row(expr, source, &[], outer, used_outer),
            // Composite expressions: recurse, aggregating sub-calls.
            Expr::Binary { left, op, right } => {
                let l = self.eval_in_group(left, source, group, outer, used_outer)?;
                let r = self.eval_in_group(right, source, group, outer, used_outer)?;
                crate::eval::apply_binary(&l, *op, &r)
            }
            Expr::Logical { left, and, right } => {
                let l = self.eval_in_group(left, source, group, outer, used_outer)?;
                if *and && !l.is_truthy() {
                    return Ok(Value::Bool(false));
                }
                if !*and && l.is_truthy() {
                    return Ok(Value::Bool(true));
                }
                let r = self.eval_in_group(right, source, group, outer, used_outer)?;
                Ok(Value::Bool(if *and {
                    l.is_truthy() && r.is_truthy()
                } else {
                    l.is_truthy() || r.is_truthy()
                }))
            }
            Expr::Unary { op, expr } => {
                let v = self.eval_in_group(expr, source, group, outer, used_outer)?;
                match op {
                    UnaryOp::Neg => v.neg(),
                    UnaryOp::Plus => Ok(v),
                    UnaryOp::Not => Ok(Value::Bool(!v.is_truthy())),
                }
            }
            Expr::Function(f) => {
                // Scalar function over aggregated arguments.
                let mut args = Vec::with_capacity(f.args.len());
                for a in &f.args {
                    args.push(self.eval_in_group(a, source, group, outer, used_outer)?);
                }
                let (v, cost) = self.fns.call(&f.name.canonical(), &args)?;
                self.counter.fn_units += cost;
                Ok(v)
            }
            // Bare columns etc.: first row of the group (empty group → NULL).
            other => match group.first() {
                Some(&ri) => self.eval_with_row(other, source, &source.rows[ri], outer, used_outer),
                None => Ok(Value::Null),
            },
        }
    }

    fn distinct(&mut self, rel: Relation) -> Result<Relation, RuntimeError> {
        let mut seen = std::collections::HashSet::new();
        let mut rows = Vec::new();
        for row in rel.rows {
            self.counter.hash_ops += 1;
            let mut key = Vec::new();
            for v in &row {
                v.group_key(&mut key);
            }
            if seen.insert(key) {
                rows.push(row);
            }
        }
        Ok(Relation {
            cols: rel.cols,
            rows,
        })
    }

    fn order_by(
        &mut self,
        order: &[OrderByItem],
        projected: Relation,
        source: &Relation,
        outer: &[Scope<'_>],
        used_outer: &mut bool,
    ) -> Result<Relation, RuntimeError> {
        // Evaluate sort keys per projected row; resolution tries the
        // projected columns (select aliases) first, then the source row.
        let paired = !source.cols.is_empty() && source.len() == projected.len();
        let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(projected.len());
        let tmp = Relation {
            cols: projected.cols.clone(),
            rows: Vec::new(),
        };
        for (i, row) in projected.rows.into_iter().enumerate() {
            let mut keys = Vec::with_capacity(order.len());
            for ob in order {
                let v = match self.eval_with_row(&ob.expr, &tmp, &row, outer, used_outer) {
                    Ok(v) => v,
                    Err(RuntimeError::UnknownColumn(_)) | Err(RuntimeError::AmbiguousColumn(_))
                        if paired =>
                    {
                        self.eval_with_row(&ob.expr, source, &source.rows[i], outer, used_outer)?
                    }
                    Err(e) => return Err(e),
                };
                keys.push(v);
            }
            keyed.push((keys, row));
        }
        let descs: Vec<bool> = order.iter().map(|o| o.desc).collect();
        let mut cmp_count = 0u64;
        keyed.sort_by(|a, b| {
            cmp_count += 1;
            for (k, desc) in descs.iter().enumerate() {
                let ord = a.0[k].total_cmp(&b.0[k]);
                if ord != std::cmp::Ordering::Equal {
                    return if *desc { ord.reverse() } else { ord };
                }
            }
            std::cmp::Ordering::Equal
        });
        self.counter.sort_cmps += cmp_count;
        Ok(Relation {
            cols: projected.cols,
            rows: keyed.into_iter().map(|(_, r)| r).collect(),
        })
    }
}

// =====================================================================
// Columnar batch execution
// =====================================================================
//
// Every operator below is the batch twin of a row operator above, with
// the same `CostCounter` charges on the success path — same totals,
// though accumulated column-at-a-time instead of row-at-a-time. Error
// paths (resource aborts, runtime errors) may differ in charge order, so
// the plan loop runs each operator through `ExecCtx::settle`, which
// settles a failure on the row operator over the same input: the row
// engine's order is the label contract. Filters refine selection vectors
// without copying; projection passthrough re-references `Arc`'d columns;
// sorts permute the selection; only joins, expression evaluation, and
// aggregate outputs allocate.

impl ExecCtx<'_> {
    /// Batch twin of [`ExecCtx::exec_plan`].
    pub(crate) fn exec_plan_batch(
        &mut self,
        plan: &QueryPlan,
        outer: &[Scope<'_>],
    ) -> Result<(ColumnBatch, bool), RuntimeError> {
        let mut log = self.open_log();
        let res = self.exec_plan_batch_inner(plan, outer, &mut log);
        self.close_log(log);
        res
    }

    fn exec_plan_batch_inner(
        &mut self,
        plan: &QueryPlan,
        outer: &[Scope<'_>],
        log: &mut Option<OpLog>,
    ) -> Result<(ColumnBatch, bool), RuntimeError> {
        let mut used_outer = false;

        // ---- FROM items -------------------------------------------------
        let mut item_rels: Vec<ColumnBatch> = Vec::with_capacity(plan.items.len());
        for item in &plan.items {
            let rel = self.step(
                log,
                || item_label(item),
                |ctx| ctx.exec_node_batch(item, outer, &mut used_outer),
            )?;
            item_rels.push(rel);
        }

        // ---- pushed single-item filters, in original conjunct order ----
        for (i, pred) in &plan.pushed {
            let input = &item_rels[*i];
            let rel = self.step(
                log,
                || format!("Filter ({pred})"),
                |ctx| {
                    ctx.settle(
                        &mut used_outer,
                        |ctx, uo| ctx.filter_batch(input, pred, outer, uo),
                        |ctx, uo| ctx.filter(input.to_relation(), pred, outer, uo),
                    )
                },
            )?;
            item_rels[*i] = rel;
        }

        // ---- fold the comma-list items ---------------------------------
        let mut source = match item_rels.len() {
            0 => ColumnBatch::unit(),
            _ => {
                let mut acc = item_rels.remove(0);
                for (k, next) in item_rels.into_iter().enumerate() {
                    let step = plan.folds.get(k);
                    acc = self.step(
                        log,
                        || fold_label(step),
                        |ctx| {
                            ctx.settle(
                                &mut used_outer,
                                |ctx, uo| ctx.fold_batch(&acc, &next, step, outer, uo),
                                |ctx, uo| {
                                    let (acc, next) = (acc.to_relation(), next.to_relation());
                                    ctx.fold(acc, next, step, outer, uo)
                                },
                            )
                        },
                    )?;
                }
                acc
            }
        };

        // ---- residual WHERE ---------------------------------------------
        for pred in &plan.residual {
            source = self.step(
                log,
                || format!("Filter ({pred})"),
                |ctx| {
                    ctx.settle(
                        &mut used_outer,
                        |ctx, uo| ctx.filter_batch(&source, pred, outer, uo),
                        |ctx, uo| ctx.filter(source.to_relation(), pred, outer, uo),
                    )
                },
            )?;
        }

        // ---- projection / aggregation ----------------------------------
        let is_agg = matches!(plan.select, SelectOp::Aggregate { .. });
        let mut projected = self.step(
            log,
            || select_label(&plan.select),
            |ctx| {
                ctx.settle(
                    &mut used_outer,
                    |ctx, uo| ctx.select_batch(&plan.select, &source, outer, uo),
                    |ctx, uo| ctx.select(&plan.select, &source.to_relation(), outer, uo),
                )
            },
        )?;

        // ---- DISTINCT ----------------------------------------------------
        if plan.distinct {
            projected = self.step(
                log,
                || "Distinct".into(),
                |ctx| {
                    ctx.settle(
                        &mut used_outer,
                        |ctx, _| ctx.distinct_batch(&projected),
                        |ctx, _| ctx.distinct(projected.to_relation()),
                    )
                },
            )?;
        }

        // ---- ORDER BY (on projected output, falling back to source) ----
        if !plan.order_by.is_empty() {
            // Aggregate outputs sort on their projected columns only.
            let empty = ColumnBatch::default();
            let keys_from = if is_agg { &empty } else { &source };
            projected = self.step(
                log,
                || format!("Sort [{} keys]", plan.order_by.len()),
                |ctx| {
                    ctx.settle(
                        &mut used_outer,
                        |ctx, uo| {
                            ctx.order_by_batch(&plan.order_by, &projected, keys_from, outer, uo)
                        },
                        |ctx, uo| {
                            let (projected, keys_from) =
                                (projected.to_relation(), keys_from.to_relation());
                            ctx.order_by(&plan.order_by, projected, &keys_from, outer, uo)
                        },
                    )
                },
            )?;
        }

        // ---- TOP ----------------------------------------------------------
        if let Some(n) = plan.top {
            projected.truncate(n as usize);
            projected = self.step(log, || format!("Limit {n}"), |_| Ok(projected))?;
        }

        Ok((projected, used_outer))
    }

    fn exec_node_batch(
        &mut self,
        node: &LogicalPlan,
        outer: &[Scope<'_>],
        used_outer: &mut bool,
    ) -> Result<ColumnBatch, RuntimeError> {
        match node {
            LogicalPlan::Scan { table, alias } => self.settle(
                used_outer,
                |ctx, _| ctx.scan_batch(table, alias.as_deref()),
                |ctx, _| ctx.scan(table, alias.as_deref()),
            ),
            LogicalPlan::Subquery { plan, alias } => {
                let (mut rel, uo) = self.exec_plan_batch(plan, outer)?;
                *used_outer |= uo;
                // Rebind all columns under the derived alias.
                let qualifier = alias.as_ref().map(|a| a.to_ascii_lowercase());
                for c in &mut rel.cols {
                    c.qualifier = qualifier.clone();
                    c.table = None;
                }
                Ok(rel)
            }
            LogicalPlan::Join {
                left,
                right,
                kind,
                on,
                strategy,
            } => {
                let l = self.exec_node_batch(left, outer, used_outer)?;
                let r = self.exec_node_batch(right, outer, used_outer)?;
                let on = on.as_ref();
                self.settle(
                    used_outer,
                    |ctx, uo| ctx.join_batch(&l, &r, *kind, on, strategy, outer, uo),
                    |ctx, uo| {
                        let (l, r) = (l.to_relation(), r.to_relation());
                        ctx.join(l, r, *kind, on, strategy, outer, uo)
                    },
                )
            }
        }
    }

    /// Batch twin of [`ExecCtx::join`].
    #[allow(clippy::too_many_arguments)]
    fn join_batch(
        &mut self,
        left: &ColumnBatch,
        right: &ColumnBatch,
        kind: JoinKind,
        on: Option<&Expr>,
        strategy: &JoinStrategy,
        outer: &[Scope<'_>],
        used_outer: &mut bool,
    ) -> Result<ColumnBatch, RuntimeError> {
        let cols: Vec<ColRef> = left.cols.iter().chain(right.cols.iter()).cloned().collect();
        match (strategy, on) {
            (
                JoinStrategy::Hash {
                    left_key,
                    right_key,
                },
                Some(cond),
            ) => self.hash_join_batch(
                left, right, cols, left_key, right_key, cond, kind, outer, used_outer,
            ),
            _ => self.nested_loop_join_batch(left, right, cols, kind, on, outer, used_outer),
        }
    }

    /// Batch scan: identical charges to the row scan, but the column data
    /// is `Arc`-shared with the catalog — nothing is copied.
    fn scan_batch(
        &mut self,
        table: &QualifiedName,
        alias: Option<&str>,
    ) -> Result<ColumnBatch, RuntimeError> {
        let canonical = table.canonical();
        let table = self
            .catalog
            .get(&canonical)
            .ok_or_else(|| RuntimeError::UnknownTable(canonical.clone()))?;
        let n = table.row_count();
        self.counter.rows_scanned += n as u64;
        self.check_budget(n)?;
        let data = table
            .data
            .iter()
            .map(|c| Arc::new(Column::Shared(Arc::clone(c))))
            .collect();
        Ok(ColumnBatch::new(scan_schema(table, alias), data, n))
    }

    /// Batch twin of [`ExecCtx::fold`].
    fn fold_batch(
        &mut self,
        left: &ColumnBatch,
        right: &ColumnBatch,
        step: Option<&FoldStep>,
        outer: &[Scope<'_>],
        used_outer: &mut bool,
    ) -> Result<ColumnBatch, RuntimeError> {
        let cols: Vec<ColRef> = left.cols.iter().chain(right.cols.iter()).cloned().collect();
        match step {
            Some(FoldStep::Hash {
                left_key,
                right_key,
                condition,
            }) => self.hash_join_batch(
                left,
                right,
                cols,
                left_key,
                right_key,
                condition,
                JoinKind::Inner,
                outer,
                used_outer,
            ),
            // Pure cartesian product.
            _ => self.nested_loop_join_batch(
                left,
                right,
                cols,
                JoinKind::Cross,
                None,
                outer,
                used_outer,
            ),
        }
    }

    /// Batch nested-loop join, streaming the cross product in bounded
    /// pair chunks.
    ///
    /// The condition is evaluated over [`NLJ_PAIR_CHUNK`]-bounded slices
    /// of whole left rows instead of one materialized `ln × rn` pair
    /// list, so the transient working set is O(chunk + output) rather
    /// than O(pairs). Chunking is charge-transparent: `eval_units` is
    /// charged for the full pair count up front exactly as before,
    /// per-pair condition evaluation is row-independent, uncorrelated
    /// subqueries stay cached across chunks in [`ExecCtx`], and the emit
    /// order (per left row, matching pairs in right order, outer pads
    /// last) is untouched — the differential suite holds.
    #[allow(clippy::too_many_arguments)]
    fn nested_loop_join_batch(
        &mut self,
        left: &ColumnBatch,
        right: &ColumnBatch,
        cols: Vec<ColRef>,
        kind: JoinKind,
        on: Option<&Expr>,
        outer: &[Scope<'_>],
        used_outer: &mut bool,
    ) -> Result<ColumnBatch, RuntimeError> {
        let est = left.len().saturating_mul(right.len().max(1));
        self.check_budget(est)?;
        let (ln, rn) = (left.len(), right.len());
        let n_pairs = ln * rn;
        self.counter.eval_units += n_pairs as u64;
        if n_pairs == 0 {
            // Degenerate cross product: keep the pre-streaming call shape
            // (one evaluation over the empty pair set) so charge order is
            // bit-compatible with the row engine's.
            if let Some(cond) = on {
                let pairs = gather_pair_batch(left, right, &cols, &[], &[]);
                eval_batch(self, cond, &pairs, &RowSet::All(0), outer, used_outer)?;
            }
        }

        // Emit in the row engine's order: per left row, matching pairs in
        // right order, then the outer-join pad if unmatched.
        let rows_per_chunk = (NLJ_PAIR_CHUNK / rn.max(1)).max(1);
        let mut emit: Vec<(Option<usize>, Option<usize>)> = Vec::new();
        let mut right_matched = vec![false; rn];
        let mut l0 = 0;
        while l0 < ln && n_pairs > 0 {
            let l1 = (l0 + rows_per_chunk).min(ln);
            let chunk_pairs = (l1 - l0) * rn;
            // `None` for an unconditional (cross) join: every pair kept,
            // nothing to evaluate.
            let keep: Option<Vec<bool>> = match on {
                None => None,
                Some(cond) => {
                    let mut li = Vec::with_capacity(chunk_pairs);
                    let mut ri = Vec::with_capacity(chunk_pairs);
                    for l in l0..l1 {
                        for r in 0..rn {
                            li.push(l);
                            ri.push(r);
                        }
                    }
                    let pairs = gather_pair_batch(left, right, &cols, &li, &ri);
                    let c = eval_batch(
                        self,
                        cond,
                        &pairs,
                        &RowSet::All(chunk_pairs),
                        outer,
                        used_outer,
                    )?;
                    Some((0..chunk_pairs).map(|i| c.is_truthy_at(i)).collect())
                }
            };
            for l in l0..l1 {
                let mut matched = false;
                for r in 0..rn {
                    let kept = keep.as_ref().map(|k| k[(l - l0) * rn + r]).unwrap_or(true);
                    if kept {
                        matched = true;
                        right_matched[r] = true;
                        emit.push((Some(l), Some(r)));
                        if emit.len() > self.limits.max_rows {
                            return Err(RuntimeError::ResourceExhausted);
                        }
                    }
                }
                if !matched && matches!(kind, JoinKind::Left | JoinKind::Full) {
                    emit.push((Some(l), None));
                }
            }
            l0 = l1;
        }
        if n_pairs == 0 {
            // No pairs at all: only the left-side outer pads can emit.
            if matches!(kind, JoinKind::Left | JoinKind::Full) {
                for l in 0..ln {
                    emit.push((Some(l), None));
                }
            }
        }
        if matches!(kind, JoinKind::Right | JoinKind::Full) {
            for (r, m) in right_matched.iter().enumerate() {
                if !m {
                    emit.push((None, Some(r)));
                }
            }
        }
        self.counter.rows_materialized += emit.len() as u64;
        Ok(join_output(left, right, cols, &emit))
    }

    /// Batch hash join: vectorized key evaluation, hash build/probe on
    /// group-key bytes, vectorized re-check of the full condition over
    /// the candidate pairs.
    #[allow(clippy::too_many_arguments)]
    fn hash_join_batch(
        &mut self,
        left: &ColumnBatch,
        right: &ColumnBatch,
        cols: Vec<ColRef>,
        lk: &Expr,
        rk: &Expr,
        full_cond: &Expr,
        kind: JoinKind,
        outer: &[Scope<'_>],
        used_outer: &mut bool,
    ) -> Result<ColumnBatch, RuntimeError> {
        let (ln, rn) = (left.len(), right.len());
        // Build on the right side.
        let rkey = eval_batch(self, rk, right, &RowSet::All(rn), outer, used_outer)?;
        let mut table: HashMap<Vec<u8>, Vec<usize>> = HashMap::new();
        for r in 0..rn {
            if rkey.is_null_at(r) {
                continue;
            }
            let mut key = Vec::new();
            rkey.group_key_at(r, &mut key);
            table.entry(key).or_default().push(r);
            self.counter.hash_ops += 1;
        }

        // Probe with the left side, collecting candidate pairs li-major.
        let lkey = eval_batch(self, lk, left, &RowSet::All(ln), outer, used_outer)?;
        self.counter.hash_ops += ln as u64;
        // Memory guard: a pathological key skew could make the candidate
        // list huge even though few pairs survive the condition. The row
        // engine streams this in O(1); we bail out, and the operator is
        // settled on that row twin.
        let pair_cap = self.limits.max_rows.saturating_mul(4).max(1 << 21);
        let mut cand_l: Vec<usize> = Vec::new();
        let mut cand_r: Vec<usize> = Vec::new();
        let mut cand_start: Vec<usize> = Vec::with_capacity(ln + 1);
        let mut keybuf = Vec::new();
        for l in 0..ln {
            cand_start.push(cand_l.len());
            if !lkey.is_null_at(l) {
                keybuf.clear();
                lkey.group_key_at(l, &mut keybuf);
                if let Some(cands) = table.get(&keybuf) {
                    for &r in cands {
                        cand_l.push(l);
                        cand_r.push(r);
                    }
                }
            }
            if cand_l.len() > pair_cap {
                return Err(RuntimeError::ResourceExhausted);
            }
        }
        cand_start.push(cand_l.len());

        let n_cand = cand_l.len();
        self.counter.eval_units += n_cand as u64;
        let keep: Vec<bool> = if n_cand == 0 {
            Vec::new()
        } else {
            let pairs = gather_pair_batch(left, right, &cols, &cand_l, &cand_r);
            let c = eval_batch(
                self,
                full_cond,
                &pairs,
                &RowSet::All(n_cand),
                outer,
                used_outer,
            )?;
            (0..n_cand).map(|i| c.is_truthy_at(i)).collect()
        };

        let mut emit: Vec<(Option<usize>, Option<usize>)> = Vec::new();
        let mut right_matched = vec![false; rn];
        for l in 0..ln {
            let mut matched = false;
            for k in cand_start[l]..cand_start[l + 1] {
                if keep[k] {
                    matched = true;
                    right_matched[cand_r[k]] = true;
                    emit.push((Some(l), Some(cand_r[k])));
                    if emit.len() > self.limits.max_rows {
                        return Err(RuntimeError::ResourceExhausted);
                    }
                }
            }
            if !matched && matches!(kind, JoinKind::Left | JoinKind::Full) {
                emit.push((Some(l), None));
            }
        }
        if matches!(kind, JoinKind::Right | JoinKind::Full) {
            for (r, m) in right_matched.iter().enumerate() {
                if !m {
                    emit.push((None, Some(r)));
                }
            }
        }
        self.counter.rows_materialized += emit.len() as u64;
        Ok(join_output(left, right, cols, &emit))
    }

    /// Batch filter: selection-vector refinement, no column copies.
    fn filter_batch(
        &mut self,
        rel: &ColumnBatch,
        pred: &Expr,
        outer: &[Scope<'_>],
        used_outer: &mut bool,
    ) -> Result<ColumnBatch, RuntimeError> {
        let n = rel.len();
        self.counter.eval_units += n as u64;
        self.check_budget(0)?;
        let c = eval_batch(self, pred, rel, &RowSet::All(n), outer, used_outer)?;
        let keep: Vec<usize> = (0..n).filter(|&i| c.is_truthy_at(i)).collect();
        self.counter.rows_materialized += keep.len() as u64;
        // The row engine checks the budget every 4096 rows mid-filter; one
        // post-charge check here aborts in every case it would have.
        self.check_budget(0)?;
        Ok(rel.select(&keep))
    }

    /// Batch twin of [`ExecCtx::select`].
    fn select_batch(
        &mut self,
        select: &SelectOp,
        source: &ColumnBatch,
        outer: &[Scope<'_>],
        used_outer: &mut bool,
    ) -> Result<ColumnBatch, RuntimeError> {
        match select {
            SelectOp::Aggregate {
                items,
                group_by,
                having,
            } => self.aggregate_batch(items, group_by, having.as_ref(), source, outer, used_outer),
            SelectOp::Project { items } => self.project_batch(items, source, outer, used_outer),
        }
    }

    /// Batch projection: pure-passthrough projections re-reference the
    /// source columns (zero copy, selection preserved); anything with a
    /// computed expression materializes dense output columns.
    fn project_batch(
        &mut self,
        select: &[SelectItem],
        source: &ColumnBatch,
        outer: &[Scope<'_>],
        used_outer: &mut bool,
    ) -> Result<ColumnBatch, RuntimeError> {
        let schema = schema_relation(source.cols.clone());
        let (cols, plan) = projection_plan(select, &schema)?;
        let n = source.len();
        self.counter.eval_units += (n * plan.len().max(1)) as u64;
        self.check_budget(0)?;
        let all_passthrough = plan.iter().all(|p| matches!(p, ProjStep::Passthrough(_)));
        let out = if all_passthrough {
            let columns = plan
                .iter()
                .map(|p| match p {
                    ProjStep::Passthrough(i) => Arc::clone(&source.columns[*i]),
                    ProjStep::Eval(_) => unreachable!(),
                })
                .collect();
            source.reproject(cols, columns)
        } else {
            let mut columns = Vec::with_capacity(plan.len());
            for p in &plan {
                match p {
                    ProjStep::Passthrough(i) => {
                        columns.push(Arc::new(source.gather_column(*i)));
                    }
                    ProjStep::Eval(e) => {
                        columns.push(eval_batch(
                            self,
                            e,
                            source,
                            &RowSet::All(n),
                            outer,
                            used_outer,
                        )?);
                    }
                }
            }
            ColumnBatch::new(cols, columns, n)
        };
        self.counter.rows_materialized += n as u64;
        self.check_budget(0)?;
        Ok(out)
    }

    /// Batch aggregation: vectorized group-key evaluation, then per-group
    /// reductions over selection subsets.
    fn aggregate_batch(
        &mut self,
        select: &[SelectItem],
        group_by: &[Expr],
        having: Option<&Expr>,
        source: &ColumnBatch,
        outer: &[Scope<'_>],
        used_outer: &mut bool,
    ) -> Result<ColumnBatch, RuntimeError> {
        let n = source.len();
        // Group rows by the GROUP BY key (single group if absent).
        let mut groups: Vec<Vec<usize>> = Vec::new();
        if group_by.is_empty() {
            groups.push((0..n).collect());
        } else {
            let mut gcols = Vec::with_capacity(group_by.len());
            for g in group_by {
                gcols.push(eval_batch(
                    self,
                    g,
                    source,
                    &RowSet::All(n),
                    outer,
                    used_outer,
                )?);
            }
            let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
            for i in 0..n {
                let mut key = Vec::new();
                for gc in &gcols {
                    gc.group_key_at(i, &mut key);
                }
                self.counter.hash_ops += 1;
                let gid = *index.entry(key).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[gid].push(i);
            }
        }

        // HAVING filters groups.
        let mut kept: Vec<&Vec<usize>> = Vec::new();
        for g in &groups {
            if group_by.is_empty() || !g.is_empty() {
                let keep = match having {
                    None => true,
                    Some(h) => self
                        .eval_in_group_batch(h, source, g, outer, used_outer)?
                        .is_truthy(),
                };
                if keep {
                    kept.push(g);
                }
            }
        }

        let cols = crate::plan::aggregate_output_cols(select);
        let mut builders: Vec<ColumnBuilder> = select
            .iter()
            .map(|_| ColumnBuilder::with_capacity(kept.len()))
            .collect();
        let mut n_out = 0usize;
        for g in kept {
            self.check_budget(0)?;
            for (k, item) in select.iter().enumerate() {
                let v = self.eval_in_group_batch(&item.expr, source, g, outer, used_outer)?;
                builders[k].push(v);
            }
            n_out += 1;
        }
        let columns: Vec<Arc<Column>> =
            builders.into_iter().map(|b| Arc::new(b.finish())).collect();
        self.counter.rows_materialized += n_out as u64;
        Ok(ColumnBatch::new(cols, columns, n_out))
    }

    /// Batch twin of [`ExecCtx::eval_in_group`]: aggregate calls reduce a
    /// vectorized argument column over the group's rows; bare columns take
    /// their value from the first row of the group.
    fn eval_in_group_batch(
        &mut self,
        expr: &Expr,
        source: &ColumnBatch,
        group: &[usize],
        outer: &[Scope<'_>],
        used_outer: &mut bool,
    ) -> Result<Value, RuntimeError> {
        match expr {
            Expr::Function(f) if f.aggregate.is_some() => {
                let agg = f.aggregate.unwrap();
                self.counter.eval_units += group.len() as u64;
                match agg {
                    Aggregate::Count => {
                        if f.args.is_empty() || matches!(f.args.first(), Some(Expr::Wildcard(_))) {
                            return Ok(Value::Int(group.len() as i64));
                        }
                        let col = eval_batch(
                            self,
                            &f.args[0],
                            source,
                            &RowSet::Subset(group),
                            outer,
                            used_outer,
                        )?;
                        let mut count = 0i64;
                        let mut seen = std::collections::HashSet::new();
                        for j in 0..col.len() {
                            if !col.is_null_at(j) {
                                if f.distinct {
                                    let mut k = Vec::new();
                                    col.group_key_at(j, &mut k);
                                    if seen.insert(k) {
                                        count += 1;
                                    }
                                } else {
                                    count += 1;
                                }
                            }
                        }
                        Ok(Value::Int(count))
                    }
                    Aggregate::Min | Aggregate::Max | Aggregate::Sum | Aggregate::Avg => {
                        let arg = f.args.first().ok_or_else(|| {
                            RuntimeError::TypeError(format!("{}() needs an argument", agg.name()))
                        })?;
                        let col = eval_batch(
                            self,
                            arg,
                            source,
                            &RowSet::Subset(group),
                            outer,
                            used_outer,
                        )?;
                        let mut acc: Option<Value> = None;
                        let mut sum = 0.0f64;
                        let mut all_int = true;
                        let mut count = 0u64;
                        for j in 0..col.len() {
                            let v = col.get(j);
                            if v.is_null() {
                                continue;
                            }
                            count += 1;
                            match agg {
                                Aggregate::Min => {
                                    acc = Some(match acc {
                                        None => v,
                                        Some(a) => {
                                            if v.total_cmp(&a).is_lt() {
                                                v
                                            } else {
                                                a
                                            }
                                        }
                                    });
                                }
                                Aggregate::Max => {
                                    acc = Some(match acc {
                                        None => v,
                                        Some(a) => {
                                            if v.total_cmp(&a).is_gt() {
                                                v
                                            } else {
                                                a
                                            }
                                        }
                                    });
                                }
                                _ => {
                                    if !matches!(v, Value::Int(_)) {
                                        all_int = false;
                                    }
                                    sum += v.as_f64().ok_or_else(|| {
                                        RuntimeError::TypeError(format!(
                                            "{}() over non-numeric values",
                                            agg.name()
                                        ))
                                    })?;
                                }
                            }
                        }
                        match agg {
                            Aggregate::Min | Aggregate::Max => Ok(acc.unwrap_or(Value::Null)),
                            Aggregate::Sum => {
                                if count == 0 {
                                    Ok(Value::Null)
                                } else if all_int {
                                    Ok(Value::Int(sum as i64))
                                } else {
                                    Ok(Value::Float(sum))
                                }
                            }
                            Aggregate::Avg => {
                                if count == 0 {
                                    Ok(Value::Null)
                                } else {
                                    Ok(Value::Float(sum / count as f64))
                                }
                            }
                            Aggregate::Count => unreachable!(),
                        }
                    }
                }
            }
            Expr::Literal(l) => Ok(crate::eval::literal_value(l)),
            // Composite expressions: recurse, aggregating sub-calls.
            Expr::Binary { left, op, right } => {
                let l = self.eval_in_group_batch(left, source, group, outer, used_outer)?;
                let r = self.eval_in_group_batch(right, source, group, outer, used_outer)?;
                apply_binary(&l, *op, &r)
            }
            Expr::Logical { left, and, right } => {
                let l = self.eval_in_group_batch(left, source, group, outer, used_outer)?;
                if *and && !l.is_truthy() {
                    return Ok(Value::Bool(false));
                }
                if !*and && l.is_truthy() {
                    return Ok(Value::Bool(true));
                }
                let r = self.eval_in_group_batch(right, source, group, outer, used_outer)?;
                Ok(Value::Bool(if *and {
                    l.is_truthy() && r.is_truthy()
                } else {
                    l.is_truthy() || r.is_truthy()
                }))
            }
            Expr::Unary { op, expr } => {
                let v = self.eval_in_group_batch(expr, source, group, outer, used_outer)?;
                match op {
                    UnaryOp::Neg => v.neg(),
                    UnaryOp::Plus => Ok(v),
                    UnaryOp::Not => Ok(Value::Bool(!v.is_truthy())),
                }
            }
            Expr::Function(f) => {
                // Scalar function over aggregated arguments.
                let mut args = Vec::with_capacity(f.args.len());
                for a in &f.args {
                    args.push(self.eval_in_group_batch(a, source, group, outer, used_outer)?);
                }
                let (v, cost) = self.fns.call(&f.name.canonical(), &args)?;
                self.counter.fn_units += cost;
                Ok(v)
            }
            // Bare columns etc.: first row of the group (empty group → NULL).
            other => match group.first() {
                Some(&i) => {
                    let col = eval_batch(
                        self,
                        other,
                        source,
                        &RowSet::Subset(&[i]),
                        outer,
                        used_outer,
                    )?;
                    Ok(col.get(0))
                }
                None => Ok(Value::Null),
            },
        }
    }

    /// Batch DISTINCT: keeps the first occurrence of every grouping key,
    /// as a selection refinement.
    fn distinct_batch(&mut self, rel: &ColumnBatch) -> Result<ColumnBatch, RuntimeError> {
        let mut seen = std::collections::HashSet::new();
        let mut keep = Vec::new();
        for i in 0..rel.len() {
            self.counter.hash_ops += 1;
            let p = rel.phys(i);
            let mut key = Vec::new();
            for c in &rel.columns {
                c.group_key_at(p, &mut key);
            }
            if seen.insert(key) {
                keep.push(i);
            }
        }
        Ok(rel.select(&keep))
    }

    /// Batch ORDER BY: vectorized key columns, then an index sort that
    /// permutes the selection vector — rows never move.
    fn order_by_batch(
        &mut self,
        order: &[OrderByItem],
        projected: &ColumnBatch,
        source: &ColumnBatch,
        outer: &[Scope<'_>],
        used_outer: &mut bool,
    ) -> Result<ColumnBatch, RuntimeError> {
        let n = projected.len();
        // Key resolution tries the projected columns (select aliases)
        // first, then the source row — same fallback as the row engine;
        // name resolution is schema-dependent, so all rows take one path.
        let paired = !source.cols.is_empty() && source.len() == n;
        let mut key_cols: Vec<Arc<Column>> = Vec::with_capacity(order.len());
        for ob in order {
            let units_before = self.counter.units();
            let col = match eval_batch(
                self,
                &ob.expr,
                projected,
                &RowSet::All(n),
                outer,
                used_outer,
            ) {
                Ok(c) => c,
                Err(RuntimeError::UnknownColumn(_)) | Err(RuntimeError::AmbiguousColumn(_))
                    if paired && self.counter.units() == units_before =>
                {
                    // Resolution-only failure (bare source column): the
                    // failed attempt charged nothing, so the row engine's
                    // per-row retry totals the same as one vectorized
                    // pass over the source.
                    eval_batch(self, &ob.expr, source, &RowSet::All(n), outer, used_outer)?
                }
                // A *charging* failed attempt (e.g. a correlated subquery
                // ran before hitting the unknown column) is repeated per
                // row by the row engine — a vectorized fallback cannot
                // reproduce those totals, so fail, and the sort is
                // settled on its row twin.
                Err(e) => return Err(e),
            };
            key_cols.push(col);
        }
        let descs: Vec<bool> = order.iter().map(|o| o.desc).collect();
        // Sort the *same element type* the row engine sorts — `(keys,
        // row)` pairs, with a single-value dummy row carrying the index.
        // std's stable sort picks its strategy (and therefore its exact
        // comparison count, which is a charged label!) based on the
        // element type, so sorting bare indices would diverge from the
        // row engine by a few comparisons.
        let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(n);
        for i in 0..n {
            let keys: Vec<Value> = key_cols.iter().map(|c| c.get(i)).collect();
            keyed.push((keys, vec![Value::Int(i as i64)]));
        }
        let mut cmp_count = 0u64;
        keyed.sort_by(|a, b| {
            cmp_count += 1;
            for (k, desc) in descs.iter().enumerate() {
                let ord = a.0[k].total_cmp(&b.0[k]);
                if ord != std::cmp::Ordering::Equal {
                    return if *desc { ord.reverse() } else { ord };
                }
            }
            std::cmp::Ordering::Equal
        });
        self.counter.sort_cmps += cmp_count;
        let idx: Vec<usize> = keyed
            .iter()
            .map(|(_, r)| r[0].as_i64().unwrap_or(0) as usize)
            .collect();
        Ok(projected.select(&idx))
    }
}

/// Gather the combined (left ++ right) columns for a candidate pair list
/// as a dense batch, for vectorized ON-condition evaluation.
fn gather_pair_batch(
    left: &ColumnBatch,
    right: &ColumnBatch,
    cols: &[ColRef],
    li: &[usize],
    ri: &[usize],
) -> ColumnBatch {
    let lphys: Vec<usize> = li.iter().map(|&i| left.phys(i)).collect();
    let rphys: Vec<usize> = ri.iter().map(|&i| right.phys(i)).collect();
    let mut columns = Vec::with_capacity(left.width() + right.width());
    for c in &left.columns {
        columns.push(Arc::new(gather(c, &lphys)));
    }
    for c in &right.columns {
        columns.push(Arc::new(gather(c, &rphys)));
    }
    ColumnBatch::new(cols.to_vec(), columns, li.len())
}

/// Materialize the join output for an emission list of (left, right)
/// logical rows; `None` on either side means outer-join NULL padding.
fn join_output(
    left: &ColumnBatch,
    right: &ColumnBatch,
    cols: Vec<ColRef>,
    emit: &[(Option<usize>, Option<usize>)],
) -> ColumnBatch {
    let lphys: Vec<Option<usize>> = emit.iter().map(|(l, _)| l.map(|i| left.phys(i))).collect();
    let rphys: Vec<Option<usize>> = emit.iter().map(|(_, r)| r.map(|i| right.phys(i))).collect();
    let mut columns = Vec::with_capacity(left.width() + right.width());
    for c in &left.columns {
        columns.push(Arc::new(gather_padded(c, &lphys)));
    }
    for c in &right.columns {
        columns.push(Arc::new(gather_padded(c, &rphys)));
    }
    ColumnBatch::new(cols, columns, emit.len())
}

/// Gather with NULL padding for `None` indices; falls back to the dense
/// typed gather when no padding is present.
fn gather_padded(src: &Column, idx: &[Option<usize>]) -> Column {
    if idx.iter().all(|i| i.is_some()) {
        let dense: Vec<usize> = idx.iter().map(|i| i.unwrap()).collect();
        return gather(src, &dense);
    }
    let mut b = ColumnBuilder::with_capacity(idx.len());
    for i in idx {
        b.push(match i {
            Some(i) => src.get(*i),
            None => Value::Null,
        });
    }
    b.finish()
}
