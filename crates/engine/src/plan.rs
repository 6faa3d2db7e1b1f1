//! Logical query plans: the IR between the parsed AST and physical
//! execution.
//!
//! [`lower`] translates a [`Query`] into a naive [`QueryPlan`] — scans and
//! explicit joins exactly as written, every WHERE conjunct left as a
//! residual filter, every comma-join folded as a cross product.
//! [`crate::optimizer::plan`] then rewrites the plan (predicate pushdown,
//! equi-join detection), and [`crate::physical`] executes the result
//! against the catalog.
//!
//! The plan deliberately keeps the *phase structure* of query execution
//! explicit — FROM items, pushed filters (in original conjunct order),
//! item folds, residual filters, then select/distinct/sort/limit — rather
//! than dissolving everything into one operator tree. Execution order is
//! part of the engine's contract: the deterministic [`crate::CostCounter`]
//! charges are workload labels, so two plans that differ only in charge
//! *order* can still differ observably when a query aborts on a resource
//! budget. Phases pin that order. An operator-tree *view* for humans is
//! still available through [`QueryPlan::render`] (EXPLAIN).

use sqlan_sql::{Expr, JoinKind, OrderByItem, QualifiedName, Query, SelectItem, TableFactor};

use crate::catalog::{Catalog, Table};
use crate::error::RuntimeError;
use crate::relation::{ColRef, Relation};

/// A relational operator tree for one FROM item (or a nested subquery).
#[derive(Debug, Clone)]
pub enum LogicalPlan {
    /// Scan a base table.
    Scan {
        table: QualifiedName,
        alias: Option<String>,
    },
    /// A derived table: a fully planned subquery bound under an alias.
    Subquery {
        plan: Box<QueryPlan>,
        alias: Option<String>,
    },
    /// Filter rows of `input` by `predicate`.
    Filter {
        input: Box<LogicalPlan>,
        predicate: Expr,
    },
    /// An explicit `JOIN`. `strategy` is chosen by the equi-join
    /// detection pass; the naive plan always uses [`JoinStrategy::NestedLoop`].
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        kind: JoinKind,
        on: Option<Expr>,
        strategy: JoinStrategy,
    },
}

/// Physical algorithm annotation for a join node.
#[derive(Debug, Clone)]
pub enum JoinStrategy {
    /// Pairwise evaluation of the full `ON` condition.
    NestedLoop,
    /// Build a hash table on `right_key`, probe with `left_key`, then
    /// re-check the full `ON` condition on candidates.
    Hash {
        left_key: Box<Expr>,
        right_key: Box<Expr>,
    },
}

/// How two adjacent comma-list items are combined.
#[derive(Debug, Clone)]
pub enum FoldStep {
    /// Cartesian product (no usable equality found).
    Cross,
    /// Single-key hash join; `condition` is the conjunction of every
    /// WHERE conjunct consumed by this fold (re-checked per candidate).
    Hash {
        left_key: Expr,
        right_key: Expr,
        condition: Expr,
    },
}

/// The projection/aggregation head of a query.
#[derive(Debug, Clone)]
pub enum SelectOp {
    Project {
        items: Vec<SelectItem>,
    },
    Aggregate {
        items: Vec<SelectItem>,
        group_by: Vec<Expr>,
        having: Option<Expr>,
    },
}

/// A fully lowered SELECT: FROM-item subtrees plus the explicitly phased
/// steps around them.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// One operator tree per comma-separated FROM item.
    pub items: Vec<LogicalPlan>,
    /// Single-item WHERE conjuncts pushed down by the optimizer:
    /// `(item index, predicate)`, preserving original conjunct order
    /// (which is the charge order of the cost counter).
    pub pushed: Vec<(usize, Expr)>,
    /// `folds[k]` combines the accumulated join of items `0..=k` with
    /// item `k + 1`.
    pub folds: Vec<FoldStep>,
    /// Filters applied after all items are combined.
    pub residual: Vec<Expr>,
    pub select: SelectOp,
    pub distinct: bool,
    pub order_by: Vec<OrderByItem>,
    pub top: Option<u64>,
}

// ================= lowering =================

/// Lower a parsed query into the naive plan: no pushdown, no equi-join
/// detection, cross-product folds, conjunct-split residual filters.
pub fn lower(q: &Query) -> QueryPlan {
    let items: Vec<LogicalPlan> = q.from.iter().map(lower_item).collect();
    let folds = vec![FoldStep::Cross; items.len().saturating_sub(1)];
    let residual: Vec<Expr> = q
        .where_clause
        .as_ref()
        .map(|w| split_conjuncts(w).into_iter().cloned().collect())
        .unwrap_or_default();
    let select = if !q.group_by.is_empty() || query_has_aggregate(q) {
        SelectOp::Aggregate {
            items: q.select.clone(),
            group_by: q.group_by.clone(),
            having: q.having.clone(),
        }
    } else {
        SelectOp::Project {
            items: q.select.clone(),
        }
    };
    QueryPlan {
        items,
        pushed: Vec::new(),
        folds,
        residual,
        select,
        distinct: q.distinct,
        order_by: q.order_by.clone(),
        top: q.top,
    }
}

fn lower_item(item: &sqlan_sql::FromItem) -> LogicalPlan {
    let mut node = lower_factor(&item.factor);
    for join in &item.joins {
        node = LogicalPlan::Join {
            left: Box::new(node),
            right: Box::new(lower_factor(&join.factor)),
            kind: join.kind,
            on: join.on.clone(),
            strategy: JoinStrategy::NestedLoop,
        };
    }
    node
}

fn lower_factor(factor: &TableFactor) -> LogicalPlan {
    match factor {
        TableFactor::Table { name, alias } => LogicalPlan::Scan {
            table: name.clone(),
            alias: alias.clone(),
        },
        TableFactor::Derived { subquery, alias } => LogicalPlan::Subquery {
            plan: Box::new(lower(subquery)),
            alias: alias.clone(),
        },
    }
}

// ================= conjunct / aggregate analysis =================

/// Split a boolean expression into AND-connected conjuncts.
pub fn split_conjuncts(e: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn rec<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        match e {
            Expr::Logical {
                left,
                and: true,
                right,
            } => {
                rec(left, out);
                rec(right, out);
            }
            other => out.push(other),
        }
    }
    rec(e, &mut out);
    out
}

/// Does any select item or HAVING clause contain an aggregate call?
pub fn query_has_aggregate(q: &Query) -> bool {
    let mut found = false;
    let mut check = |e: &Expr| {
        sqlan_sql::visit::walk_expr(e, &mut |x| {
            if let Expr::Function(f) = x {
                if f.aggregate.is_some() {
                    found = true;
                }
            }
        });
    };
    for item in &q.select {
        check(&item.expr);
    }
    if let Some(h) = &q.having {
        check(h);
    }
    found
}

// ================= static schemas =================

/// A rows-free [`Relation`] carrying only column metadata, used for
/// plan-time name resolution (the same `Relation::resolve` rules the
/// executor applies at runtime, so optimizer decisions match execution).
pub fn schema_relation(cols: Vec<ColRef>) -> Relation {
    Relation {
        cols,
        rows: Vec::new(),
    }
}

/// The output columns a plan node will materialize. Unknown tables yield
/// an empty schema — planning never fails; the corresponding scan raises
/// the error at execution time, preserving the engine's error ordering.
pub fn node_schema(node: &LogicalPlan, catalog: &Catalog) -> Vec<ColRef> {
    match node {
        LogicalPlan::Scan { table, alias } => match catalog.get(&table.canonical()) {
            Some(t) => scan_schema(t, alias.as_deref()),
            None => Vec::new(),
        },
        LogicalPlan::Subquery { plan, alias } => {
            let qualifier = alias.as_ref().map(|a| a.to_ascii_lowercase());
            plan.output_schema(catalog)
                .into_iter()
                .map(|mut c| {
                    c.qualifier = qualifier.clone();
                    c.table = None;
                    c
                })
                .collect()
        }
        LogicalPlan::Filter { input, .. } => node_schema(input, catalog),
        LogicalPlan::Join { left, right, .. } => {
            let mut cols = node_schema(left, catalog);
            cols.extend(node_schema(right, catalog));
            cols
        }
    }
}

/// The columns a scan of `table` under `alias` produces — shared by
/// plan-time schemas and both physical scans so they can never disagree.
pub(crate) fn scan_schema(table: &Table, alias: Option<&str>) -> Vec<ColRef> {
    let qualifier = alias.map(|a| a.to_ascii_lowercase());
    let tname = table.name.to_ascii_lowercase();
    table
        .columns
        .iter()
        .map(|c| ColRef {
            qualifier: qualifier.clone(),
            table: Some(tname.clone()),
            name: c.name.clone(),
        })
        .collect()
}

impl QueryPlan {
    /// Schema of the combined FROM source (all items side by side).
    pub fn source_schema(&self, catalog: &Catalog) -> Vec<ColRef> {
        let mut cols = Vec::new();
        for item in &self.items {
            cols.extend(node_schema(item, catalog));
        }
        cols
    }

    /// Schema of the query's output rows (after projection/aggregation).
    pub fn output_schema(&self, catalog: &Catalog) -> Vec<ColRef> {
        let source = schema_relation(self.source_schema(catalog));
        match &self.select {
            SelectOp::Project { items } => match projection_plan(items, &source) {
                Ok((cols, _)) => cols,
                // Unknown `alias.*` — execution will raise the error; the
                // best-effort schema just omits it.
                Err(_) => Vec::new(),
            },
            SelectOp::Aggregate { items, .. } => aggregate_output_cols(items),
        }
    }
}

/// One step of a projection: either copy a source column through or
/// evaluate an expression.
#[derive(Debug)]
pub(crate) enum ProjStep<'q> {
    Passthrough(usize),
    Eval(&'q Expr),
}

/// Expand wildcards and name output columns for a projection — shared by
/// plan-time schema computation and physical execution so they can never
/// disagree.
pub(crate) fn projection_plan<'q>(
    select: &'q [SelectItem],
    source: &Relation,
) -> Result<(Vec<ColRef>, Vec<ProjStep<'q>>), RuntimeError> {
    let mut cols = Vec::new();
    let mut plan = Vec::new();
    for (k, item) in select.iter().enumerate() {
        match &item.expr {
            Expr::Wildcard(qual) => {
                let idxs = source.wildcard_columns(qual.as_deref());
                if idxs.is_empty() && qual.is_some() {
                    return Err(RuntimeError::UnknownColumn(format!(
                        "{}.*",
                        qual.clone().unwrap_or_default()
                    )));
                }
                for i in idxs {
                    cols.push(source.cols[i].clone());
                    plan.push(ProjStep::Passthrough(i));
                }
            }
            e => {
                let name = item
                    .alias
                    .clone()
                    .or_else(|| match e {
                        Expr::Column(c) => Some(c.base().to_string()),
                        _ => None,
                    })
                    .unwrap_or_else(|| format!("col{}", k + 1));
                cols.push(ColRef {
                    qualifier: None,
                    table: None,
                    name,
                });
                plan.push(ProjStep::Eval(e));
            }
        }
    }
    Ok((cols, plan))
}

/// Output column names of an aggregate head (aliases, bare column names,
/// function names, `colN` fallbacks).
pub(crate) fn aggregate_output_cols(select: &[SelectItem]) -> Vec<ColRef> {
    select
        .iter()
        .enumerate()
        .map(|(k, item)| {
            let name = item
                .alias
                .clone()
                .or_else(|| match &item.expr {
                    Expr::Column(c) => Some(c.base().to_string()),
                    Expr::Function(f) => Some(f.name.base().to_string()),
                    _ => None,
                })
                .unwrap_or_else(|| format!("col{}", k + 1));
            ColRef {
                qualifier: None,
                table: None,
                name,
            }
        })
        .collect()
}

// ================= EXPLAIN rendering =================

impl QueryPlan {
    /// Render the plan as an operator tree (EXPLAIN). The phased parts of
    /// the plan are shown as the operator pipeline they execute as.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut lines: Vec<(usize, String)> = Vec::new();
        self.render_into(0, &mut lines);
        for (depth, text) in lines {
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push_str(&text);
            out.push('\n');
        }
        out
    }

    fn render_into(&self, depth: usize, lines: &mut Vec<(usize, String)>) {
        let mut d = depth;
        if let Some(n) = self.top {
            lines.push((d, format!("Limit {n}")));
            d += 1;
        }
        if !self.order_by.is_empty() {
            let keys: Vec<String> = self
                .order_by
                .iter()
                .map(|o| format!("{}{}", o.expr, if o.desc { " DESC" } else { "" }))
                .collect();
            lines.push((d, format!("Sort [{}]", keys.join(", "))));
            d += 1;
        }
        if self.distinct {
            lines.push((d, "Distinct".to_string()));
            d += 1;
        }
        match &self.select {
            SelectOp::Project { items } => {
                let cols: Vec<String> = items.iter().map(|i| i.expr.to_string()).collect();
                lines.push((d, format!("Project [{}]", cols.join(", "))));
            }
            SelectOp::Aggregate {
                items,
                group_by,
                having,
            } => {
                let cols: Vec<String> = items.iter().map(|i| i.expr.to_string()).collect();
                let mut text = format!("Aggregate [{}]", cols.join(", "));
                if !group_by.is_empty() {
                    let keys: Vec<String> = group_by.iter().map(|g| g.to_string()).collect();
                    text.push_str(&format!(" group by [{}]", keys.join(", ")));
                }
                if let Some(h) = having {
                    text.push_str(&format!(" having ({h})"));
                }
                lines.push((d, text));
            }
        }
        d += 1;
        for pred in self.residual.iter().rev() {
            lines.push((d, format!("Filter ({pred})")));
            d += 1;
        }
        self.render_source(d, lines);
    }

    fn render_source(&self, depth: usize, lines: &mut Vec<(usize, String)>) {
        if self.items.is_empty() {
            lines.push((depth, "UnitRow".to_string()));
            return;
        }
        // Left-deep fold tree: render the last fold at the top.
        self.render_fold(self.items.len() - 1, depth, lines);
    }

    fn render_fold(&self, upto: usize, depth: usize, lines: &mut Vec<(usize, String)>) {
        if upto == 0 {
            self.render_item(0, depth, lines);
            return;
        }
        match &self.folds.get(upto - 1) {
            Some(FoldStep::Hash { condition, .. }) => {
                lines.push((depth, format!("HashJoin ({condition})")));
            }
            _ => lines.push((depth, "CrossJoin".to_string())),
        }
        self.render_fold(upto - 1, depth + 1, lines);
        self.render_item(upto, depth + 1, lines);
    }

    fn render_item(&self, index: usize, depth: usize, lines: &mut Vec<(usize, String)>) {
        // Pushed filters wrap the item; the last-applied filter prints
        // outermost.
        let mut d = depth;
        for (_, pred) in self.pushed.iter().filter(|(i, _)| *i == index).rev() {
            lines.push((d, format!("Filter ({pred})")));
            d += 1;
        }
        render_node(&self.items[index], d, lines);
    }
}

fn render_node(node: &LogicalPlan, depth: usize, lines: &mut Vec<(usize, String)>) {
    match node {
        LogicalPlan::Scan { table, alias } => {
            let mut text = format!("Scan {}", table.canonical());
            if let Some(a) = alias {
                text.push_str(&format!(" AS {a}"));
            }
            lines.push((depth, text));
        }
        LogicalPlan::Subquery { plan, alias } => {
            lines.push((
                depth,
                format!(
                    "Subquery{}",
                    alias
                        .as_ref()
                        .map(|a| format!(" AS {a}"))
                        .unwrap_or_default()
                ),
            ));
            plan.render_into(depth + 1, lines);
        }
        LogicalPlan::Filter { input, predicate } => {
            lines.push((depth, format!("Filter ({predicate})")));
            render_node(input, depth + 1, lines);
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            strategy,
        } => {
            let head = match strategy {
                JoinStrategy::Hash { .. } => "HashJoin",
                JoinStrategy::NestedLoop => "NestedLoopJoin",
            };
            let mut text = format!("{head} {kind:?}");
            if let Some(c) = on {
                text.push_str(&format!(" on ({c})"));
            }
            lines.push((depth, text));
            render_node(left, depth + 1, lines);
            render_node(right, depth + 1, lines);
        }
    }
}

impl std::fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}
