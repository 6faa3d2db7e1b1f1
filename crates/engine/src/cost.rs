//! Cost accounting (actual execution) and optimizer-style cost *estimates*.
//!
//! Two deliberately different models live here:
//!
//! * [`CostCounter`] — exact, deterministic accounting charged by the
//!   executor as it runs. This is the ground truth that becomes the CPU
//!   time label of a workload entry.
//! * [`estimate_cost`] — a textbook System-R-style estimator with
//!   uniformity assumptions and **no** model of scalar-function CPU or
//!   nested re-execution. It walks the *optimized plan* (the same
//!   [`QueryPlan`] the executor runs at the same [`OptLevel`]), so scan
//!   costs, join strategies, and pushed-down selectivities line up with
//!   what will actually execute — but its imprecision is still the point:
//!   the paper's `opt` baseline (linear regression on optimizer estimates)
//!   trails the learned models precisely because analytic cost models
//!   simplify (§1, §6.2.3).

use serde::{Deserialize, Serialize};

use sqlan_sql::{Expr, Statement};

use crate::catalog::Catalog;
use crate::optimizer::{plan, OptLevel};
use crate::plan::{FoldStep, JoinStrategy, LogicalPlan, QueryPlan, SelectOp};

/// Exact execution cost accounting, in abstract "cost units".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostCounter {
    /// Rows read from base tables.
    pub rows_scanned: u64,
    /// Weighted scalar-function cost units.
    pub fn_units: u64,
    /// Comparison operations in sorts.
    pub sort_cmps: u64,
    /// Hash-table build/probe operations in joins, grouping, DISTINCT.
    pub hash_ops: u64,
    /// Rows produced in intermediate and final relations.
    pub rows_materialized: u64,
    /// Expression evaluations (per row × per expression node batch).
    pub eval_units: u64,
    /// Subquery executions (correlated subqueries re-execute per row).
    pub subquery_execs: u64,
}

impl CostCounter {
    /// Total abstract cost units.
    pub fn units(&self) -> u64 {
        self.rows_scanned
            .saturating_add(self.fn_units.saturating_mul(4))
            .saturating_add(self.sort_cmps)
            .saturating_add(self.hash_ops.saturating_mul(2))
            .saturating_add(self.rows_materialized)
            .saturating_add(self.eval_units)
            .saturating_add(self.subquery_execs.saturating_mul(16))
    }

    /// Deterministic CPU seconds: one unit = 10 µs, calibrated so that a
    /// point-lookup scan over a laptop-scale table costs tens of
    /// milliseconds while join-, function- and subquery-heavy queries
    /// reach seconds to hours — reproducing the skew of the SDSS `busy`
    /// column (Figure 6d: mode/median ≈ 0, extreme heavy tail).
    pub fn cpu_seconds(&self) -> f64 {
        self.units() as f64 * 1e-5
    }

    pub fn add(&mut self, other: &CostCounter) {
        self.rows_scanned += other.rows_scanned;
        self.fn_units += other.fn_units;
        self.sort_cmps += other.sort_cmps;
        self.hash_ops += other.hash_ops;
        self.rows_materialized += other.rows_materialized;
        self.eval_units += other.eval_units;
        self.subquery_execs += other.subquery_execs;
    }
}

/// Optimizer cost estimate for the `opt` baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CostEstimate {
    /// Estimated total cost units (I/O-dominant System-R flavour).
    pub total_cost: f64,
    /// Estimated output cardinality.
    pub est_rows: f64,
}

impl CostEstimate {
    /// Feature vector for the `opt` linear-regression baseline.
    pub fn features(&self) -> [f64; 2] {
        [(1.0 + self.total_cost).ln(), (1.0 + self.est_rows).ln()]
    }
}

/// Default selectivities, straight out of the System-R paper's tradition.
const SEL_EQ: f64 = 0.05;
const SEL_RANGE: f64 = 0.30;
const SEL_LIKE: f64 = 0.25;
const SEL_IN: f64 = 0.20;
const SEL_OTHER: f64 = 0.33;
/// Join selectivity for an equi-join: 1 / max(card) approximated by a
/// constant over the product.
const SEL_JOIN: f64 = 1e-4;
/// Default cardinality for tables missing from the catalog.
const DEFAULT_CARD: f64 = 1000.0;

/// Estimate the execution cost of a statement against a catalog, over
/// the plan [`plan`] produces at `level` — the same plan the executor
/// will run at that level.
pub fn estimate_cost(stmt: &Statement, catalog: &Catalog, level: OptLevel) -> CostEstimate {
    match stmt {
        Statement::Select(q) => estimate_plan(&plan(q, catalog, level), catalog),
        Statement::Dml { query, table, .. } => {
            let mut est = query
                .as_ref()
                .map(|q| estimate_plan(&plan(q, catalog, level), catalog))
                .unwrap_or_default();
            if let Some(t) = table {
                let card = catalog.get(&t.canonical()).map(|t| t.row_count() as f64);
                est.total_cost += card.unwrap_or(DEFAULT_CARD);
            }
            est
        }
        Statement::Execute { .. } => CostEstimate {
            total_cost: 100.0,
            est_rows: 1.0,
        },
        Statement::Ddl { .. } | Statement::Procedural => CostEstimate {
            total_cost: 10.0,
            est_rows: 0.0,
        },
    }
}

/// Estimate a lowered/optimized plan. Public so experiments can compare
/// estimates across [`OptLevel`]s.
pub fn estimate_plan(plan: &QueryPlan, catalog: &Catalog) -> CostEstimate {
    // Per-item cardinalities and scan/join costs.
    let mut cost = 0.0;
    let mut cards: Vec<f64> = Vec::new();
    for item in &plan.items {
        let (card, item_cost) = estimate_node(item, catalog);
        cost += item_cost;
        cards.push(card);
    }

    // Pushed single-item predicates narrow their item before the folds.
    for (i, pred) in &plan.pushed {
        if let Some(card) = cards.get_mut(*i) {
            *card *= predicate_selectivity(pred);
        }
    }

    // Fold the comma list with the planned strategies.
    let mut card = cards.first().copied().unwrap_or(1.0);
    for (k, c) in cards.iter().enumerate().skip(1) {
        match plan.folds.get(k - 1) {
            Some(FoldStep::Hash { .. }) => {
                // Hash join: build + probe.
                cost += card + c;
                card = (card * c * SEL_JOIN).max(1.0);
            }
            // Cartesian product: every pair is visited.
            _ => {
                cost += card * c.max(1.0);
                card *= c.max(1.0);
            }
        }
    }

    // Residual selectivity.
    for pred in &plan.residual {
        card *= predicate_selectivity(pred);
    }
    card = card.max(0.0);

    // Grouping/aggregation collapses cardinality.
    match &plan.select {
        SelectOp::Aggregate { group_by, .. } if !group_by.is_empty() => {
            cost += card; // hash aggregation pass
            card = (card * 0.1).max(1.0).min(card.max(1.0));
        }
        SelectOp::Aggregate { .. } => {
            cost += card;
            card = 1.0;
        }
        SelectOp::Project { .. } => {}
    }

    if plan.distinct {
        cost += card;
        card *= 0.9;
    }

    if !plan.order_by.is_empty() && card > 1.0 {
        cost += card * card.log2().max(1.0);
    }

    if let Some(top) = plan.top {
        card = card.min(top as f64);
    }

    // NOTE deliberately absent: scalar-function CPU, correlated-subquery
    // re-execution, string-operation costs. See module docs.
    CostEstimate {
        total_cost: cost + card,
        est_rows: card,
    }
}

/// (cardinality, cost) of one FROM-item operator tree.
fn estimate_node(node: &LogicalPlan, catalog: &Catalog) -> (f64, f64) {
    match node {
        LogicalPlan::Scan { table, .. } => {
            let card = catalog
                .get(&table.canonical())
                .map(|t| t.row_count() as f64)
                .unwrap_or(DEFAULT_CARD);
            (card, card) // scan cost = cardinality
        }
        LogicalPlan::Subquery { plan, .. } => {
            let est = estimate_plan(plan, catalog);
            (est.est_rows, est.total_cost)
        }
        LogicalPlan::Filter { input, predicate } => {
            let (card, cost) = estimate_node(input, catalog);
            (card * predicate_selectivity(predicate), cost + card)
        }
        LogicalPlan::Join {
            left,
            right,
            on,
            strategy,
            ..
        } => {
            let (lc, lcost) = estimate_node(left, catalog);
            let (rc, rcost) = estimate_node(right, catalog);
            let mut cost = lcost + rcost;
            let card = match strategy {
                JoinStrategy::Hash { .. } => {
                    cost += lc + rc; // build + probe
                    (lc * rc * SEL_JOIN).max(1.0)
                }
                JoinStrategy::NestedLoop => {
                    cost += lc * rc.max(1.0); // every pair visited
                    match on {
                        Some(cond) => (lc * rc * predicate_selectivity(cond)).max(1.0),
                        None => lc * rc.max(1.0),
                    }
                }
            };
            (card, cost)
        }
    }
}

fn predicate_selectivity(e: &Expr) -> f64 {
    match e {
        Expr::Logical { left, and, right } => {
            let l = predicate_selectivity(left);
            let r = predicate_selectivity(right);
            if *and {
                l * r
            } else {
                (l + r - l * r).min(1.0)
            }
        }
        Expr::Unary {
            op: sqlan_sql::UnaryOp::Not,
            expr,
        } => 1.0 - predicate_selectivity(expr),
        Expr::Binary { op, .. } if op.is_comparison() => {
            if *op == sqlan_sql::Op::Eq {
                SEL_EQ
            } else if *op == sqlan_sql::Op::Neq {
                1.0 - SEL_EQ
            } else {
                SEL_RANGE
            }
        }
        Expr::Between { .. } => SEL_RANGE * SEL_RANGE * 4.0, // two bounded sides
        Expr::InList { list, .. } => (SEL_EQ * list.len() as f64).min(SEL_IN * 2.0),
        Expr::InSubquery { .. } => SEL_IN,
        Expr::Like { .. } => SEL_LIKE,
        Expr::IsNull { negated, .. } => {
            if *negated {
                0.95
            } else {
                0.05
            }
        }
        Expr::Exists { .. } => 0.5,
        _ => SEL_OTHER,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, ColumnSpec, TableSpec};
    use sqlan_sql::parse_script;

    fn cat() -> Catalog {
        Catalog::generate(
            &[
                TableSpec::new("big", 100_000).column("x", ColumnSpec::SeqId),
                TableSpec::new("small", 100).column("x", ColumnSpec::SeqId),
            ],
            1,
        )
    }

    fn est(sql: &str) -> CostEstimate {
        let s = parse_script(sql).unwrap();
        estimate_cost(&s.statements[0], &cat(), OptLevel::Default)
    }

    #[test]
    fn bigger_table_costs_more() {
        assert!(est("SELECT * FROM big").total_cost > est("SELECT * FROM small").total_cost);
    }

    #[test]
    fn predicates_reduce_estimated_rows() {
        let all = est("SELECT * FROM big");
        let eq = est("SELECT * FROM big WHERE x = 5");
        let range = est("SELECT * FROM big WHERE x > 5");
        assert!(eq.est_rows < range.est_rows);
        assert!(range.est_rows < all.est_rows);
    }

    #[test]
    fn join_costs_more_than_scan() {
        let scan = est("SELECT * FROM big");
        let join = est("SELECT * FROM big a INNER JOIN small b ON a.x = b.x");
        assert!(join.total_cost > scan.total_cost);
    }

    #[test]
    fn aggregation_collapses_rows() {
        let agg = est("SELECT count(*) FROM big");
        assert_eq!(agg.est_rows, 1.0);
    }

    #[test]
    fn top_caps_rows() {
        let t = est("SELECT TOP 10 x FROM big");
        assert!(t.est_rows <= 10.0);
    }

    #[test]
    fn unknown_table_uses_default_cardinality() {
        let e = est("SELECT * FROM nosuch");
        assert!(e.total_cost >= DEFAULT_CARD);
    }

    #[test]
    fn estimate_tracks_the_configured_optimizer() {
        // A cross-product plan (no rewrites) must cost more than the
        // hash-join plan the default level produces.
        let s = parse_script("SELECT * FROM big a, small b WHERE a.x = b.x").unwrap();
        let default = estimate_cost(&s.statements[0], &cat(), OptLevel::Default);
        let naive = estimate_cost(&s.statements[0], &cat(), OptLevel::None);
        assert!(
            naive.total_cost > default.total_cost * 10.0,
            "naive {} vs default {}",
            naive.total_cost,
            default.total_cost
        );
    }

    #[test]
    fn counter_units_accumulate() {
        let mut a = CostCounter {
            rows_scanned: 10,
            ..Default::default()
        };
        let b = CostCounter {
            fn_units: 5,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.units(), 10 + 5 * 4);
        assert!(a.cpu_seconds() > 0.0);
    }
}
