//! Shared fixtures for the engine integration suites: the equivalence
//! catalog and the 112-query corpus exercising every operator. Used by
//! `optimizer_equivalence.rs` (pass toggling) and `concurrent_readers.rs`
//! (shared-`Database` thread safety).

#![allow(dead_code)] // each test binary uses a subset

use sqlan_engine::{Catalog, CostCounter, Database};
use sqlan_sql::Statement;

/// Small catalog so even cross-product plans stay under the row budget.
pub fn catalog() -> Catalog {
    sqlan_engine::testkit::equivalence_catalog()
}

/// The 112-query corpus exercising every operator — see
/// [`sqlan_engine::testkit::equivalence_corpus`].
pub fn corpus() -> Vec<String> {
    sqlan_engine::testkit::equivalence_corpus()
}

/// Run one query; canonicalize the result as an order-insensitive
/// multiset of row renderings.
pub fn run(db: &Database, sql: &str) -> Result<Vec<String>, String> {
    run_with_cost(db, sql).map(|(rows, _)| rows)
}

/// Every per-component cost counter value, for exact comparison.
pub type CostBreakdown = (u64, u64, u64, u64, u64, u64, u64);

/// Run one query, returning canonicalized rows plus the full cost-counter
/// breakdown (identical inputs must charge identical costs, even across
/// threads).
pub fn run_with_cost(db: &Database, sql: &str) -> Result<(Vec<String>, CostBreakdown), String> {
    let script = sqlan_sql::parse_script(sql).expect("corpus must parse");
    let q = match &script.statements[0] {
        Statement::Select(q) => q,
        other => panic!("corpus must be SELECTs, got {other:?}"),
    };
    let mut counter = CostCounter::default();
    let rel = db.run_query(q, &mut counter).map_err(|e| e.to_string())?;
    let mut rows: Vec<String> = rel
        .rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| format!("{v:?}"))
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    Ok((
        rows,
        (
            counter.rows_scanned,
            counter.fn_units,
            counter.sort_cmps,
            counter.hash_ops,
            counter.rows_materialized,
            counter.eval_units,
            counter.subquery_execs,
        ),
    ))
}
