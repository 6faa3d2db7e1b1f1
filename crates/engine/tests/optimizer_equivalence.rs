//! Optimizer-equivalence suite: planning never changes rows.
//!
//! For a corpus of generated queries, the naive lowered plan
//! ([`OptLevel::None`]) must return the same rows as the optimized plan
//! ([`OptLevel::Default`]: predicate pushdown, then equi-join detection),
//! compared order-insensitively. The rewrites may change *how much work*
//! execution does (that is their job), but never *what* a query returns.

mod common;

use common::{catalog, corpus, run};

use sqlan_engine::{CostCounter, Database, ExecLimits, OptLevel};
use sqlan_sql::Statement;

#[test]
fn every_pass_configuration_returns_identical_rows() {
    let cat = catalog();
    // Cross-product folds materialize up to |Obj| × |Spec| × |Tiny| rows;
    // raise the budget so the naive plan can finish and be compared.
    let limits = ExecLimits {
        max_rows: 2_000_000,
        max_units: u64::MAX,
    };
    let optimized = Database::new(cat.clone()).with_limits(limits);
    let naive = Database::new(cat)
        .with_limits(limits)
        .with_opt_level(OptLevel::None);
    for sql in corpus() {
        let want = run(&optimized, &sql);
        assert!(
            want.is_ok(),
            "corpus query must succeed at default level: {want:?} — {sql}"
        );
        assert_eq!(
            run(&naive, &sql),
            want,
            "results diverged between the naive and the optimized plan\nquery: {sql}"
        );
    }
}

/// The optimizer's whole point: the default level must make the classic
/// SDSS comma-join linear. Compare cost counters, not wall time.
#[test]
fn pushdown_and_hash_join_reduce_measured_cost() {
    let cat = catalog();
    let limits = ExecLimits {
        max_rows: 2_000_000,
        max_units: u64::MAX,
    };
    let sql = "SELECT o.id, s.z FROM Obj o, Spec s WHERE o.id = s.obj_id AND o.x > 5";
    let script = sqlan_sql::parse_script(sql).unwrap();
    let q = match &script.statements[0] {
        Statement::Select(q) => q.clone(),
        _ => unreachable!(),
    };

    let mut naive = CostCounter::default();
    Database::new(cat.clone())
        .with_limits(limits)
        .with_opt_level(OptLevel::None)
        .run_query(&q, &mut naive)
        .unwrap();

    let mut opt = CostCounter::default();
    Database::new(cat)
        .with_limits(limits)
        .with_opt_level(OptLevel::Default)
        .run_query(&q, &mut opt)
        .unwrap();

    assert!(
        opt.units() * 10 < naive.units(),
        "the default level should cut cost by >10x: naive {} vs optimized {}",
        naive.units(),
        opt.units()
    );
}
