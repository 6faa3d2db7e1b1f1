//! Differential suite: the row and columnar engines must be
//! observationally identical — same rows **in the same order**, same
//! per-component [`CostCounter`] charges, same outcome labels — on every
//! statement, including failing and budget-aborted ones.
//!
//! This is the contract that lets the columnar engine be the default
//! without touching the golden label pin: the columnar success path is
//! charge-sum-identical, and a failing columnar operator is settled on
//! its row twin over the same input.

mod common;

use common::{catalog, corpus};
use sqlan_engine::{
    Catalog, ColumnSpec, CostCounter, Database, Engine, ExecCtx, ExecLimits, TableSpec,
};
use sqlan_sql::Statement;

fn dbs() -> (Database, Database) {
    let row = Database::new(catalog()).with_engine(Engine::Row);
    let col = Database::new(catalog()).with_engine(Engine::Columnar);
    (row, col)
}

/// Exact (ordered) result comparison: rendered rows + column names + the
/// full cost counter. Floats are compared through `{:?}` so bit-level
/// differences (and NaN) are visible.
fn run_exact(db: &Database, sql: &str) -> Result<(Vec<String>, String, CostCounter), String> {
    let script = sqlan_sql::parse_script(sql).expect("corpus must parse");
    let q = match &script.statements[0] {
        Statement::Select(q) => q,
        other => panic!("corpus must be SELECTs, got {other:?}"),
    };
    let mut counter = CostCounter::default();
    let rel = db.run_query(q, &mut counter).map_err(|e| e.to_string())?;
    let rows = rel
        .rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| format!("{v:?}"))
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    let cols = format!("{:?}", rel.cols);
    Ok((rows, cols, counter))
}

#[test]
fn corpus_rows_and_costs_identical_across_engines() {
    let (row, col) = dbs();
    for sql in corpus() {
        let a = run_exact(&row, &sql);
        let b = run_exact(&col, &sql);
        match (a, b) {
            (Ok((ra, ca, na)), Ok((rb, cb, nb))) => {
                assert_eq!(ra, rb, "row order/content diverged on: {sql}");
                assert_eq!(ca, cb, "output schema diverged on: {sql}");
                assert_eq!(na, nb, "cost counter diverged on: {sql}");
            }
            (a, b) => panic!("outcome diverged on: {sql}\n row: {a:?}\n col: {b:?}"),
        }
    }
}

#[test]
fn submit_outcomes_identical_across_engines_on_corpus() {
    let (row, col) = dbs();
    for sql in corpus() {
        let a = row.submit(&sql);
        let b = col.submit(&sql);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "submit outcome diverged on: {sql}"
        );
    }
}

/// Failing statements of every kind: runtime errors in each operator,
/// failures after an uncorrelated subquery ran, and statements the
/// portal rejects or denies.
const FAILING: &[&str] = &[
    "SELECT * FROM NoSuchTable",
    "SELECT nocolumn FROM Obj",
    "SELECT 1/0 FROM Obj",
    "SELECT id FROM Obj WHERE x / (x - x) > 1",
    "SELECT x FROM Obj, Spec", // ambiguous? no — x unique; use tag vs tag
    "SELECT id FROM Obj WHERE nosuch(x) > 0",
    "SELECT count(x) FROM Obj WHERE count(x) > 1", // aggregate in WHERE
    "SELECT id FROM Obj WHERE y > (SELECT y FROM Obj)", // scalar cardinality
    "SELECT o.id FROM Obj o WHERE o.x > 2 AND nocolumn = 1",
    // The failing operator first runs and caches an uncorrelated
    // subquery: its row twin must run that subquery again and charge
    // it, not reuse the failed attempt's cache entry.
    "SELECT id FROM Obj WHERE x > (SELECT avg(z) FROM Spec) + nocolumn",
    "SELECT id, (SELECT max(z) FROM Spec) + nocolumn FROM Obj",
    "SELECT id FROM Obj WHERE x IN (SELECT obj_id FROM Spec) OR y / (x - x) > 1",
    "SELECT id FROM Obj ORDER BY (SELECT max(z) FROM Spec) + nocolumn",
    "SELECT kind, count(*) FROM Obj GROUP BY kind \
     HAVING count(*) > (SELECT count(*) FROM Tiny) + nocolumn",
    "SELEC syntax error",
    "UPDATE Obj SET x = 1",
    "DROP TABLE Obj",
    "EXEC dbo.blah 1",
];

/// Failing statements: the columnar engine settles the failing operator
/// on its row twin, so the abort-point cost counter (a label!) must match
/// exactly.
#[test]
fn error_outcomes_identical_across_engines() {
    let (row, col) = dbs();
    for sql in FAILING {
        let a = row.submit(sql);
        let b = col.submit(sql);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "error outcome diverged on: {sql}"
        );
    }
}

/// EXPLAIN ANALYZE accounts for every unit: on both engines, the
/// per-operator charges of a statement's root plan add up to its
/// [`CostCounter::units`], whether it succeeds or fails (a failing
/// operator is listed with what it charged before aborting).
#[test]
fn analyzed_operator_units_sum_to_statement_units_on_both_engines() {
    let (row, col) = dbs();
    let statements = corpus()
        .into_iter()
        .chain(FAILING.iter().map(|s| s.to_string()));
    for sql in statements {
        let Ok(script) = sqlan_sql::parse_script(&sql) else {
            continue; // rejected before planning: no operators
        };
        for stmt in &script.statements {
            let Statement::Select(q) = stmt else {
                continue; // no operator pipeline
            };
            for db in [&row, &col] {
                let mut label = CostCounter::default();
                let _ = db.run_query(q, &mut label);
                let mut ctx = ExecCtx::new(&db.catalog, &db.fns, db.limits)
                    .with_engine(db.engine)
                    .analyzed();
                let _ = ctx.exec_query(q, &[]);
                let observed: u64 = ctx.take_observations().iter().map(|s| s.units).sum();
                assert_eq!(ctx.counter.units(), label.units(), "{sql}");
                assert_eq!(
                    observed,
                    label.units(),
                    "operator units do not add up on {:?}: {sql}",
                    db.engine
                );
            }
        }
    }
}

/// Resource-budget aborts carry the counter at the abort point; the
/// columnar engine must reproduce the row engine's abort labels.
#[test]
fn budget_abort_outcomes_identical_across_engines() {
    let tight = ExecLimits {
        max_rows: 500,
        max_units: 20_000,
    };
    let row = Database::new(catalog())
        .with_engine(Engine::Row)
        .with_limits(tight);
    let col = Database::new(catalog())
        .with_engine(Engine::Columnar)
        .with_limits(tight);
    let heavy = [
        "SELECT * FROM Obj",                     // over max_rows? 240 rows, units
        "SELECT o.id, t.tid FROM Obj o, Tiny t", // cross join blowup
        "SELECT o.id FROM Obj o, Spec s WHERE o.id = s.obj_id", // hash join
        "SELECT count(*) FROM Obj WHERE sqrt(x) < 100",
        "SELECT o.id FROM Obj o WHERE EXISTS \
         (SELECT 1 FROM Spec s WHERE s.obj_id = o.id)",
    ];
    let mut aborted = 0;
    for sql in heavy {
        let a = row.submit(sql);
        let b = col.submit(sql);
        if a.error_message.is_some() {
            aborted += 1;
        }
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "budget outcome diverged on: {sql}"
        );
    }
    assert!(aborted >= 1, "expected at least one budget abort");
}

/// A catalog with NULL-bearing intermediates (outer joins) and strings:
/// exercises the degraded `Values` column paths.
#[test]
fn outer_join_null_padding_identical() {
    let specs = vec![
        TableSpec::new("L", 40)
            .column("id", ColumnSpec::SeqId)
            .column("s", ColumnSpec::StrChoice(&["p", "q"])),
        TableSpec::new("R", 10)
            .column("lid", ColumnSpec::IntUniform(0, 80))
            .column("w", ColumnSpec::Uniform(0.0, 1.0)),
    ];
    let row = Database::new(Catalog::generate(&specs, 5)).with_engine(Engine::Row);
    let col = Database::new(Catalog::generate(&specs, 5)).with_engine(Engine::Columnar);
    let queries = [
        "SELECT l.id, r.w FROM L l LEFT JOIN R r ON l.id = r.lid ORDER BY l.id",
        "SELECT l.s, r.w FROM L l RIGHT JOIN R r ON l.id = r.lid",
        "SELECT l.id, r.lid FROM L l FULL JOIN R r ON l.id = r.lid",
        // NULL-padded columns flowing into aggregation and DISTINCT.
        "SELECT count(r.lid) FROM L l LEFT JOIN R r ON l.id = r.lid",
        "SELECT DISTINCT r.lid FROM L l LEFT JOIN R r ON l.id = r.lid",
        "SELECT l.id FROM L l LEFT JOIN R r ON l.id = r.lid WHERE r.w IS NULL ORDER BY l.id",
    ];
    for sql in queries {
        let a = run_exact(&row, sql);
        let b = run_exact(&col, sql);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "outer join diverged on: {sql}"
        );
    }
}

/// ORDER BY keys that fail projected-scope resolution *after charging*
/// (correlated subqueries over non-projected source columns): the row
/// engine repeats the failed projected attempt per row, which a
/// vectorized fallback cannot reproduce — so the columnar sort must fail
/// and be settled on its row twin instead of silently falling back.
/// Cheap resolution-only fallbacks (bare source columns) stay columnar.
#[test]
fn order_by_source_fallback_costs_identical() {
    let (row, col) = dbs();
    let queries = [
        // Resolution-only fallback: no charges during the failed attempt.
        "SELECT id FROM Obj ORDER BY y",
        "SELECT o.id FROM Obj o WHERE o.x > 5 ORDER BY o.y DESC",
        // Charging fallback: the projected-scope attempt executes a
        // correlated subquery (subquery_execs, scans) before hitting the
        // unknown column.
        "SELECT id FROM Obj ORDER BY (SELECT max(s.z) FROM Spec s WHERE s.obj_id = x)",
        "SELECT tid FROM Tiny ORDER BY (SELECT count(*) FROM Spec s WHERE s.obj_id = grp), tid",
    ];
    for sql in queries {
        let a = run_exact(&row, sql);
        let b = run_exact(&col, sql);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "order-by fallback diverged on: {sql}"
        );
    }
}
