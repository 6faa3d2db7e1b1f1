//! Property-based tests for the engine: totality on arbitrary input,
//! determinism, algebraic invariants of execution, and row/columnar
//! engine equivalence on randomized queries.

use proptest::prelude::*;
use sqlan_engine::{Catalog, ColumnSpec, CostCounter, Database, Engine, ErrorClass, TableSpec};

fn db() -> Database {
    let specs = vec![
        TableSpec::new("T", 300)
            .column("id", ColumnSpec::SeqId)
            .column("x", ColumnSpec::IntUniform(0, 50))
            .column("y", ColumnSpec::Uniform(0.0, 100.0))
            .column("k", ColumnSpec::Categorical(5))
            .column("s", ColumnSpec::StrChoice(&["a", "b", "c"])),
        TableSpec::new("U", 80)
            .column("tid", ColumnSpec::IntUniform(0, 299))
            .column("w", ColumnSpec::Uniform(0.0, 10.0)),
    ];
    Database::new(Catalog::generate(&specs, 7))
}

proptest! {
    /// Submitting arbitrary text never panics and classifies it somewhere.
    #[test]
    fn submit_total(input in ".{0,300}") {
        let out = db().submit(&input);
        // Error queries must carry answer_size -1, successes ≥ 0.
        match out.error_class {
            ErrorClass::Success => prop_assert!(out.answer_size >= 0),
            _ => prop_assert_eq!(out.answer_size, -1),
        }
        prop_assert!(out.cpu_seconds >= 0.0);
    }

    /// Execution is deterministic: two runs give identical outcomes.
    #[test]
    fn submit_deterministic(lo in 0i64..40, hi in 0i64..60, k in 0i64..5) {
        let sql = format!(
            "SELECT k, count(*) FROM T WHERE x BETWEEN {lo} AND {hi} AND k <> {k} GROUP BY k"
        );
        let d = db();
        prop_assert_eq!(d.submit(&sql), d.submit(&sql));
    }

    /// Adding a conjunct can only shrink the answer (monotonicity).
    #[test]
    fn conjuncts_shrink_answers(a in 0i64..50, b in 0i64..5) {
        let d = db();
        let base = d.submit(&format!("SELECT id FROM T WHERE x >= {a}"));
        let narrowed = d.submit(&format!("SELECT id FROM T WHERE x >= {a} AND k = {b}"));
        prop_assert_eq!(base.error_class, ErrorClass::Success);
        prop_assert!(narrowed.answer_size <= base.answer_size);
    }

    /// OR is at least as large as either disjunct.
    #[test]
    fn disjuncts_grow_answers(a in 0i64..50, b in 0i64..50) {
        let d = db();
        let left = d.submit(&format!("SELECT id FROM T WHERE x = {a}")).answer_size;
        let either =
            d.submit(&format!("SELECT id FROM T WHERE x = {a} OR x = {b}")).answer_size;
        prop_assert!(either >= left);
    }

    /// COUNT(*) equals the answer size of the unaggregated query.
    #[test]
    fn count_matches_row_count(a in 0i64..50) {
        let d = db();
        let rows = d.submit(&format!("SELECT id FROM T WHERE x < {a}")).answer_size;
        let q = format!("SELECT count(*) AS n FROM T WHERE x < {a}");
        let script = sqlan_sql::parse_script(&q).unwrap();
        let mut counter = sqlan_engine::CostCounter::default();
        let n = match &script.statements[0] {
            sqlan_sql::Statement::Select(q) => {
                d.run_query(q, &mut counter).unwrap().rows[0][0].as_i64().unwrap()
            }
            _ => unreachable!(),
        };
        prop_assert_eq!(rows, n);
    }

    /// TOP n caps the answer at n.
    #[test]
    fn top_caps(n in 0u64..500) {
        let d = db();
        let out = d.submit(&format!("SELECT TOP {n} id FROM T ORDER BY y"));
        prop_assert!(out.answer_size <= n as i64);
        prop_assert!(out.answer_size <= 300);
    }

    /// Comma-join with equality equals explicit INNER JOIN.
    #[test]
    fn comma_join_equals_inner_join(c in 0i64..5) {
        let d = db();
        let comma = d.submit(&format!(
            "SELECT u.w FROM U u, T t WHERE u.tid = t.id AND t.k = {c}"
        ));
        let inner = d.submit(&format!(
            "SELECT u.w FROM U u INNER JOIN T t ON u.tid = t.id WHERE t.k = {c}"
        ));
        prop_assert_eq!(comma.answer_size, inner.answer_size);
    }

    /// DISTINCT never increases cardinality.
    #[test]
    fn distinct_shrinks(_x in 0..1i32) {
        let d = db();
        let all = d.submit("SELECT k FROM T").answer_size;
        let distinct = d.submit("SELECT DISTINCT k FROM T").answer_size;
        prop_assert!(distinct <= all);
    }

    /// ORDER BY permutes, never changes cardinality.
    #[test]
    fn order_by_preserves_cardinality(desc in any::<bool>()) {
        let d = db();
        let dir = if desc { "DESC" } else { "ASC" };
        let plain = d.submit("SELECT id FROM T WHERE x > 10").answer_size;
        let sorted =
            d.submit(&format!("SELECT id FROM T WHERE x > 10 ORDER BY y {dir}")).answer_size;
        prop_assert_eq!(plain, sorted);
    }

    /// CPU time grows monotonically with scanned volume: scanning both
    /// tables costs at least as much as the smaller one alone.
    #[test]
    fn cpu_reflects_volume(_x in 0..1i32) {
        let d = db();
        let small = d.submit("SELECT * FROM U").cpu_seconds;
        let joined = d.submit("SELECT * FROM U u INNER JOIN T t ON u.tid = t.id").cpu_seconds;
        prop_assert!(joined > small);
    }

    /// Differential property: the row and columnar engines return the
    /// same rows (in order) and charge the identical per-component
    /// `CostCounter` on randomized queries across every operator shape.
    #[test]
    fn engines_agree_on_random_queries(
        a in 0i64..50,
        b in 0i64..5,
        top in 1u64..40,
        desc in any::<bool>(),
        shape in 0usize..8,
    ) {
        let dir = if desc { "DESC" } else { "ASC" };
        let sql = match shape {
            0 => format!("SELECT id, x + {b} FROM T WHERE x >= {a} AND k <> {b}"),
            1 => format!(
                "SELECT k, count(*) AS n, avg(y) FROM T WHERE x < {a} \
                 GROUP BY k HAVING count(*) > {b} ORDER BY k"
            ),
            2 => format!(
                "SELECT TOP {top} t.id, u.w FROM U u, T t \
                 WHERE u.tid = t.id AND t.k = {b} ORDER BY t.id {dir}"
            ),
            3 => format!("SELECT DISTINCT k FROM T WHERE x BETWEEN {b} AND {a} ORDER BY k {dir}"),
            4 => format!(
                "SELECT id FROM T WHERE y > (SELECT avg(y) FROM T WHERE k = {b}) ORDER BY id"
            ),
            5 => format!(
                "SELECT t.id FROM T t LEFT JOIN U u ON t.id = u.tid \
                 WHERE t.x < {a} ORDER BY t.id {dir}"
            ),
            6 => format!(
                "SELECT t.id FROM T t WHERE EXISTS \
                 (SELECT 1 FROM U u WHERE u.tid = t.id AND u.w > {b}) ORDER BY t.id"
            ),
            _ => format!(
                "SELECT CASE WHEN x > {a} THEN 'hi' ELSE s END AS band, abs(x - {a}) \
                 FROM T WHERE k IN ({b}, {a} % 5) ORDER BY id {dir}"
            ),
        };
        let script = sqlan_sql::parse_script(&sql).expect("generated SQL parses");
        let q = match &script.statements[0] {
            sqlan_sql::Statement::Select(q) => q.clone(),
            _ => unreachable!(),
        };
        let row_db = db().with_engine(Engine::Row);
        let col_db = db().with_engine(Engine::Columnar);
        let mut row_counter = CostCounter::default();
        let mut col_counter = CostCounter::default();
        let row_rel = row_db.run_query(&q, &mut row_counter).expect("row engine runs");
        let col_rel = col_db.run_query(&q, &mut col_counter).expect("columnar engine runs");
        prop_assert_eq!(
            format!("{:?}", row_rel.rows),
            format!("{:?}", col_rel.rows),
            "rows diverged on: {}",
            sql
        );
        prop_assert_eq!(row_counter, col_counter, "cost diverged on: {}", sql);
    }

    /// Differential totality: both engines classify arbitrary text with
    /// byte-identical outcome labels (errors included — the columnar
    /// engine settles a failing operator on its row twin).
    #[test]
    fn engines_agree_on_arbitrary_text(input in ".{0,300}") {
        let a = db().with_engine(Engine::Row).submit(&input);
        let b = db().with_engine(Engine::Columnar).submit(&input);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
