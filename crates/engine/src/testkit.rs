//! Shared differential-testing fixtures: the equivalence catalog and the
//! 112-query corpus exercising every operator.
//!
//! Used by the engine's integration suites (`optimizer_equivalence`,
//! `concurrent_readers`, `engine_differential`), so every suite checks
//! the exact same workload. Not part of the engine's semantic API.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::catalog::{Catalog, ColumnSpec, TableSpec};

/// Small catalog so even cross-product plans stay under the row budget.
pub fn equivalence_catalog() -> Catalog {
    let specs = vec![
        TableSpec::new("Obj", 240)
            .column("id", ColumnSpec::SeqId)
            .column("x", ColumnSpec::IntUniform(0, 40))
            .column("y", ColumnSpec::Uniform(0.0, 100.0))
            .column("kind", ColumnSpec::Categorical(5))
            .column("tag", ColumnSpec::StrChoice(&["a", "b", "c"])),
        TableSpec::new("Spec", 90)
            .column("sid", ColumnSpec::SeqId)
            .column("obj_id", ColumnSpec::IntUniform(0, 239))
            .column("z", ColumnSpec::Uniform(0.0, 4.0)),
        TableSpec::new("Tiny", 25)
            .column("tid", ColumnSpec::SeqId)
            .column("grp", ColumnSpec::Categorical(3)),
    ];
    Catalog::generate(&specs, 99)
}

/// A corpus exercising every operator: comma joins, explicit joins of all
/// kinds, pushable and residual predicates, aggregates, HAVING, DISTINCT,
/// ORDER BY (on unique keys, so ties cannot make TOP ambiguous), TOP,
/// derived tables, and correlated + uncorrelated subqueries.
pub fn equivalence_corpus() -> Vec<String> {
    let mut qs: Vec<String> = vec![
        "SELECT * FROM Obj".into(),
        "SELECT id, x + 1 AS x1 FROM Obj WHERE x > 10 AND kind = 2".into(),
        "SELECT o.id, s.z FROM Obj o, Spec s WHERE o.id = s.obj_id AND o.x < 30".into(),
        "SELECT o.id FROM Obj o, Spec s, Tiny t \
         WHERE o.id = s.obj_id AND t.grp = o.kind AND s.z > 1.0"
            .into(),
        "SELECT o.id, s.sid FROM Obj o INNER JOIN Spec s ON o.id = s.obj_id".into(),
        "SELECT o.id, s.sid FROM Obj o LEFT JOIN Spec s ON o.id = s.obj_id".into(),
        "SELECT o.id, s.sid FROM Obj o RIGHT JOIN Spec s ON o.id = s.obj_id".into(),
        "SELECT o.id, s.sid FROM Obj o FULL JOIN Spec s ON o.id = s.obj_id".into(),
        "SELECT t.tid, o.id FROM Tiny t CROSS JOIN Obj o WHERE o.x = t.tid".into(),
        "SELECT o.id FROM Obj o INNER JOIN Spec s ON o.id = s.obj_id AND s.z > 2.0".into(),
        "SELECT kind, count(*) AS n, avg(y) FROM Obj GROUP BY kind \
         HAVING count(*) > 10 ORDER BY n DESC, kind"
            .into(),
        "SELECT count(*) FROM Obj WHERE 2 + 3 * 4 < x".into(),
        "SELECT DISTINCT kind FROM Obj ORDER BY kind".into(),
        "SELECT TOP 9 id FROM Obj ORDER BY id DESC".into(),
        "SELECT d.kind FROM (SELECT kind, count(*) AS n FROM Obj GROUP BY kind) d \
         WHERE d.n > 20 ORDER BY d.kind"
            .into(),
        "SELECT id FROM Obj WHERE y > (SELECT avg(y) FROM Obj) ORDER BY id".into(),
        "SELECT sid FROM Spec WHERE obj_id IN (SELECT id FROM Obj WHERE kind = 1)".into(),
        "SELECT o.id FROM Obj o WHERE EXISTS \
         (SELECT 1 FROM Spec s WHERE s.obj_id = o.id AND s.z > o.x / 20)"
            .into(),
        "SELECT tag, x * 2 - 1 FROM Obj WHERE x BETWEEN 5 AND 25 AND tag LIKE '%a%'".into(),
        "SELECT CASE WHEN x > 20 THEN 'hi' ELSE 'lo' END AS band, count(*) \
         FROM Obj GROUP BY CASE WHEN x > 20 THEN 'hi' ELSE 'lo' END ORDER BY band"
            .into(),
        "SELECT 1 + 1".into(),
        "SELECT o.kind FROM Obj o, Tiny t WHERE o.kind = t.grp AND t.tid < 10".into(),
    ];
    // Seeded parameterized variants: predicates at varying selectivities
    // over all join shapes.
    let mut rng = StdRng::seed_from_u64(0xE0);
    for _ in 0..30 {
        let a = rng.gen_range(0..40);
        let b = rng.gen_range(0..5);
        let z = rng.gen_range(0.0..4.0);
        qs.push(format!(
            "SELECT o.id, s.z FROM Obj o, Spec s \
             WHERE s.obj_id = o.id AND o.x >= {a} AND s.z < {z:.3}"
        ));
        qs.push(format!(
            "SELECT kind, count(*) FROM Obj WHERE x < {a} AND kind <> {b} \
             GROUP BY kind ORDER BY kind"
        ));
        qs.push(format!(
            "SELECT o.id FROM Obj o LEFT JOIN Spec s ON o.id = s.obj_id \
             WHERE o.kind = {b} ORDER BY o.id"
        ));
    }
    qs
}
