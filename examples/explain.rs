//! EXPLAIN: print the plan of a few SDSS-style queries at both
//! optimization levels — the naive lowered plan (`None`) and the plan
//! labels are computed from (`Default`: predicate pushdown, then equi-join
//! detection) — then EXPLAIN ANALYZE them: execute each plan and annotate
//! it with per-operator observed row counts and cost-unit charges (on the
//! default columnar engine; an operator that fails is listed with what it
//! charged, marked `(failed)`), and with how many failed operators were
//! settled on their row-engine twins.
//!
//! ```sh
//! cargo run --release --example explain
//! # or explain your own statement:
//! cargo run --release --example explain -- "SELECT TOP 5 * FROM PhotoObj ORDER BY ra"
//! ```

use sqlan_engine::OptLevel;
use sqlan_workload::{sdss_database, Scale, SdssConfig};

fn main() {
    let cfg = SdssConfig {
        n_sessions: 1,
        scale: Scale(0.01),
        seed: 7,
    };
    let db = sdss_database(cfg);

    let args: Vec<String> = std::env::args().skip(1).collect();
    let queries: Vec<String> = if args.is_empty() {
        vec![
            // The comma-join shape that dominates SDSS logs: pushdown +
            // equi-join detection turn it from quadratic into linear.
            "SELECT s.z, p.ra FROM SpecObj s, PhotoObj p \
             WHERE s.bestobjid = p.objid AND p.type = 3 AND s.z > 0.5"
                .to_string(),
            // Aggregation over an explicit join, with HAVING and TOP.
            "SELECT TOP 3 p.type, count(*) AS n FROM PhotoObj p \
             INNER JOIN SpecObj s ON p.objid = s.bestobjid \
             GROUP BY p.type HAVING count(*) > 5 ORDER BY n DESC"
                .to_string(),
            // Derived table plus a correlated subquery.
            "SELECT d.type FROM (SELECT type, avg(ra) AS r FROM PhotoObj GROUP BY type) d \
             WHERE d.r > (SELECT avg(ra) FROM PhotoObj)"
                .to_string(),
            // The erroring shape common in SDSS logs: a correlated EXISTS
            // filter, then an unknown column. The projection fails, is
            // settled on its row twin (`-- row twins: 1`) and is listed
            // with the units it charged before aborting.
            "SELECT p.objid, p.nocolumn FROM PhotoObj p WHERE EXISTS \
             (SELECT 1 FROM SpecObj s WHERE s.bestobjid = p.objid)"
                .to_string(),
        ]
    } else {
        args
    };

    for sql in &queries {
        println!("=== {sql}\n");
        for level in [OptLevel::None, OptLevel::Default] {
            let leveled = db.clone().with_opt_level(level);
            println!("--- {level:?}");
            match leveled.explain(sql) {
                Ok(plan) => println!("{plan}"),
                Err(e) => println!("rejected: {e}\n"),
            }
        }
        // EXPLAIN ANALYZE at the default level: plan + observed
        // per-operator rows and cost charges from a real execution.
        println!("--- ANALYZE (engine={:?})", db.engine);
        match db.explain_analyze(sql) {
            Ok(report) => println!("{report}"),
            Err(e) => println!("rejected: {e}\n"),
        }
    }
}
