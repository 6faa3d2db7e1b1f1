//! Fresh-vs-cached differential suite for the template plan cache.
//!
//! The cache's correctness contract: `submit` with the cache on is
//! observationally identical to `submit` with the cache off — same error
//! class, same answer size, same deterministic CPU seconds, same error
//! message — for every statement, under any interleaving of hits and
//! misses, at any capacity, from any number of threads.

mod common;

use common::{catalog, corpus};
use proptest::prelude::*;
use sqlan_engine::{Database, ErrorClass, ExecLimits, OptLevel, QueryOutcome};

/// Budget generous enough that every corpus query completes (same as the
/// optimizer-equivalence suite).
fn limits() -> ExecLimits {
    ExecLimits {
        max_rows: 2_000_000,
        max_units: u64::MAX,
    }
}

/// A database with the template cache at the given capacity (0 = off).
fn db_cached(capacity: usize) -> Database {
    Database::new(catalog())
        .with_limits(limits())
        .with_plan_cache(capacity)
}

#[track_caller]
fn assert_same(cached: &QueryOutcome, fresh: &QueryOutcome, sql: &str) {
    assert_eq!(cached, fresh, "cached submit diverged on: {sql}");
}

#[test]
fn corpus_outcomes_identical_cached_vs_fresh() {
    let cached = db_cached(1024);
    let fresh = db_cached(0);
    // Two passes: the first populates (misses), the second hits.
    for pass in 0..2 {
        for sql in corpus() {
            let c = cached.submit(&sql);
            let f = fresh.submit(&sql);
            assert_same(&c, &f, &format!("[pass {pass}] {sql}"));
        }
    }
    let stats = cached.plan_cache_stats().expect("cache is on");
    assert!(stats.hits > 0, "second pass must hit: {stats:?}");
    assert!(fresh.plan_cache_stats().is_none(), "capacity 0 disables");
}

#[test]
fn literal_perturbations_share_one_template() {
    let cached = db_cached(64);
    let fresh = db_cached(0);
    let instances = [
        "SELECT x, y FROM Obj WHERE kind = 1 AND x < 0.25",
        "SELECT x, y FROM Obj WHERE kind = 4 AND x < 0.75",
        // Whitespace, comments, and *keyword* case are template-invariant
        // (identifier spelling is part of the template, like the lexer's
        // ident tokens).
        "select  x ,  y /* c */  from Obj WHERE kind = 2 and x < 0.5",
        "SELECT x, y FROM Obj WHERE kind = 0x2 AND x < 99",
    ];
    for sql in instances {
        assert_same(&cached.submit(sql), &fresh.submit(sql), sql);
    }
    let stats = cached.plan_cache_stats().unwrap();
    // Hex literals fingerprint into a distinct slot kind (they carry an
    // exactness caveat), so the first three share one template and the
    // fourth gets its own: 2 misses, 2 hits.
    assert_eq!(stats.misses, 2, "{stats:?}");
    assert_eq!(stats.hits, 2, "{stats:?}");
}

#[test]
fn irregular_statements_fall_back_identically() {
    let cached = db_cached(64);
    let fresh = db_cached(0);
    let weird = [
        // Parse error (severe) — error message embeds literal text.
        "SELEC * FROMM Obj",
        "show me everything brighter than 20",
        // Unterminated literal (severe, portal-level).
        "SELECT * FROM Obj WHERE tag = 'unterminated",
        // Runtime errors (non-severe).
        "SELECT nosuchcol FROM Obj",
        "SELECT * FROM NoSuchTable WHERE id = 3",
        "SELECT 1/0 FROM Obj",
        // Non-SELECT statements.
        "EXEC dbo.spFindNeighbors 1, 2",
        "EXEC dbo.mystery 9",
        "DROP TABLE mydb.results",
        "DROP TABLE Obj",
        "UPDATE mydb.t SET a = 1 WHERE b > 2",
        "INSERT INTO mydb.t SELECT id FROM Obj WHERE id < 10",
        // Multi-statement script: last answer wins, shared counter.
        "SELECT id FROM Obj WHERE id < 5; SELECT x FROM Obj WHERE id < 100",
        // Multi-statement with a mid-script error.
        "SELECT id FROM Obj WHERE id < 5; SELECT nope FROM Obj; SELECT 1",
        "",
    ];
    for pass in 0..2 {
        for sql in weird {
            let c = cached.submit(sql);
            let f = fresh.submit(sql);
            assert_same(&c, &f, &format!("[pass {pass}] {sql}"));
        }
    }
}

#[test]
fn pollution_interleavings_stay_correct() {
    // Adversarial interleaving: templates alternate, literal values
    // recur across templates, and the same text repeats mid-stream.
    let cached = db_cached(64);
    let fresh = db_cached(0);
    let stream = [
        "SELECT id FROM Obj WHERE x < 0.5",
        "SELECT id FROM Obj WHERE y < 0.5",
        "SELECT id FROM Obj WHERE x < 0.1",
        "SELECT id FROM Obj WHERE x < 0.5",
        "SELECT count(*) FROM Spec WHERE z > 1.5",
        "SELECT id FROM Obj WHERE y < 0.1",
        "SELECT count(*) FROM Spec WHERE z > 0.5",
        "SELECT id FROM Obj WHERE x < 0.9",
        "SELECT id, tag FROM Obj WHERE tag = 'obj1'",
        "SELECT id, tag FROM Obj WHERE tag = 'obj2'",
        "SELECT id FROM Obj WHERE x < 0.5",
    ];
    for sql in stream {
        assert_same(&cached.submit(sql), &fresh.submit(sql), sql);
    }
}

#[test]
fn tiny_capacity_evicts_but_never_corrupts() {
    let cached = db_cached(2);
    let fresh = db_cached(0);
    // Far more templates than capacity: constant eviction churn.
    for round in 0..3 {
        for sql in corpus() {
            let c = cached.submit(&sql);
            let f = fresh.submit(&sql);
            assert_same(&c, &f, &format!("[round {round}] {sql}"));
        }
    }
    let stats = cached.plan_cache_stats().unwrap();
    assert!(
        stats.entries <= 8,
        "capacity 2 rounds up to one entry per shard at most: {stats:?}"
    );
}

#[test]
fn plan_cache_is_on_at_every_level_unless_capacity_is_zero() {
    for level in [OptLevel::None, OptLevel::Default] {
        let db = Database::new(catalog())
            .with_limits(limits())
            .with_opt_level(level);
        assert!(db.plan_cache_stats().is_some(), "{level:?}: cache off");
        assert!(db.clone().with_plan_cache(0).plan_cache_stats().is_none());
        // A repeated template hits at either level, and a hit returns
        // what the fresh path returns.
        let fresh = db.clone().with_plan_cache(0);
        for x in [3, 17] {
            let sql = format!("SELECT count(*) FROM Obj WHERE kind = 1 + {x}");
            let out = db.submit(&sql);
            assert_eq!(out.error_class, ErrorClass::Success);
            assert_same(&out, &fresh.submit(&sql), &sql);
        }
        assert_eq!(db.plan_cache_stats().unwrap().hits, 1, "{level:?}");
    }
}

#[test]
fn shared_database_hits_from_many_threads() {
    let reference: Vec<QueryOutcome> = {
        let fresh = db_cached(0);
        corpus().iter().map(|sql| fresh.submit(sql)).collect()
    };
    for threads in [1usize, 3, 8] {
        let cached = db_cached(1024);
        let queries = corpus();
        for round in 0..2 {
            let pool = sqlan_par::Pool::new(threads);
            let outcomes: Vec<QueryOutcome> = pool.par_map(&queries, |sql| cached.submit(sql));
            for (i, (got, want)) in outcomes.iter().zip(&reference).enumerate() {
                assert_eq!(
                    got, want,
                    "threads={threads} round={round} diverged on: {}",
                    queries[i]
                );
            }
        }
        let stats = cached.plan_cache_stats().unwrap();
        assert!(stats.hits > 0, "threads={threads}: {stats:?}");
    }
}

#[test]
fn explain_reports_provenance() {
    let cached = db_cached(64);
    let sql = "SELECT id FROM Obj WHERE x < 0.5";
    let before = cached.explain(sql).unwrap();
    assert!(
        before.contains("plan cache: status=miss"),
        "unseen template:\n{before}"
    );
    cached.submit(sql);
    // Same template, different literal: still a hit.
    let after = cached.explain("SELECT id FROM Obj WHERE x < 0.9").unwrap();
    assert!(
        after.contains("plan cache: status=hit"),
        "cached template:\n{after}"
    );
    assert!(after.contains("fp=0x"), "fingerprint shown:\n{after}");

    let off = db_cached(0).explain(sql).unwrap();
    assert!(off.contains("plan cache: status=off"), "{off}");

    let analyzed = cached.explain_analyze(sql).unwrap();
    assert!(analyzed.contains("plan cache: status=hit"), "{analyzed}");
    assert!(
        analyzed.contains("-- wall: parse=") && analyzed.contains("execute="),
        "wall split shown:\n{analyzed}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any literal substitution into a fixed template family produces
    /// the same outcome cached and fresh — including the order the
    /// instances arrive in.
    #[test]
    fn prop_literal_substitution_equivalent(
        xs in prop::collection::vec(0.0f64..1.0, 1..12),
        kinds in prop::collection::vec(0i64..8, 1..12),
        cap_sel in 0usize..3,
    ) {
        let cached = db_cached([2usize, 8, 1024][cap_sel]);
        let fresh = db_cached(0);
        for (i, x) in xs.iter().enumerate() {
            let kind = kinds[i % kinds.len()];
            let sql = format!(
                "SELECT id, x FROM Obj WHERE x < {x} AND kind = {kind} ORDER BY id"
            );
            let c = cached.submit(&sql);
            let f = fresh.submit(&sql);
            prop_assert_eq!(&c, &f, "diverged on: {}", sql);
            let joined = format!(
                "SELECT o.id FROM Obj o INNER JOIN Spec s ON o.id = s.obj_id WHERE s.z > {x}"
            );
            let c = cached.submit(&joined);
            let f = fresh.submit(&joined);
            prop_assert_eq!(&c, &f, "diverged on: {}", joined);
        }
    }
}
