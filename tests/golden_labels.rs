//! Golden pins of the deterministic labels for fixed-seed SDSS and
//! SQLShare workload slices.
//!
//! The engine's entire purpose is producing ground-truth labels (error
//! class, answer size, CPU time) from deterministic execution; this test
//! locks the exact bytes of those labels — including every component of
//! the [`CostCounter`] — so that refactors of the execution pipeline
//! (plan lowering, optimizer passes, physical operators) cannot silently
//! change the learning problem's ground truth.
//!
//! Regenerate deliberately with:
//! `SQLAN_UPDATE_GOLDEN=1 cargo test --test golden_labels`

use sqlan_engine::{CostCounter, Database, Engine, ErrorClass};
use sqlan_simd::Tier;
use sqlan_workload::{
    build_sdss, build_sqlshare, sdss_database, sqlshare_database, Scale, SdssConfig,
    SqlShareConfig, Workload,
};

const GOLDEN_PATH: &str = "tests/golden/sdss_labels.tsv";
const CONFIG: SdssConfig = SdssConfig {
    n_sessions: 160,
    scale: Scale(0.05),
    seed: 0x5EED,
};

/// The SQLShare slice: ad hoc statements over per-user schemas, so its
/// failing statements are not SDSS templates.
const SQLSHARE_GOLDEN_PATH: &str = "tests/golden/sqlshare_labels.tsv";
const SQLSHARE_CONFIG: SqlShareConfig = SqlShareConfig {
    n_queries: 400,
    n_users: 20,
    scale: Scale(0.04),
    seed: 0x5EED,
};

/// FNV-1a, to identify statements in golden lines without embedding SQL
/// text (some generated statements contain newlines).
fn stmt_hash(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// One golden line: statement identity, outcome labels, and the full cost
/// counter breakdown.
fn describe(db: &Database, statement: &str) -> String {
    let mut counter = CostCounter::default();
    let parsed = sqlan_sql::parse(statement);
    let (class, answer): (ErrorClass, i64) = match parsed.result {
        Err(_) => (ErrorClass::Severe, -1),
        Ok(script) => {
            if parsed.lex_report.unterminated_string || parsed.lex_report.unterminated_comment {
                (ErrorClass::Severe, -1)
            } else {
                let mut class = ErrorClass::Success;
                let mut answer = 0i64;
                for stmt in &script.statements {
                    match db.run_statement(stmt, &mut counter) {
                        Ok(rows) => answer = rows,
                        Err(_) => {
                            class = ErrorClass::NonSevere;
                            answer = -1;
                            break;
                        }
                    }
                }
                (class, answer)
            }
        }
    };
    format!(
        "{:016x}\t{}\t{}\t{:?}\t{},{},{},{},{},{},{}",
        stmt_hash(statement),
        class.code(),
        answer,
        counter.cpu_seconds(),
        counter.rows_scanned,
        counter.fn_units,
        counter.sort_cmps,
        counter.hash_ops,
        counter.rows_materialized,
        counter.eval_units,
        counter.subquery_execs,
    )
}

fn render_slice() -> String {
    render_slice_on(&sdss_database(CONFIG))
}

fn render_slice_on(db: &Database) -> String {
    render_workload(db, &build_sdss(CONFIG))
}

fn render_workload(db: &Database, workload: &Workload) -> String {
    let mut out = String::new();
    for entry in &workload.entries {
        out.push_str(&describe(db, &entry.statement));
        out.push('\n');
    }
    out
}

/// Compare `rendered` with the golden file at `path`, or rewrite the file
/// when `SQLAN_UPDATE_GOLDEN=1`.
fn check_golden(path: &str, rendered: &str) {
    assert!(
        rendered.lines().count() >= 50,
        "slice unexpectedly small: {} entries",
        rendered.lines().count()
    );
    if std::env::var("SQLAN_UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all("tests/golden").unwrap();
        std::fs::write(path, rendered).unwrap();
        eprintln!("golden file regenerated at {path}");
        return;
    }
    assert_eq!(
        read_golden(path),
        rendered,
        "labels diverged from the golden pin {path}; if intentional, \
         regenerate with SQLAN_UPDATE_GOLDEN=1"
    );
}

#[test]
fn sdss_slice_labels_match_golden_bytes() {
    check_golden(GOLDEN_PATH, &render_slice());
}

/// The SQLShare slice renders its golden bytes on the default engine.
#[test]
fn sqlshare_slice_labels_match_golden_bytes() {
    let rendered = render_workload(
        &sqlshare_database(SQLSHARE_CONFIG),
        &build_sqlshare(SQLSHARE_CONFIG),
    );
    check_golden(SQLSHARE_GOLDEN_PATH, &rendered);
}

fn golden() -> String {
    read_golden(GOLDEN_PATH)
}

fn read_golden(path: &str) -> String {
    std::fs::read_to_string(path)
        .expect("golden file missing — run with SQLAN_UPDATE_GOLDEN=1 to create it")
}

/// The parallel labeler must reproduce the golden bytes too: the same
/// fixed-seed slice, built and described under a 4-thread pool, must
/// match the identical golden file (input-order merge, shared `Sync`
/// database, no scheduling-dependent state).
#[test]
fn sdss_slice_labels_match_golden_bytes_at_4_threads() {
    if std::env::var("SQLAN_UPDATE_GOLDEN").as_deref() == Ok("1") {
        return; // regeneration is handled by the sequential pin above
    }
    let rendered = sqlan_par::with_threads(4, render_slice);
    assert_eq!(
        golden(),
        rendered,
        "4-thread labels diverged from the sequential golden pin"
    );
}

/// The row engine alone reproduces the golden bytes, success paths
/// included. The default columnar engine runs row operators only as the
/// twins of failing columnar operators, so this is the pin that keeps
/// the row engine a faithful reference for every statement.
#[test]
fn sdss_slice_labels_match_golden_bytes_on_the_row_engine() {
    if std::env::var("SQLAN_UPDATE_GOLDEN").as_deref() == Ok("1") {
        return;
    }
    let rendered = render_slice_on(&sdss_database(CONFIG).with_engine(Engine::Row));
    assert_eq!(
        golden(),
        rendered,
        "row-engine labels diverged from the golden pin"
    );
}

/// Neither the SIMD kernel tier nor observability feeds into a label:
/// the slice renders the golden bytes on the scalar oracle, on AVX2
/// where the CPU has it, and with observability switched off. Both
/// switches are process-global, so the three renders share one test and
/// run one after the other; no other test in this binary sets either.
#[test]
fn sdss_slice_labels_match_golden_bytes_on_every_tier_and_with_obs_off() {
    if std::env::var("SQLAN_UPDATE_GOLDEN").as_deref() == Ok("1") {
        return;
    }
    let golden = golden();
    let mut tiers = vec![Tier::Scalar];
    if sqlan_simd::cpu_features().avx2 {
        tiers.push(Tier::Avx2);
    }
    for tier in tiers {
        sqlan_simd::force(Some(tier));
        let rendered = render_slice();
        assert_eq!(sqlan_simd::active(), tier, "tier changed during the render");
        assert_eq!(
            golden,
            rendered,
            "labels on the {} tier diverged from the golden pin",
            tier.name()
        );
    }
    sqlan_simd::force(None);

    sqlan_obs::set_enabled(false);
    let rendered = render_slice();
    sqlan_obs::set_enabled(true);
    assert_eq!(
        golden, rendered,
        "labels with observability off diverged from the golden pin"
    );
}

/// The workload-level labels (aggregated per unique statement) are
/// deterministic too: building the same slice twice is bit-identical.
#[test]
fn workload_build_is_deterministic() {
    let a = build_sdss(CONFIG);
    let b = build_sdss(CONFIG);
    assert_eq!(a.entries.len(), b.entries.len());
    for (x, y) in a.entries.iter().zip(&b.entries) {
        assert_eq!(x.statement, y.statement);
        assert_eq!(x.error_class, y.error_class);
        assert_eq!(x.answer_size.to_bits(), y.answer_size.to_bits());
        assert_eq!(x.cpu_seconds.to_bits(), y.cpu_seconds.to_bits());
    }
}

/// The template plan cache is invisible in the labels: one pass over the
/// slice through `submit` with the cache on and with it off gives equal
/// outcomes, bit for bit. The slice is templated, so at least half of the
/// probes must hit, or the on pass would barely exercise rebinding.
#[test]
fn plan_cache_on_and_off_submit_identical_outcomes() {
    let statements: Vec<String> = build_sdss(CONFIG)
        .entries
        .into_iter()
        .map(|e| e.statement)
        .collect();
    let cached = sdss_database(CONFIG).with_plan_cache(1024);
    let fresh = sdss_database(CONFIG).with_plan_cache(0);
    assert!(fresh.plan_cache_stats().is_none());
    for statement in &statements {
        let (on, off) = (cached.submit(statement), fresh.submit(statement));
        assert_eq!(on, off, "plan cache changed the outcome of {statement:?}");
        assert_eq!(on.cpu_seconds.to_bits(), off.cpu_seconds.to_bits());
    }
    let stats = cached.plan_cache_stats().expect("cache is on");
    assert!(
        stats.hit_rate() >= 0.5,
        "{} of {} probes hit",
        stats.hits,
        stats.hits + stats.misses
    );
}
