//! Golden pin of the deterministic labels for a fixed-seed SDSS workload
//! slice.
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

use sqlan_engine::{CostCounter, Database, ErrorClass};
use sqlan_workload::{build_sdss, sdss_database, Scale, SdssConfig};

const GOLDEN_PATH: &str = "tests/golden/sdss_labels.tsv";
const CONFIG: SdssConfig = SdssConfig {
    n_sessions: 160,
    scale: Scale(0.05),
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
    let workload = build_sdss(CONFIG);
    let db = sdss_database(CONFIG);
    let mut out = String::new();
    for entry in &workload.entries {
        out.push_str(&describe(&db, &entry.statement));
        out.push('\n');
    }
    out
}

#[test]
fn sdss_slice_labels_match_golden_bytes() {
    let rendered = render_slice();
    assert!(
        rendered.lines().count() >= 50,
        "slice unexpectedly small: {} entries",
        rendered.lines().count()
    );
    if std::env::var("SQLAN_UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all("tests/golden").unwrap();
        std::fs::write(GOLDEN_PATH, &rendered).unwrap();
        eprintln!("golden file regenerated at {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run with SQLAN_UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        golden, rendered,
        "labels diverged from the golden pin; if intentional, regenerate \
         with SQLAN_UPDATE_GOLDEN=1"
    );
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
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run with SQLAN_UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        golden, rendered,
        "4-thread labels diverged from the sequential golden pin"
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
