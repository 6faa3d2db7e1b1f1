//! Per-session-class query template generators.
//!
//! The central realism requirement: labels must be *functions of the
//! query text*, because the text is all a model sees, and session
//! classes must differ in syntactic style the way the paper's Figure 8
//! shows — bots submit the same template with different constants,
//! programs sweep parameterized windows, browsers write short diverse
//! queries with occasional mistakes, and direct-SQL (`no_web_hit`) users
//! write the long, nested, function-heavy statements.

use rand::rngs::StdRng;
use rand::Rng;

use crate::labels::SessionClass;
use crate::schema::UserSchema;

/// Probability knobs for error injection, per class.
#[derive(Debug, Clone, Copy)]
struct Mistakes {
    /// Keyword typo / garbage text → severe error.
    p_severe: f64,
    /// Misspelled column/table → non-severe error.
    p_non_severe: f64,
}

fn mistakes(class: SessionClass) -> Mistakes {
    match class {
        // Automation rarely typos; humans do. The paper's SDSS mix is
        // 97.2 / 1.9 / 0.85 (success / non_severe / severe) over 618k
        // statements; at laptop scale those rates would leave single-digit
        // minority-class train/test counts and the classification task
        // would degenerate, so we compress the imbalance to roughly
        // 89 / 7 / 4 while keeping the ordering
        // success ≫ non_severe > severe
        // (`build::tests::sdss_error_mix_is_dominated_by_success`).
        SessionClass::Bot => Mistakes {
            p_severe: 0.004,
            p_non_severe: 0.018,
        },
        SessionClass::Admin => Mistakes {
            p_severe: 0.0,
            p_non_severe: 0.0,
        },
        SessionClass::Program => Mistakes {
            p_severe: 0.012,
            p_non_severe: 0.050,
        },
        SessionClass::Browser => Mistakes {
            p_severe: 0.100,
            p_non_severe: 0.130,
        },
        SessionClass::NoWebHit => Mistakes {
            p_severe: 0.035,
            p_non_severe: 0.085,
        },
        SessionClass::Anonymous => Mistakes {
            p_severe: 0.120,
            p_non_severe: 0.150,
        },
        SessionClass::Unknown => Mistakes {
            p_severe: 0.080,
            p_non_severe: 0.100,
        },
    }
}

/// Generate one SDSS statement in the style of `class`.
pub fn sdss_statement(class: SessionClass, rng: &mut StdRng) -> String {
    let m = mistakes(class);
    let roll: f64 = rng.gen();
    if roll < m.p_severe {
        return severe_statement(rng);
    }
    let sql = match class {
        SessionClass::Bot => bot_statement(rng),
        SessionClass::Admin => admin_statement(rng),
        SessionClass::Program => program_statement(rng),
        SessionClass::Browser => browser_statement(rng),
        SessionClass::NoWebHit => no_web_hit_statement(rng),
        SessionClass::Anonymous => anonymous_statement(rng),
        SessionClass::Unknown => match rng.gen_range(0..4) {
            0 => bot_statement(rng),
            1 => browser_statement(rng),
            2 => program_statement(rng),
            _ => anonymous_statement(rng),
        },
    };
    if roll < m.p_severe + m.p_non_severe {
        break_identifier(&sql, rng)
    } else {
        sql
    }
}

// ---- per-class styles -----------------------------------------------------

fn bot_statement(rng: &mut StdRng) -> String {
    // Crawlers replay the same template with fresh constants.
    match rng.gen_range(0..10) {
        0..=5 => format!("SELECT * FROM PhotoTag WHERE objId={}", objid(rng)),
        6..=7 => format!("SELECT * FROM PhotoObj WHERE objid={}", objid(rng)),
        8 => format!("SELECT ra,dec FROM PhotoTag WHERE objId={}", objid(rng)),
        _ => format!(
            "SELECT * FROM SpecObj WHERE specobjid={}",
            rng.gen_range(0..9_000)
        ),
    }
}

fn admin_statement(rng: &mut StdRng) -> String {
    match rng.gen_range(0..4) {
        0 => format!(
            "SELECT count(*) FROM Jobs WHERE status={}",
            rng.gen_range(0..6)
        ),
        1 => "SELECT name,queue FROM Servers ORDER BY queue".to_string(),
        2 => format!(
            "SELECT target,count(*) FROM Jobs WHERE queue={} GROUP BY target",
            rng.gen_range(1..6)
        ),
        _ => "SELECT s.name FROM Servers s, Status t WHERE s.serverid=t.statusid".to_string(),
    }
}

fn program_statement(rng: &mut StdRng) -> String {
    // Parameter sweeps: cone searches and plate scans with varying widths,
    // which is what makes answer sizes heavy-tailed.
    let ra = rng.gen_range(0.0..360.0);
    let dec = rng.gen_range(-25.0..85.0);
    let w = 10f64.powf(rng.gen_range(-2.0..1.3)); // 0.01° … 20°
    match rng.gen_range(0..5) {
        0..=1 => format!(
            "SELECT p.objid,p.ra,p.dec,p.u,p.g,p.r,p.i,p.z FROM PhotoObj AS p WHERE \
             p.ra BETWEEN {:.6} AND {:.6} AND p.dec BETWEEN {:.6} AND {:.6} ORDER BY p.objid",
            ra, ra + w, dec, dec + w
        ),
        2 => format!(
            "SELECT objid,ra,dec FROM PhotoObj WHERE type={} AND ra BETWEEN {:.6} AND {:.6}",
            rng.gen_range(0..7),
            ra,
            ra + w
        ),
        3 => format!(
            "SELECT specobjid,z FROM SpecObj WHERE plate={} AND fiberid BETWEEN {} AND {}",
            rng.gen_range(266..2975),
            rng.gen_range(1..320),
            rng.gen_range(320..641)
        ),
        _ => format!(
            "SELECT g.objid,g.petror50_r FROM Galaxy g WHERE g.r<{:.3} AND g.dec BETWEEN {:.6} AND {:.6}",
            rng.gen_range(15.0..21.0),
            dec,
            dec + w
        ),
    }
}

fn browser_statement(rng: &mut StdRng) -> String {
    // The web interface's sample-query page, plus short hand-written ones.
    match rng.gen_range(0..9) {
        0 => format!("SELECT TOP {} * FROM PhotoObj", [10, 50, 100][rng.gen_range(0..3)]),
        1 => format!(
            "SELECT count(*) FROM Galaxy WHERE r<{:.2}",
            rng.gen_range(16.0..22.0)
        ),
        2 => format!(
            "SELECT objid,ra,dec FROM Star WHERE u-g>{:.2}",
            rng.gen_range(0.0..2.5)
        ),
        3 => format!(
            "SELECT TOP {} z,zconf FROM SpecObj WHERE specclass={} ORDER BY z DESC",
            rng.gen_range(5..200),
            rng.gen_range(0..6)
        ),
        4 => format!(
            "SELECT s.z,p.ra,p.dec FROM SpecObj s INNER JOIN PhotoObj p ON s.bestobjid=p.objid \
             WHERE s.z BETWEEN {:.3} AND {:.3}",
            rng.gen_range(0.0..1.0),
            rng.gen_range(1.0..3.5)
        ),
        5 => format!(
            "SELECT type,count(*) FROM PhotoObj WHERE flags&{}>0 GROUP BY type",
            1u32 << rng.gen_range(0..20)
        ),
        6 => format!(
            "SELECT objid FROM PhotoObj WHERE flags & dbo.fPhotoFlags('{}') > 0",
            flag_name(rng)
        ),
        7 => format!(
            "SELECT TOP 10 objid,dbo.fGetURLExpid(objid) FROM PhotoTag WHERE ra BETWEEN {:.4} AND {:.4}",
            rng.gen_range(0.0..359.0),
            rng.gen_range(0.0..360.0)
        ),
        _ => format!("SELECT count(*) FROM {}", table_name(rng)),
    }
}

fn no_web_hit_statement(rng: &mut StdRng) -> String {
    // CasJobs direct SQL: long, nested, function-heavy, often INTO MyDB.
    match rng.gen_range(0..9) {
        8 => {
            // Correlated subquery: the classic runaway CasJobs query. The
            // objid pre-filter bounds the outer cardinality, so the CPU
            // cost sweeps a wide range — this arm is most of the label
            // distribution's heavy tail. It is also genuinely expensive to
            // *execute* while labeling, so most draws pick the smaller
            // Field table for the correlated side.
            let outer = rng.gen_range(100..1500);
            if rng.gen_bool(0.3) {
                format!(
                    "SELECT p.objid, p.r FROM PhotoObj p WHERE p.objid < {} AND EXISTS \
                     (SELECT 1 FROM Neighbors n WHERE n.objid = p.objid AND n.distance < {:.4})",
                    outer,
                    rng.gen_range(0.005..1.5)
                )
            } else {
                format!(
                    "SELECT p.objid, p.r FROM PhotoObj p WHERE p.objid < {} AND EXISTS \
                     (SELECT 1 FROM Field f WHERE f.fieldid = p.field AND f.quality >= {})",
                    outer,
                    rng.gen_range(0..4)
                )
            }
        }
        0 => {
            // The Figure 5 pattern: nested aggregate over a join. (The
            // paper's verbatim query is ambiguous — both tables carry
            // modelmag columns — so the subquery qualifies its operands.)
            format!(
                "SELECT dbo.fGetURLExpid(objid) FROM SpecPhoto WHERE modelmag_u-modelmag_g = \
                 (SELECT min(s.modelmag_u-s.modelmag_g) FROM SpecPhoto AS s INNER JOIN PhotoObj AS p \
                 ON s.objid=p.objid WHERE s.flags_g={} OR p.psfmagerr_g<={:.2} AND p.psfmagerr_u<={:.2})",
                rng.gen_range(0..4),
                rng.gen_range(0.05..0.5),
                rng.gen_range(0.05..0.6)
            )
        }
        1 => {
            let ra = rng.gen_range(0.0..358.0);
            let dec = rng.gen_range(-25.0..83.0);
            format!(
                "SELECT q.objid AS qid, dbo.fDistanceArcMinEq(q.ra,q.dec,p.ra,p.dec) AS dist, \
                 p.u,p.g,p.r INTO mydb.cand_{} FROM SpecObj AS q, PhotoObj AS p WHERE \
                 q.bestobjid=p.objid AND q.ra BETWEEN {:.4} AND {:.4} AND q.dec BETWEEN {:.4} AND {:.4} \
                 ORDER BY q.ra",
                rng.gen_range(0..100000),
                ra,
                ra + rng.gen_range(0.5..2.0),
                dec,
                dec + rng.gen_range(0.5..2.0)
            )
        }
        2 => format!(
            "SELECT p.type, count(*) AS n, avg(p.r) AS mr FROM PhotoObj p WHERE \
             p.flags & dbo.fPhotoFlags('{}') = 0 AND p.r BETWEEN {:.2} AND {:.2} \
             GROUP BY p.type HAVING count(*) > {} ORDER BY n DESC",
            flag_name(rng),
            rng.gen_range(14.0..18.0),
            rng.gen_range(18.0..23.0),
            rng.gen_range(1..100)
        ),
        3 => format!(
            "SELECT n.objid, n.neighborobjid, n.distance FROM Neighbors n WHERE n.distance < {:.4} \
             AND n.objid IN (SELECT objid FROM Galaxy WHERE petror50_r > {:.2})",
            rng.gen_range(0.01..1.0),
            rng.gen_range(1.0..20.0)
        ),
        4 => format!(
            "SELECT s.specobjid, s.z, p.modelmag_u - p.modelmag_g AS ug FROM SpecPhoto s \
             INNER JOIN PhotoObj p ON s.objid = p.objid LEFT JOIN Neighbors n ON n.objid = p.objid \
             WHERE s.z > {:.3} AND p.mode = 1",
            rng.gen_range(0.0..2.0)
        ),
        5 => format!(
            "SELECT j.target, cast(j.estimate AS varchar) AS q FROM Jobs j, Users u, \
             (SELECT DISTINCT target, queue FROM Servers s1 WHERE s1.name NOT IN \
             (SELECT name FROM Servers s, (SELECT target, min(queue) AS queue FROM Servers \
             GROUP BY target) AS a WHERE a.target = s.target)) b \
             WHERE j.outputtype LIKE '%{}%' AND j.userid = u.userid",
            ["QUERY", "TABLE", "FILE"][rng.gen_range(0..3)]
        ),
        6 => format!(
            "SELECT CASE WHEN z < {:.2} THEN 'near' ELSE 'far' END AS bucket, count(*) \
             FROM SpecObj WHERE zconf > {:.2} GROUP BY CASE WHEN z < {:.2} THEN 'near' ELSE 'far' END",
            rng.gen_range(0.1..1.0),
            rng.gen_range(0.5..0.99),
            rng.gen_range(0.1..1.0)
        ),
        _ => {
            if rng.gen_bool(0.25) {
                format!("DROP TABLE mydb.cand_{}", rng.gen_range(0..100000))
            } else if rng.gen_bool(0.2) {
                format!("EXEC dbo.spGetNeighbors {:.4}, {:.4}", rng.gen_range(0.0..360.0), rng.gen_range(-25.0..85.0))
            } else {
                format!(
                    "SELECT f.run, f.camcol, count(*) FROM Field f, PhotoObj p WHERE \
                     p.field = f.fieldid AND f.quality >= {} GROUP BY f.run, f.camcol",
                    rng.gen_range(0..4)
                )
            }
        }
    }
}

fn anonymous_statement(rng: &mut StdRng) -> String {
    match rng.gen_range(0..3) {
        0 => format!("SELECT count(*) FROM {}", table_name(rng)),
        1 => format!(
            "SELECT TOP {} * FROM {}",
            rng.gen_range(1..30),
            table_name(rng)
        ),
        _ => format!("SELECT objid FROM PhotoTag WHERE objid={}", objid(rng)),
    }
}

/// Queries rejected before reaching the server: keyword typos, truncation,
/// or plain natural language pasted into the SQL box.
fn severe_statement(rng: &mut StdRng) -> String {
    // Every arm carries fresh constants: without them, identical severe
    // statements collapse in the dedup pass and the class starves.
    match rng.gen_range(0..5) {
        0 => format!("SELEC * FROM PhotoObj WHERE objid={}", objid(rng)),
        1 => format!(
            "SELECT * FORM PhotoTag WHERE ra < {:.2}",
            rng.gen_range(0.0..360.0)
        ),
        2 => format!(
            "SELECT * FROM PhotoObj WHERE ra BETWEEN {:.2} AND",
            rng.gen_range(0.0..360.0)
        ),
        3 => {
            let noun = ["galaxies", "stars", "quasars", "nebulae"][rng.gen_range(0..4)];
            let target = ["m31", "ngc 1275", "the crab nebula", "sgr a*"][rng.gen_range(0..4)];
            match rng.gen_range(0..3) {
                0 => format!("how do I find all the {noun} near {target}"),
                1 => format!(
                    "please show me {noun} brighter than {:.1}",
                    rng.gen_range(10.0..22.0)
                ),
                _ => format!("what is the redshift of {target}?"),
            }
        }
        _ => format!(
            "SELECT objid FROM PhotoObj WHERE name='{}{}", // unterminated literal
            word(rng),
            rng.gen_range(0..10_000)
        ),
    }
}

/// Misspell one identifier so the statement parses but fails at the server.
fn break_identifier(sql: &str, rng: &mut StdRng) -> String {
    // Column misspellings seen in real logs: wrong case is fine (we're
    // case-insensitive) so use genuinely wrong names.
    let swaps: &[(&str, &[&str])] = &[
        ("objid", &["objectid", "obj_id", "objld"]),
        ("PhotoObj", &["PhotoObjAll", "Photoobjs", "PhotObj"]),
        ("PhotoTag", &["PhotoTags", "Phototagg"]),
        ("SpecObj", &["SpecObjAll", "SpectroObj"]),
        ("ra", &["rightascension", "ra2000"]),
        ("dec", &["declination", "dec2000"]),
        ("z", &["redshift"]),
        ("flags", &["flag", "flags_r"]),
    ];
    for (needle, subs) in swaps {
        if sql.contains(needle) && rng.gen_bool(0.6) {
            let sub = subs[rng.gen_range(0..subs.len())];
            return sql.replacen(needle, sub, 1);
        }
    }
    // Fallback: reference a column that doesn't exist anywhere.
    format!("{sql} AND nonexistent_col > 0")
}

// ---- shared helpers -------------------------------------------------------

fn objid(rng: &mut StdRng) -> String {
    if rng.gen_bool(0.3) {
        // Hex object ids, as in the paper's Figure 2a. These miss the
        // synthetic id space, returning 0 rows — like most dangling bot
        // lookups in the real archive.
        format!("0x{:016x}", rng.gen::<u64>() >> 8)
    } else {
        // In-range sequential ids hit exactly one row.
        format!("{}", rng.gen_range(0..70_000))
    }
}

fn table_name(rng: &mut StdRng) -> &'static str {
    [
        "PhotoObj",
        "PhotoTag",
        "Galaxy",
        "Star",
        "SpecObj",
        "SpecPhoto",
        "Field",
    ][rng.gen_range(0..7)]
}

fn flag_name(rng: &mut StdRng) -> &'static str {
    [
        "BLENDED",
        "SATURATED",
        "EDGE",
        "CHILD",
        "DEBLENDED_AS_MOVING",
        "BRIGHT",
    ][rng.gen_range(0..6)]
}

fn word(rng: &mut StdRng) -> &'static str {
    ["andromeda", "m31", "crab", "sombrero"][rng.gen_range(0..4)]
}

// ---- SQLShare -------------------------------------------------------------

/// Generate one SQLShare-style statement over `user`'s schema.
///
/// SQLShare queries are longer, touch more tables, and nest more than SDSS
/// ones (Figure 4 vs Figure 3) but carry fewer WHERE predicates.
pub fn sqlshare_statement(user: &UserSchema, rng: &mut StdRng) -> String {
    let p_severe = 0.015;
    let p_non_severe = 0.035;
    let roll: f64 = rng.gen();
    if roll < p_severe {
        return sqlshare_severe(user, rng);
    }
    let sql = sqlshare_clean(user, rng);
    if roll < p_severe + p_non_severe {
        // Reference a column from a *different* user's naming space.
        format!("{sql} AND missing_{} > 0", rng.gen_range(0..50))
    } else {
        sql
    }
}

fn pick_table<'u>(user: &'u UserSchema, rng: &mut StdRng) -> (usize, &'u str) {
    let i = rng.gen_range(0..user.table_names.len());
    (i, user.table_names[i].as_str())
}

fn pick_cols<'u>(user: &'u UserSchema, t: usize, n: usize, rng: &mut StdRng) -> Vec<&'u str> {
    let cols = &user.table_columns[t];
    (0..n)
        .map(|_| cols[rng.gen_range(0..cols.len())].as_str())
        .collect()
}

fn sqlshare_clean(user: &UserSchema, rng: &mut StdRng) -> String {
    let (t, table) = pick_table(user, rng);
    match rng.gen_range(0..9) {
        8 => {
            // Correlated running-aggregate — the quadratic anti-pattern
            // ad-hoc analysts write; dominates the CPU label's heavy tail.
            let c = pick_cols(user, t, 1, rng)[0];
            format!(
                "SELECT a.rowid, a.{c} FROM {table} a WHERE a.rowid < {} AND a.{c} > \
                 (SELECT avg(b.{c}) FROM {table} b WHERE b.rowid < a.rowid)",
                rng.gen_range(100..1200)
            )
        }
        0 => {
            let cols = pick_cols(user, t, rng.gen_range(1..4), rng);
            format!("SELECT {} FROM {}", cols.join(", "), table)
        }
        1 => {
            let c = pick_cols(user, t, 1, rng)[0];
            format!("SELECT {c}, count(*) AS n FROM {table} GROUP BY {c} ORDER BY n DESC",)
        }
        2 => {
            let cols = pick_cols(user, t, 2, rng);
            format!(
                "SELECT {}, {} FROM {} WHERE {} > {:.3}",
                cols[0],
                cols[1],
                table,
                cols[0],
                rng.gen_range(0.0..100.0)
            )
        }
        3 => {
            // Self-join-ish two-table analytics when the user has ≥2 tables.
            if user.table_names.len() >= 2 {
                let (t2, table2) = pick_table(user, rng);
                let c1 = pick_cols(user, t, 1, rng)[0];
                let c2 = pick_cols(user, t2, 1, rng)[0];
                format!(
                    "SELECT a.{c1}, b.{c2} FROM {table} a INNER JOIN {table2} b ON a.rowid = b.rowid"
                )
            } else {
                let c = pick_cols(user, t, 1, rng)[0];
                format!("SELECT avg({c}) FROM {table}")
            }
        }
        4 => {
            // Derived-table nesting (SQLShare's hallmark).
            let c = pick_cols(user, t, 1, rng)[0];
            format!(
                "SELECT d.{c}, d.n FROM (SELECT {c}, count(*) AS n FROM {table} GROUP BY {c}) d \
                 WHERE d.n > {}",
                rng.gen_range(1..20)
            )
        }
        5 => {
            // Nested aggregation two levels deep.
            let c = pick_cols(user, t, 1, rng)[0];
            format!(
                "SELECT {c} FROM {table} WHERE {c} > (SELECT avg({c}) FROM {table} WHERE rowid IN \
                 (SELECT rowid FROM {table} WHERE {c} IS NOT NULL))"
            )
        }
        6 => {
            let c = pick_cols(user, t, 1, rng)[0];
            format!(
                "SELECT CASE WHEN {c} > {:.2} THEN 'high' WHEN {c} > {:.2} THEN 'mid' ELSE 'low' \
                 END AS bucket, count(*) FROM {table} GROUP BY CASE WHEN {c} > {:.2} THEN 'high' \
                 WHEN {c} > {:.2} THEN 'mid' ELSE 'low' END",
                rng.gen_range(50.0..100.0),
                rng.gen_range(0.0..50.0),
                rng.gen_range(50.0..100.0),
                rng.gen_range(0.0..50.0)
            )
        }
        _ => {
            let cols = pick_cols(user, t, rng.gen_range(2..6), rng);
            format!(
                "SELECT DISTINCT {} FROM {} WHERE {} BETWEEN {:.3} AND {:.3} ORDER BY {}",
                cols.join(", "),
                table,
                cols[0],
                rng.gen_range(0.0..20.0),
                rng.gen_range(20.0..120.0),
                cols[0]
            )
        }
    }
}

fn sqlshare_severe(user: &UserSchema, rng: &mut StdRng) -> String {
    let (_, table) = pick_table(user, rng);
    match rng.gen_range(0..3) {
        0 => format!("SELECT * FORM {table}"),
        1 => format!("SELECT count( FROM {table}"),
        _ => "paste your query here".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sqlan_sql::extract_props;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn bot_queries_are_uniform_point_lookups() {
        let mut r = rng(1);
        for _ in 0..50 {
            let q = sdss_statement(SessionClass::Bot, &mut r);
            assert!(q.to_uppercase().contains("SELECT"), "bad bot query: {q}");
        }
    }

    #[test]
    fn no_web_hit_is_more_complex_than_bot() {
        let mut r = rng(2);
        let avg = |class: SessionClass, r: &mut StdRng| -> f64 {
            let mut total = 0.0;
            for _ in 0..200 {
                let q = sdss_statement(class, r);
                let p = extract_props(&q);
                total += p.num_chars as f64;
            }
            total / 200.0
        };
        let bot = avg(SessionClass::Bot, &mut r);
        let nwh = avg(SessionClass::NoWebHit, &mut r);
        assert!(
            nwh > 2.0 * bot,
            "no_web_hit ({nwh:.0} chars) must be much longer than bot ({bot:.0})"
        );
    }

    #[test]
    fn most_statements_parse() {
        let mut r = rng(3);
        let mut parsed = 0;
        let n = 500;
        for i in 0..n {
            let class = SessionClass::ALL[i % 7];
            let q = sdss_statement(class, &mut r);
            if sqlan_sql::parse(&q).result.is_ok() {
                parsed += 1;
            }
        }
        // Severe rates are small; the overwhelming majority must parse.
        assert!(parsed as f64 / n as f64 > 0.9, "only {parsed}/{n} parsed");
    }

    #[test]
    fn nested_aggregation_appears_in_no_web_hit() {
        let mut r = rng(4);
        let mut seen = false;
        for _ in 0..200 {
            let q = sdss_statement(SessionClass::NoWebHit, &mut r);
            if extract_props(&q).nested_aggregation {
                seen = true;
                break;
            }
        }
        assert!(seen, "no_web_hit should sometimes nest aggregates");
    }

    #[test]
    fn sqlshare_statements_reference_user_tables() {
        let (_, users) = crate::schema::sqlshare_catalog(3, crate::schema::Scale(0.05), 5);
        let mut r = rng(5);
        for _ in 0..100 {
            let u = &users[1];
            let q = sqlshare_statement(u, &mut r);
            let refs_own = u.table_names.iter().any(|t| q.contains(t.as_str()))
                || !q.to_uppercase().contains("FROM"); // severe garbage
            assert!(refs_own, "query should reference user tables: {q}");
        }
    }

    #[test]
    fn sqlshare_nests_more_than_sdss_bots() {
        let (_, users) = crate::schema::sqlshare_catalog(3, crate::schema::Scale(0.05), 6);
        let mut r = rng(6);
        let mut nested = 0;
        for _ in 0..300 {
            let q = sqlshare_statement(&users[0], &mut r);
            if extract_props(&q).nestedness_level > 0 {
                nested += 1;
            }
        }
        assert!(
            nested > 10,
            "SQLShare should nest frequently, saw {nested}/300"
        );
    }

    #[test]
    fn bots_reuse_few_templates() {
        // Bots "submit the same query template but with different
        // constants" (§4.1): masking the literals collapses their
        // statements onto far fewer templates than no_web_hit's ad-hoc SQL.
        use sqlan_sql::{lex, Tok};
        let template = |stmt: &str| -> Vec<String> {
            let toks = lex(stmt).0;
            toks.iter()
                .map(|t| match &t.tok {
                    Tok::Number(_) | Tok::HexNumber(_) => "?n".to_string(),
                    Tok::String(_) => "?s".to_string(),
                    tok => tok.to_string().to_ascii_lowercase(),
                })
                .collect()
        };
        let mut r = rng(4);
        let mut templates = |class: SessionClass| {
            let stmts = (0..300).map(|_| template(&sdss_statement(class, &mut r)));
            stmts.collect::<std::collections::HashSet<_>>().len()
        };
        let bots = templates(SessionClass::Bot);
        let adhoc = templates(SessionClass::NoWebHit);
        assert!(
            adhoc > 2 * bots,
            "300 statements: bots use {bots} templates, no_web_hit {adhoc}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = rng(7);
        let mut b = rng(7);
        for class in SessionClass::ALL {
            assert_eq!(sdss_statement(class, &mut a), sdss_statement(class, &mut b));
        }
    }
}
