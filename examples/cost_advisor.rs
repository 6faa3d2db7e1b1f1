//! Cost advisor: the paper's end-user scenario (§1–2). SDSS advises users
//! to run a `COUNT(*)` probe before their real query to avoid long waits;
//! this example replaces the probe with *pre-execution predictions* of
//! answer size and CPU time, then checks them against actual execution —
//! including the §6.3.3 case study of a long-simple vs short-nested query.
//!
//! ```bash
//! cargo run --release --example cost_advisor
//! ```

use sqlan_core::prelude::*;

fn main() {
    let sdss = SdssConfig {
        n_sessions: 900,
        scale: Scale(0.05),
        seed: 9,
    };
    println!("building workload...");
    let workload = build_sdss(sdss);
    let db = sdss_database(sdss);
    let split = random_split(workload.len(), 1);
    let cfg = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };

    println!("training answer-size and CPU-time predictors (ccnn)...");
    let answer = run_experiment(
        &workload,
        Problem::AnswerSize,
        split.clone(),
        &[ModelKind::CCnn],
        &cfg,
        None,
    );
    let cpu = run_experiment(
        &workload,
        Problem::CpuTime,
        split,
        &[ModelKind::CCnn],
        &cfg,
        None,
    );

    let answer_model = &answer.runs[0].model;
    let cpu_model = &cpu.runs[0].model;
    let t_answer = answer.dataset.transform.expect("transform");
    let t_cpu = cpu.dataset.transform.expect("transform");

    // Q1-style: long statement, big join, many output columns.
    // Q2-style: short but nested, touching small admin tables.
    let q1 = "SELECT q.specobjid AS qname, dbo.fDistanceArcMinEq(q.ra,q.dec,p.ra,p.dec), \
              p.objid, p.ra, p.dec, p.u, p.g, p.r, p.i, p.z, p.type, p.flags \
              FROM SpecObj AS q, PhotoObj AS p \
              WHERE q.bestobjid = p.objid AND q.ra BETWEEN 185 AND 190 ORDER BY q.ra";
    let q2 = "SELECT j.target, cast(j.estimate AS varchar) AS queue FROM Jobs j, Users u, \
              (SELECT DISTINCT target, queue FROM Servers s1 WHERE s1.name NOT IN \
              (SELECT name FROM Servers s, (SELECT target, min(queue) AS queue FROM Servers \
              GROUP BY target) AS a WHERE a.target = s.target)) b \
              WHERE j.outputtype LIKE '%QUERY%' AND j.userid = u.userid";

    println!(
        "\n{:>10} {:>14} {:>14} {:>12} {:>12}",
        "query", "pred rows", "actual rows", "pred cpu", "actual cpu"
    );
    for (name, stmt) in [("Q1 (long)", q1), ("Q2 (nested)", q2)] {
        let pred_rows = t_answer.invert(answer_model.predict_value(stmt)).max(0.0);
        let pred_cpu = t_cpu.invert(cpu_model.predict_value(stmt)).max(0.0);
        let actual = db.submit(stmt);
        println!(
            "{:>10} {:>14.0} {:>14} {:>11.2}s {:>11.2}s   [{}]",
            name, pred_rows, actual.answer_size, pred_cpu, actual.cpu_seconds, actual.error_class
        );
    }

    // The advisory itself.
    println!("\nadvisor verdicts:");
    for stmt in [
        "SELECT * FROM PhotoObj",
        "SELECT * FROM PhotoTag WHERE objId = 12345",
        "SELECT p.objid FROM PhotoObj p WHERE p.objid < 3000 AND EXISTS \
         (SELECT 1 FROM Neighbors n WHERE n.objid = p.objid AND n.distance < 0.5)",
    ] {
        let rows = t_answer.invert(answer_model.predict_value(stmt)).max(0.0);
        let secs = t_cpu.invert(cpu_model.predict_value(stmt)).max(0.0);
        let verdict = if secs > 5.0 {
            "WARN: likely slow — consider a COUNT probe or tighter predicates"
        } else if rows > 10_000.0 {
            "WARN: large result — add TOP or a WHERE clause"
        } else {
            "ok to run"
        };
        let head: String = stmt.chars().take(60).collect();
        println!("  {head:62} ~{rows:>8.0} rows ~{secs:>7.2}s  {verdict}");
    }
}
