//! DBA session audit: the paper's DBA scenario (§2). Given raw query text
//! alone — no agent strings, no IPs — classify which kind of client wrote
//! each query (bot / program / browser / direct SQL ...), the
//! session-classification problem of Definition 4.
//!
//! ```bash
//! cargo run --release --example dba_session_audit
//! ```

use sqlan_core::prelude::*;
use sqlan_workload::SessionClass;

fn main() {
    println!("building workload...");
    let workload = build_sdss(SdssConfig {
        n_sessions: 1000,
        scale: Scale(0.05),
        seed: 31,
    });
    let split = random_split(workload.len(), 3);
    let cfg = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };

    // The paper found ctfidf best on frequent classes and the neural nets
    // better on rare ones; train both and compare.
    println!("training ctfidf and ccnn session classifiers...");
    let exp = run_experiment(
        &workload,
        Problem::SessionClassification,
        split,
        &[ModelKind::CTfidf, ModelKind::CCnn],
        &cfg,
        None,
    );

    for run in &exp.runs {
        let eval = run.classification.as_ref().expect("classification");
        println!(
            "\n{} — accuracy {:.4}, loss {:.4}",
            run.kind.name(),
            eval.accuracy,
            eval.loss
        );
        for class in SessionClass::ALL {
            let r = eval.per_class[class.index()];
            if r.support > 0 {
                println!(
                    "  F_{:<11} {:.4}  (precision {:.3}, recall {:.3}, n={})",
                    class.name(),
                    r.f_measure,
                    r.precision,
                    r.recall,
                    r.support
                );
            }
        }
    }

    // Audit a mixed bag of incoming statements.
    let ctfidf = &exp.runs[0].model;
    println!("\nincoming-traffic audit (ctfidf):");
    for stmt in [
        "SELECT * FROM PhotoTag WHERE objId=0x0001fe8829d0bd00",
        "SELECT p.objid,p.ra,p.dec,p.u,p.g,p.r,p.i,p.z FROM PhotoObj AS p WHERE \
         p.ra BETWEEN 210.0 AND 210.5 AND p.dec BETWEEN 5.0 AND 5.5 ORDER BY p.objid",
        "SELECT count(*) FROM Galaxy WHERE r<19.5",
        "SELECT q.objid AS qid, dbo.fDistanceArcMinEq(q.ra,q.dec,p.ra,p.dec) AS dist, p.u,p.g,p.r \
         INTO mydb.cand_17 FROM SpecObj AS q, PhotoObj AS p WHERE q.bestobjid=p.objid",
    ] {
        let class = SessionClass::from_index(ctfidf.predict_class(stmt))
            .map(|c| c.name())
            .unwrap_or("?");
        let head: String = stmt.chars().take(68).collect();
        println!("  [{class:>10}] {head}");
    }
}
