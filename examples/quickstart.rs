//! Quickstart: synthesize a workload, train a character-level CNN to
//! predict query error classes *before execution*, and try it on a few
//! fresh statements.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use sqlan_core::prelude::*;

fn main() {
    // 1. A workload: in production this is your query log (Definition 3);
    //    here we synthesize an SDSS-like one with execution-derived labels.
    println!("building workload...");
    let workload = build_sdss(SdssConfig {
        n_sessions: 800,
        scale: Scale(0.05),
        seed: 42,
    });
    println!(
        "  {} unique statements (from {} sampled log entries)",
        workload.len(),
        workload.sampled_logs
    );

    // 2. Split and train `ccnn` — the paper's best error classifier —
    //    against the `mfreq` baseline.
    let split = random_split(workload.len(), 7);
    let cfg = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };
    println!("training mfreq + ccnn on {} queries...", split.train.len());
    let exp = run_experiment(
        &workload,
        Problem::ErrorClassification,
        split,
        &[ModelKind::MFreq, ModelKind::CCnn],
        &cfg,
        None,
    );
    for row in exp.summary_rows() {
        println!(
            "  {:8}  loss {:.4}  accuracy {:.4}",
            row.model,
            row.loss,
            row.accuracy.unwrap_or(f64::NAN)
        );
    }

    // 3. Ask the trained model about statements it has never seen. At this
    //    demo scale minority classes have few training examples, so look at
    //    the model's *confidence* in success rather than the argmax alone:
    //    risky statements should get visibly lower P(success).
    let ccnn = &exp.runs[1].model;
    let classes = ["severe", "success", "non_severe"];
    println!("\nper-statement P(success):");
    for stmt in [
        "SELECT TOP 5 objid, ra, dec FROM PhotoObj WHERE type = 6",
        "SELEC * FORM PhotoObj", // typo → rejected at the portal
        "SELECT nonexistent_col FROM PhotoObj", // fails at the server
        "please show me the brightest galaxies", // free text
    ] {
        let probs = ccnn.predict_proba(stmt);
        let c = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i);
        println!(
            "  {:52} -> {:10}  P(success)={:.3}",
            if stmt.len() > 50 { &stmt[..50] } else { stmt },
            classes[c.unwrap_or(1)],
            probs[1]
        );
    }
}
