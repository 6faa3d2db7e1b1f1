//! Generalization across problem settings (Definition 5): train CPU-time
//! predictors on SQLShare-like workloads under the Homogeneous-Schema
//! split (random) and the Heterogeneous-Schema split (by user), and watch
//! word-level models degrade while character-level models hold up — the
//! paper's central finding (§6.2.4).
//!
//! ```bash
//! cargo run --release --example transfer_generalization
//! ```

use sqlan_core::prelude::*;

fn main() {
    // Enough users that the by-user split has a representative test
    // population (a handful of users would make the comparison noisy).
    let cfg_share = SqlShareConfig {
        n_queries: 1000,
        n_users: 60,
        scale: Scale(0.1),
        seed: 77,
    };
    println!("building SQLShare-like workload...");
    let workload = build_sqlshare(cfg_share);
    let db = sqlshare_database(cfg_share);
    let cfg = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };

    let models = [ModelKind::Median, ModelKind::CCnn, ModelKind::WCnn];

    println!("Homogeneous Schema (random split): shared vocabulary between train and test");
    let hom = run_experiment(
        &workload,
        Problem::CpuTime,
        random_split(workload.len(), 5),
        &models,
        &cfg,
        Some(&db),
    );

    println!("Heterogeneous Schema (split by user): disjoint table/column names");
    let het = run_experiment(
        &workload,
        Problem::CpuTime,
        split_by_user(&workload.entries, 0.8, 0.07, 5),
        &models,
        &cfg,
        Some(&db),
    );

    println!(
        "\n{:>8} {:>18} {:>18} {:>10}",
        "model", "HomSchema loss", "HetSchema loss", "degraded"
    );
    for (a, b) in hom.runs.iter().zip(&het.runs) {
        let la = a.regression.as_ref().expect("eval").loss;
        let lb = b.regression.as_ref().expect("eval").loss;
        println!(
            "{:>8} {:>18.4} {:>18.4} {:>9.1}x",
            a.kind.name(),
            la,
            lb,
            lb / la.max(1e-9)
        );
    }
    println!(
        "\nExpected shape (paper §6.2.3): every model gets worse under Heterogeneous \
         Schema,\nbut word-level models degrade hardest — their vocabulary never \
         transfers across users."
    );
}
