//! Neural-training throughput benchmark.
//!
//! Trains the paper's neural models (`wcnn` + `clstm`, error
//! classification on the fixed-seed SDSS workload) through the
//! tensorized minibatch path (length-bucketed tiles, one batched tape
//! each) at 1/2/4/8 worker threads, and reports epoch throughput in
//! examples/second.
//!
//! Besides speed, the run re-checks the correctness contracts on real
//! data and fails loudly if they break:
//!
//! * trained parameters byte-identical across all thread counts (the
//!   determinism contract);
//! * `predict_proba_batch` bit-identical to per-statement
//!   `predict_proba` on the test slice (the serving contract);
//! * trained parameters byte-identical between the auto kernel tier and
//!   the forced scalar oracle (the in-binary scalar-vs-SIMD A/B, which
//!   also reports the tier speedup at the lowest thread count).
//!
//! Knobs: the usual `Harness` env vars plus `SQLAN_BENCH_THREADS`
//! (default `1,2,4,8`) and `SQLAN_BENCH_OUT` (default
//! `BENCH_train.json`). The checked-in `BENCH_train.json` is the pinned
//! run from the development container; the CI artifact tracks the
//! numbers per commit.

use std::time::Instant;

use serde::Serialize;
use sqlan_bench::{Harness, KernelAb, MachineInfo};
use sqlan_core::prelude::*;
use sqlan_core::Dataset;
use sqlan_simd::Tier;

#[derive(Debug, Serialize)]
struct Scaling {
    /// (threads, wall-clock seconds, examples/second) per thread count.
    runs: Vec<(usize, f64, f64)>,
    /// Trained parameters byte-identical across all thread counts.
    deterministic: bool,
}

#[derive(Debug, Serialize)]
struct ModelBench {
    model: String,
    n_train: usize,
    epochs: usize,
    /// Training throughput at every measured thread count.
    training: Scaling,
    /// `predict_proba_batch` ≡ mapped `predict_proba`, bit for bit, on
    /// the test slice (every measured thread count).
    batch_predict_bit_identical: bool,
    /// Training re-run with the kernel tier forced to the scalar oracle,
    /// at the lowest measured thread count: (seconds, examples/second).
    scalar_tier: (f64, f64),
    /// examples/s under the auto tier ÷ under the forced scalar oracle,
    /// lowest thread count. ≈ 1 on hardware without AVX2.
    speedup_simd_at_1_thread: f64,
    /// Trained parameters byte-identical between the scalar and auto
    /// kernel tiers (the matmul/activation bit-exactness contract,
    /// re-checked on a real training run). Must be true.
    tiers_bit_identical: bool,
}

#[derive(Debug, Serialize)]
struct BenchTrain {
    machine: MachineInfo,
    threads_measured: Vec<usize>,
    sdss_sessions: usize,
    scale: f64,
    models: Vec<ModelBench>,
    /// Isolated scalar-vs-AVX2 timings of the training hot kernels at
    /// training-realistic shapes. End-to-end training above mixes these
    /// with tokenization, scatter/gather, and small-shape calls, so the
    /// whole-run tier speedup is much smaller than the kernel-level gap.
    /// Absent without AVX2.
    train_kernels: Option<Vec<KernelAb>>,
}

/// Scalar-vs-AVX2 A/B of the matmul at LSTM/CNN training shapes
/// (m = tile rows, k = input width, n = gate/feature width) plus the
/// activation map.
fn train_kernel_ab() -> Option<Vec<KernelAb>> {
    use sqlan_simd::paths;
    if !sqlan_simd::cpu_features().avx2 {
        return None;
    }
    let mut rows = Vec::new();
    for (m, k, n) in [(8usize, 32usize, 128usize), (32, 24, 128), (64, 32, 256)] {
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 7) as f32 * 0.013).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 3) as f32 * 0.011).cos()).collect();
        let (a, b) = (&a, &b);
        rows.push(KernelAb::measure(
            &format!("matmul_acc_f32_{m}x{k}x{n}"),
            m * n,
            {
                let mut o = vec![0.0f32; m * n];
                move || paths::scalar::matmul_acc_f32(&mut o, a, b, m, k, n)
            },
            {
                let mut o = vec![0.0f32; m * n];
                move || paths::avx2::matmul_acc_f32(&mut o, a, b, m, k, n)
            },
        ));
    }
    let n = 4096usize;
    let src: Vec<f32> = (0..n).map(|i| (i as f32 * 0.01) - 20.0).collect();
    let src = &src;
    rows.push(KernelAb::measure(
        "tanh_map_4096",
        n,
        {
            let mut o = vec![0.0f32; n];
            move || paths::scalar::tanh_map(src, &mut o)
        },
        {
            let mut o = vec![0.0f32; n];
            move || paths::avx2::tanh_map(src, &mut o)
        },
    ));
    Some(rows)
}

fn train_scaling(
    kind: ModelKind,
    threads: &[usize],
    data: &TrainData<'_>,
    cfg: &TrainConfig,
) -> (Scaling, TrainedModel) {
    let n_examples = data.statements.len() * cfg.epochs;
    let mut runs = Vec::new();
    let mut fingerprints: Vec<String> = Vec::new();
    let mut last = None;
    for &t in threads {
        let start = Instant::now();
        let model =
            sqlan_par::with_threads(t, || train_model(kind, Task::Classify(3), data, cfg, None));
        let secs = start.elapsed().as_secs_f64();
        let exps = n_examples as f64 / secs;
        eprintln!("    {t} thread(s): {secs:.3}s ({exps:.0} examples/s)");
        runs.push((t, secs, exps));
        fingerprints.push(model.save_json().expect("neural models persist"));
        last = Some(model);
    }
    let scaling = Scaling {
        deterministic: fingerprints.windows(2).all(|w| w[0] == w[1]),
        runs,
    };
    (scaling, last.expect("at least one thread count"))
}

fn main() {
    let h = Harness::from_env();
    let threads: Vec<usize> = std::env::var("SQLAN_BENCH_THREADS")
        .unwrap_or_else(|_| "1,2,4,8".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let machine = sqlan_bench::machine_info();
    eprintln!(
        "[bench_train] cores={} simd={} threads={threads:?} sessions={} scale={}",
        machine.cores, machine.simd_tier, h.sdss_sessions, h.scale
    );

    eprintln!("[bench_train] building fixed-seed SDSS workload…");
    let workload = build_sdss(h.sdss_config());
    let dataset = Dataset::build(&workload, Problem::ErrorClassification);
    let split = random_split(dataset.statements.len(), h.seed ^ 0x11);
    let gather = |idx: &[usize]| -> (Vec<String>, Vec<usize>) {
        (
            idx.iter().map(|&i| dataset.statements[i].clone()).collect(),
            idx.iter().map(|&i| dataset.class_labels[i]).collect(),
        )
    };
    let (train_x, train_y) = gather(&split.train);
    let (valid_x, valid_y) = gather(&split.valid);
    let (test_x, _) = gather(&split.test);
    let test_x: Vec<String> = test_x.into_iter().take(256).collect();
    let data = TrainData {
        statements: &train_x,
        labels: Labels::Classes(&train_y),
        valid_statements: &valid_x,
        valid_labels: Labels::Classes(&valid_y),
    };
    // Fixed epoch count (no early stopping) so throughput is comparable.
    let cfg = TrainConfig {
        patience: 0,
        ..h.train_config()
    };
    eprintln!(
        "[bench_train] {} train / {} valid statements, {} epochs",
        train_x.len(),
        valid_x.len(),
        cfg.epochs
    );

    let mut models = Vec::new();
    for kind in [ModelKind::WCnn, ModelKind::CLstm] {
        eprintln!("[bench_train] model {}", kind.name());
        let (training, model) = train_scaling(kind, &threads, &data, &cfg);

        // SIMD A/B: training once more at the lowest measured thread
        // count with the kernel tier forced to the scalar oracle. The
        // trained parameters must match the auto-tier run bit for bit
        // (the training tile is a constant, so only the kernel tier
        // differs between the two runs).
        let lowest = *threads.iter().min().expect("at least one thread count");
        sqlan_simd::force(Some(Tier::Scalar));
        let (scalar_scaling, scalar_model) = train_scaling(kind, &[lowest], &data, &cfg);
        sqlan_simd::force(None);
        let &(_, scalar_secs, scalar_exps) = &scalar_scaling.runs[0];
        let tiers_bit_identical = scalar_model.save_json().expect("neural models persist")
            == model.save_json().expect("neural models persist");

        // Serving contract: batched inference must be byte-equal to
        // per-statement inference at every measured thread count.
        let solo: Vec<Vec<u32>> = test_x
            .iter()
            .map(|s| model.predict_proba(s).iter().map(|f| f.to_bits()).collect())
            .collect();
        let batch_predict_bit_identical = threads.iter().all(|&t| {
            sqlan_par::with_threads(t, || {
                model
                    .predict_proba_batch(&test_x)
                    .iter()
                    .map(|p| p.iter().map(|f| f.to_bits()).collect::<Vec<u32>>())
                    .collect::<Vec<_>>()
                    == solo
            })
        });

        let at_lowest = training
            .runs
            .iter()
            .min_by_key(|(t, _, _)| *t)
            .map(|&(_, _, e)| e)
            .expect("at least one thread count");
        let speedup_simd = at_lowest / scalar_exps.max(1e-9);
        eprintln!(
            "    simd/scalar: {speedup_simd:.2}x; deterministic: {}; \
             predict bit-identical: {batch_predict_bit_identical}; \
             tiers bit-identical: {tiers_bit_identical}",
            training.deterministic
        );
        models.push(ModelBench {
            model: kind.name().to_string(),
            n_train: train_x.len(),
            epochs: cfg.epochs,
            training,
            batch_predict_bit_identical,
            scalar_tier: (scalar_secs, scalar_exps),
            speedup_simd_at_1_thread: speedup_simd,
            tiers_bit_identical,
        });
    }

    eprintln!("[bench_train] kernel A/B: isolated training kernels");
    let train_kernels = train_kernel_ab();
    if let Some(rows) = &train_kernels {
        for k in rows {
            eprintln!(
                "    {}: scalar {:.0}ns avx2 {:.0}ns ({:.2}x)",
                k.kernel, k.scalar_ns, k.avx2_ns, k.speedup
            );
        }
    } else {
        eprintln!("    (no AVX2 on this CPU — skipped)");
    }

    let report = BenchTrain {
        machine,
        threads_measured: threads,
        sdss_sessions: h.sdss_sessions,
        scale: h.scale,
        models,
        train_kernels,
    };
    // Persist before the contract asserts: a failing assert should
    // leave the run's evidence on disk, not discard it.
    let out = std::env::var("SQLAN_BENCH_OUT").unwrap_or_else(|_| "BENCH_train.json".into());
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, &json).expect("write BENCH_train.json");
    for m in &report.models {
        assert!(
            m.training.deterministic,
            "{}: thread-count invariance violated — see BENCH_train.json",
            m.model
        );
        assert!(
            m.batch_predict_bit_identical,
            "{}: batched prediction diverged from per-statement — see BENCH_train.json",
            m.model
        );
        assert!(
            m.tiers_bit_identical,
            "{}: scalar/simd kernel tiers trained different parameters — \
             bit-exactness contract violated",
            m.model
        );
    }

    println!("{json}");
    eprintln!("[saved {out}]");
}
