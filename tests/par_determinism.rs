//! The determinism battery for the data-parallel runtime.
//!
//! The `sqlan-par` contract is that every parallel stage is a pure
//! function of its input — independent of worker count and scheduling.
//! These tests hold the whole pipeline to that contract **byte-for-byte**:
//! each stage runs at 1, 3, and 8 threads and the serialized outputs (or
//! bit-exact float fingerprints) must be identical strings.
//!
//! A failure here means somebody introduced scheduling-dependent state —
//! a shared accumulator with worker-order writes, an RNG drawn inside a
//! worker, a float reduction with a thread-dependent association order.
//!
//! Since the SIMD tier landed, the battery also sweeps the kernel
//! dispatch tier (scalar oracle vs AVX2, when the CPU has it): every
//! `sqlan-simd` kernel is bit-identical across tiers by construction
//! (up to NaN payloads, which this pipeline never produces), so the
//! full tier × thread-count grid must render one byte sequence.

use sqlan_core::prelude::*;
use sqlan_features::{word_tokens, TfidfVectorizer};
use sqlan_par::with_threads;
use sqlan_simd::Tier;
use sqlan_workload::{build_sdss, build_sqlshare, Scale, SdssConfig, SqlShareConfig};

const THREAD_COUNTS: [usize; 3] = [1, 3, 8];

/// The dispatch tiers to sweep: the env-resolved policy (`None`), the
/// forced scalar oracle, and forced AVX2 where the hardware has it.
fn tiers() -> Vec<(&'static str, Option<Tier>)> {
    let mut t = vec![("auto", None), ("scalar", Some(Tier::Scalar))];
    if sqlan_simd::cpu_features().avx2 {
        t.push(("avx2", Some(Tier::Avx2)));
    }
    t
}

/// Render one build per (tier, thread count) cell and assert all
/// renderings agree byte-for-byte.
///
/// `sqlan_simd::force` is process-global and the test binary runs tests
/// concurrently, so cells from different tests can race on the forced
/// tier — that is deliberately fine: tiers are bit-identical, so a race
/// only changes which (equally correct) code path executes.
fn assert_invariant(what: &str, render: impl Fn() -> String) {
    let mut outputs: Vec<(String, String)> = Vec::new();
    for (tier_name, tier) in tiers() {
        sqlan_simd::force(tier);
        for t in THREAD_COUNTS {
            outputs.push((format!("{tier_name}/{t}t"), with_threads(t, &render)));
        }
    }
    sqlan_simd::force(None);
    let (c0, reference) = &outputs[0];
    for (cell, out) in &outputs[1..] {
        assert_eq!(out, reference, "{what}: output at {cell} differs from {c0}");
    }
}

#[test]
fn sdss_build_is_byte_identical_across_thread_counts() {
    assert_invariant("build_sdss", || {
        let w = build_sdss(SdssConfig {
            n_sessions: 250,
            scale: Scale(0.03),
            seed: 0xD15C,
        });
        serde_json::to_string(&(&w.entries, &w.repetitions, w.sampled_logs))
            .expect("workload serializes")
    });
}

#[test]
fn sqlshare_build_is_byte_identical_across_thread_counts() {
    assert_invariant("build_sqlshare", || {
        let w = build_sqlshare(SqlShareConfig {
            n_queries: 180,
            n_users: 12,
            scale: Scale(0.03),
            seed: 0x5A5E,
        });
        serde_json::to_string(&(&w.entries, &w.repetitions, w.sampled_logs))
            .expect("workload serializes")
    });
}

#[test]
fn tfidf_matrices_are_bit_identical_across_thread_counts() {
    // A corpus wide enough that fit() really chunks (> 64 documents).
    let workload = build_sdss(SdssConfig {
        n_sessions: 400,
        scale: Scale(0.02),
        seed: 0x7F1D,
    });
    let statements: Vec<String> = workload
        .entries
        .iter()
        .map(|e| e.statement.clone())
        .collect();
    assert!(statements.len() > 64, "corpus too small to exercise chunks");

    assert_invariant("tfidf", || {
        let streams: Vec<Vec<String>> = sqlan_par::par_map(&statements, |s| word_tokens(s));
        let v = TfidfVectorizer::fit(&streams, 3, 5_000);
        let matrix = v.transform_batch(&streams);
        // Bit-exact fingerprint: feature ids plus raw f32 bit patterns.
        let mut fp = format!("dim={}", v.dim());
        for row in &matrix {
            fp.push('\n');
            for (id, w) in row {
                fp.push_str(&format!("{id}:{:08x} ", w.to_bits()));
            }
        }
        fp
    });
}

#[test]
fn full_experiment_is_byte_identical_across_thread_counts() {
    // Exercises every parallel layer at once: statement labeling,
    // TF-IDF featurization, per-model fan-out, minibatch gradient
    // reduction, and parallel validation loss. The lineup is the
    // baseline plus all six learned kinds, so every trained parameter
    // (CNN and LSTM included) is pinned across threads and tiers.
    let workload = build_sdss(SdssConfig {
        n_sessions: 200,
        scale: Scale(0.02),
        seed: 0xE4E2,
    });
    let split = random_split(workload.len(), 41);
    let cfg = TrainConfig {
        epochs: 2,
        ..TrainConfig::tiny()
    };

    assert_invariant("experiment", || {
        let exp = run_experiment(
            &workload,
            Problem::ErrorClassification,
            split.clone(),
            &[
                ModelKind::MFreq,
                ModelKind::CTfidf,
                ModelKind::CCnn,
                ModelKind::CLstm,
                ModelKind::WTfidf,
                ModelKind::WCnn,
                ModelKind::WLstm,
            ],
            &cfg,
            None,
        );
        let rows = serde_json::to_string(&exp.summary_rows()).expect("rows serialize");
        // Trained parameters, bit-for-bit, via the model persistence path.
        let models: Vec<String> = exp
            .runs
            .iter()
            .map(|r| r.model.save_json().expect("persistable lineup"))
            .collect();
        format!("{rows}\n{}", models.join("\n"))
    });
}
