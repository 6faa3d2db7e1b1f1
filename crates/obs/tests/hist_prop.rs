//! Histogram correctness pins.
//!
//! 1. Quantile accuracy: on arbitrary sample sets, the bucketed
//!    p50/p95/p99 must land inside the bucket holding the exact
//!    nearest-rank percentile — i.e. within one bucket's relative error
//!    (≤ 1/32 above the linear region, exact below it).
//! 2. The hammer: many threads recording concurrently must lose no
//!    increments — the derived count, the sum and every bucket must
//!    equal the single-threaded truth.

use std::sync::Arc;
use std::thread;

use proptest::prelude::*;
use sqlan_obs::hist::{bucket_bounds, bucket_index, Histogram, N_BUCKETS};

/// Exact nearest-rank percentile, same convention as
/// `sqlan_metrics::qerror_percentiles` (rank `round(q * (n-1))` over
/// sorted).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn quantiles_within_one_bucket_of_exact(
        samples in prop::collection::vec(0u64..5_000_000_000, 1..500),
    ) {
        let h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count(), samples.len() as u64);
        prop_assert_eq!(snap.sum, samples.iter().sum::<u64>());
        prop_assert_eq!(snap.max, samples.iter().copied().max().unwrap_or(0));
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.50, 0.95, 0.99] {
            let exact = exact_quantile(&sorted, q);
            let est = snap.quantile(q).expect("non-empty histogram");
            // The estimate must fall inside the bucket containing the
            // exact value: that bucket's width is the error bound.
            let (lo, hi) = bucket_bounds(bucket_index(exact));
            prop_assert!(
                lo <= est && est < hi,
                "q={q}: est {est} outside bucket [{lo},{hi}) of exact {exact}"
            );
            // And the relative error that bound implies is ≤ 1/32 once
            // past the exact linear region.
            if exact >= 32 {
                let rel = (est as f64 - exact as f64).abs() / exact as f64;
                prop_assert!(rel <= 1.0 / 32.0, "q={q}: rel err {rel} > 1/32");
            } else {
                prop_assert_eq!(est, exact, "linear region must be exact");
            }
        }
    }

    #[test]
    fn merged_snapshots_equal_single_histogram(
        a in prop::collection::vec(0u64..1_000_000, 0..200),
        b in prop::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let ha = Histogram::new();
        let hb = Histogram::new();
        let hall = Histogram::new();
        for &v in &a {
            ha.record(v);
            hall.record(v);
        }
        for &v in &b {
            hb.record(v);
            hall.record(v);
        }
        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        prop_assert_eq!(merged, hall.snapshot());
    }
}

#[test]
fn concurrent_hammer_loses_no_increments() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 200_000;
    let h = Arc::new(Histogram::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let h = Arc::clone(&h);
            thread::spawn(move || {
                // Deterministic per-thread value stream spanning the
                // linear region, mid buckets and the clamp tail.
                let mut x = t.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                for _ in 0..PER_THREAD {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    h.record(x >> (x % 60));
                }
            })
        })
        .collect();
    for jh in handles {
        jh.join().expect("hammer thread panicked");
    }
    // Replay the same streams single-threaded for ground truth.
    let truth = Histogram::new();
    for t in 0..THREADS {
        let mut x = t.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for _ in 0..PER_THREAD {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            truth.record(x >> (x % 60));
        }
    }
    let got = h.snapshot();
    let want = truth.snapshot();
    assert_eq!(got.count(), THREADS * PER_THREAD, "lost increments");
    assert_eq!(got, want, "concurrent record diverged from serial truth");
}

#[test]
fn hammer_counters_lose_no_increments() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 500_000;
    let r = Arc::new(sqlan_obs::MetricRegistry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let r = Arc::clone(&r);
            thread::spawn(move || {
                let c = r.counter("hammer_total", "hammered counter");
                for _ in 0..PER_THREAD {
                    c.inc();
                }
            })
        })
        .collect();
    for jh in handles {
        jh.join().expect("hammer thread panicked");
    }
    assert_eq!(
        r.counter("hammer_total", "hammered counter").get(),
        THREADS as u64 * PER_THREAD
    );
}

#[test]
fn bucket_layout_is_a_partition() {
    // Every bucket's hi is the next bucket's lo: no gaps, no overlaps.
    for i in 0..N_BUCKETS - 1 {
        assert_eq!(bucket_bounds(i).1, bucket_bounds(i + 1).0, "at bucket {i}");
    }
}
