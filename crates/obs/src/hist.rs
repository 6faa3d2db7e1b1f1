//! Lock-free log-linear histogram (HdrHistogram-style bucketing).
//!
//! Values are `u64` in an arbitrary unit (the serving layer records
//! nanoseconds); the unit scale is applied at render time, never at
//! record time. The bucket layout is:
//!
//! * a **linear region** for values `0..32`, one bucket per value
//!   (small values are exact);
//! * above that, each power-of-two octave `[2^m, 2^(m+1))` splits into
//!   32 equal sub-buckets, so every bucket's width is at most `1/32`
//!   (~3.1%) of its lower bound — the quantile error bound the proptest
//!   suite pins;
//! * octaves cap at `m = 50` (`2^51` ns ≈ 26 days); larger values clamp
//!   into the last bucket.
//!
//! Recording is one `fetch_add` on the value's bucket plus one on the
//! running sum and a `fetch_max` on the max — no locks, no CAS loops, so
//! concurrent writers never wait and no increment is ever lost (the
//! hammer test pins this). The total count is *derived* as the sum of
//! bucket counts rather than kept in a separate atomic: a snapshot can
//! momentarily disagree with the sum/max fields during a concurrent
//! record, but the count can never disagree with the buckets it was
//! computed from — the exact-count invariant.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: 2^5 = 32 sub-buckets per octave.
pub const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Highest octave kept distinct; values at or above `2^(MAX_MSB+1)`
/// clamp into the final bucket.
const MAX_MSB: u32 = 50;
/// Total bucket count: the linear region plus 46 sub-divided octaves.
pub const N_BUCKETS: usize = (SUB as usize) * (MAX_MSB - SUB_BITS + 2) as usize;

/// Bucket index for a value.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    if msb > MAX_MSB {
        return N_BUCKETS - 1;
    }
    let sub = ((v >> (msb - SUB_BITS)) & (SUB - 1)) as usize;
    (SUB as usize) * (msb - SUB_BITS + 1) as usize + sub
}

/// Half-open value range `[lo, hi)` covered by bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < SUB as usize {
        return (i as u64, i as u64 + 1);
    }
    let octave = (i / SUB as usize) as u32;
    let msb = octave + SUB_BITS - 1;
    let sub = (i % SUB as usize) as u64;
    let width = 1u64 << (msb - SUB_BITS);
    let lo = (1u64 << msb) + sub * width;
    (lo, lo + width)
}

/// A concurrent histogram. See the module docs for the bucket layout.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count())
            .field("sum", &s.sum)
            .field("max", &s.max)
            .finish()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation (unit-agnostic; callers pick a unit and
    /// declare its scale when registering).
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Immutable snapshot of a [`Histogram`]; mergeable across instances
/// (shard aggregation just adds bucket vectors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket counts, dense over [`N_BUCKETS`].
    pub counts: Vec<u64>,
    /// Sum of all recorded values (raw unit).
    pub sum: u64,
    /// Largest recorded value (raw unit).
    pub max: u64,
}

impl HistSnapshot {
    /// Total observations — always exactly the sum of the buckets.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fold another snapshot in (element-wise bucket addition).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Mean of the recorded values (raw unit); `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum as f64 / n as f64)
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) with the same
    /// nearest-rank convention as `sqlan_metrics::qerror_percentiles`: rank
    /// `round(q * (count - 1))` over the sorted samples, except the
    /// sample is only known to bucket precision, so the estimate is the
    /// midpoint of the bucket holding that rank. The true sample lies in
    /// the same bucket, bounding the error by one bucket width (≤ 1/32
    /// relative). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * (n - 1) as f64).round() as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum > rank {
                let (lo, hi) = bucket_bounds(i);
                return Some(lo + (hi - lo) / 2);
            }
        }
        // Unreachable: cum reaches n > rank by the end.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_bounds_agree() {
        for v in (0..4096u64).chain([1 << 20, (1 << 51) - 1, u64::MAX]) {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            if v < (1 << 51) {
                assert!(lo <= v && v < hi, "v={v} i={i} lo={lo} hi={hi}");
            } else {
                assert_eq!(i, N_BUCKETS - 1);
            }
        }
    }

    #[test]
    fn bucket_relative_width_bounded() {
        for i in 32..N_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!((hi - lo) as f64 / lo as f64 <= 1.0 / 32.0 + 1e-12);
        }
    }

    #[test]
    fn linear_region_is_exact() {
        let h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 32);
        assert_eq!(s.quantile(0.0), Some(0));
        assert_eq!(s.quantile(1.0), Some(31));
        assert_eq!(s.max, 31);
        assert_eq!(s.sum, (0..32).sum::<u64>());
    }

    #[test]
    fn merge_adds_counts() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [1u64, 100, 10_000] {
            a.record(v);
            b.record(v * 3);
        }
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count(), 6);
        assert_eq!(s.sum, 1 + 100 + 10_000 + 3 + 300 + 30_000);
        assert_eq!(s.max, 30_000);
    }

    #[test]
    fn empty_quantile_is_none() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.count(), 0);
    }
}
