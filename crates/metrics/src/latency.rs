//! Service-latency summaries for the online prediction service: the
//! shape `/metrics` reports request latency in, filled from a bucketed
//! histogram snapshot.

use serde::{Deserialize, Serialize};

/// p50/p95/p99 latency summary in seconds, plus count and mean.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    pub count: usize,
    pub mean_s: f64,
    pub p50_s: f64,
    pub p95_s: f64,
    pub p99_s: f64,
    pub max_s: f64,
}

impl LatencySummary {
    /// Build a summary from pre-computed statistics — e.g. a bucketed
    /// histogram snapshot that already knows its count, mean and
    /// quantiles. A zero `count` yields a zero-count summary with every
    /// statistic `NaN`, regardless of the other arguments.
    pub fn from_stats(
        count: usize,
        mean_s: f64,
        p50_s: f64,
        p95_s: f64,
        p99_s: f64,
        max_s: f64,
    ) -> LatencySummary {
        if count == 0 {
            return LatencySummary {
                count: 0,
                mean_s: f64::NAN,
                p50_s: f64::NAN,
                p95_s: f64::NAN,
                p99_s: f64::NAN,
                max_s: f64::NAN,
            };
        }
        LatencySummary {
            count,
            mean_s,
            p50_s,
            p95_s,
            p99_s,
            max_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_stats_normalizes_empty() {
        let s = LatencySummary::from_stats(0, 1.0, 2.0, 3.0, 4.0, 5.0);
        assert_eq!(s.count, 0);
        assert!(s.p50_s.is_nan() && s.mean_s.is_nan());
        let s = LatencySummary::from_stats(3, 1.0, 2.0, 3.0, 4.0, 5.0);
        assert_eq!((s.count, s.mean_s, s.max_s), (3, 1.0, 5.0));
    }
}
