//! The qerror metric of Leis et al. (§6.1): the factor by which an
//! estimate differs from the truth, `max(y/ŷ, ŷ/y)`, reported at
//! percentiles (Tables 3, 6, 7).

use serde::{Deserialize, Serialize};

/// qerror of one estimate on the *raw* (de-transformed) scale. Both sides
/// are shifted by 1 so zero answers/times are well-defined; negative
/// estimates clamp to zero. For labels much smaller than 1 (CPU seconds),
/// use [`qerror_with_shift`] with a scale-appropriate shift.
pub fn qerror(truth: f64, estimate: f64) -> f64 {
    qerror_with_shift(truth, estimate, 1.0)
}

/// qerror with an explicit additive shift. The shift regularizes zeros and
/// must sit below the label scale of interest: 1.0 for row counts
/// (Table 3), ~0.01 s for CPU times (Tables 6–7) whose medians are far
/// below one second.
pub fn qerror_with_shift(truth: f64, estimate: f64, shift: f64) -> f64 {
    let y = truth.max(0.0) + shift;
    let e = estimate.max(0.0) + shift;
    (y / e).max(e / y)
}

/// qerror percentile table: for each requested percentile, the smallest q
/// such that that fraction of queries has qerror ≤ q.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QErrorTable {
    /// (percentile in `[0, 100]`, qerror value) pairs.
    pub rows: Vec<(f64, f64)>,
}

impl QErrorTable {
    /// Render one value the way the paper's tables do: values beyond
    /// `cap` print as "-" (the model "blew up" at that percentile).
    pub fn display_value(q: f64, cap: f64) -> String {
        if !q.is_finite() || q > cap {
            "-".to_string()
        } else if q >= 100.0 {
            format!("{:.0}", q)
        } else {
            format!("{:.2}", q)
        }
    }
}

/// Compute the qerror percentile table for raw-scale truths and estimates.
pub fn qerror_percentiles(truths: &[f64], estimates: &[f64], percentiles: &[f64]) -> QErrorTable {
    qerror_percentiles_with_shift(truths, estimates, percentiles, 1.0)
}

/// [`qerror_percentiles`] with an explicit shift (see [`qerror_with_shift`]).
pub fn qerror_percentiles_with_shift(
    truths: &[f64],
    estimates: &[f64],
    percentiles: &[f64],
    shift: f64,
) -> QErrorTable {
    assert_eq!(truths.len(), estimates.len());
    let mut qs: Vec<f64> = truths
        .iter()
        .zip(estimates)
        .map(|(&y, &e)| qerror_with_shift(y, e, shift))
        .collect();
    qs.sort_by(f64::total_cmp);
    let rows = percentiles
        .iter()
        .map(|&p| {
            if qs.is_empty() {
                return (p, f64::NAN);
            }
            let idx = ((p / 100.0) * (qs.len() - 1) as f64).round() as usize;
            (p, qs[idx.min(qs.len() - 1)])
        })
        .collect();
    QErrorTable { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_estimate_has_qerror_one() {
        assert_eq!(qerror(10.0, 10.0), 1.0);
        assert_eq!(qerror(0.0, 0.0), 1.0);
    }

    #[test]
    fn qerror_is_symmetric_in_ratio() {
        let over = qerror(10.0, 100.0);
        let under = qerror(100.0, 10.0);
        assert!((over - under).abs() < 1e-12);
        assert!(over > 9.0);
    }

    #[test]
    fn qerror_handles_zero_and_negative() {
        assert!((qerror(0.0, 9.0) - 10.0).abs() < 1e-12);
        // Negative estimates clamp to zero.
        assert_eq!(qerror(0.0, -5.0), 1.0);
    }

    #[test]
    fn percentile_table_monotone() {
        let truths: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ests: Vec<f64> = (0..100).map(|i| (i as f64) * 2.0).collect();
        let t = qerror_percentiles(&truths, &ests, &[50.0, 75.0, 90.0, 95.0]);
        for w in t.rows.windows(2) {
            assert!(
                w[0].1 <= w[1].1,
                "percentiles must be monotone: {:?}",
                t.rows
            );
        }
    }

    #[test]
    fn median_qerror_of_exact_estimates_is_one() {
        let y = [5.0, 10.0, 20.0];
        let t = qerror_percentiles(&y, &y, &[50.0]);
        assert_eq!(t.rows[0].1, 1.0);
    }

    #[test]
    fn display_caps_blown_up_values() {
        assert_eq!(QErrorTable::display_value(2.345, 1e4), "2.35");
        // {:.0} rounds half-to-even.
        assert_eq!(QErrorTable::display_value(1234.5, 1e4), "1234");
        assert_eq!(QErrorTable::display_value(5e4, 1e4), "-");
        assert_eq!(QErrorTable::display_value(f64::INFINITY, 1e4), "-");
    }
}
