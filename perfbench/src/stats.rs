//! Small numeric helpers: order statistics, process memory, digests.

use std::time::Instant;

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// closest ranks; `NaN` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MB (`VmHWM`), or `NaN`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// 64-bit FNV-1a, folded over any number of byte strings (each
/// length-prefixed so boundaries count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// The digest of one byte string.
    pub fn of(bytes: &[u8]) -> Digest {
        let mut d = Digest::default();
        d.update(bytes);
        d
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn digest_separates_boundaries() {
        let mut a = Digest::default();
        a.update(b"ab");
        a.update(b"c");
        let mut b = Digest::default();
        b.update(b"a");
        b.update(b"bc");
        assert_ne!(a.hex(), b.hex());
    }
}
