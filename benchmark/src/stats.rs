//! Order statistics and digests shared by every workload.

/// The percentiles the driver may report as a tail, lowest first.
pub const TAIL_LADDER: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

/// Nearest-rank position (1-based) of the `p`-th percentile among `n`
/// samples. `p` is taken to a tenth of a percent and the rank computed in
/// integers: in floating point 99.9 % of 10,000 is 9990.000000000002, and
/// its ceiling is one rank too high.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted sample (`p` in 0..=100).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// Sort a copy ascending (total order, so NaNs cannot poison the sort).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest-rank p50) of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 50.0)
}

/// How many samples lie strictly beyond the nearest-rank `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it, and its value; `None` when even p75 has fewer (the sample is
/// then too small to say anything about a tail).
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| samples_beyond(sorted.len(), p) >= 10)
        .map(|&p| (p, percentile_sorted(sorted, p)))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), so `--aa` reports the same spread
/// the acceptance rule is written in.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let q = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

/// FNV-1a 64 over bytes, continuing from `h`.
pub fn fnv1a_from(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64 offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 of a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_BASIS, bytes)
}

/// Digest over reference tuples: every simulated statistic a workload
/// checks its ops against, folded in a fixed order. A speed-only change
/// must leave it identical at a fixed `--seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimDigest(u64);

impl Default for SimDigest {
    fn default() -> Self {
        SimDigest(FNV_BASIS)
    }
}

impl SimDigest {
    pub fn add(&mut self, words: &[u64]) {
        for w in words {
            self.0 = fnv1a_from(self.0, &w.to_le_bytes());
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// splitmix64: derives every scenario seed and shuffle from `--seed`.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 90.0), 90.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: p90 has exactly 10 beyond, p95 only 5.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        // 1,000 samples reach p99; 10,000 reach p99.9.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().0, 99.0);
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().0, 99.9);
        // 39 samples: p75 leaves 9 beyond — no tail at all.
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), Some((75.0, 30.0)));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]);
        assert_eq!((q1, q3), (10.0, 40.0));
    }

    #[test]
    fn fnv_digest_is_stable() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let mut d = SimDigest::default();
        d.add(&[1, 2, 3]);
        let mut e = SimDigest::default();
        e.add(&[1]);
        e.add(&[2, 3]);
        assert_eq!(d, e, "chunking must not matter");
        let mut f = SimDigest::default();
        f.add(&[3, 2, 1]);
        assert_ne!(d, f, "order must matter");
    }
}
