//! Binary-logarithmic pooling of heavy-tailed distributions.
//!
//! "Because of the relatively large values of d observed, the measured
//! probability at large d often exhibits large fluctuations. However, the
//! cumulative probability lacks sufficient detail... so it is typical to
//! pool the differential cumulative probability with logarithmic bins in d:
//! `D_t(d_i) = P_t(d_i) − P_t(d_{i−1})` where `d_i = 2^i`."
//!
//! Bin `i` therefore covers the half-open degree interval
//! `(2^{i−1}, 2^i]` for `i ≥ 1`, and bin `0` holds exactly `d = 1`. All of
//! the paper's distributions use this binning so that data sets of
//! different sizes compare consistently.

use crate::histogram::DegreeHistogram;

/// The bin index of degree `d`: the `i` such that `d ∈ (2^{i−1}, 2^i]`
/// (`i = ceil(log2 d)`; `d = 1` maps to bin 0).
///
/// # Panics
/// Panics if `d == 0`.
pub fn log2_bin(d: u64) -> u32 {
    assert!(d > 0, "degrees are positive");
    // ceil(log2(d)) == 64 - (d-1).leading_zeros() for d > 1.
    if d == 1 {
        0
    } else {
        64 - (d - 1).leading_zeros()
    }
}

/// The representative degree `d_i = 2^i` of bin `i`.
pub fn bin_representative(i: u32) -> u64 {
    1u64 << i
}

/// A log2-binned distribution: `values[i]` is the pooled probability (or
/// fraction) attached to representative degree `2^i`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Log2Binned {
    /// Pooled value per bin, indexed by bin number.
    pub values: Vec<f64>,
}

impl Log2Binned {
    /// Number of bins.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether there are no bins.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterate `(d_i, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.values.iter().enumerate().map(|(i, &v)| (bin_representative(i as u32), v))
    }

    /// Total pooled mass.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Normalize so the pooled masses sum to one (no-op on empty/zero).
    pub fn normalized(&self) -> Log2Binned {
        let t = self.total();
        // audit:allow(float-eq) — exact-zero sentinel: only an all-zero histogram sums to literal 0.0
        if t == 0.0 {
            return self.clone();
        }
        Log2Binned { values: self.values.iter().map(|v| v / t).collect() }
    }
}

/// Pool a degree histogram into the paper's differential cumulative
/// probability `D_t(d_i)`.
pub fn differential_cumulative(h: &DegreeHistogram) -> Log2Binned {
    if h.total() == 0 {
        return Log2Binned::default();
    }
    let n_bins = log2_bin(h.d_max()) as usize + 1;
    let mut values = vec![0.0; n_bins];
    for (d, c) in h.iter() {
        values[log2_bin(d) as usize] += c as f64;
    }
    let total = h.total() as f64;
    for v in &mut values {
        *v /= total;
    }
    Log2Binned { values }
}

/// Pool an arbitrary pmf `(d, p(d))` into the same bins (used to bin model
/// distributions identically to data, as required for a fair fit).
pub fn pool_pmf<I: IntoIterator<Item = (u64, f64)>>(pmf: I) -> Log2Binned {
    let mut values: Vec<f64> = Vec::new();
    for (d, p) in pmf {
        let i = log2_bin(d) as usize;
        if i >= values.len() {
            values.resize(i + 1, 0.0);
        }
        values[i] += p;
    }
    Log2Binned { values }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_boundaries_follow_paper_convention() {
        // Bin i covers (2^{i-1}, 2^i]: powers of two land in their own bin.
        assert_eq!(log2_bin(1), 0);
        assert_eq!(log2_bin(2), 1);
        assert_eq!(log2_bin(3), 2);
        assert_eq!(log2_bin(4), 2);
        assert_eq!(log2_bin(5), 3);
        assert_eq!(log2_bin(8), 3);
        assert_eq!(log2_bin(9), 4);
        assert_eq!(log2_bin(1 << 20), 20);
        assert_eq!(log2_bin((1 << 20) + 1), 21);
    }

    #[test]
    fn representative_is_power_of_two() {
        for i in 0..30 {
            assert_eq!(log2_bin(bin_representative(i)), i);
        }
    }

    #[test]
    fn differential_cumulative_matches_definition() {
        // D(d_i) must equal P(2^i) - P(2^{i-1}) of the raw histogram.
        let h = DegreeHistogram::from_degrees(vec![1, 1, 2, 3, 4, 5, 8, 9, 100]);
        let binned = differential_cumulative(&h);
        for i in 0..binned.len() as u32 {
            let hi = h.cumulative(1 << i);
            let lo = if i == 0 { 0.0 } else { h.cumulative(1 << (i - 1)) };
            assert!(
                (binned.values[i as usize] - (hi - lo)).abs() < 1e-12,
                "bin {i}: {} vs {}",
                binned.values[i as usize],
                hi - lo
            );
        }
    }

    #[test]
    fn pooled_mass_is_conserved() {
        let h = DegreeHistogram::from_degrees(1..=1000);
        let binned = differential_cumulative(&h);
        assert!((binned.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pool_pmf_matches_histogram_pooling() {
        let degrees = vec![1u64, 2, 2, 5, 9, 9, 9];
        let h = DegreeHistogram::from_degrees(degrees.clone());
        let n = degrees.len() as f64;
        let pmf = h.iter().map(|(d, c)| (d, c as f64 / n));
        let a = pool_pmf(pmf);
        let b = differential_cumulative(&h);
        for (x, y) in a.values.iter().zip(&b.values) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_histogram_gives_empty_binning() {
        assert!(differential_cumulative(&DegreeHistogram::new()).is_empty());
    }

    #[test]
    fn normalized_sums_to_one() {
        let b = Log2Binned { values: vec![2.0, 6.0] };
        let n = b.normalized();
        assert!((n.total() - 1.0).abs() < 1e-12);
        assert!((n.values[1] - 0.75).abs() < 1e-12);
    }
}
