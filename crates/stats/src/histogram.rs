//! Degree histograms `n_t(d)` and their derived probabilities.

use std::collections::BTreeMap;

/// Histogram of a positive-integer network quantity ("degree" `d` in the
/// paper: source packets, fan-out, etc.).
///
/// Stores exact per-value counts in sorted order, from which the paper's
/// probability `p_t(d)`, cumulative probability `P_t(d)`, and `d_max` are
/// derived.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegreeHistogram {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl DegreeHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an iterator of observed degrees. Zero degrees are
    /// rejected (a source with no packets is not a source).
    ///
    /// # Panics
    /// Panics on a zero degree.
    pub fn from_degrees<I: IntoIterator<Item = u64>>(degrees: I) -> Self {
        let mut h = Self::new();
        for d in degrees {
            h.add(d);
        }
        h
    }

    /// Record one observation of degree `d`.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn add(&mut self, d: u64) {
        assert!(d > 0, "degrees are positive by construction");
        *self.counts.entry(d).or_insert(0) += 1;
        self.total += 1;
    }

    /// Record `n` observations of degree `d`.
    pub fn add_count(&mut self, d: u64, n: u64) {
        assert!(d > 0, "degrees are positive by construction");
        if n == 0 {
            return;
        }
        *self.counts.entry(d).or_insert(0) += n;
        self.total += n;
    }

    /// The count `n_t(d)`.
    pub fn count(&self, d: u64) -> u64 {
        self.counts.get(&d).copied().unwrap_or(0)
    }

    /// Total observations `Σ_d n_t(d)` (the normalization factor).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The largest observed degree `d_max`.
    pub fn d_max(&self) -> u64 {
        self.counts.keys().next_back().copied().unwrap_or(0)
    }

    /// The probability `p_t(d) = n_t(d) / Σ n_t`.
    pub fn probability(&self, d: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.count(d) as f64 / self.total as f64
    }

    /// The cumulative probability `P_t(d) = Σ_{i ≤ d} p_t(i)`.
    pub fn cumulative(&self, d: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let below: u64 = self.counts.range(..=d).map(|(_, &c)| c).sum();
        below as f64 / self.total as f64
    }

    /// Iterate `(degree, count)` in increasing degree order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&d, &c)| (d, c))
    }

    /// Mean degree.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u128 = self.counts.iter().map(|(&d, &c)| d as u128 * c as u128).sum();
        sum as f64 / self.total as f64
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &DegreeHistogram) {
        for (d, c) in other.iter() {
            self.add_count(d, c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DegreeHistogram {
        DegreeHistogram::from_degrees(vec![1, 1, 1, 2, 4, 4, 8])
    }

    #[test]
    fn counts_and_total() {
        let h = sample();
        assert_eq!(h.count(1), 3);
        assert_eq!(h.count(4), 2);
        assert_eq!(h.count(3), 0);
        assert_eq!(h.total(), 7);
        assert_eq!(h.d_max(), 8);
    }

    #[test]
    fn probabilities_normalize() {
        let h = sample();
        let mass: f64 = h.iter().map(|(d, _)| h.probability(d)).sum();
        assert!((mass - 1.0).abs() < 1e-12);
        assert!((h.probability(1) - 3.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn cumulative_is_monotone_and_reaches_one() {
        let h = sample();
        assert!((h.cumulative(h.d_max()) - 1.0).abs() < 1e-12);
        assert!(h.cumulative(1) <= h.cumulative(2));
        assert!((h.cumulative(2) - 4.0 / 7.0).abs() < 1e-12);
        assert_eq!(h.cumulative(0), 0.0);
    }

    #[test]
    fn empty_histogram() {
        let h = DegreeHistogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.d_max(), 0);
        assert_eq!(h.probability(5), 0.0);
        assert_eq!(h.cumulative(5), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn mean_matches_manual() {
        let h = sample();
        let manual = (1 + 1 + 1 + 2 + 4 + 4 + 8) as f64 / 7.0;
        assert!((h.mean() - manual).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = sample();
        let b = DegreeHistogram::from_degrees(vec![1, 16]);
        a.merge(&b);
        assert_eq!(a.count(1), 4);
        assert_eq!(a.d_max(), 16);
        assert_eq!(a.total(), 9);
    }

    #[test]
    fn add_count_zero_is_noop() {
        let mut h = DegreeHistogram::new();
        h.add_count(5, 0);
        assert_eq!(h.total(), 0);
        assert_eq!(h.count(5), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_degree_rejected() {
        let mut h = DegreeHistogram::new();
        h.add(0);
    }
}
