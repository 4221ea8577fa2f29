//! The Zipf–Mandelbrot distribution `p(d) ∝ 1/(d + δ)^α`.
//!
//! The paper reports that CAIDA source packet counts are well approximated
//! by this two-parameter power law (Fig 3). This module provides the exact
//! pmf on a finite support `1..=d_max`, inverse-CDF sampling, log2-binned
//! model curves, and the paper's grid fit: bin the model identically to the
//! data, normalize both, and minimize the `| |^{1/2}` norm.

use crate::binning::{log2_bin, Log2Binned};
use crate::norms::half_norm;
use rand::{Rng, RngExt};

/// A Zipf–Mandelbrot distribution on `1..=d_max`.
#[derive(Clone, Debug)]
pub struct ZipfMandelbrot {
    /// Tail exponent `α_zm > 0`.
    pub alpha: f64,
    /// Flattening offset `δ_zm ≥ 0`.
    pub delta: f64,
    /// Largest degree in the support.
    pub d_max: u64,
    /// Cumulative distribution table, `cdf[i] = P(d ≤ i+1)`.
    cdf: Vec<f64>,
}

impl ZipfMandelbrot {
    /// Construct and normalize on `1..=d_max`.
    ///
    /// # Panics
    /// Panics unless `alpha > 0`, `delta ≥ 0`, `1 ≤ d_max ≤ 2^26` (the
    /// table-based sampler bound).
    pub fn new(alpha: f64, delta: f64, d_max: u64) -> Self {
        assert!(alpha > 0.0, "alpha must be positive");
        assert!(delta >= 0.0, "delta must be non-negative");
        assert!((1..=1u64 << 26).contains(&d_max), "d_max out of sampler range");
        let mut cdf = Vec::with_capacity(d_max as usize);
        let mut acc = 0.0f64;
        for d in 1..=d_max {
            acc += (d as f64 + delta).powf(-alpha);
            cdf.push(acc);
        }
        let norm = acc;
        for c in &mut cdf {
            *c /= norm;
        }
        Self { alpha, delta, d_max, cdf }
    }

    /// The probability mass at `d` (0 outside the support).
    pub fn pmf(&self, d: u64) -> f64 {
        if d == 0 || d > self.d_max {
            return 0.0;
        }
        let i = (d - 1) as usize;
        let lo = match i.checked_sub(1) {
            Some(prev) => self.cdf[prev],
            None => 0.0,
        };
        self.cdf[i] - lo
    }

    /// The cumulative probability `P(D ≤ d)`.
    pub fn cdf(&self, d: u64) -> f64 {
        if d == 0 {
            return 0.0;
        }
        let i = (d.min(self.d_max) - 1) as usize;
        self.cdf[i]
    }

    /// Draw one degree by inverse-CDF binary search.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.random();
        let i = self.cdf.partition_point(|&c| c < u);
        (i as u64 + 1).min(self.d_max)
    }

    /// Draw `n` degrees.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// The model pooled into the paper's log2 bins (normalized pmf mass per
    /// bin) — the curve drawn through the data in Fig 3.
    pub fn binned(&self) -> Log2Binned {
        let n_bins = log2_bin(self.d_max) as usize + 1;
        let mut values = vec![0.0; n_bins];
        for d in 1..=self.d_max {
            values[log2_bin(d) as usize] += self.pmf(d);
        }
        Log2Binned { values }
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        (1..=self.d_max).map(|d| d as f64 * self.pmf(d)).sum()
    }
}

/// Result of a Zipf–Mandelbrot grid fit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ZmFit {
    /// Best-fit exponent.
    pub alpha: f64,
    /// Best-fit offset.
    pub delta: f64,
    /// `| |^{1/2}`-norm residual at the optimum.
    pub residual: f64,
}

/// Fit a Zipf–Mandelbrot model to a log2-binned empirical distribution by
/// scanning an `(α, δ)` grid (the paper's procedure, with the same
/// fractional-norm objective). Bins beyond the data's support are ignored;
/// both curves are normalized before comparison.
///
/// Returns `None` if the data is empty or a grid is empty. The
/// one-distribution case of [`fit_zipf_mandelbrot_many`].
pub fn fit_zipf_mandelbrot(
    data: &Log2Binned,
    d_max: u64,
    alphas: &[f64],
    deltas: &[f64],
) -> Option<ZmFit> {
    fit_zipf_mandelbrot_many(&[(data, d_max)], alphas, deltas).pop().flatten()
}

/// Fit every `(data, d_max)` input over one walk of the `(α, δ)` grid.
///
/// Each grid point's unnormalized cumulative masses
/// `Σ_{d ≤ k} (d + δ)^{-α}` do not depend on `d_max`, so they are built
/// once per point into one buffer sized to the largest `d_max` and every
/// input is scored from its own prefix of it. For an integer `δ = m` (no
/// larger than that `d_max`), `d as f64 + δ` is exactly the integer
/// `d + m`, so its terms are read at offset `m` from one table of
/// `(k as f64).powf(−α)` filled once per α and shared by every integer
/// `δ`; a fractional `δ` computes its own `powf`s. Per input the result is
/// bit-identical to fitting [`ZipfMandelbrot::new`]`(α, δ, d_max).binned()`
/// point by point: the same `powf` inputs, the same running sum, the same
/// `cdf` divisions and differences in the same order, and on a residual
/// tie the first point in α-major, δ-minor order wins. Holds
/// `O(max d_max)` floats.
///
/// Element `i` is `None` if input `i`'s data is empty or a grid is empty.
///
/// # Panics
/// Panics unless every grid `α > 0`, every `δ ≥ 0`, and every non-empty
/// input's `1 ≤ d_max ≤ 2^26` — the bounds of [`ZipfMandelbrot::new`].
pub fn fit_zipf_mandelbrot_many(
    inputs: &[(&Log2Binned, u64)],
    alphas: &[f64],
    deltas: &[f64],
) -> Vec<Option<ZmFit>> {
    let mut best: Vec<Option<ZmFit>> = vec![None; inputs.len()];
    if alphas.is_empty() || deltas.is_empty() {
        return best;
    }
    // (input index, normalized target, model support length).
    let targets: Vec<(usize, Log2Binned, usize)> = inputs
        .iter()
        .enumerate()
        .filter(|(_, (data, _))| !data.is_empty())
        .map(|(i, (data, d_max))| {
            assert!((1..=1u64 << 26).contains(d_max), "d_max out of sampler range");
            let support = usize::try_from(*d_max).expect("d_max ≤ 2^26 fits in usize");
            (i, data.normalized(), support)
        })
        .collect();
    let Some(longest) = targets.iter().map(|&(_, _, support)| support).max() else {
        return best;
    };
    assert!(alphas.iter().all(|&a| a > 0.0), "alpha must be positive");
    assert!(deltas.iter().all(|&d| d >= 0.0), "delta must be non-negative");
    let offsets: Vec<Option<usize>> =
        deltas.iter().map(|&delta| integer_offset(delta, longest)).collect();
    let table_len = offsets.iter().flatten().max().map_or(0, |&m| longest + m);
    let mut powers = vec![0.0f64; table_len];
    let mut cumulative = vec![0.0f64; longest];
    let mut model: Vec<f64> = Vec::new();
    for &alpha in alphas {
        for (slot, k) in powers.iter_mut().zip(1u64..) {
            *slot = (k as f64).powf(-alpha);
        }
        for (&delta, offset) in deltas.iter().zip(&offsets) {
            let mut acc = 0.0f64;
            match offset {
                Some(m) => {
                    for (slot, &term) in cumulative.iter_mut().zip(&powers[*m..]) {
                        acc += term;
                        *slot = acc;
                    }
                }
                None => {
                    for (slot, d) in cumulative.iter_mut().zip(1u64..) {
                        acc += (d as f64 + delta).powf(-alpha);
                        *slot = acc;
                    }
                }
            }
            for (i, target, support) in &targets {
                let residual = score(&cumulative[..*support], target, &mut model);
                if best[*i].is_none_or(|b| residual.total_cmp(&b.residual).is_lt()) {
                    best[*i] = Some(ZmFit { alpha, delta, residual });
                }
            }
        }
    }
    best
}

/// `δ` as an offset into the per-α power table: `Some(m)` when `δ` is
/// exactly the integer `m` and `m ≤ longest` (which bounds the table at
/// twice the longest support), `None` otherwise.
fn integer_offset(delta: f64, longest: usize) -> Option<usize> {
    let m = delta as u64;
    if !(m as f64).total_cmp(&delta).is_eq() {
        return None;
    }
    usize::try_from(m).ok().filter(|&m| m <= longest)
}

/// The `| |^{1/2}` residual of the model whose unnormalized cumulative
/// masses are `cumulative` (its support is `1..=cumulative.len()`) against
/// a normalized `target`, over the target's bins. `model` is a reused buffer.
fn score(cumulative: &[f64], target: &Log2Binned, model: &mut Vec<f64>) -> f64 {
    model.clear();
    model.resize(target.len(), 0.0);
    let norm = cumulative.last().copied().unwrap_or(1.0);
    let mut prev = 0.0f64;
    // Bin 0 holds d = 1 and bin i holds 2^(i−1) < d ≤ 2^i (`log2_bin`),
    // so with `cumulative[d − 1]` bin i reads `cumulative[2^(i−1)..2^i]`,
    // and each degree still adds to its bin in degree order.
    let (mut start, mut end) = (0usize, 1usize);
    for bin in model.iter_mut() {
        let stop = end.min(cumulative.len());
        for &acc in &cumulative[start..stop] {
            let cdf = acc / norm;
            *bin += cdf - prev;
            prev = cdf;
        }
        start = stop;
        end = end.saturating_mul(2);
    }
    let total: f64 = model.iter().sum();
    if total > 0.0 {
        for v in model.iter_mut() {
            *v /= total;
        }
    }
    half_norm(model.iter().copied(), &target.values)
}

/// A sensible default α grid for source-packet fits.
pub fn default_alpha_grid() -> Vec<f64> {
    (4..=40).map(|i| i as f64 * 0.1).collect() // 0.4 .. 4.0
}

/// A sensible default δ grid.
pub fn default_delta_grid() -> Vec<f64> {
    vec![0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_normalizes() {
        let zm = ZipfMandelbrot::new(1.8, 2.0, 4096);
        let total: f64 = (1..=4096).map(|d| zm.pmf(d)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pmf_is_decreasing() {
        let zm = ZipfMandelbrot::new(2.0, 1.0, 1000);
        for d in 1..999 {
            assert!(zm.pmf(d) >= zm.pmf(d + 1));
        }
    }

    #[test]
    fn pmf_outside_support_is_zero() {
        let zm = ZipfMandelbrot::new(1.5, 0.0, 100);
        assert_eq!(zm.pmf(0), 0.0);
        assert_eq!(zm.pmf(101), 0.0);
    }

    #[test]
    fn cdf_endpoints() {
        let zm = ZipfMandelbrot::new(1.5, 0.5, 256);
        assert_eq!(zm.cdf(0), 0.0);
        assert!((zm.cdf(256) - 1.0).abs() < 1e-12);
        assert!((zm.cdf(10_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_pmf() {
        let zm = ZipfMandelbrot::new(1.6, 1.0, 1024);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000usize;
        let mut count1 = 0usize;
        for _ in 0..n {
            if zm.sample(&mut rng) == 1 {
                count1 += 1;
            }
        }
        let expect = zm.pmf(1);
        let got = count1 as f64 / n as f64;
        assert!(
            (got - expect).abs() < 0.01,
            "P(d=1): sampled {got:.4}, pmf {expect:.4}"
        );
    }

    #[test]
    fn binned_mass_is_conserved() {
        let zm = ZipfMandelbrot::new(1.9, 3.0, 2048);
        assert!((zm.binned().total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fit_recovers_planted_parameters() {
        let truth = ZipfMandelbrot::new(1.8, 1.0, 4096);
        let data = truth.binned();
        let fit = fit_zipf_mandelbrot(
            &data,
            4096,
            &[1.2, 1.5, 1.8, 2.1, 2.4],
            &[0.0, 0.5, 1.0, 2.0],
        )
        .unwrap();
        assert_eq!(fit.alpha, 1.8);
        assert_eq!(fit.delta, 1.0);
        assert!(fit.residual < 1e-9);
    }

    #[test]
    fn fit_recovers_from_sampled_data() {
        let truth = ZipfMandelbrot::new(2.0, 0.0, 4096);
        let mut rng = StdRng::seed_from_u64(11);
        let degrees = truth.sample_n(&mut rng, 100_000);
        let h = crate::histogram::DegreeHistogram::from_degrees(degrees);
        let data = crate::binning::differential_cumulative(&h);
        let fit = fit_zipf_mandelbrot(
            &data,
            4096,
            &crate::zipf::default_alpha_grid(),
            &[0.0, 0.5, 1.0],
        )
        .unwrap();
        assert!(
            (fit.alpha - 2.0).abs() <= 0.2,
            "recovered alpha {} from planted 2.0",
            fit.alpha
        );
    }

    #[test]
    fn fit_empty_inputs_give_none() {
        assert!(fit_zipf_mandelbrot(&Log2Binned::default(), 100, &[1.0], &[0.0]).is_none());
        let d = Log2Binned { values: vec![1.0] };
        assert!(fit_zipf_mandelbrot(&d, 100, &[], &[0.0]).is_none());
    }

    #[test]
    fn delta_flattens_the_head() {
        // Larger delta reduces the head-to-tail ratio.
        let steep = ZipfMandelbrot::new(2.0, 0.0, 1000);
        let flat = ZipfMandelbrot::new(2.0, 20.0, 1000);
        let ratio_steep = steep.pmf(1) / steep.pmf(10);
        let ratio_flat = flat.pmf(1) / flat.pmf(10);
        assert!(ratio_steep > ratio_flat);
    }

    #[test]
    fn mean_is_finite_and_positive() {
        let zm = ZipfMandelbrot::new(2.5, 1.0, 10_000);
        let m = zm.mean();
        assert!(m > 1.0 && m < 100.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_panics() {
        let _ = ZipfMandelbrot::new(0.0, 1.0, 10);
    }
}
