//! Statistics for heavy-tailed network measurements.
//!
//! Implements every statistical device the paper uses:
//!
//! * [`histogram`] — degree histograms `n_t(d)`, probabilities `p_t(d)`,
//!   cumulative probabilities `P_t(d)` and `d_max`,
//! * [`binning`] — binary-logarithmic pooling: the differential cumulative
//!   probability `D_t(d_i) = P_t(d_i) − P_t(d_{i−1})` with `d_i = 2^i`
//!   (Clauset–Shalizi–Newman-style log binning), used by every figure,
//! * [`zipf`] — the Zipf–Mandelbrot distribution
//!   `p(d) ∝ 1/(d + δ)^α`: exact pmf, fast inverse-CDF sampling, and
//!   grid fitting against log-binned data (Fig 3),
//! * [`fit`] — the three temporal models of Fig 5 (Gaussian, Cauchy, and
//!   the paper's modified Cauchy `β/(β + |t−t0|^α)`), fit exactly as the
//!   paper describes: scan an `(α, β)` grid, normalize to the peak, and
//!   minimize the `| |^{1/2}` norm,
//! * [`norms`] — p-norms including the fractional `p = 1/2` norm the paper
//!   prefers for heavy-tailed residuals,
//! * [`sample`] — an alias-method table for O(1) weighted sampling, the
//!   workhorse of synthetic packet emission,
//! * [`summary`] — scalar summaries (mean, variance, quantiles).

pub mod binning;
pub mod fit;
pub mod histogram;
pub mod interval;
pub mod norms;
pub mod powerlaw;
pub mod regress;
pub mod sample;
pub mod summary;
pub mod zipf;

pub use binning::{differential_cumulative, log2_bin, Log2Binned};
pub use fit::{fit_cauchy, fit_gaussian, fit_modified_cauchy, ModCauchyFit, TemporalModel};
pub use histogram::DegreeHistogram;
pub use interval::{wilson, wilson95, Interval};
pub use norms::{pnorm, residual_pnorm};
pub use powerlaw::{fit_power_law, PowerLawFit};
pub use sample::AliasTable;
pub use zipf::{fit_zipf_mandelbrot, ZipfMandelbrot, ZmFit};
