//! Figs 5-8: temporal model fits and their parameter trends.
//!
//! Every temporal curve is fit to the modified Cauchy
//! `β/(β + |t−t0|^α)` by the paper's grid procedure (peak-normalized,
//! `| |^{1/2}`-norm objective), and — for the Fig 5 comparison — to the
//! Gaussian and standard Cauchy. The best-fit `α` per degree bin is Fig 7;
//! the one-month drop `1/(β+1)` per bin is Fig 8.

use crate::config::AnalysisConfig;
use crate::temporal::TemporalCurve;
use obscor_stats::fit::{
    fit_cauchy, fit_gaussian, fit_modified_cauchy_grid, one_month_drop, ModCauchyFit,
    SingleParamFit,
};
use rayon::prelude::*;

/// The fits of one temporal curve.
#[derive(Clone, Debug, PartialEq)]
pub struct BinFit {
    /// Window label (`t0`).
    pub window_label: String,
    /// Degree bin index.
    pub bin: u32,
    /// Representative degree `2^bin`.
    pub d: u64,
    /// Sources in the bin.
    pub n_sources: usize,
    /// The modified-Cauchy fit.
    pub modified_cauchy: ModCauchyFit,
    /// Gaussian comparison fit (Fig 5).
    pub gaussian: Option<SingleParamFit>,
    /// Standard-Cauchy comparison fit (Fig 5).
    pub cauchy: Option<SingleParamFit>,
}

impl BinFit {
    /// Fig 8's quantity: the relative one-month drop `1/(β+1)`.
    pub fn one_month_drop(&self) -> f64 {
        one_month_drop(self.modified_cauchy.beta)
    }
}

/// Fit one curve with all three models.
pub fn fit_curve(curve: &TemporalCurve, config: &AnalysisConfig) -> Option<BinFit> {
    let mc = fit_modified_cauchy_grid(
        &curve.lags,
        &curve.fractions,
        &config.mc_alphas,
        &config.mc_betas,
    )?;
    Some(BinFit {
        window_label: curve.window_label.clone(),
        bin: curve.bin,
        d: curve.d,
        n_sources: curve.n_sources,
        modified_cauchy: mc,
        gaussian: fit_gaussian(&curve.lags, &curve.fractions),
        cauchy: fit_cauchy(&curve.lags, &curve.fractions),
    })
}

/// Fit every curve, dropping unfittable ones (all-zero data), in curve
/// order. The `par_iter` runs sequentially under the vendored `rayon`;
/// each fit is independent, so the result does not depend on scheduling.
pub fn fit_curves(curves: &[TemporalCurve], config: &AnalysisConfig) -> Vec<BinFit> {
    let _span = obscor_obs::span("core.fit_curves");
    let fits: Vec<BinFit> = curves.par_iter().filter_map(|c| fit_curve(c, config)).collect();
    obscor_obs::counter("core.fit_curves.fitted_total").add(fits.len() as u64);
    obscor_obs::counter("core.fit_curves.dropped_total").add((curves.len() - fits.len()) as u64);
    fits
}

/// Fig 7 series: `(d, mean best-fit α over windows)` per bin.
pub fn alpha_by_degree(fits: &[BinFit]) -> Vec<(u64, f64)> {
    aggregate_by_bin(fits, |f| f.modified_cauchy.alpha)
}

/// Fig 8 series: `(d, mean one-month drop)` per bin.
pub fn drop_by_degree(fits: &[BinFit]) -> Vec<(u64, f64)> {
    aggregate_by_bin(fits, |f| f.one_month_drop())
}

/// Fig 7 with error bars: `(d, mean α, std-dev over windows)` per bin.
pub fn alpha_by_degree_with_spread(fits: &[BinFit]) -> Vec<(u64, f64, f64)> {
    aggregate_by_bin_with_spread(fits, |f| f.modified_cauchy.alpha)
}

/// Fig 8 with error bars: `(d, mean drop, std-dev over windows)` per bin.
pub fn drop_by_degree_with_spread(fits: &[BinFit]) -> Vec<(u64, f64, f64)> {
    aggregate_by_bin_with_spread(fits, |f| f.one_month_drop())
}

fn aggregate_by_bin(fits: &[BinFit], value: impl Fn(&BinFit) -> f64) -> Vec<(u64, f64)> {
    aggregate_by_bin_with_spread(fits, value)
        .into_iter()
        .map(|(d, mean, _)| (d, mean))
        .collect()
}

fn aggregate_by_bin_with_spread(
    fits: &[BinFit],
    value: impl Fn(&BinFit) -> f64,
) -> Vec<(u64, f64, f64)> {
    let mut by_bin: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for f in fits {
        by_bin.entry(f.d).or_default().push(value(f));
    }
    by_bin
        .into_iter()
        .map(|(d, vs)| {
            let mean = vs.iter().sum::<f64>() / vs.len() as f64;
            let spread = obscor_stats::summary::std_dev(&vs);
            (d, mean, spread)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use obscor_stats::TemporalModel;

    fn curve_from_model(alpha: f64, beta: f64, bin: u32, label: &str) -> TemporalCurve {
        let model = TemporalModel::ModifiedCauchy { alpha, beta };
        let coord = 4.5;
        let months: Vec<usize> = (0..15).collect();
        let lags: Vec<f64> = months.iter().map(|&m| (m as f64 + 0.5) - coord).collect();
        let fractions: Vec<f64> = lags.iter().map(|&t| 0.8 * model.eval(t)).collect();
        TemporalCurve {
            window_label: label.into(),
            coord,
            bin,
            d: 1 << bin,
            n_sources: 100,
            months,
            lags,
            fractions,
        }
    }

    #[test]
    fn fit_recovers_planted_curve() {
        let c = curve_from_model(1.0, 2.0, 8, "w");
        let f = fit_curve(&c, &AnalysisConfig::default()).unwrap();
        assert!((f.modified_cauchy.alpha - 1.0).abs() < 0.1, "alpha {}", f.modified_cauchy.alpha);
        assert!((f.modified_cauchy.beta - 2.0).abs() < 0.5, "beta {}", f.modified_cauchy.beta);
        // Drop = 1/(beta+1) ≈ 1/3.
        assert!((f.one_month_drop() - 1.0 / 3.0).abs() < 0.08);
    }

    #[test]
    fn modified_cauchy_beats_gaussian() {
        let c = curve_from_model(1.0, 1.0, 8, "w");
        let f = fit_curve(&c, &AnalysisConfig::default()).unwrap();
        assert!(f.modified_cauchy.residual < f.gaussian.unwrap().residual);
    }

    #[test]
    fn all_zero_curve_is_dropped() {
        let mut c = curve_from_model(1.0, 1.0, 5, "w");
        c.fractions.iter_mut().for_each(|v| *v = 0.0);
        assert!(fit_curve(&c, &AnalysisConfig::default()).is_none());
        assert!(fit_curves(&[c], &AnalysisConfig::default()).is_empty());
    }

    #[test]
    fn aggregation_averages_across_windows() {
        let curves = vec![
            curve_from_model(0.8, 1.0, 8, "w0"),
            curve_from_model(1.2, 1.0, 8, "w1"),
            curve_from_model(1.0, 4.0, 10, "w0"),
        ];
        let fits = fit_curves(&curves, &AnalysisConfig::default());
        assert_eq!(fits.len(), 3);
        let alphas = alpha_by_degree(&fits);
        assert_eq!(alphas.len(), 2);
        let (d8, mean8) = alphas[0];
        assert_eq!(d8, 256);
        assert!((mean8 - 1.0).abs() < 0.15, "mean alpha {mean8}");
        let drops = drop_by_degree(&fits);
        let (d10, drop10) = drops[1];
        assert_eq!(d10, 1024);
        assert!((drop10 - 0.2).abs() < 0.05, "drop {drop10}");
    }

    #[test]
    fn spread_reflects_window_disagreement() {
        let curves = vec![
            curve_from_model(0.6, 1.0, 8, "w0"),
            curve_from_model(1.4, 1.0, 8, "w1"),
            curve_from_model(1.0, 1.0, 10, "w0"),
            curve_from_model(1.0, 1.0, 10, "w1"),
        ];
        let fits = fit_curves(&curves, &AnalysisConfig::default());
        let with_spread = alpha_by_degree_with_spread(&fits);
        let disagreeing = with_spread.iter().find(|(d, _, _)| *d == 256).unwrap();
        let agreeing = with_spread.iter().find(|(d, _, _)| *d == 1024).unwrap();
        assert!(
            disagreeing.2 > agreeing.2,
            "spread {} should exceed {}",
            disagreeing.2,
            agreeing.2
        );
        // Means are consistent with the two-point aggregation.
        let plain = alpha_by_degree(&fits);
        for ((d1, m1), (d2, m2, _)) in plain.iter().zip(&with_spread) {
            assert_eq!(d1, d2);
            assert!((m1 - m2).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_fitting_matches_serial() {
        let curves: Vec<TemporalCurve> =
            (4..9).map(|b| curve_from_model(1.0, 2.0, b, "w")).collect();
        let cfg = AnalysisConfig::fast();
        let par = fit_curves(&curves, &cfg);
        let ser: Vec<BinFit> = curves.iter().filter_map(|c| fit_curve(c, &cfg)).collect();
        assert_eq!(par, ser);
    }
}
