//! Fig 3: source packet degree distributions and Zipf–Mandelbrot fits.

use crate::config::AnalysisConfig;
use crate::degree::WindowDegrees;
use obscor_stats::binning::{differential_cumulative, Log2Binned};
use obscor_stats::powerlaw::{fit_power_law, PowerLawFit};
use obscor_stats::zipf::{fit_zipf_mandelbrot_many, ZmFit};

/// The Fig 3 content for one window.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeDistribution {
    /// Window label.
    pub window_label: String,
    /// Differential cumulative probability `D_t(d_i)` per log2 bin.
    pub binned: Log2Binned,
    /// Largest observed degree.
    pub d_max: u64,
    /// The Zipf–Mandelbrot grid fit.
    pub fit: Option<ZmFit>,
    /// The Clauset–Shalizi–Newman tail fit (MLE exponent above a
    /// KS-selected cutoff) — an independent cross-check of the grid fit.
    pub tail_fit: Option<PowerLawFit>,
}

/// Compute the binned distribution and its ZM fit for one window.
pub fn degree_distribution(window: &WindowDegrees, config: &AnalysisConfig) -> DegreeDistribution {
    binned_distribution(&window.label, window.degrees.iter().map(|&(_, d)| d), config)
}

/// Compute the binned distribution with ZM fit for *any* positive-integer
/// network quantity (Fig 2's menu: source packets, fan-out, fan-in,
/// destination packets, link packets...). Zero values are skipped.
pub fn binned_distribution(
    label: &str,
    degrees: impl IntoIterator<Item = u64>,
    config: &AnalysisConfig,
) -> DegreeDistribution {
    let mut dist = bin_quantity(label, degrees);
    fit_zm([&mut dist], config);
    dist
}

/// Bin one quantity and fit its CSN tail; the ZM fit is left to [`fit_zm`],
/// so a caller can bin each quantity as it arrives (only one quantity's
/// raw values alive at a time) and fit them all in one sweep.
pub(crate) fn bin_quantity(
    label: &str,
    degrees: impl IntoIterator<Item = u64>,
) -> DegreeDistribution {
    let raw: Vec<u64> = degrees.into_iter().filter(|&d| d > 0).collect();
    let (binned, d_max) = {
        let _span = obscor_obs::span("core.binning");
        obscor_obs::counter("core.binning.values_total").add(raw.len() as u64);
        let h = obscor_stats::DegreeHistogram::from_degrees(raw.iter().copied());
        (differential_cumulative(&h), h.d_max())
    };
    let tail_fit = {
        let _span = obscor_obs::span("core.tail_fit");
        fit_power_law(&raw, 50)
    };
    DegreeDistribution { window_label: label.to_string(), binned, d_max, fit: None, tail_fit }
}

/// Fill in every distribution's ZM fit from one sweep of the config grid.
/// Each fit equals the distribution's own one-element sweep bit for bit.
pub(crate) fn fit_zm<'a>(
    dists: impl IntoIterator<Item = &'a mut DegreeDistribution>,
    config: &AnalysisConfig,
) {
    let _span = obscor_obs::span("core.zm_fit");
    let dists: Vec<&mut DegreeDistribution> = dists.into_iter().collect();
    obscor_obs::counter("core.zm_fit.fits_total").add(dists.len() as u64);
    let inputs: Vec<(&Log2Binned, u64)> =
        dists.iter().map(|d| (&d.binned, d.d_max.max(2))).collect();
    let fits = fit_zipf_mandelbrot_many(&inputs, &config.zm_alphas, &config.zm_deltas);
    for (dist, fit) in dists.into_iter().zip(fits) {
        dist.fit = fit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obscor_stats::zipf::ZipfMandelbrot;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn synthetic_window(alpha: f64, delta: f64, n: usize) -> WindowDegrees {
        let zm = ZipfMandelbrot::new(alpha, delta, 1 << 12);
        let mut rng = StdRng::seed_from_u64(5);
        let degrees: Vec<(u32, u64)> =
            zm.sample_n(&mut rng, n).into_iter().enumerate().map(|(i, d)| (i as u32, d)).collect();
        WindowDegrees { label: "syn".into(), coord: 0.5, month: 0, degrees }
    }

    #[test]
    fn distribution_mass_is_one() {
        let w = synthetic_window(1.5, 1.0, 20_000);
        let dist = degree_distribution(&w, &AnalysisConfig::fast());
        assert!((dist.binned.total() - 1.0).abs() < 1e-9);
        assert!(dist.d_max >= 1);
    }

    #[test]
    fn fit_recovers_planted_exponent() {
        let w = synthetic_window(1.5, 0.0, 50_000);
        let cfg = AnalysisConfig {
            zm_deltas: vec![0.0],
            ..AnalysisConfig::fast()
        };
        let dist = degree_distribution(&w, &cfg);
        let fit = dist.fit.unwrap();
        assert!(
            (fit.alpha - 1.5).abs() <= 0.25,
            "recovered alpha {} for planted 1.5",
            fit.alpha
        );
    }

    #[test]
    fn shared_sweep_equals_one_call_per_quantity() {
        let cfg = AnalysisConfig::fast();
        let windows = [synthetic_window(1.5, 1.0, 5_000), synthetic_window(2.2, 0.0, 300)];
        let quantities: Vec<(&str, Vec<u64>)> = vec![
            ("a", windows[0].degrees.iter().map(|&(_, d)| d).collect()),
            ("b", windows[1].degrees.iter().map(|&(_, d)| d * 3).collect()),
            ("empty", vec![0, 0]),
            ("two", vec![1, 2]),
        ];
        let mut shared: Vec<DegreeDistribution> =
            quantities.iter().map(|(l, d)| bin_quantity(l, d.iter().copied())).collect();
        fit_zm(&mut shared, &cfg);
        let one_by_one: Vec<DegreeDistribution> =
            quantities.into_iter().map(|(l, d)| binned_distribution(l, d, &cfg)).collect();
        assert_eq!(shared, one_by_one);
        assert!(shared[2].fit.is_none());
        assert!(shared.iter().enumerate().all(|(i, d)| i == 2 || d.fit.is_some()));
    }

    #[test]
    fn empty_window_yields_no_fit() {
        let w = WindowDegrees { label: "e".into(), coord: 0.0, month: 0, degrees: vec![] };
        let dist = degree_distribution(&w, &AnalysisConfig::fast());
        assert!(dist.fit.is_none());
        assert!(dist.binned.is_empty());
    }
}
