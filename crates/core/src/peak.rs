//! Fig 4: peak (coeval) correlation.
//!
//! "A first step is to ask what fraction of the CAIDA Telescope sources
//! are also seen in the GreyNoise observations during the same month."
//! For each log2 degree bin of a window, the fraction of its sources
//! present in the same-month honeyfarm row-key set, next to the paper's
//! empirical law `log2(d)/log2(sqrt(N_V))`.
//!
//! That fraction is the `t = t0` column of the Figs 5–6 curves, so the
//! pipeline reads it off them ([`coeval_peaks`]).
//! [`peak_correlation_bits`] counts it on its own, one bin against one
//! month, and is kept as the reference the pipeline's tests hold the
//! column to.

use crate::degree::WindowDegrees;
use crate::temporal::TemporalCurve;
use obscor_assoc::{BitSet, KeySet};
use obscor_stats::binning::bin_representative;

/// One point of the Fig 4 curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PeakPoint {
    /// Bin index `i` (degrees in `(2^{i-1}, 2^i]`).
    pub bin: u32,
    /// Representative degree `d_i = 2^i`.
    pub d: u64,
    /// Sources in the bin.
    pub n_sources: usize,
    /// Fraction of the bin's sources present in the honeyfarm month.
    pub fraction: f64,
    /// The paper's empirical prediction
    /// `min(1, log2(d_i)/log2(sqrt(N_V)))`.
    pub empirical_law: f64,
}

/// The Fig 4 series for one window.
#[derive(Clone, Debug, PartialEq)]
pub struct PeakCorrelation {
    /// Window label.
    pub window_label: String,
    /// Month the fractions are taken against (the window's own month).
    pub month: usize,
    /// Per-bin points, in increasing degree order.
    pub points: Vec<PeakPoint>,
}

/// The paper's empirical law at representative degree `d`:
/// `min(1, log2(d)/log2(sqrt(N_V)))`, never below 0.
fn empirical_law(d: u64, bright_log2: f64) -> f64 {
    ((d as f64).log2() / bright_log2).clamp(0.0, 1.0)
}

/// Read the Fig 4 series off `window`'s own Figs 5–6 curves: each bin's
/// fraction in the window's month. The curves count every bin against
/// every month, so this is the bin's coeval fraction, bit for bit.
pub fn coeval_peaks(
    window: &WindowDegrees,
    curves: &[TemporalCurve],
    bright_log2: f64,
) -> PeakCorrelation {
    let points = curves
        .iter()
        .map(|c| PeakPoint {
            bin: c.bin,
            d: c.d,
            n_sources: c.n_sources,
            fraction: c.fractions[window.month],
            empirical_law: empirical_law(c.d, bright_log2),
        })
        .collect();
    PeakCorrelation { window_label: window.label.clone(), month: window.month, points }
}

/// Compute the Fig 4 series: per-bin overlap of `window` sources with the
/// coeval honeyfarm source set, interned once through
/// [`BitSet::from_ip_keys`]. Keys not spelled as
/// [`obscor_assoc::convert::ip_key`] renders them never equal a window
/// source and are skipped. Callers holding the coeval set for many
/// windows should intern it once and call [`peak_correlation_bits`].
pub fn peak_correlation(
    window: &WindowDegrees,
    coeval_sources: &KeySet,
    bright_log2: f64,
    min_bin_sources: usize,
) -> PeakCorrelation {
    let coeval = BitSet::from_ip_keys(coeval_sources);
    peak_correlation_bits(window, &coeval, bright_log2, min_bin_sources)
}

/// [`peak_correlation`] over an interned coeval set: per-bin overlaps are
/// popcount-only [`BitSet::overlap_count`]s — word-parallel `AND` on
/// dense chunks, never materializing an intersection. Each fraction
/// divides the bin's shared-source count by its size.
pub fn peak_correlation_bits(
    window: &WindowDegrees,
    coeval_sources: &BitSet,
    bright_log2: f64,
    min_bin_sources: usize,
) -> PeakCorrelation {
    let points = window
        .bin_bit_sets(min_bin_sources)
        .into_iter()
        .map(|(bin, keys)| {
            let d = bin_representative(bin);
            let fraction = keys.overlap_fraction(coeval_sources).unwrap_or(0.0);
            let empirical_law = empirical_law(d, bright_log2);
            PeakPoint { bin, d, n_sources: keys.len(), fraction, empirical_law }
        })
        .collect();
    PeakCorrelation { window_label: window.label.clone(), month: window.month, points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obscor_assoc::KeySet;

    fn window_with_bins() -> WindowDegrees {
        // Sources 1..=8 with degree 2 (bin 1), sources 11..=18 with
        // degree 32 (bin 5).
        let mut degrees: Vec<(u32, u64)> = (1..=8u32).map(|ip| (ip, 2u64)).collect();
        degrees.extend((11..=18u32).map(|ip| (ip, 32u64)));
        WindowDegrees { label: "w".into(), coord: 4.5, month: 4, degrees }
    }

    fn keys_of(ips: &[u32]) -> KeySet {
        ips.iter().map(|&ip| obscor_assoc::convert::ip_key(ip)).collect()
    }

    #[test]
    fn fractions_count_overlap_per_bin() {
        let w = window_with_bins();
        // Honeyfarm saw half of each bin.
        let gn = keys_of(&[1, 2, 3, 4, 11, 12, 13, 14]);
        let peak = peak_correlation(&w, &gn, 8.0, 1);
        assert_eq!(peak.points.len(), 2);
        assert_eq!(peak.points[0].bin, 1);
        assert_eq!(peak.points[0].n_sources, 8);
        assert!((peak.points[0].fraction - 0.5).abs() < 1e-12);
        assert!((peak.points[1].fraction - 0.5).abs() < 1e-12);
    }

    /// The pipeline reads each window's Fig 4 series off its Figs 5–6
    /// curves. `peak_correlation_bits` counts every bin of the same window
    /// against the coeval month's own set, pairwise (`BitSet::overlap_count`,
    /// not the matrix sweep), so the two kernels check each other.
    #[test]
    fn peaks_are_the_coeval_column_of_the_curves() {
        use crate::{pipeline, AnalysisConfig};
        use obscor_anonymize::sharing::Holder;
        use obscor_honeyfarm::observe_month_sources;
        use obscor_netmodel::Scenario;
        let config = AnalysisConfig::fast();
        for seed in [11, 7] {
            let s = Scenario::paper_scaled(1 << 15, seed);
            let a = pipeline::run(&s, &config);
            let holder = Holder::new("telescope-operator", &pipeline::holder_key(seed));
            assert_eq!(a.peaks.len(), s.caida_windows.len());
            for (index, peak) in a.peaks.iter().enumerate() {
                let wd = crate::degree::captured(&s, index, &holder);
                let month = observe_month_sources(&s, wd.month);
                let coeval = BitSet::from_sorted_unique(month.ips());
                let want =
                    peak_correlation_bits(&wd, &coeval, s.bright_log2(), config.min_bin_sources);
                assert!(!want.points.is_empty(), "seed {seed} window {}", wd.label);
                assert_eq!(peak, &want, "seed {seed} window {}", wd.label);
            }
        }
    }

    #[test]
    fn empirical_law_is_log_linear_and_clamped() {
        let w = window_with_bins();
        let gn = KeySet::new();
        let peak = peak_correlation(&w, &gn, 4.0, 1);
        // Bin 1 (d=2): log2(2)/4 = 0.25; bin 5 (d=32): 5/4 clamped to 1.
        assert!((peak.points[0].empirical_law - 0.25).abs() < 1e-12);
        assert_eq!(peak.points[1].empirical_law, 1.0);
    }

    #[test]
    fn empty_honeyfarm_gives_zero_fractions() {
        let w = window_with_bins();
        let peak = peak_correlation(&w, &KeySet::new(), 8.0, 1);
        assert!(peak.points.iter().all(|p| p.fraction == 0.0));
    }

    #[test]
    fn min_sources_prunes_bins() {
        let mut w = window_with_bins();
        w.degrees.push((100, 1024)); // a lone bright source (bin 10)
        let peak = peak_correlation(&w, &KeySet::new(), 8.0, 2);
        assert!(peak.points.iter().all(|p| p.bin != 10));
    }

    #[test]
    fn keys_not_spelled_by_ip_key_never_match() {
        let w = window_with_bins();
        // Source 1 spelled four ways; only the `ip_key` render is it.
        let gn: KeySet =
            ["scanner-x", "0.0.0.1", "+00.000.000.001", "0000.00.000.001"].into_iter().collect();
        assert!(peak_correlation(&w, &gn, 8.0, 1).points.iter().all(|p| p.fraction == 0.0));
        let gn = gn.union(&keys_of(&[1]));
        let peak = peak_correlation(&w, &gn, 8.0, 1);
        assert_eq!(peak.points[0].n_sources, 8);
        assert!((peak.points[0].fraction - 0.125).abs() < 1e-12);
    }
}
