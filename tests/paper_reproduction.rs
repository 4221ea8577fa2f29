//! Integration: the full pipeline reproduces the paper's qualitative
//! results on the synthetic world — recovered from raw packets, not read
//! from the generator.

use obscor::core::fitscan::{alpha_by_degree, drop_by_degree};
use obscor::core::{pipeline, AnalysisConfig, PaperAnalysis};
use obscor::netmodel::Scenario;
use obscor::stats::fit::{fit_cauchy, fit_gaussian};
use std::sync::OnceLock;

fn analysis() -> &'static (Scenario, PaperAnalysis) {
    static A: OnceLock<(Scenario, PaperAnalysis)> = OnceLock::new();
    A.get_or_init(|| {
        let s = Scenario::paper_scaled(1 << 16, 4242);
        let a = pipeline::run(&s, &AnalysisConfig::fast());
        (s, a)
    })
}

/// The second golden fixture: a smaller window under another seed.
fn other_analysis() -> &'static PaperAnalysis {
    static A: OnceLock<PaperAnalysis> = OnceLock::new();
    A.get_or_init(|| pipeline::run(&Scenario::paper_scaled(1 << 15, 77), &AnalysisConfig::fast()))
}

/// The third golden fixture, under the default (dense) grids: the only
/// one whose fits walk the 80 × 60 modified-Cauchy grid and the
/// fractional Zipf–Mandelbrot offsets.
fn default_analysis() -> &'static PaperAnalysis {
    static A: OnceLock<PaperAnalysis> = OnceLock::new();
    A.get_or_init(|| {
        pipeline::run(&Scenario::paper_scaled(1 << 14, 42), &AnalysisConfig::default())
    })
}

#[test]
fn table1_inventory_matches_paper_layout() {
    let (s, a) = analysis();
    assert_eq!(a.greynoise_inventory.len(), 15, "15 GreyNoise months");
    assert_eq!(a.caida_inventory.len(), 5, "5 CAIDA windows");
    assert_eq!(a.greynoise_inventory[0].label, "2020-02");
    assert_eq!(a.greynoise_inventory[14].label, "2021-04");
    for r in &a.caida_inventory {
        assert_eq!(r.packets, s.n_v as u64, "constant packet windows");
        assert!(r.duration_secs > 0.0, "variable time");
    }
    // GreyNoise months see more sources than a telescope window: the
    // outpost integrates over a month (Table I's 1-14M vs 0.5-0.8M).
    let mean_gn: f64 = a.greynoise_inventory.iter().map(|r| r.sources as f64).sum::<f64>() / 15.0;
    let mean_caida: f64 =
        a.caida_inventory.iter().map(|r| r.sources as f64).sum::<f64>() / 5.0;
    assert!(
        mean_gn > mean_caida,
        "GreyNoise mean {mean_gn} should exceed CAIDA mean {mean_caida}"
    );
}

#[test]
fn table1_config_change_spikes_present() {
    let (_, a) = analysis();
    // Table I: "sharp increases in 2020-03 and 2021-04 are a result of
    // configuration changes".
    let baseline = a.greynoise_inventory[2].sources as f64; // 2020-04
    assert!(a.greynoise_inventory[1].sources as f64 > 1.5 * baseline, "2020-03 spike");
    assert!(a.greynoise_inventory[14].sources as f64 > 1.5 * baseline, "2021-04 spike");
}

#[test]
fn fig3_zipf_mandelbrot_fits_each_window() {
    let (_, a) = analysis();
    for dist in &a.distributions {
        let fit = dist.fit.expect("every window fits");
        // The planted brightness law has alpha = 1.3; realized degrees are
        // Poisson-thinned so the recovered exponent is close but not exact.
        assert!(
            (0.8..=2.0).contains(&fit.alpha),
            "window {}: recovered ZM alpha {} far from planted 1.3",
            dist.window_label,
            fit.alpha
        );
        // Distributions are heavy-tailed: d_max far beyond the mean.
        assert!(dist.d_max > 100);
    }
}

#[test]
fn fig4_bright_sources_nearly_always_coeval() {
    let (_, a) = analysis();
    // Paper: "bright CAIDA sources with d > sqrt(N_V) are nearly always
    // also seen by the GreyNoise observations during the same month"
    // (abstract: ~70% of the brightest consistently detected; our
    // synthetic honeyfarm has no sensor outages so it is higher).
    let mut bright_bins = 0;
    for peak in &a.peaks {
        for p in &peak.points {
            if (p.d as f64).log2() >= a.bright_log2 && p.n_sources >= 5 {
                assert!(
                    p.fraction >= 0.7,
                    "window {} bright bin 2^{}: fraction {}",
                    peak.window_label,
                    p.bin,
                    p.fraction
                );
                bright_bins += 1;
            }
        }
    }
    assert!(bright_bins >= 3, "too few bright bins measured: {bright_bins}");
}

#[test]
fn fig4_faint_sources_follow_log_law() {
    let (_, a) = analysis();
    // Paper: p(d) ≈ log2(d)/log2(sqrt(N_V)) below the knee.
    let mut total_abs_err = 0.0;
    let mut n = 0;
    for peak in &a.peaks {
        for p in &peak.points {
            if (p.d as f64).log2() < a.bright_log2 && p.n_sources >= 30 {
                total_abs_err += (p.fraction - p.empirical_law).abs();
                n += 1;
            }
        }
    }
    assert!(n >= 10, "need faint bins with statistics, got {n}");
    let mean_err = total_abs_err / n as f64;
    assert!(mean_err < 0.12, "mean |measured - log law| = {mean_err:.3}");
}

#[test]
fn fig5_modified_cauchy_beats_gaussian_and_cauchy() {
    let (_, a) = analysis();
    // Paper Fig 5: the modified Cauchy is the best of the three models.
    // Check on every well-populated curve.
    let mut mc_wins_gaussian = 0;
    let mut comparisons = 0;
    for f in &a.fits {
        if f.n_sources < 30 {
            continue;
        }
        let curve = a
            .curves
            .iter()
            .find(|c| c.window_label == f.window_label && c.bin == f.bin)
            .unwrap();
        // Refit with the *dense* default grids so the three models are
        // compared at equal grid resolution (the pipeline's `fast` config
        // uses a coarse β grid that can lose to the dense γ scan).
        let mc = obscor::stats::fit::fit_modified_cauchy(&curve.lags, &curve.fractions).unwrap();
        let g = fit_gaussian(&curve.lags, &curve.fractions).unwrap();
        let c = fit_cauchy(&curve.lags, &curve.fractions).unwrap();
        comparisons += 1;
        if mc.residual <= g.residual {
            mc_wins_gaussian += 1;
        }
        // The modified Cauchy generalizes the Cauchy (α=2, β=γ²), so at
        // comparable grid density it can never lose to it meaningfully.
        assert!(
            mc.residual <= c.residual * 1.05,
            "modified Cauchy lost to plain Cauchy on {} bin {}: {} vs {}",
            f.window_label,
            f.bin,
            mc.residual,
            c.residual
        );
    }
    assert!(comparisons >= 10, "too few curves compared: {comparisons}");
    assert!(
        mc_wins_gaussian as f64 / comparisons as f64 > 0.8,
        "modified Cauchy beat Gaussian on only {mc_wins_gaussian}/{comparisons} curves"
    );
}

#[test]
fn fig7_alpha_is_order_one() {
    let (_, a) = analysis();
    // Paper: "these observations suggest that 1 is a typical value of α".
    let series = alpha_by_degree(&a.fits);
    assert!(!series.is_empty());
    let well_measured: Vec<f64> = a
        .fits
        .iter()
        .filter(|f| f.n_sources >= 30)
        .map(|f| f.modified_cauchy.alpha)
        .collect();
    assert!(well_measured.len() >= 10);
    let mean = well_measured.iter().sum::<f64>() / well_measured.len() as f64;
    assert!(
        (0.5..=2.5).contains(&mean),
        "mean alpha {mean:.2} is not order-one"
    );
}

#[test]
fn fig8_drop_peaks_at_mid_brightness() {
    let (_, a) = analysis();
    // Paper: the one-month drop is above ~20 % and largest (≈50 %) at
    // mid brightness (d ≈ 10^3 at N_V = 2^30), smaller for the brightest
    // beam.
    let series = drop_by_degree(&a.fits);
    let well: Vec<(u64, f64)> = series
        .into_iter()
        .filter(|(d, _)| {
            a.fits.iter().any(|f| f.d == *d && f.n_sources >= 30)
        })
        .collect();
    assert!(well.len() >= 4, "need several measured bins");
    let knee = 2f64.powf(a.bright_log2 - 5.0);
    let mid: Vec<f64> = well
        .iter()
        .filter(|(d, _)| (*d as f64) >= knee / 2.0 && (*d as f64) <= knee * 4.0)
        .map(|(_, v)| *v)
        .collect();
    let bright: Vec<f64> = well
        .iter()
        .filter(|(d, _)| (*d as f64) >= 2f64.powf(a.bright_log2 - 1.0))
        .map(|(_, v)| *v)
        .collect();
    if !mid.is_empty() && !bright.is_empty() {
        let mid_mean = mid.iter().sum::<f64>() / mid.len() as f64;
        let bright_mean = bright.iter().sum::<f64>() / bright.len() as f64;
        assert!(
            mid_mean > bright_mean,
            "mid drop {mid_mean:.2} should exceed bright drop {bright_mean:.2}"
        );
        assert!(bright_mean > 0.03, "bright drop {bright_mean:.2} implausibly small");
    }
}

#[test]
fn fig1_quadrants_distinguish_instruments() {
    let (_, a) = analysis();
    // Telescope: only external→internal. Honeyfarm: both quadrants.
    assert!(a.quadrants.telescope_ext_to_int > 0);
    assert_eq!(a.quadrants.telescope_int_to_ext, 0);
    assert!(a.quadrants.honeyfarm_ext_to_int > 0);
    assert!(a.quadrants.honeyfarm_int_to_ext > 0);
}

// ---------------------------------------------------------------------------
// Golden-value regression tests.
//
// The pipeline is deterministic for a fixed (N_V, seed), so the quantities
// below are pinned exactly for the default test scenario
// `Scenario::paper_scaled(1 << 16, 4242)` + `AnalysisConfig::fast()`. A
// change to ANY of these values means packet generation, capture, matrix
// construction, or reduction semantics changed — bump the goldens only with
// an explanation of what legitimately moved them.
// ---------------------------------------------------------------------------

#[test]
fn golden_table2_quantities_are_pinned() {
    let (_, a) = analysis();
    // (label, valid_packets, unique_links, max_link_packets, unique_sources,
    //  max_source_packets, max_source_fan_out, unique_destinations,
    //  max_destination_packets, max_destination_fan_in)
    let golden: [(&str, [u64; 9]); 5] = [
        ("2020-06-17-12:00:00", [65536, 44648, 494, 615, 1036, 1035, 44602, 494, 2]),
        ("2020-07-29-00:00:00", [65536, 45312, 571, 597, 1156, 1156, 45243, 571, 2]),
        ("2020-09-16-12:00:00", [65536, 44743, 597, 601, 1183, 1183, 44683, 597, 2]),
        ("2020-10-28-00:00:00", [65536, 47553, 625, 590, 1219, 1219, 47482, 626, 2]),
        ("2020-12-16-12:00:00", [65536, 46249, 605, 584, 1313, 1313, 46194, 605, 2]),
    ];
    assert_eq!(a.quantities.len(), golden.len());
    for ((label, g), (got_label, q)) in golden.iter().zip(&a.quantities) {
        assert_eq!(got_label, label);
        let got = [
            q.valid_packets,
            q.unique_links,
            q.max_link_packets,
            q.unique_sources,
            q.max_source_packets,
            q.max_source_fan_out,
            q.unique_destinations,
            q.max_destination_packets,
            q.max_destination_fan_in,
        ];
        assert_eq!(&got, g, "Table II drifted for window {label}");
    }
}

#[test]
fn golden_fig3_zipf_mandelbrot_parameters_are_pinned() {
    let (_, a) = analysis();
    // The ZM fit is a grid scan, so the recovered parameters are exact grid
    // points: every window lands on (alpha, delta) = (1.25, 2.0) for this
    // scenario. d_max is the realized brightest source per window.
    let golden_d_max = [1036u64, 1156, 1183, 1219, 1313];
    assert_eq!(a.distributions.len(), golden_d_max.len());
    for (dist, d_max) in a.distributions.iter().zip(golden_d_max) {
        let fit = dist.fit.expect("every window fits");
        assert!(
            (fit.alpha - 1.25).abs() < 1e-12,
            "window {}: alpha {} drifted off the pinned grid point",
            dist.window_label,
            fit.alpha
        );
        assert!(
            (fit.delta - 2.0).abs() < 1e-12,
            "window {}: delta {} drifted off the pinned grid point",
            dist.window_label,
            fit.delta
        );
        assert_eq!(dist.d_max, d_max, "window {}: d_max drifted", dist.window_label);
    }
}

#[test]
fn golden_quadrant_occupancy_is_pinned() {
    let (_, a) = analysis();
    assert_eq!(a.quadrants.telescope_ext_to_int, 228_505);
    assert_eq!(a.quadrants.telescope_int_to_ext, 0);
    assert_eq!(a.quadrants.honeyfarm_ext_to_int, 99_759);
    assert_eq!(a.quadrants.honeyfarm_int_to_ext, 4_999);
}

/// FNV-1a over every Fig 4–6 point, `(window, bin, n_sources,
/// fraction.to_bits())`: each peak point, then each curve's fractions in
/// month order. Returns `(points, digest)`.
fn fig4_6_digest(a: &PaperAnalysis) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut n = 0;
    let mut point = |window: &str, bin: u32, n_sources: usize, fraction: f64| {
        let fields = [u64::from(bin), n_sources as u64, fraction.to_bits()];
        for b in window.bytes().chain(fields.iter().flat_map(|f| f.to_le_bytes())) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        n += 1;
    };
    for peak in &a.peaks {
        for p in &peak.points {
            point(&peak.window_label, p.bin, p.n_sources, p.fraction);
        }
    }
    for c in &a.curves {
        for &f in &c.fractions {
            point(&c.window_label, c.bin, c.n_sources, f);
        }
    }
    (n, h)
}

#[test]
fn golden_fig4_6_correlations_are_pinned() {
    let (_, a) = analysis();
    assert_eq!(fig4_6_digest(a), (912, 14_714_407_324_224_751_478));
    assert_eq!(fig4_6_digest(other_analysis()), (864, 11_148_378_268_511_193_575));
}

/// FNV-1a over every Fig 3 CSN tail fit, `(label, alpha.to_bits(), d_min,
/// n_tail, ks.to_bits())`: each window's, then each first-window
/// quantity's under its quantity name (a missing fit hashes as its label
/// and `u64::MAX`). Returns `(fits, digest)`.
fn tail_fit_digest(a: &PaperAnalysis) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut n = 0;
    let windows = a.distributions.iter().map(|d| (d.window_label.as_str(), d));
    let quantities = a.quantity_distributions.iter().map(|(name, d)| (name.as_str(), d));
    for (label, dist) in windows.chain(quantities) {
        let fields = match dist.tail_fit {
            Some(t) => {
                n += 1;
                vec![t.alpha.to_bits(), t.d_min, t.n_tail as u64, t.ks.to_bits()]
            }
            None => vec![u64::MAX],
        };
        for b in label.bytes().chain(fields.iter().flat_map(|f| f.to_le_bytes())) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    (n, h)
}

#[test]
fn golden_fig3_tail_fits_are_pinned() {
    let (_, a) = analysis();
    assert_eq!(tail_fit_digest(a), (9, 706_163_371_320_274_572));
    assert_eq!(tail_fit_digest(other_analysis()), (9, 11_964_916_198_728_551_003));
}

/// Folds `text` and then each field's little-endian bytes into the FNV-1a
/// state `h`.
fn fnv_record(h: &mut u64, text: &str, fields: &[u64]) {
    for b in text.bytes().chain(fields.iter().flat_map(|f| f.to_le_bytes())) {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
}

/// FNV-1a over every Figs 5–8 fit, by `to_bits`: `(window, bin,
/// modified_cauchy.{alpha, beta, peak, residual})`, then the Gaussian's
/// and the Cauchy's `{param, peak, residual}` (a missing fit hashes as
/// `u64::MAX`). Returns `(fits, digest)`.
fn fig5_8_fit_digest(a: &PaperAnalysis) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &a.fits {
        let mc = &f.modified_cauchy;
        let mut fields = vec![
            u64::from(f.bin),
            mc.alpha.to_bits(),
            mc.beta.to_bits(),
            mc.peak.to_bits(),
            mc.residual.to_bits(),
        ];
        for single in [f.gaussian, f.cauchy] {
            match single {
                Some(s) => {
                    fields.extend([s.param.to_bits(), s.peak.to_bits(), s.residual.to_bits()])
                }
                None => fields.push(u64::MAX),
            }
        }
        fnv_record(&mut h, &f.window_label, &fields);
    }
    (a.fits.len(), h)
}

#[test]
fn golden_fig5_8_fits_are_pinned() {
    assert_eq!(fig5_8_fit_digest(&analysis().1), (57, 3_810_312_339_434_143_303));
    assert_eq!(fig5_8_fit_digest(other_analysis()), (54, 17_611_841_468_310_344_045));
    assert_eq!(fig5_8_fit_digest(default_analysis()), (45, 5_291_533_967_255_825_536));
}

/// FNV-1a over every Fig 3 Zipf–Mandelbrot fit, `(label,
/// fit.{alpha, delta, residual}.to_bits())`: each window's, then each
/// first-window quantity's under its quantity name (a missing fit hashes
/// as its label and `u64::MAX`). Returns `(fits, digest)`.
fn zm_fit_digest(a: &PaperAnalysis) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut n = 0;
    let windows = a.distributions.iter().map(|d| (d.window_label.as_str(), d));
    let quantities = a.quantity_distributions.iter().map(|(name, d)| (name.as_str(), d));
    for (label, dist) in windows.chain(quantities) {
        let fields = match dist.fit {
            Some(f) => {
                n += 1;
                vec![f.alpha.to_bits(), f.delta.to_bits(), f.residual.to_bits()]
            }
            None => vec![u64::MAX],
        };
        fnv_record(&mut h, label, &fields);
    }
    (n, h)
}

#[test]
fn golden_fig3_zm_fits_are_pinned() {
    assert_eq!(zm_fit_digest(&analysis().1), (9, 5_383_688_732_512_909_195));
    assert_eq!(zm_fit_digest(other_analysis()), (9, 3_919_180_750_022_750_967));
    assert_eq!(zm_fit_digest(default_analysis()), (9, 11_508_164_118_127_559_529));
}

/// Table I's GreyNoise column: sources per month, in month order.
fn greynoise_counts(a: &PaperAnalysis) -> Vec<usize> {
    a.greynoise_inventory.iter().map(|r| r.sources).collect()
}

#[test]
fn golden_greynoise_inventory_is_pinned() {
    let (_, a) = analysis();
    assert_eq!(
        greynoise_counts(a),
        [4447, 21017, 4438, 4453, 4481, 4443, 4417, 4421, 4421, 4437, 4429, 4439, 4449, 4449, 21018]
    );
    assert_eq!(
        greynoise_counts(other_analysis()),
        [4385, 20928, 4385, 4417, 4421, 4414, 4408, 4350, 4376, 4375, 4407, 4380, 4426, 4452, 21004]
    );
}

/// FNV-1a over every class-split row, `(window_label, label, shared,
/// class_size, share_of_detected.to_bits())`, window by window. Returns
/// `(rows, digest)`.
fn class_structure_digest(a: &PaperAnalysis) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut n = 0;
    for c in &a.class_structure {
        for r in &c.rows {
            let fields = [r.shared as u64, r.class_size as u64, r.share_of_detected.to_bits()];
            let text = c.window_label.bytes().chain(r.label.bytes());
            for b in text.chain(fields.iter().flat_map(|f| f.to_le_bytes())) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            n += 1;
        }
    }
    (n, h)
}

#[test]
fn golden_class_structure_is_pinned() {
    let (_, a) = analysis();
    assert_eq!(class_structure_digest(a), (25, 11_795_128_757_365_920_241));
    assert_eq!(class_structure_digest(other_analysis()), (25, 5_804_700_117_410_766_015));
}

#[test]
fn temporal_correlation_decays_and_levels_off() {
    let (_, a) = analysis();
    // Paper Fig 5: "the correlation ... drops quickly and then levels off
    // to a background level."
    let mut checked = 0;
    for c in &a.curves {
        if c.n_sources < 50 || c.bin < 6 {
            continue;
        }
        let peak = c.peak_fraction();
        let far: Vec<f64> = c
            .lags
            .iter()
            .zip(&c.fractions)
            .filter(|(l, _)| l.abs() >= 5.0)
            .map(|(_, f)| *f)
            .collect();
        let far_mean = far.iter().sum::<f64>() / far.len().max(1) as f64;
        assert!(peak > far_mean, "no decay in {} bin {}", c.window_label, c.bin);
        checked += 1;
    }
    assert!(checked >= 5, "too few curves checked: {checked}");
}
