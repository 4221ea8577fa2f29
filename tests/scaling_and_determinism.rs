//! Integration: the scale-covariance rules of DESIGN.md §5 and strict
//! determinism of the whole stack.

use obscor::core::scaling::source_scaling;
use obscor::core::{pipeline, AnalysisConfig};
use obscor::netmodel::Scenario;
use obscor::telescope::{capture_all_windows, capture_window, inventory};

#[test]
fn knee_moves_with_sqrt_nv() {
    let small = Scenario::paper_scaled(1 << 14, 5);
    let large = Scenario::paper_scaled(1 << 16, 5);
    assert_eq!(small.bright_log2(), 7.0);
    assert_eq!(large.bright_log2(), 8.0);
    assert_eq!(small.population.config.brightness_max * 2, large.population.config.brightness_max);
}

#[test]
fn window_source_counts_grow_with_nv() {
    let small = Scenario::paper_scaled(1 << 14, 6);
    let large = Scenario::paper_scaled(1 << 16, 6);
    let count = |s: &Scenario| capture_window(s, &s.caida_windows[0]).unique_sources();
    let (cs, cl) = (count(&small), count(&large));
    assert!(
        cl > cs,
        "sources should grow with N_V: {cs} at 2^14 vs {cl} at 2^16"
    );
}

#[test]
fn full_pipeline_is_deterministic() {
    let s = Scenario::paper_scaled(1 << 14, 7);
    let a = pipeline::run(&s, &AnalysisConfig::fast());
    let b = pipeline::run(&s, &AnalysisConfig::fast());
    assert_eq!(a.curves, b.curves);
    assert_eq!(a.greynoise_inventory, b.greynoise_inventory);
    assert_eq!(a.render_all(), b.render_all());
    // The run streams each window leaf by leaf; its Table I rows and
    // scaling laws are the held windows'.
    let held = capture_all_windows(&s);
    assert_eq!(a.caida_inventory, inventory(&held));
    let laws: Vec<(String, f64, f64)> = held
        .iter()
        .filter_map(|w| {
            source_scaling(&w.window.packets, 8).map(|l| (w.label.clone(), l.exponent, l.r_squared))
        })
        .collect();
    assert_eq!(laws.len(), 5);
    assert_eq!(a.scaling, laws);
}

#[test]
fn different_seeds_give_different_worlds_same_physics() {
    let a = pipeline::run(&Scenario::paper_scaled(1 << 14, 100), &AnalysisConfig::fast());
    let b = pipeline::run(&Scenario::paper_scaled(1 << 14, 200), &AnalysisConfig::fast());
    // Different realizations...
    assert_ne!(a.greynoise_inventory, b.greynoise_inventory);
    // ...same structural physics: both see the bright coeval plateau.
    for analysis in [&a, &b] {
        let bright: Vec<f64> = analysis
            .peaks
            .iter()
            .flat_map(|p| p.points.iter())
            .filter(|p| (p.d as f64).log2() >= analysis.bright_log2 && p.n_sources >= 5)
            .map(|p| p.fraction)
            .collect();
        if !bright.is_empty() {
            let mean = bright.iter().sum::<f64>() / bright.len() as f64;
            assert!(mean > 0.7, "bright plateau missing: {mean}");
        }
    }
}

#[test]
fn report_renders_all_sections_at_any_scale() {
    let s = Scenario::paper_scaled(1 << 13, 3);
    let a = pipeline::run(&s, &AnalysisConfig::fast());
    let all = a.render_all();
    for header in [
        "TABLE I",
        "TABLE II",
        "FIG 2",
        "FIG 3",
        "FIG 4",
        "FIG 6",
        "FIG 7",
        "FIG 8",
        "CLASS STRUCTURE",
        "SUBNET STRUCTURE",
        "SCALING",
    ] {
        assert!(all.contains(header), "missing {header} at tiny scale");
    }
}
