//! The end-to-end analysis pipeline.

use crate::config::AnalysisConfig;
use crate::degree::WindowDegrees;
use crate::distribution::{binned_distributions, DegreeDistribution};
use crate::fitscan::{fit_curves, BinFit};
use crate::peak::{coeval_peaks, PeakCorrelation};
use crate::classes::{class_split, ClassCorrelation};
use crate::scaling::ScalingLaw;
use crate::subnets::{aggregate_by_prefix, SubnetRow};
use crate::temporal::{temporal_curves_bits, TemporalCurve};
use obscor_anonymize::sharing::Holder;
use obscor_assoc::{BitSet, MonthMatrix};
use obscor_honeyfarm::observe_all_month_sources;
use obscor_hypersparse::reduce::{self, NetworkQuantities};
use obscor_hypersparse::{Csr, HierarchicalAccumulator, SpillReport};
use obscor_netmodel::scenario::CaidaWindowSpec;
use obscor_netmodel::Scenario;
use obscor_obs::MetricsSnapshot;
use obscor_telescope::{
    capture_archive, leaf_capacity_for, matrix, restore, FaultyMedium, InventoryRow,
    RestoreReport, WindowCapture, WindowTally,
};
use rayon::prelude::*;

/// One GreyNoise row of Table I.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GreyNoiseInventoryRow {
    /// Month label (`YYYY-MM`).
    pub label: String,
    /// Sources detected that month.
    pub sources: usize,
}

/// Fig 1: which traffic-matrix quadrants each instrument populates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QuadrantSummary {
    /// Telescope: external → internal entries (the only darkspace quadrant).
    pub telescope_ext_to_int: u64,
    /// Telescope: internal → external entries (must be zero — darkspaces
    /// never transmit).
    pub telescope_int_to_ext: u64,
    /// Honeyfarm: sources it *received* from (external → internal).
    pub honeyfarm_ext_to_int: u64,
    /// Honeyfarm: sources it *responded to* (internal → external — the
    /// engagement conversations that exist because an outpost answers).
    pub honeyfarm_int_to_ext: u64,
}

/// Everything needed to print every table and figure of the paper.
#[derive(Clone, Debug)]
pub struct PaperAnalysis {
    /// Window size.
    pub n_v: usize,
    /// `log2 sqrt(N_V)` — the Fig 4 knee.
    pub bright_log2: f64,
    /// Table I, CAIDA side.
    pub caida_inventory: Vec<InventoryRow>,
    /// Table I, GreyNoise side.
    pub greynoise_inventory: Vec<GreyNoiseInventoryRow>,
    /// Table II quantities per window.
    pub quantities: Vec<(String, NetworkQuantities)>,
    /// Fig 1 quadrant occupancy.
    pub quadrants: QuadrantSummary,
    /// Fig 3 per window.
    pub distributions: Vec<DegreeDistribution>,
    /// Fig 2's wider quantity menu on the first window: binned
    /// distributions of fan-out, fan-in, destination packets, and link
    /// packets.
    pub quantity_distributions: Vec<(String, DegreeDistribution)>,
    /// Fig 4 per window.
    pub peaks: Vec<PeakCorrelation>,
    /// Figs 5/6 raw curves (window × bin).
    pub curves: Vec<TemporalCurve>,
    /// Figs 5-8 fits.
    pub fits: Vec<BinFit>,
    /// Enrichment-aware extension: the class structure of each window's
    /// coeval overlap (scanner/botnet/backscatter/misconfig shares).
    pub class_structure: Vec<ClassCorrelation>,
    /// Subnet extension: top /16 prefixes per window by packets (the
    /// prefix-preserving-anonymization payoff).
    pub subnet_top: Vec<(String, Vec<SubnetRow>)>,
    /// Scaling extension: per-window sources-vs-packets exponent and R²
    /// (the paper's `sources ∝ N_V^{1/2}` observation).
    pub scaling: Vec<(String, f64, f64)>,
    /// Archive-path accounting: one [`RestoreReport`] per window when the
    /// folds were fed through the archive → restore path
    /// (`AnalysisConfig::archive`); empty on the direct path. Downstream
    /// statistics are computed over the surviving leaves, so each
    /// report's coverage fraction bounds how much of the window those
    /// statistics saw.
    pub restore: Vec<RestoreReport>,
    /// Out-of-core accounting: one [`SpillReport`] per window when the
    /// matrices were folded under a memory budget
    /// (`AnalysisConfig::spill`); empty on the in-memory paths. A budget
    /// never changes a matrix, so the reports carry only eviction/reload
    /// traffic and peak-footprint numbers.
    pub spill: Vec<SpillReport>,
    /// Out-of-core fallbacks: `(window label, fault)` for every window
    /// whose spilled build failed and was built in memory instead (same
    /// matrix, no budget). Such a window has no [`SpillReport`].
    pub spill_fallbacks: Vec<(String, String)>,
    /// Per-run observability: every counter, gauge, and span timing the
    /// pipeline recorded (the change in the global registry over this
    /// run). Serializes with [`MetricsSnapshot::to_json`]; written out by
    /// the CLI's `--metrics` flag.
    pub metrics: MetricsSnapshot,
}

/// Fig 2's wider quantity menu, measured on the first window's matrix.
type Quantity = fn(&Csr<u64>) -> Vec<u64>;
const QUANTITY_MENU: [(&str, Quantity); 4] = [
    ("source fan-out", |m| reduce::source_fan_out(m).into_iter().map(|(_, d)| d).collect()),
    ("destination fan-in", |m| reduce::destination_fan_in(m).into_iter().map(|(_, d)| d).collect()),
    ("destination packets", |m| {
        reduce::destination_packets(m).into_iter().map(|(_, d)| d).collect()
    }),
    ("link packets", |m| m.values().to_vec()),
];

/// Run the complete paper pipeline on a scenario.
///
/// Stages (parallel where data-independent):
/// 1. capture the five constant-packet telescope windows one at a time,
///    each leaf-sized batch of packets going straight into the window's
///    hierarchical traffic-matrix fold (or into its archive, which is then
///    restored into the fold), with Table I's row and the scaling points
///    counted on the way,
/// 2. compute Table II quantities and the Fig 1 quadrant check,
/// 3. reduce to per-source degrees and deanonymize via the send-back
///    workflow,
/// 4. observe the fifteen honeyfarm months,
/// 5. per window: Fig 3 distribution + ZM fit, then Figs 5/6 temporal
///    curves from one sweep of the window's bins over all months, with
///    Fig 4 read off them as the window's own month,
/// 6. fit every curve (Figs 5-8).
pub fn run(scenario: &Scenario, config: &AnalysisConfig) -> PaperAnalysis {
    // Scope this run's metrics against the process-global registry so
    // `PaperAnalysis::metrics` reports only what this call recorded (the
    // registry outlives the run — e.g. across parallel tests).
    let metrics_baseline = obscor_obs::snapshot();
    let pipeline_span = obscor_obs::span("pipeline.run");
    obscor_obs::gauge("config.n_v").set_max(scenario.n_v as u64);
    obscor_obs::gauge("config.window_count").set_max(scenario.caida_windows.len() as u64);
    obscor_obs::gauge("config.month_count").set_max(scenario.grid.len() as u64);
    obscor_obs::gauge("config.min_bin_sources").set_max(config.min_bin_sources as u64);

    // 1-2. One window at a time: capture its packets a leaf at a time
    // straight into the window's fold — resident or, under a configured
    // budget, spilling carry parts to disk — or into the archive the fold
    // is restored from, and keep only the matrix, Table I's row and the
    // scaling points. No window's packets are ever held whole. Serial
    // across windows: the budget is per fold, and running folds
    // concurrently would multiply the process footprint the budget exists
    // to bound.
    let specs = &scenario.caida_windows;
    let leaf_capacity = leaf_capacity_for(scenario.n_v);
    let mut caida_inventory: Vec<InventoryRow> = Vec::with_capacity(specs.len());
    let mut scaling_points: Vec<Option<Vec<(u64, u64)>>> = Vec::with_capacity(specs.len());
    let mut matrices: Vec<Csr<u64>> = Vec::with_capacity(specs.len());
    let mut restore_reports: Vec<RestoreReport> = Vec::new();
    let mut spill_reports: Vec<SpillReport> = Vec::new();
    let mut spill_fallbacks: Vec<(String, String)> = Vec::new();
    for (index, spec) in specs.iter().enumerate() {
        let (mut fold, fallback) = {
            let _s = obscor_obs::span("stage.matrices");
            matrix::window_fold(leaf_capacity, config.spill.as_ref())
        };
        let tally = match &config.archive {
            None => capture_into(scenario, spec, &mut fold),
            // The paper's production shape: the telescope archives the
            // window in the fold's own leaves as it captures it (timed as
            // capture), the archive is optionally injured by the window's
            // share of the fault plan, and the fold gets whatever the
            // recovering restore reads back; the report says exactly how
            // much that was.
            Some(ac) => {
                let (archive, tally) = {
                    let _s = obscor_obs::span("stage.capture");
                    capture_archive(scenario, spec, leaf_capacity)
                };
                let _s = obscor_obs::span("stage.matrices");
                restore_reports.push(match &ac.fault_plan {
                    None => restore(&archive, &archive.medium, &mut fold),
                    Some(plan) => restore(
                        &archive,
                        &FaultyMedium::new(&archive.medium, plan.for_window(index)),
                        &mut fold,
                    ),
                });
                tally
            }
        };
        caida_inventory.push(tally.row(&spec.label));
        scaling_points.push(tally.scaling_points(8));
        let _s = obscor_obs::span("stage.matrices");
        let (m, report) = fold.finalize_with_report();
        match fallback {
            // An unusable spill directory degrades to the resident
            // fold (bit-identical, just bigger), and the run says so.
            Some(fault) => spill_fallbacks.push((spec.label.clone(), fault.to_string())),
            None if config.spill.is_some() => spill_reports.push(report),
            None => {}
        }
        matrices.push(m);
    }
    obscor_obs::counter("stage.capture.windows_total").add(specs.len() as u64);
    if config.spill.is_some() {
        obscor_obs::counter("stage.matrices.spill_windows_total")
            .add(spill_reports.len() as u64);
        obscor_obs::counter("stage.matrices.spill_fallbacks_total")
            .add(spill_fallbacks.len() as u64);
        obscor_obs::counter("stage.matrices.spill_evictions_total")
            .add(spill_reports.iter().map(|r| r.stats.evictions).sum());
    }
    if config.archive.is_some() {
        obscor_obs::counter("stage.matrices.archive_windows_total")
            .add(restore_reports.len() as u64);
        obscor_obs::counter("stage.matrices.archive_quarantined_total")
            .add(restore_reports.iter().map(|r| r.quarantined.len() as u64).sum());
    }
    obscor_obs::counter("stage.matrices.built_total").add(matrices.len() as u64);
    obscor_obs::counter("stage.matrices.nnz_total")
        .add(matrices.iter().map(|m| m.nnz() as u64).sum());
    let quantities: Vec<(String, NetworkQuantities)> = {
        let _s = obscor_obs::span("stage.quantities");
        specs
            .iter()
            .zip(&matrices)
            .map(|(spec, m)| (spec.label.clone(), NetworkQuantities::compute(m)))
            .collect()
    };
    obscor_obs::counter("stage.quantities.computed_total").add(quantities.len() as u64);
    if cfg!(any(debug_assertions, feature = "strict-invariants")) {
        for (m, (label, q)) in matrices.iter().zip(&quantities) {
            stage_check(label, m.check_invariants());
            stage_check(label, q.check_invariants());
        }
    }

    // 3. Degrees through the anonymization workflow (reusing the
    // already-built matrices).
    let degrees: Vec<WindowDegrees> = {
        let _s = obscor_obs::span("stage.degrees");
        let holder = Holder::new("telescope-operator", &holder_key(scenario.seed));
        specs
            .par_iter()
            .zip(&matrices)
            .map(|(w, m)| {
                let month = (w.coord.floor() as usize).min(scenario.grid.len() - 1);
                WindowDegrees::from_matrix(&w.label, w.coord, month, m, &holder)
            })
            .collect()
    };
    obscor_obs::counter("stage.degrees.windows_total").add(degrees.len() as u64);

    // 4. Honeyfarm months as sorted numeric sources (DESIGN.md §19), and
    // the one month×source membership matrix the correlation stage
    // sweeps, its rows built straight from them once per analysis.
    let (months, month_matrix) = {
        let _s = obscor_obs::span("stage.honeyfarm");
        let months = observe_all_month_sources(scenario);
        let matrix = MonthMatrix::from_months(
            months.iter().map(|m| BitSet::from_sorted_unique(m.ips())).collect(),
        );
        (months, matrix)
    };
    obscor_obs::counter("stage.honeyfarm.months_total").add(months.len() as u64);
    let greynoise_inventory: Vec<GreyNoiseInventoryRow> = months
        .iter()
        .map(|m| GreyNoiseInventoryRow { label: m.label.clone(), sources: m.n_sources() })
        .collect();
    let honeyfarm_seen: u64 = greynoise_inventory.iter().map(|r| r.sources as u64).sum();
    obscor_obs::counter("stage.honeyfarm.sources_total").add(honeyfarm_seen);
    if cfg!(any(debug_assertions, feature = "strict-invariants")) {
        stage_check("month-matrix", month_matrix.check_invariants());
        for (m, month) in months.iter().enumerate() {
            stage_check(&month.label, month.check_invariants(scenario));
            // The matrix row holds exactly the month's sources.
            let (n, row) = (month.n_sources(), month_matrix.month_len(m));
            stage_check(
                "month-matrix",
                (row == n).then_some(()).ok_or_else(|| {
                    format!("month {m}: {row} matrix keys, {n} sources")
                }),
            );
        }
    }

    // Fig 1 quadrant occupancy.
    let _quadrant_span = obscor_obs::span("stage.quadrants");
    let telescope_ext_to_int: u64 =
        matrices.iter().map(|m| m.nnz() as u64).sum();
    let honeyfarm_engaged: u64 = months.iter().map(|m| m.handshakes() as u64).sum();
    let quadrants = QuadrantSummary {
        telescope_ext_to_int,
        telescope_int_to_ext: 0, // asserted structurally: darkspace rows are external-only
        honeyfarm_ext_to_int: honeyfarm_seen,
        honeyfarm_int_to_ext: honeyfarm_engaged,
    };
    obscor_obs::counter("stage.quadrants.entries_total").add(
        quadrants.telescope_ext_to_int
            + quadrants.honeyfarm_ext_to_int
            + quadrants.honeyfarm_int_to_ext,
    );
    drop(_quadrant_span);

    // 5. Per-window analyses. Fig 3 for every window and Fig 2's wider
    // quantity menu on the first window's matrix share one ZM grid sweep.
    let (distributions, quantity_distributions) = {
        let _s = obscor_obs::span("stage.distributions");
        let per_window = degrees
            .iter()
            .map(|wd| (wd.label.as_str(), wd.degrees.iter().map(|&(_, d)| d).collect()));
        let menu = matrices.first().zip(specs.first()).into_iter().flat_map(|(m, spec)| {
            QUANTITY_MENU.iter().map(move |(_, quantity)| (spec.label.as_str(), quantity(m)))
        });
        let mut distributions = binned_distributions(per_window.chain(menu), config);
        let menu = distributions.split_off(degrees.len());
        let names = QUANTITY_MENU.iter().map(|(name, _)| name.to_string());
        (distributions, names.zip(menu).collect::<Vec<(String, DegreeDistribution)>>())
    };
    obscor_obs::counter("stage.distributions.computed_total").add(distributions.len() as u64);
    // Each window's bins are built and swept over every month once; Fig 4
    // is the curves' column at the window's own month.
    let (peaks, curves) = {
        let _s = obscor_obs::span("stage.curves");
        let mut peaks: Vec<PeakCorrelation> = Vec::with_capacity(degrees.len());
        let mut curves: Vec<TemporalCurve> = Vec::new();
        for wd in &degrees {
            let window_curves = temporal_curves_bits(wd, &month_matrix, config.min_bin_sources);
            peaks.push(coeval_peaks(wd, &window_curves, scenario.bright_log2()));
            curves.extend(window_curves);
        }
        (peaks, curves)
    };
    obscor_obs::counter("stage.peaks.computed_total").add(peaks.len() as u64);
    obscor_obs::counter("stage.curves.computed_total").add(curves.len() as u64);

    // 6. Fits.
    let fits = {
        let _s = obscor_obs::span("stage.fits");
        fit_curves(&curves, config)
    };
    obscor_obs::counter("stage.fits.fitted_total").add(fits.len() as u64);

    // Enrichment-aware extension: class split of the coeval overlap.
    let class_structure: Vec<ClassCorrelation> = {
        let _s = obscor_obs::span("stage.classes");
        degrees.iter().map(|wd| class_split(wd, &months[wd.month])).collect()
    };

    // Scaling extension: sources-vs-packets exponent per window, fitted to
    // the points the capture counted.
    let scaling: Vec<(String, f64, f64)> = {
        let _s = obscor_obs::span("stage.scaling");
        specs
            .iter()
            .zip(scaling_points)
            .filter_map(|(spec, points)| {
                ScalingLaw::fit(points?).map(|l| (spec.label.clone(), l.exponent, l.r_squared))
            })
            .collect()
    };

    // Subnet extension: top /16s per window.
    let subnet_top: Vec<(String, Vec<SubnetRow>)> = {
        let _s = obscor_obs::span("stage.subnets");
        degrees
            .iter()
            .map(|wd| {
                let mut rows = aggregate_by_prefix(wd, 16);
                rows.truncate(5);
                (wd.label.clone(), rows)
            })
            .collect()
    };

    // Free the run's bulk intermediates inside the run span, so the span
    // covers all the work a run costs.
    {
        let _s = obscor_obs::span("stage.teardown");
        drop((matrices, months, month_matrix));
    }

    // Close the whole-run span, then freeze this run's metric delta.
    drop(pipeline_span);
    let metrics = obscor_obs::snapshot().delta_since(&metrics_baseline);

    PaperAnalysis {
        n_v: scenario.n_v,
        bright_log2: scenario.bright_log2(),
        caida_inventory,
        greynoise_inventory,
        quantities,
        quadrants,
        distributions,
        quantity_distributions,
        peaks,
        curves,
        fits,
        class_structure,
        subnet_top,
        scaling,
        restore: restore_reports,
        spill: spill_reports,
        spill_fallbacks,
        metrics,
    }
}

/// Abort on a stage-boundary invariant violation. Runs in debug builds
/// and whenever the `strict-invariants` feature is enabled; callers skip
/// the checks entirely otherwise.
fn stage_check(label: &str, result: Result<(), String>) {
    if let Err(msg) = result {
        // audit:allow(panic-path) — invariant violations are programming errors; aborting is the stage contract
        panic!("pipeline invariant violated at stage `{label}`: {msg}");
    }
}

/// Capture `spec`'s window a fold leaf at a time, pushing each batch into
/// `fold`: generation is timed by `stage.capture`, the push by
/// `stage.matrices`. Returns the window's tally.
fn capture_into(
    scenario: &Scenario,
    spec: &CaidaWindowSpec,
    fold: &mut HierarchicalAccumulator<u64>,
) -> WindowTally {
    let octet = scenario.population.config.darkspace_octet;
    let mut capture = WindowCapture::new(scenario, spec, octet, fold.leaf_capacity());
    loop {
        let packets = {
            let _s = obscor_obs::span("stage.capture");
            capture.next_batch()
        };
        let Some(packets) = packets else { break };
        let _s = obscor_obs::span("stage.matrices");
        matrix::push_edges(fold, packets.iter().map(|p| (p.src.0, p.dst.0)));
    }
    let _s = obscor_obs::span("stage.capture");
    capture.finish()
}

/// Derive the telescope operator's CryptoPAN key from the scenario seed
/// (deterministic, but distinct from every model RNG stream).
pub(crate) fn holder_key(seed: u64) -> [u8; 32] {
    let mut key = [0u8; 32];
    let mut x = seed ^ 0xA5A5_5A5A_DEAD_BEEF;
    for chunk in key.chunks_exact_mut(8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        chunk.copy_from_slice(&x.to_le_bytes());
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn analysis() -> &'static (Scenario, PaperAnalysis) {
        static A: OnceLock<(Scenario, PaperAnalysis)> = OnceLock::new();
        A.get_or_init(|| {
            let s = Scenario::paper_scaled(1 << 15, 11);
            let a = run(&s, &AnalysisConfig::fast());
            (s, a)
        })
    }

    #[test]
    fn inventories_have_paper_shape() {
        let (_, a) = analysis();
        assert_eq!(a.caida_inventory.len(), 5);
        assert_eq!(a.greynoise_inventory.len(), 15);
        assert!(a.greynoise_inventory.iter().all(|r| r.sources > 0));
    }

    #[test]
    fn table2_quantities_are_consistent() {
        let (s, a) = analysis();
        for (_, q) in &a.quantities {
            assert_eq!(q.valid_packets, s.n_v as u64);
            assert!(q.unique_sources > 0);
            assert!(q.unique_links >= q.unique_sources);
            assert!(q.max_source_packets <= q.valid_packets);
        }
    }

    #[test]
    fn quadrant_occupancy_matches_fig1() {
        let (_, a) = analysis();
        assert!(a.quadrants.telescope_ext_to_int > 0);
        assert_eq!(a.quadrants.telescope_int_to_ext, 0);
        assert!(a.quadrants.honeyfarm_ext_to_int > 0);
        assert!(a.quadrants.honeyfarm_int_to_ext > 0);
        // The honeyfarm engages a subset of what it sees.
        assert!(a.quadrants.honeyfarm_int_to_ext <= a.quadrants.honeyfarm_ext_to_int);
    }

    #[test]
    fn greynoise_config_change_months_spike() {
        let (_, a) = analysis();
        let normal = a.greynoise_inventory[0].sources as f64;
        let boosted = a.greynoise_inventory[1].sources as f64;
        assert!(boosted > normal * 1.5, "2020-03 spike missing: {boosted} vs {normal}");
    }

    #[test]
    fn figures_are_populated() {
        let (_, a) = analysis();
        assert_eq!(a.distributions.len(), 5);
        assert_eq!(a.peaks.len(), 5);
        assert!(!a.curves.is_empty());
        assert!(!a.fits.is_empty());
        assert!(a.distributions.iter().all(|d| d.fit.is_some()));
    }

    #[test]
    fn bright_sources_are_nearly_always_coeval_detected() {
        let (_, a) = analysis();
        // Fig 4 headline: bins at/above the sqrt(N_V) knee have fractions
        // near 1.
        let mut checked = 0;
        for peak in &a.peaks {
            for p in &peak.points {
                if (p.d as f64) >= 2f64.powf(a.bright_log2) {
                    assert!(
                        p.fraction > 0.85,
                        "bright bin d={} fraction {}",
                        p.d,
                        p.fraction
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "no bright bins had enough sources");
    }

    #[test]
    fn faint_fraction_tracks_empirical_law() {
        let (_, a) = analysis();
        let mut total_err = 0.0;
        let mut n = 0;
        for peak in &a.peaks {
            for p in &peak.points {
                if p.n_sources >= 30 {
                    total_err += (p.fraction - p.empirical_law).abs();
                    n += 1;
                }
            }
        }
        assert!(n > 0);
        let mean_err = total_err / n as f64;
        assert!(mean_err < 0.15, "mean |measured - law| = {mean_err}");
    }

    #[test]
    fn temporal_curves_decay_from_peak() {
        let (_, a) = analysis();
        let mut decays = 0;
        for c in &a.curves {
            if c.n_sources < 30 {
                continue;
            }
            let peak = c.peak_fraction();
            let far = c
                .lags
                .iter()
                .zip(&c.fractions)
                .filter(|(l, _)| l.abs() > 5.0)
                .map(|(_, f)| *f)
                .fold(0.0f64, f64::max);
            if peak > far {
                decays += 1;
            }
        }
        assert!(decays >= a.curves.len() / 3, "too few decaying curves: {decays}");
    }

    #[test]
    fn run_is_deterministic() {
        let (s, a) = analysis();
        let b = run(s, &AnalysisConfig::fast());
        assert_eq!(a.greynoise_inventory, b.greynoise_inventory);
        assert_eq!(a.curves, b.curves);
    }

    #[test]
    fn direct_path_records_no_restore_reports() {
        let (_, a) = analysis();
        assert!(a.restore.is_empty());
        assert!(a.spill.is_empty());
    }

    #[test]
    fn spill_path_matches_the_direct_path_bit_for_bit() {
        use crate::config::SpillSettings;
        let s = Scenario::paper_scaled(1 << 13, 11);
        let direct = run(&s, &AnalysisConfig::fast());
        // Budget 0: nothing may stay resident, every carry evicts.
        let spilled = run(&s, &AnalysisConfig::fast().with_spill(SpillSettings::with_budget(0)));
        assert_eq!(spilled.spill.len(), 5);
        for r in &spilled.spill {
            assert!(r.is_exact(), "clean spill must restore exactly: {r:?}");
            assert!(r.stats.evictions > 0, "budget 0 must evict: {r:?}");
            r.check_invariants().unwrap();
        }
        assert_eq!(direct.quantities, spilled.quantities);
        assert_eq!(direct.curves, spilled.curves);
        assert_eq!(direct.peaks, spilled.peaks);
    }

    #[test]
    fn unusable_spill_dir_falls_back_in_memory_and_says_so() {
        use crate::config::SpillSettings;
        let s = Scenario::paper_scaled(1 << 13, 11);
        let direct = run(&s, &AnalysisConfig::fast());
        // A regular file: no spill directory can be created under it.
        let file = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
        let settings = SpillSettings { memory_budget: 0, spill_dir: Some(file) };
        let a = run(&s, &AnalysisConfig::fast().with_spill(settings));
        assert!(a.spill.is_empty(), "no window could spill");
        let labels: Vec<&String> = a.spill_fallbacks.iter().map(|(label, _)| label).collect();
        let windows: Vec<&String> = direct.quantities.iter().map(|(label, _)| label).collect();
        assert_eq!(labels, windows, "one fallback per window, in window order");
        for (label, fault) in &a.spill_fallbacks {
            assert!(fault.starts_with("spill i/o error"), "window {label}: {fault}");
        }
        assert_eq!(a.metrics.counters["stage.matrices.spill_fallbacks_total"], 5);
        assert!(direct.spill_fallbacks.is_empty());
        assert_eq!(direct.quantities, a.quantities);
        assert_eq!(direct.to_tsv(), a.to_tsv());
    }

    #[test]
    fn archive_path_without_faults_matches_the_direct_path() {
        use crate::config::ArchiveConfig;
        let s = Scenario::paper_scaled(1 << 13, 11);
        let direct = run(&s, &AnalysisConfig::fast());
        let archived = run(&s, &AnalysisConfig::fast().with_archive(ArchiveConfig::default()));
        assert_eq!(archived.restore.len(), 5);
        for r in &archived.restore {
            assert!(r.is_complete(), "clean archive must restore completely: {r:?}");
            r.check_invariants().unwrap();
        }
        assert_eq!(direct.quantities, archived.quantities);
        assert_eq!(direct.curves, archived.curves);
        assert_eq!(direct.peaks, archived.peaks);
    }

    #[test]
    fn archive_path_folds_out_of_core_under_a_budget() {
        use crate::config::{ArchiveConfig, SpillSettings};
        use obscor_telescope::FaultPlan;
        let s = Scenario::paper_scaled(1 << 13, 11);
        let direct = run(&s, &AnalysisConfig::fast());
        let archived = |rate: f64, budget: Option<u64>| {
            let plan = FaultPlan::new(7, rate).unwrap();
            let mut cfg =
                AnalysisConfig::fast().with_archive(ArchiveConfig::with_fault_plan(plan));
            cfg.spill = budget.map(SpillSettings::with_budget);
            run(&s, &cfg)
        };
        // A zero-rate plan under a zero budget: the direct run's outputs,
        // every window restored completely and spilled exactly.
        let a = archived(0.0, Some(0));
        assert_eq!(a.restore.len(), 5);
        assert_eq!(a.spill.len(), 5);
        assert!(a.spill_fallbacks.is_empty());
        for (r, sp) in a.restore.iter().zip(&a.spill) {
            assert!(r.is_complete(), "{r:?}");
            assert!(sp.is_exact(), "{sp:?}");
            assert!(sp.stats.evictions > 0, "budget 0 must evict: {sp:?}");
        }
        assert_eq!(direct.quantities, a.quantities);
        assert_eq!(direct.peaks, a.peaks);
        assert_eq!(direct.curves, a.curves);
        assert_eq!(direct.to_tsv(), a.to_tsv());
        // The archived leaves are the fold's leaves: the same leaf and
        // carry-merge counts as the budgeted direct fold.
        let spilled = run(&s, &AnalysisConfig::fast().with_spill(SpillSettings::with_budget(0)));
        let shape = |r: &SpillReport| (r.stats.leaves, r.stats.carry_merges);
        let want: Vec<_> = spilled.spill.iter().map(shape).collect();
        assert_eq!(a.spill.iter().map(shape).collect::<Vec<_>>(), want);
        // A faulting plan: the budget changes neither the matrices nor
        // what the restore got back.
        let (resident, spilled) = (archived(0.4, None), archived(0.4, Some(0)));
        assert!(resident.restore.iter().any(|r| !r.is_complete()));
        assert_eq!(resident.restore, spilled.restore);
        assert_eq!(resident.quantities, spilled.quantities);
        assert_eq!(resident.to_tsv(), spilled.to_tsv());
        assert!(resident.spill.is_empty());
        assert!(spilled.spill.iter().all(|sp| sp.is_exact() && sp.stats.evictions > 0));
    }

    #[test]
    fn faulted_archive_path_degrades_with_accounting() {
        use crate::config::ArchiveConfig;
        use obscor_telescope::FaultPlan;
        let s = Scenario::paper_scaled(1 << 13, 11);
        let cfg = AnalysisConfig::fast()
            .with_archive(ArchiveConfig::with_fault_plan(FaultPlan::new(7, 0.4).unwrap()));
        let a = run(&s, &cfg);
        assert_eq!(a.restore.len(), 5);
        assert!(
            a.restore.iter().any(|r| !r.is_complete()),
            "seed 7 at rate 0.4 must injure at least one window"
        );
        for (r, (_, q)) in a.restore.iter().zip(&a.quantities) {
            r.check_invariants().unwrap();
            // Downstream statistics really did run on the surviving
            // leaves: Table II's packet count equals what the restore
            // says it recovered.
            assert_eq!(q.valid_packets, r.packets_restored);
            assert!(r.coverage() <= 1.0);
        }
    }
}
