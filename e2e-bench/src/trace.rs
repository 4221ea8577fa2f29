//! The traced run of the reproduce workloads.
//!
//! `pipeline::run` has spans for only part of its stages, so the trace is
//! taken from outside: [`mirror`] calls the same public stage functions in
//! the pipeline's order and times each call with the `obs` stopwatch. Its
//! outputs must equal the untraced run's, so the times belong to the same
//! work. Work counts come from the counters the untraced run recorded in
//! `PaperAnalysis::metrics` and its spill reports.

use crate::calibrate::{Calibration, Kernel};
use crate::reproduce::Plan;
use crate::stats::with_peak_rss;
use crate::workload::Outcome;
use obscor_anonymize::sharing::Holder;
use obscor_assoc::{BitSet, KeySet, MonthMatrix, NumKeySet};
use obscor_core::classes::{class_correlation, ClassCorrelation};
use obscor_core::distribution::{binned_distribution, degree_distribution, DegreeDistribution};
use obscor_core::fitscan::fit_curves;
use obscor_core::peak::{peak_correlation, peak_correlation_bits, PeakCorrelation};
use obscor_core::pipeline::{self, PaperAnalysis};
use obscor_core::scaling::source_scaling;
use obscor_core::subnets::aggregate_by_prefix;
use obscor_core::temporal::{temporal_curves, temporal_curves_bits, TemporalCurve};
use obscor_core::{AnalysisConfig, WindowDegrees};
use obscor_honeyfarm::observe_all_months;
use obscor_hypersparse::reduce::{self, NetworkQuantities};
use obscor_hypersparse::Csr;
use obscor_netmodel::Scenario;
use obscor_obs::time_fn;
use obscor_telescope::{capture_all_windows, inventory, matrix};
use rayon::prelude::*;
use std::hint::black_box;

/// The outputs the mirror is checked on.
#[derive(Debug, PartialEq)]
struct Outputs {
    /// Table II quantities per window.
    quantities: Vec<(String, NetworkQuantities)>,
    /// Fig 4 per window.
    peaks: Vec<PeakCorrelation>,
    /// Figs 5/6 curves.
    curves: Vec<TemporalCurve>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Stage timer: records each stage's wall time as its metric and keeps
/// the attributed total.
struct Stages<'a> {
    out: &'a mut Outcome,
    attributed_ms: f64,
}

impl Stages<'_> {
    fn time<R>(&mut self, metric: &'static str, f: impl FnOnce() -> R) -> R {
        let (r, ns) = time_fn(f);
        self.out.set(metric, ms(ns));
        self.attributed_ms += ms(ns);
        r
    }

    /// Run `f` with the peak-RSS watermark reset before it, recording the
    /// stage's peak under `metric`. Skipped where `/proc/self/clear_refs`
    /// is not writable.
    fn rss<R>(&mut self, metric: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let (r, peak) = with_peak_rss(|| f(self));
        if let Some(peak) = peak {
            self.out.set(metric, peak);
        }
        r
    }
}

/// `pipeline::run`'s stages, called in its order and timed one by one.
/// Returns the checked outputs; every other result is computed and
/// discarded, as the pipeline would hand it to the report.
fn mirror(scenario: &Scenario, config: &AnalysisConfig, st: &mut Stages) -> Outputs {
    // The key changes no output (degrees are deanonymized again) and no
    // amount of work.
    let holder = Holder::new("telescope-operator", &[0x42u8; 32]);
    let windows = st.time("telescope.capture_ms", || {
        let windows = capture_all_windows(scenario);
        black_box(inventory(&windows));
        windows
    });
    let matrices: Vec<Csr<u64>> = st.rss("hypersparse.build_rss_mb", |st| match &config.spill {
        None => st.time("hypersparse.build_ms", || {
            windows.par_iter().map(matrix::build_matrix).collect()
        }),
        Some(sp) => st.time("hypersparse.spill_build_ms", || {
            windows
                .iter()
                .map(|w| {
                    matrix::build_matrix_spilled(w, Some(sp.memory_budget), sp.spill_dir.as_deref())
                        .map_or_else(|_| matrix::build_matrix(w), |(m, _)| m)
                })
                .collect()
        }),
    });
    let quantities: Vec<(String, NetworkQuantities)> = st.time("hypersparse.quantities_ms", || {
        windows
            .iter()
            .zip(&matrices)
            .map(|(w, m)| (w.label.clone(), NetworkQuantities::compute(m)))
            .collect()
    });
    let degrees: Vec<WindowDegrees> = st.time("core.degrees_ms", || {
        windows
            .par_iter()
            .zip(&matrices)
            .map(|(w, m)| {
                let month = (w.coord.floor() as usize).min(scenario.grid.len() - 1);
                WindowDegrees::from_matrix(&w.label, w.coord, month, m, &holder)
            })
            .collect()
    });
    let months = st.rss("honeyfarm.months_rss_mb", |st| {
        st.time("honeyfarm.months_ms", || observe_all_months(scenario))
    });
    let (monthly_sources, monthly_bits, month_matrix) = st.rss("assoc.sets_rss_mb", |st| {
        st.time("assoc.sets_ms", || {
            black_box(
                months
                    .iter()
                    .map(|m| (m.label.clone(), m.n_sources()))
                    .collect::<Vec<_>>(),
            );
            let sources: Vec<KeySet> = months.iter().map(|m| m.source_keys().clone()).collect();
            let ip: Option<Vec<NumKeySet>> = sources.iter().map(NumKeySet::from_key_set).collect();
            let bits: Option<Vec<BitSet>> = ip
                .as_ref()
                .map(|months| months.iter().map(BitSet::from_num_key_set).collect());
            let mm = bits.as_ref().map(|bits| MonthMatrix::from_bit_sets(bits));
            (sources, bits, mm)
        })
    });
    if let Some(mm) = &month_matrix {
        let (arrays, bitmaps, runs) = mm.container_census();
        st.out
            .set("assoc.containers", (arrays + bitmaps + runs) as f64);
    }
    st.time("core.quadrants_ms", || {
        let engaged: u64 = months
            .iter()
            .map(|m| {
                m.assoc
                    .iter()
                    .filter(|(_, c, v)| *c == "handshake" && *v == "true")
                    .count() as u64
            })
            .sum();
        let nnz: u64 = matrices.iter().map(|m| m.nnz() as u64).sum();
        black_box((engaged, nnz));
    });
    st.rss("core.distributions_rss_mb", |st| {
        st.time("core.distributions_ms", || {
            let d: Vec<DegreeDistribution> = degrees
                .par_iter()
                .map(|wd| degree_distribution(wd, config))
                .collect();
            black_box(d);
        })
    });
    st.time("core.quantity_distributions_ms", || {
        if let (Some(m), Some(w)) = (matrices.first(), windows.first()) {
            let label = &w.label;
            black_box([
                binned_distribution(
                    label,
                    reduce::source_fan_out(m).into_iter().map(|(_, d)| d),
                    config,
                ),
                binned_distribution(
                    label,
                    reduce::destination_fan_in(m).into_iter().map(|(_, d)| d),
                    config,
                ),
                binned_distribution(
                    label,
                    reduce::destination_packets(m).into_iter().map(|(_, d)| d),
                    config,
                ),
                binned_distribution(label, m.values().iter().copied(), config),
            ]);
        }
    });
    let peaks: Vec<PeakCorrelation> = st.time("core.peaks_ms", || {
        degrees
            .par_iter()
            .map(|wd| match &monthly_bits {
                Some(bits) => peak_correlation_bits(
                    wd,
                    &bits[wd.month],
                    scenario.bright_log2(),
                    config.min_bin_sources,
                ),
                None => peak_correlation(
                    wd,
                    &monthly_sources[wd.month],
                    scenario.bright_log2(),
                    config.min_bin_sources,
                ),
            })
            .collect()
    });
    let curves: Vec<TemporalCurve> = st.time("core.curves_ms", || {
        degrees
            .par_iter()
            .flat_map(|wd| match &month_matrix {
                Some(mm) => temporal_curves_bits(wd, mm, config.min_bin_sources),
                None => temporal_curves(wd, &monthly_sources, config.min_bin_sources),
            })
            .collect()
    });
    st.time("core.fits_ms", || black_box(fit_curves(&curves, config)));
    st.time("core.extensions_ms", || {
        let classes: Vec<ClassCorrelation> = degrees
            .iter()
            .map(|wd| class_correlation(wd, &months[wd.month]))
            .collect();
        let scaling: Vec<_> = windows
            .iter()
            .filter_map(|w| source_scaling(&w.window.packets, 8))
            .collect();
        let subnets: Vec<_> = degrees
            .iter()
            .map(|wd| {
                let mut rows = aggregate_by_prefix(wd, 16);
                rows.truncate(5);
                rows
            })
            .collect();
        black_box((classes, scaling, subnets));
    });
    Outputs {
        quantities,
        peaks,
        curves,
    }
}

/// Work counts of the untraced run, from its own metrics and reports.
fn record_counts(out: &mut Outcome, a: &PaperAnalysis) {
    let c = |name: &str| a.metrics.counters.get(name).copied().unwrap_or(0) as f64;
    out.set(
        "telescope.packets",
        c("telescope.capture.valid_packets_total"),
    );
    out.set("hypersparse.nnz", c("stage.matrices.nnz_total"));
    out.set("core.binning_values", c("core.binning.values_total"));
    out.set("core.curves", a.curves.len() as f64);
    out.set("core.fits", a.fits.len() as f64);
    out.set(
        "honeyfarm.sources",
        a.greynoise_inventory.iter().map(|r| r.sources as f64).sum(),
    );
    if a.spill.is_empty() {
        out.set(
            "hypersparse.leaves",
            c("hypersparse.accumulator.leaves_total"),
        );
        out.set(
            "hypersparse.merges",
            c("hypersparse.accumulator.merges_total")
                + c("hypersparse.merge_all.pair_merges_total"),
        );
        return;
    }
    let sum = |f: fn(&obscor_hypersparse::SpillStats) -> u64| {
        a.spill.iter().map(|r| f(&r.stats) as f64).sum::<f64>()
    };
    out.set("hypersparse.leaves", sum(|s| s.leaves));
    out.set("hypersparse.merges", sum(|s| s.merges()));
    out.set("hypersparse.spill_evictions", sum(|s| s.evictions));
    out.set("hypersparse.spill_reloads", sum(|s| s.reloads));
    out.set(
        "hypersparse.spill_bytes_written",
        c("hypersparse.spill.bytes_written_total"),
    );
    out.set(
        "hypersparse.spill_bytes_read",
        c("hypersparse.spill.bytes_read_total"),
    );
    let peak = a
        .spill
        .iter()
        .map(|r| r.stats.peak_live_bytes)
        .max()
        .unwrap_or(0);
    out.set("hypersparse.peak_live_bytes", peak as f64);
}

/// One untraced and one traced run of the workload's scenario.
pub fn run(plan: &Plan, seed: u64) -> Outcome {
    if plan.spill {
        obscor_hypersparse::spill::enable_spill_metrics();
    }
    let mut out = Outcome::default();
    let mut cal = Calibration::start(Kernel::Sort);
    let config = plan.config();
    let (scenario, ns) = time_fn(|| plan.scenario(seed));
    out.set("netmodel.scenario_ms", ms(ns));
    let (a, ns) = time_fn(|| pipeline::run(&scenario, &config));
    let untraced_ms = ms(ns);
    let digest = plan.check(&mut out, &a);
    plan.check_digest(&mut out, seed, digest);
    record_counts(&mut out, &a);
    let expected = Outputs {
        quantities: a.quantities,
        peaks: a.peaks,
        curves: a.curves,
    };
    let mut st = Stages {
        out: &mut out,
        attributed_ms: 0.0,
    };
    let (got, ns) = time_fn(|| mirror(&scenario, &config, &mut st));
    let attributed_ms = st.attributed_ms;
    let traced_ms = ms(ns);
    out.check(got == expected, || {
        "traced mirror diverged from pipeline::run".into()
    });
    cal.factor();
    out.set("host.calibration_ms", cal.median_ms());
    out.set("trace.total_ms", traced_ms);
    out.set(
        "trace.unattributed_pct",
        100.0 * (traced_ms - attributed_ms) / traced_ms,
    );
    out.set(
        "trace.overhead_pct",
        100.0 * (traced_ms - untraced_ms) / untraced_ms,
    );
    out
}
