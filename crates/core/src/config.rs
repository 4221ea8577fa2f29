//! Analysis configuration: bin thresholds and fit grids.

use obscor_stats::fit::{default_mc_alpha_grid, default_mc_beta_grid};
use obscor_stats::zipf::{default_alpha_grid, default_delta_grid};
use obscor_telescope::FaultPlan;
pub use obscor_telescope::SpillSettings;

/// Configuration of the archive → restore matrix path: instead of
/// folding each window's packets directly, serialize the window into the
/// leaf matrices its fold would cut (the paper's hierarchical LBNL
/// archive), optionally injure them with a seeded [`FaultPlan`], and fold
/// the leaves the recovering restore gets back. The default analysis path
/// skips all of this (`AnalysisConfig::archive` is `None`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ArchiveConfig {
    /// Seeded fault injection applied to the archives before restoration
    /// (each window draws its own assignment, [`FaultPlan::for_window`]);
    /// `None` archives and restores cleanly.
    pub fault_plan: Option<FaultPlan>,
}

impl ArchiveConfig {
    /// An archive path injured by `plan`.
    pub fn with_fault_plan(plan: FaultPlan) -> Self {
        Self { fault_plan: Some(plan) }
    }
}

/// Knobs of the correlation analysis. The defaults reproduce the paper's
/// procedure.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalysisConfig {
    /// Minimum sources a log2 degree bin must hold to enter the
    /// correlation statistics (guards the bright tail where a bin may
    /// hold one or two sources).
    pub min_bin_sources: usize,
    /// Zipf–Mandelbrot α grid for the Fig 3 fit.
    pub zm_alphas: Vec<f64>,
    /// Zipf–Mandelbrot δ grid for the Fig 3 fit.
    pub zm_deltas: Vec<f64>,
    /// Modified-Cauchy α grid for the Fig 5-8 fits.
    pub mc_alphas: Vec<f64>,
    /// Modified-Cauchy β grid for the Fig 5-8 fits.
    pub mc_betas: Vec<f64>,
    /// When set, each window's fold is fed through the archive → restore
    /// path (serialize to leaves, optionally fault-inject, recover) and
    /// the analysis records a [`obscor_telescope::RestoreReport`] per
    /// window. `None` (the default) folds the captured packets directly.
    pub archive: Option<ArchiveConfig>,
    /// When set, each window's fold spills out-of-core under the given
    /// memory budget, whatever feeds it, and the analysis records a
    /// [`obscor_hypersparse::SpillReport`] per window. `None` (the
    /// default) folds fully in memory.
    pub spill: Option<SpillSettings>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        Self {
            min_bin_sources: 10,
            zm_alphas: default_alpha_grid(),
            zm_deltas: default_delta_grid(),
            mc_alphas: default_mc_alpha_grid(),
            mc_betas: default_mc_beta_grid(),
            archive: None,
            spill: None,
        }
    }
}

impl AnalysisConfig {
    /// A coarser configuration for fast tests: smaller grids, same
    /// structure.
    pub fn fast() -> Self {
        Self {
            min_bin_sources: 5,
            zm_alphas: (2..=16).map(|i| i as f64 * 0.25).collect(),
            zm_deltas: vec![0.0, 1.0, 2.0, 4.0],
            mc_alphas: (1..=16).map(|i| i as f64 * 0.25).collect(),
            mc_betas: (0..20).map(|i| 0.05 * 1.5f64.powi(i)).collect(),
            archive: None,
            spill: None,
        }
    }

    /// The same configuration, with matrices built through the archive →
    /// restore path.
    pub fn with_archive(mut self, archive: ArchiveConfig) -> Self {
        self.archive = Some(archive);
        self
    }

    /// The same configuration, with every window folded out-of-core under
    /// `spill`'s memory budget.
    pub fn with_spill(mut self, spill: SpillSettings) -> Self {
        self.spill = Some(spill);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grids_are_nonempty() {
        let c = AnalysisConfig::default();
        assert!(!c.zm_alphas.is_empty());
        assert!(!c.zm_deltas.is_empty());
        assert!(!c.mc_alphas.is_empty());
        assert!(!c.mc_betas.is_empty());
        assert!(c.min_bin_sources > 0);
    }

    #[test]
    fn fast_is_smaller_than_default() {
        let (f, d) = (AnalysisConfig::fast(), AnalysisConfig::default());
        assert!(f.zm_alphas.len() < d.zm_alphas.len());
        assert!(f.mc_alphas.len() < d.mc_alphas.len());
        assert!(f.mc_betas.len() < d.mc_betas.len());
    }

    #[test]
    fn archive_path_is_off_by_default() {
        assert!(AnalysisConfig::default().archive.is_none());
        assert!(AnalysisConfig::fast().archive.is_none());
        let with = AnalysisConfig::fast().with_archive(ArchiveConfig::default());
        assert!(with.archive.unwrap().fault_plan.is_none());
        let plan = FaultPlan::new(3, 0.5).unwrap();
        let faulted = ArchiveConfig::with_fault_plan(plan.clone());
        assert_eq!(faulted.fault_plan, Some(plan));
    }

    #[test]
    fn spill_path_is_off_by_default() {
        assert!(AnalysisConfig::default().spill.is_none());
        assert!(AnalysisConfig::fast().spill.is_none());
        let with = AnalysisConfig::fast().with_spill(SpillSettings::with_budget(1 << 20));
        let spill = with.spill.unwrap();
        assert_eq!(spill.memory_budget, 1 << 20);
        assert!(spill.spill_dir.is_none());
    }
}
