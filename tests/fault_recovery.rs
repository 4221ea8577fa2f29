//! Differential tests of the fault-injection + recovery layer.
//!
//! The recovering restore claims three things, each checked here against
//! an independently-computed ground truth:
//!
//! 1. **Zero faults change nothing**: restoring a clean archive is
//!    bit-identical to building the window matrix directly, and the
//!    pipeline's archive path reproduces the direct path exactly.
//! 2. **Quarantine is surgical**: with K leaves permanently corrupt, the
//!    restored matrix equals the matrix built directly from the surviving
//!    leaves' packet ranges — nothing else is lost, nothing is invented.
//! 3. **The accounting is exact**: `RestoreReport` packet counts are
//!    integer-exact against the leaf partition, and the whole process is
//!    deterministic in the fault-plan seed.

use obscor_core::{pipeline, AnalysisConfig, ArchiveConfig, SpillSettings};
use obscor_hypersparse::spill::{MemMedium, SpillConfig, SpillMedium};
use obscor_hypersparse::{reduce, Coo, Csr, HierarchicalAccumulator, SpillReport};
use obscor_netmodel::Scenario;
use obscor_telescope::{
    archive_window, capture_window, matrix, restore, Fault, FaultKind, FaultPlan, FaultyMedium,
    RestoreReport, TelescopeWindow, WindowArchive,
};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::sync::Arc;

fn window(nv: usize, seed: u64) -> TelescopeWindow {
    let s = Scenario::paper_scaled(nv, seed);
    capture_window(&s, &s.caida_windows[0])
}

/// Restore `archive` through `medium` into a fresh resident window fold.
fn restored(archive: &WindowArchive, medium: &dyn SpillMedium) -> (Csr<u64>, RestoreReport) {
    let (mut fold, _) = matrix::window_fold(archive.leaf_nv.max(1), None);
    let report = restore(archive, medium, &mut fold);
    (fold.finalize(), report)
}

/// The matrix a direct build would produce from only the packet ranges of
/// `surviving` leaves — the ground truth a degraded restore must match.
fn matrix_of_surviving_leaves(
    w: &TelescopeWindow,
    archive: &WindowArchive,
    surviving: &[usize],
) -> Csr<u64> {
    let chunks: Vec<_> = w.window.packets.chunks(archive.leaf_nv).collect();
    let mut coo = Coo::new();
    for p in surviving.iter().flat_map(|&i| chunks[i]) {
        coo.push(p.src.0, p.dst.0, 1u64);
    }
    coo.into_csr()
}

/// Leaf indices the bounded-retry read keeps, under `plan`: unfaulted
/// leaves and transient reads (whose failure budget is within the retry
/// budget). Truncation, bit flips, and drops are quarantined.
fn surviving_indices(plan: &FaultPlan, archive: &WindowArchive) -> Vec<usize> {
    plan.assignments(archive)
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            matches!(f, None | Some(Fault::TransientRead { .. }))
        })
        .map(|(i, _)| i)
        .collect()
}

#[test]
fn zero_fault_restore_is_bit_identical_to_direct_build() {
    let w = window(1 << 12, 5);
    let direct = matrix::build_matrix(&w);
    for n_leaves in [1usize, 3, 16, 50] {
        let archive = archive_window(&w, n_leaves);
        let (restored, report) = restored(&archive, &archive.medium);
        assert_eq!(restored, direct, "n_leaves = {n_leaves}");
        assert!(report.is_complete());
        assert_eq!(report.coverage(), 1.0);
        report.check_invariants().unwrap();
    }
}

#[test]
fn degraded_restore_equals_direct_build_over_surviving_leaves() {
    let w = window(1 << 12, 5);
    let archive = archive_window(&w, 32);
    for (seed, rate) in [(1u64, 0.2), (7, 0.5), (99, 0.8)] {
        let plan = FaultPlan::new(seed, rate).unwrap();
        let surviving = surviving_indices(&plan, &archive);
        let (restored, report) = restored(&archive, &FaultyMedium::new(&archive.medium, plan));
        let expected = matrix_of_surviving_leaves(&w, &archive, &surviving);
        assert_eq!(
            restored, expected,
            "plan {seed}:{rate}: restore must equal the surviving-leaf build"
        );
        assert_eq!(report.n_restored(), surviving.len());
        report.check_invariants().unwrap();
    }
}

#[test]
fn coverage_accounting_is_integer_exact() {
    let w = window(1 << 12, 5);
    let archive = archive_window(&w, 32);
    let plan = FaultPlan::new(13, 0.4).unwrap();
    let surviving = surviving_indices(&plan, &archive);
    let (restored, report) = restored(&archive, &FaultyMedium::new(&archive.medium, plan));

    // Expected packets: the whole window. Restored packets: exactly the
    // sizes of the surviving leaves' packet chunks.
    let chunks: Vec<usize> =
        w.window.packets.chunks(archive.leaf_nv).map(|c| c.len()).collect();
    let expected_restored: u64 = surviving.iter().map(|&i| chunks[i] as u64).sum();
    assert_eq!(report.packets_expected, w.packets() as u64);
    assert_eq!(report.packets_restored, expected_restored);
    assert_eq!(report.packets_restored, reduce::valid_packets(&restored));
    let expect_cov = expected_restored as f64 / w.packets() as f64;
    assert!((report.coverage() - expect_cov).abs() < 1e-12);
    // Quarantine list is exactly the complement of the survivors.
    let quarantined: Vec<usize> = report.quarantined.iter().map(|q| q.index).collect();
    let complement: Vec<usize> =
        (0..archive.n_leaves()).filter(|i| !surviving.contains(i)).collect();
    assert_eq!(quarantined, complement);
}

#[test]
fn restore_is_deterministic_under_a_fixed_seed() {
    let w = window(1 << 12, 5);
    let archive = archive_window(&w, 24);
    let plan = FaultPlan::new(21, 0.6).unwrap();
    // Fresh FaultyMedium each time: transient budgets reset with it.
    let (m1, r1) = restored(&archive, &FaultyMedium::new(&archive.medium, plan.clone()));
    let (m2, r2) = restored(&archive, &FaultyMedium::new(&archive.medium, plan));
    assert_eq!(m1, m2);
    assert_eq!(r1, r2);
    // And a different seed genuinely changes the outcome at this rate.
    let other = FaultPlan::new(22, 0.6).unwrap();
    let (_, r3) = restored(&archive, &FaultyMedium::new(&archive.medium, other));
    assert_ne!(r1.quarantined, r3.quarantined, "seed must steer the plan");
}

#[test]
fn transient_only_plans_always_recover_completely() {
    let w = window(1 << 12, 5);
    let archive = archive_window(&w, 16);
    let direct = matrix::build_matrix(&w);
    for seed in [1u64, 2, 3] {
        let plan = FaultPlan::with_kinds(seed, 1.0, &[FaultKind::TransientRead]).unwrap();
        let (restored, report) = restored(&archive, &FaultyMedium::new(&archive.medium, plan));
        assert_eq!(restored, direct, "seed {seed}");
        assert!(report.is_complete());
        assert!(report.retries > 0, "full-rate transient plan must have retried");
        assert_eq!(report.recovered, 16);
    }
}

#[test]
fn fault_metrics_are_recorded_on_the_faulted_path_only() {
    let w = window(1 << 12, 5);
    let archive = archive_window(&w, 16);

    let before = obscor_obs::snapshot();
    let (_, report) = restored(&archive, &archive.medium);
    let clean_delta = obscor_obs::snapshot().delta_since(&before);
    assert!(report.is_complete());
    // Tests share the process-global registry, so only assert what this
    // thread alone controls: a clean restore emits no *injection*
    // counters unless some concurrent test injected faults itself.
    let plan = FaultPlan::new(4, 0.7).unwrap();
    let before = obscor_obs::snapshot();
    let n_faulted = plan.assignments(&archive).iter().flatten().count();
    let (_, report) = restored(&archive, &FaultyMedium::new(&archive.medium, plan));
    let fault_delta = obscor_obs::snapshot().delta_since(&before);
    assert!(!report.is_complete(), "seed 4 at 0.7 must injure this archive");
    for name in [
        "telescope.faults.injected_total",
        "telescope.restore.quarantined_total",
        "telescope.restore.leaves_total",
    ] {
        assert!(
            fault_delta.counters.get(name).copied().unwrap_or(0) > 0,
            "missing counter {name}; clean delta had {:?}",
            clean_delta.counters.get(name)
        );
    }
    assert!(
        fault_delta.counters["telescope.faults.injected_total"] >= n_faulted as u64
    );
}

#[test]
fn pipeline_archive_path_without_faults_reproduces_every_artifact() {
    let s = Scenario::paper_scaled(1 << 12, 9);
    let direct = pipeline::run(&s, &AnalysisConfig::fast());
    let archived =
        pipeline::run(&s, &AnalysisConfig::fast().with_archive(ArchiveConfig::default()));
    assert!(archived.restore.iter().all(|r| r.is_complete()));
    assert_eq!(direct.quantities, archived.quantities);
    assert_eq!(direct.distributions, archived.distributions);
    assert_eq!(direct.peaks, archived.peaks);
    assert_eq!(direct.curves, archived.curves);
    assert_eq!(direct.fits, archived.fits);
}

#[test]
fn pipeline_archive_path_under_a_budget_matches_the_unbudgeted_runs() {
    let s = Scenario::paper_scaled(1 << 12, 9);
    let run = |rate: f64, spill: Option<SpillSettings>| {
        let plan = FaultPlan::new(7, rate).unwrap();
        let mut config = AnalysisConfig::fast().with_archive(ArchiveConfig::with_fault_plan(plan));
        config.spill = spill;
        pipeline::run(&s, &config)
    };
    // Zero-rate plan, zero budget: every artifact of the direct run, with
    // a complete restore and an exact, evicting spill fold per window.
    let direct = pipeline::run(&s, &AnalysisConfig::fast());
    let archived = run(0.0, Some(SpillSettings::with_budget(0)));
    assert_eq!(archived.restore.len(), 5);
    assert_eq!(archived.spill.len(), 5);
    for (restore, spill) in archived.restore.iter().zip(&archived.spill) {
        assert!(restore.is_complete(), "{restore:?}");
        assert!(spill.is_exact(), "{spill:?}");
        assert!(spill.stats.evictions > 0, "budget 0 must evict: {spill:?}");
        spill.check_invariants().unwrap();
    }
    assert_eq!(direct.quantities, archived.quantities);
    assert_eq!(direct.peaks, archived.peaks);
    assert_eq!(direct.curves, archived.curves);
    assert_eq!(direct.to_tsv(), archived.to_tsv());
    // A faulting plan: the budget moves neither a matrix nor a report.
    let resident = run(0.3, None);
    let spilled = run(0.3, Some(SpillSettings::with_budget(0)));
    assert!(resident.restore.iter().any(|r| r.coverage() < 1.0));
    assert_eq!(resident.restore, spilled.restore);
    assert_eq!(resident.quantities, spilled.quantities);
    assert_eq!(resident.to_tsv(), spilled.to_tsv());
}

// ---------------------------------------------------------------------
// Spill-layer faults: the same plan machinery pointed at the out-of-core
// build's reading layer (DESIGN.md §16). A corrupt spill frame must
// degrade coverage — quarantining the exact leaf interval the part
// covered — and never change a single surviving bit.
// ---------------------------------------------------------------------

/// Deterministic heavy-tailed stream for the spill-fault tests.
fn spill_pairs(n: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let src: u32 = rng.random_range(0u32..500) * 7 + 1;
            let dst: u32 = rng.random_range(0u32..80) + (44 << 24);
            (src, dst)
        })
        .collect()
}

/// The budgeted build with `plan` injected between the spill store and
/// its in-memory medium. A zero budget evicts every carry, so every part
/// crosses the faulted reading layer at least once.
fn spilled_with_plan(pairs: &[(u32, u32)], leaf: usize, plan: FaultPlan) -> (Csr<u64>, SpillReport) {
    let medium = FaultyMedium::new(MemMedium::new(), plan);
    let config = SpillConfig { leaf_capacity: leaf, memory_budget: Some(0) };
    let mut acc = HierarchicalAccumulator::spilling(config, Arc::new(medium));
    for &(s, d) in pairs {
        acc.push_edge(s, d);
    }
    acc.finalize_with_report()
}

/// Ground truth for a degraded spill build: the flat one-shot build over
/// exactly the leaves *outside* every quarantined `[first_leaf,
/// first_leaf + n_leaves)` interval.
fn flat_of_surviving(pairs: &[(u32, u32)], leaf: usize, report: &SpillReport) -> Csr<u64> {
    let n_leaves = pairs.len().div_ceil(leaf);
    let mut lost = vec![false; n_leaves];
    for q in &report.quarantined {
        for i in q.first_leaf..q.first_leaf + q.n_leaves {
            lost[usize::try_from(i).unwrap()] = true;
        }
    }
    Coo::from_triples(
        pairs
            .chunks(leaf)
            .enumerate()
            .filter(|(i, _)| !lost[*i])
            .flat_map(|(_, c)| c.iter().map(|&(s, d)| (s, d, 1u64))),
    )
    .into_csr()
}

#[test]
fn clean_plan_on_the_spill_layer_changes_nothing() {
    let p = spill_pairs(4_000, 11);
    let oracle = Coo::from_triples(p.iter().map(|&(s, d)| (s, d, 1u64))).into_csr();
    let (m, report) = spilled_with_plan(&p, 100, FaultPlan::new(1, 0.0).unwrap());
    assert_eq!(m, oracle);
    assert!(report.is_exact(), "{report:?}");
    assert!(report.stats.reloads > 0, "zero budget must route parts through the medium");
    report.check_invariants().unwrap();
}

#[test]
fn faulted_spill_build_equals_flat_build_over_surviving_leaves() {
    let p = spill_pairs(4_000, 11);
    for (seed, rate) in [(1u64, 0.2), (7, 0.5), (99, 0.8)] {
        let (m, report) = spilled_with_plan(&p, 100, FaultPlan::new(seed, rate).unwrap());
        report.check_invariants().unwrap();
        assert!(
            !report.quarantined.is_empty(),
            "plan {seed}:{rate} never fired on {} evictions",
            report.stats.evictions
        );
        let expected = flat_of_surviving(&p, 100, &report);
        assert_eq!(
            m, expected,
            "plan {seed}:{rate}: degraded build must equal the surviving-leaf build"
        );
        // Accounting is integer-exact against the leaf partition.
        let lost: u64 = report.quarantined.iter().map(|q| q.packets).sum();
        assert_eq!(report.packets_restored, report.packets_expected - lost);
        assert_eq!(report.packets_restored, reduce::valid_packets(&m));
        assert!(report.coverage() < 1.0, "plan {seed}:{rate}");
    }
}

#[test]
fn transient_only_spill_plans_recover_exactly() {
    let p = spill_pairs(3_000, 23);
    let oracle = Coo::from_triples(p.iter().map(|&(s, d)| (s, d, 1u64))).into_csr();
    for seed in [1u64, 2, 3] {
        let plan = FaultPlan::with_kinds(seed, 1.0, &[FaultKind::TransientRead]).unwrap();
        let (m, report) = spilled_with_plan(&p, 64, plan);
        assert_eq!(m, oracle, "seed {seed}: transient faults must be retried away");
        assert!(report.is_exact(), "seed {seed}: {report:?}");
        assert!(report.stats.reloads > 0);
    }
}

#[test]
fn spill_fault_handling_is_deterministic_in_the_plan_seed() {
    let p = spill_pairs(4_000, 11);
    let plan = FaultPlan::new(21, 0.6).unwrap();
    // Fresh FaultyMedium each run: transient budgets reset with it.
    let (m1, r1) = spilled_with_plan(&p, 100, plan.clone());
    let (m2, r2) = spilled_with_plan(&p, 100, plan);
    assert_eq!(m1, m2);
    assert_eq!(r1.quarantined, r2.quarantined);
    assert_eq!(r1.stats, r2.stats);
    // A different seed genuinely steers which parts are lost.
    let (_, r3) = spilled_with_plan(&p, 100, FaultPlan::new(22, 0.6).unwrap());
    assert_ne!(r1.quarantined, r3.quarantined, "seed must steer the plan");
}

#[test]
fn pipeline_faulted_path_computes_over_surviving_packets() {
    let s = Scenario::paper_scaled(1 << 12, 9);
    let plan = FaultPlan::new(7, 0.3).unwrap();
    let a = pipeline::run(
        &s,
        &AnalysisConfig::fast().with_archive(ArchiveConfig::with_fault_plan(plan)),
    );
    assert_eq!(a.restore.len(), 5);
    assert!(a.restore.iter().any(|r| r.coverage() < 1.0));
    for (r, (label, q)) in a.restore.iter().zip(&a.quantities) {
        assert_eq!(r.label, *label);
        assert_eq!(q.valid_packets, r.packets_restored, "{label}");
        r.check_invariants().unwrap();
    }
}
