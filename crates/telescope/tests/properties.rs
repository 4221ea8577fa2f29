//! Property-based tests of the fault-injection + recovery layer.
//!
//! The recovering restore must be *total* (no fault plan, however
//! hostile, can panic it), *honest* (its report's accounting matches the
//! matrix it returns), and *deterministic* (a plan is a pure function of
//! its seed). Each property drives the whole injector + restore stack
//! over randomized seeds and rates.

use obscor_hypersparse::spill::{SpillMedium, MAX_ATTEMPTS};
use obscor_hypersparse::{reduce, Csr};
use obscor_netmodel::Scenario;
use obscor_telescope::{
    archive_window, build_matrix, capture_window, restore, window_fold, Fault, FaultKind,
    FaultPlan, FaultyMedium, RestoreReport, TelescopeWindow, WindowArchive,
};
use proptest::prelude::*;
use std::sync::OnceLock;

fn window() -> &'static TelescopeWindow {
    static W: OnceLock<TelescopeWindow> = OnceLock::new();
    W.get_or_init(|| {
        let s = Scenario::paper_scaled(1 << 12, 5);
        capture_window(&s, &s.caida_windows[0])
    })
}

fn archive() -> &'static WindowArchive {
    static A: OnceLock<WindowArchive> = OnceLock::new();
    A.get_or_init(|| archive_window(window(), 12))
}

/// Restore through `medium` into a fresh resident window fold.
fn restored(medium: &dyn SpillMedium) -> (Csr<u64>, RestoreReport) {
    let (mut fold, _) = window_fold(archive().leaf_nv, None);
    let report = restore(archive(), medium, &mut fold);
    (fold.finalize(), report)
}

proptest! {
    /// A fault plan is a pure function of its seed and rate.
    #[test]
    fn plan_assignment_is_pure(seed in any::<u64>(), rate in 0.0f64..1.0) {
        let p = FaultPlan::new(seed, rate).unwrap();
        prop_assert_eq!(p.assignments(archive()), p.assignments(archive()));
    }

    /// No plan can panic the restore, and the report always balances
    /// against the returned matrix.
    #[test]
    fn restore_is_total_and_accounting_balances(seed in any::<u64>(), rate in 0.0f64..1.0) {
        let plan = FaultPlan::new(seed, rate).unwrap();
        let (m, report) = restored(&FaultyMedium::new(&archive().medium, plan));
        prop_assert!(report.check_invariants().is_ok(), "{:?}", report.check_invariants());
        prop_assert_eq!(reduce::valid_packets(&m), report.packets_restored);
        prop_assert!((0.0..=1.0).contains(&report.coverage()));
        prop_assert_eq!(report.n_leaves, archive().n_leaves());
    }

    /// Transient-only plans always recover completely under the default
    /// retry budget: the restored matrix is bit-identical to the direct
    /// build of the window.
    #[test]
    fn transient_only_plans_recover_bit_identically(seed in any::<u64>()) {
        let plan = FaultPlan::with_kinds(seed, 1.0, &[FaultKind::TransientRead]).unwrap();
        let (m, report) = restored(&FaultyMedium::new(&archive().medium, plan));
        prop_assert!(report.is_complete());
        prop_assert_eq!(m, build_matrix(window()));
    }

    /// Every fault a plan draws respects the leaf geometry: truncations
    /// strictly shorten, bit flips land past the magic inside the leaf,
    /// transient budgets stay within the default retry budget.
    #[test]
    fn drawn_faults_respect_leaf_geometry(seed in any::<u64>(), rate in 0.0f64..1.0) {
        let plan = FaultPlan::new(seed, rate).unwrap();
        for i in 0..archive().n_leaves() {
            let leaf = archive().medium.fetch(i as u64).unwrap();
            match plan.fault_for(i, leaf.len()) {
                None | Some(Fault::Drop) => {}
                Some(Fault::Truncate { keep }) => prop_assert!(keep < leaf.len()),
                Some(Fault::BitFlip { offset, mask }) => {
                    prop_assert!((8..leaf.len()).contains(&offset));
                    prop_assert!(mask.count_ones() == 1);
                }
                Some(Fault::TransientRead { failures }) => {
                    prop_assert!((1..MAX_ATTEMPTS).contains(&failures));
                }
            }
        }
    }

    /// The fault rate is honored in aggregate: rate 0 faults nothing,
    /// rate 1 faults everything, and the plan never invents leaves.
    #[test]
    fn fault_rate_bounds_hold(seed in any::<u64>()) {
        let none = FaultPlan::new(seed, 0.0).unwrap().assignments(archive());
        prop_assert_eq!(none.iter().flatten().count(), 0);
        let all = FaultPlan::new(seed, 1.0).unwrap().assignments(archive());
        prop_assert_eq!(all.iter().flatten().count(), archive().n_leaves());
    }
}
