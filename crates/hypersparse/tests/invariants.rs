//! Every public constructor of the hypersparse types produces a value
//! satisfying `check_invariants`. The `cargo xtask audit` invariant-coverage
//! rule requires each constructor to appear, by name, in a test that calls
//! `check_invariants` — this file is that coverage, plus property tests
//! asserting the invariants survive the format round-trips the pipeline
//! performs (COO → CSR, transpose).

use obscor_hypersparse::reduce::NetworkQuantities;
use obscor_hypersparse::{Coo, Csr, HierarchicalAccumulator, Index, MemMedium, SpillConfig};
use proptest::prelude::*;
use std::sync::Arc;

fn sample_triples() -> Vec<(Index, Index, u64)> {
    vec![(3, 9, 2), (0, 1, 5), (3, 9, 1), (7, 0, 4), (0, 1, 3)]
}

#[test]
fn coo_new_satisfies_invariants() {
    let coo = Coo::<u64>::new();
    assert!(coo.check_invariants().is_ok());
}

#[test]
fn coo_with_capacity_satisfies_invariants() {
    let coo = Coo::<u64>::with_capacity(1024);
    assert!(coo.check_invariants().is_ok());
}

#[test]
fn coo_from_triples_satisfies_invariants() {
    let coo = Coo::from_triples(sample_triples());
    assert!(coo.check_invariants().is_ok());
}

#[test]
fn csr_empty_satisfies_invariants() {
    assert!(Csr::<u64>::empty().check_invariants().is_ok());
}

#[test]
fn csr_from_compaction_satisfies_invariants() {
    let csr = Coo::from_triples(sample_triples()).into_csr();
    assert!(csr.check_invariants().is_ok());
}

#[test]
fn accumulator_new_satisfies_invariants() {
    let acc = HierarchicalAccumulator::<u64>::new();
    assert!(acc.check_invariants().is_ok());
}

#[test]
fn accumulator_with_leaf_capacity_satisfies_invariants_throughout() {
    let mut acc = HierarchicalAccumulator::<u64>::with_leaf_capacity(4);
    for (r, c, v) in sample_triples() {
        acc.push(r, c, v);
        assert!(acc.check_invariants().is_ok());
    }
    assert!(acc.finalize().check_invariants().is_ok());
}

#[test]
fn accumulator_spilling_satisfies_invariants_throughout() {
    let config = SpillConfig { leaf_capacity: 2, memory_budget: Some(0) };
    let mut acc = HierarchicalAccumulator::<u64>::spilling(config, Arc::new(MemMedium::new()));
    assert!(acc.check_invariants().is_ok());
    for (r, c, v) in sample_triples() {
        acc.push(r, c, v);
        assert!(acc.check_invariants().is_ok());
    }
    let (m, report) = acc.finalize_with_report();
    assert!(m.check_invariants().is_ok());
    assert!(report.check_invariants().is_ok());
}

#[test]
fn network_quantities_compute_satisfies_invariants() {
    let csr = Coo::from_triples(sample_triples()).into_csr();
    let q = NetworkQuantities::compute(&csr);
    assert!(q.check_invariants().is_ok());
    assert!(NetworkQuantities::compute(&Csr::<u64>::empty()).check_invariants().is_ok());
}

fn arb_triples() -> impl Strategy<Value = Vec<(Index, Index, u64)>> {
    prop::collection::vec((0u32..500, 0u32..500, 0u64..8), 0..300)
}

proptest! {
    /// COO → CSR compaction always lands in the invariant set via the
    /// serial path (`properties.rs` checks the radix kernel's output).
    #[test]
    fn compaction_preserves_invariants(t in arb_triples()) {
        let coo = Coo::from_triples(t.iter().copied());
        prop_assert!(coo.check_invariants().is_ok());
        prop_assert!(Coo::from_triples(t.iter().copied()).into_csr_serial().check_invariants().is_ok());
    }

    /// Transposition maps the invariant set into itself, and the round trip
    /// is the identity.
    #[test]
    fn transpose_preserves_invariants(t in arb_triples()) {
        let a = Coo::from_triples(t).into_csr();
        let tr = a.transpose();
        prop_assert!(tr.check_invariants().is_ok());
        prop_assert!(tr.transpose().check_invariants().is_ok());
        prop_assert_eq!(tr.transpose(), a);
    }

    /// Hierarchical accumulation (any leaf size) produces an invariant-
    /// satisfying matrix with consistent merge counters.
    #[test]
    fn accumulation_preserves_invariants(t in arb_triples(), leaf in 1usize..32) {
        let mut acc = HierarchicalAccumulator::with_leaf_capacity(leaf);
        acc.extend(t.iter().copied());
        prop_assert!(acc.check_invariants().is_ok());
        prop_assert!(acc.finalize().check_invariants().is_ok());
    }

    /// Table II aggregates of any constructed matrix obey their order
    /// relations.
    #[test]
    fn computed_quantities_satisfy_order_relations(t in arb_triples()) {
        let a = Coo::from_triples(t).into_csr();
        prop_assert!(NetworkQuantities::compute(&a).check_invariants().is_ok());
    }
}
