//! Differential tests of the out-of-core window build (DESIGN.md §16).
//!
//! Three independent constructions of the same window matrix are compared
//! for every point of a (window size, leaf capacity, memory budget) grid
//! and under randomized geometry/budget schedules:
//!
//! 1. `Coo::from_triples(..).into_csr()` — the one-shot oracle (sort the
//!    whole multiset),
//! 2. `HierarchicalAccumulator::with_leaf_capacity` — the resident
//!    binary-counter fold,
//! 3. `HierarchicalAccumulator::spilling` — the same fold under a budget,
//!    evicting carry-level CSR parts to the spill medium and reloading
//!    them on demand.
//!
//! All three must agree bit for bit (and on every Table II network
//! quantity), including under budgets that force an eviction on every
//! carry and budgets that change mid-stream.

use obscor::hypersparse::hier::HierarchicalAccumulator;
use obscor::hypersparse::reduce::NetworkQuantities;
use obscor::hypersparse::spill::{MemMedium, SpillConfig};
use obscor::hypersparse::{Coo, Csr};
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::sync::Arc;

/// A deterministic heavy-tailed `(src, dst)` stream: repeated edges
/// exercise dedup at every merge level.
fn pairs(n: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let src: u32 = rng.random_range(0u32..700) * 11 + 3;
            let dst: u32 = rng.random_range(0u32..96) + (44 << 24);
            (src, dst)
        })
        .collect()
}

fn flat(pairs: &[(u32, u32)]) -> Csr<u64> {
    Coo::from_triples(pairs.iter().map(|&(s, d)| (s, d, 1u64))).into_csr()
}

fn in_memory(pairs: &[(u32, u32)], leaf_capacity: usize) -> Csr<u64> {
    let mut acc = HierarchicalAccumulator::<u64>::with_leaf_capacity(leaf_capacity);
    for &(s, d) in pairs {
        acc.push_edge(s, d);
    }
    acc.finalize()
}

/// The spilled build over a [`MemMedium`], returning the matrix and the
/// run's spill statistics.
fn spilled(
    pairs: &[(u32, u32)],
    leaf_capacity: usize,
    budget: Option<u64>,
) -> (Csr<u64>, obscor::hypersparse::SpillReport) {
    let config = SpillConfig { leaf_capacity, memory_budget: budget };
    let mut acc = HierarchicalAccumulator::spilling(config, Arc::new(MemMedium::new()));
    for &(s, d) in pairs {
        acc.push_edge(s, d);
    }
    acc.finalize_with_report()
}

#[test]
fn three_way_differential_over_the_size_leaf_budget_grid() {
    for &n in &[0usize, 1, 100, 1_000, 5_000] {
        let p = pairs(n, 0x0BADCAFE ^ n as u64);
        let oracle = flat(&p);
        let quantities = NetworkQuantities::compute(&oracle);
        for &leaf in &[1usize, 16, 100, 1024] {
            let hier = in_memory(&p, leaf);
            assert_eq!(hier, oracle, "n={n} leaf={leaf}: in-memory fold diverged");
            // Budgets from "evict everything" through "never evict".
            for &budget in &[Some(0u64), Some(1), Some(4 << 10), Some(1 << 20), None] {
                let (m, report) = spilled(&p, leaf, budget);
                assert_eq!(m, oracle, "n={n} leaf={leaf} budget={budget:?}");
                assert!(report.is_exact(), "n={n} leaf={leaf} budget={budget:?}: {report:?}");
                report.check_invariants().unwrap();
                assert_eq!(
                    NetworkQuantities::compute(&m),
                    quantities,
                    "n={n} leaf={leaf} budget={budget:?}: quantities diverged"
                );
            }
        }
    }
}

#[test]
fn zero_budget_forces_eviction_on_every_carry() {
    let p = pairs(4_096, 99);
    let (m, report) = spilled(&p, 64, Some(0));
    assert_eq!(m, flat(&p));
    // 4096 packets / 64-per-leaf = 64 leaves; every carry placement is
    // over budget, so each level-0 part must have been evicted at least
    // once and reloaded for its merge.
    assert_eq!(report.stats.leaves, 64);
    assert!(report.stats.evictions >= 64, "only {} evictions", report.stats.evictions);
    assert!(report.stats.reloads >= 63, "only {} reloads", report.stats.reloads);
    assert_eq!(report.stats.merges(), report.stats.leaves - 1);
}

#[test]
fn mid_stream_budget_changes_preserve_bit_identity() {
    let p = pairs(6_000, 7);
    let oracle = flat(&p);
    // Schedule: unbounded → starved → roomy → starved again, re-imposed
    // at packet-count checkpoints that do not align with leaf boundaries.
    let schedule: &[(usize, Option<u64>)] =
        &[(0, None), (1_234, Some(0)), (3_000, Some(64 << 10)), (5_678, Some(1))];
    let config = SpillConfig { leaf_capacity: 100, memory_budget: None };
    let mut acc = HierarchicalAccumulator::spilling(config, Arc::new(MemMedium::new()));
    let mut next = 0usize;
    for (i, &(s, d)) in p.iter().enumerate() {
        if next < schedule.len() && schedule[next].0 == i {
            acc.set_budget(schedule[next].1);
            next += 1;
        }
        acc.push_edge(s, d);
    }
    let (m, report) = acc.finalize_with_report();
    assert_eq!(m, oracle);
    assert!(report.is_exact(), "{report:?}");
    assert!(report.stats.evictions > 0, "the starved phases must have evicted");
}

#[test]
fn spill_accounting_grid_has_exact_closed_forms() {
    // Structural invariants at every grid point: the carry law bounds the
    // mid-stream merges and finalize always brings the total to leaves-1.
    for &n in &[1usize, 63, 64, 65, 1_000] {
        for &leaf in &[1usize, 7, 64] {
            let p = pairs(n, 5);
            let (_, report) = spilled(&p, leaf, Some(0));
            let leaves = (n as u64).div_ceil(leaf as u64);
            assert_eq!(report.stats.leaves, leaves, "n={n} leaf={leaf}");
            assert_eq!(
                report.stats.merges(),
                leaves.saturating_sub(1),
                "n={n} leaf={leaf}: pairwise tree over L parts must do L-1 merges"
            );
            assert_eq!(report.packets_expected, n as u64);
            assert_eq!(report.packets_restored, n as u64);
        }
    }
}

proptest! {
    /// Random (window size, leaf capacity, budget) triples: the spilled
    /// build equals the in-memory build equals the flat oracle, on both
    /// raw matrix bytes and every derived network quantity.
    #[test]
    fn random_geometry_is_bit_identical_across_all_three_builds(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(0usize..4_000);
        let leaf = rng.random_range(1usize..=512);
        let budget = match rng.random_range(0u32..4) {
            0 => None,
            1 => Some(0u64),
            2 => Some(rng.random_range(0u64..4096)),
            _ => Some(rng.random_range(0u64..(4 << 20))),
        };
        let p = pairs(n, seed ^ 0xD1FF_0E4E);
        let oracle = flat(&p);
        let hier = in_memory(&p, leaf);
        let (m, report) = spilled(&p, leaf, budget);
        prop_assert_eq!(&hier, &oracle);
        prop_assert_eq!(&m, &oracle);
        prop_assert!(report.is_exact());
        prop_assert_eq!(
            NetworkQuantities::compute(&m),
            NetworkQuantities::compute(&oracle)
        );
    }

    /// Random budget *schedules*: the budget may change (or vanish) at any
    /// point in the stream without perturbing a single output bit.
    #[test]
    fn random_budget_schedules_preserve_bit_identity(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(1usize..3_000);
        let leaf = rng.random_range(1usize..=256);
        let p = pairs(n, seed.rotate_left(17));
        let config = SpillConfig {
            leaf_capacity: leaf,
            memory_budget: Some(rng.random_range(0u64..1024)),
        };
        let mut acc = HierarchicalAccumulator::spilling(config, Arc::new(MemMedium::new()));
        for &(s, d) in &p {
            if rng.random_range(0u32..100) == 0 {
                let next = match rng.random_range(0u32..3) {
                    0 => None,
                    1 => Some(0u64),
                    _ => Some(rng.random_range(0u64..(1 << 20))),
                };
                acc.set_budget(next);
            }
            acc.push_edge(s, d);
        }
        let (m, report) = acc.finalize_with_report();
        prop_assert_eq!(&m, &flat(&p));
        prop_assert!(report.is_exact());
    }
}
