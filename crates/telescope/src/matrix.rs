//! Traffic-matrix construction from captured windows.
//!
//! The paper's pipeline: packets → CryptoPAN anonymization → hierarchical
//! hypersparse GraphBLAS matrices (`2^13` leaves of `2^17` packets for a
//! `2^30` window). The same architecture is used here with the leaf size
//! held at the paper's `2^17` packets, except that a window keeps at least
//! 8 leaves: leaves hold `clamp(packets / 8, 1024, 2^17)` packets
//! ([`leaf_capacity_for`]). From `N_V = 2^20` on every leaf is
//! paper-sized, and a `2^30` window is the paper's `2^13` leaves; below
//! that a window is 8 leaves of `N_V / 8` packets.

use crate::capture::TelescopeWindow;
use obscor_hypersparse::hier::DEFAULT_LEAF_CAPACITY;
use obscor_hypersparse::{
    Csr, DirMedium, HierarchicalAccumulator, SpillConfig, SpillFault, SpillReport,
};
use std::path::Path;
use std::sync::Arc;

/// The paper's leaf count: a window is the hierarchical sum of `2^13`
/// leaf matrices.
pub const PAPER_LEAF_COUNT: usize = 1 << 13;

/// The fewest leaves a window of at least `8 * 1024` packets is cut into,
/// so the carry chain and the spill path run at every supported `N_V`.
const MIN_LEAVES: usize = 8;

/// The smallest leaf, in triples.
const MIN_LEAF_CAPACITY: usize = 1024;

/// Leaf capacity for a window of `packets` valid packets: an eighth of the
/// window, clamped between 1024 triples and the paper's `2^17`-packet
/// leaf ([`DEFAULT_LEAF_CAPACITY`]). Every batch, spilled, ingest and
/// oracle build sizes its leaves here.
pub fn leaf_capacity_for(packets: usize) -> usize {
    (packets / MIN_LEAVES).clamp(MIN_LEAF_CAPACITY, DEFAULT_LEAF_CAPACITY)
}

/// Build the window's traffic matrix with raw (non-anonymized) indices.
pub fn build_matrix(w: &TelescopeWindow) -> Csr<u64> {
    build_matrix_with(w, |ip| ip)
}

/// Build with an arbitrary index transform, using hierarchical
/// accumulation with [`leaf_capacity_for`]'s leaves. CryptoPAN
/// anonymization is `build_matrix_with(w, |ip| cp.anonymize(ip))`.
pub fn build_matrix_with(w: &TelescopeWindow, map: impl Fn(u32) -> u32) -> Csr<u64> {
    fold_window(w, map, HierarchicalAccumulator::with_leaf_capacity).0
}

/// Build the window's traffic matrix out-of-core: carry-level CSR parts
/// spill to `spill_dir` (the system temp dir when `None`) whenever tracked
/// live bytes exceed `budget`. Bit-identical to [`build_matrix`]; the
/// returned [`SpillReport`] records eviction/reload traffic and any
/// quarantined (unrecoverable) spill frames. Fails only if no spill
/// directory can be created.
pub fn build_matrix_spilled(
    w: &TelescopeWindow,
    budget: Option<u64>,
    spill_dir: Option<&Path>,
) -> Result<(Csr<u64>, SpillReport), SpillFault> {
    let base = spill_dir.map(Path::to_path_buf).unwrap_or_else(std::env::temp_dir);
    let medium = Arc::new(DirMedium::create_in(&base)?);
    Ok(fold_window(w, |ip| ip, |leaf_capacity| {
        let config = SpillConfig { leaf_capacity, memory_budget: budget };
        HierarchicalAccumulator::spilling(config, medium)
    }))
}

/// The one fold loop behind every window build: size the leaves, push
/// every packet through `map` into the accumulator `fold` makes, finalize.
fn fold_window(
    w: &TelescopeWindow,
    map: impl Fn(u32) -> u32,
    fold: impl FnOnce(usize) -> HierarchicalAccumulator<u64>,
) -> (Csr<u64>, SpillReport) {
    let _span = obscor_obs::span("telescope.build_matrix");
    let leaf = leaf_capacity_for(w.window.packets.len());
    obscor_obs::gauge("telescope.build_matrix.leaf_capacity").set_max(leaf as u64);
    let mut acc = fold(leaf);
    for p in &w.window.packets {
        acc.push_edge(map(p.src.0), map(p.dst.0));
    }
    obscor_obs::counter("telescope.build_matrix.edges_total").add(acc.len_pushed());
    acc.finalize_with_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::capture_window;
    use obscor_anonymize::{CryptoPan, MemoCryptoPan};
    use obscor_hypersparse::reduce;
    use obscor_netmodel::Scenario;

    fn window() -> TelescopeWindow {
        let s = Scenario::paper_scaled(1 << 14, 5);
        capture_window(&s, &s.caida_windows[0])
    }

    #[test]
    fn leaf_capacity_follows_the_paper_from_2_20_up() {
        for (packets, leaf) in [
            (1 << 10, 1024),
            (1 << 12, 1024),
            (1 << 13, 1024),
            (1 << 14, 2048),
            (1 << 17, 1 << 14),
            (1 << 20, 1 << 17),
            (1 << 30, 1 << 17),
        ] {
            assert_eq!(leaf_capacity_for(packets), leaf, "{packets} packets");
        }
        assert_eq!((1 << 30) / leaf_capacity_for(1 << 30), PAPER_LEAF_COUNT);
        let leaves = |n: usize| n.div_ceil(leaf_capacity_for(n));
        for n in (1 << 13)..(1 << 17) {
            assert!(leaves(n) >= MIN_LEAVES, "{n} packets: {} leaves", leaves(n));
        }
        for k in 17..=40 {
            for n in [(1usize << k) - 1, 1 << k, (1 << k) + 1, 3 << (k - 1)] {
                assert!(leaves(n) >= MIN_LEAVES, "{n} packets: {} leaves", leaves(n));
            }
        }
    }

    #[test]
    fn matrix_conserves_packets() {
        let w = window();
        let m = build_matrix(&w);
        assert_eq!(reduce::valid_packets(&m), w.packets() as u64);
    }

    #[test]
    fn matrix_sources_match_window_sources() {
        let w = window();
        let m = build_matrix(&w);
        assert_eq!(reduce::unique_sources(&m) as usize, w.unique_sources());
    }

    #[test]
    fn only_external_to_internal_quadrant_is_populated() {
        // Fig 1: a darkspace has data only in the upper-left quadrant:
        // every row (source) is external, every column (dest) internal.
        let w = window();
        let m = build_matrix(&w);
        for &src in m.row_keys() {
            assert_ne!((src >> 24) as u8, 44, "internal source in darkspace matrix");
        }
        for &dst in m.col_indices() {
            assert_eq!((dst >> 24) as u8, 44, "external destination in darkspace matrix");
        }
    }

    #[test]
    fn anonymized_matrix_preserves_all_quantities() {
        let w = window();
        let raw = build_matrix(&w);
        let cp = CryptoPan::new(&[3u8; 32]);
        let anon = build_matrix_with(&w, |ip| cp.anonymize(ip));
        assert_eq!(
            reduce::NetworkQuantities::compute(&raw),
            reduce::NetworkQuantities::compute(&anon)
        );
        // But the index sets differ.
        assert_ne!(raw.row_keys(), anon.row_keys());
    }

    #[test]
    fn memoized_anonymized_matrix_is_bit_identical() {
        let w = window();
        let key = [0x5Au8; 32];
        let (cp, memo) = (CryptoPan::new(&key), MemoCryptoPan::new(&key));
        let uncached = build_matrix_with(&w, |ip| cp.anonymize(ip));
        let memoized = build_matrix_with(&w, |ip| memo.anonymize(ip));
        assert_eq!(uncached, memoized);
    }

    #[test]
    fn spilled_matrix_is_bit_identical_under_any_budget() {
        let w = window();
        let oracle = build_matrix(&w);
        for budget in [None, Some(0), Some(1 << 20)] {
            let (m, report) = build_matrix_spilled(&w, budget, None).unwrap();
            assert_eq!(m, oracle, "budget {budget:?}");
            assert!(report.is_exact(), "budget {budget:?}: {report:?}");
        }
        // A zero budget cannot hold anything resident: every carry evicts.
        let (_, tight) = build_matrix_spilled(&w, Some(0), None).unwrap();
        assert!(tight.stats.evictions > 0);
        assert!(tight.stats.reloads > 0);
    }

    #[test]
    fn anonymized_sources_deanonymize_back() {
        let w = window();
        let cp = CryptoPan::new(&[9u8; 32]);
        let raw = build_matrix(&w);
        let anon = build_matrix_with(&w, |ip| cp.anonymize(ip));
        let mut recovered: Vec<u32> =
            anon.row_keys().iter().map(|&r| cp.deanonymize(r)).collect();
        recovered.sort_unstable();
        assert_eq!(recovered, raw.row_keys());
    }
}
