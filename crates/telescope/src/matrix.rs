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
//!
//! Every window fold — batch, spilled, archived, ingest and the `serve
//! --check` oracle — is made by [`window_fold`], resident or spilling
//! per its [`SpillSettings`], and fed either packets ([`push_edges`]) or
//! whole leaves (`HierarchicalAccumulator::push_csr_leaf`).

use crate::capture::TelescopeWindow;
use obscor_hypersparse::hier::DEFAULT_LEAF_CAPACITY;
use obscor_hypersparse::{
    Csr, DirMedium, HierarchicalAccumulator, SpillConfig, SpillFault, SpillReport,
};
use std::path::{Path, PathBuf};
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

/// Out-of-core settings of a window fold: carry-level CSR parts spill to
/// a fresh directory under `spill_dir` whenever tracked live bytes exceed
/// `memory_budget`. The folded matrix is bit-identical to the resident
/// build.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpillSettings {
    /// Tracked-live-byte budget for each window's fold.
    pub memory_budget: u64,
    /// Directory spill files are created under; the system temp dir when
    /// `None`.
    pub spill_dir: Option<PathBuf>,
}

impl SpillSettings {
    /// Budgeted out-of-core fold spilling to the system temp dir.
    pub fn with_budget(memory_budget: u64) -> Self {
        Self { memory_budget, spill_dir: None }
    }
}

/// The one place a window fold is made. Without `spill` it is the
/// resident fold; with it, a spilling fold over a fresh [`DirMedium`]
/// under `spill.spill_dir` (the system temp dir by default). When that
/// directory cannot be made, the fold is resident and the fault that
/// stopped it comes back beside it: the matrix is the same either way,
/// only the footprint differs, and the caller reports the fallback.
pub fn window_fold(
    leaf_capacity: usize,
    spill: Option<&SpillSettings>,
) -> (HierarchicalAccumulator<u64>, Option<SpillFault>) {
    let resident = || HierarchicalAccumulator::with_leaf_capacity(leaf_capacity);
    let Some(spill) = spill else {
        return (resident(), None);
    };
    let base = spill.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
    match DirMedium::create_in(&base) {
        Ok(medium) => {
            let config = SpillConfig { leaf_capacity, memory_budget: Some(spill.memory_budget) };
            (HierarchicalAccumulator::spilling(config, Arc::new(medium)), None)
        }
        Err(fault) => (resident(), Some(fault)),
    }
}

/// Push one `(src, dst)` edge per packet into `fold`: the packet side of
/// every window build, timed by the `telescope.build_matrix` span. A window
/// may arrive whole or a batch at a time; the fold cuts its own leaves.
pub fn push_edges(
    fold: &mut HierarchicalAccumulator<u64>,
    edges: impl ExactSizeIterator<Item = (u32, u32)>,
) {
    let _span = obscor_obs::span("telescope.build_matrix");
    let packets = edges.len();
    obscor_obs::gauge("telescope.build_matrix.leaf_capacity").set_max(fold.leaf_capacity() as u64);
    for (src, dst) in edges {
        fold.push_edge(src, dst);
    }
    obscor_obs::counter("telescope.build_matrix.edges_total").add(packets as u64);
}

/// Build the window's traffic matrix with raw (non-anonymized) indices.
pub fn build_matrix(w: &TelescopeWindow) -> Csr<u64> {
    build_matrix_with(w, |ip| ip)
}

/// Build with an arbitrary index transform through the resident
/// [`window_fold`] with [`leaf_capacity_for`]'s leaves. CryptoPAN
/// anonymization is `build_matrix_with(w, |ip| cp.anonymize(ip))`.
pub fn build_matrix_with(w: &TelescopeWindow, map: impl Fn(u32) -> u32) -> Csr<u64> {
    let (mut fold, _) = window_fold(leaf_capacity_for(w.packets()), None);
    push_edges(&mut fold, w.window.packets.iter().map(|p| (map(p.src.0), map(p.dst.0))));
    fold.finalize()
}

/// Build the window's traffic matrix out-of-core through the spilling
/// [`window_fold`]: carry-level CSR parts spill to `spill_dir` (the system
/// temp dir when `None`) whenever tracked live bytes exceed `budget`
/// (`None` is an unbounded budget). Bit-identical to [`build_matrix`];
/// the returned [`SpillReport`] records eviction/reload traffic and any
/// quarantined (unrecoverable) spill frames. Fails only if no spill
/// directory can be created.
pub fn build_matrix_spilled(
    w: &TelescopeWindow,
    budget: Option<u64>,
    spill_dir: Option<&Path>,
) -> Result<(Csr<u64>, SpillReport), SpillFault> {
    let spill = SpillSettings {
        memory_budget: budget.unwrap_or(u64::MAX),
        spill_dir: spill_dir.map(Path::to_path_buf),
    };
    let (mut fold, fallback) = window_fold(leaf_capacity_for(w.packets()), Some(&spill));
    if let Some(fault) = fallback {
        return Err(fault);
    }
    push_edges(&mut fold, w.window.packets.iter().map(|p| (p.src.0, p.dst.0)));
    Ok(fold.finalize_with_report())
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
