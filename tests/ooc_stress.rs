//! Out-of-core stress: large constant-packet windows built under a fixed
//! live-byte budget on a real spill directory (DESIGN.md §16).
//!
//! The always-on test scales the paper geometry down; the `#[ignore]`d
//! tier-2 test builds a full `2^26`-packet window (the paper's windows
//! are `2^30`) under a budget far below the fold's unconstrained
//! footprint, proving the scheduler genuinely evicts and reloads at scale
//! while remaining bit-identical to the in-memory build.
//!
//! Run the big one explicitly:
//!
//! ```text
//! cargo test --release --test ooc_stress -- --ignored
//! ```

use obscor::hypersparse::hier::HierarchicalAccumulator;
use obscor::hypersparse::reduce::NetworkQuantities;
use obscor::hypersparse::spill::{DirMedium, SpillConfig};
use obscor::hypersparse::Csr;
use std::sync::Arc;

/// Deterministic heavy-tailed edge stream, generated on the fly so the
/// driver never holds the packet list in memory (the point of the test is
/// the *matrix* footprint, not the driver's).
fn edges(n: usize, seed: u64, src_bits: u32, dst_bits: u32) -> impl Iterator<Item = (u32, u32)> {
    let mut state = seed | 1;
    let (src_mask, dst_mask) = ((1u32 << src_bits) - 1, (1u32 << dst_bits) - 1);
    (0..n).map(move |_| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        // The edge cardinality (2^src_bits x 2^dst_bits) bounds the final
        // matrix size; each test picks it so the carry levels saturate at
        // a footprint well below the unconstrained fold's resident sum but
        // whose largest single merge still fits the pinned budget.
        ((state >> 24) as u32 & src_mask, ((state >> 8) as u32 & dst_mask) | (44 << 24))
    })
}

fn in_memory(n: usize, seed: u64, bits: (u32, u32), leaf_capacity: usize) -> Csr<u64> {
    let mut acc = HierarchicalAccumulator::<u64>::with_leaf_capacity(leaf_capacity);
    for (s, d) in edges(n, seed, bits.0, bits.1) {
        acc.push_edge(s, d);
    }
    acc.finalize()
}

/// Peak resident set size (`VmHWM`) of this process in bytes, from
/// `/proc/self/status`. `None` off Linux or if the field is missing.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Reset `VmHWM` to the current RSS (`echo 5 > /proc/self/clear_refs`),
/// so the next [`peak_rss_bytes`] reading is the peak of one phase alone
/// rather than of the whole process lifetime. `false` where the kernel
/// forbids it — callers skip the cross-check then rather than fail.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Build `n` packets spilled-to-disk under `budget` and check the full
/// contract: bit identity, exact coverage, real eviction traffic, and a
/// peak tracked footprint within the budget (with zero overruns — the
/// budget must have been *feasible*, not merely aspired to).
///
/// `check_rss` additionally cross-checks the *operating system's*
/// peak-RSS accounting against the scheduler's own tracked bytes: the
/// kernel watermark (`VmHWM`) is reset before the spilled build and again
/// before the in-memory oracle, so each phase's true peak is read in
/// isolation, and the spilled build must peak strictly below the
/// unconstrained fold. A scheduler that quietly stopped evicting — or a
/// tracker that silently under-counted live bytes — would peak at the
/// oracle's footprint and fail. Measured on whatever box runs the test,
/// so no hand-calibrated byte constants are pinned.
fn run_budgeted(
    n: usize,
    seed: u64,
    bits: (u32, u32),
    leaf_capacity: usize,
    budget: u64,
    check_rss: bool,
) {
    let rss_metered = check_rss && reset_peak_rss();
    let dir = std::env::temp_dir();
    let medium = DirMedium::create_in(&dir).expect("spill dir in temp");
    let config = SpillConfig { leaf_capacity, memory_budget: Some(budget) };
    let mut acc = HierarchicalAccumulator::spilling(config, Arc::new(medium));
    for (s, d) in edges(n, seed, bits.0, bits.1) {
        acc.push_edge(s, d);
    }
    let (matrix, report) = acc.finalize_with_report();
    assert!(report.is_exact(), "spill run lost packets: {report:?}");
    assert_eq!(report.packets_expected, n as u64);
    assert!(
        report.stats.evictions > 0,
        "budget {budget} never forced an eviction: {:?}",
        report.stats
    );
    assert!(
        report.stats.reloads > 0,
        "evicted parts must be reloaded for their merges: {:?}",
        report.stats
    );
    assert_eq!(
        report.stats.budget_overruns, 0,
        "budget {budget} was infeasible: {:?}",
        report.stats
    );
    assert!(
        report.stats.peak_live_bytes <= budget,
        "peak tracked bytes {} exceeded budget {budget}",
        report.stats.peak_live_bytes
    );
    // RSS cross-check (tier-2): read the spilled phase's peak, reset the
    // watermark, and let the oracle build record its own peak below.
    let spilled_peak = if rss_metered { peak_rss_bytes() } else { None };
    let oracle_metered = rss_metered && reset_peak_rss();
    let oracle = in_memory(n, seed, bits, leaf_capacity);
    if let (Some(spilled), true, Some(oracle_peak)) =
        (spilled_peak, oracle_metered, peak_rss_bytes())
    {
        eprintln!("RSS spilled peak {spilled}  oracle peak {oracle_peak}");
        // Demand a real saving (at least an eighth of the oracle's peak),
        // not a photo finish: measured here the ratio is ~0.69.
        assert!(
            spilled <= oracle_peak - oracle_peak / 8,
            "the spilled build peaked at {spilled} bytes RSS, not \
             meaningfully below the unconstrained in-memory fold's \
             {oracle_peak} (budget {budget}); the tracked-byte accounting \
             is not bounding real memory"
        );
    }
    assert_eq!(matrix, oracle, "spilled build diverged from the in-memory fold");
    assert_eq!(
        NetworkQuantities::compute(&matrix),
        NetworkQuantities::compute(&oracle)
    );
}

#[test]
fn scaled_window_stays_within_a_pinned_budget() {
    // 2^20 packets over 2^8 x 2^5 distinct edges in 2^13-packet leaves
    // (128 leaves, 7 carry levels). Leaves are as large as the edge space,
    // so every carry level saturates near the ~134 KiB full matrix: the
    // unconstrained fold keeps ~1 MiB resident, the largest single merge
    // needs ~0.4 MiB, and a 640 KiB budget sits between — evictions are
    // forced, yet the budget stays feasible with margin on both sides.
    // No RSS cross-check here: at sub-MiB scale, harness baseline and
    // allocator noise swamp the signal. The tier-2 test carries it.
    run_budgeted(1 << 20, 0xA5A5_0001, (8, 5), 1 << 13, 640 << 10, false);
}

#[test]
#[ignore = "tier-2: 2^26-packet window; run with --release -- --ignored"]
fn full_scale_window_builds_under_a_fixed_budget() {
    // 2^26 packets over 2^14 x 2^6 distinct edges in 2^17-packet leaves —
    // 512 leaves (9 carry levels), the paper's hierarchical geometry at
    // 1/16 window scale. Upper carry levels saturate near the ~12 MiB
    // full matrix; the 40 MiB budget covers the largest single merge
    // (~38 MiB tracked at its peak — 30 MiB is already infeasible) while
    // forcing the rest of the carry chain out to disk.
    //
    // RSS cross-check: per-phase `VmHWM` peaks, spilled must sit below
    // the unconstrained oracle (measured here: ~150 MiB vs ~177 MiB —
    // untracked merge/serialization transients ride on top of the budget
    // in both phases, which is exactly why the check reads the OS's
    // numbers instead of trusting the tracker's).
    run_budgeted(1 << 26, 0xA5A5_0002, (14, 6), 1 << 17, 40u64 << 20, true);
}
