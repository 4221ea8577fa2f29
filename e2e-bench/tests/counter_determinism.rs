//! The work counters of a traced run are exact integers for a fixed seed:
//! two runs agree on every one, so a change in them is a change in the
//! work done, never noise.

mod common;

use obscor_e2e_bench::workload::workloads;

/// Counters that must repeat exactly.
const EXACT: &[&str] = &[
    "telescope.packets",
    "hypersparse.leaves",
    "hypersparse.merges",
    "hypersparse.nnz",
    "hypersparse.spill_evictions",
    "hypersparse.spill_reloads",
    "hypersparse.spill_bytes_written",
    "hypersparse.spill_bytes_read",
    "honeyfarm.sources",
    "assoc.containers",
    "core.binning_values",
    "core.curves",
    "core.fits",
    "telescope.stream.leaves",
    "telescope.stream.merges",
];

#[test]
fn work_counters_repeat_exactly_at_a_fixed_seed() {
    for w in workloads() {
        let (a, b) = (
            common::smoke(w.name, 42, true),
            common::smoke(w.name, 42, true),
        );
        for &name in EXACT {
            let (x, y) = (a.value(name), b.value(name));
            assert_eq!(x, y, "{}: {name} moved between identical runs", w.name);
            assert_eq!(x.fract(), 0.0, "{}: {name} = {x} is not a count", w.name);
        }
    }
}

#[test]
fn each_workload_exercises_its_layers() {
    let count = |w: &str, name: &str| common::smoke(w, 7, true).value(name);
    assert!(count("reproduce-nv17", "hypersparse.leaves") > 0.0);
    assert!(count("reproduce-nv17", "core.curves") > 0.0);
    assert_eq!(count("reproduce-nv17", "hypersparse.spill_evictions"), 0.0);
    assert!(count("spilled-nv17", "hypersparse.spill_bytes_written") > 0.0);
    assert!(count("stream-plain", "telescope.stream.leaves") > 0.0);
    assert_eq!(count("stream-plain", "core.curves"), 0.0);
    assert!(count("stream-anon", "anonymize.dup_ratio") > 0.0);
}
