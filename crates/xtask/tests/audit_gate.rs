//! Integration tests for the audit gate.
//!
//! The fixture trees under `tests/fixtures/` are scanned (never compiled):
//! `bad/` seeds at least one violation of every rule and must fail with
//! `file:line` diagnostics; `clean/` must pass. The real workspace is also
//! audited and must be clean — this test IS the gate CI relies on.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
}

#[test]
fn bad_fixture_trips_every_rule() {
    let report = xtask::audit(&fixture("bad")).expect("audit runs");
    assert!(!report.is_clean());
    let rules: std::collections::HashSet<&str> =
        report.diagnostics.iter().map(|d| d.rule).collect();
    for rule in [
        "index-cast",
        "panic-path",
        "float-eq",
        "invariant-coverage",
        "instant-timing",
        "key-pack",
        "map-iter-order",
        "nonassoc-reduce",
        "atomic-ordering",
        "shared-static-mut",
        "allow-justification",
        "nondet-reach",
        "blocking-in-par",
        "lock-order",
        "panic-in-drop",
        "word-bit-manip",
    ] {
        assert!(rules.contains(rule), "rule {rule} not tripped: {:?}", report.diagnostics);
    }
    // Diagnostics carry concrete file:line positions.
    for d in &report.diagnostics {
        assert!(d.line > 0, "diagnostic without a line: {d:?}");
        assert!(d.file.ends_with(".rs"), "diagnostic without a file: {d:?}");
        let rendered = d.render();
        assert!(rendered.contains(&format!(":{}: [", d.line)), "bad render: {rendered}");
    }
}

#[test]
fn bad_fixture_diagnostics_point_at_seeded_lines() {
    let report = xtask::audit(&fixture("bad")).expect("audit runs");
    let has = |rule: &str, file_part: &str, line: usize| {
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == rule && d.file.contains(file_part) && d.line == line)
    };
    // Lines match the seeded markers in the fixture sources.
    assert!(has("panic-path", "core/src/lib.rs", 7), "panic! line");
    assert!(has("index-cast", "core/src/lib.rs", 9), ".len() as u32 line");
    assert!(has("index-cast", "core/src/lib.rs", 10), "u64 as usize line");
    assert!(has("panic-path", "core/src/lib.rs", 11), "unwrap line");
    assert!(has("float-eq", "stats/src/lib.rs", 4), "x == 0.0 line");
    assert!(has("invariant-coverage", "hypersparse/src/lib.rs", 10), "Grid::new line");
    assert!(has("invariant-coverage", "hypersparse/src/lib.rs", 28), "Loose::make line");
    assert!(has("instant-timing", "telescope/src/lib.rs", 6), "Instant::now line");
    assert!(has("instant-timing", "telescope/src/lib.rs", 7), "SystemTime::now line");
    // The allow-marked site and the test-mod site in telescope stay silent.
    assert!(
        !report.diagnostics.iter().any(|d| d.file.contains("telescope/src/lib.rs") && d.line > 7),
        "allow marker or test exemption failed: {:?}",
        report.diagnostics
    );
    // Test code in the bad fixture is exempt: nothing past line 15 in core.
    assert!(
        !report.diagnostics.iter().any(|d| d.file.contains("core/src/lib.rs") && d.line > 15),
        "test code was not exempted: {:?}",
        report.diagnostics
    );
    // Ad-hoc key packing outside hypersparse::keypack trips key-pack; the
    // allow-marked and #[cfg(test)] sites right below it stay silent.
    assert!(has("key-pack", "hypersparse/src/packing.rs", 6), "as u64 << 32 line");
    assert!(
        !report.diagnostics.iter().any(|d| d.file.contains("hypersparse/src/packing.rs") && d.line > 6),
        "key-pack allow marker or test exemption failed: {:?}",
        report.diagnostics
    );
    // Hand-rolled u64 lane split and masked popcount trip word-bit-manip;
    // the half-signature, allow-marked, and test sites below stay silent.
    assert!(has("word-bit-manip", "wordops/src/lib.rs", 5), "lane split line");
    assert!(has("word-bit-manip", "wordops/src/lib.rs", 9), "masked popcount line");
    assert!(
        !report.diagnostics.iter().any(|d| d.file.contains("wordops/src/lib.rs")
            && !(d.rule == "word-bit-manip" && matches!(d.line, 5 | 9))),
        "word-bit-manip negatives fired: {:?}",
        report.diagnostics
    );
    // pcap joined the panic-free set with the fault-recovery layer:
    // unwrapping/expecting codec or leaf-read results must trip.
    assert!(has("panic-path", "pcap/src/lib.rs", 6), "codec decode unwrap line");
    assert!(has("panic-path", "pcap/src/lib.rs", 11), "leaf read expect line");
    assert!(
        !report.diagnostics.iter().any(|d| d.file.contains("pcap/src/lib.rs") && d.line > 13),
        "pcap test code was not exempted: {:?}",
        report.diagnostics
    );
}

/// The determinism/concurrency rules fire exactly once per seeded site and
/// stay silent on every negative (BTreeMap iteration, sink-free hash use,
/// documented orderings, integer reductions, allow markers, test code).
#[test]
fn concurrency_rules_trip_exactly_the_seeded_sites() {
    let report = xtask::audit(&fixture("bad")).expect("audit runs");
    let in_file = |rule: &str, file_part: &str| -> Vec<usize> {
        report
            .diagnostics
            .iter()
            .filter(|d| d.rule == rule && d.file.contains(file_part))
            .map(|d| d.line)
            .collect()
    };
    // Undocumented SeqCst + vague stricter-than-Relaxed note; the
    // documented, allow-marked, and test sites stay silent.
    assert_eq!(in_file("atomic-ordering", "conc/src/lib.rs"), vec![11, 16]);
    // A float rayon sum and a float rayon reduce (no function name exempts
    // it); integer sums and the sequential per-item sum inside the
    // parallel closure pass.
    assert_eq!(in_file("nonassoc-reduce", "conc/src/reduce.rs"), vec![5, 9]);
    // Three global statics, the METRICS_ENABLED flag among them; the
    // plain lookup table, the allow-marked lock, and the test static pass.
    assert_eq!(in_file("shared-static-mut", "conc/src/globals.rs"), vec![7, 9, 11]);
    // One bare allow marker; the justified one passes.
    assert_eq!(in_file("allow-justification", "conc/src/bare_allow.rs"), vec![5]);
    // One HashMap iteration reaching the codec; BTreeMap, sink-free,
    // allow-marked, and test iterations pass. The same site also trips
    // the transitive rule — one-hop and full-depth taint agree at depth 1.
    assert_eq!(in_file("map-iter-order", "emit/src/lib.rs"), vec![13]);
    assert_eq!(in_file("nondet-reach", "emit/src/lib.rs"), vec![13]);
    // Hash iterations reaching the JSON codec three hops away and the
    // archive codec two hops away; the BTreeMap, allow-marked, and test
    // iterations pass — and `map-iter-order` must stay silent (the sink
    // is beyond its one-hop index; see the dedicated test below).
    assert_eq!(in_file("nondet-reach", "deep/src/lib.rs"), vec![16, 39]);
    // A direct `.lock()` on a worker, a transitive one through `bump`,
    // and the same inside `rayon::scope`; the hoisted, allow-marked, and
    // test sites pass.
    assert_eq!(in_file("blocking-in-par", "parblock/src/lib.rs"), vec![14, 18, 23]);
    // One two-lock cycle, reported once; the consistent order, the
    // non-overlapping scopes, and the allow-marked cycle stay silent.
    assert_eq!(in_file("lock-order", "locks/src/lib.rs"), vec![16]);
    // A direct `unwrap()` in one destructor, a transitive panic in
    // another; the allow-marked drop and the inherent `drop` pass.
    assert_eq!(in_file("panic-in-drop", "dropper/src/lib.rs"), vec![21, 31]);
    // No rule fires anywhere else in these files.
    for part in ["conc/", "emit/", "obs/", "deep/", "parblock/", "locks/", "dropper/"] {
        let extra: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| {
                d.file.contains(part)
                    && !matches!(
                        (d.rule, d.line),
                        ("atomic-ordering", 11 | 16)
                            | ("nonassoc-reduce", 5 | 9)
                            | ("shared-static-mut", 7 | 9 | 11)
                            | ("allow-justification", 5)
                            | ("map-iter-order", 13)
                    )
                    && !(d.file.contains("emit/") && d.rule == "nondet-reach" && d.line == 13)
                    && !(d.file.contains("deep/")
                        && d.rule == "nondet-reach"
                        && matches!(d.line, 16 | 39))
                    && !(d.file.contains("parblock/")
                        && d.rule == "blocking-in-par"
                        && matches!(d.line, 14 | 18 | 23))
                    && !(d.file.contains("locks/") && d.rule == "lock-order" && d.line == 16)
                    && !(d.file.contains("dropper/")
                        && d.rule == "panic-in-drop"
                        && matches!(d.line, 21 | 31))
            })
            .collect();
        assert!(extra.is_empty(), "unexpected findings in {part}: {extra:?}");
    }
}

/// The seeded map-iter-order finding only exists because the symbol index
/// propagated taint across crates: `emit_row` (crates/emit) calls `escape`
/// (crates/obs/src/json.rs), making the HashMap iteration's sink
/// json-reaching one hop away.
#[test]
fn map_iter_taint_crosses_files_through_the_symbol_index() {
    let report = xtask::audit(&fixture("bad")).expect("audit runs");
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "map-iter-order" && d.file.contains("emit/src/lib.rs"))
        .expect("seeded cross-file taint finding");
    assert!(
        d.message.contains("emit_row") && d.message.contains("obscor_obs::json"),
        "finding should name the one-hop sink: {}",
        d.message
    );
}

/// The seeded three-hop chain in `crates/deep` — `digest` → `relay` →
/// `emit_row` → `escape`, crossing three files — is caught by the full
/// call-graph reachability and provably missed by the one-hop symbol
/// index: neither `digest` nor `relay` is json-reaching at depth 1, so
/// `map-iter-order` stays silent on the very line `nondet-reach` flags.
#[test]
fn nondet_taint_crosses_three_hops_beyond_the_one_hop_index() {
    let report = xtask::audit(&fixture("bad")).expect("audit runs");
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "nondet-reach" && d.file.contains("deep/src/lib.rs") && d.line == 16)
        .expect("seeded three-hop taint finding");
    assert!(
        d.message.contains("`digest` → `relay` → `emit_row` → `escape`"),
        "finding should render the full chain: {}",
        d.message
    );
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.rule == "map-iter-order" && d.file.contains("deep/")),
        "the one-hop rule must miss the deep chain"
    );
    let one_hop = xtask::index::SymbolIndex::from_graph(&report.call_graph);
    assert!(one_hop.json_reaching.contains("emit_row"), "depth 1 is indexed");
    for beyond in ["relay", "digest"] {
        assert!(
            !one_hop.json_reaching.contains(beyond),
            "`{beyond}` must be beyond the one-hop index"
        );
    }
}

#[test]
fn clean_fixture_passes() {
    let report = xtask::audit(&fixture("clean")).expect("audit runs");
    assert!(report.is_clean(), "unexpected diagnostics: {:?}", report.diagnostics);
    assert!(report.files_scanned >= 3);
}

/// The gate CI relies on: the real workspace has no finding at all. A
/// site is accepted only by a justified `audit:allow` marker on its line.
#[test]
fn real_workspace_is_clean() {
    let report = xtask::audit(&workspace_root()).expect("audit runs");
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.render()).collect();
    assert!(report.is_clean(), "workspace findings:\n{}", rendered.join("\n"));
}

#[test]
fn cli_exits_nonzero_with_file_line_output_on_bad_fixture() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["audit", "--root"])
        .arg(fixture("bad"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "expected exit 1: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("src/lib.rs:"), "no file:line in output:\n{stdout}");
    assert!(stdout.contains("[panic-path]"), "missing rule tag:\n{stdout}");
    assert!(stdout.contains("violation(s)"), "missing summary:\n{stdout}");
}

#[test]
fn cli_json_mode_is_machine_readable() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["audit", "--format", "json", "--root"])
        .arg(fixture("bad"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('{') && stdout.trim_end().ends_with('}'));
    assert!(stdout.contains("\"ok\":false"));
    for rule in
        ["index-cast", "panic-path", "float-eq", "invariant-coverage", "instant-timing", "key-pack"]
    {
        assert!(stdout.contains(&format!("\"rule\":\"{rule}\"")), "missing {rule}:\n{stdout}");
    }
    assert!(stdout.contains("\"line\":"));
    // One gate: no per-violation fingerprint or verdict, no gate counts.
    for key in ["fingerprint", "baselined", "new", "stale"] {
        assert!(!stdout.contains(&format!("\"{key}\":")), "`{key}` key in:\n{stdout}");
    }
}

#[test]
fn cli_json_mode_clean_exit_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["audit", "--format", "json", "--root"])
        .arg(fixture("clean"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "expected exit 0: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"ok\":true"));
    assert!(stdout.contains("\"violations\":[]"));
}

/// Unknown commands and every flag the one-gate audit dropped (the JSON
/// alias, the ratchet baseline's three, the call-graph export) are usage
/// errors. Every file argument lies in a temp dir, so no run can write
/// into the repository.
#[test]
fn cli_usage_error_exits_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("frobnicate")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));

    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("removed_flags");
    std::fs::create_dir_all(&tmp).expect("mkdir");
    let graph = tmp.join("g.json");
    let baseline = tmp.join("b.json");
    let removed: [Vec<&std::ffi::OsStr>; 5] = [
        vec!["--json".as_ref()],
        vec!["--allow-stale".as_ref()],
        vec!["--call-graph".as_ref(), graph.as_os_str()],
        vec!["--baseline".as_ref(), baseline.as_os_str()],
        vec!["--baseline".as_ref(), baseline.as_os_str(), "--update-baseline".as_ref()],
    ];
    for extra in removed {
        let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args(["audit", "--root"])
            .arg(fixture("clean"))
            .args(&extra)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{extra:?} must be a usage error: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: cargo xtask audit"), "{extra:?} stderr: {stderr}");
    }
}

#[test]
fn cli_nonexistent_root_exits_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["audit", "--root", "/definitely/not/a/real/dir"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "a bad root must not report clean");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not a directory"), "stderr: {stderr}");
}
