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
/// documented orderings, blessed reducers, integer reductions, allow
/// markers, test code).
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
    // One float rayon sum; merge_all, integer sums, and the sequential
    // per-item sum inside the parallel closure all pass.
    assert_eq!(in_file("nonassoc-reduce", "conc/src/reduce.rs"), vec![5]);
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
                            | ("nonassoc-reduce", 5)
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

/// The gate CI relies on: the real workspace must have no findings beyond
/// the committed ratchet baseline, and the baseline must carry no
/// unexplained slack (every entry still matches a live finding).
#[test]
fn real_workspace_is_clean_modulo_committed_baseline() {
    let root = workspace_root();
    let report = xtask::audit(&root).expect("audit runs");
    let baseline = xtask::baseline::Baseline::load(&root.join("audit-baseline.json"))
        .expect("committed audit-baseline.json");
    let gate = xtask::baseline::gate(&report.diagnostics, &baseline);
    let rendered: Vec<String> =
        gate.new.iter().map(|&i| report.diagnostics[i].render()).collect();
    assert!(gate.new.is_empty(), "new findings not in baseline:\n{}", rendered.join("\n"));
    assert!(
        gate.stale.is_empty(),
        "stale baseline entries (fixed findings — shrink the ratchet with \
         --update-baseline): {:?}",
        gate.stale
    );
}

/// Fingerprints are line-number-free: shifting a finding down the file (a
/// new comment block above it) keeps its fingerprint, so the baseline
/// still recognizes it. Editing the offending line itself changes it.
#[test]
fn fingerprints_survive_line_shifting_edits() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fp_shift");
    let src_dir = tmp.join("crates/conc/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    let original = "pub fn undocumented(c: &std::sync::atomic::AtomicU64) {\n\
                    c.store(1, std::sync::atomic::Ordering::SeqCst);\n\
                    }\n";
    std::fs::write(src_dir.join("lib.rs"), original).expect("write");
    let before = xtask::audit(&tmp).expect("audit runs");
    assert_eq!(before.diagnostics.len(), 1, "{:?}", before.diagnostics);

    let shifted = format!("// a comment\n// another comment\n\n{original}");
    std::fs::write(src_dir.join("lib.rs"), &shifted).expect("write");
    let after = xtask::audit(&tmp).expect("audit runs");
    assert_eq!(after.diagnostics.len(), 1);
    assert_ne!(before.diagnostics[0].line, after.diagnostics[0].line, "line moved");
    assert_eq!(
        before.diagnostics[0].fingerprint, after.diagnostics[0].fingerprint,
        "fingerprint must not move with the line"
    );

    let edited = shifted.replace("c.store(1,", "c.store(2,");
    std::fs::write(src_dir.join("lib.rs"), edited).expect("write");
    let changed = xtask::audit(&tmp).expect("audit runs");
    assert_eq!(changed.diagnostics.len(), 1);
    assert_ne!(
        before.diagnostics[0].fingerprint, changed.diagnostics[0].fingerprint,
        "editing the offending line must retire the fingerprint"
    );
}

/// CLI ratchet round-trip: --update-baseline freezes the bad fixture's
/// findings, a gated re-run is clean (exit 0), and a finding absent from
/// the baseline still fails (exit 1) with the new site rendered.
#[test]
fn cli_baseline_ratchet_round_trip() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("ratchet");
    std::fs::create_dir_all(&tmp).expect("mkdir");
    let baseline = tmp.join("baseline.json");

    let update = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["audit", "--root"])
        .arg(fixture("bad"))
        .arg("--baseline")
        .arg(&baseline)
        .arg("--update-baseline")
        .output()
        .expect("binary runs");
    assert_eq!(update.status.code(), Some(0), "update-baseline failed: {update:?}");
    assert!(baseline.is_file());

    let gated = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["audit", "--root"])
        .arg(fixture("bad"))
        .arg("--baseline")
        .arg(&baseline)
        .output()
        .expect("binary runs");
    assert_eq!(gated.status.code(), Some(0), "baselined findings must pass: {gated:?}");
    let stdout = String::from_utf8_lossy(&gated.stdout);
    assert!(stdout.contains("baselined"), "summary should count baselined findings:\n{stdout}");

    // JSON mode reports the gate verdict per violation.
    let json = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["audit", "--format", "json", "--root"])
        .arg(fixture("bad"))
        .arg("--baseline")
        .arg(&baseline)
        .output()
        .expect("binary runs");
    assert_eq!(json.status.code(), Some(0));
    let jout = String::from_utf8_lossy(&json.stdout);
    assert!(jout.contains("\"ok\":true"), "{jout}");
    assert!(jout.contains("\"baselined\":true"), "{jout}");
    assert!(jout.contains("\"fingerprint\":\""), "{jout}");

    // An empty baseline leaves every finding "new": exit 1 again.
    let empty = tmp.join("empty.json");
    std::fs::write(&empty, "{\"version\": 1, \"entries\": []}\n").expect("write");
    let failed = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["audit", "--root"])
        .arg(fixture("bad"))
        .arg("--baseline")
        .arg(&empty)
        .output()
        .expect("binary runs");
    assert_eq!(failed.status.code(), Some(1), "unbaselined findings must fail: {failed:?}");
    let fout = String::from_utf8_lossy(&failed.stdout);
    assert!(fout.contains("new violation(s)"), "{fout}");
    assert!(fout.contains("[panic-path]"), "{fout}");
}

/// A missing baseline file is an I/O error (exit 2), not a silent pass.
#[test]
fn cli_missing_baseline_exits_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["audit", "--root"])
        .arg(fixture("clean"))
        .args(["--baseline", "/definitely/not/a/baseline.json"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "missing baseline must not pass: {out:?}");
    // And --update-baseline without --baseline is a usage error.
    let usage = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["audit", "--update-baseline"])
        .output()
        .expect("binary runs");
    assert_eq!(usage.status.code(), Some(2));
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
        .args(["audit", "--json", "--root"])
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
}

#[test]
fn cli_json_mode_clean_exit_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["audit", "--json", "--root"])
        .arg(fixture("clean"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "expected exit 0: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"ok\":true"));
    assert!(stdout.contains("\"violations\":[]"));
}

#[test]
fn cli_usage_error_exits_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("frobnicate")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
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
