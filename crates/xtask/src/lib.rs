//! `cargo xtask audit` — the workspace's static-analysis gate.
//!
//! A dependency-free source-scanning lint pass that enforces the project's
//! correctness policies (see `DESIGN.md` § Correctness tooling):
//!
//! 1. **`index-cast`** — no truncating `as u32`/`as usize`/`as Index` casts
//!    on expressions with wide-typed sources, anywhere in library code.
//! 2. **`panic-path`** — no `unwrap`/`expect`/`panic!` in the library code
//!    of the `core`, `hypersparse`, `assoc`, `anonymize`, `telescope`,
//!    and `pcap` crates.
//! 3. **`float-eq`** — no floating-point `==`/`!=` in `stats` or
//!    `core::fitscan`.
//! 4. **`invariant-coverage`** — every public constructor of a
//!    `hypersparse`/`assoc` type must be exercised by a test that calls
//!    `check_invariants`.
//! 5. **`instant-timing`** — no ad-hoc `Instant::now()`/`SystemTime::now()`
//!    timing in library code outside the `obs` crate; timing goes through
//!    `obscor_obs::span` so it lands in the metrics registry.
//! 6. **`key-pack`** — no ad-hoc `as u64` + `<< 32` key packing in
//!    `hypersparse` library code outside `keypack.rs`; the packed
//!    `(row << 32) | col` layout must be built through
//!    `keypack::pack_key`/`unpack_key` only.
//! 7. **`map-iter-order`** — `HashMap`/`HashSet` iteration order must not
//!    flow into ordered output (Vec pushes, string building, or — via the
//!    cross-file symbol index, one call hop — the `obscor_obs::json`
//!    codec).
//! 8. **`nonassoc-reduce`** — no rayon `reduce`/`fold`/`sum`/`product`
//!    over float accumulators.
//! 9. **`atomic-ordering`** — every `Ordering::*` site carries an
//!    `// ordering:` justification; stricter-than-Relaxed notes must name
//!    the happens-before edge.
//! 10. **`shared-static-mut`** — no process-global mutable statics outside
//!     the `obs` crate (its registry and its one metrics level).
//! 11. **`allow-justification`** — every `audit:allow(...)` marker carries
//!     a non-empty justification.
//! 12. **`nondet-reach`** — nondeterminism sources (hash-ordered
//!     iteration, wall-clock reads, thread identity) in any function that
//!     *transitively* reaches the `obscor_obs::json` codec or the
//!     hypersparse archive codec, at any call depth.
//! 13. **`blocking-in-par`** — blocking operations (`.lock()`, `.recv()`,
//!     `.join()`, ...) directly or transitively reachable from inside a
//!     rayon parallel-closure extent.
//! 14. **`lock-order`** — cycles in the workspace lock-acquisition graph
//!     (lock A held while acquiring B, and elsewhere B while acquiring A),
//!     including holds that cross function boundaries.
//! 15. **`panic-in-drop`** — panic-path sites directly or transitively
//!     reachable from `Drop::drop` bodies.
//! 16. **`word-bit-manip`** — no ad-hoc u64 word/bit set logic (a
//!     `>> 6` lane split with a `& 63` mask, or a masked popcount) outside
//!     `assoc::bitset`, which owns the membership layout.
//!
//! The engine lexes each file into spanned tokens ([`lex`]), parses a
//! brace-tree of items ([`parse`]), and builds a workspace call graph
//! with memoized reachability closures ([`index`]); rules ([`rules`])
//! walk tokens, never raw strings. Rule documentation lives in a single
//! registry ([`docs`]) that `--explain` and the README table share.
//!
//! Violations print as `file:line: [rule] message` (or as JSON with
//! `--format json`, SARIF with `--format sarif`) and any finding fails the
//! run. The one way to accept a site is a justified
//! `// audit:allow(<rule>) — justification` marker on the same or the
//! preceding line.

pub mod docs;
pub mod index;
pub mod sarif;
pub mod lex;
pub mod parse;
pub mod rules;
pub mod scan;

use std::io;
use std::path::{Path, PathBuf};

use rules::{Diagnostic, INVARIANT_CRATES, PANIC_FREE_CRATES};
use scan::SourceFile;

/// Result of auditing a workspace tree.
pub struct AuditReport {
    /// Every finding, sorted by file then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// The workspace call graph the interprocedural rules ran over.
    pub call_graph: index::CallGraph,
}

impl AuditReport {
    /// True when the audit found nothing.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Render as a JSON object (machine-readable `--format json` mode).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"ok\":{},\"files_scanned\":{},\"violations\":[",
            self.is_clean(),
            self.files_scanned
        );
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
                json_escape(d.rule),
                json_escape(&d.file),
                d.line,
                json_escape(&d.message),
            ));
        }
        s.push_str("]}");
        s
    }
}

/// Escape a string for embedding in a JSON literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Audit the workspace rooted at `root`.
///
/// The tree is expected to follow this repository's layout: member crates
/// under `crates/<name>/` with library code in `src/` and integration tests
/// in `tests/`, plus an optional root package (`src/`, `tests/`).
/// `vendor/` and `target/` are never scanned, and the audit fixtures under
/// `crates/xtask/tests/` are reached only when `root` points *at* them.
pub fn audit(root: &Path) -> io::Result<AuditReport> {
    if !root.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("audit root `{}` is not a directory", root.display()),
        ));
    }
    let mut lib_files: Vec<(String, SourceFile)> = Vec::new(); // (crate, file)
    let mut test_files: Vec<SourceFile> = Vec::new();

    // Root package.
    collect_rs(&root.join("src"), root, &mut |p, rel| {
        lib_files.push(("root".into(), SourceFile::load(p, rel)?));
        Ok(())
    })?;
    collect_rs(&root.join("tests"), root, &mut |p, rel| {
        test_files.push(SourceFile::load(p, rel)?);
        Ok(())
    })?;

    // Member crates.
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> =
            std::fs::read_dir(&crates_dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        entries.sort();
        for dir in entries.into_iter().filter(|p| p.is_dir()) {
            let name = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            collect_rs(&dir.join("src"), root, &mut |p, rel| {
                lib_files.push((name.clone(), SourceFile::load(p, rel)?));
                Ok(())
            })?;
            // Fixture trees under the xtask crate hold *deliberate*
            // violations for the audit's own tests; never treat them as
            // workspace test corpus.
            if name != "xtask" {
                collect_rs(&dir.join("tests"), root, &mut |p, rel| {
                    test_files.push(SourceFile::load(p, rel)?);
                    Ok(())
                })?;
            }
        }
    }

    let files_scanned = lib_files.len() + test_files.len();
    let mut diagnostics = Vec::new();

    // Workspace call graph over all library sources, with memoized
    // reachability closures shared by the interprocedural rules; the
    // one-hop symbol index `map-iter-order` consumes is derived from it.
    let lib_refs: Vec<&SourceFile> = lib_files.iter().map(|(_, f)| f).collect();
    let analyses = index::Analyses::new(index::build_graph(&lib_refs));
    let symbol_index = index::SymbolIndex::from_graph(&analyses.graph);

    // Per-file rules. `file_id` is the node-graph file index (lib_refs
    // order == lib_files order).
    for (file_id, (crate_name, file)) in lib_files.iter().enumerate() {
        diagnostics.extend(rules::rule_index_cast(file));
        if PANIC_FREE_CRATES.contains(&crate_name.as_str()) {
            diagnostics.extend(rules::rule_panic_path(file));
        }
        if crate_name == "stats" || file.rel.ends_with("core/src/fitscan.rs") {
            diagnostics.extend(rules::rule_float_eq(file));
        }
        // `obs` is the one crate allowed to read the wall clock: its
        // SpanTimer is where every other crate's timing must flow.
        if crate_name != "obs" {
            diagnostics.extend(rules::rule_instant_timing(file));
        }
        // The packed (row << 32) | col key layout is owned by
        // hypersparse::keypack; the rule exempts keypack.rs itself.
        if crate_name == "hypersparse" {
            diagnostics.extend(rules::rule_key_pack(file));
        }
        // The u64 word/bit membership layout (word = k >> 6, bit = k & 63)
        // is owned by assoc::bitset; the rule exempts that module itself.
        diagnostics.extend(rules::rule_word_bit_manip(file));
        diagnostics.extend(rules::rule_map_iter_order(file, &symbol_index));
        diagnostics.extend(rules::rule_nonassoc_reduce(file));
        diagnostics.extend(rules::rule_atomic_ordering(file));
        // `obs` hosts the sanctioned process-global state (the metrics
        // registry and level); everywhere else globals must be routed.
        if crate_name != "obs" {
            diagnostics.extend(rules::rule_shared_static_mut(file));
        }
        diagnostics.extend(rules::rule_allow_justification(file));
        diagnostics.extend(rules::rule_nondet_reach(file, file_id, &analyses, crate_name));
        diagnostics.extend(rules::rule_blocking_in_par(file, file_id, &analyses));
        diagnostics.extend(rules::rule_panic_in_drop(file, file_id, &analyses));
    }

    // Lock-order cycles are a whole-workspace property: fold every
    // function's held-while-acquiring pairs into one lock graph.
    diagnostics.extend(rules::rule_lock_order(&lib_refs, &analyses));

    // Invariant coverage: corpus is every test source (integration tests
    // plus in-crate `#[cfg(test)]` regions) that mentions check_invariants.
    let mut corpus = String::new();
    for f in &test_files {
        if f.code.contains("check_invariants") {
            corpus.push_str(&f.code);
            corpus.push('\n');
        }
    }
    for (_, f) in &lib_files {
        if f.code.contains("check_invariants") {
            // Contribute only the test-marked lines of library files.
            for (no, line) in f.code_lines() {
                if f.is_test_line(no) {
                    corpus.push_str(line);
                    corpus.push('\n');
                }
            }
        }
    }
    for crate_name in INVARIANT_CRATES {
        let crate_files: Vec<&SourceFile> = lib_files
            .iter()
            .filter(|(n, _)| n == crate_name)
            .map(|(_, f)| f)
            .collect();
        let owned: Vec<SourceFile> = crate_files
            .iter()
            .map(|f| SourceFile::from_source(f.path.clone(), f.rel.clone(), f.raw.clone()))
            .collect();
        diagnostics.extend(rules::rule_invariant_coverage(&owned, &corpus));
    }

    diagnostics.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    Ok(AuditReport { diagnostics, files_scanned, call_graph: analyses.graph })
}

/// Recursively visit every `.rs` file under `dir`, reporting paths relative
/// to `root`. Missing directories are fine (not every crate has `tests/`).
fn collect_rs(
    dir: &Path,
    root: &Path,
    visit: &mut dyn FnMut(PathBuf, String) -> io::Result<()>,
) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, visit)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .into_owned();
            visit(path, rel)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn report_json_shape() {
        let report = AuditReport {
            diagnostics: vec![Diagnostic {
                rule: "panic-path",
                file: "crates/core/src/lib.rs".into(),
                line: 7,
                message: "`unwrap()` in panic-free library code".into(),
            }],
            files_scanned: 3,
            call_graph: Default::default(),
        };
        let json = report.to_json();
        assert!(json.contains("\"ok\":false"));
        assert!(json.contains("\"line\":7"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
