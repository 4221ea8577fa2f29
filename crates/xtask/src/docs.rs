//! The single rule-documentation registry.
//!
//! Every audit rule has exactly one [`RuleDoc`] here; `cargo xtask audit
//! --explain <rule>` prints the long form, the CLI usage text lists the
//! names, SARIF rule metadata embeds the short form, and a doc-sync test
//! asserts the README rule table carries the same `short` text verbatim.
//! Add a rule to the engine and the registry (or the tests fail) — there
//! is no second place to document it.

/// Documentation for one audit rule.
pub struct RuleDoc {
    /// Rule identifier as it appears in findings (`nondet-reach`).
    pub name: &'static str,
    /// One-line "rejects ..." summary; the README table's second column
    /// must match this string exactly.
    pub short: &'static str,
    /// Long-form explanation for `--explain`: what the rule flags, why
    /// the project cares, and how to fix or suppress a finding.
    pub long: &'static str,
}

/// All audit rules, in the order the engine's module docs list them.
pub const RULE_DOCS: &[RuleDoc] = &[
    RuleDoc {
        name: "index-cast",
        short: "truncating `as u32`/`as usize` casts with 64-bit sources in scope",
        long: "Flags `as u32` / `as usize` / `as Index` casts in functions whose \
               scope carries 64-bit values (u64/i64/usize arithmetic). At the \
               paper's N_V = 2^30 scale a silently truncating cast corrupts packed \
               (row << 32) | col keys. Fix: use `try_into()` with an explicit \
               error, or `Index::try_from`. Suppress a deliberate narrow with \
               `// audit:allow(index-cast) — reason`.",
    },
    RuleDoc {
        name: "panic-path",
        short: "`unwrap`/`expect`/`panic!` in panic-free library crates",
        long: "The core pipeline crates (core, hypersparse, assoc, anonymize, \
               telescope, pcap) must stay panic-free: a panic in a rayon worker \
               aborts the whole reduction. Flags `unwrap()`, `expect(...)`, \
               `panic!`, `unreachable!`, `todo!`, `unimplemented!` in their \
               library code. Fix: return `Result`/`Option`. Suppress with \
               `// audit:allow(panic-path) — reason` (e.g. a checked invariant).",
    },
    RuleDoc {
        name: "float-eq",
        short: "float `==`/`!=` in the statistics / fit-scan code",
        long: "Exact floating-point comparison in `stats` or `core::fitscan` is \
               almost always a bug: the paper's slope/R² fits accumulate rounding \
               error. Fix: compare against an epsilon or use `total_cmp`. \
               Suppress with `// audit:allow(float-eq) — reason` for exact \
               sentinel comparisons (e.g. `== 0.0` guards).",
    },
    RuleDoc {
        name: "invariant-coverage",
        short: "public constructors not covered by a `check_invariants` test",
        long: "Every public constructor of a hypersparse/assoc type must be \
               exercised by at least one test that calls `check_invariants`, so \
               structural invariants (sorted keys, consistent dimensions) are \
               actually enforced where values are born. Fix: add a test calling \
               the constructor then `check_invariants()`.",
    },
    RuleDoc {
        name: "instant-timing",
        short: "ad-hoc `Instant::now()` timing outside the `obs` crate",
        long: "Wall-clock reads scattered through library code bypass the metrics \
               registry and make runs nondeterministic to diff. All timing flows \
               through `obscor_obs::span` (SpanTimer), which owns the clock. Fix: \
               wrap the region in a span. Suppress with \
               `// audit:allow(instant-timing) — reason`.",
    },
    RuleDoc {
        name: "key-pack",
        short: "ad-hoc `as u64` key packing outside `hypersparse::keypack`",
        long: "The packed (row << 32) | col key layout is owned by \
               `hypersparse::keypack`. Hand-rolled `as u64` + `<< 32` packing \
               elsewhere will drift from the canonical layout (sign extension, \
               endianness of unpack). Fix: call `keypack::pack_key` / \
               `unpack_key`. Suppress with `// audit:allow(key-pack) — reason`.",
    },
    RuleDoc {
        name: "map-iter-order",
        short: "`HashMap`/`HashSet` iteration feeding an ordered sink (incl. one call hop from the JSON codec)",
        long: "HashMap/HashSet iteration order is randomized per process; letting \
               it flow into ordered output (Vec pushes, string building, or — via \
               the symbol index, one call hop — the `obscor_obs::json` codec) \
               breaks the paper's bit-identical reproducibility claim. Fix: \
               iterate a BTreeMap or a sorted snapshot. Deeper call chains are \
               `nondet-reach`'s job. Suppress with \
               `// audit:allow(map-iter-order) — reason`.",
    },
    RuleDoc {
        name: "nonassoc-reduce",
        short: "float `sum`/`reduce`/`fold` directly over rayon parallel iterators",
        long: "Float addition is not associative, so a rayon `sum()` / `reduce()` \
               / `fold()` over float accumulators yields run-to-run different \
               results depending on work splitting. The paper's hierarchical sums \
               must be bit-identical. Fix: use the blessed fixed-shape \
               tree-reduction helpers. Suppress with \
               `// audit:allow(nonassoc-reduce) — reason`.",
    },
    RuleDoc {
        name: "atomic-ordering",
        short: "`Ordering::*` sites without an `// ordering:` justification",
        long: "Every atomic `Ordering::*` argument must carry an `// ordering:` \
               comment on the same or previous line; stricter-than-Relaxed notes \
               must name the happens-before edge they establish. Fix: write the \
               justification (it doubles as review documentation).",
    },
    RuleDoc {
        name: "shared-static-mut",
        short: "process-global mutable statics outside the `obs` crate",
        long: "Process-global mutable state outside the `obs` metrics registry \
               makes runs order-dependent and tests flaky. Flags `static mut` \
               and `static` items with interior-mutable types \
               (Mutex/RwLock/atomics/OnceLock) anywhere but the `obs` crate, \
               whose one metrics level is the workspace's only switch. Fix: \
               route state through the registry or pass it explicitly. \
               Suppress with `// audit:allow(shared-static-mut) — reason`.",
    },
    RuleDoc {
        name: "allow-justification",
        short: "`audit:allow(...)` markers with no trailing reason",
        long: "An `audit:allow(<rule>)` marker with no ` — reason` text is an \
               unexplained suppression; the gate requires every escape hatch to \
               say why. Fix: append ` — <reason>` to the marker.",
    },
    RuleDoc {
        name: "nondet-reach",
        short: "nondeterminism sources that transitively reach the JSON or archive codec",
        long: "Interprocedural determinism taint. Sources are hash-ordered \
               iteration (HashMap/HashSet), wall-clock reads (Instant::now / \
               SystemTime::now, outside `obs`), and thread identity \
               (current_thread_index / thread::current). A source inside any \
               function that — at any call depth, over the workspace call graph \
               — reaches the `obscor_obs::json` codec or the hypersparse archive \
               codec is flagged, and the finding message prints the full call \
               chain. Resolution is name-based and over-approximate: a false \
               positive is suppressed per-site, never by weakening the graph. \
               Fix: make the source deterministic (sorted view, registry span) \
               or break the chain. Suppress with \
               `// audit:allow(nondet-reach) — reason`.",
    },
    RuleDoc {
        name: "blocking-in-par",
        short: "blocking calls (lock/recv/join) reachable from inside rayon parallel closures",
        long: "Blocking a rayon work-stealing worker (`.lock()`, `.read()`, \
               `.write()`, `.recv()`, `.recv_timeout(...)`, `.join()`) risks \
               starvation or deadlock: the blocked worker may hold the very task \
               its unblocker needs. Flags blocking operations written directly \
               inside a parallel-closure extent (par_iter adapters, rayon::scope \
               / rayon::join) and calls whose callee transitively blocks, with \
               the full chain in the message. Fix: hoist the blocking operation \
               out of the parallel region (prefetch handles, collect then lock). \
               Suppress with `// audit:allow(blocking-in-par) — reason`.",
    },
    RuleDoc {
        name: "lock-order",
        short: "cycles in the workspace lock-acquisition-order graph",
        long: "Folds every function's ordered lock acquisitions over named \
               static/field locks into one workspace lock graph: an edge A → B \
               means some function holds A while acquiring B (directly, or by \
               calling into a function that acquires B). A cycle is a deadlock \
               candidate — two threads taking the locks in opposite orders can \
               each hold what the other wants. The diagnostic prints the cycle \
               and the file:line witness for each edge. Fix: acquire the locks \
               in one global order everywhere, or narrow a guard's scope so it \
               drops before the next acquisition. Suppress with \
               `// audit:allow(lock-order) — reason` at the witness site.",
    },
    RuleDoc {
        name: "panic-in-drop",
        short: "panic-path sites reachable from `Drop::drop` bodies",
        long: "A panic that starts while another panic is unwinding aborts the \
               process, so `Drop::drop` must be infallible. Flags panic-path \
               sites (`unwrap`, `expect`, `panic!`, ...) written directly in a \
               `Drop::drop` body and calls whose callee can transitively panic, \
               with the full chain in the message. Fix: swallow or log the error \
               in drop; offer an explicit fallible `close()` for callers who \
               care. Suppress with `// audit:allow(panic-in-drop) — reason`.",
    },
    RuleDoc {
        name: "word-bit-manip",
        short: "ad-hoc u64 word/bit set logic outside `assoc::bitset`",
        long: "The compressed bitmap substrate owns the word-parallel membership \
               layout: word = key >> 6, bit = key & 63, masked popcounts. Flags \
               lane splits (`>> 6` with `& 63`/`& 0x3f` on one line) and masked \
               popcounts (`count_ones` beside a binary `&`) anywhere outside \
               `assoc/src/bitset/` — a hand-rolled copy drifts from the \
               containers' form choice and overlap counts. Fix: build a \
               `BitSet` and use its overlap counts and membership tests. \
               Suppress with `// audit:allow(word-bit-manip) — reason`.",
    },
];

/// Look up one rule's documentation by name.
pub fn rule_doc(name: &str) -> Option<&'static RuleDoc> {
    RULE_DOCS.iter().find(|d| d.name == name)
}

/// Render the `--explain <rule>` text: header, short line, wrapped body.
pub fn explain(name: &str) -> Option<String> {
    let d = rule_doc(name)?;
    let mut s = format!("{}\n{}\n\nrejects: {}\n\n", d.name, "=".repeat(d.name.len()), d.short);
    // Re-wrap the long text to ~78 columns for terminal output.
    let mut col = 0usize;
    for word in d.long.split_whitespace() {
        if col > 0 && col + 1 + word.len() > 78 {
            s.push('\n');
            col = 0;
        } else if col > 0 {
            s.push(' ');
            col += 1;
        }
        s.push_str(word);
        col += word.len();
    }
    s.push('\n');
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let mut names: Vec<&str> = RULE_DOCS.iter().map(|d| d.name).collect();
        assert_eq!(names.len(), 16);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16, "duplicate rule names in registry");
        for d in RULE_DOCS {
            assert!(!d.short.is_empty() && !d.long.is_empty(), "{} has empty docs", d.name);
        }
    }

    #[test]
    fn explain_renders_known_rules_only() {
        let text = explain("lock-order").expect("known rule");
        assert!(text.starts_with("lock-order\n==========\n"));
        assert!(text.contains("rejects: cycles in the workspace"));
        assert!(text.lines().all(|l| l.len() <= 80), "wrapped to terminal width");
        assert!(explain("no-such-rule").is_none());
    }
}
