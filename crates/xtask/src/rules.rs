//! The audit rules, built on the token engine.
//!
//! Each rule scans preprocessed [`SourceFile`]s — token stream, delimiter
//! match table, and item tree from [`crate::lex`]/[`crate::parse`] — and
//! emits [`Diagnostic`]s. Rules are suppressible per-site with an inline
//! `// audit:allow(<rule>) — justification` marker on the offending line or
//! the line above it; the justification is mandatory (see
//! `allow-justification` below).
//!
//! | rule                 | scope                                  | what it catches |
//! |----------------------|----------------------------------------|-----------------|
//! | `index-cast`         | all library code                       | truncating `as u32` / `as usize` / `as Index` casts whose source context mentions a wider type |
//! | `panic-path`         | `core`, `hypersparse`, `assoc`, `anonymize`, `telescope`, `pcap` lib code | `unwrap()`, `expect(...)`, `panic!`, `unreachable!`, `todo!` |
//! | `float-eq`           | `stats` lib code + `core/src/fitscan.rs` | `==` / `!=` between floating-point expressions |
//! | `invariant-coverage` | `hypersparse`, `assoc`                 | public constructors not exercised by any `check_invariants` test |
//! | `instant-timing`     | all library code except `obs`          | ad-hoc `Instant::now()` / `SystemTime::now()` timing outside the metrics layer |
//! | `key-pack`           | `hypersparse` lib code except `keypack.rs` | ad-hoc `as u64` + `<< 32` key packing outside the shared `keypack` helper |
//! | `map-iter-order`     | all library code                       | `HashMap`/`HashSet` iteration order flowing into `Vec` pushes, string building, or (via the symbol index, one call hop) the `obscor_obs::json` codec |
//! | `nonassoc-reduce`    | all library code                       | rayon `reduce`/`fold`/`sum`/`product` over float accumulators outside blessed tree-reduction helpers |
//! | `atomic-ordering`    | all library code                       | `Ordering::*` sites without an `// ordering:` justification; stricter-than-Relaxed notes must name the happens-before edge |
//! | `shared-static-mut`  | all library code except `obs`          | process-global `static` atomics/locks/cells outside the obs registry |
//! | `allow-justification`| all library code                       | `audit:allow(<rule>)` markers without a trailing justification |
//! | `nondet-reach`       | all library code                       | nondeterminism sources (hash iteration, wall-clock, thread identity) in functions that transitively reach the `obscor_obs::json` codec or the hypersparse archive codec |
//! | `blocking-in-par`    | all library code                       | blocking operations (`.lock()`, `.read()`/`.write()`, `.recv()`, `.join()`) inside rayon parallel extents, directly or through the call graph |
//! | `lock-order`         | whole workspace                        | cycles in the named-lock acquisition graph (deadlock candidates) |
//! | `panic-in-drop`      | all library code                       | panic-path sites reachable from `Drop::drop` bodies |
//! | `word-bit-manip`     | all library code except `assoc/src/bitset/` | ad-hoc u64 word/bit set logic (lane splits `>> 6` + `& 63`, masked popcounts) outside the compressed bitmap substrate |

use std::collections::HashSet;

use crate::index::{Analyses, SymbolIndex};
use crate::lex::TokKind;
use crate::parse::{fn_signature, Item, ItemKind};
use crate::scan::{has_token, SourceFile};

/// One audit finding, pointing at a concrete `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule identifier (e.g. `panic-path`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation of the finding.
    pub message: String,
}

impl Diagnostic {
    /// Render as the canonical `file:line: [rule] message` form.
    pub fn render(&self) -> String {
        format!("{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

fn diag(rule: &'static str, file: &SourceFile, line: usize, message: String) -> Diagnostic {
    Diagnostic { rule, file: file.rel.clone(), line, message }
}

/// Crates whose library code must be panic-free. `telescope` and `pcap`
/// joined with the fault-recovery layer: both sit on the archive/ingest
/// path, where a corrupt input must surface as a classified error
/// (transient vs permanent), never a panic.
pub const PANIC_FREE_CRATES: &[&str] =
    &["core", "hypersparse", "assoc", "anonymize", "telescope", "pcap"];

/// Crates whose public constructors require invariant-test coverage.
pub const INVARIANT_CRATES: &[&str] = &["hypersparse", "assoc"];

const PAR_SOURCES: &[&str] = &[
    "par_iter",
    "into_par_iter",
    "par_iter_mut",
    "par_bridge",
    "par_chunks",
    "par_chunks_exact",
    "par_windows",
    "par_drain",
];
const REDUCE_TERMINALS: &[&str] = &["reduce", "fold", "sum", "product"];
const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
];
const SHARED_STATIC_TYPES: &[&str] = &[
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
    "Mutex",
    "RwLock",
    "OnceLock",
    "OnceCell",
    "LazyLock",
    "Cell",
    "RefCell",
    "UnsafeCell",
];
const MEM_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

// ---------------------------------------------------------------------------
// Token-walk helpers
// ---------------------------------------------------------------------------

/// Brace depth of each token: `{` carries the depth *outside* it, tokens
/// inside carry depth+1, and the matching `}` carries the outside depth
/// again. Paren/bracket groups do not change brace depth, so a closure
/// body `{ .. }` nested in a call chain sits one level deeper than the
/// chain itself — the property the reduction and taint extents rely on.
fn brace_depths(file: &SourceFile) -> Vec<u32> {
    let mut out = Vec::with_capacity(file.toks.len());
    let mut depth = 0u32;
    for i in 0..file.toks.len() {
        match file.toks[i].kind {
            TokKind::Open if file.tok_text(i) == "{" => {
                out.push(depth);
                depth += 1;
            }
            TokKind::Close if file.tok_text(i) == "}" => {
                depth = depth.saturating_sub(1);
                out.push(depth);
            }
            _ => out.push(depth),
        }
    }
    out
}

/// First token of the statement containing token `i` (same brace depth).
fn stmt_start(file: &SourceFile, depths: &[u32], i: usize) -> usize {
    let d = depths[i];
    let mut j = i;
    while j > 0 {
        let p = j - 1;
        if depths[p] < d {
            break; // crossed the enclosing `{`
        }
        if depths[p] == d {
            let txt = file.tok_text(p);
            if txt == ";" {
                break;
            }
            if txt == "}" && file.toks[p].kind == TokKind::Close {
                // A closing brace ends the statement unless the expression
                // continues through it (`}).sum()`, `}, other)`, `} else`).
                let follow = file.tok_text(p + 1);
                if !matches!(follow, "." | ")" | "]" | "," | "?" | ";" | "else") {
                    break;
                }
            }
        }
        j = p;
    }
    j
}

/// Last token (inclusive) of the statement containing token `i`. Nested
/// brace groups are jumped via the delimiter table; a jumped group ends the
/// statement unless a chain continues after it.
fn stmt_end(file: &SourceFile, depths: &[u32], i: usize) -> usize {
    let d = depths[i];
    let mut j = i;
    while j + 1 < file.toks.len() {
        let n = j + 1;
        if depths[n] < d {
            break; // the enclosing `}` closed
        }
        if depths[n] == d {
            let txt = file.tok_text(n);
            if txt == ";" {
                return n;
            }
            if file.toks[n].kind == TokKind::Open && txt == "{" {
                let close = file.delims[n];
                if close <= n {
                    return n;
                }
                j = close;
                if j + 1 < file.toks.len()
                    && depths[j + 1] == d
                    && matches!(file.tok_text(j + 1), "." | "?" | "else" | ")" | "]" | ",")
                {
                    continue;
                }
                return j;
            }
        }
        j = n;
    }
    j
}

/// Consecutive same-line token runs: `(line, token index range)`.
fn line_runs(file: &SourceFile) -> Vec<(usize, std::ops::Range<usize>)> {
    let mut out = Vec::new();
    let n = file.toks.len();
    let mut s = 0;
    for i in 1..=n {
        if i == n || file.toks[i].line != file.toks[s].line {
            out.push((file.toks[s].line, s..i));
            s = i;
        }
    }
    out
}

fn line_exempt(file: &SourceFile, rule: &str, line: usize) -> bool {
    file.is_test_line(line) || file.is_allowed(rule, line)
}

// ---------------------------------------------------------------------------
// Ported rules
// ---------------------------------------------------------------------------

/// Rule `index-cast`: flag `as u32` / `as Index` / `as usize` casts whose
/// surrounding expression mentions a wider source type, i.e. the places a
/// silent truncation can corrupt an index. Pure narrowing of already-narrow
/// values (e.g. `u8 as u32`) carries no wide-source marker and passes.
pub fn rule_index_cast(file: &SourceFile) -> Vec<Diagnostic> {
    const RULE: &str = "index-cast";
    let mut out = Vec::new();
    let mut seen: HashSet<(usize, &str)> = HashSet::new();
    for i in 0..file.toks.len().saturating_sub(1) {
        if file.toks[i].kind != TokKind::Ident || file.tok_text(i) != "as" {
            continue;
        }
        if file.toks[i + 1].kind != TokKind::Ident {
            continue;
        }
        let target = file.tok_text(i + 1);
        if !matches!(target, "u32" | "usize" | "Index") {
            continue;
        }
        let line = file.tok_line(i);
        if line_exempt(file, RULE, line) || seen.contains(&(line, target)) {
            continue;
        }
        // Wide-source evidence among the tokens to the left on this line.
        let left: Vec<usize> = (0..i).rev().take_while(|&j| file.tok_line(j) == line).collect();
        let has_ident = |names: &[&str]| {
            left.iter().any(|&j| {
                file.toks[j].kind == TokKind::Ident && names.contains(&file.tok_text(j))
            })
        };
        let wide = match target {
            // usize is 64-bit here; only 64-bit+ sources can truncate.
            "usize" => has_ident(&["u64", "i64", "u128", "i128", "f64"]),
            // u32 / Index also truncate from usize-width sources.
            _ => {
                has_ident(&["u64", "i64", "u128", "i128", "f64", "usize"])
                    || left.iter().any(|&j| matches!(file.tok_text(j), "<<" | ">>"))
                    || left.iter().any(|&j| {
                        file.toks[j].kind == TokKind::Ident
                            && file.tok_text(j) == "len"
                            && j > 0
                            && file.tok_text(j - 1) == "."
                            && j + 1 < i
                            && file.tok_text(j + 1) == "("
                    })
            }
        };
        if wide {
            seen.insert((line, target));
            out.push(diag(
                RULE,
                file,
                line,
                format!(
                    "truncating `as {target}` cast from a wide source; use \
                     `try_from`/`try_into` or annotate with audit:allow({RULE})"
                ),
            ));
        }
    }
    out
}

/// Rule `panic-path`: no `unwrap` / `expect` / `panic!` / `unreachable!` /
/// `todo!` in library code of the panic-free crates. Test code is exempt.
pub fn rule_panic_path(file: &SourceFile) -> Vec<Diagnostic> {
    const RULE: &str = "panic-path";
    let mut out = Vec::new();
    let mut seen: HashSet<(usize, &str)> = HashSet::new();
    for i in 0..file.toks.len() {
        if file.toks[i].kind != TokKind::Ident {
            continue;
        }
        let line = file.tok_line(i);
        let name = file.tok_text(i);
        let label = match name {
            // `.unwrap()` — empty-arg method call on a receiver.
            "unwrap"
                if i > 0
                    && file.tok_text(i - 1) == "."
                    && i + 2 < file.toks.len()
                    && file.tok_text(i + 1) == "("
                    && file.delims[i + 1] == i + 2 =>
            {
                "`unwrap()`"
            }
            "expect"
                if i > 0
                    && file.tok_text(i - 1) == "."
                    && i + 1 < file.toks.len()
                    && file.tok_text(i + 1) == "(" =>
            {
                "`expect(...)`"
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if i + 1 < file.toks.len() && file.tok_text(i + 1) == "!" =>
            {
                match name {
                    "panic" => "`panic!`",
                    "unreachable" => "`unreachable!`",
                    "todo" => "`todo!`",
                    _ => "`unimplemented!`",
                }
            }
            _ => continue,
        };
        if line_exempt(file, RULE, line) || !seen.insert((line, label)) {
            continue;
        }
        out.push(diag(
            RULE,
            file,
            line,
            format!(
                "{label} in panic-free library code; return a Result or \
                 annotate a documented contract with audit:allow({RULE})"
            ),
        ));
    }
    out
}

/// Rule `float-eq`: no `==` / `!=` on a line showing floating-point
/// evidence (an `f64`/`f32` token or a float literal).
pub fn rule_float_eq(file: &SourceFile) -> Vec<Diagnostic> {
    const RULE: &str = "float-eq";
    let mut out = Vec::new();
    for (line, run) in line_runs(file) {
        if line_exempt(file, RULE, line) {
            continue;
        }
        let evidence = run.clone().any(|j| {
            file.toks[j].kind == TokKind::Float
                || (file.toks[j].kind == TokKind::Ident
                    && matches!(file.tok_text(j), "f64" | "f32"))
        });
        if !evidence {
            continue;
        }
        for j in run {
            if file.toks[j].kind == TokKind::Punct && matches!(file.tok_text(j), "==" | "!=") {
                out.push(diag(
                    RULE,
                    file,
                    line,
                    format!(
                        "floating-point `{}` comparison; use an epsilon/ULP helper or \
                         total ordering, or annotate with audit:allow({RULE})",
                        file.tok_text(j)
                    ),
                ));
            }
        }
    }
    out
}

/// Rule `instant-timing`: no ad-hoc wall-clock timing (`Instant::now()`,
/// `SystemTime::now()`) in library code outside the `obs` crate. All timing
/// must flow through `obscor_obs::span` so measurements land in the metrics
/// registry — and therefore in `--metrics` dumps and `BENCH_pipeline.json` —
/// instead of scattering one-off stderr prints. The caller (`audit`) skips
/// the `obs` crate itself, which hosts the one sanctioned `Instant::now()`.
pub fn rule_instant_timing(file: &SourceFile) -> Vec<Diagnostic> {
    const RULE: &str = "instant-timing";
    let mut out = Vec::new();
    let mut seen: HashSet<(usize, &str)> = HashSet::new();
    for i in 0..file.toks.len().saturating_sub(2) {
        if file.toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = file.tok_text(i);
        if !matches!(name, "Instant" | "SystemTime") {
            continue;
        }
        if file.tok_text(i + 1) != "::" || file.tok_text(i + 2) != "now" {
            continue;
        }
        let line = file.tok_line(i);
        let needle = if name == "Instant" { "Instant::now" } else { "SystemTime::now" };
        if line_exempt(file, RULE, line) || !seen.insert((line, needle)) {
            continue;
        }
        out.push(diag(
            RULE,
            file,
            line,
            format!(
                "ad-hoc `{needle}()` timing outside the obs crate; use \
                 `obscor_obs::span` / `SpanTimer` so the measurement lands \
                 in the metrics registry, or annotate with audit:allow({RULE})"
            ),
        ));
    }
    out
}

/// Rule `key-pack`: no ad-hoc `(x as u64) << 32` key packing in the
/// `hypersparse` crate outside `keypack.rs`. The packed `(row << 32) | col`
/// key layout is load-bearing for the radix compaction kernel; every
/// construction site must go through `keypack::pack_key` / `unpack_key`
/// so the layout can only change in one place. A line trips when it
/// contains both an `as u64` cast and a `<< 32` shift. The caller
/// (`audit`) applies this to `hypersparse` only; the rule itself exempts
/// `keypack.rs`.
pub fn rule_key_pack(file: &SourceFile) -> Vec<Diagnostic> {
    const RULE: &str = "key-pack";
    if file.rel.ends_with("keypack.rs") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (line, run) in line_runs(file) {
        if line_exempt(file, RULE, line) {
            continue;
        }
        let shift_32 = run.clone().any(|j| {
            file.tok_text(j) == "<<"
                && j + 1 < run.end
                && file.toks[j + 1].kind == TokKind::Int
                && file.tok_text(j + 1) == "32"
        });
        let cast_u64 = run.clone().any(|j| {
            file.toks[j].kind == TokKind::Ident
                && file.tok_text(j) == "as"
                && j + 1 < run.end
                && file.tok_text(j + 1) == "u64"
        });
        if shift_32 && cast_u64 {
            out.push(diag(
                RULE,
                file,
                line,
                format!(
                    "ad-hoc `as u64` + `<< 32` key packing; route key \
                     construction through `keypack::pack_key` / \
                     `unpack_key`, or annotate with audit:allow({RULE})"
                ),
            ));
        }
    }
    out
}

/// Numeric value of an `Int` token's text (suffix glued, `_` separators,
/// `0x`/`0o`/`0b` prefixes). `None` when the digits do not parse.
fn int_literal_value(text: &str) -> Option<u64> {
    let t = text.replace('_', "");
    let (digits, radix) = if let Some(h) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        (h, 16)
    } else if let Some(o) = t.strip_prefix("0o").or_else(|| t.strip_prefix("0O")) {
        (o, 8)
    } else if let Some(b) = t.strip_prefix("0b").or_else(|| t.strip_prefix("0B")) {
        (b, 2)
    } else {
        (t.as_str(), 10)
    };
    let end = digits.find(|c: char| !c.is_digit(radix)).unwrap_or(digits.len());
    if end == 0 {
        return None;
    }
    u64::from_str_radix(&digits[..end], radix).ok()
}

/// Rule `word-bit-manip`: no ad-hoc 64-bit word/bit set manipulation
/// outside `assoc/src/bitset/`. The compressed bitmap substrate owns the
/// word-parallel membership layout (word = key >> 6, bit = key & 63,
/// masked popcounts); a hand-rolled copy elsewhere forks that layout and
/// silently drifts from the containers' form choice and counts. A
/// line trips when it either splits a key into the u64 lane pair — a
/// `>> 6` / `<< 6` shift together with a `& 63` (or `& 0x3f`) mask — or
/// popcounts a masked word (`count_ones` on the same line as a binary
/// `&`). The caller (`audit`) applies this to every library crate; the
/// rule itself exempts the bitset module.
pub fn rule_word_bit_manip(file: &SourceFile) -> Vec<Diagnostic> {
    const RULE: &str = "word-bit-manip";
    if file.rel.contains("assoc/src/bitset/") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (line, run) in line_runs(file) {
        if line_exempt(file, RULE, line) {
            continue;
        }
        let int_after = |j: usize, want: u64| {
            j + 1 < run.end
                && file.toks[j + 1].kind == TokKind::Int
                && int_literal_value(file.tok_text(j + 1)) == Some(want)
        };
        let lane_shift =
            run.clone().any(|j| matches!(file.tok_text(j), ">>" | "<<") && int_after(j, 6));
        let lane_mask = run.clone().any(|j| file.tok_text(j) == "&" && int_after(j, 63));
        let popcount = run
            .clone()
            .any(|j| file.toks[j].kind == TokKind::Ident && file.tok_text(j) == "count_ones");
        // A `&` is a binary AND (not a reference) when an operand ends
        // directly before it: an identifier, a literal, or a `)`/`]`.
        let binary_and = run.clone().any(|j| {
            file.tok_text(j) == "&"
                && j > run.start
                && matches!(
                    file.toks[j - 1].kind,
                    TokKind::Ident | TokKind::Int | TokKind::Close
                )
        });
        if (lane_shift && lane_mask) || (popcount && binary_and) {
            out.push(diag(
                RULE,
                file,
                line,
                format!(
                    "ad-hoc u64 word/bit set manipulation; route membership \
                     and overlap logic through the `assoc::bitset` \
                     containers, or annotate with audit:allow({RULE})"
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Invariant coverage (parser-driven)
// ---------------------------------------------------------------------------

/// A public constructor discovered by [`find_constructors`].
#[derive(Debug, Clone)]
pub struct Constructor {
    /// The type the `impl` block belongs to.
    pub type_name: String,
    /// The function name.
    pub fn_name: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
}

/// Find `pub fn` constructors (no `self` receiver, returns `Self` or the
/// impl type) in inherent `impl` blocks of `file`, via the item tree.
pub fn find_constructors(file: &SourceFile) -> Vec<Constructor> {
    let mut out = Vec::new();
    for item in &file.items {
        if !matches!(item.kind, ItemKind::Fn) || !item.is_pub {
            continue;
        }
        let Some(p) = item.parent else { continue };
        let ItemKind::Impl { ref type_name, trait_impl: false, .. } = file.items[p].kind else {
            continue;
        };
        if type_name.is_empty() {
            continue;
        }
        let line = file.tok_line(item.kw_tok);
        if file.is_test_line(line) || file.is_allowed("invariant-coverage", line) {
            continue;
        }
        let Some(sig) = fn_signature(item, &file.code, &file.toks, &file.delims) else {
            continue;
        };
        // A `self` receiver in the first parameter marks a method.
        if first_param_has_self(file, sig.params) {
            continue;
        }
        let returns_self = (sig.ret.0..sig.ret.1).any(|j| {
            file.toks[j].kind == TokKind::Ident
                && (file.tok_text(j) == "Self" || file.tok_text(j) == type_name)
        });
        if returns_self {
            out.push(Constructor {
                type_name: type_name.clone(),
                fn_name: item.name.clone(),
                file: file.rel.clone(),
                line,
            });
        }
    }
    out
}

fn first_param_has_self(file: &SourceFile, params: (usize, usize)) -> bool {
    let mut j = params.0 + 1;
    let mut angle = 0i32;
    while j < params.1 {
        match file.toks[j].kind {
            TokKind::Open => {
                let close = file.delims[j];
                j = if close > j { close + 1 } else { j + 1 };
                continue;
            }
            TokKind::Ident if file.tok_text(j) == "self" => return true,
            _ => match file.tok_text(j) {
                "<" => angle += 1,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "," if angle <= 0 => return false,
                _ => {}
            },
        }
        j += 1;
    }
    false
}

/// Rule `invariant-coverage`, run over a whole crate at once:
///
/// * every type in an invariant crate that defines `check_invariants` must
///   have each of its public constructors mentioned, together with the type
///   name, in some test source that also calls `check_invariants`;
/// * a type with public constructors but *no* `check_invariants` method is
///   itself a finding (anchored at its first constructor).
///
/// `lib_files` are the crate's library sources; `test_corpus` is the
/// concatenation of every test source that mentions `check_invariants`
/// (crate `tests/` files plus `#[cfg(test)]` regions).
pub fn rule_invariant_coverage(
    lib_files: &[SourceFile],
    test_corpus: &str,
) -> Vec<Diagnostic> {
    const RULE: &str = "invariant-coverage";
    let mut out = Vec::new();
    // Types that define check_invariants in an inherent impl, crate-wide.
    let mut checked_types = HashSet::new();
    for f in lib_files {
        for item in &f.items {
            if matches!(item.kind, ItemKind::Fn) && item.name == "check_invariants" {
                if let Some(p) = item.parent {
                    if let ItemKind::Impl { ref type_name, trait_impl: false, .. } =
                        f.items[p].kind
                    {
                        checked_types.insert(type_name.clone());
                    }
                }
            }
        }
    }
    for f in lib_files {
        for ctor in find_constructors(f) {
            if !checked_types.contains(&ctor.type_name) {
                out.push(Diagnostic {
                    rule: RULE,
                    file: ctor.file.clone(),
                    line: ctor.line,
                    message: format!(
                        "type `{}` has public constructor `{}` but no \
                         `check_invariants()` method",
                        ctor.type_name, ctor.fn_name
                    ),
                });
                continue;
            }
            let covered = has_token(test_corpus, &ctor.type_name)
                && has_token(test_corpus, &ctor.fn_name);
            if !covered {
                out.push(Diagnostic {
                    rule: RULE,
                    file: ctor.file,
                    line: ctor.line,
                    message: format!(
                        "public constructor `{}::{}` is not exercised by any \
                         `check_invariants` test",
                        ctor.type_name, ctor.fn_name
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// New rules: determinism & concurrency
// ---------------------------------------------------------------------------

/// Rule `atomic-ordering`: every `Ordering::*` memory-ordering site must be
/// covered by an `// ordering:` justification comment (own line or the line
/// above) or an `audit:allow(atomic-ordering)` marker. Stricter-than-Relaxed
/// orderings must name the happens-before edge their justification
/// establishes (the note must contain "happens-before").
/// `cmp::Ordering` variants (`Less`/`Equal`/`Greater`) never match.
pub fn rule_atomic_ordering(file: &SourceFile) -> Vec<Diagnostic> {
    const RULE: &str = "atomic-ordering";
    let mut out = Vec::new();
    let mut seen_lines: HashSet<usize> = HashSet::new();
    for i in 0..file.toks.len().saturating_sub(2) {
        if file.toks[i].kind != TokKind::Ident || file.tok_text(i) != "Ordering" {
            continue;
        }
        if file.tok_text(i + 1) != "::" {
            continue;
        }
        let member = file.tok_text(i + 2);
        if !MEM_ORDERINGS.contains(&member) {
            continue;
        }
        let line = file.tok_line(i + 2);
        if line_exempt(file, RULE, line) || seen_lines.contains(&line) {
            continue;
        }
        match file.ordering_note(line) {
            None => {
                seen_lines.insert(line);
                out.push(diag(
                    RULE,
                    file,
                    line,
                    format!(
                        "`Ordering::{member}` without an `// ordering:` justification \
                         comment; document why this ordering is sufficient or annotate \
                         with audit:allow({RULE})"
                    ),
                ));
            }
            Some(note) if member != "Relaxed" && !note.contains("happens-before") => {
                seen_lines.insert(line);
                out.push(diag(
                    RULE,
                    file,
                    line,
                    format!(
                        "`Ordering::{member}` is stricter than Relaxed but its \
                         `// ordering:` note does not name the happens-before edge \
                         it establishes"
                    ),
                ));
            }
            Some(_) => {}
        }
    }
    out
}

/// Rule `shared-static-mut`: process-global mutable state — `static mut`,
/// or a `static` whose type is an atomic, lock, or interior-mutability cell
/// — outside the `obs` registry (the caller skips the `obs` crate). Fn-local
/// statics count: they are still process-global storage.
pub fn rule_shared_static_mut(file: &SourceFile) -> Vec<Diagnostic> {
    const RULE: &str = "shared-static-mut";
    let mut out = Vec::new();
    for item in &file.items {
        let ItemKind::Static { type_range, mutable } = item.kind else { continue };
        if item.is_test {
            continue;
        }
        let line = file.tok_line(item.kw_tok);
        if file.is_allowed(RULE, line) {
            continue;
        }
        let shared_ty = (type_range.0..type_range.1).find(|&j| {
            file.toks[j].kind == TokKind::Ident && SHARED_STATIC_TYPES.contains(&file.tok_text(j))
        });
        if !mutable && shared_ty.is_none() {
            continue; // immutable plain data (lookup tables etc.) is fine
        }
        let what = if mutable {
            "`static mut`".to_string()
        } else {
            format!("`static {}: {}`", item.name, file.tok_text(shared_ty.unwrap()))
        };
        out.push(diag(
            RULE,
            file,
            line,
            format!(
                "process-global {what} outside the obs registry; route shared \
                 state through `obscor_obs`, or annotate with \
                 audit:allow({RULE})"
            ),
        ));
    }
    out
}

/// Rule `nonassoc-reduce`: a rayon `reduce`/`fold`/`sum`/`product` terminal
/// at the same brace depth as a parallel-iterator source in the same
/// statement, with floating-point evidence in the statement, is a
/// non-associative reduction whose result depends on work-stealing split
/// points. Sequential float reductions *inside* a parallel closure (one
/// brace level deeper) are associative per-item work and pass.
pub fn rule_nonassoc_reduce(file: &SourceFile) -> Vec<Diagnostic> {
    const RULE: &str = "nonassoc-reduce";
    let depths = brace_depths(file);
    let mut out = Vec::new();
    for i in 0..file.toks.len() {
        if file.toks[i].kind != TokKind::Ident {
            continue;
        }
        let term = file.tok_text(i);
        if !REDUCE_TERMINALS.contains(&term) {
            continue;
        }
        if i == 0 || file.tok_text(i - 1) != "." {
            continue;
        }
        if i + 1 >= file.toks.len() || !matches!(file.tok_text(i + 1), "(" | "::") {
            continue;
        }
        let line = file.tok_line(i);
        if line_exempt(file, RULE, line) {
            continue;
        }
        let d = depths[i];
        let start = stmt_start(file, &depths, i);
        let end = stmt_end(file, &depths, i);
        // The parallel source must sit on the same chain (same brace
        // depth), before the terminal, within this statement.
        let par = (start..i).find(|&j| {
            depths[j] == d
                && file.toks[j].kind == TokKind::Ident
                && PAR_SOURCES.contains(&file.tok_text(j))
        });
        let Some(par_j) = par else { continue };
        // Float evidence anywhere in the statement (closure bodies too).
        let float = (start..=end).any(|j| {
            file.toks[j].kind == TokKind::Float
                || (file.toks[j].kind == TokKind::Ident
                    && matches!(file.tok_text(j), "f64" | "f32"))
        });
        if !float {
            continue;
        }
        out.push(diag(
            RULE,
            file,
            line,
            format!(
                "non-associative floating-point `.{term}(...)` over `{}`; the result \
                 depends on rayon split points — reduce sequentially or annotate \
                 with audit:allow({RULE})",
                file.tok_text(par_j)
            ),
        ));
    }
    out
}

/// Rule `map-iter-order`: iteration over a `HashMap`/`HashSet`-typed
/// binding whose extent feeds an order-sensitive sink — `Vec` pushes,
/// string building, `collect` into `Vec`/`String`, or a call to a function
/// that reaches the `obscor_obs::json` codec within one hop (per the
/// symbol index). `BTreeMap`/sorted collections never match; sites that
/// sort afterwards document it with `audit:allow(map-iter-order)`.
pub fn rule_map_iter_order(file: &SourceFile, index: &SymbolIndex) -> Vec<Diagnostic> {
    const RULE: &str = "map-iter-order";
    let depths = brace_depths(file);
    let mut out = Vec::new();
    for item in &file.items {
        if !matches!(item.kind, ItemKind::Fn) || item.is_test {
            continue;
        }
        let mut emitted: HashSet<usize> = HashSet::new();
        for site in hash_iteration_sites(file, item, &depths) {
            if line_exempt(file, RULE, site.line) || !emitted.insert(site.line) {
                continue;
            }
            if let Some(sink) = find_order_sink(file, &depths, site.extent, index) {
                out.push(diag(
                    RULE,
                    file,
                    site.line,
                    format!(
                        "iteration over {} flows into {sink}; iterate a \
                         BTreeMap/sorted view or annotate with audit:allow({RULE})",
                        site.desc
                    ),
                ));
            }
        }
    }
    out
}

/// One hash-ordered iteration site inside a fn body, shared between
/// `map-iter-order` (which additionally demands an order sink in the
/// extent) and `nondet-reach` (which taints by reachability instead).
struct HashIterSite {
    /// 1-based line of the `for` keyword or the binding identifier.
    line: usize,
    /// Token index anchoring the site (for ownership checks).
    tok: usize,
    /// Message fragment: `a hash-ordered collection` (for-loops) or
    /// `` hash-ordered `m` `` (method chains).
    desc: String,
    /// Token extent to scan for order sinks: the loop body or the
    /// chain's statement.
    extent: (usize, usize),
}

/// Find every hash-ordered iteration site in `item`'s body: `for` loops
/// whose iterable shows `HashMap`/`HashSet` evidence, and
/// `<hash binding>.<iter method>(` chains.
fn hash_iteration_sites(file: &SourceFile, item: &Item, depths: &[u32]) -> Vec<HashIterSite> {
    let mut out = Vec::new();
    let Some((body_open, body_close)) = item.body else { return out };
    let hash_idents = collect_hash_idents(file, item);
    let mut j = body_open + 1;
    while j < body_close {
        // `for <pat> in <iterable> { body }` over a hash binding.
        if file.toks[j].kind == TokKind::Ident && file.tok_text(j) == "for" {
            if let Some((iter_from, brace)) = for_loop_parts(file, j, body_close) {
                let hashy = (iter_from..brace).any(|k| {
                    file.toks[k].kind == TokKind::Ident
                        && (hash_idents.contains(file.tok_text(k))
                            || HASH_TYPES.contains(&file.tok_text(k)))
                });
                if hashy {
                    out.push(HashIterSite {
                        line: file.tok_line(j),
                        tok: j,
                        desc: "a hash-ordered collection".to_string(),
                        extent: (brace + 1, file.delims[brace]),
                    });
                    j = brace + 1;
                    continue;
                }
            }
        }
        // `<hash binding> . <iter method> (` chains.
        if file.toks[j].kind == TokKind::Ident
            && hash_idents.contains(file.tok_text(j))
            && (j == 0 || file.tok_text(j - 1) != ".")
            && j + 2 < body_close
            && file.tok_text(j + 1) == "."
            && file.toks[j + 2].kind == TokKind::Ident
            && ITER_METHODS.contains(&file.tok_text(j + 2))
        {
            let start = stmt_start(file, depths, j);
            let end = stmt_end(file, depths, j);
            out.push(HashIterSite {
                line: file.tok_line(j),
                tok: j,
                desc: format!("hash-ordered `{}`", file.tok_text(j)),
                extent: (start, end + 1),
            });
        }
        j += 1;
    }
    out
}

/// Bindings with `HashMap`/`HashSet` evidence inside one fn: parameters
/// whose type names a hash collection, and `let` bindings whose type
/// annotation or initializer does.
fn collect_hash_idents(file: &SourceFile, item: &Item) -> HashSet<String> {
    let mut out = HashSet::new();
    // Parameters.
    if let Some(sig) = fn_signature(item, &file.code, &file.toks, &file.delims) {
        let (open, close) = sig.params;
        let mut seg_start = open + 1;
        let mut angle = 0i32;
        let mut k = open + 1;
        while k <= close {
            let at_end = k == close;
            let top_comma = !at_end
                && angle <= 0
                && file.toks[k].kind == TokKind::Punct
                && file.tok_text(k) == ",";
            if at_end || top_comma {
                record_hash_param(file, seg_start..k, &mut out);
                seg_start = k + 1;
                k += 1;
                continue;
            }
            match file.toks[k].kind {
                TokKind::Open => {
                    let c = file.delims[k];
                    k = if c > k { c + 1 } else { k + 1 };
                    continue;
                }
                _ => match file.tok_text(k) {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    ">>" => angle -= 2,
                    _ => {}
                },
            }
            k += 1;
        }
    }
    // Let bindings in the body.
    let Some((body_open, body_close)) = item.body else { return out };
    let mut j = body_open + 1;
    while j < body_close {
        if file.toks[j].kind == TokKind::Ident && file.tok_text(j) == "let" {
            let mut p = j + 1;
            if p < body_close && file.tok_text(p) == "mut" {
                p += 1;
            }
            if p < body_close && file.toks[p].kind == TokKind::Ident {
                let name = file.tok_text(p);
                // Scan annotation and initializer up to the `;`.
                let mut hash = false;
                let mut q = p + 1;
                while q < body_close {
                    match file.toks[q].kind {
                        TokKind::Ident if HASH_TYPES.contains(&file.tok_text(q)) => hash = true,
                        TokKind::Punct if file.tok_text(q) == ";" => break,
                        TokKind::Open if file.tok_text(q) == "{" => {
                            // Initializer blocks: scan inside too (they are
                            // part of the binding), then continue after.
                            q += 1;
                            continue;
                        }
                        _ => {}
                    }
                    q += 1;
                }
                if hash {
                    out.insert(name.to_string());
                }
                j = p;
            }
        }
        j += 1;
    }
    out
}

fn record_hash_param(
    file: &SourceFile,
    seg: std::ops::Range<usize>,
    out: &mut HashSet<String>,
) {
    // `name: Type` — name is the ident right before the first `:`.
    let Some(colon) = seg.clone().find(|&k| {
        file.toks[k].kind == TokKind::Punct && file.tok_text(k) == ":"
    }) else {
        return;
    };
    if colon == seg.start || file.toks[colon - 1].kind != TokKind::Ident {
        return;
    }
    let name = file.tok_text(colon - 1);
    let hashy = (colon + 1..seg.end).any(|k| {
        file.toks[k].kind == TokKind::Ident && HASH_TYPES.contains(&file.tok_text(k))
    });
    if hashy && name != "self" {
        out.insert(name.to_string());
    }
}

/// For a `for` keyword at `f`, find `(start of iterable, body brace)`:
/// the token after the top-level `in` and the first `{` after it.
fn for_loop_parts(file: &SourceFile, f: usize, limit: usize) -> Option<(usize, usize)> {
    let mut j = f + 1;
    let mut in_pos = None;
    while j < limit {
        match file.toks[j].kind {
            TokKind::Open if file.tok_text(j) == "{" => {
                let from = in_pos?;
                return if file.delims[j] > j { Some((from, j)) } else { None };
            }
            TokKind::Open => {
                let c = file.delims[j];
                j = if c > j { c + 1 } else { j + 1 };
                continue;
            }
            TokKind::Ident if file.tok_text(j) == "in" && in_pos.is_none() => {
                in_pos = Some(j + 1);
            }
            TokKind::Close => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Scan a token extent for an order-sensitive sink; returns a description.
fn find_order_sink(
    file: &SourceFile,
    depths: &[u32],
    extent: (usize, usize),
    index: &SymbolIndex,
) -> Option<String> {
    let (start, end) = extent;
    for j in start..end.min(file.toks.len()) {
        if file.toks[j].kind != TokKind::Ident {
            continue;
        }
        let name = file.tok_text(j);
        let next = if j + 1 < end { file.tok_text(j + 1) } else { "" };
        let prev_dot = j > 0 && file.tok_text(j - 1) == ".";
        match name {
            "push" | "push_str" | "extend" if prev_dot && next == "(" => {
                return Some(format!("`.{name}(...)` (order-sensitive accumulation)"));
            }
            "format" | "write" | "writeln" if next == "!" => {
                return Some(format!("`{name}!` string building"));
            }
            "collect" if prev_dot => {
                // Only a collect whose own statement names Vec/String is
                // order-sensitive (collecting into another map is not).
                let s = stmt_start(file, depths, j);
                let e = stmt_end(file, depths, j);
                let ordered = (s..=e).any(|k| {
                    file.toks[k].kind == TokKind::Ident
                        && matches!(file.tok_text(k), "Vec" | "VecDeque" | "String")
                });
                if ordered {
                    return Some("`.collect()` into an ordered container".to_string());
                }
            }
            _ if next == "(" && index.json_reaching.contains(name) => {
                return Some(format!(
                    "`{name}(...)`, which reaches the `obscor_obs::json` codec"
                ));
            }
            _ => {}
        }
    }
    None
}

/// Rule `allow-justification`: every `audit:allow(<rule>)` marker must
/// carry a non-empty trailing justification — a bare marker defeats the
/// point of per-site suppression. This meta-rule cannot itself be
/// suppressed with an allow marker.
pub fn rule_allow_justification(file: &SourceFile) -> Vec<Diagnostic> {
    const RULE: &str = "allow-justification";
    let mut out = Vec::new();
    for site in &file.allow_sites {
        if site.justified || file.is_test_line(site.line) {
            continue;
        }
        out.push(diag(
            RULE,
            file,
            site.line,
            format!(
                "audit:allow({}) marker without a justification; append \
                 `— <why this site is sound>` after the closing paren",
                site.rule
            ),
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Interprocedural rules (call-graph driven)
// ---------------------------------------------------------------------------

/// Rule `nondet-reach`: a nondeterminism source — `HashMap`/`HashSet`
/// iteration, a wall-clock read, or a thread-identity read — inside a
/// function that *transitively* reaches the `obscor_obs::json` codec or
/// the hypersparse archive codec (any call depth, per [`Analyses`]).
/// Nondeterminism that can leak into serialized artifacts breaks the
/// paper's byte-identical reproducibility claims; the finding names the
/// full call chain to the sink. Function-granular by design: the source
/// need not demonstrably flow into the sink call (that over-approximation
/// is documented in DESIGN.md §14). The caller passes `crate_name`;
/// wall-clock sources are skipped for `obs`, which owns the sanctioned
/// clock.
pub fn rule_nondet_reach(
    file: &SourceFile,
    file_id: usize,
    an: &Analyses,
    crate_name: &str,
) -> Vec<Diagnostic> {
    const RULE: &str = "nondet-reach";
    let depths = brace_depths(file);
    let mut out = Vec::new();
    for (iid, item) in file.items.iter().enumerate() {
        if !matches!(item.kind, ItemKind::Fn) || item.is_test {
            continue;
        }
        let Some((body_open, body_close)) = item.body else { continue };
        let Some(node) = an.graph.node_of(file_id, iid) else { continue };
        let reaches_json = an.json_reach().reaches(node);
        let reaches_archive = an.archive_reach().reaches(node);
        if !reaches_json && !reaches_archive {
            continue;
        }
        let (sink, chain) = if reaches_json {
            ("the `obscor_obs::json` codec", an.graph.chain_names(an.json_reach(), node))
        } else {
            ("the hypersparse archive codec", an.graph.chain_names(an.archive_reach(), node))
        };
        // Collect sources in body order: hash iterations, wall-clock
        // reads, thread-identity reads. Tokens owned by nested fns are
        // that node's problem, not this one's.
        let mut sources: Vec<(usize, usize, String)> = Vec::new(); // (tok, line, what)
        for site in hash_iteration_sites(file, item, &depths) {
            sources.push((site.tok, site.line, format!("iteration over {}", site.desc)));
        }
        for i in body_open + 1..body_close {
            if file.toks[i].kind != TokKind::Ident {
                continue;
            }
            let name = file.tok_text(i);
            let what = match name {
                "Instant" | "SystemTime"
                    if crate_name != "obs"
                        && i + 2 < body_close
                        && file.tok_text(i + 1) == "::"
                        && file.tok_text(i + 2) == "now" =>
                {
                    format!("`{name}::now()` wall-clock read")
                }
                "current_thread_index"
                    if i + 1 < body_close && file.tok_text(i + 1) == "(" =>
                {
                    "`current_thread_index()` thread-identity read".to_string()
                }
                "thread"
                    if i + 2 < body_close
                        && file.tok_text(i + 1) == "::"
                        && file.tok_text(i + 2) == "current" =>
                {
                    "`thread::current()` thread-identity read".to_string()
                }
                _ => continue,
            };
            sources.push((i, file.tok_line(i), what));
        }
        sources.sort_by_key(|&(tok, _, _)| tok);
        let mut emitted: HashSet<usize> = HashSet::new();
        for (tok, line, what) in sources {
            if an.graph.fn_at(file_id, tok) != Some(node) {
                continue; // owned by a nested fn
            }
            if line_exempt(file, RULE, line) || !emitted.insert(line) {
                continue;
            }
            out.push(diag(
                RULE,
                file,
                line,
                format!(
                    "nondeterministic {what} in `{}`, which reaches {sink} \
                     ({chain}); make the source deterministic/ordered or \
                     annotate with audit:allow({RULE})",
                    item.name
                ),
            ));
        }
    }
    out
}

/// Rule `blocking-in-par`: a blocking operation — `.lock()`, RwLock
/// `.read()`/`.write()`, channel `.recv()`/`.recv_timeout()`, or
/// `.join()` — inside a rayon parallel extent (the statement tail of a
/// `par_iter`-family source, or the argument list of `rayon::scope` /
/// `rayon::join`), either directly or transitively through a call to a
/// function whose closure reaches a blocking operation. Blocking a
/// work-stealing worker can starve or deadlock the pool. Findings on
/// transitive sites name the full call chain and the terminal operation.
pub fn rule_blocking_in_par(file: &SourceFile, file_id: usize, an: &Analyses) -> Vec<Diagnostic> {
    const RULE: &str = "blocking-in-par";
    let depths = brace_depths(file);
    let mut out = Vec::new();
    let mut emitted: HashSet<usize> = HashSet::new();
    for i in 0..file.toks.len() {
        if file.toks[i].kind != TokKind::Ident {
            continue;
        }
        let txt = file.tok_text(i);
        // A parallel extent: `(start, end_inclusive, opener)`.
        let extent = if PAR_SOURCES.contains(&txt) && i > 0 && file.tok_text(i - 1) == "." {
            Some((i + 1, stmt_end(file, &depths, i), txt))
        } else if matches!(txt, "scope" | "join")
            && i >= 2
            && file.tok_text(i - 1) == "::"
            && file.tok_text(i - 2) == "rayon"
            && i + 1 < file.toks.len()
            && file.tok_text(i + 1) == "("
            && file.delims[i + 1] > i + 1
        {
            Some((i + 2, file.delims[i + 1].saturating_sub(1), txt))
        } else {
            None
        };
        let Some((start, end, opener)) = extent else { continue };
        let par_line = file.tok_line(i);
        for j in start..=end.min(file.toks.len().saturating_sub(1)) {
            if file.toks[j].kind != TokKind::Ident {
                continue;
            }
            let line = file.tok_line(j);
            if line_exempt(file, RULE, line) || emitted.contains(&line) {
                continue;
            }
            if let Some(what) = crate::index::blocking_at(file, j) {
                emitted.insert(line);
                out.push(diag(
                    RULE,
                    file,
                    line,
                    format!(
                        "{what} inside the rayon parallel extent opened by \
                         `{opener}` (line {par_line}); blocking a work-stealing \
                         worker risks starvation or deadlock — hoist it out of \
                         the parallel closure or annotate with audit:allow({RULE})"
                    ),
                ));
                continue;
            }
            // A call to a function that transitively blocks. The owning
            // node's recorded call sites carry the qualifier, so the
            // resolution rules (no non-self method receivers, typed
            // `Type::` paths) apply here too.
            {
                let Some(caller) = an.graph.fn_at(file_id, j) else { continue };
                let Some(c) =
                    an.graph.nodes[caller].calls.iter().find(|c| c.tok == j)
                else {
                    continue;
                };
                let callee = c.callee.as_str();
                let hit = an
                    .graph
                    .resolve_call(caller, c)
                    .into_iter()
                    .find(|&t| !an.graph.nodes[t].is_test && an.blocking_reach().reaches(t));
                let Some(t) = hit else { continue };
                emitted.insert(line);
                let chain = an.graph.chain_names(an.blocking_reach(), t);
                let term_node = an.blocking_reach().chain(t).last().copied().unwrap_or(t);
                let term = an.blocking_terminal(term_node);
                out.push(diag(
                    RULE,
                    file,
                    line,
                    format!(
                        "call to `{callee}` inside the rayon parallel extent \
                         opened by `{opener}` (line {par_line}) blocks \
                         transitively: {chain} ({term}); hoist the blocking \
                         operation out of the parallel closure or annotate with \
                         audit:allow({RULE})"
                    ),
                ));
            }
        }
    }
    out
}

/// Rule `panic-in-drop`: a panic-path site — direct or reachable through
/// the call graph — inside a `Drop::drop` body. A panic that starts
/// while another panic unwinds aborts the process, so destructors must
/// be infallible. Transitive findings name the full call chain and the
/// terminal panic site.
pub fn rule_panic_in_drop(
    file: &SourceFile,
    file_id: usize,
    an: &Analyses,
) -> Vec<Diagnostic> {
    const RULE: &str = "panic-in-drop";
    let mut out = Vec::new();
    for (iid, item) in file.items.iter().enumerate() {
        if !matches!(item.kind, ItemKind::Fn) || item.is_test || item.name != "drop" {
            continue;
        }
        let Some(p) = item.parent else { continue };
        let ItemKind::Impl { ref type_name, ref trait_name, .. } = file.items[p].kind else {
            continue;
        };
        if trait_name != "Drop" {
            continue;
        }
        let Some(node) = an.graph.node_of(file_id, iid) else { continue };
        let n = &an.graph.nodes[node];
        let mut emitted: HashSet<usize> = HashSet::new();
        for site in &n.panics {
            if line_exempt(file, RULE, site.line) || !emitted.insert(site.line) {
                continue;
            }
            out.push(diag(
                RULE,
                file,
                site.line,
                format!(
                    "{} in `Drop for {type_name}`; a panic during unwind aborts \
                     the process — make drop infallible or annotate with \
                     audit:allow({RULE})",
                    site.what
                ),
            ));
        }
        for c in &n.calls {
            if line_exempt(file, RULE, c.line) || emitted.contains(&c.line) {
                continue;
            }
            let hit = an
                .graph
                .resolve_call(node, c)
                .into_iter()
                .find(|&t| !an.graph.nodes[t].is_test && an.panic_reach().reaches(t));
            let Some(t) = hit else { continue };
            emitted.insert(c.line);
            let chain = an.graph.chain_names(an.panic_reach(), t);
            let term_node = an.panic_reach().chain(t).last().copied().unwrap_or(t);
            let term = an.panic_terminal(term_node);
            out.push(diag(
                RULE,
                file,
                c.line,
                format!(
                    "`Drop for {type_name}` calls `{}`, which can panic: {chain} \
                     ({term}); a panic during unwind aborts the process — make \
                     drop infallible or annotate with audit:allow({RULE})",
                    c.callee
                ),
            ));
        }
    }
    out
}

/// Rule `lock-order`, run once over the whole workspace: fold every
/// function's ordered lock-acquisition sequence (named static/field
/// locks only) into a lock graph — edge `A → B` when `B` is acquired
/// (directly or through a call) while `A` is still held, i.e. within the
/// brace scope that contains `A`'s acquisition — and flag every cycle as
/// a deadlock candidate. One diagnostic per cycle, anchored at the
/// witness site of its first edge.
pub fn rule_lock_order(files: &[&SourceFile], an: &Analyses) -> Vec<Diagnostic> {
    const RULE: &str = "lock-order";
    struct EdgeInfo {
        file: usize,
        line: usize,
        desc: String,
    }
    let mut edges: std::collections::BTreeMap<(String, String), EdgeInfo> =
        std::collections::BTreeMap::new();
    for (nid, node) in an.graph.nodes.iter().enumerate() {
        if node.is_test || node.locks.is_empty() {
            continue;
        }
        let file = files[node.file];
        let body_close =
            file.items[node.item].body.map(|(_, c)| c).unwrap_or(file.toks.len());
        for (k, held) in node.locks.iter().enumerate() {
            // The guard lives (at most) to the end of the brace scope
            // containing its acquisition; later acquisitions and calls
            // inside that scope happen while it may still be held.
            let close = scope_close(file, held.tok, body_close);
            for later in node.locks.iter().skip(k + 1) {
                if later.tok >= close || later.lock == held.lock {
                    continue;
                }
                edges.entry((held.lock.clone(), later.lock.clone())).or_insert_with(|| {
                    EdgeInfo {
                        file: node.file,
                        line: later.line,
                        desc: format!(
                            "`{}` then `{}` in `{}`",
                            held.lock, later.lock, node.name
                        ),
                    }
                });
            }
            for c in &node.calls {
                if c.tok <= held.tok || c.tok >= close {
                    continue;
                }
                let targets = an.graph.resolve_call(nid, c);
                if targets.is_empty() {
                    continue;
                }
                for (lname, reach) in an.lock_reach() {
                    if *lname == held.lock {
                        continue;
                    }
                    let hit = targets
                        .iter()
                        .copied()
                        .find(|&t| !an.graph.nodes[t].is_test && reach.reaches(t));
                    let Some(t) = hit else { continue };
                    edges.entry((held.lock.clone(), lname.clone())).or_insert_with(|| {
                        EdgeInfo {
                            file: node.file,
                            line: c.line,
                            desc: format!(
                                "`{}` held in `{}` while {} acquires `{}`",
                                held.lock,
                                node.name,
                                an.graph.chain_names(reach, t),
                                lname
                            ),
                        }
                    });
                }
            }
        }
    }

    // Fold edges into a graph over lock names and report each cycle
    // (strongly connected component with >= 2 locks) once.
    let mut names: Vec<&String> = Vec::new();
    for (a, b) in edges.keys() {
        names.push(a);
        names.push(b);
    }
    names.sort();
    names.dedup();
    let idx_of = |n: &String| names.binary_search(&n).expect("name interned above");
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
    for (a, b) in edges.keys() {
        adj[idx_of(a)].push(idx_of(b));
    }
    let mut out = Vec::new();
    for comp in sccs(&adj) {
        if comp.len() < 2 {
            continue;
        }
        let cycle = shortest_cycle(&adj, &comp);
        let hops: Vec<String> =
            cycle.iter().map(|&n| format!("`{}`", names[n])).collect();
        let mut parts = Vec::new();
        for w in cycle.windows(2) {
            let key = (names[w[0]].clone(), names[w[1]].clone());
            if let Some(info) = edges.get(&key) {
                parts.push(format!(
                    "{} ({}:{})",
                    info.desc, files[info.file].rel, info.line
                ));
            }
        }
        let anchor_key = (names[cycle[0]].clone(), names[cycle[1]].clone());
        let anchor = edges.get(&anchor_key).expect("cycle edges exist");
        let anchor_file = files[anchor.file];
        if line_exempt(anchor_file, RULE, anchor.line) {
            continue;
        }
        out.push(diag(
            RULE,
            anchor_file,
            anchor.line,
            format!(
                "lock-order cycle {} — {}; acquire these locks in one global \
                 order everywhere or annotate with audit:allow({RULE})",
                hops.join(" → "),
                parts.join("; ")
            ),
        ));
    }
    out
}

/// End of the innermost brace scope containing `tok`: the matching `}`
/// of the nearest preceding `{` that spans past `tok`; `fallback` when
/// no such brace exists.
fn scope_close(file: &SourceFile, tok: usize, fallback: usize) -> usize {
    let mut j = tok;
    while j > 0 {
        j -= 1;
        if file.toks[j].kind == TokKind::Open && file.tok_text(j) == "{" {
            let c = file.delims[j];
            if c > tok {
                return c;
            }
        }
    }
    fallback
}

/// Strongly connected components of a small digraph (iterative Kosaraju);
/// each component's node list is sorted.
fn sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut radj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, vs) in adj.iter().enumerate() {
        for &v in vs {
            radj[v].push(u);
        }
    }
    // Pass 1: finishing order on the forward graph.
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for s in 0..n {
        if seen[s] {
            continue;
        }
        let mut stack = vec![(s, 0usize)];
        seen[s] = true;
        while let Some(&mut (u, ref mut k)) = stack.last_mut() {
            if *k < adj[u].len() {
                let v = adj[u][*k];
                *k += 1;
                if !seen[v] {
                    seen[v] = true;
                    stack.push((v, 0));
                }
            } else {
                order.push(u);
                stack.pop();
            }
        }
    }
    // Pass 2: components on the reverse graph, in reverse finish order.
    let mut comp = vec![usize::MAX; n];
    let mut out: Vec<Vec<usize>> = Vec::new();
    for &s in order.iter().rev() {
        if comp[s] != usize::MAX {
            continue;
        }
        let c = out.len();
        let mut members = vec![s];
        comp[s] = c;
        let mut stack = vec![s];
        while let Some(u) = stack.pop() {
            for &v in &radj[u] {
                if comp[v] == usize::MAX {
                    comp[v] = c;
                    members.push(v);
                    stack.push(v);
                }
            }
        }
        members.sort_unstable();
        out.push(members);
    }
    out
}

/// A shortest cycle through the smallest node of a strongly connected
/// component, as `[s, ..., s]` (first element repeated at the end).
/// Deterministic: BFS over sorted adjacency restricted to the component.
fn shortest_cycle(adj: &[Vec<usize>], comp: &[usize]) -> Vec<usize> {
    let s = comp[0];
    let in_comp = |v: usize| comp.binary_search(&v).is_ok();
    let mut parent = vec![usize::MAX; adj.len()];
    let mut queue = std::collections::VecDeque::from([s]);
    let mut seen = vec![false; adj.len()];
    seen[s] = true;
    while let Some(u) = queue.pop_front() {
        let mut next: Vec<usize> = adj[u].iter().copied().filter(|&v| in_comp(v)).collect();
        next.sort_unstable();
        for v in next {
            if v == s {
                // Close the cycle: s ... u -> s.
                let mut path = vec![s];
                let mut cur = u;
                let mut tail = Vec::new();
                while cur != usize::MAX && cur != s {
                    tail.push(cur);
                    cur = parent[cur];
                }
                tail.reverse();
                path.extend(tail);
                path.push(s);
                return path;
            }
            if !seen[v] {
                seen[v] = true;
                parent[v] = u;
                queue.push_back(v);
            }
        }
    }
    vec![s, s] // unreachable for a true SCC; degenerate self-loop form
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::build_index;
    use std::path::PathBuf;

    fn prep(src: &str) -> SourceFile {
        SourceFile::from_source(PathBuf::from("mem.rs"), "mem.rs".into(), src.to_string())
    }

    #[test]
    fn index_cast_flags_wide_sources_only() {
        let f = prep("let a = (x as u64 * 3) as u32;\nlet b = small_u8 as u32;\nlet c = v.len() as u32;\n");
        let d = rule_index_cast(&f);
        assert_eq!(d.iter().map(|d| d.line).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn index_cast_allow_marker() {
        let f = prep("// audit:allow(index-cast) — bounded by construction\nlet a = v.len() as u32;\n");
        assert!(rule_index_cast(&f).is_empty());
    }

    #[test]
    fn panic_path_flags_lib_not_tests() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   #[cfg(test)]\nmod tests { fn t() { None::<u8>.unwrap(); } }\n";
        let f = prep(src);
        let d = rule_panic_path(&f);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn panic_macros_are_whole_tokens() {
        let f = prep("my_panic!(x);\nlog_unreachable!(y);\n");
        assert!(rule_panic_path(&f).is_empty());
        let g = prep("panic!(\"boom\");\n");
        assert_eq!(rule_panic_path(&g).len(), 1);
    }

    #[test]
    fn float_eq_needs_float_evidence() {
        let f = prep("if a == b { }\nif x == 0.0 { }\nif (y as f64) != z { }\nif i <= 3.0 { }\n");
        let d = rule_float_eq(&f);
        assert_eq!(d.iter().map(|d| d.line).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn float_eq_ignores_tuple_indices() {
        // `x.0.1` is a tuple-index chain, not a float literal — the lexer
        // classifies those digits as Int, so no float evidence arises.
        let f = prep("if pair.0.1 == other.0 { }\n");
        assert!(rule_float_eq(&f).is_empty());
    }

    #[test]
    fn instant_timing_flags_wall_clock_calls() {
        let src = "let t0 = Instant::now();\n\
                   let wall = std::time::SystemTime::now();\n\
                   let fine = MyInstant::now();\n\
                   // audit:allow(instant-timing) — sanctioned example\n\
                   let ok = Instant::now();\n\
                   #[cfg(test)]\nmod tests { fn t() { let _ = Instant::now(); } }\n";
        let f = prep(src);
        let d = rule_instant_timing(&f);
        assert_eq!(d.iter().map(|d| d.line).collect::<Vec<_>>(), vec![1, 2]);
        assert!(d[0].message.contains("obscor_obs::span"));
    }

    #[test]
    fn key_pack_flags_adhoc_packing_only() {
        let src = "let k = (row as u64) << 32 | col as u64;\n\
                   let ok = u64::from(row) << 32 | u64::from(col);\n\
                   let wide = x as u64 * 2;\n\
                   let big = y as u64 << 320;\n\
                   // audit:allow(key-pack) — fixture\n\
                   let a = (r as u64) << 32;\n\
                   #[cfg(test)]\nmod tests { fn t() { let _ = (1u32 as u64) << 32; } }\n";
        let f = prep(src);
        let d = rule_key_pack(&f);
        assert_eq!(d.iter().map(|d| d.line).collect::<Vec<_>>(), vec![1]);
        assert!(d[0].message.contains("keypack::pack_key"));
    }

    #[test]
    fn word_bit_manip_flags_lane_splits_and_masked_popcounts() {
        let src = "words[(key >> 6) as usize] |= 1u64 << (key & 63);\n\
                   let hex = table[(k >> 6) as usize] & 0x3F;\n\
                   let pop = (a & b).count_ones();\n\
                   let shift_alone = key >> 6;\n\
                   let mask_alone = key & 63;\n\
                   let plain_pop = leaves.count_ones();\n\
                   let ref_pop = count(&x, w.count_ones());\n\
                   // audit:allow(word-bit-manip) — fixture\n\
                   let allowed = (a & b).count_ones();\n\
                   #[cfg(test)]\nmod tests { fn t() { let _ = (a & b).count_ones(); } }\n";
        let f = prep(src);
        let d = rule_word_bit_manip(&f);
        assert_eq!(d.iter().map(|d| d.line).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(d[0].message.contains("assoc::bitset"));
    }

    #[test]
    fn word_bit_manip_exempts_the_bitset_module() {
        let f = SourceFile::from_source(
            PathBuf::from("container.rs"),
            "crates/assoc/src/bitset/container.rs".into(),
            "let w = (a & b).count_ones();\nlet i = (key >> 6) & 63;\n".to_string(),
        );
        assert!(rule_word_bit_manip(&f).is_empty());
    }

    #[test]
    fn int_literal_values_parse_across_radices() {
        for (text, want) in [
            ("63", Some(63)),
            ("63u64", Some(63)),
            ("0x3f", Some(63)),
            ("0x3F", Some(63)),
            ("0b11_1111", Some(63)),
            ("0o77usize", Some(63)),
            ("6", Some(6)),
            ("64", Some(64)),
            ("0x", None),
        ] {
            assert_eq!(int_literal_value(text), want, "{text}");
        }
    }

    #[test]
    fn key_pack_exempts_the_keypack_helper() {
        let f = SourceFile::from_source(
            PathBuf::from("keypack.rs"),
            "crates/hypersparse/src/keypack.rs".into(),
            "let k = (row as u64) << 32 | u64::from(col);\n".to_string(),
        );
        assert!(rule_key_pack(&f).is_empty());
    }

    #[test]
    fn constructors_are_found() {
        let src = "impl<V: Value> Csr<V> {\n\
                       pub fn new(n: usize) -> Self { todo() }\n\
                       pub fn rows(&self) -> usize { 0 }\n\
                       pub(crate) fn internal() -> Self { todo() }\n\
                       pub fn from_coo(c: Coo<V>) -> Csr<V> { todo() }\n\
                   }\n";
        let f = prep(src);
        let ctors = find_constructors(&f);
        let names: Vec<_> = ctors.iter().map(|c| c.fn_name.as_str()).collect();
        assert_eq!(names, vec!["new", "from_coo"]);
        assert!(ctors.iter().all(|c| c.type_name == "Csr"));
    }

    #[test]
    fn invariant_coverage_logic() {
        let lib = prep(
            "impl Csr {\n\
                 pub fn new() -> Self { x }\n\
                 pub fn check_invariants(&self) -> Result<(), String> { Ok(()) }\n\
             }\n\
             impl Naked {\n\
                 pub fn make() -> Self { y }\n\
             }\n",
        );
        let corpus_ok = "let c = Csr::new(); c.check_invariants();";
        let d = rule_invariant_coverage(std::slice::from_ref(&lib), corpus_ok);
        // Csr::new covered; Naked::make lacks check_invariants entirely.
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("Naked"));

        let d2 = rule_invariant_coverage(std::slice::from_ref(&lib), "");
        assert_eq!(d2.len(), 2);
    }

    #[test]
    fn atomic_ordering_requires_notes() {
        let src = "fn f(c: &AtomicU64) {\n\
                   c.store(1, Ordering::SeqCst);\n\
                   // ordering: monotonic counter, no reader depends on it\n\
                   c.fetch_add(1, Ordering::Relaxed);\n\
                   // ordering: publishes the buffer; happens-before the consumer load\n\
                   c.store(2, Ordering::Release);\n\
                   // ordering: pairs with the store above\n\
                   let _ = c.load(Ordering::Acquire);\n\
                   // audit:allow(atomic-ordering) — exercised by the gate test\n\
                   c.store(3, Ordering::SeqCst);\n\
                   }\n";
        let f = prep(src);
        let d = rule_atomic_ordering(&f);
        assert_eq!(d.iter().map(|d| d.line).collect::<Vec<_>>(), vec![2, 8]);
        assert!(d[0].message.contains("without an `// ordering:`"));
        assert!(d[1].message.contains("happens-before"), "{}", d[1].message);
    }

    #[test]
    fn atomic_ordering_ignores_cmp_ordering() {
        let f = prep("fn f() { let x = Ordering::Less; match y.cmp(&z) { Ordering::Equal => {} _ => {} } }\n");
        assert!(rule_atomic_ordering(&f).is_empty());
    }

    #[test]
    fn shared_static_flags_every_global_outside_obs() {
        let src = "static HITS: AtomicU64 = AtomicU64::new(0);\n\
                   static METRICS_ENABLED: AtomicBool = AtomicBool::new(false);\n\
                   static TABLE: [u8; 4] = [0, 1, 2, 3];\n\
                   fn f() { static LOCAL: OnceLock<usize> = OnceLock::new(); }\n\
                   // audit:allow(shared-static-mut) — lazily computed constant\n\
                   static OK: Mutex<u32> = Mutex::new(0);\n\
                   static mut RAW: u32 = 0;\n\
                   #[cfg(test)]\nmod tests { static T: AtomicU32 = AtomicU32::new(0); }\n";
        let f = prep(src);
        let d = rule_shared_static_mut(&f);
        assert_eq!(d.iter().map(|d| d.line).collect::<Vec<_>>(), vec![1, 2, 4, 7]);
        assert!(d[0].message.contains("AtomicU64"));
        assert!(d[1].message.contains("AtomicBool"));
        assert!(d[3].message.contains("static mut"));
    }

    #[test]
    fn nonassoc_reduce_flags_float_par_terminals() {
        let src = "fn f(xs: &[f64]) -> f64 {\n\
                   xs.par_iter().map(|x| x * 2.0).sum()\n\
                   }\n";
        let f = prep(src);
        let d = rule_nonassoc_reduce(&f);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
        assert!(d[0].message.contains("par_iter"));
    }

    #[test]
    fn nonassoc_reduce_ignores_sums_inside_par_closures() {
        // The f64 `.sum()` is sequential, inside a braced closure one brace
        // level below the par_iter chain — per-item work, not a parallel
        // reduction (this is the zipf.rs likelihood-scan shape).
        let src = "fn scan(ts: &[f64], ranks: &[f64]) -> f64 {\n\
                   ts.par_iter()\n\
                       .map(|t| {\n\
                           let ll: f64 = ranks.iter().map(|r| r.ln() * t).sum();\n\
                           ll\n\
                       })\n\
                       .count() as f64\n\
                   }\n";
        let f = prep(src);
        assert!(rule_nonassoc_reduce(&f).is_empty());
    }

    #[test]
    fn nonassoc_reduce_ignores_integer_reductions() {
        let int = prep("fn f(xs: &[u64]) -> u64 { xs.par_iter().sum() }\n");
        assert!(rule_nonassoc_reduce(&int).is_empty());
    }

    #[test]
    fn map_iter_order_flags_push_and_passes_btree() {
        let src = "fn f(m: &HashMap<u32, u64>) -> Vec<u32> {\n\
                   let mut v = Vec::new();\n\
                   for (k, _) in m.iter() {\n\
                       v.push(*k);\n\
                   }\n\
                   v\n\
                   }\n\
                   fn g(m: &BTreeMap<u32, u64>) -> Vec<u32> {\n\
                   let mut v = Vec::new();\n\
                   for (k, _) in m.iter() {\n\
                       v.push(*k);\n\
                   }\n\
                   v\n\
                   }\n";
        let f = prep(src);
        let idx = build_index(&[&f]);
        let d = rule_map_iter_order(&f, &idx);
        assert_eq!(d.iter().map(|d| d.line).collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn map_iter_order_chain_collect_and_json_sink() {
        let src = "fn emit(v: u32) -> String { obscor_obs::json::escape(&v.to_string()) }\n\
                   fn f() {\n\
                   let m: HashMap<u32, u64> = HashMap::new();\n\
                   let v: Vec<u32> = m.keys().copied().collect();\n\
                   for k in m.keys() {\n\
                       emit(*k);\n\
                   }\n\
                   let total: u64 = m.values().sum();\n\
                   }\n";
        let f = prep(src);
        let idx = build_index(&[&f]);
        let d = rule_map_iter_order(&f, &idx);
        assert_eq!(d.iter().map(|d| d.line).collect::<Vec<_>>(), vec![4, 5]);
        assert!(d[0].message.contains("collect"), "{}", d[0].message);
        assert!(d[1].message.contains("json"), "{}", d[1].message);
    }

    #[test]
    fn map_iter_order_allow_and_test_exempt() {
        let src = "fn f(m: &HashSet<u32>) {\n\
                   // audit:allow(map-iter-order) — output is sorted below\n\
                   for k in m.iter() {\n\
                       out.push(*k);\n\
                   }\n\
                   }\n\
                   #[cfg(test)]\nmod tests {\n\
                   fn t(m: &HashMap<u32, u64>) { for k in m.keys() { v.push(*k); } }\n\
                   }\n";
        let f = prep(src);
        let idx = build_index(&[&f]);
        assert!(rule_map_iter_order(&f, &idx).is_empty());
    }

    fn prep_at(rel: &str, src: &str) -> SourceFile {
        SourceFile::from_source(PathBuf::from(rel), rel.into(), src.to_string())
    }

    fn analyses(files: &[&SourceFile]) -> Analyses {
        Analyses::new(crate::index::build_graph(files))
    }

    #[test]
    fn nondet_reach_crosses_many_hops() {
        let codec = prep_at(
            "crates/obs/src/json.rs",
            "pub fn escape(s: &str) -> String { s.into() }\n",
        );
        let mid = prep_at(
            "crates/a/src/mid.rs",
            "pub fn render(k: u32) -> String { escape(&k.to_string()) }\n\
             pub fn relay(k: u32) -> String { render(k) }\n",
        );
        let far = prep_at(
            "crates/b/src/far.rs",
            "pub fn dump(m: &HashMap<u32, u64>) -> String {\n\
                 let mut s = String::new();\n\
                 for k in m.keys() {\n\
                     s.push_str(&relay(*k));\n\
                 }\n\
                 s\n\
             }\n\
             pub fn local_only(m: &HashMap<u32, u64>) -> usize {\n\
                 let mut n = 0;\n\
                 for _k in m.keys() { n += 1; }\n\
                 n\n\
             }\n",
        );
        let an = analyses(&[&codec, &mid, &far]);
        let d = rule_nondet_reach(&far, 2, &an, "b");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
        assert!(d[0].message.contains("`dump` → `relay` → `render` → `escape`"), "{}", d[0].message);
        // The one-hop index misses `dump` (three hops out) — the whole
        // point of the full closure.
        let idx = build_index(&[&codec, &mid, &far]);
        assert!(!idx.json_reaching.contains("dump"));
    }

    #[test]
    fn nondet_reach_wall_clock_and_allow() {
        let f = prep_at(
            "crates/a/src/lib.rs",
            "pub fn stamp() -> String { let t = Instant::now(); obscor_obs::json::escape(\"x\") }\n\
             // audit:allow(nondet-reach) — seed for the allow test\n\
             pub fn ok() -> String { let t = Instant::now(); obscor_obs::json::escape(\"x\") }\n",
        );
        let an = analyses(&[&f]);
        let d = rule_nondet_reach(&f, 0, &an, "a");
        assert_eq!(d.iter().map(|d| d.line).collect::<Vec<_>>(), vec![1]);
        assert!(d[0].message.contains("wall-clock"), "{}", d[0].message);
        // The obs crate owns the clock: same shape, no finding.
        let in_obs = rule_nondet_reach(&f, 0, &an, "obs");
        assert!(in_obs.is_empty());
    }

    #[test]
    fn blocking_in_par_direct_and_transitive() {
        let f = prep_at(
            "crates/a/src/lib.rs",
            "pub fn helper(x: u32) -> u32 { let g = lk.lock(); x }\n\
             pub fn par_direct(v: &[u32]) -> Vec<u32> {\n\
                 v.par_iter().map(|x| { let g = m.lock(); *x }).collect()\n\
             }\n\
             pub fn par_transitive(v: &[u32]) -> Vec<u32> {\n\
                 v.par_iter().map(|x| helper(*x)).collect()\n\
             }\n\
             pub fn sequential(v: &[u32]) -> Vec<u32> {\n\
                 v.iter().map(|x| helper(*x)).collect()\n\
             }\n",
        );
        let an = analyses(&[&f]);
        let d = rule_blocking_in_par(&f, 0, &an);
        assert_eq!(d.iter().map(|d| d.line).collect::<Vec<_>>(), vec![3, 6]);
        assert!(d[0].message.contains("`.lock()` inside"), "{}", d[0].message);
        assert!(d[1].message.contains("`helper`"), "{}", d[1].message);
        assert!(d[1].message.contains("blocks transitively"), "{}", d[1].message);
    }

    #[test]
    fn blocking_in_par_rayon_scope_extent() {
        let f = prep_at(
            "crates/a/src/lib.rs",
            "pub fn scoped() {\n\
                 rayon::scope(|s| {\n\
                     let g = m.lock();\n\
                 });\n\
                 let after = m.lock();\n\
             }\n",
        );
        let an = analyses(&[&f]);
        let d = rule_blocking_in_par(&f, 0, &an);
        assert_eq!(d.iter().map(|d| d.line).collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn panic_in_drop_direct_and_transitive() {
        let f = prep_at(
            "crates/a/src/lib.rs",
            "pub fn flush(x: Option<u8>) -> u8 { x.unwrap() }\n\
             pub struct A;\n\
             impl Drop for A {\n\
                 fn drop(&mut self) { panic!(\"boom\"); }\n\
             }\n\
             pub struct B;\n\
             impl Drop for B {\n\
                 fn drop(&mut self) { flush(None); }\n\
             }\n\
             pub struct C;\n\
             impl Drop for C {\n\
                 fn drop(&mut self) { let _ = 1 + 1; }\n\
             }\n\
             pub fn not_a_drop() { panic!(\"fine elsewhere\") }\n",
        );
        let an = analyses(&[&f]);
        let d = rule_panic_in_drop(&f, 0, &an);
        assert_eq!(d.iter().map(|d| d.line).collect::<Vec<_>>(), vec![4, 8]);
        assert!(d[0].message.contains("`panic!` in `Drop for A`"), "{}", d[0].message);
        assert!(d[1].message.contains("`flush`"), "{}", d[1].message);
        assert!(d[1].message.contains("`unwrap()` at crates/a/src/lib.rs:1"), "{}", d[1].message);
    }

    #[test]
    fn lock_order_cycle_detection() {
        let f = prep_at(
            "crates/a/src/lib.rs",
            "pub fn ab(&self) {\n\
                 let a = self.alpha.lock();\n\
                 let b = self.beta.lock();\n\
             }\n\
             pub fn ba(&self) {\n\
                 let b = self.beta.lock();\n\
                 let a = self.alpha.lock();\n\
             }\n",
        );
        let an = analyses(&[&f]);
        let d = rule_lock_order(&[&f], &an);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("lock-order cycle"), "{}", d[0].message);
        assert!(d[0].message.contains("`alpha` → `beta` → `alpha`"), "{}", d[0].message);
    }

    #[test]
    fn lock_order_consistent_order_is_clean() {
        let f = prep_at(
            "crates/a/src/lib.rs",
            "pub fn ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n\
             pub fn also_ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n",
        );
        let an = analyses(&[&f]);
        assert!(rule_lock_order(&[&f], &an).is_empty());
    }

    #[test]
    fn lock_order_sequential_scopes_do_not_edge() {
        // Each guard dies at its block's end before the next acquisition:
        // no hold-while-acquiring, no edge, no cycle.
        let f = prep_at(
            "crates/a/src/lib.rs",
            "pub fn ab(&self) {\n\
                 { let a = self.alpha.lock(); }\n\
                 { let b = self.beta.lock(); }\n\
             }\n\
             pub fn ba(&self) {\n\
                 { let b = self.beta.lock(); }\n\
                 { let a = self.alpha.lock(); }\n\
             }\n",
        );
        let an = analyses(&[&f]);
        assert!(rule_lock_order(&[&f], &an).is_empty());
    }

    #[test]
    fn lock_order_interprocedural_cycle() {
        let f = prep_at(
            "crates/a/src/lib.rs",
            "pub fn take_beta(&self) { let b = self.beta.lock(); }\n\
             pub fn ab(&self) {\n\
                 let a = self.alpha.lock();\n\
                 self.take_beta();\n\
             }\n\
             pub fn ba(&self) {\n\
                 let b = self.beta.lock();\n\
                 let a = self.alpha.lock();\n\
             }\n",
        );
        let an = analyses(&[&f]);
        let d = rule_lock_order(&[&f], &an);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`take_beta`"), "{}", d[0].message);
    }

    #[test]
    fn allow_justification_requires_text() {
        let src = "// audit:allow(panic-path)\nx.unwrap();\n// audit:allow(float-eq) — exact golden comparison\nif a == 1.0 {}\n";
        let f = prep(src);
        let d = rule_allow_justification(&f);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 1);
        assert!(d[0].message.contains("panic-path"));
    }
}
