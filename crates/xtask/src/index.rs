//! Workspace call graph and reachability analyses for the audit engine.
//!
//! Builds one [`CallGraph`] over every scanned library file: a node per
//! `fn` item, a call-site list per node (every identifier directly
//! followed by `(` inside the body, macro names excluded because their
//! next token is `!`), and name-resolved edges. Resolution is
//! qualifier-aware but typeless ([`CallQual`]):
//!
//! * bare `name(...)` and module-qualified `module::name(...)` calls edge
//!   to *every* same-named definition (over-approximate);
//! * `Type::name(...)` and `Self::name(...)` calls edge only to `name`
//!   definitions inside an `impl Type` block — so `AtomicBool::new(...)`
//!   never edges to a workspace `new`;
//! * `self.name(...)` resolves within the caller's own impl type;
//! * `receiver.name(...)` with any other receiver contributes *no* edge:
//!   without types, dotted method names are dominated by std collisions
//!   (`.map`, `.iter`, `.join`), and a wrong edge on those poisons every
//!   reachability closure. Blocking/panic *operations* written directly
//!   in a body are still classified by token shape, so this trades a
//!   bounded blind spot (cross-object method calls) for usable precision;
//!   DESIGN.md §14 spells out the tradeoff.
//!
//! On top of the graph, [`Analyses`] memoizes reverse-BFS reachability
//! closures ([`Reach`]) to the sink sets the interprocedural rules need:
//! the `obscor_obs::json` codec, the hypersparse archive codec
//! (`serialize.rs`), blocking operations (`.lock()` / `.read()` /
//! `.write()` / `.recv()` / `.join()`), panic sites, and per-name lock
//! acquisitions. Each closure stores a next-hop table so rules can
//! report the *full call chain* from a finding to its sink.
//!
//! The one-hop [`SymbolIndex`] that `map-iter-order` consumes is derived
//! from the same graph ([`SymbolIndex::from_graph`]) and keeps its
//! historical semantics: codec functions plus their *direct* callers
//! only.

use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap, HashSet};

use crate::lex::TokKind;
use crate::parse::ItemKind;
use crate::scan::SourceFile;

/// One function definition site.
#[derive(Debug, Clone)]
pub struct DefSite {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
}

/// The cross-file symbol index (one-hop view of the call graph).
#[derive(Debug, Default)]
pub struct SymbolIndex {
    /// Function name -> definition sites across all scanned files.
    pub defs: HashMap<String, Vec<DefSite>>,
    /// Function names that reach the `obscor_obs::json` codec in at most
    /// one call hop: codec functions themselves (defined in
    /// `obs/src/json.rs` or referencing the `obscor_obs::json` /
    /// `json::<fn>` path) plus their direct callers.
    pub json_reaching: HashSet<String>,
}

impl SymbolIndex {
    /// Whether `name` is a known function definition.
    pub fn is_defined(&self, name: &str) -> bool {
        self.defs.contains_key(name)
    }

    /// Derive the one-hop index from a full call graph. Level 0 is the
    /// set of json-codec node *names*; level 1 adds every node with a
    /// direct edge to a codec node. Deeper callers are deliberately NOT
    /// included — `map-iter-order` keeps its original one-hop semantics
    /// (full-depth taint is `nondet-reach`'s job).
    pub fn from_graph(graph: &CallGraph) -> SymbolIndex {
        let mut defs: HashMap<String, Vec<DefSite>> = HashMap::new();
        let mut json_reaching = HashSet::new();
        for node in &graph.nodes {
            defs.entry(node.name.clone()).or_default().push(DefSite {
                file: node.file_rel.clone(),
                line: node.line,
            });
            if node.json_codec {
                json_reaching.insert(node.name.clone());
            }
        }
        for (n, node) in graph.nodes.iter().enumerate() {
            if graph.edges[n].iter().any(|&t| graph.nodes[t].json_codec) {
                json_reaching.insert(node.name.clone());
            }
        }
        SymbolIndex { defs, json_reaching }
    }
}

/// Build the one-hop index over every scanned library file.
pub fn build_index(files: &[&SourceFile]) -> SymbolIndex {
    SymbolIndex::from_graph(&build_graph(files))
}

// ---------------------------------------------------------------------------
// Call graph
// ---------------------------------------------------------------------------

/// How a call site is qualified at the call position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallQual {
    /// Bare `name(...)`.
    Free,
    /// `Qualifier::name(...)` — the identifier right before the `::`.
    Path(String),
    /// `self.name(...)`.
    SelfMethod,
    /// `receiver.name(...)` with a non-`self` receiver expression.
    Method,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee identifier as written (`helper`, `fetch_frame`, ...).
    pub callee: String,
    /// How the call is qualified (drives edge resolution).
    pub qual: CallQual,
    /// Token index of the callee identifier.
    pub tok: usize,
    /// 1-based line.
    pub line: usize,
}

/// A classified operation site (panic or blocking) inside a body.
#[derive(Debug, Clone)]
pub struct OpSite {
    /// Human-readable label, e.g. `` `.lock()` `` or `` `unwrap()` ``.
    pub what: &'static str,
    /// Token index of the operation's identifier.
    pub tok: usize,
    /// 1-based line.
    pub line: usize,
}

/// A named lock acquisition (`guard.lock()` / `.read()` / `.write()`).
#[derive(Debug, Clone)]
pub struct LockSite {
    /// The receiver identifier naming the lock (`counters` in
    /// `self.counters.lock()`); only named receivers are recorded.
    pub lock: String,
    /// The acquiring method (`lock`, `read`, or `write`).
    pub op: &'static str,
    /// Token index of the receiver identifier.
    pub tok: usize,
    /// 1-based line.
    pub line: usize,
}

/// One function node of the workspace call graph.
#[derive(Debug)]
pub struct FnNode {
    /// Function name.
    pub name: String,
    /// Index of the defining file in the scanned slice.
    pub file: usize,
    /// Index of the `fn` item in that file's item tree.
    pub item: usize,
    /// Workspace-relative path of the defining file.
    pub file_rel: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Type name of the enclosing `impl` block (`Registry` for a method
    /// of `impl Registry`); empty for free functions.
    pub impl_type: String,
    /// True for functions in `#[cfg(test)]` regions.
    pub is_test: bool,
    /// Every call site in the body, in token order.
    pub calls: Vec<CallSite>,
    /// Part of the `obscor_obs::json` codec (defined in `obs/src/json.rs`
    /// or referencing the codec path directly).
    pub json_codec: bool,
    /// Part of the hypersparse archive codec (`serialize.rs` or a
    /// qualified `serialize::` / `obscor_hypersparse::serialize` call).
    pub archive_codec: bool,
    /// Direct blocking operations in the body.
    pub blocking: Vec<OpSite>,
    /// Direct panic-path sites in the body.
    pub panics: Vec<OpSite>,
    /// Named lock acquisitions in the body, in token order.
    pub locks: Vec<LockSite>,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All function nodes, in (file, item) order.
    pub nodes: Vec<FnNode>,
    /// Function name -> node ids (a name can have many definitions).
    pub by_name: HashMap<String, Vec<usize>>,
    /// Resolved forward edges per node (sorted, deduped).
    pub edges: Vec<Vec<usize>>,
    /// Reverse edges per node (sorted, deduped).
    redges: Vec<Vec<usize>>,
    /// Per file: token index -> innermost enclosing fn node.
    owners: Vec<Vec<Option<usize>>>,
    /// (file, item index) -> node id.
    item_nodes: HashMap<(usize, usize), usize>,
}

/// Keywords that read as `ident (` but are never call sites.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "in", "as", "let", "else", "fn", "move",
    "ref", "mut", "dyn", "impl", "where", "use", "pub", "crate", "super", "mod", "const",
    "static", "struct", "enum", "union", "trait", "type", "break", "continue", "unsafe",
    "await", "yield", "self", "Self",
];

/// Build the call graph over every scanned library file. File order is
/// the caller's order; node ids are stable for a given input order.
pub fn build_graph(files: &[&SourceFile]) -> CallGraph {
    let mut g = CallGraph::default();

    // Pass 1: nodes + per-file owner maps (innermost fn per token).
    for (fid, file) in files.iter().enumerate() {
        let mut owner: Vec<Option<usize>> = vec![None; file.toks.len()];
        let in_json_codec = file.rel.ends_with("obs/src/json.rs");
        let in_archive_codec = file.rel.ends_with("hypersparse/src/serialize.rs");
        for (iid, item) in file.items.iter().enumerate() {
            if !matches!(item.kind, ItemKind::Fn) {
                continue;
            }
            let id = g.nodes.len();
            let body = item.body;
            if let Some((open, close)) = body {
                // Items are parsed parents-first, so later (nested) fns
                // overwrite their subrange: innermost wins.
                for slot in owner.iter_mut().take(close + 1).skip(open) {
                    *slot = Some(id);
                }
            }
            let json_codec = !item.is_test
                && (in_json_codec
                    || body.is_some_and(|(o, c)| body_touches_codec(file, o + 1..c)));
            let archive_codec = !item.is_test
                && (in_archive_codec
                    || body.is_some_and(|(o, c)| body_touches_archive(file, o + 1..c)));
            // Enclosing impl type, if any, via the parent chain.
            let mut impl_type = String::new();
            let mut up = item.parent;
            while let Some(p) = up {
                if let ItemKind::Impl { type_name, .. } = &file.items[p].kind {
                    impl_type = type_name.clone();
                    break;
                }
                up = file.items[p].parent;
            }
            g.nodes.push(FnNode {
                name: item.name.clone(),
                file: fid,
                item: iid,
                file_rel: file.rel.clone(),
                line: file.tok_line(item.kw_tok),
                impl_type,
                is_test: item.is_test,
                calls: Vec::new(),
                json_codec,
                archive_codec,
                blocking: Vec::new(),
                panics: Vec::new(),
                locks: Vec::new(),
            });
            g.item_nodes.insert((fid, iid), id);
            g.by_name.entry(item.name.clone()).or_default().push(id);
        }
        g.owners.push(owner);
    }

    // Pass 2: call sites and classified operation sites, attributed to
    // the innermost enclosing fn.
    for (fid, file) in files.iter().enumerate() {
        for i in 0..file.toks.len() {
            let Some(node) = g.owners[fid][i] else { continue };
            if file.toks[i].kind != TokKind::Ident {
                continue;
            }
            let line = file.tok_line(i);
            if let Some(what) = panic_at(file, i) {
                g.nodes[node].panics.push(OpSite { what, tok: i, line });
            }
            if let Some(what) = blocking_at(file, i) {
                g.nodes[node].blocking.push(OpSite { what, tok: i, line });
                if let Some((lock, op)) = lock_acquisition_at(file, i) {
                    g.nodes[node].locks.push(LockSite { lock, op, tok: i, line });
                }
            }
            if let Some(qual) = call_site_at(file, i) {
                g.nodes[node].calls.push(CallSite {
                    callee: file.tok_text(i).to_string(),
                    qual,
                    tok: i,
                    line,
                });
            }
        }
    }

    // Pass 3: resolve edges per call site (qualifier-aware).
    g.edges = vec![Vec::new(); g.nodes.len()];
    g.redges = vec![Vec::new(); g.nodes.len()];
    for n in 0..g.nodes.len() {
        let mut targets: Vec<usize> = g.nodes[n]
            .calls
            .iter()
            .flat_map(|c| g.resolve_call(n, c))
            .collect();
        targets.sort_unstable();
        targets.dedup();
        g.edges[n] = targets;
    }
    for n in 0..g.nodes.len() {
        for &t in &g.edges[n] {
            g.redges[t].push(n);
        }
    }
    g
}

/// Classify token `i` as a call site (identifier directly followed by
/// `(`, excluding definitions, keywords, and macro names), returning how
/// the call is qualified.
fn call_site_at(file: &SourceFile, i: usize) -> Option<CallQual> {
    if i + 1 >= file.toks.len()
        || file.toks[i + 1].kind != TokKind::Open
        || file.tok_text(i + 1) != "("
    {
        return None;
    }
    let name = file.tok_text(i);
    if CALL_KEYWORDS.contains(&name) {
        return None;
    }
    if i == 0 {
        return Some(CallQual::Free);
    }
    match file.tok_text(i - 1) {
        // `fn name(` is a definition, not a call.
        "fn" => None,
        "." => Some(if i >= 2 && file.tok_text(i - 2) == "self" {
            CallQual::SelfMethod
        } else {
            CallQual::Method
        }),
        "::" if i >= 2 && file.toks[i - 2].kind == TokKind::Ident => {
            Some(CallQual::Path(file.tok_text(i - 2).to_string()))
        }
        _ => Some(CallQual::Free),
    }
}

/// Panic-path site at token `i` (same shapes as the `panic-path` rule).
pub(crate) fn panic_at(file: &SourceFile, i: usize) -> Option<&'static str> {
    let name = file.tok_text(i);
    match name {
        "unwrap"
            if i > 0
                && file.tok_text(i - 1) == "."
                && i + 2 < file.toks.len()
                && file.tok_text(i + 1) == "("
                && file.delims[i + 1] == i + 2 =>
        {
            Some("`unwrap()`")
        }
        "expect"
            if i > 0
                && file.tok_text(i - 1) == "."
                && i + 1 < file.toks.len()
                && file.tok_text(i + 1) == "(" =>
        {
            Some("`expect(...)`")
        }
        "panic" | "unreachable" | "todo" | "unimplemented"
            if i + 1 < file.toks.len() && file.tok_text(i + 1) == "!" =>
        {
            Some(match name {
                "panic" => "`panic!`",
                "unreachable" => "`unreachable!`",
                "todo" => "`todo!`",
                _ => "`unimplemented!`",
            })
        }
        _ => None,
    }
}

/// Blocking operation at token `i`: an empty-argument `.lock()` /
/// `.read()` / `.write()` / `.recv()` / `.join()` method call, or
/// `.recv_timeout(...)`. The empty-argument requirement is what keeps
/// `io::Read::read(buf)`, `Path::join(seg)`, and `slice.join(sep)` out:
/// the blocking std/parking_lot signatures all take no arguments.
pub(crate) fn blocking_at(file: &SourceFile, i: usize) -> Option<&'static str> {
    if i == 0 || file.tok_text(i - 1) != "." {
        return None;
    }
    let name = file.tok_text(i);
    let empty_args = i + 2 < file.toks.len()
        && file.tok_text(i + 1) == "("
        && file.delims[i + 1] == i + 2;
    match name {
        "lock" if empty_args => Some("`.lock()`"),
        "read" if empty_args => Some("`.read()`"),
        "write" if empty_args => Some("`.write()`"),
        "recv" if empty_args => Some("`.recv()`"),
        "join" if empty_args => Some("`.join()`"),
        "recv_timeout" if i + 1 < file.toks.len() && file.tok_text(i + 1) == "(" => {
            Some("`.recv_timeout(...)`")
        }
        _ => None,
    }
}

/// Lock acquisition with a *named* receiver at token `i`: the identifier
/// right before the `.` names the lock (`counters` in
/// `self.counters.lock()`). Unnamed receivers (call or index results)
/// are skipped — the lock-order rule only folds named locks.
fn lock_acquisition_at(file: &SourceFile, i: usize) -> Option<(String, &'static str)> {
    let op = match file.tok_text(i) {
        "lock" => "lock",
        "read" => "read",
        "write" => "write",
        _ => return None,
    };
    if i < 2 || file.tok_text(i - 1) != "." {
        return None;
    }
    let recv = i - 2;
    if file.toks[recv].kind != TokKind::Ident {
        return None;
    }
    let name = file.tok_text(recv);
    if name == "self" {
        return None;
    }
    Some((name.to_string(), op))
}

/// Does the body reference the codec path — `obscor_obs :: json` or a
/// qualified `json :: <fn>` call?
fn body_touches_codec(file: &SourceFile, body: std::ops::Range<usize>) -> bool {
    body_touches_path(file, body, "obscor_obs", "json")
}

/// Does the body reference the archive codec path —
/// `obscor_hypersparse :: serialize` or a qualified `serialize :: <fn>`?
fn body_touches_archive(file: &SourceFile, body: std::ops::Range<usize>) -> bool {
    body_touches_path(file, body, "obscor_hypersparse", "serialize")
}

/// Shared shape of the two codec-path probes: `<crate> :: <module>`
/// anywhere, or `<module> :: <ident>`.
fn body_touches_path(
    file: &SourceFile,
    body: std::ops::Range<usize>,
    krate: &str,
    module: &str,
) -> bool {
    for i in body.clone() {
        if file.toks[i].kind != TokKind::Ident {
            continue;
        }
        let t = file.tok_text(i);
        if t == krate
            && i + 2 < body.end
            && file.tok_text(i + 1) == "::"
            && file.tok_text(i + 2) == module
        {
            return true;
        }
        if t == module
            && i + 2 < body.end
            && file.tok_text(i + 1) == "::"
            && file.toks[i + 2].kind == TokKind::Ident
        {
            return true;
        }
    }
    false
}

impl CallGraph {
    /// The node whose body contains token `tok` of file `file` (innermost
    /// enclosing fn), if any.
    pub fn fn_at(&self, file: usize, tok: usize) -> Option<usize> {
        self.owners.get(file).and_then(|o| o.get(tok).copied().flatten())
    }

    /// The node for item `item` of file `file`, if it is a `fn`.
    pub fn node_of(&self, file: usize, item: usize) -> Option<usize> {
        self.item_nodes.get(&(file, item)).copied()
    }

    /// Callers of node `n` (reverse edges).
    pub fn callers(&self, n: usize) -> &[usize] {
        &self.redges[n]
    }

    /// Resolve one call site of node `caller` to its candidate target
    /// nodes, per the qualifier rules in the module docs. Non-`self`
    /// method receivers resolve to nothing; `Type::`/`Self::`/`self.`
    /// calls resolve within the matching impl type only.
    pub fn resolve_call(&self, caller: usize, c: &CallSite) -> Vec<usize> {
        let Some(cands) = self.by_name.get(c.callee.as_str()) else {
            return Vec::new();
        };
        let caller_ty = &self.nodes[caller].impl_type;
        let within = |ty: &str| -> Vec<usize> {
            cands.iter().copied().filter(|&t| self.nodes[t].impl_type == ty).collect()
        };
        match &c.qual {
            CallQual::Method => Vec::new(),
            CallQual::Free => cands.clone(),
            CallQual::SelfMethod => within(caller_ty),
            CallQual::Path(q) if q == "Self" => within(caller_ty),
            CallQual::Path(q) => {
                if q.chars().next().is_some_and(|ch| ch.is_ascii_uppercase()) {
                    // A type-qualified call: only that type's methods —
                    // `AtomicBool::new(...)` must not edge to workspace
                    // `new`s. No workspace impl for the type → no edge.
                    within(q)
                } else {
                    // Module-qualified: modules are not tracked, keep the
                    // over-approximate all-same-named resolution.
                    cands.clone()
                }
            }
        }
    }

    /// Reverse-BFS reachability closure: every node that can reach one of
    /// `sinks` through forward call edges, with a next-hop table for
    /// chain reconstruction. Deterministic for a fixed node order (FIFO
    /// queue over sorted edges).
    pub fn reach_to(&self, sinks: &[usize]) -> Reach {
        let mut reaches = vec![false; self.nodes.len()];
        let mut next = vec![usize::MAX; self.nodes.len()];
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &s in sinks {
            if !reaches[s] {
                reaches[s] = true;
                queue.push_back(s);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &caller in &self.redges[n] {
                if !reaches[caller] {
                    reaches[caller] = true;
                    next[caller] = n;
                    queue.push_back(caller);
                }
            }
        }
        Reach { reaches, next }
    }

    /// Render the shortest known chain from `from` to the sink set of
    /// `reach` as `` `a` → `b` → `c` ``.
    pub fn chain_names(&self, reach: &Reach, from: usize) -> String {
        reach
            .chain(from)
            .iter()
            .map(|&n| format!("`{}`", self.nodes[n].name))
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

/// A reachability closure over the call graph: which nodes reach a sink
/// set, plus the next hop toward the nearest sink.
#[derive(Debug)]
pub struct Reach {
    reaches: Vec<bool>,
    next: Vec<usize>,
}

impl Reach {
    /// Does node `n` reach the sink set?
    pub fn reaches(&self, n: usize) -> bool {
        self.reaches[n]
    }

    /// The shortest known chain from `from` to a sink (inclusive on both
    /// ends). `from` itself when it is a sink.
    pub fn chain(&self, from: usize) -> Vec<usize> {
        let mut out = vec![from];
        let mut cur = from;
        while self.next[cur] != usize::MAX {
            cur = self.next[cur];
            out.push(cur);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Memoized analyses
// ---------------------------------------------------------------------------

/// Lazily-computed reachability closures over one call graph. Each
/// closure is computed at most once per audit run (the memoized
/// transitive closures the interprocedural rules share).
pub struct Analyses {
    /// The underlying call graph.
    pub graph: CallGraph,
    json: OnceCell<Reach>,
    archive: OnceCell<Reach>,
    blocking: OnceCell<Reach>,
    panicking: OnceCell<Reach>,
    lock_reach: OnceCell<BTreeMap<String, Reach>>,
}

impl Analyses {
    /// Wrap a built graph.
    pub fn new(graph: CallGraph) -> Self {
        Analyses {
            graph,
            json: OnceCell::new(),
            archive: OnceCell::new(),
            blocking: OnceCell::new(),
            panicking: OnceCell::new(),
            lock_reach: OnceCell::new(),
        }
    }

    fn sinks_where(&self, pred: impl Fn(&FnNode) -> bool) -> Vec<usize> {
        self.graph
            .nodes
            .iter()
            .enumerate()
            .filter(|&(_, n)| !n.is_test && pred(n))
            .map(|(i, _)| i)
            .collect()
    }

    /// Nodes reaching the `obscor_obs::json` codec (any depth).
    pub fn json_reach(&self) -> &Reach {
        self.json
            .get_or_init(|| self.graph.reach_to(&self.sinks_where(|n| n.json_codec)))
    }

    /// Nodes reaching the hypersparse archive codec (any depth).
    pub fn archive_reach(&self) -> &Reach {
        self.archive
            .get_or_init(|| self.graph.reach_to(&self.sinks_where(|n| n.archive_codec)))
    }

    /// Nodes reaching a direct blocking operation (any depth).
    pub fn blocking_reach(&self) -> &Reach {
        self.blocking
            .get_or_init(|| self.graph.reach_to(&self.sinks_where(|n| !n.blocking.is_empty())))
    }

    /// Nodes reaching a direct panic site (any depth).
    pub fn panic_reach(&self) -> &Reach {
        self.panicking
            .get_or_init(|| self.graph.reach_to(&self.sinks_where(|n| !n.panics.is_empty())))
    }

    /// Per lock name: the closure of nodes that (transitively) acquire
    /// it. Keys are every named lock seen in the workspace.
    pub fn lock_reach(&self) -> &BTreeMap<String, Reach> {
        self.lock_reach.get_or_init(|| {
            let mut names: Vec<String> = self
                .graph
                .nodes
                .iter()
                .filter(|n| !n.is_test)
                .flat_map(|n| n.locks.iter().map(|l| l.lock.clone()))
                .collect();
            names.sort();
            names.dedup();
            names
                .into_iter()
                .map(|name| {
                    let sinks = self
                        .sinks_where(|n| n.locks.iter().any(|l| l.lock == name));
                    let reach = self.graph.reach_to(&sinks);
                    (name, reach)
                })
                .collect()
        })
    }

    /// Describe the terminal blocking operation of `node` (the sink end
    /// of a blocking chain): `` `.lock()` at crates/obs/src/registry.rs:57 ``.
    pub fn blocking_terminal(&self, node: usize) -> String {
        let n = &self.graph.nodes[node];
        match n.blocking.first() {
            Some(op) => format!("{} at {}:{}", op.what, n.file_rel, op.line),
            None => format!("`{}`", n.name),
        }
    }

    /// Describe the terminal panic site of `node`.
    pub fn panic_terminal(&self, node: usize) -> String {
        let n = &self.graph.nodes[node];
        match n.panics.first() {
            Some(op) => format!("{} at {}:{}", op.what, n.file_rel, op.line),
            None => format!("`{}`", n.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn prep(rel: &str, src: &str) -> SourceFile {
        SourceFile::from_source(PathBuf::from(rel), rel.into(), src.to_string())
    }

    #[test]
    fn codec_file_fns_are_level_zero() {
        let codec = prep(
            "crates/obs/src/json.rs",
            "pub fn escape(s: &str) -> String { s.into() }\n",
        );
        let idx = build_index(&[&codec]);
        assert!(idx.json_reaching.contains("escape"));
        assert!(idx.is_defined("escape"));
    }

    #[test]
    fn one_hop_taint_crosses_files() {
        let codec = prep(
            "crates/obs/src/json.rs",
            "pub fn escape(s: &str) -> String { s.into() }\n",
        );
        let helper = prep(
            "crates/a/src/emit.rs",
            "pub fn row_line(k: u32) -> String { escape(&k.to_string()) }\n",
        );
        let far = prep(
            "crates/b/src/far.rs",
            "pub fn two_hops(k: u32) -> String { row_line(k) }\n",
        );
        let idx = build_index(&[&codec, &helper, &far]);
        assert!(idx.json_reaching.contains("escape"), "level 0");
        assert!(idx.json_reaching.contains("row_line"), "one hop");
        assert!(!idx.json_reaching.contains("two_hops"), "taint is one hop only");
    }

    #[test]
    fn qualified_codec_path_taints_directly() {
        let user = prep(
            "crates/a/src/dump.rs",
            "pub fn dump(v: u64) -> String { obscor_obs::json::escape(&v.to_string()) }\npub fn via_mod(v: u64) -> String { json::escape(&v.to_string()) }\npub fn unrelated(v: u64) -> u64 { v + 1 }\n",
        );
        let idx = build_index(&[&user]);
        assert!(idx.json_reaching.contains("dump"));
        assert!(idx.json_reaching.contains("via_mod"));
        assert!(!idx.json_reaching.contains("unrelated"));
    }

    #[test]
    fn full_graph_reaches_any_depth() {
        let codec = prep(
            "crates/obs/src/json.rs",
            "pub fn escape(s: &str) -> String { s.into() }\n",
        );
        let helper = prep(
            "crates/a/src/emit.rs",
            "pub fn row_line(k: u32) -> String { escape(&k.to_string()) }\n",
        );
        let far = prep(
            "crates/b/src/far.rs",
            "pub fn two_hops(k: u32) -> String { row_line(k) }\npub fn three_hops(k: u32) -> String { two_hops(k) }\npub fn unrelated() {}\n",
        );
        let an = Analyses::new(build_graph(&[&codec, &helper, &far]));
        let g = &an.graph;
        let r = an.json_reach();
        let id = |name: &str| g.by_name[name][0];
        assert!(r.reaches(id("escape")));
        assert!(r.reaches(id("row_line")));
        assert!(r.reaches(id("two_hops")), "full closure crosses two hops");
        assert!(r.reaches(id("three_hops")), "and three");
        assert!(!r.reaches(id("unrelated")));
        let chain = g.chain_names(r, id("three_hops"));
        assert_eq!(chain, "`three_hops` → `two_hops` → `row_line` → `escape`");
    }

    #[test]
    fn archive_codec_is_a_second_sink() {
        let codec = prep(
            "crates/hypersparse/src/serialize.rs",
            "pub fn encode(v: &[u8]) -> Vec<u8> { v.to_vec() }\n",
        );
        let user = prep(
            "crates/a/src/lib.rs",
            "pub fn archive(v: &[u8]) -> Vec<u8> { encode(v) }\npub fn qualified(v: &[u8]) -> Vec<u8> { obscor_hypersparse::serialize::encode(v) }\n",
        );
        let an = Analyses::new(build_graph(&[&codec, &user]));
        let g = &an.graph;
        let r = an.archive_reach();
        assert!(r.reaches(g.by_name["encode"][0]));
        assert!(r.reaches(g.by_name["archive"][0]));
        assert!(r.reaches(g.by_name["qualified"][0]), "qualified path is level 0");
        assert!(!an.json_reach().reaches(g.by_name["archive"][0]));
    }

    #[test]
    fn blocking_and_panic_sites_are_classified() {
        let f = prep(
            "crates/a/src/lib.rs",
            "pub fn takes() { m.lock(); }\n\
             pub fn reads(buf: &mut [u8]) { r.read(buf); p.join(\"x\"); }\n\
             pub fn recvs() { let _ = rx.recv(); }\n\
             pub fn boom(x: Option<u8>) -> u8 { x.unwrap() }\n\
             pub fn caller() { takes(); }\n",
        );
        let an = Analyses::new(build_graph(&[&f]));
        let g = &an.graph;
        let id = |name: &str| g.by_name[name][0];
        assert_eq!(g.nodes[id("takes")].blocking.len(), 1);
        assert!(
            g.nodes[id("reads")].blocking.is_empty(),
            "args present: io read / path join are not blocking ops"
        );
        assert_eq!(g.nodes[id("recvs")].blocking.len(), 1);
        assert_eq!(g.nodes[id("boom")].panics.len(), 1);
        assert!(an.blocking_reach().reaches(id("caller")));
        assert!(an.panic_reach().reaches(id("boom")));
        assert!(!an.panic_reach().reaches(id("takes")));
    }

    #[test]
    fn named_locks_are_recorded_per_fn() {
        let f = prep(
            "crates/a/src/lib.rs",
            "pub fn ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n\
             pub fn unnamed(v: &[Mutex<u8>]) { let g = v[0].lock(); }\n",
        );
        let an = Analyses::new(build_graph(&[&f]));
        let g = &an.graph;
        let ab = &g.nodes[g.by_name["ab"][0]];
        let names: Vec<&str> = ab.locks.iter().map(|l| l.lock.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta"]);
        assert!(g.nodes[g.by_name["unnamed"][0]].locks.is_empty());
        assert!(an.lock_reach().contains_key("alpha"));
        assert!(an.lock_reach()["beta"].reaches(g.by_name["ab"][0]));
    }

    #[test]
    fn owner_map_attributes_nested_fns_to_the_innermost() {
        let f = prep(
            "crates/a/src/lib.rs",
            "pub fn outer() {\n    fn inner(x: Option<u8>) -> u8 { x.unwrap() }\n    inner(None);\n}\n",
        );
        let g = build_graph(&[&f]);
        let outer = g.by_name["outer"][0];
        let inner = g.by_name["inner"][0];
        assert!(g.nodes[outer].panics.is_empty(), "unwrap belongs to inner");
        assert_eq!(g.nodes[inner].panics.len(), 1);
        assert!(g.edges[outer].contains(&inner));
    }

    #[test]
    fn macros_and_keywords_are_not_call_sites() {
        let f = prep(
            "crates/a/src/lib.rs",
            "pub fn f(x: u32) -> String { if (x > 0) { format!(\"{x}\") } else { String::new() } }\n",
        );
        let g = build_graph(&[&f]);
        let calls: Vec<&str> =
            g.nodes[g.by_name["f"][0]].calls.iter().map(|c| c.callee.as_str()).collect();
        assert!(!calls.contains(&"if"), "keywords excluded");
        assert!(!calls.contains(&"format"), "macro names excluded");
        assert!(calls.contains(&"new"));
    }

    #[test]
    fn recursion_terminates_and_reaches() {
        let f = prep(
            "crates/a/src/lib.rs",
            "pub fn a(n: u32) { if n > 0 { b(n - 1) } }\npub fn b(n: u32) { a(n); x.lock(); }\n",
        );
        let an = Analyses::new(build_graph(&[&f]));
        let g = &an.graph;
        assert!(an.blocking_reach().reaches(g.by_name["a"][0]));
        assert!(an.blocking_reach().reaches(g.by_name["b"][0]));
    }

    #[test]
    fn typed_paths_resolve_within_their_impl() {
        let f = prep(
            "crates/a/src/lib.rs",
            "pub struct A;\n\
             impl A { pub fn new() -> A { m.lock(); A } }\n\
             pub struct B;\n\
             impl B { pub fn new() -> B { B } }\n\
             pub fn makes_a() -> A { A::new() }\n\
             pub fn makes_b() -> B { B::new() }\n\
             pub fn makes_std() -> AtomicBool { AtomicBool::new(false) }\n",
        );
        let an = Analyses::new(build_graph(&[&f]));
        let g = &an.graph;
        let id = |name: &str| g.by_name[name][0];
        assert!(an.blocking_reach().reaches(id("makes_a")));
        assert!(!an.blocking_reach().reaches(id("makes_b")), "B::new does not lock");
        assert!(
            g.edges[id("makes_std")].is_empty(),
            "AtomicBool has no workspace impl: no edge at all"
        );
    }

    #[test]
    fn dotted_method_receivers_contribute_no_edges() {
        let f = prep(
            "crates/a/src/lib.rs",
            "pub fn map(x: u32) -> u32 { m.lock(); x }\n\
             pub fn adapter(v: &[u32]) -> Vec<u32> { v.iter().map(|x| x + 1).collect() }\n\
             pub fn direct(x: u32) -> u32 { map(x) }\n",
        );
        let an = Analyses::new(build_graph(&[&f]));
        let g = &an.graph;
        let id = |name: &str| g.by_name[name][0];
        assert!(
            !an.blocking_reach().reaches(id("adapter")),
            ".map adapter must not resolve to the workspace fn `map`"
        );
        assert!(an.blocking_reach().reaches(id("direct")), "free call still resolves");
    }

    #[test]
    fn self_and_self_type_calls_resolve_in_their_own_impl() {
        let f = prep(
            "crates/a/src/lib.rs",
            "pub struct R;\n\
             impl R {\n\
                 fn helper(&self) { m.lock(); }\n\
                 pub fn calls_self(&self) { self.helper(); }\n\
                 pub fn calls_self_ty() -> R { Self::fresh() }\n\
                 fn fresh() -> R { R }\n\
             }\n\
             pub struct Other;\n\
             impl Other { pub fn helper(&self) {} }\n",
        );
        let an = Analyses::new(build_graph(&[&f]));
        let g = &an.graph;
        let calls_self = g.by_name["calls_self"][0];
        assert!(an.blocking_reach().reaches(calls_self));
        let helpers = &g.by_name["helper"];
        let r_helper =
            *helpers.iter().find(|&&t| g.nodes[t].impl_type == "R").expect("R::helper");
        assert_eq!(g.edges[calls_self], vec![r_helper], "only R's helper, not Other's");
        let calls_self_ty = g.by_name["calls_self_ty"][0];
        assert_eq!(g.edges[calls_self_ty], vec![g.by_name["fresh"][0]]);
    }

    #[test]
    fn test_fns_never_seed_sinks() {
        let f = prep(
            "crates/a/src/lib.rs",
            "pub fn lib_fn() { helper(); }\n\
             fn helper() {}\n\
             #[cfg(test)]\nmod tests {\n    fn helper() { m.lock(); }\n}\n",
        );
        let an = Analyses::new(build_graph(&[&f]));
        let g = &an.graph;
        // Name resolution still edges to the test helper, but it is not a
        // sink, so the lib fn does not become blocking-tainted.
        assert!(!an.blocking_reach().reaches(g.by_name["lib_fn"][0]));
    }
}
