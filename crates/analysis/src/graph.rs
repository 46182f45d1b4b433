//! Workspace call-graph construction over the extracted [`facts`].
//!
//! Resolution is best-effort and *conservative*: a call that could target
//! several workspace functions gets an edge to every candidate, so the
//! interprocedural rules over-approximate reachability rather than miss
//! paths. The precedence ladder:
//!
//! 1. **Path calls** (`a::b::f(…)`, `Type::method(…)`) resolve by symbol
//!    suffix match at segment boundaries.
//! 2. **Free calls** resolve to same-file definitions first, then
//!    same-crate, then workspace-wide name matches.
//! 3. **Method calls** resolve by name to workspace methods — except the
//!    [`UBIQUITOUS_METHODS`] (std trait vocabulary like `clone`, `len`,
//!    `get`) whose name match would connect everything to everything;
//!    those are classified external.
//!
//! Every call lands in exactly one bucket: `resolved` (≥1 workspace
//! edge), `external` (confidently not ours: std path roots, uppercase
//! constructors, ubiquitous methods, or a method name defined nowhere in
//! the workspace), or `unresolved` — a call that *looks* local (a
//! `dcdiff_*`/`crate::`/local-type path, or a lowercase free call) but
//! matched nothing. Unresolved calls are reported, counted, and gated in
//! CI via the unresolved-rate threshold so graph coverage cannot silently
//! regress.
//!
//! [`facts`]: crate::facts

use std::collections::{BTreeMap, HashSet};

use crate::facts::{CallKind, CallSite, WorkspaceFacts};

/// Method names so common in std/trait vocabulary that name-matching them
/// against workspace definitions would wire unrelated subsystems
/// together. Calls to these are classified external and never produce
/// edges (their allocation/blocking/panic behaviour is captured by the
/// dedicated fact extractors instead).
pub const UBIQUITOUS_METHODS: &[&str] = &[
    "clone", "to_string", "to_owned", "to_vec", "into", "from", "as_ref", "as_mut", "as_str",
    "as_slice", "as_bytes", "unwrap", "expect", "unwrap_or", "unwrap_or_else",
    "unwrap_or_default", "map", "map_err", "and_then", "or_else", "ok", "err", "ok_or",
    "ok_or_else", "iter", "iter_mut", "into_iter", "next", "len", "is_empty", "push", "pop",
    "insert", "remove", "contains", "contains_key", "get", "get_mut", "first", "last", "fmt",
    "eq", "ne", "cmp", "partial_cmp", "hash", "default", "min", "max", "clamp", "abs", "write",
    "read", "flush", "extend", "resize", "clear", "take", "replace", "send", "new", "add", "sub",
    "offset", "load", "store",
];

/// Free functions imported from std so routinely (`use std::panic::
/// catch_unwind`, `use std::sync::mpsc::channel`, …) that a bare call is
/// almost never a workspace function. Workspace definitions still win:
/// this list is only consulted after name matching finds no candidate.
const KNOWN_STD_FREE: &[&str] = &[
    "catch_unwind", "black_box", "channel", "sync_channel", "swap", "take", "replace", "drop",
    "size_of", "size_of_val", "align_of", "spawn", "sleep", "yield_now", "available_parallelism",
    "from_fn", "once", "repeat", "empty", "var", "args", "exit", "abort", "copy", "read_dir",
    "read_to_string", "write", "remove_file", "create_dir_all", "set_hook", "take_hook",
];

/// Path roots that are definitely not workspace modules.
const EXTERNAL_ROOTS: &[&str] = &[
    "std", "core", "alloc", "Vec", "String", "Box", "Option", "Result", "Some", "None", "Ok",
    "Err", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque", "Arc", "Rc", "Mutex",
    "RwLock", "Condvar", "Instant", "Duration", "Ordering", "PathBuf", "Path", "OsStr",
    "OsString", "Iterator", "IntoIterator", "Default", "Clone", "Copy", "Drop", "From", "Into",
    "TryFrom", "TryInto", "AsRef", "AsMut", "Display", "Debug", "Deref", "DerefMut", "f32",
    "f64", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128",
    "isize", "char", "str", "bool", "mem", "ptr", "slice", "iter", "cmp", "fmt", "env",
    "process", "thread", "time", "sync", "atomic", "io", "fs", "net", "panic", "hint", "array",
];

/// How one call was classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// ≥1 workspace callee.
    Resolved,
    /// Confidently external (std, constructor, ubiquitous method).
    External,
    /// Looks local but matched nothing — a coverage gap.
    Unresolved,
}

/// One resolved edge: caller's call-site index and the callee function.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Index into the caller's `calls` vector.
    pub call: usize,
    /// Callee function index in [`WorkspaceFacts::functions`].
    pub callee: usize,
}

/// Aggregate resolution statistics, serialised into the lint report.
#[derive(Debug, Default, Clone)]
pub struct GraphStats {
    /// Functions with extracted facts.
    pub functions: usize,
    /// Total call sites considered.
    pub calls: usize,
    /// Calls with ≥1 workspace edge.
    pub resolved: usize,
    /// Calls classified confidently external.
    pub external: usize,
    /// Local-looking calls that matched nothing.
    pub unresolved: usize,
    /// Functions annotated `// analysis: hot`.
    pub hot_functions: usize,
    /// The most frequent unresolved call names, for `--graph` triage.
    pub unresolved_names: Vec<(String, usize)>,
}

impl GraphStats {
    /// Unresolved calls as a fraction of all calls (0 when there are no
    /// calls at all).
    pub fn unresolved_rate(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.unresolved as f64 / self.calls as f64
        }
    }
}

/// The workspace call graph: per-function resolved edges plus the
/// classification ledger.
pub struct CallGraph {
    /// Outgoing edges per function (indexed like
    /// [`WorkspaceFacts::functions`]).
    pub edges: Vec<Vec<Edge>>,
    /// Unresolved calls: (caller index, rendered name, line).
    pub unresolved: Vec<(usize, String, u32)>,
    /// Aggregate statistics.
    pub stats: GraphStats,
}

impl CallGraph {
    /// Build the graph from extracted facts.
    pub fn build(facts: &WorkspaceFacts) -> CallGraph {
        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); facts.functions.len()];
        let mut unresolved: Vec<(usize, String, u32)> = Vec::new();
        let mut stats = GraphStats {
            functions: facts.functions.len(),
            hot_functions: facts.functions.iter().filter(|f| f.hot).count(),
            ..GraphStats::default()
        };
        for (fi, f) in facts.functions.iter().enumerate() {
            for (ci, call) in f.calls.iter().enumerate() {
                stats.calls += 1;
                let (resolution, targets) = resolve(facts, fi, call);
                match resolution {
                    Resolution::Resolved => {
                        stats.resolved += 1;
                        for t in targets {
                            edges[fi].push(Edge { call: ci, callee: t });
                        }
                    }
                    Resolution::External => stats.external += 1,
                    Resolution::Unresolved => {
                        stats.unresolved += 1;
                        unresolved.push((fi, render_name(call), call.line));
                    }
                }
            }
        }
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for (_, name, _) in &unresolved {
            *counts.entry(name.clone()).or_default() += 1;
        }
        let mut names: Vec<(String, usize)> = counts.into_iter().collect();
        names.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        names.truncate(20);
        stats.unresolved_names = names;
        CallGraph {
            edges,
            unresolved,
            stats,
        }
    }

    /// Transitive closure helper: every function reachable from `start`
    /// (inclusive), optionally skipping guarded call sites.
    pub fn reachable(
        &self,
        facts: &WorkspaceFacts,
        start: usize,
        skip_guarded: bool,
    ) -> HashSet<usize> {
        let mut seen: HashSet<usize> = HashSet::new();
        let mut stack = vec![start];
        while let Some(fi) = stack.pop() {
            if !seen.insert(fi) {
                continue;
            }
            for e in &self.edges[fi] {
                if skip_guarded && facts.functions[fi].calls[e.call].guarded {
                    continue;
                }
                if !seen.contains(&e.callee) {
                    stack.push(e.callee);
                }
            }
        }
        seen
    }
}

/// Render a call the way a human would grep for it.
pub fn render_name(call: &CallSite) -> String {
    match call.kind {
        CallKind::Method => format!(".{}()", call.name),
        CallKind::Free => format!("{}()", call.name),
        CallKind::Path => format!("{}()", call.path.join("::")),
    }
}

/// Classify one call and produce its workspace targets.
fn resolve(facts: &WorkspaceFacts, caller: usize, call: &CallSite) -> (Resolution, Vec<usize>) {
    match call.kind {
        CallKind::Path => resolve_path(facts, call),
        CallKind::Free => resolve_free(facts, caller, call),
        CallKind::Method => resolve_method(facts, call),
    }
}

fn resolve_path(facts: &WorkspaceFacts, call: &CallSite) -> (Resolution, Vec<usize>) {
    // Suffix-match the meaningful tail: strip leading `crate`/`self`/
    // `super` qualifiers, which name *our* modules by construction.
    let segs: Vec<&str> = call
        .path
        .iter()
        .map(String::as_str)
        .skip_while(|s| matches!(*s, "crate" | "self" | "super"))
        .collect();
    if segs.is_empty() {
        return (Resolution::External, Vec::new());
    }
    let root = segs[0];
    // A known-external root decides *before* suffix matching: otherwise
    // `std::array::from_fn` falls through its 3- and 2-segment suffixes
    // and the bare `from_fn` tail name-matches some workspace method.
    if EXTERNAL_ROOTS.contains(&root) {
        return (Resolution::External, Vec::new());
    }
    // Longest-suffix match first: `jpeg::decode` should prefer the exact
    // module over any bare `decode`. A qualified path (≥ 2 segments) must
    // match at least its last TWO segments — falling back to the bare
    // final name would wire e.g. `OnceLock::new()` to every workspace
    // constructor named `new`.
    let min_take = segs.len().min(2);
    for take in (min_take..=segs.len().min(3)).rev() {
        let suffix = segs[segs.len() - take..].join("::");
        let hits = facts.by_suffix(&suffix);
        if !hits.is_empty() {
            return (Resolution::Resolved, hits);
        }
    }
    let last = segs[segs.len() - 1];
    // `Type::Variant(…)` / `Some(…)`-style constructors.
    if last.chars().next().is_some_and(char::is_uppercase) {
        return (Resolution::External, Vec::new());
    }
    // Crate-root re-exports: `dcdiff_core::project_dc()` names a function
    // whose true module path has a segment in between (`pub use`). Match
    // the bare name within the named crate.
    if root.starts_with("dcdiff") {
        if let Some(candidates) = facts.by_name.get(last) {
            let in_crate: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&i| crate_of(&facts.functions[i].symbol) == root)
                .collect();
            if !in_crate.is_empty() {
                return (Resolution::Resolved, in_crate);
            }
        }
    }
    // `Type::default()` / `Type::clone()` on a local type with no written
    // impl is a derive-generated method — external, not a coverage gap.
    if UBIQUITOUS_METHODS.contains(&last) {
        return (Resolution::External, Vec::new());
    }
    // A path rooted in a workspace crate or a locally-defined type that
    // still matched nothing is a genuine coverage gap.
    if root.starts_with("dcdiff") || facts.local_types.contains_key(root) {
        return (Resolution::Unresolved, Vec::new());
    }
    // Unknown root, e.g. a std type not in the list: assume external but
    // only when it looks like a type (uppercase); otherwise report it.
    if root.chars().next().is_some_and(char::is_uppercase) {
        (Resolution::External, Vec::new())
    } else {
        (Resolution::Unresolved, Vec::new())
    }
}

fn resolve_free(facts: &WorkspaceFacts, caller: usize, call: &CallSite) -> (Resolution, Vec<usize>) {
    // `Some(…)`, `Ok(…)`, tuple-struct constructors.
    if call.name.chars().next().is_some_and(char::is_uppercase) {
        return (Resolution::External, Vec::new());
    }
    // SIMD intrinsics (`_mm256_fmadd_ps` & co.) and other `_`-prefixed
    // imports are never workspace functions.
    if call.name.starts_with('_') {
        return (Resolution::External, Vec::new());
    }
    // A call to a name this file binds as a closure (`let f = |…| …`) is
    // local control flow: the closure body's facts are already attributed
    // to the enclosing function, so the call itself carries no edge.
    if facts
        .closures
        .get(&facts.functions[caller].file)
        .is_some_and(|set| set.contains(&call.name))
    {
        return (Resolution::External, Vec::new());
    }
    let Some(candidates) = facts.by_name.get(&call.name) else {
        // A lowercase bare call defined nowhere: an imported std free
        // function, a closure/callback variable, or an indexing gap.
        // Closures are common enough that flagging every one would drown
        // the signal, but they are also almost always short names bound
        // with `let f = |…|`; report only the ones that look like real
        // functions (≥ 4 chars) to keep the metric meaningful.
        if KNOWN_STD_FREE.contains(&call.name.as_str()) {
            return (Resolution::External, Vec::new());
        }
        return if call.name.len() >= 4 {
            (Resolution::Unresolved, Vec::new())
        } else {
            (Resolution::External, Vec::new())
        };
    };
    let caller_file = &facts.functions[caller].file;
    let caller_crate = crate_of(&facts.functions[caller].symbol);
    let same_file: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&i| &facts.functions[i].file == caller_file)
        .collect();
    if !same_file.is_empty() {
        return (Resolution::Resolved, same_file);
    }
    let same_crate: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&i| crate_of(&facts.functions[i].symbol) == caller_crate)
        .collect();
    if !same_crate.is_empty() {
        return (Resolution::Resolved, same_crate);
    }
    (Resolution::Resolved, candidates.clone())
}

fn resolve_method(facts: &WorkspaceFacts, call: &CallSite) -> (Resolution, Vec<usize>) {
    if UBIQUITOUS_METHODS.contains(&call.name.as_str()) {
        return (Resolution::External, Vec::new());
    }
    let candidates: Vec<usize> = facts
        .by_name
        .get(&call.name)
        .map(|v| {
            v.iter()
                .copied()
                .filter(|&i| facts.functions[i].is_method)
                .collect()
        })
        .unwrap_or_default();
    if candidates.is_empty() {
        // A method name defined nowhere in the workspace is a std/trait
        // method we do not model (e.g. `.as_micros()`).
        return (Resolution::External, Vec::new());
    }
    (Resolution::Resolved, candidates)
}

/// `dcdiff_jpeg::huffman::decode` → `dcdiff_jpeg`.
fn crate_of(symbol: &str) -> &str {
    symbol.split("::").next().unwrap_or(symbol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::FileModel;

    fn ws(files: &[(&str, &str)]) -> WorkspaceFacts {
        let mut out = WorkspaceFacts::default();
        for (rel, src) in files {
            let model = FileModel::build(src);
            out.add_file(rel, src, &model);
        }
        out
    }

    fn idx(facts: &WorkspaceFacts, name: &str) -> usize {
        facts.by_name[name][0]
    }

    #[test]
    fn free_calls_prefer_same_file_then_same_crate() {
        let facts = ws(&[
            (
                "crates/a/src/lib.rs",
                "fn caller() { helper(); }\nfn helper() {}\n",
            ),
            ("crates/b/src/lib.rs", "fn helper() {}\n"),
        ]);
        let g = CallGraph::build(&facts);
        let caller = idx(&facts, "caller");
        assert_eq!(g.edges[caller].len(), 1);
        assert_eq!(
            facts.functions[g.edges[caller][0].callee].symbol,
            "dcdiff_a::helper"
        );
    }

    #[test]
    fn path_calls_resolve_by_suffix_and_std_paths_are_external() {
        let facts = ws(&[
            (
                "crates/a/src/lib.rs",
                "fn caller() { dcdiff_b::work::run(); std::mem::swap(a, b); }\n",
            ),
            ("crates/b/src/work.rs", "pub fn run() {}\n"),
        ]);
        let g = CallGraph::build(&facts);
        let caller = idx(&facts, "caller");
        assert_eq!(g.edges[caller].len(), 1);
        assert_eq!(g.stats.resolved, 1);
        assert_eq!(g.stats.external, 1);
        assert_eq!(g.stats.unresolved, 0);
    }

    #[test]
    fn method_calls_match_workspace_methods_but_not_ubiquitous_names() {
        let facts = ws(&[
            (
                "crates/a/src/lib.rs",
                "fn caller(q: &Q) { q.submit_watched(s); v.clone(); }\n",
            ),
            (
                "crates/b/src/rt.rs",
                "impl Runtime {\n    pub fn submit_watched(&self) {}\n}\n",
            ),
        ]);
        let g = CallGraph::build(&facts);
        let caller = idx(&facts, "caller");
        assert_eq!(g.edges[caller].len(), 1);
        assert_eq!(
            facts.functions[g.edges[caller][0].callee].symbol,
            "dcdiff_b::rt::Runtime::submit_watched"
        );
    }

    #[test]
    fn local_looking_misses_are_unresolved_and_counted() {
        let facts = ws(&[(
            "crates/a/src/lib.rs",
            "fn caller() { crate::missing::thing(); definitely_local_fn(); }\n",
        )]);
        let g = CallGraph::build(&facts);
        assert_eq!(g.stats.unresolved, 2, "{:?}", g.unresolved);
        assert!(g.stats.unresolved_rate() > 0.99);
        assert!(g
            .stats
            .unresolved_names
            .iter()
            .any(|(n, _)| n.contains("missing::thing")));
    }

    #[test]
    fn reachability_skips_guarded_calls_when_asked() {
        let facts = ws(&[(
            "crates/a/src/lib.rs",
            "fn top() { let r = catch_unwind(AssertUnwindSafe(|| risky())); safe(); }\nfn risky() {}\nfn safe() {}\n",
        )]);
        let g = CallGraph::build(&facts);
        let top = idx(&facts, "top");
        let all = g.reachable(&facts, top, false);
        let unguarded = g.reachable(&facts, top, true);
        assert!(all.contains(&idx(&facts, "risky")));
        assert!(!unguarded.contains(&idx(&facts, "risky")));
        assert!(unguarded.contains(&idx(&facts, "safe")));
    }

    #[test]
    fn constructors_are_external() {
        let facts = ws(&[(
            "crates/a/src/lib.rs",
            "fn caller() -> Option<u8> { Some(1) }\n",
        )]);
        let g = CallGraph::build(&facts);
        assert_eq!(g.stats.external, 1);
        assert_eq!(g.stats.unresolved, 0);
    }
}
