//! Interprocedural rules over the workspace call graph.
//!
//! Three rules run on top of [`facts`] + [`graph`]:
//!
//! * **`panic-reachability`** — no panic site may be transitively
//!   reachable from a request-handling entry point (`dcdiff serve`'s
//!   connection handler, `dcdiff batch`'s worker loop). Call sites and
//!   panic sites lexically inside a `catch_unwind(…)` argument are exempt:
//!   that is the fallback ladder's containment boundary.
//! * **`lock-order-cycle`** — the acquired-while-held relation between
//!   named locks, collected across function boundaries, must be acyclic.
//!   A cycle is the precondition for an ABBA deadlock; the diagnostic
//!   names every edge of the cycle with the function and line that
//!   creates it.
//! * **`hot-path-alloc`** — no heap allocation or blocking operation may
//!   be reachable from a function annotated `// analysis: hot` (the
//!   GEMM/iDCT/Huffman inner loops). Hot loops own their buffers up
//!   front; an allocation that sneaks in three calls down shows up in
//!   the tail latency, not in review.
//!
//! Every finding carries the full entry-point→offense call chain
//! ([`Diagnostic::chain`]) so a reader can audit the path, and `dcdiff
//! lint --why <symbol>` answers "how is this function even reachable?"
//! without triggering a finding.
//!
//! [`facts`]: crate::facts
//! [`graph`]: crate::graph

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use crate::config::Config;
use crate::diag::{ChainStep, Diagnostic};
use crate::facts::WorkspaceFacts;
use crate::graph::CallGraph;

/// The built-in request-path entry points, matched as symbol suffixes.
pub const DEFAULT_ENTRIES: &[&str] = &[
    "dcdiff_serve::server::handle_connection",
    "dcdiff_runtime::runtime::worker_loop",
];

/// Run all enabled interprocedural rules; returns unfiltered diagnostics
/// (the caller applies allow annotations).
pub fn run(facts: &WorkspaceFacts, graph: &CallGraph, cfg: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if cfg.rule_enabled("panic-reachability") {
        panic_reachability(facts, graph, cfg, &mut out);
    }
    if cfg.rule_enabled("lock-order-cycle") {
        lock_order_cycle(facts, graph, cfg, &mut out);
    }
    if cfg.rule_enabled("hot-path-alloc") {
        hot_path_alloc(facts, graph, cfg, &mut out);
    }
    out
}

/// Resolve the configured entry-point suffixes to function indices.
pub fn entry_points(facts: &WorkspaceFacts, cfg: &Config) -> Vec<usize> {
    let mut found: Vec<usize> = Vec::new();
    for entry in &cfg.entries {
        found.extend(facts.by_suffix(entry));
    }
    found.sort_unstable();
    found.dedup();
    found
}

/// Breadth-first search from `starts`, recording for every reached
/// function the (caller, call line) it was first reached through. Starts
/// map to `None`. `skip_guarded` drops call edges inside `catch_unwind`
/// arguments.
fn bfs_parents(
    facts: &WorkspaceFacts,
    graph: &CallGraph,
    starts: &[usize],
    skip_guarded: bool,
) -> HashMap<usize, Option<(usize, u32)>> {
    let mut parent: HashMap<usize, Option<(usize, u32)>> = HashMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &s in starts {
        if let std::collections::hash_map::Entry::Vacant(v) = parent.entry(s) {
            v.insert(None);
            queue.push_back(s);
        }
    }
    while let Some(fi) = queue.pop_front() {
        for e in &graph.edges[fi] {
            let call = &facts.functions[fi].calls[e.call];
            if skip_guarded && call.guarded {
                continue;
            }
            if let std::collections::hash_map::Entry::Vacant(v) = parent.entry(e.callee) {
                v.insert(Some((fi, call.line)));
                queue.push_back(e.callee);
            }
        }
    }
    parent
}

/// Reconstruct the entry→`target` chain from BFS parent pointers. The
/// first step is the entry function at its definition; each later step is
/// the callee, located at the call site in its caller.
fn chain_to(
    facts: &WorkspaceFacts,
    parents: &HashMap<usize, Option<(usize, u32)>>,
    target: usize,
) -> Vec<ChainStep> {
    let mut rev: Vec<ChainStep> = Vec::new();
    let mut cur = target;
    loop {
        match parents.get(&cur) {
            Some(Some((caller, line))) => {
                rev.push(ChainStep {
                    symbol: facts.functions[cur].symbol.clone(),
                    file: facts.functions[*caller].file.clone(),
                    line: *line,
                });
                cur = *caller;
            }
            Some(None) => {
                let f = &facts.functions[cur];
                rev.push(ChainStep {
                    symbol: f.symbol.clone(),
                    file: f.file.clone(),
                    line: f.line,
                });
                break;
            }
            None => break, // unreachable target: empty-ish chain
        }
    }
    rev.reverse();
    rev
}

fn panic_reachability(
    facts: &WorkspaceFacts,
    graph: &CallGraph,
    cfg: &Config,
    out: &mut Vec<Diagnostic>,
) {
    let entries = entry_points(facts, cfg);
    if entries.is_empty() {
        return;
    }
    let parents = bfs_parents(facts, graph, &entries, true);
    let mut reached: Vec<usize> = parents.keys().copied().collect();
    reached.sort_unstable();
    for fi in reached {
        let f = &facts.functions[fi];
        if !cfg.in_scope("panic-reachability", &f.file) {
            continue;
        }
        for p in &f.panics {
            if p.guarded {
                continue;
            }
            let chain = chain_to(facts, &parents, fi);
            let entry = chain.first().map_or("?", |s| s.symbol.as_str());
            out.push(Diagnostic {
                rule: "panic-reachability",
                file: f.file.clone(),
                line: p.line,
                message: format!(
                    "`{}` can panic and is reachable from entry point `{entry}` \
                     ({} call(s) deep)",
                    p.what,
                    chain.len().saturating_sub(1),
                ),
                snippet: String::new(),
                hint: "return an error along this path, guard it behind the fallback \
                       ladder's `catch_unwind`, or justify with `// analysis: \
                       allow(panic-reachability) — <why it cannot fire>`"
                    .to_string(),
                chain,
            });
        }
    }
}

/// Does this call name look like a guard-returning lock helper?
/// Matched at `_`-separated word boundaries: `lock`, `try_lock`,
/// `with_worker_lock` qualify; `block`, `encode_block`,
/// `submit_blocking` do not.
fn is_lock_helper(name: &str) -> bool {
    name.split('_').any(|seg| seg == "lock")
}

/// One lock acquisition event inside a function, real or through a
/// guard-returning lock helper.
struct Acq {
    name: String,
    line: u32,
    tok: usize,
    hold_end: usize,
}

/// Where a lock-order edge was observed.
#[derive(Clone)]
struct Witness {
    symbol: String,
    file: String,
    line: u32,
}

fn lock_order_cycle(
    facts: &WorkspaceFacts,
    graph: &CallGraph,
    cfg: &Config,
    out: &mut Vec<Diagnostic>,
) {
    // 1. Transitive lock sets per function: the locks a call into `f` may
    //    acquire. Fixpoint over the (cyclic, approximate) call graph.
    let n = facts.functions.len();
    let mut lock_sets: Vec<BTreeSet<String>> = facts
        .functions
        .iter()
        .map(|f| f.locks.iter().map(|l| l.name.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for fi in 0..n {
            for e in &graph.edges[fi] {
                if e.callee == fi {
                    continue;
                }
                let callee: Vec<String> = lock_sets[e.callee].iter().cloned().collect();
                for l in callee {
                    if lock_sets[fi].insert(l) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // 2. Acquired-while-held edges. For each function, collect its
    //    acquisition events (direct `.lock()` sites plus guard-returning
    //    lock-helper calls, named by the helper's first argument when
    //    available); while an acquisition is held, a later acquisition or
    //    a call whose subtree locks something adds an edge.
    let mut edges: BTreeMap<(String, String), Witness> = BTreeMap::new();
    for (fi, f) in facts.functions.iter().enumerate() {
        let mut acqs: Vec<Acq> = f
            .locks
            .iter()
            .map(|l| Acq {
                name: l.name.clone(),
                line: l.line,
                tok: l.tok,
                hold_end: l.hold_end,
            })
            .collect();
        for (ci, c) in f.calls.iter().enumerate() {
            if !is_lock_helper(&c.name) {
                continue;
            }
            let names: Vec<String> = match &c.first_arg {
                Some(arg) => vec![arg.clone()],
                None => graph.edges[fi]
                    .iter()
                    .filter(|e| e.call == ci)
                    .flat_map(|e| lock_sets[e.callee].iter().cloned())
                    .collect(),
            };
            for name in names {
                acqs.push(Acq {
                    name,
                    line: c.line,
                    tok: c.tok,
                    hold_end: c.hold_end,
                });
            }
        }
        acqs.sort_by_key(|a| a.tok);
        let witness = |line: u32| Witness {
            symbol: f.symbol.clone(),
            file: f.file.clone(),
            line,
        };
        for (i, a) in acqs.iter().enumerate() {
            // Later acquisitions while `a` is held.
            for b in acqs.iter().skip(i + 1) {
                if b.tok < a.hold_end && a.name != b.name {
                    edges
                        .entry((a.name.clone(), b.name.clone()))
                        .or_insert_with(|| witness(b.line));
                }
            }
            // Calls while `a` is held whose subtree acquires locks. Lock
            // helpers with a named first argument are covered above —
            // their parameter-named inner lock would be noise here.
            for (ci, c) in f.calls.iter().enumerate() {
                if c.tok <= a.tok || c.tok >= a.hold_end {
                    continue;
                }
                if is_lock_helper(&c.name) && c.first_arg.is_some() {
                    continue;
                }
                for e in graph.edges[fi].iter().filter(|e| e.call == ci) {
                    for l in &lock_sets[e.callee] {
                        if l != &a.name {
                            edges
                                .entry((a.name.clone(), l.clone()))
                                .or_insert_with(|| witness(c.line));
                        }
                    }
                }
            }
        }
    }

    // 3. Cycle detection over the lock digraph. Each cycle is reported
    //    once, anchored at its lexicographically smallest lock, found as
    //    the shortest path back to that lock.
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        let Some(cycle) = shortest_cycle(&adj, start) else {
            continue;
        };
        if cycle.iter().any(|l| *l < start) {
            continue; // reported when iterating from the smallest lock
        }
        let mut chain: Vec<ChainStep> = Vec::new();
        for w in cycle.windows(2) {
            let wit = &edges[&(w[0].to_string(), w[1].to_string())];
            chain.push(ChainStep {
                symbol: format!(
                    "{} acquires `{}` while holding `{}`",
                    wit.symbol, w[1], w[0]
                ),
                file: wit.file.clone(),
                line: wit.line,
            });
        }
        let first = &edges[&(cycle[0].to_string(), cycle[1].to_string())];
        if !cfg.in_scope("lock-order-cycle", &first.file) {
            continue;
        }
        out.push(Diagnostic {
            rule: "lock-order-cycle",
            file: first.file.clone(),
            line: first.line,
            message: format!("lock-order cycle: {}", cycle.join(" -> ")),
            snippet: String::new(),
            hint: "acquire these locks in one global order everywhere, or narrow a guard's \
                   scope so the orders never overlap; to accept a proven-safe overlap \
                   annotate any edge with `// analysis: allow(lock-order-cycle) — <proof>`"
                .to_string(),
            chain,
        });
    }
}

/// Shortest cycle from `start` back to `start`, as the node sequence
/// `[start, …, start]`; None when `start` is not on a cycle.
fn shortest_cycle<'a>(
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    start: &'a str,
) -> Option<Vec<&'a str>> {
    let mut parent: HashMap<&str, &str> = HashMap::new();
    let mut queue: VecDeque<&str> = VecDeque::new();
    queue.push_back(start);
    while let Some(node) = queue.pop_front() {
        for &next in adj.get(node).into_iter().flatten() {
            if next == start {
                let mut rev = vec![start, node];
                let mut cur = node;
                while cur != start {
                    cur = parent[cur];
                    rev.push(cur);
                }
                rev.reverse();
                return Some(rev);
            }
            if !parent.contains_key(next) && next != start {
                parent.insert(next, node);
                queue.push_back(next);
            }
        }
    }
    None
}

fn hot_path_alloc(
    facts: &WorkspaceFacts,
    graph: &CallGraph,
    cfg: &Config,
    out: &mut Vec<Diagnostic>,
) {
    let hot: Vec<usize> = facts
        .functions
        .iter()
        .enumerate()
        .filter(|(_, f)| f.hot)
        .map(|(i, _)| i)
        .collect();
    if hot.is_empty() {
        return;
    }
    let parents = bfs_parents(facts, graph, &hot, false);
    let mut reached: Vec<usize> = parents.keys().copied().collect();
    reached.sort_unstable();
    for fi in reached {
        let f = &facts.functions[fi];
        if !cfg.in_scope("hot-path-alloc", &f.file) {
            continue;
        }
        let sites = f
            .allocs
            .iter()
            .map(|a| (a, "allocates"))
            .chain(f.blocking.iter().map(|b| (b, "can block")));
        for (site, verb) in sites {
            let chain = chain_to(facts, &parents, fi);
            let root = chain.first().map_or("?", |s| s.symbol.as_str());
            out.push(Diagnostic {
                rule: "hot-path-alloc",
                file: f.file.clone(),
                line: site.line,
                message: format!(
                    "`{}` {verb} and is reachable from hot path `{root}` \
                     ({} call(s) deep)",
                    site.what,
                    chain.len().saturating_sub(1),
                ),
                snippet: String::new(),
                hint: "hoist the buffer/lock out of the hot loop (pre-allocate in the \
                       caller), or justify with `// analysis: allow(hot-path-alloc) — \
                       <amortisation argument>`"
                    .to_string(),
                chain,
            });
        }
    }
}

/// `dcdiff lint --why <symbol>`: the shortest call chain from any
/// configured entry point (and from any hot function) to each function
/// whose symbol matches `symbol` as a suffix. Returns one chain per
/// matching function actually reachable.
pub fn why(
    facts: &WorkspaceFacts,
    graph: &CallGraph,
    cfg: &Config,
    symbol: &str,
) -> Vec<Vec<ChainStep>> {
    let mut starts = entry_points(facts, cfg);
    starts.extend(
        facts
            .functions
            .iter()
            .enumerate()
            .filter(|(_, f)| f.hot)
            .map(|(i, _)| i),
    );
    starts.sort_unstable();
    starts.dedup();
    let parents = bfs_parents(facts, graph, &starts, false);
    let mut chains: Vec<Vec<ChainStep>> = facts
        .by_suffix(symbol)
        .into_iter()
        .filter(|fi| parents.contains_key(fi))
        .map(|fi| chain_to(facts, &parents, fi))
        .collect();
    chains.sort_by_key(Vec::len);
    chains
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::FileModel;

    fn setup(files: &[(&str, &str)]) -> (WorkspaceFacts, CallGraph) {
        let mut facts = WorkspaceFacts::default();
        for (rel, src) in files {
            let model = FileModel::build(src);
            facts.add_file(rel, src, &model);
        }
        let graph = CallGraph::build(&facts);
        (facts, graph)
    }

    fn cfg_with_entry(entry: &str) -> Config {
        let mut cfg = Config::default_workspace();
        cfg.entries = vec![entry.to_string()];
        cfg
    }

    #[test]
    fn reachable_panic_is_reported_with_full_chain() {
        let (facts, graph) = setup(&[
            (
                "crates/serve/src/server.rs",
                "pub fn handle_connection() { middle(); }\nfn middle() { deep(); }\n",
            ),
            (
                "crates/core/src/estimator.rs",
                "pub fn deep(x: Option<u8>) -> u8 { x.unwrap() }\n",
            ),
        ]);
        let cfg = cfg_with_entry("server::handle_connection");
        let diags = run(&facts, &graph, &cfg);
        let d = diags
            .iter()
            .find(|d| d.rule == "panic-reachability")
            .expect("panic must be reported");
        assert_eq!(d.file, "crates/core/src/estimator.rs");
        let syms: Vec<&str> = d.chain.iter().map(|s| s.symbol.as_str()).collect();
        assert_eq!(
            syms,
            vec![
                "dcdiff_serve::server::handle_connection",
                "dcdiff_serve::server::middle",
                "dcdiff_core::estimator::deep",
            ]
        );
        assert!(d.message.contains("2 call(s) deep"));
    }

    #[test]
    fn guarded_and_unreachable_panics_are_not_reported() {
        let (facts, graph) = setup(&[(
            "crates/serve/src/server.rs",
            "pub fn handle_connection() {\n    let r = catch_unwind(AssertUnwindSafe(|| risky()));\n}\nfn risky() { panic!(\"boom\") }\nfn island() { None::<u8>.unwrap(); }\n",
        )]);
        let cfg = cfg_with_entry("server::handle_connection");
        let diags = run(&facts, &graph, &cfg);
        assert!(
            diags.iter().all(|d| d.rule != "panic-reachability"),
            "{diags:?}"
        );
    }

    #[test]
    fn two_lock_cycle_is_reported_across_functions() {
        let (facts, graph) = setup(&[(
            "crates/runtime/src/runtime.rs",
            "fn ab(s: &S) {\n    let g = s.alpha.lock();\n    take_beta(s);\n}\nfn take_beta(s: &S) {\n    let g = s.beta.lock();\n}\nfn ba(s: &S) {\n    let g = s.beta.lock();\n    let h = s.alpha.lock();\n}\n",
        )]);
        let diags = run(&facts, &graph, &Config::default_workspace());
        let d = diags
            .iter()
            .find(|d| d.rule == "lock-order-cycle")
            .expect("cycle must be reported");
        assert!(d.message.contains("alpha -> beta -> alpha"), "{}", d.message);
        assert_eq!(d.chain.len(), 2, "{:?}", d.chain);
        assert!(d.chain[0].symbol.contains("while holding `alpha`"));
        assert!(d.chain[1].symbol.contains("while holding `beta`"));
        // and only once, not once per rotation
        assert_eq!(
            diags.iter().filter(|d| d.rule == "lock-order-cycle").count(),
            1
        );
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let (facts, graph) = setup(&[(
            "crates/runtime/src/runtime.rs",
            "fn one(s: &S) {\n    let g = s.alpha.lock();\n    let h = s.beta.lock();\n}\nfn two(s: &S) {\n    let g = s.alpha.lock();\n    let h = s.beta.lock();\n}\n",
        )]);
        let diags = run(&facts, &graph, &Config::default_workspace());
        assert!(diags.iter().all(|d| d.rule != "lock-order-cycle"));
    }

    #[test]
    fn sequential_locks_do_not_form_edges() {
        // Temporary guards released at statement end: no held overlap.
        let (facts, graph) = setup(&[(
            "crates/runtime/src/runtime.rs",
            "fn one(s: &S) {\n    *s.alpha.lock() += 1;\n    *s.beta.lock() += 1;\n}\nfn two(s: &S) {\n    *s.beta.lock() += 1;\n    *s.alpha.lock() += 1;\n}\n",
        )]);
        let diags = run(&facts, &graph, &Config::default_workspace());
        assert!(diags.iter().all(|d| d.rule != "lock-order-cycle"), "{diags:?}");
    }

    #[test]
    fn hot_path_allocation_reported_transitively() {
        let (facts, graph) = setup(&[(
            "crates/tensor/src/kernels/gemm.rs",
            "// analysis: hot\nfn microkernel() { helper(); }\nfn helper() { let v = Vec::new(); }\nfn cold() { let v = Vec::new(); }\n",
        )]);
        let diags = run(&facts, &graph, &Config::default_workspace());
        let hot: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.rule == "hot-path-alloc")
            .collect();
        assert_eq!(hot.len(), 1, "{hot:?}");
        assert!(hot[0].message.contains("Vec::new"));
        assert!(hot[0].chain[0].symbol.ends_with("microkernel"));
        assert!(hot[0].chain[1].symbol.ends_with("helper"));
    }

    #[test]
    fn hot_path_blocking_reported() {
        let (facts, graph) = setup(&[(
            "crates/tensor/src/kernels/pool.rs",
            "// analysis: hot\nfn inner(m: &M) { let g = m.lock(); }\n",
        )]);
        let diags = run(&facts, &graph, &Config::default_workspace());
        assert!(diags
            .iter()
            .any(|d| d.rule == "hot-path-alloc" && d.message.contains(".lock()")));
    }

    #[test]
    fn why_returns_shortest_chain() {
        let (facts, graph) = setup(&[(
            "crates/serve/src/server.rs",
            "pub fn handle_connection() { a(); b(); }\nfn a() { target(); }\nfn b() { a(); }\nfn target() {}\nfn unrelated() {}\n",
        )]);
        let cfg = cfg_with_entry("server::handle_connection");
        let chains = why(&facts, &graph, &cfg, "server::target");
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].len(), 3); // handle_connection -> a -> target
        assert!(why(&facts, &graph, &cfg, "server::unrelated").is_empty());
    }
}
