//! dcdiff-analysis: the workspace's own static-analysis engine.
//!
//! `cargo clippy` checks general Rust hygiene; this crate checks the
//! *project's* contracts — the invariants this workspace commits to that
//! no generic linter knows about:
//!
//! * **`no-panic`** — the crates that parse untrusted bytes or execute
//!   jobs must be panic-free: no `unwrap`/`expect`, no panicking macros.
//! * **`no-unchecked-index`** — the entropy-decode hot path must not use
//!   `x[i]` indexing; malformed input must surface as a `JpegError`.
//! * **`unsafe-audit`** — every `unsafe` site carries an adjacent
//!   `// SAFETY:` justification.
//! * **`unsafe-ledger`** — every `unsafe` site is reconciled against the
//!   committed [`UNSAFE_LEDGER.md`] by content hash, so edited unsafe code
//!   forces a re-review, and a row whose justification is still the
//!   generated placeholder counts as unreviewed.
//! * **`lock-hygiene`** — no `.lock().unwrap()`: poisoned locks are
//!   recovered, not re-panicked.
//! * **`condvar-wait-loop`** — `Condvar::wait` happens inside a loop.
//! * **`telemetry-names`** — span/metric name literals come from the
//!   registry in [`dcdiff_telemetry::names`].
//! * **`panic-reachability`** — no panic site transitively reachable
//!   from the `dcdiff serve`/`dcdiff batch` request-handling entry
//!   points, across function and crate boundaries ([`interproc`]).
//! * **`lock-order-cycle`** — the workspace-wide acquired-while-held
//!   graph between named locks must be acyclic.
//! * **`hot-path-alloc`** — no allocation or blocking call reachable
//!   from functions annotated `// analysis: hot`.
//! * **`bad-allow`** — the escape hatch itself is checked: an exemption
//!   comment must name a real rule, give a reason, and actually suppress
//!   something (unused allows are flagged on full runs).
//!
//! The engine is built from scratch on a hand-written lexer ([`lexer`])
//! and a lightweight structural scanner ([`parse`]) — no rustc internals,
//! no external parser — so it runs anywhere the workspace builds and adds
//! nothing to the dependency tree. Entry point: [`analyze_workspace`];
//! the `dcdiff lint` subcommand is a thin shell around it.
//!
//! [`UNSAFE_LEDGER.md`]: https://github.com/dcdiff/dcdiff/blob/main/UNSAFE_LEDGER.md

pub mod config;
pub mod diag;
pub mod facts;
pub mod graph;
pub mod interproc;
pub mod ledger;
pub mod lexer;
pub mod parse;
pub mod rules;

use std::path::{Path, PathBuf};

pub use config::{Config, INTERPROC_RULES, RULES};
pub use diag::{ChainStep, Diagnostic, Report};

/// Name of the committed ledger file at the workspace root.
pub const LEDGER_FILE: &str = "UNSAFE_LEDGER.md";

/// Lint the workspace rooted at `root` under `cfg`.
///
/// Four phases: (1) scan every `.rs` file (skipping `target/` and
/// dot-directories), build its [`parse::FileModel`] once, and run the
/// in-scope file-local rules (narrowed to `cfg.changed` when set); (2)
/// reconcile collected unsafe sites against `UNSAFE_LEDGER.md`; (3)
/// extract per-function [`facts`], build the [`graph::CallGraph`], and
/// run the [`interproc`] rules over the whole workspace, filtering the
/// findings through the same allow annotations; (4) on full runs, flag
/// allow annotations that suppressed nothing as `bad-allow`.
///
/// # Errors
///
/// Returns a message when the root cannot be walked or a source file
/// cannot be read; individual non-UTF-8 files are skipped silently (the
/// workspace has none).
pub fn analyze_workspace(root: &Path, cfg: &Config) -> Result<Report, String> {
    let analyzed = analyze_workspace_graph(root, cfg)?;
    Ok(analyzed.report)
}

/// The full result of an analysis run: the report plus the artefacts the
/// CLI's `--graph`/`--why` modes need.
pub struct Analyzed {
    /// The lint report.
    pub report: Report,
    /// Extracted facts (empty when no interprocedural rule ran).
    pub facts: facts::WorkspaceFacts,
    /// The call graph over `facts` (None when no interprocedural rule ran).
    pub graph: Option<graph::CallGraph>,
}

/// [`analyze_workspace`], keeping the facts and call graph alive for
/// `--graph` stats listings and `--why` chain queries.
///
/// # Errors
///
/// Same conditions as [`analyze_workspace`].
pub fn analyze_workspace_graph(root: &Path, cfg: &Config) -> Result<Analyzed, String> {
    let files = walk(root)?;
    let mut report = Report::default();
    let mut sites: Vec<(String, parse::UnsafeSite)> = Vec::new();
    let mut facts = facts::WorkspaceFacts::default();
    let mut allows: Vec<(String, rules::Allow)> = Vec::new();
    let need_graph = INTERPROC_RULES.iter().any(|r| cfg.rule_enabled(r));
    for path in &files {
        let rel = relative(root, path);
        let Ok(src) = std::fs::read_to_string(path) else {
            continue; // non-UTF-8 (none in this workspace)
        };
        report.files += 1;
        let model = parse::FileModel::build(&src);
        let local_rules = match &cfg.changed {
            None => true,
            Some(touched) => touched.iter().any(|t| t == &rel),
        };
        let mut findings = rules::check_file_model(&rel, &src, &model, cfg, local_rules);
        report.diagnostics.append(&mut findings.diagnostics);
        allows.extend(findings.allows.into_iter().map(|a| (rel.clone(), a)));
        sites.extend(findings.unsafe_sites.into_iter().map(|s| (rel.clone(), s)));
        if need_graph {
            facts.add_file(&rel, &src, &model, cfg.include_asserts);
        }
    }

    if cfg.rule_enabled("unsafe-ledger") {
        match std::fs::read_to_string(root.join(LEDGER_FILE)) {
            Ok(text) => ledger::reconcile(&sites, &ledger::parse(&text), &mut report.diagnostics),
            Err(_) if sites.is_empty() => {}
            Err(_) => report.diagnostics.push(Diagnostic {
                rule: "unsafe-ledger",
                file: LEDGER_FILE.to_string(),
                line: 1,
                message: format!(
                    "{LEDGER_FILE} not found but the workspace has {} unsafe site(s)",
                    sites.len()
                ),
                snippet: String::new(),
                hint: "seed it with `dcdiff lint --update-ledger`".to_string(),
                chain: Vec::new(),
            }),
        }
    }

    // Interprocedural phase: call graph + graph rules, filtered through
    // the same allow annotations. A `panic-reachability` finding also
    // honours `allow(no-panic)` at the site — the same reviewed contract
    // covers both rules. A `lock-order-cycle` finding can be suppressed
    // at any edge of its witness chain (breaking one edge breaks the
    // cycle).
    let built_graph = if need_graph {
        let g = graph::CallGraph::build(&facts);
        let mut inter = interproc::run(&facts, &g, cfg);
        inter.retain(|d| {
            let mut covered = false;
            for (file, a) in allows.iter_mut() {
                let at_site = file == &d.file
                    && (a.covers(d.rule, d.line)
                        || (d.rule == "panic-reachability" && a.covers("no-panic", d.line)));
                let at_edge = d.rule == "lock-order-cycle"
                    && d.chain
                        .iter()
                        .any(|s| file == &s.file && a.covers(d.rule, s.line));
                if at_site || at_edge {
                    a.used = true;
                    covered = true;
                }
            }
            !covered
        });
        report.diagnostics.append(&mut inter);
        report.graph = Some(g.stats.clone());
        Some(g)
    } else {
        None
    };

    // Unused-allow detection needs a full run: with `--rule` or
    // `--changed`, a suppressed-nothing annotation may simply belong to a
    // rule that did not run.
    if cfg.only.is_none() && cfg.changed.is_none() {
        for (file, a) in &allows {
            if !a.used {
                report.diagnostics.push(Diagnostic {
                    rule: "bad-allow",
                    file: file.clone(),
                    line: a.line,
                    message: format!(
                        "allow({}) suppresses nothing — the finding it excused is gone",
                        a.rule
                    ),
                    snippet: String::new(),
                    hint: "delete the annotation; burned-down escapes must not rot in place"
                        .to_string(),
                    chain: Vec::new(),
                });
            }
        }
    }
    report.allows_used = allows.iter().filter(|(_, a)| a.used).count();

    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(Analyzed {
        report,
        facts,
        graph: built_graph,
    })
}

/// Render a fresh `UNSAFE_LEDGER.md` for the workspace at `root`,
/// preserving justifications of unchanged sites from the existing ledger.
///
/// # Errors
///
/// Returns a message when the root cannot be walked.
pub fn generate_ledger(root: &Path, cfg: &Config) -> Result<String, String> {
    let mut sites = Vec::new();
    for path in walk(root)? {
        let rel = relative(root, &path);
        if !cfg.in_scope("unsafe-ledger", &rel) {
            continue;
        }
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        let model = parse::FileModel::build(&src);
        sites.extend(model.unsafe_sites.into_iter().map(|s| (rel.clone(), s)));
    }
    let existing = std::fs::read_to_string(root.join(LEDGER_FILE))
        .map(|t| ledger::parse(&t))
        .unwrap_or_default();
    Ok(ledger::generate(&sites, &existing))
}

/// Workspace-relative path with forward slashes.
fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// All `.rs` files under `root`, sorted, skipping `target` and
/// dot-directories.
fn walk(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = std::fs::read_dir(&dir)
            .map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    /// Build a throwaway workspace under the target-adjacent temp dir.
    struct TempWs {
        root: PathBuf,
    }

    impl TempWs {
        fn new(tag: &str) -> TempWs {
            let root = std::env::temp_dir().join(format!(
                "dcdiff-analysis-{tag}-{}",
                std::process::id()
            ));
            let _ = fs::remove_dir_all(&root);
            fs::create_dir_all(&root).unwrap();
            TempWs { root }
        }

        fn write(&self, rel: &str, content: &str) {
            let path = self.root.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, content).unwrap();
        }
    }

    impl Drop for TempWs {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.root);
        }
    }

    #[test]
    fn seeded_violation_fixture_fails_the_lint() {
        let ws = TempWs::new("seeded");
        ws.write(
            "crates/jpeg/src/codec.rs",
            "pub fn decode(b: &[u8]) -> u8 { b.first().copied().unwrap() }\n",
        );
        let report = analyze_workspace(&ws.root, &Config::default_workspace()).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.diagnostics[0].rule, "no-panic");
        assert!(report.to_json().contains("\"violations\":1"));
    }

    #[test]
    fn clean_fixture_passes_and_counts_files() {
        let ws = TempWs::new("clean");
        ws.write(
            "crates/jpeg/src/codec.rs",
            "pub fn decode(b: &[u8]) -> u8 { b.first().copied().unwrap_or(0) }\n",
        );
        ws.write("crates/cli/src/main.rs", "fn main() { None::<u8>.unwrap(); }\n");
        let report = analyze_workspace(&ws.root, &Config::default_workspace()).unwrap();
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(report.files, 2);
    }

    #[test]
    fn missing_ledger_with_unsafe_sites_is_a_violation() {
        let ws = TempWs::new("noledger");
        ws.write(
            "crates/tensor/src/kernels/x.rs",
            "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller contract\n    unsafe { *p }\n}\n",
        );
        let report = analyze_workspace(&ws.root, &Config::default_workspace()).unwrap();
        assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(report.diagnostics[0].rule, "unsafe-ledger");
        assert!(report.diagnostics[0].message.contains("not found"));
    }

    #[test]
    fn generated_ledger_reconciles_clean() {
        let ws = TempWs::new("ledger");
        ws.write(
            "crates/tensor/src/kernels/x.rs",
            "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller contract\n    unsafe { *p }\n}\n",
        );
        let cfg = Config::default_workspace();
        // Review the generated row: its placeholder justification is a
        // finding of its own until replaced.
        let ledger: String = generate_ledger(&ws.root, &cfg)
            .unwrap()
            .lines()
            .map(|l| match l.split_once(ledger::PLACEHOLDER) {
                Some((row, _)) => format!("{row}`p` is valid for reads per the caller contract |\n"),
                None => format!("{l}\n"),
            })
            .collect();
        fs::write(ws.root.join(LEDGER_FILE), ledger).unwrap();
        let report = analyze_workspace(&ws.root, &cfg).unwrap();
        assert!(report.is_clean(), "{:?}", report.diagnostics);
    }

    #[test]
    fn seeded_reachable_panic_fires_with_full_chain() {
        // A default entry point (`handle_connection`) reaching an
        // `unwrap()` two crates away must produce a panic-reachability
        // finding whose chain walks entry -> intermediate -> offense.
        let ws = TempWs::new("reach-panic");
        ws.write(
            "crates/serve/src/server.rs",
            "pub fn handle_connection() { dispatch(); }\nfn dispatch() { estimate(None); }\n",
        );
        ws.write(
            "crates/core/src/estimator.rs",
            "pub fn estimate(x: Option<u8>) -> u8 { x.unwrap() }\n",
        );
        let report = analyze_workspace(&ws.root, &Config::default_workspace()).unwrap();
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.rule == "panic-reachability")
            .expect("reachable panic must be reported");
        assert_eq!(d.file, "crates/core/src/estimator.rs");
        let syms: Vec<&str> = d.chain.iter().map(|s| s.symbol.as_str()).collect();
        assert_eq!(
            syms,
            vec![
                "dcdiff_serve::server::handle_connection",
                "dcdiff_serve::server::dispatch",
                "dcdiff_core::estimator::estimate",
            ]
        );
        assert!(d.message.contains("2 call(s) deep"), "{}", d.message);
        // The chain survives JSON serialisation for the CI artifact.
        assert!(report.to_json().contains("\"chain\":["));
    }

    #[test]
    fn seeded_two_lock_cycle_fires_across_files() {
        // alpha-then-beta in one file (through a callee in another file)
        // and beta-then-alpha elsewhere: an ABBA cycle the per-file rules
        // cannot see.
        let ws = TempWs::new("lock-cycle");
        ws.write(
            "crates/runtime/src/runtime.rs",
            "fn ab(s: &S) {\n    let g = s.alpha.lock();\n    take_beta(s);\n}\nfn ba(s: &S) {\n    let g = s.beta.lock();\n    let h = s.alpha.lock();\n}\n",
        );
        ws.write(
            "crates/runtime/src/exec.rs",
            "pub fn take_beta(s: &S) {\n    let g = s.beta.lock();\n}\n",
        );
        let report = analyze_workspace(&ws.root, &Config::default_workspace()).unwrap();
        let cycles: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == "lock-order-cycle")
            .collect();
        assert_eq!(cycles.len(), 1, "{:?}", report.diagnostics);
        assert!(
            cycles[0].message.contains("alpha -> beta -> alpha"),
            "{}",
            cycles[0].message
        );
        // Each edge of the witness chain names holder and acquiree.
        assert!(cycles[0].chain[0].symbol.contains("while holding `alpha`"));
        assert!(cycles[0].chain[1].symbol.contains("while holding `beta`"));
    }

    #[test]
    fn seeded_hot_path_vec_new_fires_with_chain() {
        let ws = TempWs::new("hot-alloc");
        ws.write(
            "crates/tensor/src/kernels/gemm.rs",
            "// analysis: hot\nfn micro_kernel() { pack(); }\nfn pack() { let v: Vec<u8> = Vec::new(); }\n",
        );
        let report = analyze_workspace(&ws.root, &Config::default_workspace()).unwrap();
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.rule == "hot-path-alloc")
            .expect("hot-path allocation must be reported");
        assert!(d.message.contains("Vec::new"), "{}", d.message);
        assert!(d.chain[0].symbol.ends_with("micro_kernel"));
        assert!(d.chain[1].symbol.ends_with("pack"));
    }

    #[test]
    fn seeded_interproc_findings_are_suppressed_by_allows() {
        // The same fixtures as above, with each offense justified: the
        // run is clean and every annotation counts as used.
        let ws = TempWs::new("interproc-allow");
        ws.write(
            "crates/serve/src/server.rs",
            "pub fn handle_connection() { estimate(None); }\n",
        );
        ws.write(
            "crates/core/src/estimator.rs",
            "pub fn estimate(x: Option<u8>) -> u8 {\n    // analysis: allow(panic-reachability) — fixture: x is always Some here\n    x.unwrap()\n}\n",
        );
        ws.write(
            "crates/tensor/src/kernels/gemm.rs",
            "// analysis: hot\nfn micro_kernel() {\n    // analysis: allow(hot-path-alloc) — fixture: amortised across the whole tile\n    let v: Vec<u8> = Vec::new();\n}\n",
        );
        let report = analyze_workspace(&ws.root, &Config::default_workspace()).unwrap();
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(report.allows_used, 2);
    }

    #[test]
    fn changed_scoping_narrows_local_rules_but_not_interproc() {
        // Two files with file-local violations; only one is "touched".
        // The untouched file's no-panic finding is skipped, but the
        // interprocedural hot-path rule still sees the whole workspace.
        let ws = TempWs::new("changed");
        ws.write(
            "crates/jpeg/src/a.rs",
            "pub fn a(b: &[u8]) -> u8 { b.first().copied().unwrap() }\n",
        );
        ws.write(
            "crates/jpeg/src/b.rs",
            "pub fn b(b: &[u8]) -> u8 { b.first().copied().unwrap() }\n",
        );
        ws.write(
            "crates/tensor/src/kernels/gemm.rs",
            "// analysis: hot\nfn micro_kernel() { let v: Vec<u8> = Vec::new(); }\n",
        );
        let mut cfg = Config::default_workspace();
        cfg.changed = Some(vec!["crates/jpeg/src/a.rs".to_string()]);
        let report = analyze_workspace(&ws.root, &cfg).unwrap();
        let rules: Vec<(&str, &str)> = report
            .diagnostics
            .iter()
            .map(|d| (d.rule, d.file.as_str()))
            .collect();
        assert!(rules.contains(&("no-panic", "crates/jpeg/src/a.rs")), "{rules:?}");
        assert!(!rules.iter().any(|(_, f)| *f == "crates/jpeg/src/b.rs"), "{rules:?}");
        assert!(
            rules.contains(&("hot-path-alloc", "crates/tensor/src/kernels/gemm.rs")),
            "{rules:?}"
        );
    }

    #[test]
    fn unused_allow_is_flagged_on_full_runs_only() {
        let ws = TempWs::new("unused-allow");
        ws.write(
            "crates/jpeg/src/codec.rs",
            "// analysis: allow(no-panic) — nothing left to excuse\npub fn f(b: &[u8]) -> u8 { b.first().copied().unwrap_or(0) }\n",
        );
        let report = analyze_workspace(&ws.root, &Config::default_workspace()).unwrap();
        assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(report.diagnostics[0].rule, "bad-allow");
        assert!(report.diagnostics[0].message.contains("suppresses nothing"));

        // Narrowed runs cannot tell an unused allow from one whose rule
        // did not run, so they stay silent about it.
        let mut cfg = Config::default_workspace();
        cfg.changed = Some(vec![]);
        let narrowed = analyze_workspace(&ws.root, &cfg).unwrap();
        assert!(narrowed.is_clean(), "{:?}", narrowed.diagnostics);
        let mut cfg = Config::default_workspace();
        cfg.only = Some("unsafe-audit".to_string());
        let filtered = analyze_workspace(&ws.root, &cfg).unwrap();
        assert!(filtered.is_clean(), "{:?}", filtered.diagnostics);
    }

    #[test]
    fn graph_stats_are_reported_for_full_runs() {
        let ws = TempWs::new("graph-stats");
        ws.write(
            "crates/core/src/lib.rs",
            "pub fn a() { b(); }\npub fn b() {}\n",
        );
        let analyzed =
            analyze_workspace_graph(&ws.root, &Config::default_workspace()).unwrap();
        let stats = analyzed.report.graph.as_ref().expect("graph stats");
        assert_eq!(stats.functions, 2);
        assert_eq!(stats.resolved, 1);
        assert!(analyzed.graph.is_some());
        assert_eq!(analyzed.facts.functions.len(), 2);
    }

    #[test]
    fn rule_filter_runs_only_the_named_rule() {
        let ws = TempWs::new("filter");
        ws.write(
            "crates/jpeg/src/codec.rs",
            "pub fn f(b: &[u8]) -> u8 { b.first().copied().unwrap() }\n",
        );
        ws.write(
            "crates/tensor/src/kernels/x.rs",
            "pub fn g(p: *const u8) -> u8 { unsafe { *p } }\n",
        );
        let mut cfg = Config::default_workspace();
        cfg.only = Some("no-panic".to_string());
        let report = analyze_workspace(&ws.root, &cfg).unwrap();
        assert!(report.diagnostics.iter().all(|d| d.rule == "no-panic"));
        assert_eq!(report.diagnostics.len(), 1);
    }
}
