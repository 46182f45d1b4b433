//! The file-local rules and the per-file checking pipeline.
//!
//! Two rules look at one file at a time: `condvar-wait-loop` and
//! `bad-allow`. The pipeline in [`check_file_model`] collects
//! `// analysis: allow(<rule>) — <reason>` annotations, runs the in-scope
//! rules, then filters their findings through the annotations. An
//! annotation suppresses a finding of the named rule on its own line or
//! the line directly below — i.e. it is written either as a trailing
//! comment on the offending line or on the line above it. The workspace
//! pass applies the same annotations to the interprocedural rules.

use crate::config::{is_rule, Config};
use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::parse::{FileModel, Introducer, UnsafeSite};

/// A parsed, well-formed allow annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule being exempted.
    pub rule: String,
    /// Line the comment sits on; it covers this line and the next.
    pub line: u32,
    /// Did this annotation suppress at least one finding? File-local
    /// rules set it in [`check_file_model`]; the workspace pass also sets
    /// it when an interprocedural finding is suppressed. An allow still
    /// false after a full run is itself a `bad-allow` finding.
    pub used: bool,
}

impl Allow {
    /// Does this annotation cover a finding of `rule` at `line` (its own
    /// line or the line directly below)?
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        self.rule == rule && (line == self.line || line == self.line + 1)
    }
}

/// Result of checking one file.
#[derive(Debug, Default)]
pub struct FileFindings {
    /// Diagnostics that survived allow filtering.
    pub diagnostics: Vec<Diagnostic>,
    /// Every well-formed allow annotation in the file, with its used
    /// flag, for workspace-level interproc filtering and unused-allow
    /// detection.
    pub allows: Vec<Allow>,
    /// Unsafe sites for workspace-level ledger reconciliation (empty when
    /// the file is outside the `unsafe-ledger` scope).
    pub unsafe_sites: Vec<UnsafeSite>,
}

/// Run the file-local pipeline over a prebuilt [`FileModel`]: collect
/// allows and unsafe sites, and run the in-scope file-local rules.
pub fn check_file_model(rel: &str, src: &str, model: &FileModel, cfg: &Config) -> FileFindings {
    let lines: Vec<&str> = src.lines().collect();
    let snippet = |line: u32| -> String {
        lines
            .get(line.saturating_sub(1) as usize)
            .map_or(String::new(), |l| l.trim().to_string())
    };

    let mut raw: Vec<Diagnostic> = Vec::new();
    let (mut allows, mut bad_allow_diags) = collect_allows(rel, model, &snippet);
    if cfg.in_scope("bad-allow", rel) {
        raw.append(&mut bad_allow_diags);
    }
    if cfg.in_scope("condvar-wait-loop", rel) {
        condvar_wait_loop(rel, src, model, &snippet, &mut raw);
    }

    // Filter through allow annotations. `bad-allow` findings cannot be
    // allowed away — the escape hatch does not apply to itself.
    let diagnostics: Vec<Diagnostic> = raw
        .into_iter()
        .filter(|d| {
            if d.rule == "bad-allow" {
                return true;
            }
            for a in allows.iter_mut() {
                if a.covers(d.rule, d.line) {
                    a.used = true;
                    return false;
                }
            }
            true
        })
        .collect();

    let unsafe_sites = if cfg.in_scope("unsafe-ledger", rel) {
        model.unsafe_sites.clone()
    } else {
        Vec::new()
    };
    FileFindings {
        diagnostics,
        allows,
        unsafe_sites,
    }
}

/// Parse `// analysis: allow(<rule>) — <reason>` annotations from the
/// file's comments. Malformed annotations become `bad-allow` diagnostics:
/// an unknown rule id, or a missing reason after the separator.
fn collect_allows(
    rel: &str,
    model: &FileModel,
    snippet: &dyn Fn(u32) -> String,
) -> (Vec<Allow>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut diags = Vec::new();
    for c in &model.lexed.comments {
        // Anchored at the start of the comment body so prose *mentioning*
        // the grammar (like this crate's own docs) is not an annotation.
        let body = c
            .text
            .trim_start_matches(['/', '!', '*'])
            .trim_start();
        let Some(rest) = body.strip_prefix("analysis: allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            diags.push(bad_allow(rel, c.line, snippet, "unterminated rule id"));
            continue;
        };
        let rule = rest[..close].trim();
        if !is_rule(rule) {
            diags.push(bad_allow(
                rel,
                c.line,
                snippet,
                &format!("unknown rule `{rule}`"),
            ));
            continue;
        }
        // Reason: everything after the `)` and a separator (— or - or :).
        let reason = rest[close + 1..]
            .trim_start()
            .trim_start_matches(['—', '-', ':'])
            .trim();
        if reason.is_empty() {
            diags.push(bad_allow(
                rel,
                c.line,
                snippet,
                "missing reason — every exemption must say why",
            ));
            continue;
        }
        allows.push(Allow {
            rule: rule.to_string(),
            line: c.line,
            used: false,
        });
    }
    (allows, diags)
}

fn bad_allow(rel: &str, line: u32, snippet: &dyn Fn(u32) -> String, why: &str) -> Diagnostic {
    Diagnostic {
        rule: "bad-allow",
        file: rel.to_string(),
        line,
        message: format!("malformed allow annotation: {why}"),
        snippet: snippet(line),
        hint: "write `// analysis: allow(<rule>) — <reason>` with a known rule id and a \
               non-empty reason"
            .to_string(),
        chain: Vec::new(),
    }
}

/// `Condvar::wait` outside a loop loses wakeups: condition variables may
/// wake spuriously, so the predicate must be re-checked in a `while`/`loop`.
/// `wait_while` loops internally and is exempt; so is a no-argument
/// `.wait()` (some other type's method, e.g. a latch).
fn condvar_wait_loop(
    rel: &str,
    src: &str,
    model: &FileModel,
    snippet: &dyn Fn(u32) -> String,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &model.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || model.is_excluded(t.line) {
            continue;
        }
        let text = &src[t.start..t.end];
        if text != "wait" && text != "wait_timeout" {
            continue;
        }
        let at = |k: usize| toks.get(k).map(|n| &src[n.start..n.end]);
        let prev = i.checked_sub(1).and_then(|j| Some(&src[toks.get(j)?.start..toks[j].end]));
        if prev != Some(".") || at(i + 1) != Some("(") || at(i + 2) == Some(")") {
            continue; // not a call, or argument-less (not a Condvar wait)
        }
        // Inside a loop between here and the nearest enclosing fn?
        let enclosing = model.enclosing_blocks(i);
        let after_fn = enclosing
            .iter()
            .rposition(|b| b.introducer == Introducer::Fn)
            .map_or(&enclosing[..], |fi| &enclosing[fi..]);
        let looped = after_fn.iter().any(|b| {
            matches!(
                b.introducer,
                Introducer::While | Introducer::Loop | Introducer::For
            )
        });
        if !looped {
            out.push(Diagnostic {
                rule: "condvar-wait-loop",
                file: rel.to_string(),
                line: t.line,
                message: format!(
                    "`.{text}()` on a condition variable outside a loop — spurious wakeups \
                     will be treated as real"
                ),
                snippet: snippet(t.line),
                hint: "re-check the predicate in a `while` loop around the wait, or use \
                       `wait_while`"
                    .to_string(),
                chain: Vec::new(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::WorkspaceFacts;
    use crate::graph::CallGraph;

    const SERVER: &str = "crates/serve/src/server.rs";
    const POOL: &str = "crates/tensor/src/kernels/pool.rs";

    fn cfg() -> Config {
        Config::default_workspace()
    }

    fn run(rel: &str, src: &str) -> FileFindings {
        check_file_model(rel, src, &FileModel::build(src), &cfg())
    }

    fn used(f: &FileFindings) -> usize {
        f.allows.iter().filter(|a| a.used).count()
    }

    /// Lines of the `panic-reachability` findings in a one-file workspace
    /// whose `handle_connection` is the serve entry point.
    fn reachable_panics(src: &str) -> Vec<u32> {
        let mut facts = WorkspaceFacts::default();
        facts.add_file(SERVER, src, &FileModel::build(src));
        let graph = CallGraph::build(&facts);
        crate::interproc::run(&facts, &graph, &cfg())
            .iter()
            .filter(|d| d.rule == "panic-reachability")
            .map(|d| d.line)
            .collect()
    }

    /// A condvar wait outside any loop: one `condvar-wait-loop` finding on
    /// line 3, under whatever annotation line 2 carries.
    fn unlooped_wait(annotation: &str) -> String {
        format!("fn f(c: &Condvar, g: Guard) {{\n    {annotation}\n    let _g = c.wait(g);\n}}\n")
    }

    #[test]
    fn unwrap_and_panicking_macros_are_flagged() {
        let src = "pub fn handle_connection() { decode(None); }\nfn decode(x: Option<u8>) -> u8 {\n    let v = x.unwrap();\n    if v > 9 { panic!(\"no\") }\n    v\n}\n";
        assert_eq!(reachable_panics(src), vec![3, 4]);
    }

    #[test]
    fn unwrap_or_variants_and_test_code_are_not_flagged() {
        let src = "pub fn handle_connection() { decode(None); }\nfn decode(x: Option<u8>) -> u8 { x.unwrap_or(0).max(x.unwrap_or_default()) }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); assert_eq!(1, 1); }\n}\n";
        assert!(reachable_panics(src).is_empty());
    }

    #[test]
    fn commented_out_panic_and_string_panic_are_not_flagged() {
        let src = "pub fn handle_connection() { decode(); }\n// panic!(\"dead code\")\nfn decode() -> &'static str { \"unwrap() inside a string\" }\n";
        assert!(reachable_panics(src).is_empty());
    }

    #[test]
    fn allow_annotation_with_reason_suppresses_and_counts() {
        let src =
            unlooped_wait("// analysis: allow(condvar-wait-loop) — the caller re-checks the predicate");
        let f = run(POOL, &src);
        assert!(f.diagnostics.is_empty(), "{:?}", f.diagnostics);
        assert_eq!(used(&f), 1);
    }

    #[test]
    fn allow_without_reason_or_unknown_rule_is_bad_allow() {
        // `lock-hygiene` was a rule once; clippy enforces it now, so an
        // annotation naming it is as unknown as a typo.
        let src = "// analysis: allow(condvar-wait-loop)\n// analysis: allow(lock-hygiene) — whatever\nfn f() {}\n";
        let f = run(POOL, src);
        let found: Vec<_> = f.diagnostics.iter().map(|d| (d.rule, d.line)).collect();
        assert_eq!(found, vec![("bad-allow", 1), ("bad-allow", 2)]);
        assert!(f.diagnostics[0].message.contains("missing reason"));
        assert!(f.diagnostics[1].message.contains("unknown rule `lock-hygiene`"));
    }

    #[test]
    fn allow_for_the_wrong_rule_does_not_suppress() {
        let src = unlooped_wait("// analysis: allow(hot-path-alloc) — wrong rule");
        let f = run(POOL, &src);
        assert_eq!(f.diagnostics.len(), 1);
        assert_eq!(f.diagnostics[0].rule, "condvar-wait-loop");
        assert_eq!(used(&f), 0);
    }

    #[test]
    fn condvar_wait_outside_loop_is_flagged_inside_loop_is_not() {
        let bad = "fn f(c: &Condvar, g: Guard) { let _g = c.wait(g); }\n";
        let f = run(POOL, bad);
        assert_eq!(f.diagnostics.len(), 1);
        assert_eq!(f.diagnostics[0].rule, "condvar-wait-loop");
        let good = "fn f(c: &Condvar, mut g: Guard) {\n    while !*g { g = c.wait(g).unwrap_or_else(std::sync::PoisonError::into_inner); }\n}\n";
        assert!(run(POOL, good).diagnostics.is_empty());
    }

    #[test]
    fn argless_wait_and_wait_while_are_exempt() {
        let src = "fn f(l: &Latch, c: &Condvar, g: Guard) {\n    l.wait();\n    let _g = c.wait_while(g, |v| !*v);\n}\n";
        assert!(run(POOL, src).diagnostics.is_empty());
    }

    #[test]
    fn out_of_scope_files_are_not_checked() {
        let src = unlooped_wait("");
        assert!(run("crates/cli/src/commands.rs", &src).diagnostics.is_empty());
    }

    #[test]
    fn unsafe_sites_are_exported_for_ledger_reconciliation() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller contract\n    unsafe { *p }\n}\n";
        let f = run(POOL, src);
        assert_eq!(f.unsafe_sites.len(), 1);
        // vendored files do not contribute ledger entries
        assert!(run("vendor/rand/src/lib.rs", src).unsafe_sites.is_empty());
    }
}
