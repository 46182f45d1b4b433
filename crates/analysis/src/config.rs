//! Rule catalogue and per-rule scoping.
//!
//! Every rule has a *scope*: the set of workspace-relative paths it applies
//! to. Scoping is data, not code, so the default workspace policy is a
//! single function a reader can audit in one screen. Policy the compiler
//! or clippy can enforce (panic-freedom, bounds checks, SAFETY comments,
//! registered telemetry names) lives next to the code it governs instead:
//! see ANALYSIS.md.

/// All rule identifiers, in the order diagnostics are reported.
pub const RULES: &[&str] = &[
    "unsafe-ledger",
    "condvar-wait-loop",
    "panic-reachability",
    "lock-order-cycle",
    "hot-path-alloc",
    "bad-allow",
];

/// The interprocedural rules: they run over the whole workspace call
/// graph, never per file.
pub const INTERPROC_RULES: &[&str] =
    &["panic-reachability", "lock-order-cycle", "hot-path-alloc"];

/// Is `rule` a known rule id?
pub fn is_rule(rule: &str) -> bool {
    RULES.contains(&rule)
}

/// Path scope for one rule.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    /// Path prefixes the rule applies to; empty means the whole workspace.
    pub include: Vec<String>,
    /// Substrings that exempt a path (checked after `include`).
    pub exclude: Vec<String>,
}

impl Scope {
    /// Does the rule apply to workspace-relative `path` (forward slashes)?
    pub fn applies(&self, path: &str) -> bool {
        let included =
            self.include.is_empty() || self.include.iter().any(|p| path.starts_with(p.as_str()));
        included && !self.exclude.iter().any(|p| path.contains(p.as_str()))
    }
}

/// A lint configuration: which rules run, and where.
#[derive(Debug, Clone)]
pub struct Config {
    /// When set, only this rule runs (`dcdiff lint --rule <id>`).
    pub only: Option<String>,
    /// Request-path entry points for `panic-reachability` and `--why`,
    /// matched as `::`-boundary symbol suffixes. Defaults to
    /// [`crate::interproc::DEFAULT_ENTRIES`].
    pub entries: Vec<String>,
    /// Per-rule scopes, parallel to [`RULES`].
    scopes: Vec<(&'static str, Scope)>,
}

impl Config {
    /// The workspace policy this repository commits to.
    ///
    /// * `unsafe-ledger` — workspace-wide except the vendored shims
    ///   (third-party API stand-ins, not our contract).
    /// * `condvar-wait-loop` — the places that do nontrivial
    ///   synchronisation: the tensor worker pool, the runtime and the
    ///   server.
    /// * `panic-reachability` / `lock-order-cycle` / `hot-path-alloc` —
    ///   the interprocedural rules; they walk the whole workspace call
    ///   graph and anchor findings at the offending site, so their scope
    ///   is everything but the vendored shims.
    /// * `bad-allow` — everywhere but the vendored shims: a malformed
    ///   escape hatch is never okay.
    pub fn default_workspace() -> Config {
        let scope = |include: &[&str], exclude: &[&str]| Scope {
            include: include.iter().map(|s| s.to_string()).collect(),
            exclude: exclude.iter().map(|s| s.to_string()).collect(),
        };
        Config {
            only: None,
            entries: crate::interproc::DEFAULT_ENTRIES
                .iter()
                .map(|s| s.to_string())
                .collect(),
            scopes: vec![
                ("unsafe-ledger", scope(&[], &["vendor/"])),
                (
                    "condvar-wait-loop",
                    scope(
                        &[
                            "crates/tensor/src/kernels/",
                            "crates/runtime/src/",
                            "crates/serve/src/",
                        ],
                        &[],
                    ),
                ),
                // The interprocedural rules anchor findings at the
                // offending site, which may be anywhere the request path
                // reaches — scope is the whole workspace minus the
                // vendored shims (the fact extractor already skips test
                // regions, examples, and benches).
                ("panic-reachability", scope(&[], &["vendor/"])),
                ("lock-order-cycle", scope(&[], &["vendor/"])),
                ("hot-path-alloc", scope(&[], &["vendor/"])),
                ("bad-allow", scope(&[], &["vendor/"])),
            ],
        }
    }

    /// Should `rule` run at all under this configuration?
    pub fn rule_enabled(&self, rule: &str) -> bool {
        match &self.only {
            Some(only) => only == rule,
            None => true,
        }
    }

    /// Should `rule` run on workspace-relative `path`?
    pub fn in_scope(&self, rule: &str, path: &str) -> bool {
        self.rule_enabled(rule)
            && self
                .scopes
                .iter()
                .find(|(r, _)| *r == rule)
                .is_some_and(|(_, s)| s.applies(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scopes_cover_the_contract_crates() {
        let cfg = Config::default_workspace();
        assert!(cfg.in_scope("condvar-wait-loop", "crates/tensor/src/kernels/pool.rs"));
        assert!(cfg.in_scope("condvar-wait-loop", "crates/runtime/src/queue.rs"));
        assert!(cfg.in_scope("condvar-wait-loop", "crates/serve/src/http.rs"));
        assert!(!cfg.in_scope("condvar-wait-loop", "crates/serve/tests/protocol.rs"));
        assert!(!cfg.in_scope("condvar-wait-loop", "crates/cli/src/commands.rs"));
        assert!(cfg.in_scope("panic-reachability", "crates/jpeg/src/codec.rs"));
        assert!(cfg.in_scope("panic-reachability", "crates/serve/src/server.rs"));
    }

    #[test]
    fn vendored_shims_are_exempt_from_global_rules() {
        let cfg = Config::default_workspace();
        for rule in ["unsafe-ledger", "bad-allow"] {
            assert!(cfg.in_scope(rule, "crates/tensor/src/kernels/gemm.rs"));
            assert!(!cfg.in_scope(rule, "vendor/rand/src/lib.rs"));
        }
    }

    #[test]
    fn interprocedural_rules_cover_everything_but_vendor() {
        let cfg = Config::default_workspace();
        for rule in INTERPROC_RULES {
            assert!(cfg.in_scope(rule, "crates/core/src/estimator.rs"));
            assert!(cfg.in_scope(rule, "crates/tensor/src/kernels/gemm.rs"));
            assert!(!cfg.in_scope(rule, "vendor/rand/src/lib.rs"));
        }
        assert!(!cfg.entries.is_empty());
    }

    #[test]
    fn rule_filter_disables_everything_else() {
        let mut cfg = Config::default_workspace();
        cfg.only = Some("condvar-wait-loop".to_string());
        assert!(cfg.in_scope("condvar-wait-loop", "crates/runtime/src/queue.rs"));
        assert!(!cfg.in_scope("unsafe-ledger", "crates/tensor/src/kernels/gemm.rs"));
        assert!(!cfg.rule_enabled("panic-reachability"));
    }

    #[test]
    fn rule_catalogue_is_consistent() {
        let cfg = Config::default_workspace();
        for rule in RULES {
            assert!(is_rule(rule));
            // every rule must have a scope entry (empty include = global)
            assert!(
                cfg.in_scope(rule, "crates/jpeg/src/bitstream.rs")
                    || !cfg.in_scope(rule, "definitely/not/a/path.rs")
            );
        }
        assert!(!is_rule("no-such-rule"));
        // Enforced by clippy or the compiler instead (ANALYSIS.md).
        for gone in
            ["no-panic", "no-unchecked-index", "unsafe-audit", "lock-hygiene", "telemetry-names"]
        {
            assert!(!is_rule(gone), "{gone}");
        }
    }
}
