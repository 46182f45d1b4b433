//! Workspace self-check: the committed tree must satisfy every
//! `dcdiff-analysis` contract (unsafe sites reconciled against
//! `UNSAFE_LEDGER.md`, condvar waits in loops, well-formed allow
//! annotations, and the interprocedural reachability rules). This is the
//! same check CI gates on via `dcdiff lint`; running it as a test keeps
//! `cargo test` and the CI lint step from drifting apart. Panic-freedom,
//! bounds checks and SAFETY comments are clippy's job (CI's clippy step),
//! and registered telemetry names are the compiler's (ANALYSIS.md).

use std::path::Path;

use dcdiff_analysis::{analyze_workspace, analyze_workspace_graph, Config, RULES};

/// Ceiling on the call-graph unresolved rate. Must match the
/// `--max-unresolved` value in `.github/workflows/ci.yml`: the
/// interprocedural rules are blind to calls the resolver cannot place,
/// so resolution quality is itself a gated contract. Actual rate on the
/// committed tree is ~0.001; the order-of-magnitude headroom absorbs
/// ordinary growth without letting a real resolver regression through.
const MAX_UNRESOLVED_RATE: f64 = 0.01;

fn workspace_root() -> &'static Path {
    // The root package's manifest dir IS the workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_is_lint_clean() {
    let report = analyze_workspace(workspace_root(), &Config::default_workspace())
        .expect("workspace walk succeeds");
    assert!(
        report.is_clean(),
        "workspace has lint violations:\n{}",
        report.render()
    );
    assert!(report.files > 0, "walker found no Rust files");
}

#[test]
fn every_rule_runs_clean_in_isolation() {
    // Exercises the --rule path: each rule individually must also be clean
    // (catches scoping mistakes where a rule only passes because another
    // rule's allow annotation shadows it).
    for rule in RULES {
        let mut cfg = Config::default_workspace();
        cfg.only = Some((*rule).to_string());
        let report = analyze_workspace(workspace_root(), &cfg)
            .unwrap_or_else(|e| panic!("rule {rule}: {e}"));
        assert!(
            report.is_clean(),
            "rule {rule} has violations:\n{}",
            report.render()
        );
    }
}

#[test]
fn call_graph_resolution_stays_under_threshold() {
    let analyzed = analyze_workspace_graph(workspace_root(), &Config::default_workspace())
        .expect("workspace walk succeeds");
    let stats = analyzed
        .report
        .graph
        .as_ref()
        .expect("interprocedural rules ran, so graph stats exist");
    assert!(stats.functions > 0, "fact extraction found no functions");
    assert!(
        stats.hot_functions > 0,
        "no `// analysis: hot` functions found — hot-path-alloc is checking nothing"
    );
    assert!(
        stats.unresolved_rate() <= MAX_UNRESOLVED_RATE,
        "call-graph unresolved rate {:.4} exceeds {MAX_UNRESOLVED_RATE} \
         ({} of {} calls); run `dcdiff lint --graph` to list the sites",
        stats.unresolved_rate(),
        stats.unresolved,
        stats.calls
    );
}

#[test]
fn committed_ledger_matches_generated() {
    // `--update-ledger` must be a no-op on a clean tree: if this fails, an
    // unsafe site changed without re-running the regeneration step.
    let root = workspace_root();
    let generated = dcdiff_analysis::generate_ledger(root, &Config::default_workspace())
        .expect("ledger generation succeeds");
    let committed = std::fs::read_to_string(root.join(dcdiff_analysis::LEDGER_FILE))
        .expect("UNSAFE_LEDGER.md is committed");
    assert_eq!(
        committed.trim(),
        generated.trim(),
        "UNSAFE_LEDGER.md is stale; run `dcdiff lint --update-ledger`"
    );
}
