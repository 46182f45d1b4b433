//! Workspace self-check: every unsafe site in the committed tree is
//! reconciled against `UNSAFE_LEDGER.md`, the same check `dcdiff lint`
//! runs. Panic-freedom, bounds checks, SAFETY comments, condvar waits and
//! the ranked lock types are clippy's job (CI's clippy step), registered
//! telemetry names the compiler's, and the per-job panic boundary, hot-path
//! allocations and lock order are checked by tests (ANALYSIS.md).

use std::path::Path;

use dcdiff_analysis::analyze_workspace;

fn workspace_root() -> &'static Path {
    // The root package's manifest dir IS the workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_is_lint_clean() {
    let report = analyze_workspace(workspace_root()).expect("workspace walk succeeds");
    assert!(
        report.is_clean(),
        "workspace has lint violations:\n{}",
        report.render()
    );
    assert!(report.files > 0, "walker found no Rust files");
}

#[test]
fn committed_ledger_matches_generated() {
    // `--update-ledger` must be a no-op on a clean tree: if this fails, an
    // unsafe site changed without re-running the regeneration step.
    let root = workspace_root();
    let generated = dcdiff_analysis::generate_ledger(root).expect("ledger generation succeeds");
    let committed = std::fs::read_to_string(root.join(dcdiff_analysis::LEDGER_FILE))
        .expect("UNSAFE_LEDGER.md is committed");
    assert_eq!(
        committed.trim(),
        generated.trim(),
        "UNSAFE_LEDGER.md is stale; run `dcdiff lint --update-ledger`"
    );
}
