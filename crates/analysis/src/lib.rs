//! dcdiff-analysis: the workspace's unsafe ledger.
//!
//! The toolchain enforces what it can express: crate-root clippy denies,
//! `clippy.toml` and the workspace lint table cover panic-freedom, bounds
//! checks, `// SAFETY:` comments, condvar waits and the ranked lock types,
//! and the `dcdiff_telemetry::names::Name` type makes unregistered
//! telemetry names a compile error (ANALYSIS.md has the table). This crate
//! checks the one contract with no toolchain equivalent: every `unsafe`
//! site is reconciled against the committed [`UNSAFE_LEDGER.md`] by
//! content hash, so an edited unsafe site fails until its row is
//! re-reviewed, even when its `// SAFETY:` comment still satisfies clippy.
//! A row whose justification is still the generated placeholder counts as
//! unreviewed.
//!
//! A hand-written lexer ([`lexer`]) and structural scanner ([`parse`])
//! find the sites; [`ledger`] parses, generates and reconciles the table.
//! Entry points: [`analyze_workspace`] and [`generate_ledger`]; `dcdiff
//! lint` is a thin shell around them.
//!
//! [`UNSAFE_LEDGER.md`]: https://github.com/dcdiff/dcdiff/blob/main/UNSAFE_LEDGER.md

pub mod ledger;
pub mod lexer;
pub mod parse;

use std::path::{Path, PathBuf};

/// Name of the committed ledger file at the workspace root.
pub const LEDGER_FILE: &str = "UNSAFE_LEDGER.md";

pub use diag::{Diagnostic, Report};

mod diag {
    //! What a check finds, and the report `dcdiff lint` prints.

    use std::fmt;

    /// One ledger finding at one source location.
    #[derive(Debug, Clone, Default)]
    pub struct Diagnostic {
        /// Workspace-relative path.
        pub file: String,
        /// 1-based line.
        pub line: u32,
        /// What is wrong.
        pub message: String,
        /// The offending source line, trimmed.
        pub snippet: String,
        /// How to fix it.
        pub hint: String,
    }

    impl fmt::Display for Diagnostic {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            writeln!(
                f,
                "{}:{}: [unsafe-ledger] {}",
                self.file, self.line, self.message
            )?;
            if !self.snippet.is_empty() {
                writeln!(f, "    | {}", self.snippet)?;
            }
            if !self.hint.is_empty() {
                writeln!(f, "    = hint: {}", self.hint)?;
            }
            Ok(())
        }
    }

    /// The result of checking a workspace.
    #[derive(Debug, Default)]
    pub struct Report {
        /// All findings, in (file, line) order.
        pub diagnostics: Vec<Diagnostic>,
        /// Files scanned.
        pub files: usize,
    }

    impl Report {
        /// True when the ledger matches the workspace.
        pub fn is_clean(&self) -> bool {
            self.diagnostics.is_empty()
        }

        /// Human-readable report: every diagnostic plus a one-line summary.
        pub fn render(&self) -> String {
            let mut out = String::new();
            for d in &self.diagnostics {
                out.push_str(&d.to_string());
            }
            out.push_str(&format!(
                "{} file(s) scanned, {} violation(s)\n",
                self.files,
                self.diagnostics.len()
            ));
            out
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn display_includes_location_rule_and_hint() {
            let text = Diagnostic {
                file: "crates/jpeg/src/codec.rs".to_string(),
                line: 42,
                message: "unsafe block is not in UNSAFE_LEDGER.md".to_string(),
                snippet: "unsafe { ptr.read() }".to_string(),
                hint: "run `dcdiff lint --update-ledger`".to_string(),
            }
            .to_string();
            assert!(text.contains("crates/jpeg/src/codec.rs:42: [unsafe-ledger]"));
            assert!(text.contains("| unsafe { ptr.read() }"));
            assert!(text.contains("hint:"));
        }

        #[test]
        fn clean_report_renders_zero_summary() {
            let report = Report {
                files: 7,
                ..Report::default()
            };
            assert!(report.is_clean());
            assert_eq!(report.render(), "7 file(s) scanned, 0 violation(s)\n");
        }
    }
}

mod config {
    //! Which files of the workspace the ledger audits.

    /// True for a directory the walk never enters: build output and
    /// dot-directories.
    pub(crate) fn skipped_dir(name: &str) -> bool {
        name == "target" || name.starts_with('.')
    }

    /// True for a workspace-relative file whose unsafe sites the ledger
    /// covers: everything but the vendored shims, which are third-party
    /// API stand-ins, not our contract.
    pub(crate) fn in_scope(rel: &str) -> bool {
        !rel.contains("vendor/")
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn vendored_shims_are_exempt_from_global_rules() {
            assert!(in_scope("crates/tensor/src/kernels/gemm.rs"));
            assert!(in_scope("tests/lint_clean.rs"));
            assert!(!in_scope("vendor/rand/src/lib.rs"));
            assert!(skipped_dir("target"));
            assert!(skipped_dir(".git"));
            assert!(!skipped_dir("vendor"));
        }
    }
}

/// Reconcile the workspace rooted at `root` against its `UNSAFE_LEDGER.md`.
///
/// Scans every `.rs` file (skipping `target/`, dot-directories and the
/// vendored shims, which are third-party API stand-ins, not our contract),
/// collects its unsafe sites, and reports sites missing from the ledger,
/// stale rows and unreviewed rows.
///
/// # Errors
///
/// Returns a message when the root cannot be walked; individual
/// non-UTF-8 files are skipped silently (the workspace has none).
pub fn analyze_workspace(root: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut sites: Vec<(String, parse::UnsafeSite)> = Vec::new();
    for path in walk(root)? {
        let rel = relative(root, &path);
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue; // non-UTF-8 (none in this workspace)
        };
        report.files += 1;
        sites.extend(unsafe_sites(&rel, &src));
    }
    match std::fs::read_to_string(root.join(LEDGER_FILE)) {
        Ok(text) => ledger::reconcile(&sites, &ledger::parse(&text), &mut report.diagnostics),
        Err(_) if sites.is_empty() => {}
        Err(_) => report.diagnostics.push(Diagnostic {
            file: LEDGER_FILE.to_string(),
            line: 1,
            message: format!(
                "{LEDGER_FILE} not found but the workspace has {} unsafe site(s)",
                sites.len()
            ),
            snippet: String::new(),
            hint: "seed it with `dcdiff lint --update-ledger`".to_string(),
        }),
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// Render a fresh `UNSAFE_LEDGER.md` for the workspace at `root`,
/// preserving justifications of unchanged sites from the existing ledger.
///
/// # Errors
///
/// Returns a message when the root cannot be walked.
pub fn generate_ledger(root: &Path) -> Result<String, String> {
    let mut sites = Vec::new();
    for path in walk(root)? {
        let rel = relative(root, &path);
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        sites.extend(unsafe_sites(&rel, &src));
    }
    let existing = std::fs::read_to_string(root.join(LEDGER_FILE))
        .map(|t| ledger::parse(&t))
        .unwrap_or_default();
    Ok(ledger::generate(&sites, &existing))
}

/// The ledger-audited unsafe sites of one file: none for the vendored
/// shims, and none in test code.
fn unsafe_sites(rel: &str, src: &str) -> Vec<(String, parse::UnsafeSite)> {
    if !config::in_scope(rel) {
        return Vec::new();
    }
    parse::FileModel::build(src)
        .unsafe_sites
        .into_iter()
        .map(|s| (rel.to_string(), s))
        .collect()
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
                if config::skipped_dir(&name) {
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

    /// Build a throwaway workspace under the system temp dir.
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

    const UNSAFE_FN: &str =
        "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller contract\n    unsafe { *p }\n}\n";

    #[test]
    fn seeded_violation_fixture_fails_the_lint() {
        // An unsafe site the committed ledger does not list.
        let ws = TempWs::new("seeded");
        ws.write("crates/tensor/src/kernels/x.rs", UNSAFE_FN);
        ws.write(LEDGER_FILE, &ledger::generate(&[], &[]));
        let report = analyze_workspace(&ws.root).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.diagnostics[0].file, "crates/tensor/src/kernels/x.rs");
        assert!(report.diagnostics[0].message.contains("not in UNSAFE_LEDGER.md"));
        assert!(report.render().contains("1 violation(s)"));
    }

    #[test]
    fn clean_fixture_passes_and_counts_files() {
        let ws = TempWs::new("clean");
        ws.write(
            "crates/jpeg/src/codec.rs",
            "pub fn decode(b: &[u8]) -> u8 { b.first().copied().unwrap_or(0) }\n",
        );
        ws.write("crates/cli/src/main.rs", "fn main() { None::<u8>.unwrap(); }\n");
        // Vendored shims and test code are outside the ledger.
        ws.write("vendor/rand/src/lib.rs", UNSAFE_FN);
        ws.write("crates/cli/src/t.rs", &format!("#[cfg(test)]\nmod tests {{\n{UNSAFE_FN}}}\n"));
        let report = analyze_workspace(&ws.root).unwrap();
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(report.files, 4);
        assert!(report.render().contains("4 file(s) scanned, 0 violation(s)"));
    }

    #[test]
    fn missing_ledger_with_unsafe_sites_is_a_violation() {
        let ws = TempWs::new("noledger");
        ws.write("crates/tensor/src/kernels/x.rs", UNSAFE_FN);
        let report = analyze_workspace(&ws.root).unwrap();
        assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
        assert!(report.diagnostics[0].message.contains("not found"));
    }

    #[test]
    fn generated_ledger_reconciles_clean() {
        let ws = TempWs::new("ledger");
        ws.write("crates/tensor/src/kernels/x.rs", UNSAFE_FN);
        // Review the generated row: its placeholder justification is a
        // finding of its own until replaced.
        let ledger: String = generate_ledger(&ws.root)
            .unwrap()
            .lines()
            .map(|l| match l.split_once(ledger::PLACEHOLDER) {
                Some((row, _)) => format!("{row}`p` is valid for reads per the caller contract |\n"),
                None => format!("{l}\n"),
            })
            .collect();
        fs::write(ws.root.join(LEDGER_FILE), ledger).unwrap();
        let report = analyze_workspace(&ws.root).unwrap();
        assert!(report.is_clean(), "{:?}", report.diagnostics);
    }
}
