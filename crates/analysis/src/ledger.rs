//! The unsafe ledger: `UNSAFE_LEDGER.md` parsing, generation, and
//! reconciliation.
//!
//! The ledger is a committed markdown table with one row per audited
//! unsafe site. Reconciliation keys on `(file, content hash)` — the hash
//! is FNV-1a over the site's whitespace-normalised text — so entries
//! survive unrelated edits that shift line numbers, but any change to the
//! unsafe code itself invalidates its entry and forces a re-review. The
//! recorded line window is informational only. A row counts as reviewed
//! only once its generated [`PLACEHOLDER`] justification is replaced.

use crate::diag::Diagnostic;
use crate::parse::UnsafeSite;

/// Prefix of the justification [`generate`] writes for a site no one has
/// reviewed yet.
pub const PLACEHOLDER: &str = "TODO: justify";

/// One committed ledger row.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Workspace-relative path.
    pub file: String,
    /// Informational `start-end` line window at the time of writing.
    pub lines: String,
    /// `block` / `fn` / `impl`.
    pub kind: String,
    /// FNV-1a 64-bit hash of the normalised site text.
    pub hash: u64,
    /// Why the site is sound (mirrors the `// SAFETY:` comment).
    pub note: String,
    /// 1-based line of this row in the ledger file (for diagnostics).
    pub row_line: u32,
}

/// Parse `UNSAFE_LEDGER.md`. Rows are markdown table lines
/// `| file | lines | kind | hash | justification |`; the header and the
/// `|---|` separator are skipped, as is any prose around the table.
pub fn parse(text: &str) -> Vec<Entry> {
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cols: Vec<&str> = line
            .trim_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        if cols.len() != 5 || cols[0] == "file" || cols[0].starts_with("---") {
            continue;
        }
        let Ok(hash) = u64::from_str_radix(cols[3].trim_start_matches("0x"), 16) else {
            continue;
        };
        entries.push(Entry {
            file: cols[0].trim_matches('`').to_string(),
            lines: cols[1].to_string(),
            kind: cols[2].to_string(),
            hash,
            note: cols[4].to_string(),
            row_line: (i + 1) as u32,
        });
    }
    entries
}

/// Render a fresh ledger from the sites found in the workspace, keeping
/// the justification text of any matching existing entry.
pub fn generate(sites: &[(String, UnsafeSite)], existing: &[Entry]) -> String {
    let mut out = String::from(
        "# Unsafe ledger\n\n\
         Every `unsafe` site in the workspace, reconciled by `dcdiff lint`\n\
         (rule `unsafe-ledger`). The hash is FNV-1a over the site text with\n\
         whitespace removed: editing the unsafe code invalidates the entry\n\
         and fails the lint until the row is re-reviewed. Regenerate with\n\
         `dcdiff lint --update-ledger` (existing justifications are kept\n\
         for unchanged sites).\n\n\
         | file | lines | kind | hash | justification |\n\
         |------|-------|------|------|---------------|\n",
    );
    let mut rows: Vec<&(String, UnsafeSite)> = sites.iter().collect();
    rows.sort_by(|a, b| (&a.0, a.1.line).cmp(&(&b.0, b.1.line)));
    for (file, site) in rows {
        let note = existing
            .iter()
            .find(|e| e.file == *file && e.hash == site.hash)
            .map_or_else(
                || format!("{PLACEHOLDER} — `{}`", site.excerpt.replace('|', "\\|")),
                |e| e.note.clone(),
            );
        out.push_str(&format!(
            "| `{}` | {}-{} | {} | {:016x} | {} |\n",
            file,
            site.line,
            site.line_end,
            site.kind.label(),
            site.hash,
            note,
        ));
    }
    out
}

/// Reconcile the workspace's unsafe sites against the committed ledger.
/// Produces `unsafe-ledger` diagnostics for sites missing from the ledger
/// (new or edited unsafe code), for stale ledger rows whose site no
/// longer exists, and for live rows whose justification is still the
/// generated [`PLACEHOLDER`].
pub fn reconcile(
    sites: &[(String, UnsafeSite)],
    entries: &[Entry],
    out: &mut Vec<Diagnostic>,
) {
    for (file, site) in sites {
        let ledgered = entries.iter().any(|e| e.file == *file && e.hash == site.hash);
        if !ledgered {
            out.push(Diagnostic {
                rule: "unsafe-ledger",
                file: file.clone(),
                line: site.line,
                message: format!(
                    "unsafe {} (hash {:016x}) is not in UNSAFE_LEDGER.md — new or edited \
                     unsafe code must be re-reviewed",
                    site.kind.label(),
                    site.hash
                ),
                snippet: site.excerpt.clone(),
                hint: "run `dcdiff lint --update-ledger`, then replace the TODO justification \
                       with the reviewed soundness argument"
                    .to_string(),
                chain: Vec::new(),
            });
        }
    }
    for e in entries {
        let live = sites.iter().any(|(f, s)| f == &e.file && s.hash == e.hash);
        if live && e.note.starts_with(PLACEHOLDER) {
            out.push(Diagnostic {
                rule: "unsafe-ledger",
                file: "UNSAFE_LEDGER.md".to_string(),
                line: e.row_line,
                message: format!(
                    "unreviewed ledger row: the unsafe {} in `{}` (hash {:016x}) still has the \
                     generated placeholder justification",
                    e.kind, e.file, e.hash
                ),
                snippet: format!("| `{}` | {} | {} | … | {} |", e.file, e.lines, e.kind, e.note),
                hint: "replace the TODO justification with the reviewed soundness argument"
                    .to_string(),
                chain: Vec::new(),
            });
        }
        if !live {
            out.push(Diagnostic {
                rule: "unsafe-ledger",
                file: "UNSAFE_LEDGER.md".to_string(),
                line: e.row_line,
                message: format!(
                    "stale ledger row: no unsafe site in `{}` matches hash {:016x}",
                    e.file, e.hash
                ),
                snippet: format!("| `{}` | {} | {} | … |", e.file, e.lines, e.kind),
                hint: "run `dcdiff lint --update-ledger` to drop rows for removed unsafe code"
                    .to_string(),
                chain: Vec::new(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::FileModel;

    fn site(src: &str) -> UnsafeSite {
        FileModel::build(src).unsafe_sites[0].clone()
    }

    #[test]
    fn generate_then_parse_roundtrips() {
        let s = site("fn f(p: *const u8) -> u8 { unsafe { *p } }");
        let sites = vec![("crates/x/src/a.rs".to_string(), s.clone())];
        let text = generate(&sites, &[]);
        let entries = parse(&text);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].file, "crates/x/src/a.rs");
        assert_eq!(entries[0].hash, s.hash);
        assert!(entries[0].note.starts_with("TODO"));
    }

    #[test]
    fn regeneration_preserves_existing_justifications() {
        let s = site("fn f(p: *const u8) -> u8 { unsafe { *p } }");
        let sites = vec![("crates/x/src/a.rs".to_string(), s)];
        let mut entries = parse(&generate(&sites, &[]));
        entries[0].note = "p is valid per caller contract".to_string();
        let regenerated = generate(&sites, &entries);
        assert!(regenerated.contains("p is valid per caller contract"));
        assert!(!regenerated.contains("TODO"));
    }

    /// A ledger for `sites` whose rows have all been reviewed.
    fn reviewed(sites: &[(String, UnsafeSite)]) -> Vec<Entry> {
        let mut entries = parse(&generate(sites, &[]));
        for e in &mut entries {
            e.note = "p is valid for reads per the caller contract".to_string();
        }
        entries
    }

    #[test]
    fn reconcile_is_quiet_when_ledger_matches() {
        let s = site("fn f(p: *const u8) -> u8 { unsafe { *p } }");
        let sites = vec![("crates/x/src/a.rs".to_string(), s)];
        let entries = reviewed(&sites);
        let mut diags = Vec::new();
        reconcile(&sites, &entries, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn edited_unsafe_code_invalidates_its_entry() {
        let old = site("fn f(p: *const u8) -> u8 { unsafe { *p } }");
        let entries = parse(&generate(&[("crates/x/src/a.rs".to_string(), old)], &[]));
        let edited = site("fn f(p: *const u8) -> u8 { unsafe { p.read() } }");
        let sites = vec![("crates/x/src/a.rs".to_string(), edited)];
        let mut diags = Vec::new();
        reconcile(&sites, &entries, &mut diags);
        // one missing-site diagnostic AND one stale-row diagnostic
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().any(|d| d.file == "crates/x/src/a.rs"));
        assert!(diags.iter().any(|d| d.file == "UNSAFE_LEDGER.md"));
    }

    #[test]
    fn placeholder_justification_is_a_finding() {
        let s = site("fn f(p: *const u8) -> u8 { unsafe { *p } }");
        let sites = vec![("crates/x/src/a.rs".to_string(), s)];
        let entries = parse(&generate(&sites, &[]));
        let mut diags = Vec::new();
        reconcile(&sites, &entries, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "unsafe-ledger");
        assert_eq!(diags[0].file, "UNSAFE_LEDGER.md");
        assert_eq!(diags[0].line, entries[0].row_line);
        assert!(diags[0].message.contains("placeholder"), "{}", diags[0].message);
    }

    #[test]
    fn line_drift_does_not_invalidate_entries() {
        let s1 = site("fn f(p: *const u8) -> u8 { unsafe { *p } }");
        let entries = reviewed(&[("crates/x/src/a.rs".to_string(), s1)]);
        // Same code, different position/formatting in the file.
        let drifted = site("\n\n\nfn f(p: *const u8) -> u8 {\n    unsafe {\n        *p\n    }\n}");
        let mut diags = Vec::new();
        reconcile(
            &[("crates/x/src/a.rs".to_string(), drifted)],
            &entries,
            &mut diags,
        );
        assert!(diags.is_empty(), "{diags:?}");
    }
}
