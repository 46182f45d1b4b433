//! Diagnostics: what a rule reports and how a run is serialised.

use std::fmt;

use crate::graph::GraphStats;

/// One step of an entry-point→offense call chain. The first step is the
/// entry function at its definition; each later step names the callee,
/// located at the call site inside its caller (for lock-order cycles the
/// `symbol` describes the acquired-while-held edge instead).
#[derive(Debug, Clone)]
pub struct ChainStep {
    /// Fully-qualified symbol (or edge description).
    pub symbol: String,
    /// Workspace-relative path of the call site.
    pub file: String,
    /// 1-based line of the call site.
    pub line: u32,
}

/// One finding from one rule at one source location.
#[derive(Debug, Clone, Default)]
pub struct Diagnostic {
    /// Rule identifier, e.g. `panic-reachability`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// How to fix it (or how to annotate it away with a reason).
    pub hint: String,
    /// For interprocedural rules: the full call chain from the entry
    /// point (or hot function) to the offense. Empty for file-local rules.
    pub chain: Vec<ChainStep>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)?;
        if !self.snippet.is_empty() {
            writeln!(f, "    | {}", self.snippet)?;
        }
        for (i, step) in self.chain.iter().enumerate() {
            let arrow = if i == 0 { "chain:" } else { "   ->" };
            writeln!(
                f,
                "    {arrow} {} ({}:{})",
                step.symbol, step.file, step.line
            )?;
        }
        if !self.hint.is_empty() {
            writeln!(f, "    = hint: {}", self.hint)?;
        }
        Ok(())
    }
}

/// The result of linting a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, in (file, line) order.
    pub diagnostics: Vec<Diagnostic>,
    /// Files scanned.
    pub files: usize,
    /// `// analysis: allow(...)` annotations honoured (sites exempted).
    pub allows_used: usize,
    /// Call-graph resolution statistics, when the interprocedural rules
    /// ran (None under `--rule <file-local-rule>`).
    pub graph: Option<GraphStats>,
}

impl Report {
    /// True when no rule fired.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Findings for one rule id.
    pub fn by_rule<'a>(&'a self, rule: &'a str) -> impl Iterator<Item = &'a Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.rule == rule)
    }

    /// Machine-readable report: one JSON object with a `diagnostics` array.
    /// Stable field order so the CI artifact diffs cleanly run-to-run.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.diagnostics.len() * 160);
        out.push_str("{\"files\":");
        out.push_str(&self.files.to_string());
        out.push_str(",\"allows_used\":");
        out.push_str(&self.allows_used.to_string());
        if let Some(g) = &self.graph {
            out.push_str(",\"graph\":{\"functions\":");
            out.push_str(&g.functions.to_string());
            out.push_str(",\"calls\":");
            out.push_str(&g.calls.to_string());
            out.push_str(",\"resolved\":");
            out.push_str(&g.resolved.to_string());
            out.push_str(",\"external\":");
            out.push_str(&g.external.to_string());
            out.push_str(",\"unresolved\":");
            out.push_str(&g.unresolved.to_string());
            out.push_str(",\"unresolved_rate\":");
            out.push_str(&format!("{:.4}", g.unresolved_rate()));
            out.push_str(",\"hot_functions\":");
            out.push_str(&g.hot_functions.to_string());
            out.push('}');
        }
        out.push_str(",\"violations\":");
        out.push_str(&self.diagnostics.len().to_string());
        out.push_str(",\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // `escape_into` wraps its argument in quotes itself.
            out.push_str("{\"rule\":");
            dcdiff_telemetry::json::escape_into(&mut out, d.rule);
            out.push_str(",\"file\":");
            dcdiff_telemetry::json::escape_into(&mut out, &d.file);
            out.push_str(",\"line\":");
            out.push_str(&d.line.to_string());
            out.push_str(",\"message\":");
            dcdiff_telemetry::json::escape_into(&mut out, &d.message);
            out.push_str(",\"snippet\":");
            dcdiff_telemetry::json::escape_into(&mut out, &d.snippet);
            out.push_str(",\"hint\":");
            dcdiff_telemetry::json::escape_into(&mut out, &d.hint);
            out.push_str(",\"chain\":[");
            for (j, step) in d.chain.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"symbol\":");
                dcdiff_telemetry::json::escape_into(&mut out, &step.symbol);
                out.push_str(",\"file\":");
                dcdiff_telemetry::json::escape_into(&mut out, &step.file);
                out.push_str(",\"line\":");
                out.push_str(&step.line.to_string());
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Human-readable report: every diagnostic plus a one-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
        }
        out.push_str(&format!(
            "{} file(s) scanned, {} allow annotation(s) honoured, {} violation(s)\n",
            self.files,
            self.allows_used,
            self.diagnostics.len()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic {
            rule: "panic-reachability",
            file: "crates/jpeg/src/codec.rs".to_string(),
            line: 42,
            message: "`unwrap()` on untrusted data".to_string(),
            snippet: "let v = table.unwrap();".to_string(),
            hint: "propagate a JpegError instead".to_string(),
            chain: Vec::new(),
        }
    }

    #[test]
    fn display_includes_location_rule_and_hint() {
        let text = sample().to_string();
        assert!(text.contains("crates/jpeg/src/codec.rs:42"));
        assert!(text.contains("[panic-reachability]"));
        assert!(text.contains("hint:"));
    }

    #[test]
    fn json_is_parseable_and_escapes_quotes() {
        let mut report = Report::default();
        let mut d = sample();
        d.snippet = "panic!(\"bad byte\")".to_string();
        report.diagnostics.push(d);
        report.files = 3;
        let json = report.to_json();
        // must survive the workspace's own flat-JSON parser for the scalar
        // fields and stay a single line
        assert!(!json.contains('\n'));
        assert!(json.starts_with("{\"files\":3,"));
        assert!(json.contains("\"violations\":1"));
        // the inner quotes must be escaped, not terminate the string early
        assert!(json.contains(r#"panic!(\"bad byte\")"#));
    }

    #[test]
    fn chain_renders_in_display_and_json() {
        let mut d = sample();
        d.rule = "panic-reachability";
        d.chain = vec![
            ChainStep {
                symbol: "dcdiff_serve::server::handle_connection".to_string(),
                file: "crates/serve/src/server.rs".to_string(),
                line: 301,
            },
            ChainStep {
                symbol: "dcdiff_jpeg::codec::decode".to_string(),
                file: "crates/serve/src/server.rs".to_string(),
                line: 412,
            },
        ];
        let text = d.to_string();
        assert!(text.contains("chain: dcdiff_serve::server::handle_connection"));
        assert!(text.contains("-> dcdiff_jpeg::codec::decode (crates/serve/src/server.rs:412)"));
        let mut report = Report::default();
        report.diagnostics.push(d);
        let json = report.to_json();
        assert!(json.contains(
            "\"chain\":[{\"symbol\":\"dcdiff_serve::server::handle_connection\""
        ));
        assert!(!json.contains('\n'));
    }

    #[test]
    fn graph_stats_serialise_when_present() {
        let report = Report {
            graph: Some(crate::graph::GraphStats {
                functions: 10,
                calls: 40,
                resolved: 30,
                external: 8,
                unresolved: 2,
                hot_functions: 3,
                unresolved_names: Vec::new(),
            }),
            ..Report::default()
        };
        let json = report.to_json();
        assert!(json.contains("\"graph\":{\"functions\":10,\"calls\":40,"));
        assert!(json.contains("\"unresolved_rate\":0.0500"));
        assert!(json.contains("\"hot_functions\":3"));
    }

    #[test]
    fn clean_report_renders_zero_summary() {
        let report = Report {
            files: 7,
            ..Report::default()
        };
        assert!(report.is_clean());
        assert!(report.render().contains("0 violation(s)"));
        assert!(report.to_json().contains("\"diagnostics\":[]"));
    }
}
