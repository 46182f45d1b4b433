//! Bench-regression sentinel: compare the current `BENCH_*.json` outputs
//! against committed baselines and emit a machine-readable verdict.
//!
//! ```text
//! bench_diff [--baseline-dir crates/bench/baselines] [--current-dir .]
//!            [--out BENCH_verdict.json] [--tol 0.5] [--strict]
//! ```
//!
//! Every numeric leaf in a bench report is flattened to a dotted path
//! (`runs.0.wall_ms`, `gemm.square_256.blocked_gflops`); array elements
//! that carry a `"name"` field are keyed by that name so reordering a
//! sweep does not shuffle the comparison. Only metrics whose path implies
//! a direction are compared — timings/quantiles (`*_ms`, `*_us`, `*p50*`,
//! `*p99*`) must not grow, throughputs (`*gflops`, `*mbps`, `*rps`,
//! `*jobs_per_sec`, `*speedup*`, `*goodput*`) must not shrink — and each side gets a
//! symmetric tolerance band (default ±50%: CI machines are noisy and the
//! sentinel is meant to catch collapses, not jitter). Config echoes
//! (`threads`, shapes, byte counts) have no direction and are skipped.
//!
//! The verdict JSON lists every regression and improvement with its
//! baseline/current values and ratio, plus every directional baseline
//! metric the current report no longer has (`missing`), so a deleted or
//! renamed metric cannot pass silently. The exit status stays 0 unless
//! `--strict` is given, when any regression or missing metric fails it; the
//! CI step records the verdict as an artifact without flaking the build on
//! a shared runner's bad day.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

// ------------------------------------------------------------ JSON value --

/// Minimal JSON document model: just enough to flatten bench reports.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

/// Recursive-descent JSON parser over the full input text.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, reason: &str) -> String {
        format!("byte {}: {reason}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn parse_literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self.peek().is_some_and(|b| {
            b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
        }) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-utf8 number"))?;
        text.parse()
            .map(Json::Number)
            .map_err(|_| self.err(&format!("bad number {text:?}")))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are absent from bench reports;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(self.err(&format!("bad escape '\\{}'", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("non-utf8 string"))?,
                    );
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parse a complete JSON document (must consume all input).
fn parse_json(text: &str) -> Result<Json, String> {
    let mut parser = Parser::new(text);
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing garbage after document"));
    }
    Ok(value)
}

// ------------------------------------------------------------- flatten ---

/// The value of an object's `"name"` field, for keying array elements.
fn name_of(value: &Json) -> Option<&str> {
    if let Json::Object(fields) = value {
        fields.iter().find_map(|(k, v)| match v {
            Json::String(s) if k == "name" => Some(s.as_str()),
            _ => None,
        })
    } else {
        None
    }
}

/// Flatten every numeric leaf into `path -> value`. Objects append the
/// field name, arrays append the element's `"name"` field when it has one
/// (reorder-robust) or the index otherwise.
fn flatten(value: &Json, prefix: &str, out: &mut BTreeMap<String, f64>) {
    let join = |segment: &str| {
        if prefix.is_empty() {
            segment.to_string()
        } else {
            format!("{prefix}.{segment}")
        }
    };
    match value {
        Json::Number(v) => {
            out.insert(prefix.to_string(), *v);
        }
        Json::Object(fields) => {
            for (key, field) in fields {
                flatten(field, &join(key), out);
            }
        }
        Json::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                let segment = name_of(item).map_or_else(|| i.to_string(), str::to_string);
                flatten(item, &join(&segment), out);
            }
        }
        Json::Null | Json::Bool(_) | Json::String(_) => {}
    }
}

// ------------------------------------------------------------- compare ---

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    LowerIsBetter,
    HigherIsBetter,
}

/// Infer a metric's direction from its final path segment; `None` means the
/// leaf is configuration, not a measurement, and is skipped.
fn direction(path: &str) -> Option<Direction> {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    // Throughput wins ties: `max_rps_p99_compliant` mentions a quantile but
    // measures a rate.
    let higher = [
        "gflops",
        "mflops",
        "mbps",
        "rps",
        "jobs_per_sec",
        "speedup",
        "goodput",
        "_over_naive",
    ];
    if higher.iter().any(|s| leaf.contains(s)) {
        return Some(Direction::HigherIsBetter);
    }
    // `p99_within_deadline` is a boolean echo, not a quantile; booleans
    // never reach here because they are not numeric leaves.
    if leaf.ends_with("_ms")
        || leaf.ends_with("_us")
        || leaf.contains("p50")
        || leaf.contains("p99")
    {
        return Some(Direction::LowerIsBetter);
    }
    None
}

/// One compared metric that left its tolerance band.
#[derive(Debug, Clone)]
struct Delta {
    path: String,
    baseline: f64,
    current: f64,
    /// `current / baseline`, the regression factor in the metric's units.
    ratio: f64,
}

/// Comparison outcome for one bench file.
#[derive(Debug, Default)]
struct FileVerdict {
    compared: usize,
    skipped: usize,
    /// Directional baseline metrics absent from the current report.
    missing: Vec<String>,
    regressions: Vec<Delta>,
    improvements: Vec<Delta>,
}

/// Values this small are noise-dominated on shared runners (sub-millisecond
/// timings, sub-unit rates); comparing them produces flaky verdicts.
const MIN_MAGNITUDE: f64 = 1.0;

fn compare(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    tol: f64,
) -> FileVerdict {
    let mut verdict = FileVerdict::default();
    for (path, &base) in baseline {
        let Some(dir) = direction(path) else {
            continue;
        };
        let Some(&cur) = current.get(path) else {
            verdict.missing.push(path.clone());
            continue;
        };
        if base.abs() < MIN_MAGNITUDE {
            verdict.skipped += 1;
            continue;
        }
        verdict.compared += 1;
        let ratio = cur / base;
        let (worse, better) = match dir {
            Direction::LowerIsBetter => (ratio > 1.0 + tol, ratio < 1.0 - tol),
            Direction::HigherIsBetter => (ratio < 1.0 - tol, ratio > 1.0 + tol),
        };
        let delta = Delta {
            path: path.clone(),
            baseline: base,
            current: cur,
            ratio,
        };
        if worse {
            verdict.regressions.push(delta);
        } else if better {
            verdict.improvements.push(delta);
        }
    }
    verdict
}

// ------------------------------------------------------------- verdict ---

fn json_deltas(out: &mut String, key: &str, deltas: &[Delta]) {
    let _ = write!(out, "  \"{key}\": [");
    for (i, d) in deltas.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"metric\": \"{}\", \"baseline\": {}, \"current\": {}, \"ratio\": {:.4}}}",
            d.path, d.baseline, d.current, d.ratio
        );
    }
    let _ = writeln!(out, "{}]", if deltas.is_empty() { "" } else { "\n  " });
}

struct Args {
    baseline_dir: String,
    current_dir: String,
    out_path: String,
    tol: f64,
    strict: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        baseline_dir: "crates/bench/baselines".to_string(),
        current_dir: ".".to_string(),
        out_path: "BENCH_verdict.json".to_string(),
        tol: 0.5,
        strict: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = argv.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("flag {name} requires a value"))
        };
        match arg.as_str() {
            "--baseline-dir" => args.baseline_dir = value("--baseline-dir")?,
            "--current-dir" => args.current_dir = value("--current-dir")?,
            "--out" => args.out_path = value("--out")?,
            "--tol" => {
                let v = value("--tol")?;
                args.tol = v
                    .parse()
                    .map_err(|_| format!("--tol: '{v}' is not a number"))?;
            }
            "--strict" => args.strict = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.tol <= 0.0 || args.tol.is_nan() {
        return Err("--tol must be positive".to_string());
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let mut names: Vec<String> = std::fs::read_dir(&args.baseline_dir)
        .map_err(|e| format!("{}: {e}", args.baseline_dir))?
        .filter_map(Result::ok)
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    names.sort_unstable();
    if names.is_empty() {
        return Err(format!("{}: no BENCH_*.json baselines", args.baseline_dir));
    }

    let mut verdict_json = String::from("{\n");
    let _ = writeln!(verdict_json, "  \"tolerance\": {},", args.tol);
    let mut all_regressions = Vec::new();
    let mut all_improvements = Vec::new();
    let mut all_missing = Vec::new();
    let mut compared = 0usize;
    let mut skipped = 0usize;
    let mut files_json = Vec::new();

    for name in &names {
        let base_path = format!("{}/{name}", args.baseline_dir);
        let cur_path = format!("{}/{name}", args.current_dir);
        let base_text =
            std::fs::read_to_string(&base_path).map_err(|e| format!("{base_path}: {e}"))?;
        let cur_text =
            std::fs::read_to_string(&cur_path).map_err(|e| format!("{cur_path}: {e}"))?;
        let mut base_flat = BTreeMap::new();
        let mut cur_flat = BTreeMap::new();
        flatten(
            &parse_json(&base_text).map_err(|e| format!("{base_path}: {e}"))?,
            "",
            &mut base_flat,
        );
        flatten(
            &parse_json(&cur_text).map_err(|e| format!("{cur_path}: {e}"))?,
            "",
            &mut cur_flat,
        );
        let fv = compare(&base_flat, &cur_flat, args.tol);
        println!(
            "{name}: {} compared, {} skipped, {} missing, {} regression(s), {} improvement(s)",
            fv.compared,
            fv.skipped,
            fv.missing.len(),
            fv.regressions.len(),
            fv.improvements.len()
        );
        for path in &fv.missing {
            println!("  MISSING   {path}");
        }
        for d in &fv.regressions {
            println!(
                "  REGRESSED {}: {} -> {} ({:.2}x)",
                d.path, d.baseline, d.current, d.ratio
            );
        }
        for d in &fv.improvements {
            println!(
                "  improved  {}: {} -> {} ({:.2}x)",
                d.path, d.baseline, d.current, d.ratio
            );
        }
        compared += fv.compared;
        skipped += fv.skipped;
        let prefixed = |deltas: &[Delta]| -> Vec<Delta> {
            deltas
                .iter()
                .map(|d| Delta {
                    path: format!("{name}:{}", d.path),
                    ..d.clone()
                })
                .collect()
        };
        all_regressions.extend(prefixed(&fv.regressions));
        all_improvements.extend(prefixed(&fv.improvements));
        all_missing.extend(fv.missing.iter().map(|path| format!("\"{name}:{path}\"")));
        files_json.push(format!(
            "    {{\"file\": \"{name}\", \"compared\": {}, \"skipped\": {}, \"missing\": {}, \"regressions\": {}, \"improvements\": {}}}",
            fv.compared,
            fv.skipped,
            fv.missing.len(),
            fv.regressions.len(),
            fv.improvements.len()
        ));
    }

    let status = if !all_regressions.is_empty() {
        "regressed"
    } else if !all_missing.is_empty() {
        "missing"
    } else {
        "ok"
    };
    let _ = writeln!(verdict_json, "  \"status\": \"{status}\",");
    let _ = writeln!(verdict_json, "  \"compared\": {compared},");
    let _ = writeln!(verdict_json, "  \"skipped\": {skipped},");
    let _ = writeln!(verdict_json, "  \"missing\": [{}],", all_missing.join(", "));
    let _ = writeln!(verdict_json, "  \"files\": [\n{}\n  ],", files_json.join(",\n"));
    json_deltas(&mut verdict_json, "regressions", &all_regressions);
    verdict_json.pop();
    verdict_json.push_str(",\n");
    json_deltas(&mut verdict_json, "improvements", &all_improvements);
    verdict_json.push_str("}\n");
    std::fs::write(&args.out_path, &verdict_json)
        .map_err(|e| format!("{}: {e}", args.out_path))?;
    println!(
        "verdict: {status} ({compared} metric(s) compared, {} missing, tol ±{:.0}%) -> {}",
        all_missing.len(),
        args.tol * 100.0,
        args.out_path
    );
    Ok(status == "ok" || !args.strict)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench_diff: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(text: &str) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        flatten(&parse_json(text).unwrap(), "", &mut out);
        out
    }

    #[test]
    fn parser_handles_bench_shapes() {
        let doc = r#"{"a": 1.5, "b": [1, 2], "c": {"d": "x", "e": true, "f": null},
                      "neg": -3e-2, "esc": "a\"b\\c\ndA"}"#;
        let json = parse_json(doc).unwrap();
        let Json::Object(fields) = &json else {
            panic!("expected object")
        };
        assert_eq!(fields.len(), 5);
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2] trailing").is_err());
        assert!(parse_json("{\"a\": 01x}").is_err());
    }

    #[test]
    fn flatten_keys_named_array_elements_by_name() {
        let flat = flat(
            r#"{"runs": [{"workers": 1, "wall_ms": 10.0}],
                "gemm": [{"name": "square_256", "blocked_gflops": 60.0}]}"#,
        );
        assert_eq!(flat["runs.0.wall_ms"], 10.0);
        assert_eq!(flat["gemm.square_256.blocked_gflops"], 60.0);
        assert!(!flat.contains_key("gemm.0.blocked_gflops"));
    }

    #[test]
    fn direction_inference_by_suffix() {
        assert_eq!(direction("runs.0.wall_ms"), Some(Direction::LowerIsBetter));
        assert_eq!(
            direction("sweeps.0.p99_ms"),
            Some(Direction::LowerIsBetter)
        );
        assert_eq!(
            direction("gemm.square_256.blocked_gflops"),
            Some(Direction::HigherIsBetter)
        );
        assert_eq!(
            direction("max_rps_p99_compliant"),
            Some(Direction::HigherIsBetter)
        );
        assert_eq!(
            direction("speedup_4_vs_1_workers"),
            Some(Direction::HigherIsBetter)
        );
        assert_eq!(
            direction("decode.full_decode.simd_mbps"),
            Some(Direction::HigherIsBetter)
        );
        assert_eq!(direction("kernel_config.threads"), None);
        assert_eq!(direction("payload_bytes"), None);
    }

    #[test]
    fn compare_flags_regressions_by_direction() {
        let base = flat(r#"{"wall_ms": 100.0, "goodput_rps": 50.0, "threads": 4}"#);
        // Latency doubled and throughput halved: both out of a ±50% band.
        let bad = flat(r#"{"wall_ms": 201.0, "goodput_rps": 24.0, "threads": 4}"#);
        let v = compare(&base, &bad, 0.5);
        assert_eq!(v.compared, 2, "threads must be skipped");
        let paths: Vec<&str> = v.regressions.iter().map(|d| d.path.as_str()).collect();
        assert_eq!(paths, ["goodput_rps", "wall_ms"]);
        // Within the band nothing fires; a big latency drop is an improvement.
        let good = flat(r#"{"wall_ms": 40.0, "goodput_rps": 60.0, "threads": 4}"#);
        let v = compare(&base, &good, 0.5);
        assert!(v.regressions.is_empty());
        assert_eq!(v.improvements.len(), 1);
        assert_eq!(v.improvements[0].path, "wall_ms");
    }

    #[test]
    fn compare_reports_missing_metrics() {
        // A deleted metric (however small) must not pass as merely
        // skipped; a config echo without a direction is never compared.
        let base = flat(
            r#"{"wall_ms": 100.0, "speedup_4_vs_1_workers": 3.87,
                "queue_wait_p50_ms": 0.09, "threads": 4}"#,
        );
        let cur = flat(r#"{"wall_ms": 100.0}"#);
        let v = compare(&base, &cur, 0.5);
        assert_eq!(v.compared, 1);
        assert_eq!(v.skipped, 0);
        assert_eq!(v.missing, ["queue_wait_p50_ms", "speedup_4_vs_1_workers"]);
        assert!(v.regressions.is_empty());
    }

    #[test]
    fn tiny_baselines_are_noise_and_skipped() {
        let base = flat(r#"{"queue_wait_p50_ms": 0.09}"#);
        let cur = flat(r#"{"queue_wait_p50_ms": 0.9}"#);
        let v = compare(&base, &cur, 0.5);
        assert_eq!(v.compared, 0);
        assert_eq!(v.skipped, 1);
        assert!(v.regressions.is_empty());
    }
}
