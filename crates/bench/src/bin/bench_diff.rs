//! Bench-regression sentinel: compare the current `BENCH_*.json` outputs
//! against committed baselines and emit a machine-readable verdict.
//!
//! ```text
//! bench_diff [--baseline-dir crates/bench/baselines] [--current-dir .]
//!            [--out BENCH_verdict.json] [--tol 0.5] [--strict]
//! ```
//!
//! Reports are read with the workspace's one JSON reader,
//! [`dcdiff_telemetry::json`]. Every numeric leaf is flattened to a dotted
//! path (`runs.0.wall_ms`, `gemm.square_256.blocked_gflops`); array
//! elements that carry a `"name"` field are keyed by that name so
//! reordering a sweep does not shuffle the comparison. Only metrics whose
//! path implies a direction are compared — timings/quantiles (`*_ms`,
//! `*_us`, `*p50*`, `*p99*`) must not grow, throughputs (`*gflops`, `*mbps`, `*rps`,
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

use dcdiff_telemetry::json::{self, escape_into, Value};

// ------------------------------------------------------------- flatten ---

/// Flatten every numeric leaf into `path -> value`. Objects append the
/// field name, arrays append the element's `"name"` field when it has one
/// (reorder-robust) or the index otherwise.
fn flatten(value: &Value, prefix: &str, out: &mut BTreeMap<String, f64>) {
    let join = |segment: &str| {
        if prefix.is_empty() {
            segment.to_string()
        } else {
            format!("{prefix}.{segment}")
        }
    };
    match value {
        Value::Number(_) => {
            if let Some(v) = value.as_f64() {
                out.insert(prefix.to_string(), v);
            }
        }
        Value::Object(fields) => {
            for (key, field) in fields {
                flatten(field, &join(key), out);
            }
        }
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                let segment = item
                    .get("name")
                    .and_then(Value::as_str)
                    .map_or_else(|| i.to_string(), str::to_string);
                flatten(item, &join(&segment), out);
            }
        }
        Value::Null | Value::Bool(_) | Value::Str(_) => {}
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
        let _ = write!(out, "{sep}\n    {{\"metric\": ");
        escape_into(out, &d.path);
        let _ = write!(
            out,
            ", \"baseline\": {}, \"current\": {}, \"ratio\": {:.4}}}",
            d.baseline, d.current, d.ratio
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
            &json::parse(&base_text).map_err(|e| format!("{base_path}: {e}"))?,
            "",
            &mut base_flat,
        );
        flatten(
            &json::parse(&cur_text).map_err(|e| format!("{cur_path}: {e}"))?,
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
        all_missing.extend(fv.missing.iter().map(|path| {
            let mut quoted = String::new();
            escape_into(&mut quoted, &format!("{name}:{path}"));
            quoted
        }));
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
        flatten(&json::parse(text).unwrap(), "", &mut out);
        out
    }

    #[test]
    fn parser_handles_bench_shapes() {
        let doc = r#"{"a": 1.5, "b": [1, 2], "c": {"d": "x", "e": true, "f": null},
                      "neg": -3e-2, "esc": "a\"b\\c\ndA"}"#;
        let value = json::parse(doc).unwrap();
        let Value::Object(fields) = &value else {
            panic!("expected object")
        };
        assert_eq!(fields.len(), 5);
        assert_eq!(
            value.get("esc").and_then(Value::as_str),
            Some("a\"b\\c\ndA")
        );
        assert_eq!(
            flat(doc).into_iter().collect::<Vec<_>>(),
            [
                ("a".to_string(), 1.5),
                ("b.0".to_string(), 1.0),
                ("b.1".to_string(), 2.0),
                ("neg".to_string(), -0.03),
            ]
        );
        assert!(json::parse("{\"a\": }").is_err());
        assert!(json::parse("[1, 2] trailing").is_err());
        assert!(json::parse("{\"a\": 01x}").is_err());
    }

    #[test]
    fn committed_reports_parse_and_flatten() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut checked = 0;
        for dir in [root.to_string(), format!("{root}/crates/bench/baselines")] {
            for entry in std::fs::read_dir(&dir).unwrap() {
                let name = entry.unwrap().file_name().into_string().unwrap();
                if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                    continue;
                }
                let text = std::fs::read_to_string(format!("{dir}/{name}")).unwrap();
                let leaves = flat(&text);
                assert!(!leaves.is_empty(), "{dir}/{name} has no numeric leaf");
                checked += 1;
            }
        }
        assert!(checked >= 6, "found only {checked} BENCH_*.json files");
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
