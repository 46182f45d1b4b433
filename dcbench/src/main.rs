//! `dcbench`: one command that measures the DCDiff DC-recovery receiver end
//! to end and layer by layer, and checks every output it measures.
//!
//! ```text
//! cargo run --release --manifest-path dcbench/Cargo.toml -- \
//!     [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] \
//!     [--repeat N] [--smoke] [--out FILE]
//! ```
//!
//! With one workload and no `--repeat`, the workload runs in this process
//! and the last line of standard output is the result object. Otherwise
//! every run is a child process of its own (this binary re-executed with
//! `--workload NAME`), so set-up time and peak memory are per workload, and
//! the parent prints a summary. See `README.md` for the workloads, metrics
//! and the A/B protocol.

mod inputs;
mod probe;
mod report;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use dcdiff_runtime::RecoverMethod;

use crate::report::{catalogue, median, parse_metric_lines, quartiles, render, Outcome, WORKLOADS};
use crate::spans::Recorder;
use crate::workloads::{run_batch, run_sender, run_serve, RunConfig, ServeWorkload};

/// Measured window when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Window of a `--smoke` run.
const SMOKE_SECONDS: f64 = 1.0;
/// Scratch directory, relative to the working directory.
const WORK_ROOT: &str = ".dcbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
    out: Option<PathBuf>,
    /// Internal: be an idle spinner (see `IdleSpinners`) for this many seconds.
    spin: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        smoke: false,
        out: None,
        spin: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--repeat" => args.repeat = value.parse().map_err(|e| bad(&e))?,
            "--out" => args.out = Some(PathBuf::from(value)),
            "--spin" => args.spin = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    if args.smoke {
        args.seconds = SMOKE_SECONDS;
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) || args.repeat == 0 {
        return Err("--seconds and --repeat must be positive".to_string());
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}' (all, {})",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dcbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(seconds) = args.spin {
        let end = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < end {
            std::hint::spin_loop();
        }
        return ExitCode::SUCCESS;
    }
    let result = if args.workload != "all" && args.repeat == 1 {
        run_in_process(&args)
    } else {
        run_children(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dcbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run one workload here; `Ok(correct)`.
fn run_in_process(args: &Args) -> Result<bool, String> {
    println!(
        "info\thost: nproc {} | jpeg simd {} | kernels {}",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        dcdiff_jpeg::simd::active().name(),
        dcdiff_tensor::kernels::KernelConfig::current().to_json(),
    );
    let work_dir =
        PathBuf::from(WORK_ROOT).join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("create {}: {e}", work_dir.display()))?;
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        setup_reps: if args.smoke { 1 } else { SETUP_REPS },
        work_dir: work_dir.clone(),
        epoch: Instant::now(),
    };
    let mut rec = Recorder::new(cfg.epoch);
    let outcome = run_workload(&args.workload, &cfg, &mut rec);
    let _ = std::fs::remove_dir_all(&work_dir);
    let outcome = outcome?;
    if args.trace {
        let path = PathBuf::from(WORK_ROOT)
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        rec.write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "info\t{} spans written to {}",
            rec.span_count(),
            path.display()
        );
    }
    for problem in &outcome.problems {
        println!("info\tproblem: {problem}");
    }
    let text = render(&outcome, args.trace);
    print!("{text}");
    if let Some(out) = &args.out {
        let last = text.lines().last().unwrap_or_default();
        std::fs::write(out, format!("{last}\n"))
            .map_err(|e| format!("write {}: {e}", out.display()))?;
    }
    Ok(outcome.correct())
}

fn run_workload(name: &str, cfg: &RunConfig, rec: &mut Recorder) -> Result<Outcome, String> {
    match name {
        // `dcdiff serve --method diffusion`: the paper's method over HTTP.
        "serve_diffusion_64" => run_serve(
            &ServeWorkload {
                method: RecoverMethod::Diffusion { ddim_steps: 8 },
                size: 64,
                distinct: 40,
                rps: 20.0,
            },
            cfg,
            rec,
        ),
        "batch_tiles16_diffusion" => run_batch(cfg, rec),
        // The training-free baseline over HTTP: codec and response I/O.
        "serve_tip2006_512" => run_serve(
            &ServeWorkload {
                method: RecoverMethod::Tip2006,
                size: 512,
                distinct: 20,
                rps: 40.0,
            },
            cfg,
            rec,
        ),
        "sender_encode_512" => run_sender(cfg, rec),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// One child run's parsed result.
struct ChildRun {
    workload: &'static str,
    ok: bool,
    metrics: Vec<(String, f64, String)>,
}

/// Re-execute this binary once per workload and repetition, alternating
/// the workload order between repetitions; `Ok(all correct)`.
fn run_children(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let selected: Vec<&'static str> = WORKLOADS
        .iter()
        .copied()
        .filter(|w| args.workload == "all" || *w == args.workload)
        .collect();
    let mut runs = Vec::new();
    for rep in 0..args.repeat {
        let mut order = selected.clone();
        if rep % 2 == 1 {
            order.reverse();
        }
        let seed = args.seed + rep as u64;
        for workload in order {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &args.seconds.to_string(),
                    "--trace",
                    if args.trace { "1" } else { "0" },
                ])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if args.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd.output().map_err(|e| format!("run {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            for line in stdout.lines().filter(|l| !l.starts_with("metric\t")) {
                println!("[{workload} seed {seed}] {line}");
            }
            let metrics = parse_metric_lines(&stdout);
            let ok = output.status.success() && metrics.len() == catalogue(args.trace).len();
            if !ok {
                println!("[{workload} seed {seed}] FAILED ({})", output.status);
            }
            runs.push(ChildRun {
                workload,
                ok,
                metrics,
            });
        }
    }
    let summary = summarise_runs(&selected, &runs, args.repeat);
    print!("{summary}");
    if let Some(out) = &args.out {
        std::fs::write(out, &summary).map_err(|e| format!("write {}: {e}", out.display()))?;
    }
    Ok(runs.iter().all(|r| r.ok))
}

/// Per workload and metric: the value, or with repeats the median,
/// quartiles, IQR ÷ median and (max − min) ÷ median.
fn summarise_runs(selected: &[&'static str], runs: &[ChildRun], repeat: usize) -> String {
    let mut text = String::new();
    for workload in selected {
        let mine: Vec<&ChildRun> = runs.iter().filter(|r| r.workload == *workload).collect();
        let failed = mine.iter().filter(|r| !r.ok).count();
        text.push_str(&format!(
            "== {workload}: {} run(s), {failed} failed\n",
            mine.len()
        ));
        let Some(first) = mine.iter().find(|r| !r.metrics.is_empty()) else {
            continue;
        };
        for (name, _, unit) in &first.metrics {
            let values: Vec<f64> = mine
                .iter()
                .filter_map(|r| r.metrics.iter().find(|m| &m.0 == name).map(|m| m.1))
                .collect();
            if repeat == 1 {
                text.push_str(&format!("  {name:<30} {:>14.4} {unit}\n", values[0]));
                continue;
            }
            let med = median(&values);
            let (q1, q3) = quartiles(&values).unwrap_or((med, med));
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let share = |x: f64| if med != 0.0 { x / med.abs() } else { 0.0 };
            text.push_str(&format!(
                "  {name:<30} median {med:>12.4} {unit:<10} q1 {q1:>12.4} q3 {q3:>12.4} \
                 iqr/med {:>7.4} range/med {:>7.4}\n",
                share(q3 - q1),
                share(hi - lo),
            ));
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};

    /// `(name, unit)` of every object in the array under `key`.
    fn entries(json: &str, key: &str) -> Vec<(String, Option<String>)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let field = |obj: &str, field: &str| -> Option<String> {
            let at = obj.find(&format!("\"{field}\""))? + field.len() + 2;
            let rest = obj[at..]
                .trim_start()
                .strip_prefix(':')?
                .trim_start()
                .strip_prefix('"')?;
            Some(rest[..rest.find('"')?].to_string())
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name").expect("name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let workloads: Vec<String> = entries(&json, "workloads")
            .into_iter()
            .map(|e| e.0)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for (key, emitted) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, Option<String>)> = entries(&json, key);
            let emitted: Vec<(String, Option<String>)> = emitted
                .iter()
                .map(|(n, u)| (n.to_string(), Some(u.to_string())))
                .collect();
            assert_eq!(
                listed, emitted,
                "{key} in BENCHMARK.json and the emitted catalogue differ"
            );
        }
        let valid = |s: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for name in WORKLOADS
            .iter()
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| n))
        {
            assert!(valid(name), "{name} is not [A-Za-z0-9_.-]+");
        }
    }

    #[test]
    fn every_catalogue_metric_is_rendered_with_its_unit() {
        for trace in [false, true] {
            let text = render(&Outcome::default(), trace);
            let rendered = parse_metric_lines(&text);
            let expected: Vec<(String, f64, String)> = catalogue(trace)
                .iter()
                .map(|(n, u)| (n.to_string(), 0.0, u.to_string()))
                .collect();
            assert_eq!(rendered, expected);
        }
    }
}
