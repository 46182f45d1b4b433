//! Sub-command implementations.
//!
//! Every command reads its flags through the job grammar's parser
//! ([`dcdiff_runtime::Line`]). The four job commands — `encode`,
//! `transcode`, `recover`, `metrics` — are parsed by
//! [`dcdiff_runtime::parse_job`] and run as a one-job `dcdiff batch`.

use dcdiff_data::{SceneGenerator, SceneKind};
use dcdiff_image::{write_pgm, write_ppm, PnmFormat};
use dcdiff_jpeg::JpegDecoder;
use dcdiff_runtime::{
    parse_job, parse_method, Job, JobFailure, JobOutput, Line, RecoveryPolicy, Runtime,
    RuntimeConfig, ShutdownMode, METHOD_FLAGS,
};

/// Write a PPM or PGM image based on the file extension.
fn write_image(path: &str, image: &dcdiff_image::Image) -> Result<(), String> {
    if PnmFormat::for_path(path) == PnmFormat::Pgm {
        write_pgm(path, image).map_err(|e| e.to_string())
    } else {
        write_ppm(path, image).map_err(|e| e.to_string())
    }
}

/// Why a command failed. `main` prints [`USAGE`] after a
/// [`CliError::Usage`] only.
#[derive(Debug)]
pub enum CliError {
    /// An unknown command or flag, or a missing or malformed argument.
    Usage(String),
    /// The command ran and failed: an I/O, codec or job error.
    Failed(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Failed(msg)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Failed(msg) => f.write_str(msg),
        }
    }
}

/// Mark an argument-parsing error as a usage error.
fn usage<T>(parsed: Result<T, String>) -> Result<T, CliError> {
    parsed.map_err(CliError::Usage)
}

/// Usage text shown after a usage error.
pub const USAGE: &str = "usage:
  dcdiff encode  <in.ppm> <out.jpg>  [--quality N | --budget BYTES]
                                     [--subsample 444|422|420] [--drop-dc]
                                     [--optimize | --restart N]
  dcdiff decode  <in.jpg> <out.ppm>
  dcdiff transcode <in.jpg> <out.jpg> [--drop-dc] [--optimize | --restart N]
  dcdiff recover <in.jpg> <out.ppm>  [--method tip2006|smartcom|icip|mld|diffusion]
                                     [--threshold T --sweeps N (mld)]
                                     [--steps N (diffusion)]
  dcdiff metrics <ref.ppm> <test.ppm>
      (encode, transcode, recover and metrics are manifest lines run as a
       one-job batch; each also takes [--deadline-ms MS] [--retries R])
  dcdiff info    <in.jpg>
  dcdiff demo    <out.ppm>           [--scene smooth|natural|texture|urban|aerial]
                                     [--size WxH] [--seed N]
  dcdiff batch   <manifest>          [--workers N (default: all cores)]
                                     [--queue-cap M] [--batch K]
                                     [--fail-fast] [--no-fallback]
                                     [--trace t.jsonl] [--metrics m.json]
                                     [--log-level error|warn|info|debug]
  dcdiff report  <trace.jsonl> [more.jsonl ...]
  dcdiff serve   [--addr HOST:PORT]   [--workers N] [--queue-cap M] [--batch K]
                                     [--method ...] [--threshold T] [--sweeps N]
                                     [--steps N] [--no-fallback]
                                     [--max-conns C] [--client-inflight F]
                                     [--max-body BYTES]
                                     [--trace t.jsonl] [--metrics m.json]
                                     [--log-level error|warn|info|debug]
  dcdiff submit  <addr> <in.jpg> <out.ppm|out.pgm>
                                     [--class interactive|standard|bulk]
                                     [--dc-plane]
  dcdiff top     <addr>              [--interval-ms MS] [--once]
  dcdiff lint    [--root DIR] [--update-ledger]";

/// Value flags `batch` and `serve` share: runtime sizing and telemetry.
const RUNTIME_FLAGS: &[&str] =
    &["--workers", "--queue-cap", "--batch", "--trace", "--metrics", "--log-level"];

/// A command body, run on its parsed line.
type Command = fn(&Line<'_>) -> Result<(), CliError>;

/// Dispatch the command line.
///
/// # Errors
///
/// A [`CliError::Usage`] for a command line that does not parse, a
/// [`CliError::Failed`] for an I/O, codec or job failure.
pub fn dispatch(argv: &[String]) -> Result<(), CliError> {
    let Some(command) = argv.first() else {
        return Err(CliError::Usage("no command given".to_string()));
    };
    // Each command's body, value flags, boolean flags, and the most
    // positionals it takes (the command itself included).
    let (run, values, bools, max_positionals): (Command, Vec<&str>, &[&str], usize) =
        match command.as_str() {
            "decode" => (decode, vec![], &[], 3),
            "info" => (info, vec![], &[], 2),
            "demo" => (demo, vec!["--scene", "--size", "--seed"], &[], 2),
            "batch" => (batch, RUNTIME_FLAGS.to_vec(), &["--fail-fast", "--no-fallback"], 2),
            "report" => (report, vec![], &[], usize::MAX),
            "serve" => {
                let own = ["--addr", "--max-conns", "--client-inflight", "--max-body"];
                (serve, [RUNTIME_FLAGS, &own, METHOD_FLAGS].concat(), &["--no-fallback"], 1)
            }
            "submit" => (submit, vec!["--class"], &["--dc-plane"], 4),
            "top" => (top, vec!["--interval-ms"], &["--once"], 2),
            "lint" => (lint, vec!["--root"], &["--update-ledger"], 1),
            // `encode`, `transcode`, `recover` and `metrics` are job lines;
            // the job grammar names any other command as unknown.
            _ => return one_shot(argv),
        };
    let line = usage(Line::parse(argv, &values, bools))?;
    let given = line.positionals().len();
    if given > max_positionals {
        return Err(CliError::Usage(format!(
            "too many arguments ({given} given, at most {max_positionals} expected)"
        )));
    }
    run(&line)
}

fn io_err(err: impl std::fmt::Display) -> String {
    err.to_string()
}

/// Run one job command as a one-line manifest: the job grammar's
/// [`parse_job`], then a one-job batch on a one-worker runtime — the
/// `dcdiff batch` path, fallback ladder, deadline and retries included.
fn one_shot(argv: &[String]) -> Result<(), CliError> {
    let spec = usage(parse_job(argv))?;
    let runtime = Runtime::start(RuntimeConfig::with_workers(1));
    runtime.submit_blocking(spec).map_err(io_err)?;
    let result = runtime
        .shutdown(ShutdownMode::Drain)
        .results
        .pop()
        .ok_or_else(|| "the runtime returned no result".to_string())?;
    match result.outcome {
        Ok(output) => {
            println!("{}", summary(&result.job, &output));
            Ok(())
        }
        Err(JobFailure::Error(err)) => Err(err.message.into()),
        Err(failure) => Err(format!("{} job: {failure:?}", result.job.stage().name()).into()),
    }
}

/// One line describing a finished job.
fn summary(job: &Job, output: &JobOutput) -> String {
    match (job, output) {
        (Job::Encode { output, .. }, JobOutput::Encoded { bytes, quality }) => {
            format!("{output}: {bytes} bytes (quality {quality})")
        }
        (Job::Transcode { output, .. }, JobOutput::Transcoded { bytes_in, bytes_out }) => format!(
            "{output}: {bytes_in} -> {bytes_out} bytes ({:.1}%)",
            100.0 * *bytes_out as f64 / *bytes_in as f64
        ),
        (Job::Recover { method, .. }, JobOutput::Recovered { output }) => {
            format!("{output}: recovered with {}", method.name())
        }
        (_, JobOutput::Metrics { psnr, ssim, ms_ssim, lpips }) => {
            let ms_ssim = ms_ssim.map_or_else(String::new, |v| format!("  MS-SSIM {v:.4}"));
            format!("PSNR {psnr:.3} dB  SSIM {ssim:.4}{ms_ssim}  LPIPS {lpips:.4}")
        }
        (_, output) => format!("{output:?}"),
    }
}

/// Entropy-decode `input` and stream its pixels into `output` band by
/// band, with the stream's own DC levels: the bytes `write_ppm` (or
/// `write_pgm`) writes for `JpegDecoder::decode`'s image, without that
/// image.
fn decode(line: &Line<'_>) -> Result<(), CliError> {
    let input = usage(line.positional(1, "input .jpg path"))?;
    let output = usage(line.positional(2, "output .ppm path"))?;
    let bytes = std::fs::read(&input).map_err(io_err)?;
    let coeffs = JpegDecoder::decode_coefficients(&bytes).map_err(io_err)?;
    let file = std::fs::File::create(&output).map_err(io_err)?;
    let format = PnmFormat::for_path(&output);
    coeffs.write_pnm_with_dc(&coeffs.dc_levels(), format, file).map_err(io_err)?;
    println!("{output}: {}x{}", coeffs.width(), coeffs.height());
    Ok(())
}

fn info(line: &Line<'_>) -> Result<(), CliError> {
    let input = usage(line.positional(1, "input .jpg path"))?;
    let bytes = std::fs::read(&input).map_err(io_err)?;
    let coeffs = JpegDecoder::decode_coefficients(&bytes).map_err(io_err)?;
    println!("{input}:");
    println!("  size        {} bytes", bytes.len());
    println!("  dimensions  {}x{}", coeffs.width(), coeffs.height());
    println!("  components  {}", coeffs.channels());
    println!("  sampling    {}", coeffs.sampling());
    let luma = coeffs.plane(0);
    println!("  luma blocks {}x{}", luma.blocks_x(), luma.blocks_y());
    println!("  q0 (luma)   {}", coeffs.qtable(0).values()[0]);
    println!(
        "  est quality {}",
        coeffs
            .qtable(0)
            .estimate_quality(&dcdiff_jpeg::quant::LUMA_BASE)
    );
    let zero_dc = (0..luma.blocks_y())
        .flat_map(|by| (0..luma.blocks_x()).map(move |bx| (bx, by)))
        .filter(|&(bx, by)| luma.dc(bx, by) == 0)
        .count();
    let total = luma.blocks_x() * luma.blocks_y();
    println!(
        "  zero DC     {zero_dc}/{total} luma blocks{}",
        if zero_dc * 10 > total * 9 {
            "  <- looks DC-dropped; try `dcdiff recover`"
        } else {
            ""
        }
    );
    Ok(())
}

fn demo(line: &Line<'_>) -> Result<(), CliError> {
    let output = usage(line.positional(1, "output .ppm path"))?;
    let kind = match line.value("--scene").unwrap_or("natural") {
        "smooth" => SceneKind::Smooth,
        "natural" => SceneKind::Natural,
        "texture" => SceneKind::Texture,
        "urban" => SceneKind::Urban,
        "aerial" => SceneKind::Aerial,
        other => return Err(CliError::Usage(format!("unknown scene '{other}'"))),
    };
    let (w, h) = usage(line.size("--size", (96, 96)))?;
    if w == 0 || h == 0 {
        return Err(CliError::Usage("--size must be positive".to_string()));
    }
    let seed = usage(line.number("--seed", 0))?;
    let image = SceneGenerator::new(kind, w, h).generate(seed);
    write_image(&output, &image)?;
    println!("{output}: {kind:?} scene {w}x{h} (seed {seed})");
    Ok(())
}

/// Build the [`dcdiff_telemetry::Telemetry`] handle described by `--trace`, `--metrics` and
/// `--log-level`, shared by `batch` and any future instrumented command.
fn telemetry_from_flags(line: &Line<'_>) -> Result<dcdiff_telemetry::Telemetry, CliError> {
    let level = match line.value("--log-level") {
        None => dcdiff_telemetry::Level::Info,
        Some(s) => usage(s.parse())?,
    };
    let mut builder = dcdiff_telemetry::Telemetry::builder().log_level(level);
    if let Some(path) = line.value("--trace") {
        builder = builder
            .trace_to_path(path)
            .map_err(|e| format!("--trace {path}: {e}"))?;
    }
    Ok(builder.build())
}

/// The runtime `batch` and `serve` build from `--workers`, `--queue-cap`,
/// `--batch` and `--no-fallback`.
fn runtime_config(
    line: &Line<'_>,
    tel: &dcdiff_telemetry::Telemetry,
) -> Result<RuntimeConfig, CliError> {
    let defaults = RuntimeConfig::default();
    Ok(RuntimeConfig {
        workers: usage(line.number("--workers", defaults.workers))?.max(1),
        queue_cap: usage(line.number("--queue-cap", defaults.queue_cap))?.max(1),
        batch_max: usage(line.number("--batch", defaults.batch_max))?.max(1),
        telemetry: tel.clone(),
        recovery: if line.has("--no-fallback") {
            RecoveryPolicy::no_fallback()
        } else {
            RecoveryPolicy::default()
        },
        ..defaults
    })
}

/// Run a manifest of jobs through the batch-serving runtime.
fn batch(line: &Line<'_>) -> Result<(), CliError> {
    use dcdiff_runtime::SubmitError;

    let manifest_path = usage(line.positional(1, "manifest path"))?;
    let text = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("{manifest_path}: {e}"))?;
    let specs =
        dcdiff_runtime::parse_manifest(&text).map_err(|e| format!("{manifest_path}: {e}"))?;
    if specs.is_empty() {
        return Err(format!("{manifest_path}: no jobs in manifest").into());
    }

    let tel = telemetry_from_flags(line)?;
    // Deep library code (DDIM steps, recovery phases) traces through the
    // process-wide handle; installing ours merges those spans into this
    // batch's trace.
    dcdiff_telemetry::install(tel.clone());

    let config = runtime_config(line, &tel)?;
    let fail_fast = line.has("--fail-fast");
    let total = specs.len();
    println!(
        "batch: {total} jobs, {} workers, queue cap {}, micro-batch (cohort width) {}",
        config.workers, config.queue_cap, config.batch_max
    );

    let runtime = Runtime::start(config);
    let started = std::time::Instant::now();
    let batch_span = tel.span(dcdiff_telemetry::names::SPAN_BATCH_RUN);
    let mut shed = 0usize;
    for spec in specs {
        let submitted = if fail_fast {
            runtime.submit(spec)
        } else {
            runtime.submit_blocking(spec)
        };
        match submitted {
            Ok(_) => {}
            Err(SubmitError::QueueFull) => shed += 1,
            Err(SubmitError::ShuttingDown) => {
                return Err("runtime shut down during submission".to_string().into())
            }
        }
    }
    let report = runtime.shutdown(ShutdownMode::Drain);
    drop(batch_span);
    let wall = started.elapsed();

    let mut failed = 0usize;
    for result in &report.results {
        match &result.outcome {
            Ok(_) => {}
            Err(failure) => {
                failed += 1;
                tel.error(format!(
                    "job {} ({}): {failure:?} after {} attempt(s)",
                    result.id,
                    result.job.stage().name(),
                    result.attempts
                ));
            }
        }
    }
    println!("{}", report.stats.render());
    println!(
        "{} job(s) in {:.0} ms ({:.1} jobs/s)",
        report.results.len(),
        wall.as_secs_f64() * 1e3,
        report.results.len() as f64 / wall.as_secs_f64().max(1e-9)
    );
    if shed > 0 {
        println!("shed {shed} job(s) at submission (--fail-fast)");
    }
    tel.flush();
    if let Some(path) = line.value("--metrics") {
        std::fs::write(path, tel.metrics_json()).map_err(|e| format!("--metrics {path}: {e}"))?;
        println!("metrics written to {path}");
    }
    if let Some(path) = line.value("--trace") {
        println!("trace written to {path} (inspect with `dcdiff report {path}`)");
    }
    batch_verdict(&report.stats, failed, total).map_err(CliError::Failed)
}

/// `batch`'s exit status: an error when a job failed, or when a submitted
/// job never reached a terminal state (completed, failed or rejected) —
/// what a worker that died mid-job leaves behind.
fn batch_verdict(
    stats: &dcdiff_runtime::StatsSnapshot,
    failed: usize,
    total: usize,
) -> Result<(), String> {
    let finished = stats.completed + stats.failed + stats.rejected;
    if finished < stats.submitted {
        return Err(format!(
            "{} of {} submitted job(s) never finished",
            stats.submitted - finished,
            stats.submitted
        ));
    }
    if failed > 0 {
        return Err(format!("{failed} of {total} job(s) failed"));
    }
    Ok(())
}

/// Run the long-lived network front door (`dcdiff serve`).
fn serve(line: &Line<'_>) -> Result<(), CliError> {
    use dcdiff_serve::{ServeConfig, Server};

    let tel = telemetry_from_flags(line)?;
    let cfg = ServeConfig {
        addr: line.value("--addr").unwrap_or("127.0.0.1:7878").to_string(),
        max_connections: usage(line.number("--max-conns", 64))?.max(1),
        per_client_inflight: usage(line.number("--client-inflight", 4))?.max(1),
        max_body_bytes: usage(line.number("--max-body", 16 << 20))?.max(1024),
        method: usage(parse_method(line))?,
        runtime: runtime_config(line, &tel)?,
        ..ServeConfig::default()
    };
    let banner = format!(
        "{} workers, queue cap {}, method {}",
        cfg.runtime.workers,
        cfg.runtime.queue_cap,
        cfg.method.name()
    );
    dcdiff_telemetry::install(tel.clone());
    let server = Server::bind_with(cfg, tel.clone()).map_err(io_err)?;
    dcdiff_serve::signal::install();
    println!(
        "serve: listening on {} ({banner}); SIGTERM or POST /admin/drain to stop",
        server.local_addr(),
    );
    let report = server.run_until_shutdown();
    if let Some(stats) = &report.stats {
        println!("{}", stats.render());
    }
    if report.abandoned_connections > 0 {
        println!(
            "drain grace expired with {} connection(s) still open",
            report.abandoned_connections
        );
    }
    tel.flush();
    if let Some(path) = line.value("--metrics") {
        std::fs::write(path, tel.metrics_json()).map_err(|e| format!("--metrics {path}: {e}"))?;
        println!("metrics written to {path}");
    }
    if let Some(path) = line.value("--trace") {
        println!("trace written to {path} (inspect with `dcdiff report {path}`)");
    }
    println!("serve: drained cleanly");
    Ok(())
}

/// Send one JPEG to a running `dcdiff serve` and save the response
/// (`dcdiff submit`).
fn submit(line: &Line<'_>) -> Result<(), CliError> {
    let addr = usage(line.positional(1, "server address (host:port)"))?;
    let input = usage(line.positional(2, "input .jpg path"))?;
    let output = usage(line.positional(3, "output image path"))?;
    let jpeg = std::fs::read(&input).map_err(|e| format!("{input}: {e}"))?;
    let dc_plane = line.has("--dc-plane") || output.to_ascii_lowercase().ends_with(".pgm");
    let client = dcdiff_serve::Client::new(addr.as_str());
    let response = client
        .recover(&jpeg, line.value("--class"), dc_plane)
        .map_err(|e| format!("{addr}: {e}"))?;
    if !response.is_success() {
        return Err(format!(
            "{addr}: server answered {}: {}",
            response.status,
            String::from_utf8_lossy(&response.body).trim()
        )
        .into());
    }
    std::fs::write(&output, &response.body).map_err(|e| format!("{output}: {e}"))?;
    println!(
        "{output}: {} bytes ({})",
        response.body.len(),
        response.header("content-type").unwrap_or("unknown type"),
    );
    Ok(())
}

/// Aggregate and render one or more JSONL traces produced by
/// `dcdiff batch --trace` / `dcdiff serve --trace`. Multiple files are
/// merged end-to-end ([`dcdiff_telemetry::TraceReport::from_texts`]), so a
/// fleet of per-run traces rolls up into one table.
fn report(line: &Line<'_>) -> Result<(), CliError> {
    let paths = line.positionals().get(1..).unwrap_or_default();
    if paths.is_empty() {
        return Err(CliError::Usage("missing trace .jsonl path".to_string()));
    }
    let mut texts = Vec::new();
    for path in paths {
        texts.push(std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?);
    }
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let trace = dcdiff_telemetry::TraceReport::from_texts(&refs)
        .map_err(|e| format!("{}: {e}", paths.join(", ")))?;
    if paths.len() > 1 {
        println!("merged {} trace file(s)", paths.len());
    }
    print!("{}", trace.render());
    Ok(())
}

/// Live serving dashboard (`dcdiff top <addr>`): polls `GET /metrics` with
/// `Accept: text/plain`, parses the Prometheus exposition back through
/// [`dcdiff_telemetry::prometheus::parse`], and renders a refreshing
/// terminal table. `--once` prints a single frame (CI smoke); `--interval-ms`
/// sets the refresh cadence.
fn top(line: &Line<'_>) -> Result<(), CliError> {
    let addr = usage(line.positional(1, "server address (host:port)"))?;
    let interval =
        std::time::Duration::from_millis(usage(line.number("--interval-ms", 1000))?.max(100));
    let once = line.has("--once");
    let client = dcdiff_serve::Client::new(addr.as_str());
    loop {
        let response = client
            .get_with("/metrics", &[("accept", "text/plain")])
            .map_err(|e| format!("{addr}: {e}"))?;
        if !response.is_success() {
            return Err(format!("{addr}: server answered {}", response.status).into());
        }
        let text = String::from_utf8_lossy(&response.body);
        let samples = dcdiff_telemetry::prometheus::parse(&text)
            .map_err(|e| format!("{addr}: bad exposition: {e}"))?;
        let frame = render_top(&addr, &samples);
        if once {
            print!("{frame}");
            return Ok(());
        }
        // Clear screen + home, then the frame: a cheap full-redraw "top".
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        std::thread::sleep(interval);
    }
}

/// Format one `dcdiff top` frame from parsed exposition samples.
fn render_top(addr: &str, samples: &[dcdiff_telemetry::prometheus::Sample]) -> String {
    use std::fmt::Write as _;

    let plain = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .map(|s| s.value)
    };
    let quantile = |name: &str, q: &str, window: Option<&str>| {
        samples
            .iter()
            .find(|s| {
                s.name == name
                    && s.label("quantile") == Some(q)
                    && s.label("window") == window
            })
            .map(|s| s.value)
    };
    // First windowed rate for a counter, with its window label.
    let rate = |name: &str| {
        let rate_name = format!("{name}_rate");
        samples
            .iter()
            .find(|s| s.name == rate_name && s.label("window").is_some())
            .map(|s| (s.label("window").unwrap_or("?").to_string(), s.value))
    };
    let fmt_count = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.0}"));
    let fmt_rate = |r: Option<(String, f64)>| {
        r.map_or_else(String::new, |(w, v)| format!(" ({v:.2}/s over {w})"))
    };
    let fmt_ms = |v: Option<f64>| {
        v.map_or_else(|| "-".to_string(), |us| format!("{:.1}ms", us / 1e3))
    };

    let mut out = String::new();
    let _ = writeln!(out, "dcdiff top — {addr}");
    let _ = writeln!(
        out,
        "queue depth {}   in-flight {}   connections {}   draining {}",
        fmt_count(plain("runtime_queue_depth")),
        fmt_count(plain("serve_in_flight")),
        fmt_count(plain("serve_connections")),
        fmt_count(plain("serve_draining")),
    );
    let _ = writeln!(
        out,
        "accepted {}{}   completed {}   shed {}{}   failed {}",
        fmt_count(plain("serve_accepted")),
        fmt_rate(rate("serve_accepted")),
        fmt_count(plain("serve_completed")),
        fmt_count(plain("serve_shed")),
        fmt_rate(rate("serve_shed")),
        fmt_count(plain("serve_failed")),
    );

    // Per-deadline-class admitted/shed: the class set is dynamic, so scan
    // for `serve_class_<c>_admitted` sample names instead of assuming the
    // default ladder.
    let mut classes: Vec<&str> = samples
        .iter()
        .filter_map(|s| {
            s.name
                .strip_prefix("serve_class_")
                .and_then(|rest| rest.strip_suffix("_admitted"))
        })
        .collect();
    classes.sort_unstable();
    classes.dedup();
    for class in classes {
        let _ = writeln!(
            out,
            "  class {class:<12} admitted {}{}   shed {}{}",
            fmt_count(plain(&format!("serve_class_{class}_admitted"))),
            fmt_rate(rate(&format!("serve_class_{class}_admitted"))),
            fmt_count(plain(&format!("serve_class_{class}_shed"))),
            fmt_rate(rate(&format!("serve_class_{class}_shed"))),
        );
    }

    // Latency: cumulative and (when the window has data) rolling quantiles.
    for (label, name) in [
        ("request wall", "serve_request_wall_us"),
        ("recover stage", "stage_recover_us"),
        ("queue wait", "runtime_queue_wait_us"),
    ] {
        let windowed = samples
            .iter()
            .find(|s| s.name == name && s.label("window").is_some() && s.label("quantile") == Some("0.99"))
            .and_then(|s| s.label("window"))
            .map(str::to_string);
        let mut line = format!(
            "{label:<14} p50 {}  p99 {}",
            fmt_ms(quantile(name, "0.5", None)),
            fmt_ms(quantile(name, "0.99", None)),
        );
        if let Some(w) = windowed {
            let _ = write!(
                line,
                "   [{w}] p50 {}  p99 {}",
                fmt_ms(quantile(name, "0.5", Some(&w))),
                fmt_ms(quantile(name, "0.99", Some(&w))),
            );
        }
        let _ = writeln!(out, "{line}");
    }

    // Worker busy gauges (`runtime.worker.<n>.busy_us`, cumulative).
    let mut workers: Vec<(&str, f64)> = samples
        .iter()
        .filter_map(|s| {
            s.name
                .strip_prefix("runtime_worker_")
                .and_then(|rest| rest.strip_suffix("_busy_us"))
                .map(|id| (id, s.value))
        })
        .collect();
    workers.sort_unstable_by(|a, b| a.0.cmp(b.0));
    if !workers.is_empty() {
        let busy: Vec<String> = workers
            .iter()
            .map(|(id, us)| format!("w{id} {:.1}s", us / 1e6))
            .collect();
        let _ = writeln!(out, "workers busy   {}", busy.join("  "));
    }

    let breaker = plain("breaker_state").map(|v| match v as i64 {
        0 => "0 (closed)".to_string(),
        1 => "1 (half-open)".to_string(),
        2 => "2 (open)".to_string(),
        other => format!("{other} (?)"),
    });
    if let Some(state) = breaker {
        let _ = writeln!(out, "breaker state  {state}");
    }
    // Decode hot path (`jpeg.decode.*`): entropy latency, coded-byte
    // throughput and cumulative volume. Omitted entirely when the server
    // has not decoded anything (or predates the series).
    if plain("jpeg_decode_bytes").is_some()
        || quantile("jpeg_decode_entropy_us", "0.5", None).is_some()
    {
        let _ = writeln!(
            out,
            "jpeg decode    entropy p50 {}  p99 {}   {} MB/s p50   bytes {}{}  blocks {}",
            fmt_ms(quantile("jpeg_decode_entropy_us", "0.5", None)),
            fmt_ms(quantile("jpeg_decode_entropy_us", "0.99", None)),
            fmt_count(quantile("jpeg_decode_mbps", "0.5", None)),
            fmt_count(plain("jpeg_decode_bytes")),
            fmt_rate(rate("jpeg_decode_bytes")),
            fmt_count(plain("jpeg_decode_blocks")),
        );
    }
    let _ = writeln!(
        out,
        "estimator      primary ok {}  fail {}  fallback {}  log suppressed {}",
        fmt_count(plain("estimator_primary_ok")),
        fmt_count(plain("estimator_primary_fail")),
        fmt_count(
            plain("estimator_fallback_baseline")
                .map(|b| b + plain("estimator_fallback_flat").unwrap_or(0.0))
        ),
        fmt_count(plain("log_suppressed")),
    );
    out
}

/// `dcdiff lint` — reconcile the workspace's unsafe sites against
/// `UNSAFE_LEDGER.md` ([`dcdiff_analysis`]) and fail with a non-zero exit
/// on any mismatch. `--root DIR` checks a different tree, and
/// `--update-ledger` regenerates the ledger instead of checking it.
fn lint(line: &Line<'_>) -> Result<(), CliError> {
    let root = std::path::PathBuf::from(line.value("--root").unwrap_or("."));
    if line.has("--update-ledger") {
        let ledger = dcdiff_analysis::generate_ledger(&root)?;
        let path = root.join(dcdiff_analysis::LEDGER_FILE);
        std::fs::write(&path, ledger).map_err(io_err)?;
        println!("wrote {}", path.display());
        return Ok(());
    }
    let report = dcdiff_analysis::analyze_workspace(&root)?;
    print!("{}", report.render());
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("lint failed: {} violation(s)", report.diagnostics.len()).into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<(), String> {
        dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).map_err(|e| e.to_string())
    }

    fn tmp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("dcdiff-cli-test-{}-{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn only_command_line_mistakes_are_usage_errors() {
        let classify = |args: &[&str]| {
            dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap_err()
        };
        for args in [
            &["frobnicate"][..],
            &[],
            &["info", "a.jpg", "--drop-dc"],
            &["decode", "a.jpg"],
            &["demo", "x.ppm", "--seed", "many"],
            &["encode", "a.ppm", "b.jpg", "--quality", "0"],
            &["lint", "--json"],
        ] {
            assert!(matches!(classify(args), CliError::Usage(_)), "{args:?}");
        }
        let missing = tmp("usage-missing");
        for args in [&["info", missing.as_str()][..], &["metrics", &missing, &missing]] {
            assert!(matches!(classify(args), CliError::Failed(_)), "{args:?}");
        }
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&["frobnicate"]).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn demo_encode_decode_metrics_pipeline() {
        let scene = tmp("scene.ppm");
        let jpg = tmp("scene.jpg");
        let back = tmp("back.ppm");
        run(&["demo", &scene, "--scene", "urban", "--size", "64x48", "--seed", "3"]).unwrap();
        run(&["encode", &scene, &jpg, "--quality", "70"]).unwrap();
        run(&["decode", &jpg, &back]).unwrap();
        run(&["metrics", &scene, &back]).unwrap();
        run(&["info", &jpg]).unwrap();
        for f in [&scene, &jpg, &back] {
            std::fs::remove_file(f).ok();
        }
    }

    /// `decode` streams the pixels into the file without building the
    /// image, byte for byte what `write_ppm` / `write_pgm` write for
    /// `JpegDecoder::decode`'s image: every subsampling, colour and gray,
    /// at a width that is not a multiple of 8.
    #[test]
    fn decode_writes_the_bytes_of_the_decoded_image() {
        use dcdiff_image::ColorSpace;
        let scene = tmp("d-scene.ppm");
        run(&["demo", &scene, "--scene", "natural", "--size", "37x29", "--seed", "4"]).unwrap();
        let gray = tmp("d-scene.pgm");
        let image = dcdiff_image::read_ppm(&scene).unwrap();
        write_pgm(&gray, &image).unwrap();
        let (jpg, out, want) = (tmp("d.jpg"), tmp("d-out"), tmp("d-want"));
        for (input, subsample) in [(&scene, "444"), (&scene, "422"), (&scene, "420"), (&gray, "444")] {
            run(&["encode", input, &jpg, "--quality", "60", "--subsample", subsample]).unwrap();
            let decoded = JpegDecoder::decode(&std::fs::read(&jpg).unwrap()).unwrap();
            assert_eq!(decoded.color_space() == ColorSpace::Gray, input == &gray);
            for ext in ["ppm", "pgm"] {
                let (out, want) = (format!("{out}.{ext}"), format!("{want}.{ext}"));
                run(&["decode", &jpg, &out]).unwrap();
                write_image(&want, &decoded).unwrap();
                let streamed = std::fs::read(&out).unwrap();
                assert!(streamed == std::fs::read(&want).unwrap(), "{subsample} {ext} of {input}");
                std::fs::remove_file(&out).ok();
                std::fs::remove_file(&want).ok();
            }
        }
        for f in [&scene, &gray, &jpg] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn drop_dc_then_recover_pipeline() {
        let scene = tmp("r-scene.ppm");
        let jpg = tmp("r-scene.jpg");
        let out = tmp("r-out.ppm");
        run(&["demo", &scene, "--scene", "smooth", "--size", "64x64"]).unwrap();
        run(&["encode", &scene, &jpg, "--drop-dc"]).unwrap();
        for method in ["tip2006", "smartcom", "icip", "mld"] {
            run(&["recover", &jpg, &out, "--method", method]).unwrap();
        }
        assert!(run(&["recover", &jpg, &out, "--method", "nope"]).is_err());
        for f in [&scene, &jpg, &out] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn budget_encoding_fits() {
        let scene = tmp("b-scene.ppm");
        let jpg = tmp("b-scene.jpg");
        run(&["demo", &scene, "--size", "48x48"]).unwrap();
        run(&["encode", &scene, &jpg, "--budget", "900"]).unwrap();
        assert!(std::fs::metadata(&jpg).unwrap().len() <= 900);
        assert!(run(&["encode", &scene, &jpg, "--budget", "10"]).is_err());
        for f in [&scene, &jpg] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn transcode_pipeline() {
        let scene = tmp("t-scene.ppm");
        let jpg = tmp("t-scene.jpg");
        let out = tmp("t-out.jpg");
        run(&["demo", &scene, "--size", "48x48"]).unwrap();
        run(&["encode", &scene, &jpg]).unwrap();
        run(&["transcode", &jpg, &out, "--drop-dc", "--optimize"]).unwrap();
        let before = std::fs::metadata(&jpg).unwrap().len();
        let after = std::fs::metadata(&out).unwrap().len();
        assert!(after < before, "transcode must shrink: {after} vs {before}");
        run(&["info", &out]).unwrap();
        for f in [&scene, &jpg, &out] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn optimized_encoding_is_smaller_or_equal() {
        let scene = tmp("o-scene.ppm");
        let a = tmp("o-std.jpg");
        let b = tmp("o-opt.jpg");
        run(&["demo", &scene, "--scene", "texture", "--size", "64x64"]).unwrap();
        run(&["encode", &scene, &a]).unwrap();
        run(&["encode", &scene, &b, "--optimize"]).unwrap();
        let sa = std::fs::metadata(&a).unwrap().len();
        let sb = std::fs::metadata(&b).unwrap().len();
        assert!(sb <= sa, "optimized {sb} > standard {sa}");
        for f in [&scene, &a, &b] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn bad_quality_rejected() {
        assert!(run(&["encode", "a", "b", "--quality", "0"]).is_err());
        assert!(run(&["encode", "a", "b", "--quality", "101"]).is_err());
    }

    #[test]
    fn unknown_flag_error_names_the_flag() {
        let err = run(&["encode", "a.ppm", "b.jpg", "--qualty", "80"]).unwrap_err();
        assert!(err.contains("--qualty"), "{err}");
        // Job commands read the job grammar only; other commands their own.
        let err = run(&["encode", "a.ppm", "b.jpg", "--workers", "4"]).unwrap_err();
        assert_eq!(err, "unknown flag '--workers'");
        let err = run(&["batch", "m.txt", "--retries", "2"]).unwrap_err();
        assert_eq!(err, "unknown flag '--retries'");
        let err = run(&["info", "a.jpg", "--drop-dc"]).unwrap_err();
        assert_eq!(err, "unknown flag '--drop-dc'");
    }

    #[test]
    fn serve_reads_method_flags_through_the_job_grammar() {
        // Rejected while parsing, before anything binds.
        let err = run(&["serve", "--method", "diffusion", "--sweeps", "8"]).unwrap_err();
        assert_eq!(err, "flag --sweeps does not apply to --method diffusion");
        let err = run(&["serve", "--method", "tip2006", "--steps", "16"]).unwrap_err();
        assert_eq!(err, "flag --steps does not apply to --method tip2006");
        assert!(run(&["serve", "--method", "gan"]).unwrap_err().contains("gan"));
    }

    #[test]
    fn one_shot_takes_serving_metadata() {
        let scene = tmp("sm-scene.ppm");
        run(&["demo", &scene, "--size", "16x16"]).unwrap();
        run(&["metrics", &scene, &scene, "--deadline-ms", "60000", "--retries", "1"]).unwrap();
        let err = run(&["metrics", &scene, &tmp("sm-missing.ppm"), "--retries", "2"]).unwrap_err();
        assert!(err.contains("sm-missing.ppm"), "{err}");
        std::fs::remove_file(&scene).ok();
    }

    #[test]
    fn batch_runs_a_manifest_end_to_end() {
        let scene = tmp("m-scene.ppm");
        let manifest = tmp("m-manifest.txt");
        let jpg = tmp("m-scene.jpg");
        let out = tmp("m-out.ppm");
        run(&["demo", &scene, "--scene", "natural", "--size", "48x48", "--seed", "9"]).unwrap();
        std::fs::write(
            &manifest,
            format!(
                "# full pipeline on one scene\n\
                 encode {scene} {jpg} --quality 60 --drop-dc\n\
                 recover {jpg} {out} --method tip2006\n\
                 metrics {scene} {out}\n"
            ),
        )
        .unwrap();
        // Single worker so the encode completes before the recover reads it:
        // manifests have no inter-job dependency ordering.
        run(&["batch", &manifest, "--workers", "1"]).unwrap();
        assert!(std::fs::metadata(&out).unwrap().len() > 0);
        for f in [&scene, &manifest, &jpg, &out] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn batch_trace_round_trips_through_report() {
        let scene = tmp("tr-scene.ppm");
        let manifest = tmp("tr-manifest.txt");
        let jpg = tmp("tr-scene.jpg");
        let out = tmp("tr-out.ppm");
        let trace = tmp("tr-trace.jsonl");
        let metrics = tmp("tr-metrics.json");
        run(&["demo", &scene, "--scene", "smooth", "--size", "48x48", "--seed", "4"]).unwrap();
        std::fs::write(
            &manifest,
            format!(
                "encode {scene} {jpg} --quality 60 --drop-dc\n\
                 recover {jpg} {out} --method mld --sweeps 4\n\
                 metrics {scene} {out}\n"
            ),
        )
        .unwrap();
        run(&[
            "batch", &manifest, "--workers", "1", "--trace", &trace, "--metrics", &metrics,
            "--log-level", "debug",
        ])
        .unwrap();

        // The trace parses, spans all closed, and the expected hierarchy is
        // present: queue wait, job-level spans, per-stage sub-phases.
        let text = std::fs::read_to_string(&trace).unwrap();
        let report: dcdiff_telemetry::TraceReport = text.parse().unwrap();
        assert_eq!(report.unclosed, 0);
        for span in ["queue.wait", "batch.exec", "job.encode", "job.recover",
                     "encode.dct", "recover.estimate", "metrics.compare"] {
            assert!(report.spans.contains_key(span), "missing span {span}");
        }
        assert_eq!(report.spans["queue.wait"].count, 3);
        // The CLI's batch.run root covers the whole run, so root coverage is
        // within the 10% bound `dcdiff report` advertises.
        assert!(report.coverage() > 0.9, "coverage {}", report.coverage());

        // `dcdiff report` renders it without error, including the
        // multi-file merge path (same file twice doubles every count).
        run(&["report", &trace]).unwrap();
        run(&["report", &trace, &trace]).unwrap();
        let doubled = {
            let text = std::fs::read_to_string(&trace).unwrap();
            dcdiff_telemetry::TraceReport::from_texts(&[&text, &text]).unwrap()
        };
        assert_eq!(doubled.spans["queue.wait"].count, 6);
        assert!(run(&["report", &tmp("tr-nonexistent.jsonl")]).is_err());
        assert!(run(&["report"]).is_err());

        // The metrics export is present and names the runtime histograms.
        let exported = std::fs::read_to_string(&metrics).unwrap();
        for key in ["runtime.queue_wait_us", "runtime.job_wall_us", "stage.recover_us", "p99"] {
            assert!(exported.contains(key), "metrics export missing {key}");
        }
        for f in [&scene, &manifest, &jpg, &out, &trace, &metrics] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn diffusion_trace_reports_control_apart_from_sampling() {
        let scene = tmp("ctl-scene.ppm");
        let jpg = tmp("ctl-scene.jpg");
        let out = tmp("ctl-out.ppm");
        let manifest = tmp("ctl-manifest.txt");
        let trace = tmp("ctl-trace.jsonl");
        run(&["demo", &scene, "--scene", "urban", "--size", "32x32", "--seed", "2"]).unwrap();
        run(&["encode", &scene, &jpg, "--quality", "50", "--drop-dc"]).unwrap();
        std::fs::write(&manifest, format!("recover {jpg} {out} --method diffusion --steps 2\n"))
            .unwrap();
        run(&["batch", &manifest, "--workers", "1", "--trace", &trace]).unwrap();

        let text = std::fs::read_to_string(&trace).unwrap();
        let report: dcdiff_telemetry::TraceReport = text.parse().unwrap();
        for span in ["recover.control", "recover.sample"] {
            assert_eq!(report.spans.get(span).map(|s| s.count), Some(1), "{span} in {text}");
        }
        // `dcdiff report` gives control its own registered row.
        let rendered = report.render();
        let row = |name: &str| rendered.lines().find(|l| l.split_whitespace().next() == Some(name));
        for span in ["recover.control", "recover.sample"] {
            let line = row(span).unwrap_or_else(|| panic!("no {span} row in\n{rendered}"));
            assert!(!line.ends_with("(?)"), "{span} is not a registered name: {line}");
        }
        for f in [&scene, &jpg, &out, &manifest, &trace] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn render_top_formats_the_expected_rows() {
        let text = "runtime_queue_depth 3\n\
                    serve_accepted 12\n\
                    serve_accepted_rate{window=\"10s\"} 1.5\n\
                    serve_class_interactive_admitted 7\n\
                    serve_class_interactive_shed 1\n\
                    serve_request_wall_us{quantile=\"0.5\"} 2000\n\
                    serve_request_wall_us{quantile=\"0.99\"} 9000\n\
                    serve_request_wall_us{window=\"10s\",quantile=\"0.5\"} 400\n\
                    serve_request_wall_us{window=\"10s\",quantile=\"0.99\"} 500\n\
                    runtime_worker_0_busy_us 2500000\n\
                    jpeg_decode_entropy_us{quantile=\"0.5\"} 800\n\
                    jpeg_decode_entropy_us{quantile=\"0.99\"} 1500\n\
                    jpeg_decode_mbps{quantile=\"0.5\"} 240\n\
                    jpeg_decode_bytes 123456\n\
                    jpeg_decode_blocks 6144\n\
                    breaker_state 0\n";
        let samples = dcdiff_telemetry::prometheus::parse(text).unwrap();
        let frame = render_top("127.0.0.1:1", &samples);
        assert!(frame.contains("queue depth 3"), "{frame}");
        assert!(frame.contains("accepted 12 (1.50/s over 10s)"), "{frame}");
        assert!(frame.contains("class interactive"), "{frame}");
        assert!(frame.contains("p50 2.0ms"), "{frame}");
        assert!(frame.contains("[10s] p50 0.4ms  p99 0.5ms"), "{frame}");
        assert!(frame.contains("w0 2.5s"), "{frame}");
        assert!(
            frame.contains("jpeg decode    entropy p50 0.8ms  p99 1.5ms   240 MB/s p50"),
            "{frame}"
        );
        assert!(frame.contains("bytes 123456"), "{frame}");
        assert!(frame.contains("blocks 6144"), "{frame}");
        assert!(frame.contains("breaker state  0 (closed)"), "{frame}");
    }

    #[test]
    fn render_top_omits_decode_row_without_decode_samples() {
        let samples = dcdiff_telemetry::prometheus::parse("runtime_queue_depth 0\n").unwrap();
        let frame = render_top("127.0.0.1:1", &samples);
        assert!(!frame.contains("jpeg decode"), "{frame}");
    }

    #[test]
    fn top_once_scrapes_a_live_server() {
        let tel = dcdiff_telemetry::Telemetry::builder().build();
        let mut cfg = dcdiff_serve::ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..dcdiff_serve::ServeConfig::default()
        };
        cfg.metrics_epoch = std::time::Duration::from_millis(50);
        cfg.runtime.workers = 1;
        cfg.runtime.telemetry = tel.clone();
        let server = dcdiff_serve::Server::bind_with(cfg, tel).unwrap();
        let addr = server.local_addr().to_string();
        run(&["top", &addr, "--once"]).unwrap();
        assert!(run(&["top"]).is_err(), "missing addr must error");
        dcdiff_serve::Client::new(addr.as_str()).drain().unwrap();
        server.run_until_shutdown();
    }

    #[test]
    fn batch_reports_failures() {
        let manifest = tmp("m-bad.txt");
        std::fs::write(&manifest, "metrics /nonexistent/a.ppm /nonexistent/b.ppm\n").unwrap();
        let err = run(&["batch", &manifest, "--workers", "2"]).unwrap_err();
        assert!(err.contains("failed"), "{err}");
        std::fs::remove_file(&manifest).ok();
    }

    #[test]
    fn batch_runs_past_a_transcode_the_annex_k_tables_cannot_code() {
        use dcdiff_jpeg::quant::QuantTable;
        use dcdiff_jpeg::{encode_coefficients_optimized, ChromaSampling, CoeffImage, CoeffPlane};
        // One AC level of 2000 (magnitude category 11): valid JPEG, but
        // outside the Annex-K AC tables a plain transcode re-encodes with.
        let mut plane = CoeffPlane::zeros(2, 2, 16, 16);
        plane.block_mut(0, 0)[1] = 2000;
        let coeffs = CoeffImage::from_parts(
            vec![plane],
            vec![QuantTable::luma(50)],
            ChromaSampling::Cs444,
            16,
            16,
        );
        let stream = tmp("m-cat11.jpg");
        std::fs::write(&stream, encode_coefficients_optimized(&coeffs).unwrap()).unwrap();
        let (scene, jpg, out, manifest) =
            (tmp("m-c11.ppm"), tmp("m-c11.jpg"), tmp("m-c11-out.jpg"), tmp("m-c11.txt"));
        run(&["demo", &scene, "--size", "16x16"]).unwrap();
        std::fs::write(&manifest, format!("transcode {stream} {out}\nencode {scene} {jpg}\n"))
            .unwrap();
        let err = run(&["batch", &manifest, "--workers", "1"]).unwrap_err();
        assert!(err.contains("1 of 2 job(s) failed"), "{err}");
        assert!(std::fs::metadata(&jpg).is_ok(), "the encode line after it still ran");
        for f in [&stream, &scene, &jpg, &manifest] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn batch_fails_when_a_submitted_job_never_finishes() {
        let stats = dcdiff_runtime::StatsSnapshot {
            submitted: 2,
            ..Default::default()
        };
        let err = batch_verdict(&stats, 0, 2).unwrap_err();
        assert!(err.contains("2 of 2 submitted job(s) never finished"), "{err}");
        let done = dcdiff_runtime::StatsSnapshot { completed: 1, rejected: 1, ..stats };
        assert_eq!(batch_verdict(&done, 0, 2), Ok(()));
        assert!(batch_verdict(&done, 1, 2).unwrap_err().contains("1 of 2 job(s) failed"));
    }

    #[test]
    fn batch_rejects_bad_manifests() {
        let manifest = tmp("m-syntax.txt");
        std::fs::write(&manifest, "recover a.jpg b.ppm --methud mld\n").unwrap();
        let err = run(&["batch", &manifest]).unwrap_err();
        assert!(err.contains("--methud") && err.contains("line 1"), "{err}");
        assert!(run(&["batch", &tmp("m-missing.txt")]).is_err());
        std::fs::remove_file(&manifest).ok();
    }
}
