//! Sub-command implementations.

use dcdiff_baselines::{DcRecovery, Icip2022, SmartCom2019, Tip2006};
use dcdiff_core::refine_dc_offsets;
use dcdiff_data::{SceneGenerator, SceneKind};
use dcdiff_image::{read_pgm, read_ppm, write_pgm, write_ppm};

/// Read a PPM or PGM image based on the file extension.
fn read_image(path: &str) -> Result<dcdiff_image::Image, String> {
    if path.to_ascii_lowercase().ends_with(".pgm") {
        read_pgm(path).map_err(|e| e.to_string())
    } else {
        read_ppm(path).map_err(|e| e.to_string())
    }
}

/// Write a PPM or PGM image based on the file extension.
fn write_image(path: &str, image: &dcdiff_image::Image) -> Result<(), String> {
    if path.to_ascii_lowercase().ends_with(".pgm") {
        write_pgm(path, image).map_err(|e| e.to_string())
    } else {
        write_ppm(path, image).map_err(|e| e.to_string())
    }
}
use dcdiff_jpeg::{
    encode_coefficients, encode_coefficients_optimized, encode_coefficients_with_restarts,
    ChromaSampling, DcDropMode, JpegDecoder, JpegEncoder,
};
use dcdiff_metrics::{ms_ssim, psnr, ssim, PerceptualDistance};

use crate::args::Parsed;

/// Usage text shown on errors.
pub const USAGE: &str = "usage:
  dcdiff encode  <in.ppm> <out.jpg>  [--quality N | --budget BYTES]
                                     [--subsample 444|422|420]
                                     [--optimize] [--restart N] [--drop-dc]
  dcdiff decode  <in.jpg> <out.ppm>
  dcdiff transcode <in.jpg> <out.jpg> [--drop-dc] [--optimize] [--restart N]
  dcdiff recover <in.jpg> <out.ppm>  [--method tip2006|smartcom|icip|mld|diffusion]
                                     [--threshold T] [--sweeps N]
  dcdiff metrics <ref.ppm> <test.ppm>
  dcdiff info    <in.jpg>
  dcdiff demo    <out.ppm>           [--scene smooth|natural|texture|urban|aerial]
                                     [--size WxH] [--seed N]
  dcdiff batch   <manifest>          [--workers N (default: all cores)]
                                     [--queue-cap M] [--retries R]
                                     [--batch K]
                                     [--fail-fast] [--no-fallback]
                                     [--trace t.jsonl] [--metrics m.json]
                                     [--log-level error|warn|info|debug]
  dcdiff report  <trace.jsonl> [more.jsonl ...]
  dcdiff serve   [--addr HOST:PORT]   [--workers N] [--queue-cap M] [--batch K]
                                     [--method tip2006|smartcom|icip|mld|diffusion]
                                     [--threshold T] [--sweeps N] [--no-fallback]
                                     [--max-conns C] [--client-inflight F]
                                     [--max-body BYTES]
                                     [--trace t.jsonl] [--metrics m.json]
                                     [--log-level error|warn|info|debug]
  dcdiff submit  <addr> <in.jpg> <out.ppm|out.pgm>
                                     [--class interactive|standard|bulk]
                                     [--dc-plane]
  dcdiff top     <addr>              [--interval-ms MS] [--once]
  dcdiff lint    [--rule <id>] [--json] [--root DIR] [--update-ledger]
                 [--changed] [--graph] [--entry SYM]... [--why SYM]
                 [--max-unresolved RATE]";

/// Dispatch the parsed command line.
///
/// # Errors
///
/// Returns a human-readable message for any parse, I/O or codec failure.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let parsed = Parsed::parse(argv)?;
    // `submit` takes <addr> <in> <out>, `report` merges any number of
    // trace files; everything else at most two positionals after the
    // command.
    let max_positionals = match parsed.positional(0) {
        Some("submit") => 4,
        Some("report") => usize::MAX,
        _ => 3,
    };
    if parsed.positional_len() > max_positionals {
        return Err(format!(
            "too many arguments ({} given, at most {max_positionals} expected)",
            parsed.positional_len()
        ));
    }
    match parsed.positional(0) {
        Some("encode") => encode(&parsed),
        Some("decode") => decode(&parsed),
        Some("transcode") => transcode(&parsed),
        Some("recover") => recover(&parsed),
        Some("metrics") => metrics(&parsed),
        Some("info") => info(&parsed),
        Some("demo") => demo(&parsed),
        Some("batch") => batch(&parsed),
        Some("report") => report(&parsed),
        Some("serve") => serve(&parsed),
        Some("submit") => submit(&parsed),
        Some("top") => top(&parsed),
        Some("lint") => lint(&parsed),
        Some(other) => Err(format!("unknown command '{other}'")),
        None => Err("no command given".to_string()),
    }
}

fn io_err(err: impl std::fmt::Display) -> String {
    err.to_string()
}

fn need(parsed: &Parsed, i: usize, what: &str) -> Result<String, String> {
    parsed
        .positional(i)
        .map(str::to_string)
        .ok_or_else(|| format!("missing {what}"))
}

fn encode(parsed: &Parsed) -> Result<(), String> {
    let input = need(parsed, 1, "input .ppm path")?;
    let output = need(parsed, 2, "output .jpg path")?;
    let quality = parsed.int("--quality", 50)? as u8;
    if !(1..=100).contains(&quality) {
        return Err("--quality must be 1..=100".to_string());
    }
    let sampling = match parsed.value("--subsample") {
        None | Some("444") => ChromaSampling::Cs444,
        Some("422") => ChromaSampling::Cs422,
        Some("420") => ChromaSampling::Cs420,
        Some(other) => return Err(format!("unknown subsampling '{other}' (444, 422 or 420)")),
    };
    let restart = parsed.int("--restart", 0)? as usize;

    let image = read_image(&input)?;
    if let Some(budget) = parsed.value("--budget") {
        let max_bytes: usize = budget
            .parse()
            .map_err(|_| format!("--budget: '{budget}' is not an integer"))?;
        let control = dcdiff_jpeg::rate::RateControl {
            max_bytes,
            sampling,
            drop_dc: parsed.has("--drop-dc"),
            optimize: parsed.has("--optimize"),
        };
        let out = dcdiff_jpeg::rate::encode_to_budget(&image, control).map_err(io_err)?;
        std::fs::write(&output, &out.bytes).map_err(io_err)?;
        println!(
            "{output}: {} bytes within budget {max_bytes} (picked quality {})",
            out.bytes.len(),
            out.quality
        );
        return Ok(());
    }
    let encoder = JpegEncoder::new(quality).with_sampling(sampling);
    let mut coeffs = encoder.to_coefficients(&image);
    if parsed.has("--drop-dc") {
        coeffs = coeffs.drop_dc(DcDropMode::KeepCorners);
    }
    let bytes = if parsed.has("--optimize") {
        encode_coefficients_optimized(&coeffs).map_err(io_err)?
    } else if restart > 0 {
        encode_coefficients_with_restarts(&coeffs, restart).map_err(io_err)?
    } else {
        encode_coefficients(&coeffs).map_err(io_err)?
    };
    std::fs::write(&output, &bytes).map_err(io_err)?;
    println!(
        "{output}: {} bytes (quality {quality}, {sampling}{}{})",
        bytes.len(),
        if parsed.has("--drop-dc") { ", DC dropped" } else { "" },
        if parsed.has("--optimize") { ", optimized tables" } else { "" },
    );
    Ok(())
}

fn decode(parsed: &Parsed) -> Result<(), String> {
    let input = need(parsed, 1, "input .jpg path")?;
    let output = need(parsed, 2, "output .ppm path")?;
    let bytes = std::fs::read(&input).map_err(io_err)?;
    let image = JpegDecoder::decode(&bytes).map_err(io_err)?;
    write_image(&output, &image)?;
    println!("{output}: {}x{}", image.width(), image.height());
    Ok(())
}

/// Lossless bitstream surgery on an existing JPEG: entropy-decode,
/// optionally drop DC, re-code with standard/optimised tables.
fn transcode(parsed: &Parsed) -> Result<(), String> {
    let input = need(parsed, 1, "input .jpg path")?;
    let output = need(parsed, 2, "output .jpg path")?;
    let bytes = std::fs::read(&input).map_err(io_err)?;
    let mut coeffs = JpegDecoder::decode_coefficients(&bytes).map_err(io_err)?;
    if parsed.has("--drop-dc") {
        coeffs = coeffs.drop_dc(DcDropMode::KeepCorners);
    }
    let restart = parsed.int("--restart", 0)? as usize;
    let out = if parsed.has("--optimize") {
        encode_coefficients_optimized(&coeffs).map_err(io_err)?
    } else if restart > 0 {
        encode_coefficients_with_restarts(&coeffs, restart).map_err(io_err)?
    } else {
        encode_coefficients(&coeffs).map_err(io_err)?
    };
    std::fs::write(&output, &out).map_err(io_err)?;
    println!(
        "{output}: {} -> {} bytes ({:.1}%)",
        bytes.len(),
        out.len(),
        100.0 * out.len() as f64 / bytes.len() as f64
    );
    Ok(())
}

fn recover(parsed: &Parsed) -> Result<(), String> {
    let input = need(parsed, 1, "input .jpg path")?;
    let output = need(parsed, 2, "output .ppm path")?;
    let bytes = std::fs::read(&input).map_err(io_err)?;
    let dropped = JpegDecoder::decode_coefficients(&bytes).map_err(io_err)?;
    let method = parsed.value("--method").unwrap_or("mld");
    let image = match method {
        "tip2006" => Tip2006::new().recover(&dropped),
        "smartcom" => SmartCom2019::new().recover(&dropped),
        "icip" => Icip2022::new().recover(&dropped),
        "mld" => {
            // the masked-Laplacian refinement with a neutral prior — the
            // training-free core of DCDiff's receiver
            let threshold = parsed.float("--threshold", 10.0)?;
            let sweeps = parsed.int("--sweeps", 300)? as usize;
            refine_dc_offsets(&dropped, &dropped, threshold, 5e-4, sweeps.max(1)).to_image()
        }
        "diffusion" => {
            // Full DDIM sampler, quality-oriented offline defaults
            // (`DcDiffConfig::ddim_steps`); `--sweeps` overrides the step
            // count, clamped to the legal 1..=diffusion_steps range.
            let config = dcdiff_core::DcDiffConfig::default();
            let mut options = dcdiff_core::RecoverOptions::from_config(&config);
            if parsed.value("--sweeps").is_some() {
                let steps = parsed.int("--sweeps", options.ddim_steps as u64)? as usize;
                options.ddim_steps = steps.clamp(1, config.diffusion_steps);
            }
            dcdiff_core::DcDiff::new(config, 0xdcd1ff).recover_with(&dropped, &options)
        }
        other => return Err(format!(
            "unknown method '{other}' (tip2006, smartcom, icip, mld or diffusion)"
        )),
    };
    write_image(&output, &image)?;
    println!("{output}: recovered with {method}");
    Ok(())
}

fn metrics(parsed: &Parsed) -> Result<(), String> {
    let reference = read_image(&need(parsed, 1, "reference image")?)?;
    let test = read_image(&need(parsed, 2, "test image")?)?;
    if reference.dims() != test.dims() {
        return Err(format!(
            "size mismatch: {}x{} vs {}x{}",
            reference.width(),
            reference.height(),
            test.width(),
            test.height()
        ));
    }
    println!("PSNR    {:.3} dB", psnr(&reference, &test));
    println!("SSIM    {:.4}", ssim(&reference, &test));
    if reference.width() >= 16 && reference.height() >= 16 {
        println!("MS-SSIM {:.4}", ms_ssim(&reference, &test));
    }
    println!(
        "LPIPS   {:.4}",
        PerceptualDistance::default().distance(&reference, &test)
    );
    Ok(())
}

fn info(parsed: &Parsed) -> Result<(), String> {
    let input = need(parsed, 1, "input .jpg path")?;
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

fn demo(parsed: &Parsed) -> Result<(), String> {
    let output = need(parsed, 1, "output .ppm path")?;
    let kind = match parsed.value("--scene").unwrap_or("natural") {
        "smooth" => SceneKind::Smooth,
        "natural" => SceneKind::Natural,
        "texture" => SceneKind::Texture,
        "urban" => SceneKind::Urban,
        "aerial" => SceneKind::Aerial,
        other => return Err(format!("unknown scene '{other}'")),
    };
    let (w, h) = parsed.size("--size", (96, 96))?;
    if w == 0 || h == 0 {
        return Err("--size must be positive".to_string());
    }
    let seed = parsed.int("--seed", 0)?;
    let image = SceneGenerator::new(kind, w, h).generate(seed);
    write_image(&output, &image)?;
    println!("{output}: {kind:?} scene {w}x{h} (seed {seed})");
    Ok(())
}

/// Build the [`dcdiff_telemetry::Telemetry`] handle described by `--trace`, `--metrics` and
/// `--log-level`, shared by `batch` and any future instrumented command.
fn telemetry_from_flags(parsed: &Parsed) -> Result<dcdiff_telemetry::Telemetry, String> {
    let level = match parsed.value("--log-level") {
        None => dcdiff_telemetry::Level::Info,
        Some(s) => s.parse()?,
    };
    let mut builder = dcdiff_telemetry::Telemetry::builder().log_level(level);
    if let Some(path) = parsed.value("--trace") {
        builder = builder
            .trace_to_path(path)
            .map_err(|e| format!("--trace {path}: {e}"))?;
    }
    Ok(builder.build())
}

/// Run a manifest of jobs through the batch-serving runtime.
fn batch(parsed: &Parsed) -> Result<(), String> {
    use dcdiff_runtime::{RecoveryPolicy, Runtime, RuntimeConfig, ShutdownMode, SubmitError};

    let manifest_path = need(parsed, 1, "manifest path")?;
    let text = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("{manifest_path}: {e}"))?;
    let specs =
        dcdiff_runtime::parse_manifest(&text).map_err(|e| format!("{manifest_path}: {e}"))?;
    if specs.is_empty() {
        return Err(format!("{manifest_path}: no jobs in manifest"));
    }

    let tel = telemetry_from_flags(parsed)?;
    // Deep library code (DDIM steps, recovery phases) traces through the
    // process-wide handle; installing ours merges those spans into this
    // batch's trace.
    dcdiff_telemetry::install(tel.clone());

    let default_workers =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let config = RuntimeConfig {
        workers: parsed.int("--workers", default_workers as u64)?.max(1) as usize,
        queue_cap: parsed.int("--queue-cap", 64)?.max(1) as usize,
        default_retries: parsed.int("--retries", 0)? as u32,
        batch_max: parsed.int("--batch", 8)?.max(1) as usize,
        telemetry: tel.clone(),
        recovery: if parsed.has("--no-fallback") {
            RecoveryPolicy::no_fallback()
        } else {
            RecoveryPolicy::default()
        },
        ..RuntimeConfig::default()
    };
    let fail_fast = parsed.has("--fail-fast");
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
                return Err("runtime shut down during submission".to_string())
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
    if let Some(path) = parsed.value("--metrics") {
        std::fs::write(path, tel.metrics_json()).map_err(|e| format!("--metrics {path}: {e}"))?;
        println!("metrics written to {path}");
    }
    if let Some(path) = parsed.value("--trace") {
        println!("trace written to {path} (inspect with `dcdiff report {path}`)");
    }
    if failed > 0 {
        return Err(format!("{failed} of {total} job(s) failed"));
    }
    Ok(())
}

/// Run the long-lived network front door (`dcdiff serve`).
fn serve(parsed: &Parsed) -> Result<(), String> {
    use dcdiff_runtime::{RecoveryPolicy, RuntimeConfig};
    use dcdiff_serve::{method_from_name, ServeConfig, Server};

    let tel = telemetry_from_flags(parsed)?;
    dcdiff_telemetry::install(tel.clone());

    let default_workers =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let method = method_from_name(
        parsed.value("--method").unwrap_or("mld"),
        parsed.float("--threshold", 10.0)?,
        parsed.int("--sweeps", 300)? as usize,
    )?;
    let mut cfg = ServeConfig {
        addr: parsed.value("--addr").unwrap_or("127.0.0.1:7878").to_string(),
        max_connections: parsed.int("--max-conns", 64)?.max(1) as usize,
        per_client_inflight: parsed.int("--client-inflight", 4)?.max(1) as usize,
        max_body_bytes: parsed.int("--max-body", 16 << 20)?.max(1024) as usize,
        method,
        ..ServeConfig::default()
    };
    cfg.runtime = RuntimeConfig {
        workers: parsed.int("--workers", default_workers as u64)?.max(1) as usize,
        queue_cap: parsed.int("--queue-cap", 64)?.max(1) as usize,
        batch_max: parsed.int("--batch", 8)?.max(1) as usize,
        telemetry: tel.clone(),
        recovery: if parsed.has("--no-fallback") {
            RecoveryPolicy::no_fallback()
        } else {
            RecoveryPolicy::default()
        },
        ..RuntimeConfig::default()
    };

    let server = Server::bind_with(cfg, tel.clone()).map_err(io_err)?;
    dcdiff_serve::signal::install();
    println!(
        "serve: listening on {} ({} workers, queue cap {}, method {}); SIGTERM or POST /admin/drain to stop",
        server.local_addr(),
        parsed.int("--workers", default_workers as u64)?.max(1),
        parsed.int("--queue-cap", 64)?.max(1),
        parsed.value("--method").unwrap_or("mld"),
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
    if let Some(path) = parsed.value("--metrics") {
        std::fs::write(path, tel.metrics_json()).map_err(|e| format!("--metrics {path}: {e}"))?;
        println!("metrics written to {path}");
    }
    if let Some(path) = parsed.value("--trace") {
        println!("trace written to {path} (inspect with `dcdiff report {path}`)");
    }
    println!("serve: drained cleanly");
    Ok(())
}

/// Send one JPEG to a running `dcdiff serve` and save the response
/// (`dcdiff submit`).
fn submit(parsed: &Parsed) -> Result<(), String> {
    let addr = need(parsed, 1, "server address (host:port)")?;
    let input = need(parsed, 2, "input .jpg path")?;
    let output = need(parsed, 3, "output image path")?;
    let jpeg = std::fs::read(&input).map_err(|e| format!("{input}: {e}"))?;
    let dc_plane = parsed.has("--dc-plane") || output.to_ascii_lowercase().ends_with(".pgm");
    let client = dcdiff_serve::Client::new(addr.as_str());
    let response = client
        .recover(&jpeg, parsed.value("--class"), dc_plane)
        .map_err(|e| format!("{addr}: {e}"))?;
    if !response.is_success() {
        return Err(format!(
            "{addr}: server answered {}: {}",
            response.status,
            String::from_utf8_lossy(&response.body).trim()
        ));
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
fn report(parsed: &Parsed) -> Result<(), String> {
    let mut paths = Vec::new();
    let mut i = 1;
    while let Some(path) = parsed.positional(i) {
        paths.push(path.to_string());
        i += 1;
    }
    if paths.is_empty() {
        return Err("missing trace .jsonl path".to_string());
    }
    let mut texts = Vec::new();
    for path in &paths {
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
fn top(parsed: &Parsed) -> Result<(), String> {
    let addr = need(parsed, 1, "server address (host:port)")?;
    let interval =
        std::time::Duration::from_millis(parsed.int("--interval-ms", 1000)?.max(100));
    let once = parsed.has("--once");
    let client = dcdiff_serve::Client::new(addr.as_str());
    loop {
        let response = client
            .get_with("/metrics", &[("accept", "text/plain")])
            .map_err(|e| format!("{addr}: {e}"))?;
        if !response.is_success() {
            return Err(format!("{addr}: server answered {}", response.status));
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

/// `dcdiff lint` — run the workspace static-analysis engine
/// ([`dcdiff_analysis`]) and fail with a non-zero exit when any contract
/// rule fires. `--rule <id>` restricts the run to one rule, `--json`
/// emits the machine-readable report (for the CI artifact), `--root DIR`
/// lints a different tree, and `--update-ledger` regenerates
/// `UNSAFE_LEDGER.md` from the workspace's unsafe sites instead of
/// linting. The interprocedural engine adds `--changed` (file-local rules
/// only on git-modified files), `--entry SYM` (override the request-path
/// entry points, repeatable), `--graph` (print call-graph resolution
/// stats), `--why SYM` (print every call chain from an entry point or hot
/// function to SYM, instead of linting), and `--max-unresolved RATE`
/// (fail when the call-graph unresolved rate exceeds RATE, e.g. `0.10`).
fn lint(parsed: &Parsed) -> Result<(), String> {
    let root = std::path::PathBuf::from(parsed.value("--root").unwrap_or("."));
    let mut cfg = dcdiff_analysis::Config::default_workspace();
    if let Some(rule) = parsed.value("--rule") {
        if !dcdiff_analysis::config::is_rule(rule) {
            return Err(format!(
                "unknown rule '{rule}' (known: {})",
                dcdiff_analysis::RULES.join(", ")
            ));
        }
        cfg.only = Some(rule.to_string());
    }
    let entries: Vec<String> = parsed.values("--entry").map(str::to_string).collect();
    if !entries.is_empty() {
        cfg.entries = entries;
    }
    if parsed.has("--changed") {
        cfg.changed = Some(git_changed_files(&root)?);
    }
    if parsed.has("--update-ledger") {
        let ledger = dcdiff_analysis::generate_ledger(&root, &cfg)?;
        let path = root.join(dcdiff_analysis::LEDGER_FILE);
        std::fs::write(&path, ledger).map_err(io_err)?;
        println!("wrote {}", path.display());
        return Ok(());
    }
    let analyzed = dcdiff_analysis::analyze_workspace_graph(&root, &cfg)?;
    if let Some(symbol) = parsed.value("--why") {
        let Some(graph) = &analyzed.graph else {
            return Err("--why needs the interprocedural rules enabled \
                        (drop --rule, or name an interprocedural rule)"
                .to_string());
        };
        let chains = dcdiff_analysis::interproc::why(&analyzed.facts, graph, &cfg, symbol);
        if chains.is_empty() {
            println!("`{symbol}` is not reachable from any entry point or hot function");
            return Ok(());
        }
        for chain in &chains {
            for (i, step) in chain.iter().enumerate() {
                let arrow = if i == 0 { "  " } else { "-> " };
                println!("{arrow}{} ({}:{})", step.symbol, step.file, step.line);
            }
            println!();
        }
        return Ok(());
    }
    let report = &analyzed.report;
    if parsed.has("--json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
        if parsed.has("--graph") {
            if let Some(g) = &report.graph {
                print!("{}", render_graph_stats(g));
            }
        }
    }
    if let Some(max) = parsed.value("--max-unresolved") {
        let max: f64 = max
            .parse()
            .map_err(|_| format!("flag --max-unresolved: '{max}' is not a number"))?;
        let Some(g) = &report.graph else {
            return Err("--max-unresolved needs the call graph \
                        (drop --rule, or name an interprocedural rule)"
                .to_string());
        };
        if g.unresolved_rate() > max {
            return Err(format!(
                "call-graph unresolved rate {:.4} exceeds --max-unresolved {max} \
                 ({} of {} calls; run with --graph to list them)",
                g.unresolved_rate(),
                g.unresolved,
                g.calls
            ));
        }
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "lint failed: {} violation(s)",
            report.diagnostics.len()
        ))
    }
}

/// Workspace-relative `.rs` files touched per `git diff` (staged and
/// unstaged, against `HEAD`), for `dcdiff lint --changed`.
fn git_changed_files(root: &std::path::Path) -> Result<Vec<String>, String> {
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["diff", "--name-only", "HEAD"])
        .output()
        .map_err(|e| format!("--changed: cannot run git: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "--changed: git diff failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::trim)
        .filter(|l| l.ends_with(".rs"))
        .map(str::to_string)
        .collect())
}

/// Human-readable call-graph resolution summary for `lint --graph`.
fn render_graph_stats(g: &dcdiff_analysis::graph::GraphStats) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "call graph: {} function(s) ({} hot), {} call(s): {} resolved, \
         {} external, {} unresolved ({:.2}%)",
        g.functions,
        g.hot_functions,
        g.calls,
        g.resolved,
        g.external,
        g.unresolved,
        g.unresolved_rate() * 100.0
    );
    for (name, count) in g.unresolved_names.iter().take(20) {
        let _ = writeln!(out, "  unresolved: {name} ({count} site(s))");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<(), String> {
        dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn tmp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("dcdiff-cli-test-{}-{name}", std::process::id()));
        p.to_string_lossy().into_owned()
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
    fn batch_rejects_bad_manifests() {
        let manifest = tmp("m-syntax.txt");
        std::fs::write(&manifest, "recover a.jpg b.ppm --methud mld\n").unwrap();
        let err = run(&["batch", &manifest]).unwrap_err();
        assert!(err.contains("--methud") && err.contains("line 1"), "{err}");
        assert!(run(&["batch", &tmp("m-missing.txt")]).is_err());
        std::fs::remove_file(&manifest).ok();
    }
}
