//! Manifest parsing: one job per line, in CLI sub-command syntax.
//!
//! ```text
//! # comments and blank lines are ignored
//! encode    scene0.ppm scene0.jpg --quality 80 --subsample 420 --drop-dc
//! transcode scene0.jpg small.jpg  --drop-dc --optimize
//! recover   small.jpg  out.ppm    --method mld --threshold 10 --sweeps 300
//! recover   small.jpg  out2.ppm   --method diffusion --sweeps 8
//! metrics   scene0.ppm out.ppm
//! ```
//!
//! Each line may additionally carry serving metadata: `--deadline-ms N`
//! and `--retries N`.

use std::time::Duration;

use dcdiff_jpeg::ChromaSampling;

use crate::job::{CodingOpts, Job, JobSpec, RecoverMethod};

/// Flags that take a value; everything else is boolean. Unknown flags are
/// rejected by name.
const VALUE_FLAGS: &[&str] = &[
    "--quality",
    "--subsample",
    "--restart",
    "--method",
    "--threshold",
    "--sweeps",
    "--deadline-ms",
    "--retries",
];

/// Boolean flags accepted in manifests.
const BOOL_FLAGS: &[&str] = &["--drop-dc", "--optimize"];

struct Line<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Line<'a> {
    fn parse(text: &'a str) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut tokens = text.split_whitespace().peekable();
        while let Some(token) = tokens.next() {
            if token.starts_with("--") {
                if VALUE_FLAGS.contains(&token) {
                    let value = tokens
                        .next()
                        .ok_or_else(|| format!("flag {token} requires a value"))?;
                    flags.push((token, Some(value)));
                } else if BOOL_FLAGS.contains(&token) {
                    flags.push((token, None));
                } else {
                    return Err(format!("unknown flag '{token}'"));
                }
            } else {
                positional.push(token);
            }
        }
        Ok(Line { positional, flags })
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| *v)
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    fn int(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag {name}: '{v}' is not an integer")),
        }
    }

    fn float(&self, name: &str, default: f32) -> Result<f32, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag {name}: '{v}' is not a number")),
        }
    }

    fn positional(&self, i: usize, what: &str) -> Result<String, String> {
        self.positional
            .get(i)
            .map(|s| (*s).to_string())
            .ok_or_else(|| format!("missing {what}"))
    }

    fn coding_opts(&self) -> Result<CodingOpts, String> {
        Ok(CodingOpts {
            drop_dc: self.has("--drop-dc"),
            optimize: self.has("--optimize"),
            restart: self.int("--restart", 0)? as usize,
        })
    }
}

/// Parse one manifest line into a [`JobSpec`]. Returns `None` for blank and
/// comment (`#`) lines.
///
/// # Errors
///
/// Returns a message naming the problem (unknown command, unknown flag,
/// missing path, malformed value).
pub fn parse_line(text: &str) -> Result<Option<JobSpec>, String> {
    let trimmed = text.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let line = Line::parse(trimmed)?;
    let command = line.positional(0, "command")?;
    if line.positional.len() > 3 {
        return Err(format!(
            "too many arguments ({} given, at most 3 expected)",
            line.positional.len()
        ));
    }
    let job = match command.as_str() {
        "encode" => {
            let quality = line.int("--quality", 50)? as u8;
            if !(1..=100).contains(&quality) {
                return Err("--quality must be 1..=100".to_string());
            }
            Job::Encode {
                input: line.positional(1, "input .ppm path")?,
                output: line.positional(2, "output .jpg path")?,
                quality,
                sampling: parse_sampling(line.value("--subsample"))?,
                opts: line.coding_opts()?,
            }
        }
        "transcode" => Job::Transcode {
            input: line.positional(1, "input .jpg path")?,
            output: line.positional(2, "output .jpg path")?,
            opts: line.coding_opts()?,
        },
        "recover" => Job::Recover {
            input: line.positional(1, "input .jpg path")?,
            output: line.positional(2, "output .ppm path")?,
            method: parse_method(&line)?,
        },
        "metrics" => Job::Metrics {
            reference: line.positional(1, "reference image")?,
            test: line.positional(2, "test image")?,
        },
        other => return Err(format!("unknown command '{other}'")),
    };
    let mut spec = JobSpec::new(job);
    let deadline_ms = line.int("--deadline-ms", 0)?;
    if deadline_ms > 0 {
        spec = spec.with_deadline(Duration::from_millis(deadline_ms));
    }
    spec = spec.with_retries(line.int("--retries", 0)? as u32);
    Ok(Some(spec))
}

/// Parse a full manifest; errors are prefixed with their 1-based line number.
///
/// # Errors
///
/// Returns the first malformed line's message as `line N: ...`.
pub fn parse_manifest(text: &str) -> Result<Vec<JobSpec>, String> {
    let mut specs = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        match parse_line(raw) {
            Ok(Some(spec)) => specs.push(spec),
            Ok(None) => {}
            Err(msg) => return Err(format!("line {}: {msg}", i + 1)),
        }
    }
    Ok(specs)
}

fn parse_sampling(value: Option<&str>) -> Result<ChromaSampling, String> {
    match value {
        None | Some("444") => Ok(ChromaSampling::Cs444),
        Some("422") => Ok(ChromaSampling::Cs422),
        Some("420") => Ok(ChromaSampling::Cs420),
        Some(other) => Err(format!("unknown subsampling '{other}' (444, 422 or 420)")),
    }
}

fn parse_method(line: &Line<'_>) -> Result<RecoverMethod, String> {
    match line.value("--method").unwrap_or("mld") {
        "tip2006" => Ok(RecoverMethod::Tip2006),
        "smartcom" => Ok(RecoverMethod::SmartCom),
        "icip" => Ok(RecoverMethod::Icip),
        "mld" => Ok(RecoverMethod::Mld {
            threshold: line.float("--threshold", 10.0)?,
            sweeps: line.int("--sweeps", 300)?.max(1) as usize,
        }),
        // `--sweeps` doubles as the DDIM step count, mirroring the CLI
        // recover sub-command; the serving default of 8 matches `dcdiff
        // serve`, and the executor clamps to the trained schedule length.
        "diffusion" => Ok(RecoverMethod::Diffusion {
            ddim_steps: line.int("--sweeps", 8)?.max(1) as usize,
        }),
        other => Err(format!("unknown method '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_and_comment_lines_skip() {
        assert_eq!(parse_line("").unwrap(), None);
        assert_eq!(parse_line("   ").unwrap(), None);
        assert_eq!(parse_line("# a comment").unwrap(), None);
    }

    #[test]
    fn encode_line_with_options() {
        let spec = parse_line("encode a.ppm b.jpg --quality 80 --subsample 420 --drop-dc")
            .unwrap()
            .unwrap();
        match spec.job {
            Job::Encode { input, output, quality, sampling, opts } => {
                assert_eq!(input, "a.ppm");
                assert_eq!(output, "b.jpg");
                assert_eq!(quality, 80);
                assert_eq!(sampling, ChromaSampling::Cs420);
                assert!(opts.drop_dc);
                assert!(!opts.optimize);
            }
            other => panic!("wrong job: {other:?}"),
        }
    }

    #[test]
    fn recover_defaults_to_mld() {
        let spec = parse_line("recover in.jpg out.ppm").unwrap().unwrap();
        assert_eq!(
            spec.job.recover_method(),
            Some(&RecoverMethod::Mld { threshold: 10.0, sweeps: 300 })
        );
    }

    #[test]
    fn recover_diffusion_takes_sweeps_as_step_count() {
        let spec = parse_line("recover in.jpg out.ppm --method diffusion")
            .unwrap()
            .unwrap();
        assert_eq!(
            spec.job.recover_method(),
            Some(&RecoverMethod::Diffusion { ddim_steps: 8 })
        );
        let spec = parse_line("recover in.jpg out.ppm --method diffusion --sweeps 16")
            .unwrap()
            .unwrap();
        assert_eq!(
            spec.job.recover_method(),
            Some(&RecoverMethod::Diffusion { ddim_steps: 16 })
        );
    }

    #[test]
    fn serving_metadata_parses() {
        let spec = parse_line("metrics a.ppm b.ppm --deadline-ms 250 --retries 2")
            .unwrap()
            .unwrap();
        assert_eq!(spec.deadline, Some(Duration::from_millis(250)));
        assert_eq!(spec.max_retries, 2);
    }

    #[test]
    fn unknown_flag_is_named() {
        let err = parse_line("encode a.ppm b.jpg --qualty 80").unwrap_err();
        assert!(err.contains("--qualty"), "{err}");
        // A manifest line carrying a retired flag is rejected by name, not
        // run without it.
        let err = parse_manifest("metrics a.ppm b.ppm --ingest-ms 15\n").unwrap_err();
        assert_eq!(err, "line 1: unknown flag '--ingest-ms'");
    }

    #[test]
    fn unknown_command_and_method_error() {
        assert!(parse_line("frobnicate a b").unwrap_err().contains("frobnicate"));
        assert!(parse_line("recover a b --method nope")
            .unwrap_err()
            .contains("nope"));
    }

    #[test]
    fn manifest_errors_carry_line_numbers() {
        let err = parse_manifest("metrics a.ppm b.ppm\nrecover x.jpg y.ppm --method bad\n")
            .unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn manifest_parses_multiple_jobs() {
        let manifest = "\
# pipeline
encode a.ppm a.jpg --quality 70
transcode a.jpg b.jpg --drop-dc --optimize

recover b.jpg c.ppm --method tip2006
metrics a.ppm c.ppm
";
        let specs = parse_manifest(manifest).unwrap();
        assert_eq!(specs.len(), 4);
    }
}
