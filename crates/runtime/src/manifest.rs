//! The job grammar: one job per line, and the flag parser every `dcdiff`
//! command reads its arguments through.
//!
//! ```text
//! # comments and blank lines are ignored
//! encode    scene0.ppm scene0.jpg --quality 80 --subsample 420 --drop-dc
//! encode    scene0.ppm fit.jpg    --budget 1200 --optimize
//! transcode scene0.jpg small.jpg  --drop-dc --optimize
//! recover   small.jpg  out.ppm    --method mld --threshold 10 --sweeps 300
//! recover   small.jpg  out2.ppm   --method diffusion --steps 8
//! metrics   scene0.ppm out.ppm
//! ```
//!
//! Each line may additionally carry serving metadata: `--deadline-ms N`
//! and `--retries N`. A one-shot `dcdiff encode|transcode|recover|metrics`
//! invocation is parsed by the same [`parse_job`] and runs as a one-line
//! batch, so a manifest line and a command line mean the same thing.

use std::time::Duration;

use dcdiff_jpeg::ChromaSampling;

use crate::job::{CodingOpts, Job, JobSpec, Rate, RecoverMethod};

/// The flags [`parse_method`] reads: the method name and each method's
/// knobs.
pub const METHOD_FLAGS: &[&str] = &["--method", "--threshold", "--sweeps", "--steps"];

/// Serving metadata any job line may carry.
const SERVING_FLAGS: &[&str] = &["--deadline-ms", "--retries"];

/// Boolean entropy-coding flags of `encode` and `transcode`.
const CODING_FLAGS: &[&str] = &["--drop-dc", "--optimize"];

/// One tokenised command: positionals in order, flags by name.
///
/// Tokens are taken as given, never re-split, so a path containing spaces
/// survives as one positional.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Line<'a> {
    /// Split `tokens` into positionals and flags. `values` names the flags
    /// that take a value and `bools` the boolean ones.
    ///
    /// # Errors
    ///
    /// Returns a message when a value flag is missing its value, or naming
    /// the offending flag when it is in neither list, so a typo like
    /// `--qualty` fails loudly instead of being silently swallowed.
    pub fn parse<S: AsRef<str>>(
        tokens: &'a [S],
        values: &[&str],
        bools: &[&str],
    ) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut tokens = tokens.iter().map(AsRef::as_ref);
        while let Some(token) = tokens.next() {
            if !token.starts_with("--") {
                positional.push(token);
            } else if values.contains(&token) {
                let value = tokens
                    .next()
                    .ok_or_else(|| format!("flag {token} requires a value"))?;
                flags.push((token, Some(value)));
            } else if bools.contains(&token) {
                flags.push((token, None));
            } else {
                return Err(format!("unknown flag '{token}'"));
            }
        }
        Ok(Line { positional, flags })
    }

    /// Positional `i`, or `missing {what}`.
    ///
    /// # Errors
    ///
    /// Returns `missing {what}` when there are at most `i` positionals.
    pub fn positional(&self, i: usize, what: &str) -> Result<String, String> {
        self.positional
            .get(i)
            .map(|s| (*s).to_string())
            .ok_or_else(|| format!("missing {what}"))
    }

    /// Every positional, in order.
    pub fn positionals(&self) -> &[&'a str] {
        &self.positional
    }

    /// Whether a flag was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    /// Value of a flag (its first occurrence).
    pub fn value(&self, name: &str) -> Option<&'a str> {
        self.values(name).next()
    }

    /// All values of a repeatable flag, in order (`--entry a --entry b`).
    pub fn values<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'a str> + 's {
        self.flags
            .iter()
            .filter(move |(n, _)| *n == name)
            .filter_map(|(_, v)| *v)
    }

    /// Numeric value of a flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse as a `T`.
    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.value(name).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("flag {name}: cannot parse '{v}'"))
        })
    }

    /// `WxH` value of a flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed sizes.
    pub fn size(&self, name: &str, default: (usize, usize)) -> Result<(usize, usize), String> {
        let Some(v) = self.value(name) else {
            return Ok(default);
        };
        let (w, h) = v
            .split_once(['x', 'X'])
            .ok_or_else(|| format!("flag {name}: expected WxH, got '{v}'"))?;
        let w = w.parse().map_err(|_| format!("flag {name}: bad width '{w}'"))?;
        let h = h.parse().map_err(|_| format!("flag {name}: bad height '{h}'"))?;
        Ok((w, h))
    }

    /// Fail naming `flag` and the first of `others` also given: flags that
    /// cannot take effect together are rejected rather than one dropped.
    fn exclusive(&self, flag: &str, others: &[&str]) -> Result<(), String> {
        match others.iter().find(|other| self.has(flag) && self.has(other)) {
            Some(other) => Err(format!("{flag} cannot be combined with {other}")),
            None => Ok(()),
        }
    }

    fn coding_opts(&self) -> Result<CodingOpts, String> {
        // Optimised tables are coded without restart markers.
        self.exclusive("--optimize", &["--restart"])?;
        Ok(CodingOpts {
            drop_dc: self.has("--drop-dc"),
            optimize: self.has("--optimize"),
            restart: self.number("--restart", 0)?,
        })
    }
}

/// Parse one job from its tokens: the command (`encode`, `transcode`,
/// `recover` or `metrics`), two paths, and the flags that command reads.
///
/// # Errors
///
/// Returns a message naming the problem (unknown command, a flag the
/// command does not read, flags that cannot take effect together, missing
/// path, malformed value).
pub fn parse_job<S: AsRef<str>>(tokens: &[S]) -> Result<JobSpec, String> {
    let command = tokens.first().map_or("", AsRef::as_ref);
    let (values, bools): (&[&str], &[&str]) = match command {
        "encode" => (&["--quality", "--budget", "--subsample", "--restart"], CODING_FLAGS),
        "transcode" => (&["--restart"], CODING_FLAGS),
        "recover" => (METHOD_FLAGS, &[]),
        "metrics" => (&[], &[]),
        "" => return Err("missing command".to_string()),
        other => return Err(format!("unknown command '{other}'")),
    };
    let line = Line::parse(tokens, &[values, SERVING_FLAGS].concat(), bools)?;
    if line.positional.len() > 3 {
        return Err(format!(
            "too many arguments ({} given, at most 3 expected)",
            line.positional.len()
        ));
    }
    let job = match command {
        "encode" => {
            // Rate control searches the quality and codes without restarts.
            line.exclusive("--budget", &["--quality", "--restart"])?;
            let rate = match line.value("--budget") {
                Some(_) => Rate::Budget(line.number("--budget", 0)?),
                None => {
                    let quality: u64 = line.number("--quality", 50)?;
                    if !(1..=100).contains(&quality) {
                        return Err("--quality must be 1..=100".to_string());
                    }
                    Rate::Quality(quality as u8)
                }
            };
            Job::Encode {
                input: line.positional(1, "input .ppm path")?,
                output: line.positional(2, "output .jpg path")?,
                rate,
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
        // The vocabulary match above admits no other command.
        _ => Job::Metrics {
            reference: line.positional(1, "reference image")?,
            test: line.positional(2, "test image")?,
        },
    };
    let mut spec = JobSpec::new(job);
    let deadline_ms = line.number("--deadline-ms", 0)?;
    if deadline_ms > 0 {
        spec = spec.with_deadline(Duration::from_millis(deadline_ms));
    }
    spec = spec.with_retries(line.number("--retries", 0)?);
    Ok(spec)
}

/// Parse one manifest line into a [`JobSpec`]: whitespace-separated tokens
/// for [`parse_job`]. Returns `None` for blank and comment (`#`) lines.
///
/// # Errors
///
/// Returns [`parse_job`]'s message.
pub fn parse_line(text: &str) -> Result<Option<JobSpec>, String> {
    let trimmed = text.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let tokens: Vec<&str> = trimmed.split_whitespace().collect();
    parse_job(&tokens).map(Some)
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

/// The method table: `--method` (default `mld`) and the knobs of the chosen
/// method. mld reads `--threshold` (default 10) and `--sweeps` (default
/// 300); diffusion reads `--steps`, its DDIM step count (default 8, the
/// executor clamps it to the trained schedule). A knob the chosen method
/// does not read is rejected by name.
///
/// # Errors
///
/// Returns a message for an unknown method, a malformed value, or a knob
/// of another method.
pub fn parse_method(line: &Line<'_>) -> Result<RecoverMethod, String> {
    let name = line.value("--method").unwrap_or("mld");
    let (method, knobs): (RecoverMethod, &[&str]) = match name {
        "tip2006" => (RecoverMethod::Tip2006, &[]),
        "smartcom" => (RecoverMethod::SmartCom, &[]),
        "icip" => (RecoverMethod::Icip, &[]),
        "mld" => (
            RecoverMethod::Mld {
                threshold: line.number("--threshold", 10.0)?,
                sweeps: line.number("--sweeps", 300)?.max(1),
            },
            &["--threshold", "--sweeps"],
        ),
        "diffusion" => (
            RecoverMethod::Diffusion { ddim_steps: line.number("--steps", 8)?.max(1) },
            &["--steps"],
        ),
        other => {
            return Err(format!(
                "unknown method '{other}' (tip2006, smartcom, icip, mld or diffusion)"
            ))
        }
    };
    match METHOD_FLAGS[1..].iter().find(|flag| line.has(flag) && !knobs.contains(flag)) {
        Some(flag) => Err(format!("flag {flag} does not apply to --method {name}")),
        None => Ok(method),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(line: &str) -> Job {
        parse_line(line).unwrap().unwrap().job
    }

    #[test]
    fn blank_and_comment_lines_skip() {
        assert_eq!(parse_line("").unwrap(), None);
        assert_eq!(parse_line("   ").unwrap(), None);
        assert_eq!(parse_line("# a comment").unwrap(), None);
    }

    #[test]
    fn encode_line_with_options() {
        match job("encode a.ppm b.jpg --quality 80 --subsample 420 --drop-dc") {
            Job::Encode { input, output, rate, sampling, opts } => {
                assert_eq!(input, "a.ppm");
                assert_eq!(output, "b.jpg");
                assert_eq!(rate, Rate::Quality(80));
                assert_eq!(sampling, ChromaSampling::Cs420);
                assert!(opts.drop_dc);
                assert!(!opts.optimize);
            }
            other => panic!("wrong job: {other:?}"),
        }
        assert!(matches!(
            job("encode a.ppm b.jpg --budget 1500 --optimize"),
            Job::Encode { rate: Rate::Budget(1500), opts: CodingOpts { optimize: true, .. }, .. }
        ));
        assert!(parse_line("encode a.ppm b.jpg --quality 300").is_err());
    }

    #[test]
    fn optimize_with_restart_is_rejected_by_name() {
        for line in [
            "encode a.ppm b.jpg --optimize --restart 4",
            "transcode a.jpg b.jpg --restart 4 --optimize",
        ] {
            let err = parse_line(line).unwrap_err();
            assert_eq!(err, "--optimize cannot be combined with --restart", "{line}");
        }
    }

    #[test]
    fn budget_with_quality_is_rejected_by_name() {
        let err = parse_line("encode a.ppm b.jpg --budget 1500 --quality 90").unwrap_err();
        assert_eq!(err, "--budget cannot be combined with --quality");
    }

    #[test]
    fn budget_with_restart_is_rejected_by_name() {
        let err = parse_line("encode a.ppm b.jpg --budget 1500 --restart 2").unwrap_err();
        assert_eq!(err, "--budget cannot be combined with --restart");
    }

    #[test]
    fn recover_defaults_to_mld() {
        assert_eq!(
            job("recover in.jpg out.ppm").recover_method(),
            Some(&RecoverMethod::Mld { threshold: 10.0, sweeps: 300 })
        );
    }

    #[test]
    fn recover_diffusion_takes_sweeps_as_step_count() {
        assert_eq!(
            job("recover in.jpg out.ppm --method diffusion").recover_method(),
            Some(&RecoverMethod::Diffusion { ddim_steps: 8 })
        );
        assert_eq!(
            job("recover in.jpg out.ppm --method diffusion --steps 16").recover_method(),
            Some(&RecoverMethod::Diffusion { ddim_steps: 16 })
        );
        // Diffusion's step count is `--steps`; the old `--sweeps` spelling
        // fails loudly, with its line number, instead of meaning steps.
        let err = parse_manifest("recover in.jpg out.ppm --method diffusion --sweeps 8\n")
            .unwrap_err();
        assert_eq!(err, "line 1: flag --sweeps does not apply to --method diffusion");
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
        assert_eq!(err, "unknown flag '--qualty'");
        // A manifest line carrying a retired flag is rejected by name, not
        // run without it.
        let err = parse_manifest("metrics a.ppm b.ppm --ingest-ms 15\n").unwrap_err();
        assert_eq!(err, "line 1: unknown flag '--ingest-ms'");
        // Flags outside the job grammar are unknown here too.
        let err = parse_job(&["encode", "a.ppm", "b.jpg", "--workers", "4"]).unwrap_err();
        assert_eq!(err, "unknown flag '--workers'");
        // A method knob the chosen method does not read is named, not ignored.
        for (line, flag, method) in [
            ("recover a.jpg b.ppm --method tip2006 --threshold 5", "--threshold", "tip2006"),
            ("recover a.jpg b.ppm --method icip --sweeps 5", "--sweeps", "icip"),
            ("recover a.jpg b.ppm --steps 2", "--steps", "mld"),
            ("recover a.jpg b.ppm --method smartcom --steps 2", "--steps", "smartcom"),
            ("recover a.jpg b.ppm --method diffusion --threshold 5", "--threshold", "diffusion"),
        ] {
            let err = parse_line(line).unwrap_err();
            assert_eq!(err, format!("flag {flag} does not apply to --method {method}"));
        }
        // Each job kind reads only its own flags.
        let err = parse_line("metrics a.ppm b.ppm --method mld").unwrap_err();
        assert_eq!(err, "unknown flag '--method'");
        let err = parse_line("recover a.jpg b.ppm --quality 80").unwrap_err();
        assert_eq!(err, "unknown flag '--quality'");
    }

    #[test]
    fn unknown_command_and_method_error() {
        assert!(parse_line("frobnicate a b").unwrap_err().contains("frobnicate"));
        assert!(parse_line("recover a b --method nope")
            .unwrap_err()
            .contains("nope"));
    }

    #[test]
    fn method_names_round_trip() {
        for name in ["tip2006", "smartcom", "icip", "mld", "diffusion"] {
            let tokens = ["--method", name];
            let line = Line::parse(&tokens, METHOD_FLAGS, &[]).unwrap();
            assert_eq!(parse_method(&line).expect("known method").name(), name);
        }
        let line = Line::parse(&["--method", "gan"], METHOD_FLAGS, &[]).unwrap();
        assert!(parse_method(&line).is_err());
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

    #[test]
    fn tokens_are_not_resplit() {
        let spec = parse_job(&["recover", "my scans/in.jpg", "out dir/out.ppm"]).unwrap();
        assert_eq!(
            spec.job,
            Job::Recover {
                input: "my scans/in.jpg".into(),
                output: "out dir/out.ppm".into(),
                method: RecoverMethod::Mld { threshold: 10.0, sweeps: 300 },
            }
        );
    }

    fn parse<'a>(tokens: &'a [&'a str]) -> Line<'a> {
        Line::parse(tokens, &["--quality", "--size", "--seed", "--entry", "--rule"], &[
            "--optimize",
            "--drop-dc",
            "--graph",
        ])
        .unwrap()
    }

    #[test]
    fn positionals_and_flags_mix() {
        let p = parse(&["encode", "a.ppm", "--quality", "80", "b.jpg", "--optimize"]);
        assert_eq!(p.positionals(), ["encode", "a.ppm", "b.jpg"]);
        assert_eq!(p.number("--quality", 50).unwrap(), 80);
        assert!(p.has("--optimize"));
        assert!(!p.has("--drop-dc"));
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = Line::parse(&["encode", "--quality"], &["--quality"], &[]).unwrap_err();
        assert_eq!(err, "flag --quality requires a value");
    }

    #[test]
    fn unknown_flag_is_rejected_by_name() {
        let err = Line::parse(&["encode", "--qualty", "80"], &["--quality"], &[]).unwrap_err();
        assert_eq!(err, "unknown flag '--qualty'");
    }

    #[test]
    fn bad_integer_is_an_error() {
        let p = parse(&["--quality", "high"]);
        assert!(p.number("--quality", 50).is_err());
    }

    #[test]
    fn size_parsing() {
        let p = parse(&["--size", "128x96"]);
        assert_eq!(p.size("--size", (0, 0)).unwrap(), (128, 96));
        let bad = parse(&["--size", "128"]);
        assert!(bad.size("--size", (0, 0)).is_err());
    }

    #[test]
    fn repeatable_value_flags_collect_in_order() {
        let p = parse(&["lint", "--entry", "a::b", "--graph", "--entry", "c::d"]);
        let entries: Vec<_> = p.values("--entry").collect();
        assert_eq!(entries, vec!["a::b", "c::d"]);
        assert!(p.has("--graph"));
        assert_eq!(p.values("--rule").count(), 0);
    }

    #[test]
    fn defaults_apply() {
        let p = parse(&["demo"]);
        assert_eq!(p.number("--seed", 7).unwrap(), 7);
        assert_eq!(p.size("--size", (96, 96)).unwrap(), (96, 96));
    }
}
