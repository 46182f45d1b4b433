//! Minimal flag parsing (positional arguments + `--flag [value]` pairs).

/// Parsed command line: positionals in order, flags by name.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Parsed {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

/// Flags that take a value.
const VALUE_FLAGS: &[&str] = &[
    "--quality",
    "--subsample",
    "--restart",
    "--method",
    "--scene",
    "--size",
    "--seed",
    "--sweeps",
    "--threshold",
    "--budget",
    "--workers",
    "--queue-cap",
    "--retries",
    "--batch",
    "--trace",
    "--metrics",
    "--log-level",
    "--rule",
    "--root",
    "--entry",
    "--why",
    "--max-unresolved",
    "--addr",
    "--class",
    "--max-conns",
    "--client-inflight",
    "--max-body",
    "--interval-ms",
];

/// Boolean flags. Anything not listed here or in [`VALUE_FLAGS`] is rejected
/// by name, so a typo like `--qualty` fails loudly instead of being silently
/// swallowed as an unused boolean.
const BOOL_FLAGS: &[&str] = &[
    "--optimize",
    "--drop-dc",
    "--fail-fast",
    "--no-fallback",
    "--json",
    "--update-ledger",
    "--dc-plane",
    "--once",
    "--graph",
];

impl Parsed {
    /// Parse an argument list.
    ///
    /// # Errors
    ///
    /// Returns a message when a value flag is missing its value, or naming
    /// the offending flag when it is not recognised at all.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = Parsed::default();
        let mut iter = args.iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let name = format!("--{name}");
                if VALUE_FLAGS.contains(&name.as_str()) {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("flag {name} requires a value"))?;
                    out.flags.push((name, Some(value.clone())));
                } else if BOOL_FLAGS.contains(&name.as_str()) {
                    out.flags.push((name, None));
                } else {
                    return Err(format!("unknown flag '{name}'"));
                }
            } else {
                out.positional.push(arg.clone());
            }
        }
        Ok(out)
    }

    /// Positional argument `i`.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// Number of positional arguments.
    pub fn positional_len(&self) -> usize {
        self.positional.len()
    }

    /// Whether a boolean flag was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// String value of a flag.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// All values of a repeatable flag, in order (`--entry a --entry b`).
    pub fn values<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.flags
            .iter()
            .filter(move |(n, _)| n == name)
            .filter_map(|(_, v)| v.as_deref())
    }

    /// Integer value of a flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn int(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag {name}: '{v}' is not an integer")),
        }
    }

    /// Float value of a flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn float(&self, name: &str, default: f32) -> Result<f32, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag {name}: '{v}' is not a number")),
        }
    }

    /// Parse a `WxH` size value.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed sizes.
    pub fn size(&self, name: &str, default: (usize, usize)) -> Result<(usize, usize), String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => {
                let (w, h) = v
                    .split_once(['x', 'X'])
                    .ok_or_else(|| format!("flag {name}: expected WxH, got '{v}'"))?;
                let w = w
                    .parse()
                    .map_err(|_| format!("flag {name}: bad width '{w}'"))?;
                let h = h
                    .parse()
                    .map_err(|_| format!("flag {name}: bad height '{h}'"))?;
                Ok((w, h))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Parsed {
        Parsed::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn positionals_and_flags_mix() {
        let p = parse(&["encode", "a.ppm", "--quality", "80", "b.jpg", "--optimize"]);
        assert_eq!(p.positional(0), Some("encode"));
        assert_eq!(p.positional(1), Some("a.ppm"));
        assert_eq!(p.positional(2), Some("b.jpg"));
        assert_eq!(p.int("--quality", 50).unwrap(), 80);
        assert!(p.has("--optimize"));
        assert!(!p.has("--drop-dc"));
    }

    #[test]
    fn missing_value_is_an_error() {
        let args = vec!["encode".to_string(), "--quality".to_string()];
        assert!(Parsed::parse(&args).is_err());
    }

    #[test]
    fn unknown_flag_is_rejected_by_name() {
        let args = vec!["encode".to_string(), "--qualty".to_string(), "80".to_string()];
        let err = Parsed::parse(&args).unwrap_err();
        assert!(err.contains("--qualty"), "error must name the flag: {err}");
    }

    #[test]
    fn bad_integer_is_an_error() {
        let p = parse(&["--quality", "high"]);
        assert!(p.int("--quality", 50).is_err());
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
        assert_eq!(p.int("--seed", 7).unwrap(), 7);
        assert_eq!(p.size("--size", (96, 96)).unwrap(), (96, 96));
    }
}
