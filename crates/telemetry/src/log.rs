//! Leveled, rate-limited logging to stderr.
//!
//! Replaces the ad-hoc `eprintln!` calls scattered through the CLI and bench
//! harness: messages below the configured [`Level`] are dropped, and a
//! per-second emission cap keeps a failing 10k-job batch from flooding the
//! terminal — suppressed lines are counted (the `log.suppressed` counter)
//! and summarised when the window rolls over or, if messages stop arriving
//! before the roll, when [`Logger::flush_suppressed`] runs (wired into
//! `Telemetry::flush` and drop), so suppression is never silent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::metrics::Counter;
use crate::sync::{Mutex, Rank};

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or job-terminal problems.
    Error,
    /// Degraded-but-continuing conditions (retries, shed load).
    Warn,
    /// Lifecycle milestones (default).
    Info,
    /// Per-job detail.
    Debug,
}

impl Level {
    /// Lower-case name, as printed and as accepted by `--log-level`.
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

impl std::str::FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "error" => Ok(Level::Error),
            "warn" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            other => Err(format!(
                "unknown log level '{other}' (error, warn, info or debug)"
            )),
        }
    }
}

struct RateWindow {
    started: Instant,
    emitted: u32,
    suppressed: u64,
}

/// Rate-limited leveled stderr logger.
#[derive(Debug)]
pub struct Logger {
    level: Level,
    max_per_sec: u32,
    window: Mutex<Option<RateWindow>>,
    suppressed_total: AtomicU64,
    /// Registry counter bumped per suppressed line (`log.suppressed`), so
    /// dashboards see drops that stderr never showed. `None` for bare
    /// loggers constructed outside a `Telemetry` handle.
    suppressed_counter: Option<Counter>,
}

impl std::fmt::Debug for RateWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RateWindow")
            .field("emitted", &self.emitted)
            .field("suppressed", &self.suppressed)
            .finish()
    }
}

impl Logger {
    /// Logger at `level` emitting at most `max_per_sec` lines per second
    /// (at least 1).
    pub fn new(level: Level, max_per_sec: u32) -> Self {
        Logger {
            level,
            max_per_sec: max_per_sec.max(1),
            window: Mutex::new(Rank::LogWindow, None),
            suppressed_total: AtomicU64::new(0),
            suppressed_counter: None,
        }
    }

    /// Attach the registry counter bumped once per suppressed line
    /// (`Telemetry::builder` wires `log.suppressed` here).
    #[must_use]
    pub fn with_suppressed_counter(mut self, counter: Counter) -> Self {
        self.suppressed_counter = Some(counter);
        self
    }

    /// The configured level.
    pub fn level(&self) -> Level {
        self.level
    }

    /// Whether a message at `level` would be emitted or rate-counted (i.e.
    /// passes the level filter).
    pub fn enabled(&self, level: Level) -> bool {
        level <= self.level
    }

    /// Total lines dropped by the rate limiter so far.
    pub fn suppressed_total(&self) -> u64 {
        self.suppressed_total.load(Ordering::Relaxed)
    }

    /// Log `msg` at `level`, subject to the level filter and rate limit.
    pub fn log(&self, level: Level, msg: &str) {
        if !self.enabled(level) {
            return;
        }
        let mut guard = self.window.lock();
        let now = Instant::now();
        let window = guard.get_or_insert_with(|| RateWindow {
            started: now,
            emitted: 0,
            suppressed: 0,
        });
        if now.duration_since(window.started).as_secs() >= 1 {
            if window.suppressed > 0 {
                eprintln!(
                    "[warn] log rate limit: suppressed {} line(s) in the last window",
                    window.suppressed
                );
            }
            window.started = now;
            window.emitted = 0;
            window.suppressed = 0;
        }
        if window.emitted < self.max_per_sec {
            window.emitted += 1;
            drop(guard);
            eprintln!("[{}] {msg}", level.name());
        } else {
            window.suppressed += 1;
            self.suppressed_total.fetch_add(1, Ordering::Relaxed);
            if let Some(counter) = &self.suppressed_counter {
                counter.inc();
            }
        }
    }

    /// Emit the pending suppression summary, if any. The in-window summary
    /// only prints when a *new* message rolls the window; if the log storm
    /// simply stops, the tail of suppressed lines would stay invisible —
    /// this flushes it. Called by `Telemetry::flush` and on handle drop.
    pub fn flush_suppressed(&self) {
        let mut guard = self.window.lock();
        if let Some(window) = guard.as_mut() {
            if window.suppressed > 0 {
                let n = window.suppressed;
                window.suppressed = 0;
                drop(guard);
                eprintln!("[warn] log rate limit: suppressed {n} line(s) in the last window");
            }
        }
    }
}

impl Default for Logger {
    /// Info-level logger capped at 64 lines per second.
    fn default() -> Self {
        Logger::new(Level::Info, 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing_and_ordering() {
        assert_eq!("warn".parse::<Level>().unwrap(), Level::Warn);
        assert!("verbose".parse::<Level>().is_err());
        assert!(Level::Error < Level::Debug);
    }

    #[test]
    fn level_filter_drops_below_threshold() {
        let logger = Logger::new(Level::Warn, 100);
        assert!(logger.enabled(Level::Error));
        assert!(logger.enabled(Level::Warn));
        assert!(!logger.enabled(Level::Info));
        // Filtered lines are dropped silently, not counted as suppressed.
        logger.log(Level::Debug, "invisible");
        assert_eq!(logger.suppressed_total(), 0);
    }

    #[test]
    fn rate_limit_suppresses_beyond_cap() {
        let logger = Logger::new(Level::Info, 3);
        for i in 0..10 {
            logger.log(Level::Info, &format!("burst {i}"));
        }
        assert_eq!(logger.suppressed_total(), 7);
    }

    #[test]
    fn suppressed_lines_bump_the_attached_counter() {
        let counter = Counter::new();
        let logger = Logger::new(Level::Info, 2).with_suppressed_counter(counter.clone());
        for i in 0..6 {
            logger.log(Level::Info, &format!("burst {i}"));
        }
        assert_eq!(counter.get(), 4);
        // Level-filtered lines are not "suppressed" — they never qualified.
        logger.log(Level::Debug, "invisible");
        assert_eq!(counter.get(), 4);
    }

    #[test]
    fn flush_suppressed_clears_the_pending_window() {
        let logger = Logger::new(Level::Info, 1);
        logger.log(Level::Info, "kept");
        logger.log(Level::Info, "dropped");
        logger.flush_suppressed();
        // The summary printed and reset the window; a second flush has
        // nothing left to report (observable as the counter not moving).
        logger.flush_suppressed();
        assert_eq!(logger.suppressed_total(), 1);
        // Flushing a never-used logger is a no-op.
        Logger::new(Level::Info, 1).flush_suppressed();
    }
}
