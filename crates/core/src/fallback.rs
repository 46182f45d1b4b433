//! Failure vocabulary for DC recovery: why a diffusion attempt produced no
//! image ([`EstimateError`]), and the [`CircuitBreaker`] a serving receiver
//! puts in front of the diffusion tier.
//!
//! The diffusion estimator is the quality tier, but it is also the slow
//! and failure-prone one: it can blow a latency deadline, and a model bug
//! can panic. The degradation ladder that turns such a failure into a
//! statistical-baseline or flat-DC picture lives in the serving runtime
//! (`dcdiff_runtime::recover_guarded`); this module supplies its parts.
//! After `threshold` consecutive failures the breaker opens and jobs skip
//! the primary tier (no deadline burned on an estimator that is currently
//! broken), probing it again after a cooldown.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use dcdiff_core::{BreakerState, CircuitBreaker};
//!
//! let breaker = CircuitBreaker::new(2, Duration::from_millis(50));
//! assert_eq!(breaker.state(), BreakerState::Closed);
//! breaker.record_failure();
//! breaker.record_failure(); // second consecutive failure trips it
//! assert_eq!(breaker.state(), BreakerState::Open);
//! assert!(!breaker.allow());
//! std::thread::sleep(Duration::from_millis(60));
//! assert!(breaker.allow()); // cooldown elapsed: half-open probe
//! breaker.record_success();
//! assert_eq!(breaker.state(), BreakerState::Closed);
//! ```

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Why a diffusion recovery attempt did not produce an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EstimateError {
    /// The per-job deadline passed; `phase` names the pipeline phase
    /// that observed it (`"start"`, `"ddim"`, `"decode"`, …).
    DeadlineExceeded {
        /// Pipeline phase at which the deadline was detected.
        phase: &'static str,
    },
    /// The model stack panicked; the payload message is preserved.
    Panicked(String),
}

impl EstimateError {
    /// Build [`EstimateError::Panicked`] from a caught panic payload.
    pub fn panicked(payload: Box<dyn std::any::Any + Send>) -> Self {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "estimator panicked".to_string());
        EstimateError::Panicked(msg)
    }
}

impl std::fmt::Display for EstimateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimateError::DeadlineExceeded { phase } => {
                write!(f, "recovery deadline exceeded during {phase}")
            }
            EstimateError::Panicked(msg) => write!(f, "estimator panicked: {msg}"),
        }
    }
}

impl std::error::Error for EstimateError {}

/// Circuit-breaker state (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every job tries the primary estimator.
    Closed,
    /// Tripped: jobs skip the primary until the cooldown elapses.
    Open,
    /// Cooldown elapsed: probe jobs try the primary again; one success
    /// closes the breaker, one failure re-opens it.
    HalfOpen,
}

impl BreakerState {
    /// Numeric encoding used for the `breaker.state` telemetry gauge
    /// (0 = closed, 1 = half-open, 2 = open).
    pub fn as_gauge(self) -> i64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }
}

const CLOSED: u8 = 0;
const HALF_OPEN: u8 = 1;
const OPEN: u8 = 2;

/// Thread-safe circuit breaker tripping after N consecutive failures.
///
/// Shared by every worker of a runtime (behind an `Arc`): all state is
/// atomic, so recording outcomes from concurrent jobs is safe. The
/// breaker is time-based — once open, it stays open for `cooldown`, then
/// lets probes through ([`BreakerState::HalfOpen`]) until one succeeds
/// (→ closed) or fails (→ open again, cooldown restarted).
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    state: AtomicU8,
    consecutive_failures: AtomicU32,
    /// Nanoseconds from `epoch` at which the breaker last opened.
    opened_at_nanos: AtomicU64,
    epoch: Instant,
}

impl CircuitBreaker {
    /// Breaker tripping after `threshold` consecutive failures, staying
    /// open for `cooldown` before letting a probe through.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero (the breaker would never close).
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        assert!(threshold > 0, "breaker threshold must be at least 1");
        Self {
            threshold,
            cooldown,
            state: AtomicU8::new(CLOSED),
            consecutive_failures: AtomicU32::new(0),
            opened_at_nanos: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Configured consecutive-failure threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Configured cooldown before probing resumes.
    pub fn cooldown(&self) -> Duration {
        self.cooldown
    }

    /// Whether the next job may try the primary estimator. Transitions
    /// open → half-open when the cooldown has elapsed.
    pub fn allow(&self) -> bool {
        match self.state.load(Ordering::Acquire) {
            CLOSED | HALF_OPEN => true,
            _ => {
                let opened = self.opened_at_nanos.load(Ordering::Acquire);
                let elapsed = self.epoch.elapsed().as_nanos() as u64 - opened;
                if elapsed >= self.cooldown.as_nanos() as u64 {
                    self.state.store(HALF_OPEN, Ordering::Release);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a successful primary recovery: resets the failure streak
    /// and closes the breaker.
    pub fn record_success(&self) {
        self.consecutive_failures.store(0, Ordering::Release);
        self.state.store(CLOSED, Ordering::Release);
    }

    /// Record a failed primary recovery: a probe failure re-opens
    /// immediately; in closed state the breaker opens once the streak
    /// reaches the threshold.
    pub fn record_failure(&self) {
        let streak = self.consecutive_failures.fetch_add(1, Ordering::AcqRel) + 1;
        let was = self.state.load(Ordering::Acquire);
        if was == HALF_OPEN || streak >= self.threshold {
            self.opened_at_nanos
                .store(self.epoch.elapsed().as_nanos() as u64, Ordering::Release);
            self.state.store(OPEN, Ordering::Release);
        }
    }

    /// Current state (open → half-open transitions happen in
    /// [`CircuitBreaker::allow`], so this is a snapshot, not a poll).
    pub fn state(&self) -> BreakerState {
        match self.state.load(Ordering::Acquire) {
            CLOSED => BreakerState::Closed,
            HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Open,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_resets_after_cooldown_and_success() {
        let breaker = CircuitBreaker::new(1, Duration::from_millis(10));
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
        assert!(!breaker.allow());
        std::thread::sleep(Duration::from_millis(20));
        assert!(breaker.allow(), "cooldown elapsed: probe allowed");
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        breaker.record_success();
        assert_eq!(breaker.state(), BreakerState::Closed);
    }

    #[test]
    fn probe_failure_reopens_immediately() {
        let breaker = CircuitBreaker::new(5, Duration::from_millis(5));
        for _ in 0..5 {
            breaker.record_failure();
        }
        assert_eq!(breaker.state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(10));
        assert!(breaker.allow());
        breaker.record_failure(); // a single probe failure re-opens
        assert_eq!(breaker.state(), BreakerState::Open);
        assert!(!breaker.allow(), "cooldown restarted");
    }
}
