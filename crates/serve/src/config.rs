//! Server tunables: deadline classes, admission thresholds, fairness caps.

use std::path::PathBuf;
use std::time::Duration;

use dcdiff_runtime::{RecoverMethod, RuntimeConfig};

/// One admission class, selected per request via the `x-deadline-class`
/// header.
///
/// Shedding is graduated by class: a class is only admitted while the
/// runtime queue is below `admit_below × queue_cap`, so when the queue
/// climbs under overload, bulk traffic sheds first, standard next, and
/// interactive traffic keeps being admitted until the queue is truly full.
/// This mirrors the paper's serving story — DC recovery for interactive
/// viewers must stay inside its latency budget even while bulk re-encoding
/// backlogs are dropped.
#[derive(Debug, Clone)]
pub struct DeadlineClass {
    /// Wire name (`x-deadline-class: interactive`).
    pub name: String,
    /// Per-job runtime deadline; `None` means the job may wait arbitrarily
    /// long in the queue (bulk).
    pub deadline: Option<Duration>,
    /// Admit only while `queue_depth < admit_below * queue_cap`, in `(0, 1]`.
    pub admit_below: f64,
}

impl DeadlineClass {
    /// Standard three-class ladder: interactive (500 ms, admitted to the
    /// last queue slot), standard (2 s, admitted below 75 % depth), bulk
    /// (no deadline, admitted below 50 % depth).
    pub fn default_ladder() -> Vec<DeadlineClass> {
        vec![
            DeadlineClass {
                name: "interactive".to_string(),
                deadline: Some(Duration::from_millis(500)),
                admit_below: 1.0,
            },
            DeadlineClass {
                name: "standard".to_string(),
                deadline: Some(Duration::from_secs(2)),
                admit_below: 0.75,
            },
            DeadlineClass {
                name: "bulk".to_string(),
                deadline: None,
                admit_below: 0.5,
            },
        ]
    }
}

/// Everything a [`crate::Server`] needs to run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Configuration for the embedded [`dcdiff_runtime::Runtime`].
    pub runtime: RuntimeConfig,
    /// Largest accepted request body; declared-larger uploads get 413
    /// without the payload being read (the transport-level analogue of the
    /// codec's `MAX_DECODE_PIXELS` guard).
    pub max_body_bytes: usize,
    /// Hard cap on simultaneously open client connections.
    pub max_connections: usize,
    /// Per-client (peer IP) cap on requests past admission at once; the
    /// fairness backstop against one client monopolising the queue.
    pub per_client_inflight: usize,
    /// Admission classes; must be non-empty.
    pub classes: Vec<DeadlineClass>,
    /// Class applied when a request names none.
    pub default_class: String,
    /// Extra wall time past the class deadline before the handler stops
    /// waiting for a watched result and answers 504 (covers execution time
    /// after a deadline-checked pop).
    pub wait_grace: Duration,
    /// Wait budget for classes without a deadline.
    pub bulk_wait: Duration,
    /// How long a graceful drain waits for open connections to finish.
    pub drain_grace: Duration,
    /// Idle keep-alive connections are closed after this long.
    pub keep_alive_idle: Duration,
    /// Directory for spooled request/response images.
    pub spool_dir: PathBuf,
    /// Recovery method applied to served requests.
    pub method: RecoverMethod,
    /// How often the metrics ticker snapshots the registry for rolling
    /// windows (see `dcdiff_telemetry::WindowedMetrics`).
    pub metrics_epoch: Duration,
    /// Rolling-window lengths exposed by `GET /metrics` (Prometheus
    /// exposition) as `window`-labelled rate and quantile series.
    pub metrics_windows: Vec<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            runtime: RuntimeConfig::default(),
            max_body_bytes: 16 << 20,
            max_connections: 64,
            per_client_inflight: 4,
            classes: DeadlineClass::default_ladder(),
            default_class: "standard".to_string(),
            wait_grace: Duration::from_secs(2),
            bulk_wait: Duration::from_secs(30),
            drain_grace: Duration::from_secs(10),
            keep_alive_idle: Duration::from_secs(5),
            spool_dir: std::env::temp_dir().join("dcdiff-serve"),
            method: RecoverMethod::Mld {
                threshold: 10.0,
                sweeps: 300,
            },
            metrics_epoch: Duration::from_secs(1),
            metrics_windows: vec![Duration::from_secs(10), Duration::from_secs(60)],
        }
    }
}

impl ServeConfig {
    /// The class named `name`, if configured.
    pub fn class(&self, name: &str) -> Option<&DeadlineClass> {
        self.classes.iter().find(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ladder_sheds_bulk_first() {
        let cfg = ServeConfig::default();
        let interactive = cfg.class("interactive").expect("interactive class");
        let standard = cfg.class("standard").expect("standard class");
        let bulk = cfg.class("bulk").expect("bulk class");
        assert!(bulk.admit_below < standard.admit_below);
        assert!(standard.admit_below < interactive.admit_below);
        assert!(interactive.deadline < standard.deadline);
        assert!(bulk.deadline.is_none());
        assert!(cfg.class("nope").is_none());
    }
}
