//! Health probes: the report payload a server answers `HEALTH` frames with.

use serde::{Deserialize, Serialize};

use tagdm_engine::Engine;

/// Coarse service condition, for load balancers and probes that only want a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HealthStatus {
    /// Fully operational: every configured worker is alive and the server accepts
    /// new connections.
    Ok,
    /// Serving, but below capacity: some workers died and were not (yet) respawned.
    Degraded,
    /// Draining for shutdown: in-flight jobs finish, new requests are refused.
    Draining,
}

/// The payload of a `HEALTH_REPORT` frame: a condensed view of the engine's
/// [`MetricsSnapshot`](tagdm_engine::MetricsSnapshot) plus the server's open
/// connections (from its [`ServerMetrics`](crate::ServerMetrics)), gathered at probe
/// time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthReport {
    /// The coarse verdict.
    pub status: HealthStatus,
    /// Worker threads alive right now.
    pub workers_alive: u64,
    /// Worker threads the engine was configured with.
    pub workers_configured: u64,
    /// Jobs accepted over the engine's lifetime.
    pub jobs_submitted: u64,
    /// Jobs answered over the engine's lifetime.
    pub jobs_completed: u64,
    /// Jobs refused at admission (overload).
    pub jobs_rejected: u64,
    /// Jobs sitting in the admission queue at probe time. A persistently
    /// non-zero depth is the saturation signal breakers and operators watch.
    pub queue_depth: u64,
    /// Dead engine workers respawned over the engine's lifetime.
    pub worker_restarts: u64,
    /// Network connections open right now on the answering server (opened minus
    /// closed). An in-process cluster shard has no server and reports 0.
    pub connections_open: u64,
    /// Datasets registered on the engine.
    pub datasets: u64,
}

impl HealthReport {
    /// Gather a report from a live engine. `draining` is the transport's shutdown
    /// flag; it wins over worker-level degradation because a draining server should
    /// stop receiving traffic regardless of capacity. `connections_open` is the
    /// server's own gauge ([`ServerMetrics::connections_open`](crate::ServerMetrics::connections_open)).
    pub fn gather(engine: &Engine, draining: bool, connections_open: u64) -> Self {
        let metrics = engine.metrics();
        let alive = engine.live_workers() as u64;
        let configured = engine.num_workers() as u64;
        let status = if draining {
            HealthStatus::Draining
        } else if alive < configured {
            HealthStatus::Degraded
        } else {
            HealthStatus::Ok
        };
        HealthReport {
            status,
            workers_alive: alive,
            workers_configured: configured,
            jobs_submitted: metrics.jobs_submitted,
            jobs_completed: metrics.jobs_completed,
            jobs_rejected: metrics.jobs_rejected,
            queue_depth: engine.queue_depth() as u64,
            worker_restarts: metrics.worker_restarts,
            connections_open,
            datasets: engine.dataset_names().len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagdm_engine::{Engine, EngineConfig};

    #[test]
    fn a_fresh_engine_reports_ok() {
        let engine = Engine::new(EngineConfig::default().with_workers(2));
        let report = HealthReport::gather(&engine, false, 0);
        assert_eq!(report.status, HealthStatus::Ok);
        assert_eq!(report.workers_alive, 2);
        assert_eq!(report.workers_configured, 2);
        assert_eq!(report.connections_open, 0);
        assert_eq!(report.datasets, 0);
        assert_eq!(report.queue_depth, 0);
        assert_eq!(report.worker_restarts, 0);
    }

    #[test]
    fn draining_wins_over_everything() {
        let engine = Engine::new(EngineConfig::default().with_workers(1));
        let report = HealthReport::gather(&engine, true, 0);
        assert_eq!(report.status, HealthStatus::Draining);
    }

    #[test]
    fn reports_round_trip_through_serde() {
        let engine = Engine::new(EngineConfig::default().with_workers(1));
        let report = HealthReport::gather(&engine, false, 3);
        let json = serde_json::to_string(&report).expect("serialize");
        let back: HealthReport = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, report);
    }
}
