//! Cluster-level observability: serializable snapshots of the per-shard routing
//! counters and the routing-latency histogram.
//!
//! Mirrors the engine's metrics idiom (`tagdm_engine::metrics`): each shard slot
//! carries its own [`Counter`](tagdm_engine::metrics::Counter)s, stamped on the hot
//! path; [`Cluster::metrics`](crate::Cluster::metrics) copies them into a
//! [`ClusterMetricsSnapshot`], which renders as a plain-text report.

use serde::{Deserialize, Serialize};

use tagdm_engine::HistogramSnapshot;

use crate::breaker::BreakerState;

/// Point-in-time routing counters for one shard, plus its breaker's position.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardMetricsSnapshot {
    /// The shard's name.
    pub name: String,
    /// `"local"` or `"remote"`.
    pub kind: String,
    /// Requests dispatched here as primary owner.
    pub routed: u64,
    /// Requests that spilled here from an earlier candidate.
    pub spilled: u64,
    /// Requests the shard's open breaker refused.
    pub denied: u64,
    /// Conversation-level dispatch failures.
    pub failed: u64,
    /// The shard's breaker state at snapshot time.
    pub breaker: BreakerState,
    /// Breaker state transitions over the cluster's lifetime.
    pub breaker_transitions: u64,
}

/// Serializable point-in-time view of a cluster's routing metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterMetricsSnapshot {
    /// Per-shard counters, in shard-table order.
    pub shards: Vec<ShardMetricsSnapshot>,
    /// Routing latency: request arrival to response, spills included.
    pub routing: HistogramSnapshot,
}

impl ClusterMetricsSnapshot {
    /// Multi-line plain-text report, e.g. for `examples/cluster_service.rs`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("cluster metrics\n");
        for shard in &self.shards {
            out.push_str(&format!(
                "  {:12} {:6} routed={} spilled={} denied={} failed={} breaker={:?} transitions={}\n",
                shard.name,
                shard.kind,
                shard.routed,
                shard.spilled,
                shard.denied,
                shard.failed,
                shard.breaker,
                shard.breaker_transitions,
            ));
        }
        out.push_str(&format!("  routing latency {}\n", self.routing.render()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_round_trip_through_serde_and_render() {
        let snapshot = ClusterMetricsSnapshot {
            shards: vec![ShardMetricsSnapshot {
                name: "shard-0".to_string(),
                kind: "local".to_string(),
                routed: 10,
                spilled: 2,
                denied: 1,
                failed: 0,
                breaker: BreakerState::Closed,
                breaker_transitions: 3,
            }],
            routing: HistogramSnapshot::default(),
        };
        let json = serde_json::to_string(&snapshot).expect("serialize");
        let back: ClusterMetricsSnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, snapshot);
        let report = snapshot.render();
        assert!(report.contains("shard-0"));
        assert!(report.contains("routed=10"));
        assert!(report.contains("transitions=3"));
    }
}
