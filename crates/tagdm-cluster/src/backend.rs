//! Shard backends: where a routed request actually runs.
//!
//! The router is backend-agnostic: a shard is anything implementing
//! [`ShardBackend`] — an in-process [`Engine`] behind an `Arc` ([`LocalShard`])
//! or a `tagdm-net` server across the wire ([`RemoteShard`]). Both answer with
//! the engine's own [`SolveResponse`]; only *conversation* failures (the shard
//! could not be asked at all) surface as [`ShardError`], which is what the
//! breaker and spill logic act on.

use std::sync::{Arc, Mutex};

use tagdm_engine::{lock_recover, Engine, SolveRequest, SolveResponse};
use tagdm_net::{Client, HealthReport, NetError};

/// A dispatch-level failure: the shard could not be asked (or did not answer).
///
/// Engine-level errors are *not* shard errors — they arrive inside a well-formed
/// [`SolveResponse`], exactly as over the wire protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardError {
    /// Whether retrying (on this shard or a replica) may succeed. Maps from
    /// [`NetError::is_transient`] for remote shards.
    pub transient: bool,
    /// Human-readable cause, carried into `ShardUnavailable` details.
    pub detail: String,
}

impl ShardError {
    fn from_net(error: &NetError) -> Self {
        ShardError {
            transient: error.is_transient(),
            detail: error.to_string(),
        }
    }
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.detail)
    }
}

/// One shard the ring can route to: solve, liveness probe, health report.
pub trait ShardBackend: Send + Sync {
    /// Run one request on this shard. `Err` means the conversation failed —
    /// engine-level faults ride inside an `Ok` response.
    fn solve(&self, request: SolveRequest) -> Result<SolveResponse, ShardError>;

    /// Cheap liveness probe, used by half-open breakers before re-trusting the
    /// shard with real work. Maps to a `PING` frame for remote shards.
    fn ping(&self) -> Result<(), ShardError>;

    /// The shard's health report (served through the `HEALTH` frame remotely).
    fn health(&self) -> Result<HealthReport, ShardError>;

    /// `"local"` or `"remote"` — for health reports and rendered metrics.
    fn kind(&self) -> &'static str;
}

/// An in-process engine shard.
pub struct LocalShard {
    engine: Arc<Engine>,
}

impl LocalShard {
    /// Wrap an engine as a shard. The `Arc` is shared — callers keep their own
    /// handle for dataset registration.
    pub fn new(engine: Arc<Engine>) -> Self {
        LocalShard { engine }
    }
}

impl ShardBackend for LocalShard {
    fn solve(&self, request: SolveRequest) -> Result<SolveResponse, ShardError> {
        // In-process dispatch cannot fail at the conversation level: the engine
        // always answers (worker panics are caught and returned as typed errors).
        Ok(self.engine.solve(request))
    }

    fn ping(&self) -> Result<(), ShardError> {
        if self.engine.live_workers() > 0 {
            Ok(())
        } else {
            Err(ShardError {
                transient: true,
                detail: "no live workers".to_string(),
            })
        }
    }

    fn health(&self) -> Result<HealthReport, ShardError> {
        Ok(HealthReport::gather(&self.engine, false, 0))
    }

    fn kind(&self) -> &'static str {
        "local"
    }
}

/// A shard behind a `tagdm-net` server, reached through one blocking [`Client`].
///
/// The client is strictly request/response, so it sits behind a leaf mutex
/// (`remote_link`, see `crates/tagdm-lint/lock_order.toml`): one in-flight
/// request per remote shard at a time. The client's own reconnect-with-backoff
/// handles flaky transport underneath; anything it still reports becomes a
/// [`ShardError`] with the client error's transience.
pub struct RemoteShard {
    remote_link: Mutex<Client>,
}

impl RemoteShard {
    /// Wrap a connected client as a shard.
    pub fn new(client: Client) -> Self {
        RemoteShard {
            remote_link: Mutex::new(client),
        }
    }
}

impl ShardBackend for RemoteShard {
    fn solve(&self, request: SolveRequest) -> Result<SolveResponse, ShardError> {
        lock_recover(&self.remote_link)
            .solve(request)
            .map_err(|error| ShardError::from_net(&error))
    }

    fn ping(&self) -> Result<(), ShardError> {
        lock_recover(&self.remote_link)
            .ping("breaker-probe")
            .map(|_| ())
            .map_err(|error| ShardError::from_net(&error))
    }

    fn health(&self) -> Result<HealthReport, ShardError> {
        lock_recover(&self.remote_link)
            .health()
            .map_err(|error| ShardError::from_net(&error))
    }

    fn kind(&self) -> &'static str {
        "remote"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagdm_engine::EngineConfig;

    #[test]
    fn a_local_shard_with_workers_pings_ok() {
        let shard = LocalShard::new(Arc::new(Engine::new(
            EngineConfig::default().with_workers(1),
        )));
        assert!(shard.ping().is_ok());
        assert_eq!(shard.kind(), "local");
        let report = shard.health().expect("local health");
        assert_eq!(report.workers_alive, 1);
    }
}
