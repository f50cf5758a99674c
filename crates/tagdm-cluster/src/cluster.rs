//! The `Cluster` facade: route, breaker-gate, dispatch, reassemble.
//!
//! A [`Cluster`] presents the same `solve` / `solve_with` / `solve_batch`
//! surface as [`Engine`](tagdm_engine::Engine) — callers do not know whether
//! they are talking to one engine or a fleet. Internally every request walks:
//!
//! 1. **Ring** — the request's [`ContextKey`] hashes to a primary shard and an
//!    ordered replica walk ([`HashRing::replicas`]).
//! 2. **Breaker** — each candidate's breaker is consulted; open shards are
//!    skipped (spilling to the next replica) or the call fails fast, per
//!    [`SpillPolicy`]. A half-open breaker demands a successful `PING` probe
//!    before the request is dispatched.
//! 3. **Dispatch** — the chosen [`ShardBackend`] runs the request; the typed
//!    result feeds the breaker (transient engine faults count as failures).
//!
//! Batches scatter by shard and gather in order: requests group by their
//! primary shard, one dispatch thread per group runs the group sequentially
//! (preserving each shard's cache locality), and responses reassemble into
//! request order. The dispatch threads are scoped — `solve_batch` returns only
//! after every one is joined, so no thread outlives its batch. This module is
//! the crate's designated thread owner (lint rule TH01).

use std::sync::RwLock;
use std::thread;
use std::time::{Duration, Instant};

use tagdm_engine::histogram::LatencyHistogram;
use tagdm_engine::metrics::Counter;
use tagdm_engine::{
    read_recover, write_recover, ContextKey, EngineError, JobId, RetryPolicy, SolveRequest,
    SolveResponse,
};

use crate::backend::ShardBackend;
use crate::breaker::{Admission, BreakerConfig, CircuitBreaker};
use crate::health::{ClusterHealth, ShardHealth};
use crate::metrics::{ClusterMetricsSnapshot, ShardMetricsSnapshot};
use crate::ring::HashRing;

/// What the router does with a request whose candidate shard is refused (open
/// breaker or failed dispatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillPolicy {
    /// Walk the ring: try the key's next replica, and the next, until a shard
    /// answers or the walk is exhausted. Keeps availability at the cost of
    /// cache locality for the spilled keys.
    NextReplica,
    /// Answer [`EngineError::ShardUnavailable`] as soon as the primary is
    /// refused. Predictable placement for workloads where a cold replica would
    /// be worse than an error.
    FailFast,
}

/// Ring geometry, breaker thresholds and spill behaviour for a [`Cluster`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Virtual nodes per shard on the consistent-hash ring.
    pub virtual_nodes: usize,
    /// Ring seed: same seed + same members ⇒ identical placement, everywhere.
    pub seed: u64,
    /// Breaker thresholds applied to every shard.
    pub breaker: BreakerConfig,
    /// What to do when a candidate shard is refused.
    pub spill: SpillPolicy,
}

impl Default for ClusterConfig {
    /// 64 virtual nodes, a fixed seed, default breaker thresholds and
    /// spill-to-next-replica.
    fn default() -> Self {
        ClusterConfig {
            virtual_nodes: 64,
            seed: 0x7a6d_2012,
            breaker: BreakerConfig::default(),
            spill: SpillPolicy::NextReplica,
        }
    }
}

impl ClusterConfig {
    /// Override the ring seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the per-shard breaker thresholds.
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }

    /// Override the spill policy.
    pub fn with_spill(mut self, spill: SpillPolicy) -> Self {
        self.spill = spill;
        self
    }
}

/// One scatter group: the owning shard (`None` = unroutable, answered inline)
/// and that shard's requests, each tagged with its position in the original
/// batch and its rendered routing key.
type ShardGroup = (Option<usize>, Vec<(usize, ContextKey, SolveRequest)>);

/// One shard slot: name, backend, breaker and routing counters.
struct Shard {
    name: String,
    backend: Box<dyn ShardBackend>,
    breaker: CircuitBreaker,
    /// Requests dispatched here as the key's primary owner.
    routed: Counter,
    /// Requests dispatched here after spilling past an earlier candidate.
    spilled: Counter,
    /// Requests this shard's open breaker refused.
    denied: Counter,
    /// Dispatches that failed at the conversation level (transport faults).
    failed: Counter,
}

/// Assembles a [`Cluster`]: add shards, then [`build`](ClusterBuilder::build).
pub struct ClusterBuilder {
    config: ClusterConfig,
    shards: Vec<Shard>,
}

impl ClusterBuilder {
    /// Add a shard with any backend.
    pub fn shard(mut self, name: impl Into<String>, backend: Box<dyn ShardBackend>) -> Self {
        self.shards.push(Shard {
            name: name.into(),
            backend,
            breaker: CircuitBreaker::new(self.config.breaker),
            routed: Counter::default(),
            spilled: Counter::default(),
            denied: Counter::default(),
            failed: Counter::default(),
        });
        self
    }

    /// Add an in-process engine shard.
    pub fn local(
        self,
        name: impl Into<String>,
        engine: std::sync::Arc<tagdm_engine::Engine>,
    ) -> Self {
        self.shard(name, Box::new(crate::backend::LocalShard::new(engine)))
    }

    /// Add a remote shard behind a connected `tagdm-net` client.
    pub fn remote(self, name: impl Into<String>, client: tagdm_net::Client) -> Self {
        self.shard(name, Box::new(crate::backend::RemoteShard::new(client)))
    }

    /// Build the cluster: every added shard takes its virtual nodes on the ring.
    pub fn build(self) -> Cluster {
        let mut ring = HashRing::new(self.config.virtual_nodes, self.config.seed);
        for (index, shard) in self.shards.iter().enumerate() {
            ring.insert(index, &shard.name);
        }
        Cluster {
            config: self.config,
            shards: self.shards,
            ring: RwLock::new(ring),
            routing: LatencyHistogram::new(),
        }
    }
}

/// A consistent-hash sharded mining cluster with the engine's solve surface.
///
/// ```
/// use std::sync::Arc;
/// use tagdm_engine::{Engine, EngineConfig};
/// use tagdm_cluster::{Cluster, ClusterConfig};
///
/// let cluster = Cluster::builder(ClusterConfig::default())
///     .local("shard-0", Arc::new(Engine::new(EngineConfig::default().with_workers(1))))
///     .local("shard-1", Arc::new(Engine::new(EngineConfig::default().with_workers(1))))
///     .build();
/// assert_eq!(cluster.num_shards(), 2);
/// assert_eq!(cluster.shard_names(), vec!["shard-0", "shard-1"]);
/// ```
pub struct Cluster {
    config: ClusterConfig,
    shards: Vec<Shard>,
    /// The live ring. Retiring/restoring a shard rewrites it; routing reads it.
    /// Leaf lock (`ring` in `crates/tagdm-lint/lock_order.toml`): every access
    /// is confined to a one-statement helper, no other lock is taken under it.
    ring: RwLock<HashRing>,
    /// Routing latency: request arrival to response, spills included.
    routing: LatencyHistogram,
}

impl Cluster {
    /// Start assembling a cluster.
    pub fn builder(config: ClusterConfig) -> ClusterBuilder {
        ClusterBuilder {
            config,
            shards: Vec::new(),
        }
    }

    /// Number of shards in the table (retired shards included).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard names in table order.
    pub fn shard_names(&self) -> Vec<&str> {
        self.shards
            .iter()
            .map(|shard| shard.name.as_str())
            .collect()
    }

    /// The name of the shard `key` routes to right now, or `None` when the ring
    /// is empty.
    pub fn shard_for(&self, key: &ContextKey) -> Option<&str> {
        self.route(key)
            .first()
            .map(|&index| self.shards[index].name.as_str())
    }

    /// Take a shard out of the ring: its keys remap to their next replicas (and
    /// only those keys move — the consistency property). The shard's slot,
    /// breaker and counters survive so it can be [`restore`](Self::restore_shard)d.
    /// Returns `false` for unknown names.
    pub fn retire_shard(&self, name: &str) -> bool {
        match self.index_of(name) {
            Some(index) => {
                write_recover(&self.ring).remove(index);
                true
            }
            None => false,
        }
    }

    /// Put a retired shard back on the ring, reclaiming exactly the keys it
    /// owned before retirement (same seed, same points). Returns `false` for
    /// unknown names.
    pub fn restore_shard(&self, name: &str) -> bool {
        match self.index_of(name) {
            Some(index) => {
                let mut ring = write_recover(&self.ring);
                ring.remove(index); // tolerate restoring a live shard
                ring.insert(index, name);
                true
            }
            None => false,
        }
    }

    /// Route and run one request. Same contract as
    /// [`Engine::solve`](tagdm_engine::Engine::solve): the response always comes
    /// back, engine faults ride inside it, and a request no shard could take
    /// answers [`EngineError::ShardUnavailable`] (which is transient — a
    /// caller-side retry policy treats it like overload).
    pub fn solve(&self, request: SolveRequest) -> SolveResponse {
        let key = request.context.key();
        self.solve_keyed(&key, request)
    }

    /// [`solve`](Self::solve) for a request whose routing key is already
    /// rendered. The ring is read here, at dispatch.
    fn solve_keyed(&self, key: &ContextKey, request: SolveRequest) -> SolveResponse {
        let started = Instant::now();
        let candidates = self.route(key);
        let primary = candidates
            .first()
            .map(|&index| self.shards[index].name.clone())
            .unwrap_or_else(|| key.as_str().to_string());
        let mut detail = "ring is empty".to_string();
        for (hop, &index) in candidates.iter().enumerate() {
            let shard = &self.shards[index];
            let spilling = hop > 0;
            match shard.breaker.admit() {
                Admission::Deny => {
                    shard.denied.inc();
                    detail = format!("shard `{}` breaker open", shard.name);
                    if self.config.spill == SpillPolicy::FailFast {
                        break;
                    }
                    continue;
                }
                Admission::Probe => {
                    if let Err(error) = shard.backend.ping() {
                        shard.breaker.record_failure();
                        shard.failed.inc();
                        detail = format!("shard `{}` probe failed: {error}", shard.name);
                        if self.config.spill == SpillPolicy::FailFast {
                            break;
                        }
                        continue;
                    }
                    shard.breaker.record_success();
                }
                Admission::Allow => {}
            }
            if spilling {
                shard.spilled.inc();
            } else {
                shard.routed.inc();
            }
            match shard.backend.solve(request.clone()) {
                Ok(response) => {
                    // The typed result feeds the breaker: sustained transient
                    // faults (panics, overload, sheds) trip it even though the
                    // conversation itself worked.
                    match &response.result {
                        Err(error) if error.is_transient() => shard.breaker.record_failure(),
                        _ => shard.breaker.record_success(),
                    }
                    self.routing.record(started.elapsed());
                    return response;
                }
                Err(error) => {
                    shard.failed.inc();
                    if error.transient {
                        shard.breaker.record_failure();
                    }
                    detail = format!("shard `{}` dispatch failed: {error}", shard.name);
                    if self.config.spill == SpillPolicy::FailFast {
                        break;
                    }
                }
            }
        }
        self.routing.record(started.elapsed());
        // The sentinel job id marks that no engine ever saw the request.
        let error = EngineError::ShardUnavailable {
            shard: primary,
            detail,
        };
        SolveResponse::failed(JobId(u64::MAX), error, Duration::ZERO, started.elapsed())
    }

    /// [`solve`](Self::solve) with transparent retries of transient failures,
    /// mirroring [`Engine::solve_with`](tagdm_engine::Engine::solve_with).
    /// Because `ShardUnavailable` is transient, a retry policy here also rides
    /// out breaker cool-downs.
    pub fn solve_with(&self, request: SolveRequest, policy: RetryPolicy) -> SolveResponse {
        policy.run(
            |_| self.solve(request.clone()),
            |response| matches!(&response.result, Err(error) if error.is_transient()),
        )
    }

    /// Scatter-gather a batch: group by primary shard, dispatch each group on
    /// its own scoped thread (one per shard, so each shard's group arrives in
    /// order and cache locality holds), reassemble responses in request order.
    pub fn solve_batch(&self, requests: Vec<SolveRequest>) -> Vec<SolveResponse> {
        let total = requests.len();
        // Group request indices by primary shard; unroutable requests (empty
        // ring) keep a `None` group and are answered inline by `solve_keyed`.
        // Each key is rendered once, here, and travels with its request.
        let mut groups: Vec<ShardGroup> = Vec::new();
        for (position, request) in requests.into_iter().enumerate() {
            let key = request.context.key();
            let owner = self.route(&key).first().copied();
            let entry = (position, key, request);
            match groups.iter_mut().find(|(shard, _)| *shard == owner) {
                Some((_, group)) => group.push(entry),
                None => groups.push((owner, vec![entry])),
            }
        }
        let mut slots: Vec<Option<SolveResponse>> = (0..total).map(|_| None).collect();
        thread::scope(|scope| {
            let mut handles = Vec::new();
            for (owner, group) in groups {
                let label = owner
                    .map(|index| self.shards[index].name.clone())
                    .unwrap_or_else(|| "unroutable".to_string());
                let handle = thread::Builder::new()
                    .name(format!("tagdm-cluster-dispatch-{label}"))
                    .spawn_scoped(scope, move || {
                        group
                            .into_iter()
                            .map(|(position, key, request)| {
                                (position, self.solve_keyed(&key, request))
                            })
                            .collect::<Vec<_>>()
                    })
                    .expect("dispatch thread spawns");
                handles.push(handle);
            }
            for handle in handles {
                // `solve` never panics (worker panics are caught inside each
                // engine), so a join failure is a bug worth surfacing loudly.
                for (position, response) in handle.join().expect("dispatch thread finishes") {
                    slots[position] = Some(response);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every request was dispatched"))
            .collect()
    }

    /// A point-in-time copy of the cluster's routing counters and breakers.
    pub fn metrics(&self) -> ClusterMetricsSnapshot {
        let shards = self
            .shards
            .iter()
            .map(|shard| ShardMetricsSnapshot {
                name: shard.name.clone(),
                kind: shard.backend.kind().to_string(),
                routed: shard.routed.get(),
                spilled: shard.spilled.get(),
                denied: shard.denied.get(),
                failed: shard.failed.get(),
                breaker: shard.breaker.state(),
                breaker_transitions: shard.breaker.transitions(),
            })
            .collect();
        ClusterMetricsSnapshot {
            shards,
            routing: self.routing.snapshot(),
        }
    }

    /// Probe every shard (local gather or a `HEALTH` frame round-trip) and fold
    /// the verdicts into one [`ClusterHealth`].
    pub fn health(&self) -> ClusterHealth {
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(index, shard)| ShardHealth {
                name: shard.name.clone(),
                kind: shard.backend.kind().to_string(),
                in_ring: self.in_ring(index),
                breaker: shard.breaker.state(),
                report: shard.backend.health().ok(),
            })
            .collect();
        ClusterHealth::from_shards(shards)
    }

    /// The shard's breaker state, for tests and operators. `None` for unknown
    /// names.
    pub fn breaker_state(&self, name: &str) -> Option<crate::breaker::BreakerState> {
        self.index_of(name)
            .map(|index| self.shards[index].breaker.state())
    }

    fn index_of(&self, name: &str) -> Option<usize> {
        self.shards.iter().position(|shard| shard.name == name)
    }

    /// The ordered candidate walk for `key` (primary first). Ring access is
    /// confined here so the read guard never overlaps another lock.
    fn route(&self, key: &ContextKey) -> Vec<usize> {
        read_recover(&self.ring).replicas(key.as_str())
    }

    /// Whether shard `index` currently owns points on the ring.
    fn in_ring(&self, index: usize) -> bool {
        read_recover(&self.ring)
            .replicas("membership-probe")
            .contains(&index)
    }
}
