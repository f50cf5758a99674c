//! Cluster integration tests: local shards, a remote shard over loopback TCP,
//! and ring rebalance at the facade level.
//!
//! The headline acceptance test proves the routing tier is transparent: the
//! Table-1 workload solved through a multi-shard `Cluster` bit-matches what a
//! single in-process `Engine` returns for the same requests.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tagdm_cluster::{
    BreakerState, Cluster, ClusterConfig, LocalShard, ShardBackend, ShardError, SpillPolicy,
};
use tagdm_core::catalog::{self, ProblemParams};
use tagdm_core::context::SummarizerChoice;
use tagdm_core::solvers::SolverOutcome;
use tagdm_data::generator::{GeneratorConfig, MovieLensStyleGenerator};
use tagdm_engine::{
    Backoff, ContextSpec, Engine, EngineConfig, EngineError, RetryPolicy, SolveRequest,
    SolveResponse, SolverChoice,
};
use tagdm_net::{Client, ClientConfig, HealthReport, HealthStatus, Server, ServerConfig};

const GROUPING: [(&str, &str); 2] = [("user", "gender"), ("item", "genre")];

fn params() -> ProblemParams {
    ProblemParams {
        k: 3,
        min_support: 5,
        user_threshold: 0.2,
        item_threshold: 0.2,
    }
}

/// One engine over the deterministic small corpus. Every shard gets its own
/// engine built exactly like this, so identical requests must produce identical
/// outcomes wherever they land.
fn engine_with_corpus(workers: usize) -> Arc<Engine> {
    let engine = Engine::new(EngineConfig::default().with_workers(workers));
    let dataset = MovieLensStyleGenerator::new(GeneratorConfig::small()).generate();
    engine.register_dataset("ml-small", dataset);
    Arc::new(engine)
}

fn spec() -> ContextSpec {
    ContextSpec::grouped(
        "ml-small",
        &GROUPING,
        5,
        SummarizerChoice::FrequencyNormalized,
    )
}

fn local_cluster(shards: usize, workers: usize) -> Cluster {
    let mut builder = Cluster::builder(ClusterConfig::default());
    for index in 0..shards {
        builder = builder.local(format!("shard-{index}"), engine_with_corpus(workers));
    }
    builder.build()
}

/// `elapsed` is wall clock and legitimately differs run to run; every other
/// field must match exactly (including the f64 objective).
fn normalize(mut outcome: SolverOutcome) -> SolverOutcome {
    outcome.elapsed = Duration::ZERO;
    outcome
}

/// The mixed Table-1 workload: one request per canonical problem. Distinct
/// installed-context names spread the requests across the ring (each context is
/// its own routing key), which is what makes the ≥ 2 shard assertion below
/// meaningful — but here every request uses the same grouped spec, so a second
/// spec variant (tf·idf summarizer) is added to populate more than one key.
fn table1_workload() -> Vec<SolveRequest> {
    let specs = [
        spec(),
        ContextSpec::grouped("ml-small", &GROUPING, 5, SummarizerChoice::TfIdf),
        ContextSpec::grouped(
            "ml-small",
            &GROUPING,
            8,
            SummarizerChoice::FrequencyNormalized,
        ),
        ContextSpec::grouped("ml-small", &GROUPING, 8, SummarizerChoice::TfIdf),
    ];
    let mut requests = Vec::new();
    for spec in specs {
        for problem in catalog::canonical_problems(params()) {
            requests.push(SolveRequest::new(
                spec.clone(),
                problem,
                SolverChoice::Recommended,
            ));
        }
    }
    requests
}

/// Acceptance: `Cluster::solve` answers bit-identical to `Engine::solve` for
/// the Table-1 workload, with the work genuinely spread over ≥ 2 shards.
#[test]
fn cluster_solve_bit_matches_a_single_engine() {
    let cluster = local_cluster(3, 2);
    let reference = engine_with_corpus(2);
    let mut shards_used = std::collections::BTreeSet::new();
    for request in table1_workload() {
        let key = request.context.key();
        shards_used.insert(cluster.shard_for(&key).expect("routable").to_string());
        let via_cluster = cluster.solve(request.clone());
        let via_engine = reference.solve(request);
        let clustered = normalize(via_cluster.result.expect("cluster outcome"));
        let direct = normalize(via_engine.result.expect("engine outcome"));
        assert_eq!(
            clustered, direct,
            "cluster and single-engine outcomes diverged"
        );
    }
    assert!(
        shards_used.len() >= 2,
        "workload only exercised {shards_used:?}; the ring is not spreading"
    );
    // Every dispatch was a primary route: breakers closed, nothing spilled.
    let metrics = cluster.metrics();
    let routed: u64 = metrics.shards.iter().map(|shard| shard.routed).sum();
    let spilled: u64 = metrics.shards.iter().map(|shard| shard.spilled).sum();
    assert!(routed > 0);
    assert_eq!(spilled, 0);
    assert!(metrics.routing.count >= routed);
}

/// `solve_batch` scatter-gathers concurrently but must reassemble responses in
/// request order — outcome `i` answers request `i`.
#[test]
fn batches_reassemble_in_request_order() {
    let cluster = local_cluster(3, 2);
    let reference = engine_with_corpus(2);
    let requests = table1_workload();
    let expected: Vec<SolverOutcome> = requests
        .iter()
        .map(|request| normalize(reference.solve(request.clone()).result.expect("outcome")))
        .collect();
    let responses = cluster.solve_batch(requests);
    assert_eq!(responses.len(), expected.len());
    for (response, expected) in responses.into_iter().zip(expected) {
        assert_eq!(normalize(response.result.expect("outcome")), expected);
    }
}

/// A mixed local + remote cluster: the remote shard (a real `tagdm-net` server
/// over loopback) answers bit-identical to the local ones.
#[test]
fn a_remote_shard_is_transparent() {
    let server = Server::bind(
        "127.0.0.1:0",
        engine_with_corpus(2),
        ServerConfig::default().with_job_deadline_cap(Duration::from_secs(30)),
    )
    .expect("bind");
    let client = Client::connect(
        server.local_addr(),
        ClientConfig::default().with_read_timeout(Duration::from_secs(30)),
    )
    .expect("connect");

    let cluster = Cluster::builder(ClusterConfig::default())
        .local("local-0", engine_with_corpus(2))
        .remote("remote-0", client)
        .build();
    let reference = engine_with_corpus(2);

    for request in table1_workload() {
        let via_cluster = cluster.solve(request.clone());
        let via_engine = reference.solve(request);
        assert_eq!(
            normalize(via_cluster.result.expect("cluster outcome")),
            normalize(via_engine.result.expect("engine outcome")),
        );
    }

    // The fleet health folds both shards, with the remote one's report arriving
    // through the HEALTH frame — including the new saturation fields.
    let health = cluster.health();
    assert_eq!(health.status, HealthStatus::Ok);
    assert_eq!(health.shards.len(), 2);
    assert_eq!(health.available_shards(), 2);
    let remote = health
        .shards
        .iter()
        .find(|shard| shard.kind == "remote")
        .expect("remote shard in report");
    let report = remote.report.as_ref().expect("remote health report");
    assert_eq!(report.queue_depth, 0);
    assert_eq!(report.worker_restarts, 0);
    assert!(report.jobs_completed > 0);
    server.drain();
}

/// Facade-level rebalance: retiring 1 of 4 shards remaps only that shard's
/// keys, and restoring it puts every key back where it was.
#[test]
fn retiring_a_shard_remaps_only_its_keys() {
    let cluster = local_cluster(4, 1);
    let keys: Vec<_> = (0..500)
        .map(|i| ContextSpec::installed(format!("ctx-{i}")).key())
        .collect();
    let before: Vec<String> = keys
        .iter()
        .map(|key| cluster.shard_for(key).expect("routable").to_string())
        .collect();
    assert!(cluster.retire_shard("shard-2"));
    let mut moved = 0;
    for (key, owner) in keys.iter().zip(&before) {
        let after = cluster.shard_for(key).expect("still routable");
        if owner == "shard-2" {
            assert_ne!(after, "shard-2", "key still routed to the retired shard");
            moved += 1;
        } else {
            assert_eq!(after, owner.as_str(), "key moved off a surviving shard");
        }
    }
    assert!(moved > 0, "the retired shard owned no keys");
    // Restoring reclaims exactly the old placement (same seed, same points).
    assert!(cluster.restore_shard("shard-2"));
    for (key, owner) in keys.iter().zip(&before) {
        assert_eq!(cluster.shard_for(key).expect("routable"), owner.as_str());
    }
    // Unknown names are refused.
    assert!(!cluster.retire_shard("no-such-shard"));
}

/// An empty cluster (or a fully retired ring) answers the typed transient
/// error instead of hanging or panicking.
#[test]
fn an_empty_ring_fails_fast_with_a_typed_error() {
    let cluster = local_cluster(1, 1);
    assert!(cluster.retire_shard("shard-0"));
    let request = SolveRequest::new(
        spec(),
        catalog::canonical_problems(params()).remove(0),
        SolverChoice::Recommended,
    );
    let response = cluster.solve(request);
    let error = response.result.expect_err("no shard can answer");
    assert!(error.is_transient());
    assert!(error.to_string().contains("ring is empty"));
    assert_eq!(cluster.breaker_state("shard-0"), Some(BreakerState::Closed));
}

/// `FailFast` answers `ShardUnavailable` as soon as the primary is refused
/// instead of walking the ring.
#[test]
fn fail_fast_does_not_spill() {
    // A cluster whose primary-for-everything shard is retired still has a
    // healthy second shard; FailFast must not use it.
    let cluster = Cluster::builder(ClusterConfig::default().with_spill(SpillPolicy::FailFast))
        .local("shard-0", engine_with_corpus(1))
        .local("shard-1", engine_with_corpus(1))
        .build();
    let request = SolveRequest::new(
        spec(),
        catalog::canonical_problems(params()).remove(0),
        SolverChoice::Recommended,
    );
    let primary = cluster
        .shard_for(&request.context.key())
        .expect("routable")
        .to_string();
    assert!(cluster.retire_shard(&primary));
    // The key now routes to the survivor — retirement rewrites the ring, so
    // dispatch succeeds. Spill policy only matters for *refused* candidates
    // (open breakers, failed dispatch), which the chaos tests exercise.
    let response = cluster.solve(request);
    assert!(response.result.is_ok());
    let metrics = cluster.metrics();
    let survivor = metrics
        .shards
        .iter()
        .find(|shard| shard.name != primary)
        .expect("survivor");
    assert_eq!(survivor.routed, 1);
    assert_eq!(survivor.spilled, 0);
}

/// A shard whose first `failures` dispatches fail transiently, then delegate to
/// a local engine.
struct FlakyShard {
    failures: AtomicU32,
    inner: LocalShard,
}

const FLAKY_DETAIL: &str = "injected dispatch fault";

impl ShardBackend for FlakyShard {
    fn solve(&self, request: SolveRequest) -> Result<SolveResponse, ShardError> {
        let failing = self
            .failures
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| {
                left.checked_sub(1)
            })
            .is_ok();
        if failing {
            return Err(ShardError {
                transient: true,
                detail: FLAKY_DETAIL.to_string(),
            });
        }
        self.inner.solve(request)
    }

    fn ping(&self) -> Result<(), ShardError> {
        self.inner.ping()
    }

    fn health(&self) -> Result<HealthReport, ShardError> {
        self.inner.health()
    }

    fn kind(&self) -> &'static str {
        "flaky"
    }
}

/// One flaky shard failing its first two dispatches; the default breaker
/// threshold (5) stays closed through them.
fn flaky_cluster() -> Cluster {
    let shard = FlakyShard {
        failures: AtomicU32::new(2),
        inner: LocalShard::new(engine_with_corpus(1)),
    };
    Cluster::builder(ClusterConfig::default())
        .shard("flaky-0", Box::new(shard))
        .build()
}

fn quick(policy: RetryPolicy) -> RetryPolicy {
    policy.with_backoff(Backoff::new(
        Duration::from_millis(1),
        Duration::from_millis(2),
    ))
}

/// `solve_with` rides out transient dispatch failures: the third attempt
/// answers what a single engine answers.
#[test]
fn solve_with_retries_transient_dispatch_failures() {
    let cluster = flaky_cluster();
    let request = table1_workload().remove(0);
    let response = cluster.solve_with(request.clone(), quick(RetryPolicy::attempts(3)));
    let direct = engine_with_corpus(1).solve(request);
    assert_eq!(
        normalize(response.result.expect("the third attempt answers")),
        normalize(direct.result.expect("engine outcome")),
    );
    assert_eq!(cluster.breaker_state("flaky-0"), Some(BreakerState::Closed));
    let shard = &cluster.metrics().shards[0];
    assert_eq!((shard.routed, shard.failed), (3, 2));
}

/// Without retries the first transient dispatch failure is the answer: a
/// transient `ShardUnavailable` carrying the backend's dispatch detail.
#[test]
fn solve_with_no_retries_answers_the_dispatch_failure() {
    let cluster = flaky_cluster();
    let request = table1_workload().remove(0);
    let response = cluster.solve_with(request, RetryPolicy::none());
    let error = response.result.expect_err("the first dispatch fails");
    assert!(error.is_transient());
    assert_eq!(
        error,
        EngineError::ShardUnavailable {
            shard: "flaky-0".to_string(),
            detail: format!("shard `flaky-0` dispatch failed: {FLAKY_DETAIL}"),
        }
    );
    assert!(!response.deadline_hit);
    assert_eq!(cluster.metrics().shards[0].failed, 1);
}
