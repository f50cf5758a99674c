//! A sharded mining cluster in one process: four in-process engine shards plus
//! one remote shard behind a real `tagdm-net` server on loopback TCP, all
//! behind a single `Cluster` facade.
//!
//! The mixed Table-1 workload scatter-gathers across the ring (per-shard
//! routing counts and cache hit rates are printed), then the remote shard's
//! server is torn down to trip its circuit breaker: its keys spill to ring
//! replicas, the server comes back on the same port, and the half-open `PING`
//! probe recloses the breaker.
//!
//! Run with `cargo run --example cluster_service --release`.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use tagdm::prelude::*;

fn corpus_engine(workers: usize) -> Arc<Engine> {
    let engine = Arc::new(Engine::new(EngineConfig::default().with_workers(workers)));
    let dataset = MovieLensStyleGenerator::new(GeneratorConfig::small()).generate();
    engine.register_dataset("ml-small", dataset);
    engine
}

fn spec_with_min_size(min_group_size: usize) -> ContextSpec {
    ContextSpec::grouped(
        "ml-small",
        &[("user", "gender"), ("item", "genre")],
        min_group_size,
        SummarizerChoice::FrequencyNormalized,
    )
}

fn main() {
    // --- 1. Four local shards + one remote shard over loopback ----------------------
    let locals: Vec<Arc<Engine>> = (0..4).map(|_| corpus_engine(2)).collect();
    let remote_engine = corpus_engine(2);
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&remote_engine),
        ServerConfig::default().with_job_deadline_cap(Duration::from_secs(5)),
    )
    .expect("bind server");
    let addr = server.local_addr();
    let client = Client::connect(
        addr,
        ClientConfig::default().with_read_timeout(Duration::from_secs(5)),
    )
    .expect("connect remote shard");

    let mut builder = Cluster::builder(
        ClusterConfig::default().with_breaker(
            BreakerConfig::default()
                .with_failure_threshold(2)
                .with_cooldown(Duration::from_millis(400)),
        ),
    );
    for (index, engine) in locals.iter().enumerate() {
        builder = builder.local(format!("local-{index}"), Arc::clone(engine));
    }
    let cluster = builder.remote("remote-0", client).build();
    println!(
        "cluster up: shards {:?}, remote behind {addr}",
        cluster.shard_names()
    );

    // --- 2. The mixed Table-1 workload, scatter-gathered ----------------------------
    let params = ProblemParams {
        k: 3,
        min_support: 5,
        user_threshold: 0.2,
        item_threshold: 0.2,
    };
    // Several context variants so the ring has keys to spread; each context is
    // its own routing key (and its own cache entry on its shard). One variant
    // is picked specifically because the remote shard owns it, so every kind
    // of shard sees traffic.
    let remote_spec = (2..200)
        .map(spec_with_min_size)
        .find(|spec| cluster.shard_for(&spec.key()) == Some("remote-0"))
        .expect("some context routes to the remote shard");
    let mut specs: Vec<ContextSpec> = [3, 5, 8, 12].map(spec_with_min_size).to_vec();
    specs.push(remote_spec.clone());
    let mut requests = Vec::new();
    for spec in specs {
        for problem in catalog::canonical_problems(params) {
            requests.push(SolveRequest::new(
                spec.clone(),
                problem,
                SolverChoice::Recommended,
            ));
        }
    }
    // A second pass of the same requests: everything after the first pass is a
    // cache hit on whichever shard owns the key — locality the ring preserves.
    let batch: Vec<SolveRequest> = requests.iter().chain(requests.iter()).cloned().collect();
    println!("\nsolve_batch: {} requests over 5 shards", batch.len());
    let responses = cluster.solve_batch(batch);
    let solved = responses
        .iter()
        .filter(|response| response.result.is_ok())
        .count();
    let outcome_hits = responses
        .iter()
        .filter(|response| response.cache.outcome_hit)
        .count();
    println!(
        "  {solved}/{} solved, {outcome_hits} outcome-cache hits",
        responses.len()
    );

    println!("\nper-shard routing and cache hit rates:");
    for shard in cluster.metrics().shards {
        let hits = match shard.name.strip_prefix("local-") {
            Some(index) => {
                let metrics = locals[index.parse::<usize>().unwrap()].metrics();
                format!(
                    "ctx {}/{} outcome {}/{}",
                    metrics.context_hits,
                    metrics.context_hits + metrics.context_misses,
                    metrics.outcome_hits,
                    metrics.outcome_hits + metrics.outcome_misses,
                )
            }
            None => {
                let metrics = remote_engine.metrics();
                format!(
                    "ctx {}/{} outcome {}/{}",
                    metrics.context_hits,
                    metrics.context_hits + metrics.context_misses,
                    metrics.outcome_hits,
                    metrics.outcome_hits + metrics.outcome_misses,
                )
            }
        };
        println!(
            "  {:>8} ({}): routed={} spilled={} breaker={:?} · cache hits {}",
            shard.name, shard.kind, shard.routed, shard.spilled, shard.breaker, hits
        );
    }

    // --- 3. Trip the remote shard's breaker -----------------------------------------
    // Take the remote shard's server away; its keys must keep answering.
    let remote_request = || {
        SolveRequest::new(
            remote_spec.clone(),
            catalog::canonical_problems(params).remove(0),
            SolverChoice::Recommended,
        )
    };
    println!(
        "\ntearing the remote server down; `{:?}` keys must spill:",
        remote_spec.key()
    );
    drop(server); // drains: the shard's connection is gone, dispatches now fail

    for attempt in 0..3 {
        let response = cluster.solve(remote_request());
        println!(
            "  attempt {attempt}: result={} breaker={:?}",
            if response.result.is_ok() {
                "ok (spilled)"
            } else {
                "error"
            },
            cluster.breaker_state("remote-0").unwrap(),
        );
    }

    // --- 4. Recovery: same port, cool-down, half-open probe -------------------------
    let server = Server::bind(addr, remote_engine, ServerConfig::default()).expect("rebind");
    thread::sleep(Duration::from_millis(500)); // past the 400ms cool-down
    let response = cluster.solve(remote_request());
    println!(
        "\nserver back on {addr}: probe result={} breaker={:?}",
        if response.result.is_ok() {
            "ok"
        } else {
            "error"
        },
        cluster.breaker_state("remote-0").unwrap(),
    );

    // --- 5. Fleet health ------------------------------------------------------------
    let health = cluster.health();
    println!(
        "\ncluster health: {:?} ({}/{} shards available)",
        health.status,
        health.available_shards(),
        health.shards.len()
    );
    println!("\n{}", cluster.metrics().render());
    server.drain();
}
