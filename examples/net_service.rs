//! The mining engine on the network: a `tagdm-net` server and clients in one
//! process, talking real TCP over loopback.
//!
//! A 4-worker engine is put behind a `Server` on an OS-assigned port; three client
//! threads then fire the mixed Table-1 workload at it concurrently (each client its
//! own connection, as the protocol is request/response per connection), probe
//! health and latency, and finally the server drains: in-flight work finishes,
//! lingering connections get `GO_AWAY`, every transport thread is joined.
//!
//! Run with `cargo run --example net_service --release`.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use tagdm::prelude::*;

fn main() {
    // --- 1. A resident engine behind a TCP server -----------------------------------
    let engine = Arc::new(Engine::new(EngineConfig::default().with_workers(4)));
    let dataset = MovieLensStyleGenerator::new(GeneratorConfig::small()).generate();
    engine.register_dataset("ml-small", dataset);

    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServerConfig::default().with_job_deadline_cap(Duration::from_secs(5)),
    )
    .expect("bind server");
    let addr = server.local_addr();
    println!(
        "server up on {addr}: {} workers, job deadlines capped at 5s",
        engine.num_workers()
    );

    let spec = ContextSpec::grouped(
        "ml-small",
        &[("user", "gender"), ("item", "genre")],
        5,
        SummarizerChoice::fast_lda(10),
    );
    let params = ProblemParams {
        k: 3,
        min_support: 5,
        user_threshold: 0.2,
        item_threshold: 0.2,
    };

    // --- 2. A health probe before any work ------------------------------------------
    let mut probe = Client::connect(addr, ClientConfig::default()).expect("connect probe");
    let rtt = probe.ping("warmup").expect("ping");
    let health = probe.health().expect("health");
    println!(
        "probe: rtt={rtt:?} status={:?} workers={}/{} datasets={}",
        health.status, health.workers_alive, health.workers_configured, health.datasets
    );

    // --- 3. The mixed Table-1 workload, fired by three concurrent clients -----------
    let problems = catalog::canonical_problems(params);
    println!(
        "\n{} clients × {} problems over loopback:",
        3,
        problems.len()
    );
    let mut handles = Vec::new();
    for who in 0..3 {
        let spec = spec.clone();
        let problems = problems.clone();
        let handle = thread::spawn(move || {
            let mut client = Client::connect(
                addr,
                ClientConfig::default().with_retry(RetryPolicy::attempts(3)),
            )
            .expect("connect worker client");
            for problem in problems {
                let label = problem.name.clone();
                let request = SolveRequest::new(spec.clone(), problem, SolverChoice::Recommended);
                let response = client.solve(request).expect("remote solve");
                match response.result {
                    Ok(outcome) => println!(
                        "  client {who} · {label}: {} groups={:?} objective={:.4} \
                         cache={}{} total={:?}",
                        outcome.solver,
                        outcome.groups,
                        outcome.objective,
                        if response.cache.context_hit {
                            "ctx"
                        } else {
                            "-"
                        },
                        if response.cache.outcome_hit {
                            "+out"
                        } else {
                            ""
                        },
                        response.total,
                    ),
                    Err(error) => println!("  client {who} · {label}: engine error: {error}"),
                }
            }
        });
        handles.push(handle);
    }
    for handle in handles {
        handle.join().expect("client thread");
    }

    // --- 4. Drain: finish in-flight work, say GO_AWAY, join every thread ------------
    let after = probe.health().expect("health after workload");
    println!(
        "\nafter workload: {} jobs completed, {} connections open",
        after.jobs_completed, after.connections_open
    );
    server.drain();
    println!("server drained (draining={})", server.is_draining());

    // --- 5. The engine's counters, then the transport's own --------------------------
    println!("\n{}", engine.metrics().render());
    let transport = server.metrics();
    println!("{}", transport.render());
    assert_eq!(transport.connections_open(), 0);
    assert_eq!(transport.frame_errors.get(), 0);
}
