//! Fault-injection tests of the transport's robustness layer: write-deadline
//! disconnects of clients that stop reading, mid-job disconnects, connection
//! panic isolation and acceptor respawn. Run with
//! `cargo test -p tagdm-net --features failpoints`.
//!
//! The failpoint registry is process-global (shared with the engine's own fault
//! tests), so every test here serializes itself through [`serial`] and disarms
//! all sites on entry and exit.

#![cfg(feature = "failpoints")]

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use tagdm_core::catalog::{problem_1, ProblemParams};
use tagdm_core::context::SummarizerChoice;
use tagdm_data::generator::{GeneratorConfig, MovieLensStyleGenerator};
use tagdm_engine::failpoint::{self, site, FailAction};
use tagdm_engine::{ContextSpec, Engine, EngineConfig, RetryPolicy, SolveRequest, SolverChoice};
use tagdm_net::frame::{encode_frame, read_frame};
use tagdm_net::proto::{code, Frame, SolveFrame, DEFAULT_MAX_FRAME_LEN};
use tagdm_net::{Client, ClientConfig, NetError, Server, ServerConfig};

static FAILPOINT_TESTS: Mutex<()> = Mutex::new(());

/// Serialize failpoint tests and guarantee a clean registry on entry and exit
/// (even when an assertion panics while sites are armed).
struct Serial(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for Serial {
    fn drop(&mut self) {
        failpoint::disarm_all();
    }
}

fn serial() -> Serial {
    let guard = FAILPOINT_TESTS
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    failpoint::disarm_all();
    Serial(guard)
}

const GROUPING: [(&str, &str); 2] = [("user", "gender"), ("item", "genre")];

fn params() -> ProblemParams {
    ProblemParams {
        k: 3,
        min_support: 5,
        user_threshold: 0.2,
        item_threshold: 0.2,
    }
}

fn engine_with_corpus(workers: usize) -> (Arc<Engine>, ContextSpec) {
    let engine = Engine::new(EngineConfig::default().with_workers(workers));
    let dataset = MovieLensStyleGenerator::new(GeneratorConfig::small()).generate();
    engine.register_dataset("ml-small", dataset);
    let spec = ContextSpec::grouped(
        "ml-small",
        &GROUPING,
        5,
        SummarizerChoice::FrequencyNormalized,
    );
    (Arc::new(engine), spec)
}

fn request(spec: &ContextSpec) -> SolveRequest {
    SolveRequest::new(spec.clone(), problem_1(params()), SolverChoice::Recommended)
}

fn no_retry_client(server: &Server) -> Client {
    Client::connect(
        server.local_addr(),
        ClientConfig::default()
            .with_read_timeout(Duration::from_secs(20))
            .with_retry(RetryPolicy::none()),
    )
    .expect("connect")
}

/// Poll until `condition` holds or the timeout expires.
fn wait_for(timeout: Duration, mut condition: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if condition() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    condition()
}

/// Acceptance: a client that stops reading mid-response is disconnected at its
/// write deadline — and a concurrent connection keeps working throughout, so the
/// stalled client pinned nothing but its own handler thread.
#[test]
fn slow_reader_is_cut_at_the_write_deadline_without_stalling_others() {
    let _serial = serial();
    let (engine, spec) = engine_with_corpus(2);
    let config = ServerConfig::default().with_write_timeout(Duration::from_millis(100));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), config).expect("bind");

    // The victim sends a solve and never reads its answer. A one-shot delay at the
    // write site deterministically consumes the whole write budget, modelling the
    // victim's full socket buffers without having to actually fill them.
    failpoint::arm_times(
        site::NET_WRITE_FRAME,
        1,
        FailAction::Delay(Duration::from_millis(250)),
    );
    let mut victim = TcpStream::connect(server.local_addr()).expect("connect victim");
    let solve = Frame::Solve(SolveFrame {
        id: 7,
        request: request(&spec),
    });
    victim
        .write_all(&encode_frame(&solve, DEFAULT_MAX_FRAME_LEN).expect("encode"))
        .expect("send solve");

    // Wait until the victim's connection is inside the delayed write.
    assert!(
        wait_for(Duration::from_secs(10), || {
            failpoint::hits(site::NET_WRITE_FRAME) >= 1
        }),
        "the victim's response write never reached the failpoint"
    );

    // Meanwhile a healthy client gets served concurrently (the one-shot delay has
    // been consumed, so its writes are clean).
    let mut healthy = no_retry_client(&server);
    let response = healthy.solve(request(&spec)).expect("healthy solve");
    assert!(response.result.is_ok());

    // The victim is disconnected at the write deadline, counted as such.
    assert!(
        wait_for(Duration::from_secs(10), || {
            server.metrics().deadline_disconnects.get() >= 1
        }),
        "the slow reader was never cut at its write deadline"
    );

    // The victim's socket now yields the farewell DEADLINE_EXCEEDED frame (the
    // answer itself was abandoned) and then the close.
    victim
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    match read_frame(&mut victim, DEFAULT_MAX_FRAME_LEN) {
        Ok(Frame::Error(wire)) => assert_eq!(wire.code, code::DEADLINE_EXCEEDED),
        other => panic!("expected the deadline farewell, got {other:?}"),
    }

    server.drain();
    assert_eq!(server.metrics().connections_open(), 0);
    // A deadline cut is not a protocol fault.
    assert_eq!(server.metrics().frame_errors.get(), 0);
}

/// A client that disconnects mid-job does not hurt the engine: the job finishes,
/// the doomed answer write fails, and the engine keeps serving new connections.
#[test]
fn mid_job_disconnect_leaves_the_engine_healthy() {
    let _serial = serial();
    let (engine, spec) = engine_with_corpus(1);
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&engine), ServerConfig::default()).expect("bind");

    // Warm the context so the delayed run below is the solve itself.
    engine.solve(request(&spec)).result.expect("warm solve");

    // Hold the job at the executor long enough for the client to vanish mid-job.
    failpoint::arm_times(
        site::RUN_JOB,
        1,
        FailAction::Delay(Duration::from_millis(150)),
    );
    let mut doomed = TcpStream::connect(server.local_addr()).expect("connect");
    let solve = Frame::Solve(SolveFrame {
        id: 1,
        request: request(&spec),
    });
    doomed
        .write_all(&encode_frame(&solve, DEFAULT_MAX_FRAME_LEN).expect("encode"))
        .expect("send solve");
    assert!(
        wait_for(Duration::from_secs(10), || {
            failpoint::hits(site::RUN_JOB) >= 1
        }),
        "the job never started"
    );
    drop(doomed); // vanish while the job runs

    // The engine completes the job regardless, and keeps answering fresh clients.
    let completed_before = engine.metrics().jobs_completed;
    assert!(
        wait_for(Duration::from_secs(10), || {
            engine.metrics().jobs_completed >= completed_before.max(2)
        }),
        "the mid-job-disconnect job never completed"
    );
    let mut after = no_retry_client(&server);
    let response = after.solve(request(&spec)).expect("solve after disconnect");
    assert!(response.result.is_ok());

    server.drain();
    assert_eq!(server.metrics().connections_open(), 0);
}

/// A panic inside one connection handler kills only that connection: the panic is
/// counted, the sibling connection keeps working.
#[test]
fn connection_panics_are_isolated() {
    let _serial = serial();
    let (engine, _spec) = engine_with_corpus(1);
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&engine), ServerConfig::default()).expect("bind");

    // Open the survivor FIRST so its handler is already past spawn; the next
    // connection iteration to evaluate the site panics once.
    let mut survivor = no_retry_client(&server);
    survivor.ping("warm").expect("survivor warm ping");

    failpoint::arm_times(
        site::NET_CONN,
        1,
        FailAction::Panic("injected connection panic".to_string()),
    );
    let _doomed = TcpStream::connect(server.local_addr()).expect("connect doomed");
    assert!(
        wait_for(Duration::from_secs(10), || {
            server.metrics().conn_panics.get() >= 1
        }),
        "the injected connection panic never fired"
    );

    // The survivor still works; so do brand-new connections.
    survivor.ping("after panic").expect("survivor after panic");
    let mut fresh = no_retry_client(&server);
    fresh.ping("fresh").expect("fresh after panic");

    server.drain();
    let metrics = server.metrics();
    assert_eq!(metrics.conn_panics.get(), 1);
    assert_eq!(metrics.connections_open(), 0);
}

/// A panicking acceptor thread is respawned (within its restart budget) and the
/// server keeps accepting; the respawn is counted in the server's metrics.
#[test]
fn acceptor_panics_are_respawned_within_budget() {
    let _serial = serial();
    let (engine, _spec) = engine_with_corpus(1);
    let config = ServerConfig::default().with_acceptor_restarts(4);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), config).expect("bind");

    failpoint::arm_times(
        site::NET_ACCEPT,
        2,
        FailAction::Panic("injected acceptor panic".to_string()),
    );
    // The acceptor evaluates the site before each accept; poke it awake by
    // connecting, twice, so both injected panics fire and respawn.
    for _ in 0..2 {
        let _ = TcpStream::connect(server.local_addr());
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        wait_for(Duration::from_secs(10), || {
            server.metrics().acceptor_restarts.get() >= 2
        }),
        "the acceptor was never respawned"
    );

    // The respawned acceptor accepts and serves.
    let mut client = no_retry_client(&server);
    client.ping("after respawn").expect("ping after respawn");
    server.drain();
    assert_eq!(server.metrics().acceptor_restarts.get(), 2);
}

/// The transport's error taxonomy stays truthful under injected faults: an
/// injected connection error surfaces to the raw peer as a MALFORMED farewell
/// and the connection closes.
#[test]
fn injected_connection_errors_close_with_a_typed_farewell() {
    let _serial = serial();
    let (engine, _spec) = engine_with_corpus(1);
    let server = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).expect("bind");

    failpoint::arm_times(
        site::NET_CONN,
        1,
        FailAction::Error(tagdm_engine::EngineError::Shutdown),
    );
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    match read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
        Ok(Frame::Error(wire)) => {
            assert_eq!(wire.code, code::MALFORMED);
            assert!(wire.message.contains("injected"));
        }
        other => panic!("expected the injected-fault farewell, got {other:?}"),
    }
    match read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
        Err(NetError::Io { .. }) => {}
        other => panic!("expected the connection to be closed, got {other:?}"),
    }
    server.drain();
}
