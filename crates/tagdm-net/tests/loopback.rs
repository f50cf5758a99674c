//! Loopback integration tests: a real server and real clients over 127.0.0.1.
//!
//! The headline acceptance test proves the transport is transparent: a
//! `SolveRequest` solved over TCP bit-matches what `Engine::solve` returns
//! in-process for the same request.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use tagdm_core::catalog::{problem, problem_1, ProblemParams};
use tagdm_core::context::SummarizerChoice;
use tagdm_core::solvers::ConstraintMode;
use tagdm_core::{MiningCriterion, ObjectiveSpec, TaggingDimension};
use tagdm_data::generator::{GeneratorConfig, MovieLensStyleGenerator};
use tagdm_engine::{
    ContextSpec, Engine, EngineConfig, EngineError, RetryPolicy, SolveRequest, SolverChoice,
};
use tagdm_net::frame::{encode_frame, encode_header, read_frame};
use tagdm_net::proto::{code, kind, Frame, PingFrame, DEFAULT_MAX_FRAME_LEN};
use tagdm_net::{Client, ClientConfig, HealthStatus, NetError, Server, ServerConfig};

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

fn fast_client(server: &Server) -> Client {
    Client::connect(
        server.local_addr(),
        ClientConfig::default().with_read_timeout(Duration::from_secs(20)),
    )
    .expect("connect")
}

/// Acceptance: the same request solved over loopback TCP and in-process yields a
/// bit-identical solver result — the transport adds deadlines and framing, never
/// answers.
#[test]
fn remote_solve_bit_matches_in_process_solve() {
    // Two engines over the same deterministic corpus: one behind the server, one
    // local. (Timings inside the responses differ run to run; the solver outcome
    // must not.)
    let (remote_engine, spec) = engine_with_corpus(2);
    let (local_engine, _) = engine_with_corpus(2);
    let server = Server::bind("127.0.0.1:0", remote_engine, ServerConfig::default()).expect("bind");
    let mut client = fast_client(&server);

    // `elapsed` is wall-clock and legitimately differs run to run; every other
    // field of the outcome must match exactly (including the f64 objective).
    let normalize = |mut outcome: tagdm_core::solvers::SolverOutcome| {
        outcome.elapsed = Duration::ZERO;
        outcome
    };
    let solvers = [
        SolverChoice::Recommended,
        SolverChoice::Exact,
        SolverChoice::SmLsh(ConstraintMode::Filter),
        SolverChoice::SmLsh(ConstraintMode::Fold),
        SolverChoice::DvFdp(ConstraintMode::Filter),
        SolverChoice::DvFdp(ConstraintMode::Fold),
    ];
    for id in 1..=6 {
        for solver in solvers {
            let request = SolveRequest::new(spec.clone(), problem(id, params()), solver);
            let over_wire = client.solve(request.clone()).expect("remote solve");
            let in_process = local_engine.solve(request);
            let remote_outcome = normalize(over_wire.result.expect("remote outcome"));
            let local_outcome = normalize(in_process.result.expect("local outcome"));
            assert_eq!(remote_outcome, local_outcome, "P{id} {}", solver.tag());
        }
    }
}

/// A problem whose objective can overflow is refused as invalid, over the wire exactly
/// as in-process. Solved, it would answer an infinite objective, which JSON cannot
/// carry: the answer would not decode.
#[test]
fn an_overflowing_objective_is_the_same_invalid_problem_remotely() {
    let (remote_engine, spec) = engine_with_corpus(1);
    let (local_engine, _) = engine_with_corpus(1);
    let server = Server::bind("127.0.0.1:0", remote_engine, ServerConfig::default()).expect("bind");
    let mut client = fast_client(&server);

    let heavy = ObjectiveSpec {
        weight: f64::MAX,
        ..ObjectiveSpec::standard(TaggingDimension::Tags, MiningCriterion::Similarity)
    };
    let problem = problem_1(params())
        .with_objective(heavy)
        .with_objective(heavy);
    let request = SolveRequest::new(spec, problem, SolverChoice::Exact);
    let over_wire = client.solve(request.clone()).expect("remote answer");
    let in_process = local_engine.solve(request);
    assert!(
        matches!(in_process.result, Err(EngineError::InvalidProblem(_))),
        "{:?}",
        in_process.result
    );
    assert_eq!(over_wire.result, in_process.result);
}

#[test]
fn ping_echoes_and_health_reports_ok() {
    let (engine, _) = engine_with_corpus(2);
    let server = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).expect("bind");
    let mut client = fast_client(&server);

    let rtt = client.ping("sized padding for the echo").expect("ping");
    assert!(rtt < Duration::from_secs(5));

    let health = client.health().expect("health");
    assert_eq!(health.status, HealthStatus::Ok);
    assert_eq!(health.workers_alive, 2);
    assert_eq!(health.workers_configured, 2);
    assert_eq!(health.datasets, 1);
    assert!(health.connections_open >= 1);
}

/// The server clamps missing/huge deadlines to its job cap: a request *without* a
/// deadline still comes back flagged once the cap fires mid-solve.
#[test]
fn job_deadlines_are_clamped_to_the_server_cap() {
    let (engine, spec) = engine_with_corpus(1);
    let config = ServerConfig::default().with_job_deadline_cap(Duration::from_millis(1));
    let server = Server::bind("127.0.0.1:0", engine, config).expect("bind");
    let mut client = fast_client(&server);

    // An uncapped exact solve over this corpus takes well over a millisecond.
    let request = SolveRequest::new(spec, problem_1(params()), SolverChoice::Exact);
    let response = client.solve(request).expect("remote solve");
    assert!(
        response.deadline_hit,
        "the 1ms cap should have truncated the solve"
    );
}

/// Read and write timeouts past `Instant`'s range never fire; they must not panic
/// the connection handler either.
#[test]
fn unbounded_connection_timeouts_serve_without_panicking() {
    let (engine, spec) = engine_with_corpus(1);
    let config = ServerConfig::default()
        .with_read_timeout(Duration::MAX)
        .with_write_timeout(Duration::MAX);
    let server = Server::bind("127.0.0.1:0", engine, config).expect("bind");
    let mut client = fast_client(&server);

    let request = SolveRequest::new(spec, problem_1(params()), SolverChoice::Recommended);
    let response = client.solve(request).expect("remote solve");
    assert!(response.result.is_ok(), "{:?}", response.result);
    assert_eq!(server.metrics().conn_panics.get(), 0);
}

#[test]
fn server_counts_its_connections_and_frames() {
    let (engine, _) = engine_with_corpus(1);
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&engine), ServerConfig::default()).expect("bind");
    let mut client = fast_client(&server);
    client.ping("").expect("ping");
    client.ping("").expect("ping");
    drop(client);
    server.drain();

    let metrics = server.metrics();
    assert!(metrics.connections_opened.get() >= 1);
    assert_eq!(metrics.connections_open(), 0);
    assert!(metrics.frames_received.get() >= 2);
    assert!(metrics.frames_sent.get() >= 2);
}

/// Dropping a `Client` half-closes the socket at a frame boundary, so the
/// server sees a clean EOF — never a torn-frame protocol fault.
#[test]
fn dropping_a_client_disconnects_cleanly() {
    let (engine, _) = engine_with_corpus(1);
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&engine), ServerConfig::default()).expect("bind");
    for _ in 0..3 {
        let mut client = fast_client(&server);
        client.ping("about to hang up").expect("ping");
        drop(client); // shutdown(Write) at a frame boundary — nothing mid-frame
    }
    server.drain(); // joins every handler, so every disconnect is accounted for
    let metrics = server.metrics();
    assert_eq!(metrics.frame_errors.get(), 0, "drop tore a frame");
    assert_eq!(metrics.connections_open(), 0);
    assert!(metrics.connections_opened.get() >= 3);
}

/// Raw-socket tests below drive the protocol edges a well-behaved `Client` never
/// exercises.
fn raw_conn(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream
}

#[test]
fn garbage_magic_is_refused_with_a_typed_error() {
    let (engine, _) = engine_with_corpus(1);
    let server = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).expect("bind");
    let mut stream = raw_conn(&server);
    stream.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write");
    // The server answers with an ERROR frame, then closes.
    match read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
        Ok(Frame::Error(wire)) => assert_eq!(wire.code, code::MALFORMED),
        other => panic!("expected an error frame, got {other:?}"),
    }
    // The fault was counted before the farewell went out.
    assert!(server.metrics().frame_errors.get() >= 1);
    // The connection is closed after the error: no further frame ever arrives
    // (the close may surface as EOF or as a reset, since our garbage bytes beyond
    // the header were never consumed).
    match read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
        Err(NetError::Io { .. }) => {}
        other => panic!("expected the connection to be closed, got {other:?}"),
    }
}

#[test]
fn wrong_version_is_refused_with_unsupported_version() {
    let (engine, _) = engine_with_corpus(1);
    let server = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).expect("bind");
    let mut stream = raw_conn(&server);
    let mut header = encode_header(kind::PING, 0);
    header[4] = 9; // future protocol version
    stream.write_all(&header).expect("write");
    match read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
        Ok(Frame::Error(wire)) => assert_eq!(wire.code, code::UNSUPPORTED_VERSION),
        other => panic!("expected an error frame, got {other:?}"),
    }
}

#[test]
fn oversized_frames_are_refused_with_frame_too_large() {
    let (engine, _) = engine_with_corpus(1);
    let config = ServerConfig::default().with_max_frame_len(64);
    let server = Server::bind("127.0.0.1:0", engine, config).expect("bind");
    let mut stream = raw_conn(&server);
    stream
        .write_all(&encode_header(kind::SOLVE, 1_000_000))
        .expect("write");
    match read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
        Ok(Frame::Error(wire)) => assert_eq!(wire.code, code::FRAME_TOO_LARGE),
        other => panic!("expected an error frame, got {other:?}"),
    }
}

#[test]
fn response_kinds_sent_to_the_server_are_a_protocol_fault() {
    let (engine, _) = engine_with_corpus(1);
    let server = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).expect("bind");
    let mut stream = raw_conn(&server);
    let pong = Frame::Pong(tagdm_net::proto::PongFrame {
        nonce: 1,
        pad: String::new(),
    });
    stream
        .write_all(&encode_frame(&pong, DEFAULT_MAX_FRAME_LEN).expect("encode"))
        .expect("write");
    match read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
        Ok(Frame::Error(wire)) => assert_eq!(wire.code, code::UNKNOWN_KIND),
        other => panic!("expected an error frame, got {other:?}"),
    }
}

/// A torn frame (stream cut mid-payload) ends the connection with a MALFORMED
/// error frame, not a hang and not a crash.
#[test]
fn torn_frames_disconnect_with_malformed() {
    let (engine, _) = engine_with_corpus(1);
    let config = ServerConfig::default().with_read_timeout(Duration::from_millis(200));
    let server = Server::bind("127.0.0.1:0", engine, config).expect("bind");
    let mut stream = raw_conn(&server);
    let ping = Frame::Ping(PingFrame {
        nonce: 5,
        pad: "this payload will be cut short".to_string(),
    });
    let bytes = encode_frame(&ping, DEFAULT_MAX_FRAME_LEN).expect("encode");
    stream.write_all(&bytes[..bytes.len() - 7]).expect("write");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    match read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
        Ok(Frame::Error(wire)) => {
            assert_eq!(wire.code, code::MALFORMED);
            assert!(wire.message.contains("torn"), "message: {}", wire.message);
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
}

/// A client that dribbles a frame without finishing it is cut at the read
/// deadline with DEADLINE_EXCEEDED.
#[test]
fn half_sent_frames_are_cut_at_the_read_deadline() {
    let (engine, _) = engine_with_corpus(1);
    let config = ServerConfig::default().with_read_timeout(Duration::from_millis(150));
    let server = Server::bind("127.0.0.1:0", engine, config).expect("bind");
    let mut stream = raw_conn(&server);
    stream
        .write_all(&encode_header(kind::PING, 64))
        .expect("write");
    // ... and never send the 64 payload bytes.
    match read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
        Ok(Frame::Error(wire)) => assert_eq!(wire.code, code::DEADLINE_EXCEEDED),
        other => panic!("expected an error frame, got {other:?}"),
    }
}

#[test]
fn drain_sends_goaway_to_idle_connections_and_joins() {
    let (engine, _) = engine_with_corpus(1);
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&engine), ServerConfig::default()).expect("bind");
    let mut stream = raw_conn(&server);
    // Prove the connection is live before the drain.
    let ping = Frame::Ping(PingFrame {
        nonce: 11,
        pad: String::new(),
    });
    stream
        .write_all(&encode_frame(&ping, DEFAULT_MAX_FRAME_LEN).expect("encode"))
        .expect("write");
    match read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
        Ok(Frame::Pong(pong)) => assert_eq!(pong.nonce, 11),
        other => panic!("expected a pong, got {other:?}"),
    }

    server.drain(); // blocks until every transport thread is joined
    assert!(server.is_draining());

    match read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
        Ok(Frame::GoAway(goaway)) => assert!(goaway.reason.contains("drain")),
        other => panic!("expected a go-away frame, got {other:?}"),
    }
    assert!(server.metrics().goaways_sent.get() >= 1);

    // Draining twice is a no-op, and the client's typed error is transient (a
    // reconnect-elsewhere is sensible).
    server.drain();
    assert!(NetError::GoAway("d".into()).is_transient());
}

/// The client transparently survives a server restart between calls (reconnect
/// with backoff on a transient failure).
#[test]
fn client_reconnects_across_a_server_restart() {
    let (engine, _) = engine_with_corpus(1);
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&engine), ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let mut client = Client::connect(
        addr,
        ClientConfig::default().with_retry(RetryPolicy::attempts(8)),
    )
    .expect("connect");
    client.ping("before").expect("ping before restart");

    drop(server); // drains: the client's connection gets GO_AWAY / EOF
    let server = Server::bind(addr, engine, ServerConfig::default()).expect("rebind");
    let rtt = client.ping("after").expect("ping after restart");
    assert!(rtt < Duration::from_secs(5));
    drop(server);
}
