//! Hostile payloads: whatever a peer sends, decoding ends in a typed error in time
//! linear in the payload's length, without aborting the process or panicking the
//! connection thread. CI also runs this file optimized under a time limit, so a
//! return to quadratic decoding or unbounded recursion fails instead of stalling.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use tagdm_core::catalog::{problem_1, ProblemParams};
use tagdm_engine::{ContextSpec, Engine, EngineConfig, SolveRequest, SolverChoice};
use tagdm_net::frame::{encode_header, read_frame};
use tagdm_net::proto::{code, kind, Frame, PingFrame, SolveFrame, DEFAULT_MAX_FRAME_LEN};
use tagdm_net::{Client, ClientConfig, NetError, Server, ServerConfig};

/// SOLVE payloads that nest far deeper than any request type: 1 MiB of `[`, and
/// an unknown member whose value nests 100,000 deep.
fn deep_payloads() -> [String; 2] {
    let depth = 100_000;
    [
        "[".repeat(1 << 20),
        format!(
            "{{\"id\":1,\"junk\":{}{},\"request\":null}}",
            "[".repeat(depth),
            "]".repeat(depth)
        ),
    ]
}

/// A well-formed SOLVE payload whose deadline overflows `Duration`.
fn overflowing_deadline_payload() -> String {
    let params = ProblemParams {
        k: 3,
        min_support: 5,
        user_threshold: 0.2,
        item_threshold: 0.2,
    };
    let frame = Frame::Solve(SolveFrame {
        id: 9,
        request: SolveRequest {
            context: ContextSpec::installed("none"),
            problem: problem_1(params),
            solver: SolverChoice::Exact,
            deadline: Some(Duration::from_secs(1)),
        },
    });
    let payload = frame.encode_payload().expect("encode");
    let deadline = r#""deadline":{"secs":1,"nanos":0}"#;
    assert!(payload.contains(deadline), "{payload}");
    payload.replace(
        deadline,
        r#""deadline":{"secs":18446744073709551615,"nanos":1000000000}"#,
    )
}

#[test]
fn deep_nesting_is_malformed_on_a_default_stack_thread() {
    // A connection thread has the default stack, so the decode runs on one too.
    let results = thread::spawn(|| deep_payloads().map(|p| Frame::decode(kind::SOLVE, &p)))
        .join()
        .expect("decoding does not panic");
    for result in results {
        assert!(
            matches!(result, Err(NetError::Malformed(_))),
            "expected a malformed error, got {result:?}"
        );
    }
    // The unknown member is skipped up to the nesting limit, then refused.
    let [_, unknown] = deep_payloads();
    let error = Frame::decode(kind::SOLVE, &unknown).unwrap_err();
    assert!(error.to_string().contains("nesting deeper than"), "{error}");
}

#[test]
fn a_4_mib_ping_pad_round_trips() {
    let pad: String = "pad \"quoted\" \\ é€𝄞\n\u{1}"
        .chars()
        .cycle()
        .take(4 << 20)
        .collect();
    let ping = Frame::Ping(PingFrame { nonce: 3, pad });
    let payload = ping.encode_payload().expect("encode");
    assert!(payload.len() > 4 << 20);
    assert_eq!(Frame::decode(kind::PING, &payload).expect("decode"), ping);
}

fn server() -> Server {
    let engine = Arc::new(Engine::new(EngineConfig::default().with_workers(1)));
    Server::bind("127.0.0.1:0", engine, ServerConfig::default()).expect("bind")
}

/// Send one SOLVE frame with `payload` on a fresh connection; return the answer.
fn send_solve(server: &Server, payload: &str) -> Frame {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
        .write_all(&encode_header(kind::SOLVE, payload.len() as u32))
        .expect("header");
    stream.write_all(payload.as_bytes()).expect("payload");
    read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN).expect("an answer frame")
}

fn assert_malformed(frame: Frame) {
    match frame {
        Frame::Error(wire) => assert_eq!(wire.code, code::MALFORMED, "{}", wire.message),
        other => panic!("expected a MALFORMED error frame, got {other:?}"),
    }
}

/// The server answers each hostile SOLVE with a MALFORMED error frame, no
/// connection thread panics, and the next connection is served.
#[test]
fn a_loopback_server_refuses_hostile_solves_and_keeps_serving() {
    let server = server();
    for payload in deep_payloads() {
        assert_malformed(send_solve(&server, &payload));
    }
    assert_malformed(send_solve(&server, &overflowing_deadline_payload()));

    let mut client = Client::connect(
        server.local_addr(),
        ClientConfig::default().with_read_timeout(Duration::from_secs(20)),
    )
    .expect("connect after the hostile frames");
    client.ping("still serving").expect("ping");
    drop(client);
    server.drain();
    let metrics = server.metrics();
    assert_eq!(metrics.conn_panics.get(), 0);
    assert!(metrics.frame_errors.get() >= 3);
}
