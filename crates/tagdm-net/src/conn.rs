//! Per-connection handler threads: frame dispatch, deadline enforcement and panic
//! isolation.
//!
//! This module is the transport's second thread owner (the first is
//! [`crate::server`], which owns the acceptor): every accepted stream gets one
//! handler thread, so a slow or poisoned connection can stall or kill only
//! itself. The handler polls its socket on a short tick, which is what lets it
//! notice — between reads — that its read deadline passed or that the server
//! started draining.

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use tagdm_engine::failpoint::{self, site};

use crate::error::NetError;
use crate::frame::{write_frame, FrameAssembler, ReadEvent};
use crate::health::HealthReport;
use crate::proto::{AnswerFrame, Frame, GoAwayFrame, PongFrame, SolveFrame, WireError};
use crate::shutdown::{ConnHandle, ServerShared};

/// Socket read-timeout used as the poll tick: the granularity at which a handler
/// notices read deadlines and drain. Keep well under any realistic
/// `read_timeout`.
const TICK: Duration = Duration::from_millis(25);

/// Budget for the best-effort farewell frame (error or go-away) on a connection
/// that is already being torn down.
const FAREWELL_TIMEOUT: Duration = Duration::from_millis(250);

/// Spawn the handler thread for one accepted stream and register it for
/// join-on-drain. Called from the acceptor; a spawn failure just drops the stream.
pub(crate) fn spawn_conn(shared: &Arc<ServerShared>, stream: TcpStream, peer: SocketAddr) {
    let done = Arc::new(AtomicBool::new(false));
    let thread_shared = Arc::clone(shared);
    let thread_done = Arc::clone(&done);
    let spawned = thread::Builder::new()
        .name(format!("tagdm-net-conn-{peer}"))
        .spawn(move || {
            let _guard = ConnGuard {
                shared: Arc::clone(&thread_shared),
                done: thread_done,
            };
            thread_shared.metrics.connections_opened.inc();
            run_conn(&thread_shared, stream);
        });
    if let Ok(handle) = spawned {
        shared.register_conn(ConnHandle { done, handle });
    }
}

/// Marks the connection thread finished (so the acceptor can reap its handle) and
/// folds panic deaths into the metrics. Panic isolation is the thread boundary
/// itself: an escaped panic unwinds through this guard and kills only this
/// connection.
struct ConnGuard {
    shared: Arc<ServerShared>,
    done: Arc<AtomicBool>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        if thread::panicking() {
            self.shared.metrics.conn_panics.inc();
        }
        self.shared.metrics.connections_closed.inc();
        self.done.store(true, Ordering::Release);
    }
}

/// Serve the connection, then send the appropriate farewell for how it ended.
fn run_conn(shared: &ServerShared, mut stream: TcpStream) {
    match serve_conn(shared, &mut stream) {
        Ok(()) => {}
        Err(error) => {
            if error.is_protocol_fault() {
                shared.metrics.frame_errors.inc();
            }
            if matches!(error, NetError::DeadlineExceeded(_)) {
                shared.metrics.deadline_disconnects.inc();
            }
            let farewell = Frame::Error(WireError {
                code: error.wire_code(),
                message: error.to_string(),
            });
            // Best effort: the peer may be gone or not reading; bound the attempt.
            // The farewell ignores a small configured frame bound — an oversized-
            // frame report must not be refused for its own size.
            let _ = stream.set_write_timeout(Some(FAREWELL_TIMEOUT));
            let _ = write_frame(&mut stream, &farewell, crate::proto::DEFAULT_MAX_FRAME_LEN);
        }
    }
}

/// The read loop: assemble request frames under the connection read deadline,
/// dispatch them, notice drain between frames.
fn serve_conn(shared: &ServerShared, stream: &mut TcpStream) -> Result<(), NetError> {
    // Fault injection: inside this connection's isolation boundary — a panic here
    // kills this handler thread only. Evaluated once per connection (not per poll
    // tick) so an armed one-shot deterministically hits the next connection.
    if let Err(error) = failpoint::check(site::NET_CONN) {
        return Err(NetError::Io {
            kind: ErrorKind::Other,
            message: format!("injected connection fault: {error}"),
        });
    }
    stream.set_read_timeout(Some(TICK))?;
    stream.set_nodelay(true).ok();
    let mut assembler = FrameAssembler::new(shared.config.max_frame_len);
    // A deadline past `Instant`'s range never fires.
    let read_deadline_from_now = || Instant::now().checked_add(shared.config.read_timeout);
    let mut read_deadline = read_deadline_from_now();
    loop {
        if shared.is_draining() {
            shared.metrics.goaways_sent.inc();
            let _ = stream.set_write_timeout(Some(FAREWELL_TIMEOUT));
            let _ = write_frame(
                stream,
                &Frame::GoAway(GoAwayFrame {
                    reason: "server draining for shutdown".to_string(),
                }),
                shared.config.max_frame_len,
            );
            return Ok(());
        }
        if read_deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(NetError::DeadlineExceeded(format!(
                "no complete request within {:?}{}",
                shared.config.read_timeout,
                if assembler.mid_frame() {
                    " (mid-frame)"
                } else {
                    ""
                }
            )));
        }
        match assembler.poll(stream)? {
            ReadEvent::Tick => continue,
            ReadEvent::Eof => return Ok(()), // Client hung up cleanly.
            ReadEvent::Frame(frame) => {
                shared.metrics.frames_received.inc();
                handle_frame(shared, stream, *frame)?;
                read_deadline = read_deadline_from_now();
            }
        }
    }
}

/// Dispatch one request frame and write its response.
fn handle_frame(
    shared: &ServerShared,
    stream: &mut TcpStream,
    frame: Frame,
) -> Result<(), NetError> {
    match frame {
        Frame::Solve(SolveFrame { id, mut request }) => {
            // Deadline mapping: the remote job runs under min(requested, cap), and a
            // request without a deadline gets the cap — a remote client can never
            // hold an engine worker longer than the server allows.
            let cap = shared.config.job_deadline_cap;
            request.deadline = Some(request.deadline.map_or(cap, |d| d.min(cap)));
            let response = shared.engine.solve(request);
            write_response(shared, stream, &Frame::Answer(AnswerFrame { id, response }))
        }
        Frame::Ping(ping) => write_response(
            shared,
            stream,
            &Frame::Pong(PongFrame {
                nonce: ping.nonce,
                pad: ping.pad,
            }),
        ),
        Frame::Health => write_response(
            shared,
            stream,
            &Frame::HealthReport(HealthReport::gather(
                &shared.engine,
                shared.is_draining(),
                shared.metrics.connections_open(),
            )),
        ),
        // Response kinds arriving at the server are a protocol fault.
        other => Err(NetError::UnknownKind(other.kind())),
    }
}

/// Write one response frame under the per-frame write deadline. A client that
/// stopped reading (buffers full) times the write out, which surfaces as
/// [`NetError::DeadlineExceeded`] and disconnects it.
fn write_response(
    shared: &ServerShared,
    stream: &mut TcpStream,
    frame: &Frame,
) -> Result<(), NetError> {
    // A deadline past `Instant`'s range never fires.
    let deadline = Instant::now().checked_add(shared.config.write_timeout);
    // Fault injection: a delay here consumes the write budget, modelling a client
    // that stopped reading, without having to actually fill socket buffers.
    if let Err(error) = failpoint::check(site::NET_WRITE_FRAME) {
        return Err(NetError::Io {
            kind: ErrorKind::Other,
            message: format!("injected write fault: {error}"),
        });
    }
    let now = Instant::now();
    if deadline.is_some_and(|d| now >= d) {
        return Err(NetError::DeadlineExceeded(
            "write budget exhausted before the frame was sent".to_string(),
        ));
    }
    stream.set_write_timeout(deadline.map(|d| d - now))?;
    match write_frame(stream, frame, shared.config.max_frame_len) {
        Ok(()) => {
            shared.metrics.frames_sent.inc();
            Ok(())
        }
        Err(NetError::Io { kind, message })
            if kind == ErrorKind::WouldBlock || kind == ErrorKind::TimedOut =>
        {
            Err(NetError::DeadlineExceeded(format!(
                "client stopped reading: {message}"
            )))
        }
        Err(error) => Err(error),
    }
}
