//! The blocking client: one connection, reconnect-with-backoff and transparent
//! retry of transient failures.

use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use tagdm_engine::{RetryPolicy, SolveRequest, SolveResponse};

use crate::error::NetError;
use crate::frame::{read_frame, write_frame};
use crate::health::HealthReport;
use crate::proto::{Frame, PingFrame, SolveFrame, DEFAULT_MAX_FRAME_LEN};

/// Timeouts and retry behaviour for a [`Client`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Budget for establishing one TCP connection.
    pub connect_timeout: Duration,
    /// Budget for one response to arrive. Size it above the server's job-deadline
    /// cap, or slow (but successful) solves will be cut off client-side.
    pub read_timeout: Duration,
    /// Budget for writing one request frame.
    pub write_timeout: Duration,
    /// Upper bound on frame payloads, both read and written.
    pub max_frame_len: u32,
    /// How many attempts each call gets and how reconnects are paced. Reuses the
    /// engine's [`RetryPolicy`]; only [transient](NetError::is_transient) failures
    /// are retried, each on a fresh connection.
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            retry: RetryPolicy::default(),
        }
    }
}

impl ClientConfig {
    /// Override the per-response read budget.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Override the per-request write budget.
    pub fn with_write_timeout(mut self, timeout: Duration) -> Self {
        self.write_timeout = timeout;
        self
    }

    /// Override the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// A blocking connection to a [`Server`](crate::Server).
///
/// One request is in flight at a time (the protocol is strictly
/// request/response per connection; open more clients for parallelism). Calls
/// transparently retry [transient](NetError::is_transient) failures — connection
/// resets, deadline cuts, a draining server — on a fresh connection, pacing
/// reconnects with the policy's backoff. Retrying a solve re-executes it, which
/// is safe: solves are idempotent and the engine's outcome cache answers repeats.
pub struct Client {
    addr: SocketAddr,
    config: ClientConfig,
    stream: Option<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Resolve `addr` and connect (the first attempt also honours the retry
    /// policy, so a server still binding is waited for).
    pub fn connect(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Client, NetError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| NetError::Malformed("address resolved to nothing".to_string()))?;
        let mut client = Client {
            addr,
            config,
            stream: None,
            next_id: 0,
        };
        client.with_retries(|client| {
            client.ensure_stream()?;
            Ok(Frame::Health) // Placeholder; only the connect outcome matters here.
        })?;
        Ok(client)
    }

    /// Solve `request` remotely. The response is exactly what the server's
    /// in-process [`Engine::solve`](tagdm_engine::Engine::solve) returned — engine
    /// errors ride inside it; an `Err` here means the conversation itself failed.
    pub fn solve(&mut self, request: SolveRequest) -> Result<SolveResponse, NetError> {
        self.next_id += 1;
        let id = self.next_id;
        let frame = Frame::Solve(SolveFrame { id, request });
        match self.with_retries(|client| client.roundtrip(&frame))? {
            Frame::Answer(answer) if answer.id == id => Ok(answer.response),
            Frame::Answer(answer) => Err(NetError::Malformed(format!(
                "answer correlates to id {} but {} was asked",
                answer.id, id
            ))),
            other => Err(NetError::UnknownKind(other.kind())),
        }
    }

    /// Liveness probe: round-trips a nonce (and `pad`, for deliberately sized
    /// frames) and returns the measured round-trip time.
    pub fn ping(&mut self, pad: impl Into<String>) -> Result<Duration, NetError> {
        self.next_id += 1;
        let nonce = self.next_id;
        let frame = Frame::Ping(PingFrame {
            nonce,
            pad: pad.into(),
        });
        let started = Instant::now();
        match self.with_retries(|client| client.roundtrip(&frame))? {
            Frame::Pong(pong) if pong.nonce == nonce => Ok(started.elapsed()),
            Frame::Pong(pong) => Err(NetError::Malformed(format!(
                "pong nonce {} does not match ping nonce {}",
                pong.nonce, nonce
            ))),
            other => Err(NetError::UnknownKind(other.kind())),
        }
    }

    /// Health probe: the server's verdict and condensed metrics.
    pub fn health(&mut self) -> Result<HealthReport, NetError> {
        match self.with_retries(|client| client.roundtrip(&Frame::Health))? {
            Frame::HealthReport(report) => Ok(report),
            other => Err(NetError::UnknownKind(other.kind())),
        }
    }

    /// Run `attempt` under the retry policy: transient failures drop the
    /// connection, back off and try again on a fresh one; deterministic failures
    /// and the last attempt's error surface as-is.
    fn with_retries(
        &mut self,
        mut attempt: impl FnMut(&mut Client) -> Result<Frame, NetError>,
    ) -> Result<Frame, NetError> {
        let policy = self.config.retry;
        let attempts = policy.max_attempts.max(1);
        let mut tries = 0;
        loop {
            match attempt(self) {
                Ok(frame) => return Ok(frame),
                Err(error) => {
                    self.stream = None; // Never reuse a connection after any failure.
                    if !error.is_transient() || tries + 1 >= attempts {
                        return Err(error);
                    }
                    std::thread::sleep(policy.backoff.delay(tries));
                    tries += 1;
                }
            }
        }
    }

    /// One request/response exchange on the current connection (connecting first
    /// if there is none).
    fn roundtrip(&mut self, frame: &Frame) -> Result<Frame, NetError> {
        let max_frame_len = self.config.max_frame_len;
        let stream = self.ensure_stream()?;
        write_frame(stream, frame, max_frame_len)?;
        match read_frame(stream, max_frame_len)? {
            Frame::Error(wire) => Err(NetError::Remote(wire)),
            Frame::GoAway(goaway) => Err(NetError::GoAway(goaway.reason)),
            response => Ok(response),
        }
    }

    /// Close the connection gracefully: shut the write half down so the peer's
    /// next read sees EOF. The client is strictly request/response — a frame is
    /// never left half-written when control returns here — so the handler on the
    /// other side logs a clean disconnect instead of a torn-frame error.
    fn close(&mut self) {
        if let Some(stream) = self.stream.take() {
            let _ = stream.shutdown(Shutdown::Write);
        }
    }

    fn ensure_stream(&mut self) -> Result<&mut TcpStream, NetError> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)?;
            stream.set_read_timeout(Some(self.config.read_timeout))?;
            stream.set_write_timeout(Some(self.config.write_timeout))?;
            stream.set_nodelay(true).ok();
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("stream was just ensured"))
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        self.close();
    }
}
