//! The server: bind, the supervised acceptor thread and the public handle.
//!
//! This module is one of the transport's two thread owners (the other is
//! [`crate::conn`], which owns the per-connection threads): the acceptor thread is
//! spawned here and supervised by a drop guard that respawns it — within a restart
//! budget — if it dies to a panic, mirroring the engine's worker supervision.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use tagdm_engine::failpoint::{self, site};
use tagdm_engine::Engine;

use crate::conn::spawn_conn;
use crate::error::NetError;
use crate::metrics::ServerMetrics;
use crate::proto::DEFAULT_MAX_FRAME_LEN;
use crate::shutdown::ServerShared;

/// Deadline and sizing knobs for a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// A connection is cut (with a `DEADLINE_EXCEEDED` error frame) if no complete
    /// request frame arrives within this window — whether the client is idle or
    /// dribbling a frame byte-by-byte. Resets after every complete frame. A window
    /// past `Instant`'s range (such as `Duration::MAX`) never fires.
    pub read_timeout: Duration,
    /// Budget for writing one response frame. A client that stops reading (so our
    /// socket buffers fill) is disconnected when this fires, freeing the thread. A
    /// budget past `Instant`'s range never fires.
    pub write_timeout: Duration,
    /// Upper bound imposed on every job's engine deadline. Requests asking for more
    /// (or for none) are clamped down to it, so a slow solve can never pin a worker
    /// past this cap on behalf of a remote client.
    pub job_deadline_cap: Duration,
    /// Upper bound on frame payloads, both read and written.
    pub max_frame_len: u32,
    /// How many times a panicked acceptor thread is respawned before the server
    /// stops accepting for good.
    pub acceptor_restarts: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            job_deadline_cap: Duration::from_secs(10),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            acceptor_restarts: 8,
        }
    }
}

impl ServerConfig {
    /// Override the per-connection read deadline.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Override the per-frame write deadline.
    pub fn with_write_timeout(mut self, timeout: Duration) -> Self {
        self.write_timeout = timeout;
        self
    }

    /// Override the cap clamped onto every job's engine deadline.
    pub fn with_job_deadline_cap(mut self, cap: Duration) -> Self {
        self.job_deadline_cap = cap;
        self
    }

    /// Override the frame payload bound.
    pub fn with_max_frame_len(mut self, max_frame_len: u32) -> Self {
        self.max_frame_len = max_frame_len;
        self
    }

    /// Override the acceptor respawn budget.
    pub fn with_acceptor_restarts(mut self, restarts: u32) -> Self {
        self.acceptor_restarts = restarts;
        self
    }
}

/// A TCP front end for a resident [`Engine`].
///
/// Binding spawns one acceptor thread; each accepted connection gets its own
/// handler thread (panic-isolated — a poisoned connection dies alone). Dropping
/// the server [`drain`](Server::drain)s it: accepting stops, in-flight jobs finish
/// and are answered, idle connections get a `GO_AWAY` frame, and every transport
/// thread is joined before `drop` returns.
pub struct Server {
    shared: Arc<ServerShared>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an OS-assigned port) and start
    /// accepting connections for `engine`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: Arc<Engine>,
        config: ServerConfig,
    ) -> Result<Server, NetError> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(ServerShared::new(engine, config, listener, local));
        spawn_acceptor(&shared)?;
        Ok(Server { shared })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The transport's connection, frame and fault counters.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// Whether a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.is_draining()
    }

    /// Draining shutdown: stop accepting, let in-flight jobs finish and answer,
    /// send `GO_AWAY` to lingering connections, join every transport thread.
    /// Blocks until quiescent; idempotent.
    pub fn drain(&self) {
        self.shared.drain();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.drain();
    }
}

/// Spawn the acceptor thread and register it for join-on-drain.
fn spawn_acceptor(shared: &Arc<ServerShared>) -> Result<(), NetError> {
    let thread_shared = Arc::clone(shared);
    let handle = thread::Builder::new()
        .name("tagdm-net-acceptor".to_string())
        .spawn(move || {
            let _guard = AcceptorGuard {
                shared: Arc::clone(&thread_shared),
            };
            accept_loop(&thread_shared);
        })
        .map_err(NetError::from)?;
    shared.register_acceptor(handle);
    Ok(())
}

/// Respawns the acceptor if its thread dies to a panic, within the restart budget.
/// Like the engine's worker guard, it respawns inline in the dying thread's
/// unwind, but without a backoff.
struct AcceptorGuard {
    shared: Arc<ServerShared>,
}

impl Drop for AcceptorGuard {
    fn drop(&mut self) {
        if !thread::panicking() || self.shared.is_draining() {
            return;
        }
        let budget = &self.shared.acceptor_budget;
        if budget
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |b| b.checked_sub(1))
            .is_err()
        {
            return; // Budget exhausted: the server stops accepting for good.
        }
        self.shared.metrics.acceptor_restarts.inc();
        let _ = spawn_acceptor(&self.shared);
    }
}

/// Accept until drain. Each accepted stream is handed to its own handler thread.
fn accept_loop(shared: &Arc<ServerShared>) {
    loop {
        if shared.is_draining() {
            return;
        }
        // Fault injection: a panic here exercises the respawn guard; it fires
        // *between* connections, so no accepted stream is lost with it.
        if let Err(error) = failpoint::check(site::NET_ACCEPT) {
            panic!("injected acceptor fault: {error}");
        }
        match shared.listener.accept() {
            Ok((stream, peer)) => {
                if shared.is_draining() {
                    return; // The drain's own wake-up connection, or a late client.
                }
                shared.reap_finished();
                spawn_conn(shared, stream, peer);
            }
            Err(_) => {
                if shared.is_draining() {
                    return;
                }
                // Transient accept failure (EMFILE, aborted handshake): back off a
                // beat instead of spinning.
                thread::sleep(Duration::from_millis(20));
            }
        }
    }
}
