//! State shared between the server handle, its acceptor and its connection
//! threads, including the draining-shutdown choreography.
//!
//! Locking here is deliberately leaf-scoped: both mutexes (`conns`, `acceptors`)
//! are only ever taken to swap registry contents in or out — joins and socket
//! operations always happen *outside* the critical section, and no code path holds
//! both locks at once, so the transport adds no edges to the workspace lock-order
//! graph (see `lock_order.toml`).

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use tagdm_engine::{lock_recover, Engine};

use crate::metrics::ServerMetrics;
use crate::server::ServerConfig;

/// How long a drain waits for its self-connect acceptor wake-up.
const WAKE_TIMEOUT: Duration = Duration::from_millis(500);

/// A registered connection thread: the handle plus the completion flag its guard
/// raises on exit, so finished threads can be reaped without blocking on live ones.
pub(crate) struct ConnHandle {
    pub(crate) done: Arc<AtomicBool>,
    pub(crate) handle: JoinHandle<()>,
}

/// Everything the acceptor and connection threads share with the [`Server`](crate::Server)
/// handle.
pub(crate) struct ServerShared {
    pub(crate) engine: Arc<Engine>,
    pub(crate) config: ServerConfig,
    pub(crate) listener: TcpListener,
    pub(crate) addr: SocketAddr,
    pub(crate) metrics: ServerMetrics,
    draining: AtomicBool,
    /// Remaining acceptor respawns (decremented by the acceptor guard).
    pub(crate) acceptor_budget: AtomicU32,
    /// Live connection threads. Leaf lock: contents are swapped out under the lock
    /// and joined outside it.
    conns: Mutex<Vec<ConnHandle>>,
    /// Live acceptor threads (one, plus respawns in flight). Leaf lock, as above.
    acceptors: Mutex<Vec<JoinHandle<()>>>,
}

impl ServerShared {
    pub(crate) fn new(
        engine: Arc<Engine>,
        config: ServerConfig,
        listener: TcpListener,
        addr: SocketAddr,
    ) -> Self {
        ServerShared {
            engine,
            config,
            listener,
            addr,
            metrics: ServerMetrics::default(),
            draining: AtomicBool::new(false),
            acceptor_budget: AtomicU32::new(config.acceptor_restarts),
            conns: Mutex::new(Vec::new()),
            acceptors: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    pub(crate) fn register_acceptor(&self, handle: JoinHandle<()>) {
        lock_recover(&self.acceptors).push(handle);
    }

    pub(crate) fn register_conn(&self, conn: ConnHandle) {
        lock_recover(&self.conns).push(conn);
    }

    /// Join (only) connection threads that have already finished, so a long-lived
    /// server does not accumulate dead handles. Called by the acceptor between
    /// accepts; joins happen outside the lock and are instant for done threads.
    pub(crate) fn reap_finished(&self) {
        let finished: Vec<ConnHandle> = {
            let mut conns = lock_recover(&self.conns);
            let mut keep = Vec::with_capacity(conns.len());
            let mut done = Vec::new();
            for conn in conns.drain(..) {
                if conn.done.load(Ordering::Acquire) {
                    done.push(conn);
                } else {
                    keep.push(conn);
                }
            }
            *conns = keep;
            done
        };
        for conn in finished {
            let _ = conn.handle.join();
        }
    }

    /// Draining shutdown: raise the flag, wake and join the acceptor(s), then join
    /// every connection thread — each finishes its in-flight job, answers, sees the
    /// flag at its next read tick and says [`GoAway`](crate::proto::GoAwayFrame).
    /// Idempotent: later calls join whatever the first left behind (usually
    /// nothing) and return.
    pub(crate) fn drain(&self) {
        self.draining.store(true, Ordering::Release);
        let acceptors: Vec<JoinHandle<()>> = {
            let mut acceptors = lock_recover(&self.acceptors);
            acceptors.drain(..).collect()
        };
        // A blocking `accept` only notices the flag on its next wake-up, so poke
        // each acceptor with a throwaway connection to our own listener.
        for _ in &acceptors {
            let _ = TcpStream::connect_timeout(&self.addr, WAKE_TIMEOUT);
        }
        for handle in acceptors {
            let _ = handle.join();
        }
        let conns: Vec<ConnHandle> = {
            let mut conns = lock_recover(&self.conns);
            conns.drain(..).collect()
        };
        for conn in conns {
            let _ = conn.handle.join();
        }
    }
}
