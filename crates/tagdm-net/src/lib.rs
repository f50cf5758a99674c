//! # tagdm-net
//!
//! A deadline-aware TCP transport for the TagDM mining engine: the subsystem that
//! puts a resident [`tagdm_engine::Engine`] on the network without letting the
//! network degrade it.
//!
//! Everything is std-only and blocking — no async runtime. The wire protocol is
//! versioned, length-prefixed JSON frames (`docs/PROTOCOL.md` is the normative
//! description; the unit tests in [`frame`] pin its worked examples
//! byte-for-byte). Three pieces:
//!
//! * **[`Server`]** — binds a listener and accepts on one supervised acceptor
//!   thread (panic → respawn within a restart budget, like the engine's worker
//!   supervision). Each connection gets its own panic-isolated handler thread.
//!   Per-connection *read* and per-frame *write* deadlines compose with a cap on
//!   every job's engine deadline, so neither a dribbling sender, a non-reading
//!   receiver nor an expensive problem can pin server resources on behalf of a
//!   remote client. [`Server::drain`] (also run on drop) stops accepting,
//!   finishes and answers in-flight jobs, waves lingering connections off with
//!   `GO_AWAY` and joins every transport thread.
//! * **[`Client`]** — a blocking connection with connect/read/write budgets that
//!   transparently retries [transient](NetError::is_transient) failures on a
//!   fresh connection, pacing reconnects with the engine's
//!   [`RetryPolicy`](tagdm_engine::RetryPolicy) backoff.
//! * **Observability** — each server owns its connection, frame and fault
//!   counters ([`Server::metrics`], a [`ServerMetrics`] of engine
//!   [`Counter`](tagdm_engine::metrics::Counter)s); the engine's own counters
//!   stay on [`Engine::metrics`](tagdm_engine::Engine::metrics). `HEALTH`
//!   probes answer with the engine's snapshot plus the server's open
//!   connections. With the `failpoints` feature, the transport evaluates its
//!   named sites (`net.accept`, `net.conn`, `net.write_frame`) through the
//!   engine's single fault-injection registry.
//!
//! ```
//! use std::sync::Arc;
//! use tagdm_engine::{Engine, EngineConfig};
//! use tagdm_net::{Client, ClientConfig, HealthStatus, Server, ServerConfig};
//!
//! let engine = Arc::new(Engine::new(EngineConfig::default().with_workers(2)));
//! let server = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.local_addr(), ClientConfig::default()).unwrap();
//! client.ping("hello").unwrap();
//! assert_eq!(client.health().unwrap().status, HealthStatus::Ok);
//!
//! server.drain(); // stop accepting, finish in-flight work, join every thread
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod conn;
mod error;
pub mod frame;
mod health;
mod metrics;
pub mod proto;
mod server;
mod shutdown;

pub use client::{Client, ClientConfig};
pub use error::NetError;
pub use health::{HealthReport, HealthStatus};
pub use metrics::ServerMetrics;
pub use server::{Server, ServerConfig};
