//! # tagdm-engine
//!
//! A long-lived, concurrent mining service over the TagDM framework: the subsystem
//! that turns the one-shot solvers of `tagdm-core` into something a production
//! deployment can keep resident and hammer with mixed workloads.
//!
//! Three pieces, composed by [`Engine`]:
//!
//! * **Context caching** — datasets are registered once; mining contexts (the
//!   expensive LDA/tf·idf signature precomputations) are memoized behind an LRU cache
//!   keyed by `(dataset, grouping scheme, summarizer)` ([`ContextSpec::key`]) and the
//!   dataset's registration generation, next to a cache of whole solver outcomes. Pre-built contexts can be pinned under explicit
//!   names ([`Engine::install_context`]) for corpora no grouping recipe describes.
//! * **Job execution** — typed [`SolveRequest`]s (problem + solver choice + optional
//!   deadline) run on a fixed worker pool; responses come back over per-job channels
//!   as [`SolveResponse`]s. Deadlines cancel cooperatively via
//!   [`CancelToken`](tagdm_core::solvers::CancelToken): an expired solve returns the
//!   best result found so far and is flagged, never cached.
//! * **Metrics** — [`Counter`](metrics::Counter)s and lock-free latency
//!   histograms for cache hits/misses, queue wait and solve time, exposed as a
//!   serializable [`MetricsSnapshot`] via [`Engine::metrics`]. The transport and
//!   the cluster count with the same `Counter` type.
//!
//! The engine is built to degrade predictably under faults and load:
//!
//! * **Panic isolation** — a panicking solver is caught at the job boundary and
//!   answered as [`EngineError::WorkerPanicked`]; the worker survives and the caller
//!   never hangs.
//! * **Worker supervision** — a worker killed by an escaped panic respawns itself from
//!   its own unwind guard, with exponential backoff and a restart budget
//!   ([`SupervisorConfig`]); no extra thread watches the pool.
//! * **Bounded admission** — the job queue is capacity-bounded; a full queue rejects,
//!   blocks-with-timeout or sheds oldest work per [`AdmissionPolicy`], so overload
//!   fails fast instead of collapsing latency.
//! * **Retry with backoff** — [`Engine::solve_with`] transparently resubmits requests
//!   that failed transiently, per [`RetryPolicy`]; [`RetryPolicy::run`] is the one
//!   retry loop, which the cluster and the network client share.
//! * **Fault injection** — with the `failpoints` cargo feature, tests arm named
//!   [`failpoint`] sites to force panics, delays and errors deterministically.
//!
//! ```
//! use tagdm_core::catalog::{problem_1, ProblemParams};
//! use tagdm_core::context::SummarizerChoice;
//! use tagdm_data::generator::{GeneratorConfig, MovieLensStyleGenerator};
//! use tagdm_engine::{ContextSpec, Engine, SolveRequest, SolverChoice};
//!
//! let engine = Engine::default();
//! engine.register_dataset("ml", MovieLensStyleGenerator::new(GeneratorConfig::small()).generate());
//!
//! let spec = ContextSpec::grouped(
//!     "ml",
//!     &[("user", "gender"), ("item", "genre")],
//!     5,
//!     SummarizerChoice::FrequencyNormalized,
//! );
//! let params = ProblemParams { k: 3, min_support: 5, user_threshold: 0.2, item_threshold: 0.2 };
//! let response = engine.solve(SolveRequest::new(spec, problem_1(params), SolverChoice::Recommended));
//! assert!(response.result.is_ok());
//! assert!(engine.metrics().jobs_completed >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
mod engine;
mod error;
mod executor;
pub mod failpoint;
pub mod histogram;
mod job;
pub mod metrics;
mod retry;
mod spec;
mod state;

pub use admission::AdmissionPolicy;
pub use engine::{Engine, EngineConfig};
pub use error::EngineError;
pub use executor::SupervisorConfig;
pub use histogram::HistogramSnapshot;
pub use job::{CacheReport, JobId, JobTicket, SolveRequest, SolveResponse, SolverChoice};
pub use metrics::MetricsSnapshot;
pub use retry::{Backoff, RetryPolicy};
pub use spec::{ContextKey, ContextSpec};
pub use state::{lock_recover, read_recover, write_recover};
