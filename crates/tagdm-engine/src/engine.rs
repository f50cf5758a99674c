//! The public engine handle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Instant;

use tagdm_core::context::MiningContext;
use tagdm_data::dataset::Dataset;

use crate::admission::AdmissionPolicy;
use crate::error::EngineError;
use crate::executor::{Job, JobExecutor, SupervisorConfig};
use crate::job::{JobId, JobTicket, SolveRequest, SolveResponse};
use crate::metrics::MetricsSnapshot;
use crate::retry::RetryPolicy;
use crate::spec::ContextSpec;
use crate::state::{ContextId, EngineState};

/// Sizing and fault-tolerance knobs for an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads in the solve pool.
    pub workers: usize,
    /// Capacity of the mining-context LRU cache (contexts are the largest artifacts).
    pub context_cache: usize,
    /// Capacity of the solver-outcome LRU cache.
    pub outcome_cache: usize,
    /// Capacity of the job admission queue (at least 1).
    pub queue_capacity: usize,
    /// What happens to submissions when the queue is full.
    pub admission: AdmissionPolicy,
    /// Restart budget and backoff for respawning dead workers.
    pub supervisor: SupervisorConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            context_cache: 16,
            outcome_cache: 256,
            queue_capacity: 1024,
            admission: AdmissionPolicy::Reject,
            supervisor: SupervisorConfig::default(),
        }
    }
}

impl EngineConfig {
    /// Override the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Override the admission-queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Override the full-queue admission policy.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Override the worker-supervision policy.
    pub fn with_supervisor(mut self, supervisor: SupervisorConfig) -> Self {
        self.supervisor = supervisor;
        self
    }
}

/// A long-lived, thread-safe mining service over registered datasets.
///
/// The engine memoizes the expensive artifacts of the TagDM pipeline — mining contexts
/// keyed by `(dataset, grouping scheme, summarizer)` and whole solver outcomes — and
/// runs [`SolveRequest`]s on a fixed worker pool with cooperative deadline
/// cancellation. All methods take `&self`; share an engine across threads with `Arc`
/// or plain borrows.
///
/// ```
/// use tagdm_engine::{Engine, EngineConfig};
///
/// let engine = Engine::new(EngineConfig::default().with_workers(2));
/// assert_eq!(engine.num_workers(), 2);
/// assert_eq!(engine.live_workers(), 2);
/// assert_eq!(engine.metrics().jobs_submitted, 0);
/// ```
pub struct Engine {
    state: Arc<EngineState>,
    executor: JobExecutor,
    next_job: AtomicU64,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineConfig::default())
    }
}

impl Engine {
    /// Start an engine: spawns the worker pool immediately.
    pub fn new(config: EngineConfig) -> Self {
        let state = Arc::new(EngineState::new(config.context_cache, config.outcome_cache));
        let executor = JobExecutor::start(
            config.workers,
            config.queue_capacity,
            config.admission,
            config.supervisor,
            Arc::clone(&state),
        );
        Engine {
            state,
            executor,
            next_job: AtomicU64::new(0),
        }
    }

    /// Number of worker threads in the solve pool (the size respawns restore).
    pub fn num_workers(&self) -> usize {
        self.executor.num_workers()
    }

    /// Worker threads alive right now. Dips below [`num_workers`](Self::num_workers)
    /// between a worker death and its respawn; stays lower permanently once the
    /// [`SupervisorConfig`] restart budget is exhausted.
    pub fn live_workers(&self) -> usize {
        self.executor.live_workers()
    }

    /// Jobs sitting in the admission queue right now. A persistently non-zero
    /// depth means submissions outpace the worker pool — the saturation gauge
    /// health reports and circuit breakers watch.
    pub fn queue_depth(&self) -> usize {
        self.executor.queue_depth()
    }

    /// Register (or replace) a dataset under `name`. Every registration gets a fresh
    /// generation that is part of the engine's context and outcome cache keys, so after
    /// a replacement grouped specs naming `name` resolve against the new data and
    /// never see a context or outcome cached for the old one. Contexts already handed
    /// out stay valid for their own `Arc`'d data. Register under a fresh name to keep
    /// both datasets servable.
    pub fn register_dataset(&self, name: impl Into<String>, dataset: Dataset) -> Arc<Dataset> {
        self.state.register_dataset(name.into(), dataset)
    }

    /// The dataset registered under `name`, if any.
    pub fn dataset(&self, name: &str) -> Option<Arc<Dataset>> {
        self.state.dataset(name)
    }

    /// Sorted names of every registered dataset.
    pub fn dataset_names(&self) -> Vec<String> {
        self.state.dataset_names()
    }

    /// Install (or replace) a pre-built context under an explicit name, pinned outside
    /// the LRU cache. Requests reference it with [`ContextSpec::installed`]. Like
    /// [`register_dataset`](Self::register_dataset), every installation gets a fresh
    /// generation, so outcomes cached for a replaced context are never served again.
    pub fn install_context(
        &self,
        name: impl Into<String>,
        context: MiningContext,
    ) -> Arc<MiningContext> {
        self.state.install_context(name.into(), context)
    }

    /// Resolve (building and caching if needed) the context a spec denotes.
    pub fn context(&self, spec: &ContextSpec) -> Result<Arc<MiningContext>, EngineError> {
        let (generation, registration) = self.state.registration(spec)?;
        let id = ContextId {
            spec: spec.clone(),
            generation,
        };
        self.state
            .resolve_context(&id, registration)
            .map(|(context, _)| context)
    }

    /// Enqueue a request on the worker pool; the ticket resolves to the response.
    ///
    /// Admission is bounded: when the queue is full the configured
    /// [`AdmissionPolicy`] decides whether this rejects fast, blocks briefly or sheds
    /// older queued work. Whatever happens, the returned ticket always resolves —
    /// rejected jobs resolve to [`EngineError::Overloaded`] immediately.
    pub fn submit(&self, request: SolveRequest) -> JobTicket {
        let id = JobId(self.next_job.fetch_add(1, Ordering::Relaxed));
        self.state.metrics.jobs_submitted.inc();
        let (reply, receiver) = channel();
        let job = Job {
            id,
            request,
            submitted: Instant::now(),
            reply,
        };
        if let Err(refused) = self.executor.submit(job) {
            let (job, error) = *refused;
            // Refused at admission (overload or shutdown): the job still owns its
            // reply channel, so answer the ticket right here.
            job.answer_error(error, &self.state.metrics);
        }
        JobTicket { id, receiver }
    }

    /// Submit and block for the response.
    pub fn solve(&self, request: SolveRequest) -> SolveResponse {
        self.submit(request).wait()
    }

    /// Submit and block for the response, transparently resubmitting on transient
    /// failures (caught worker panics, overload rejections, queue-expired deadlines)
    /// per `policy`. Deterministic errors — invalid problems, unknown names, shutdown
    /// — are returned on the first attempt; see [`EngineError::is_transient`]. The
    /// response of the last attempt is returned once the policy's budget is spent.
    pub fn solve_with(&self, request: SolveRequest, policy: RetryPolicy) -> SolveResponse {
        policy.run(
            |attempt| {
                if attempt > 0 {
                    self.state.metrics.jobs_retried.inc();
                }
                self.solve(request.clone())
            },
            |response| matches!(&response.result, Err(error) if error.is_transient()),
        )
    }

    /// Submit a batch and collect the responses in request order. The batch runs
    /// concurrently across the worker pool.
    pub fn solve_batch(&self, requests: Vec<SolveRequest>) -> Vec<SolveResponse> {
        let tickets: Vec<JobTicket> = requests.into_iter().map(|r| self.submit(r)).collect();
        tickets.into_iter().map(JobTicket::wait).collect()
    }

    /// A point-in-time copy of the engine's counters and latency histograms.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.state.metrics.snapshot()
    }
}
