//! The supervised worker pool running solve jobs.
//!
//! Jobs flow through a capacity-bounded [`JobQueue`] (see
//! [`admission`](crate::admission)); each worker thread loops on `pop`, runs one job
//! inside a `catch_unwind` boundary and sends the [`SolveResponse`] back on the job's
//! private reply channel. Three fault-tolerance guarantees hold:
//!
//! * **Every admitted job is answered exactly once.** A [`Responder`] wraps the reply
//!   channel behind a send-once flag; if the job's execution unwinds before it
//!   answered, the worker answers with [`EngineError::WorkerPanicked`] instead of
//!   dropping the channel and hanging (or mis-erroring) the caller.
//! * **A panicking solver does not kill its worker.** The unwind is caught at the job
//!   boundary; the worker dequeues the next job.
//! * **A panic that escapes the boundary does not shrink the pool.** Each worker's
//!   guard reports the death to the [supervisor](crate::supervisor), which respawns a
//!   replacement within its restart budget.
//!
//! Shutdown is queue-driven: closing the queue lets workers drain what is queued and
//! exit, then [`JobExecutor::drop`] stops the supervisor and joins every thread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use tagdm_core::solvers::CancelToken;

use crate::admission::{AdmissionPolicy, JobQueue};
use crate::error::EngineError;
use crate::failpoint;
use crate::job::{CacheReport, JobId, SolveRequest, SolveResponse};
use crate::metrics::EngineMetrics;
use crate::state::{lock_recover, ContextId, EngineState, OutcomeKey};
use crate::supervisor::{supervise, SupervisorConfig, WorkerEvent};

pub(crate) struct Job {
    pub(crate) id: JobId,
    pub(crate) request: SolveRequest,
    pub(crate) submitted: Instant,
    pub(crate) reply: Sender<SolveResponse>,
}

impl Job {
    /// The absolute instant this job's deadline fires, if it has one. A deadline
    /// beyond the range of `Instant` never fires.
    pub(crate) fn deadline_instant(&self) -> Option<Instant> {
        self.request
            .deadline
            .and_then(|d| self.submitted.checked_add(d))
    }

    /// Answer the job with an error without running it (admission failure, shed).
    pub(crate) fn answer_error(self, error: EngineError, metrics: &EngineMetrics) {
        let deadline_hit = matches!(error, EngineError::DeadlineExpiredInQueue { .. });
        metrics.jobs_completed.inc();
        let _ = self.reply.send(SolveResponse {
            job: self.id,
            result: Err(error),
            cache: CacheReport::default(),
            deadline_hit,
            queue_wait: self.submitted.elapsed(),
            total: self.submitted.elapsed(),
        });
    }
}

/// State shared between the executor handle, every worker and the supervisor.
pub(crate) struct PoolShared {
    /// Currently-alive worker threads (incremented before spawn, decremented by each
    /// worker guard's `Drop`).
    pub(crate) live: AtomicUsize,
    /// Set before closing the queue; stops the supervisor from respawning.
    pub(crate) shutting_down: AtomicBool,
    /// Join handles of every worker ever spawned (initial and respawned).
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl PoolShared {
    fn new() -> Self {
        PoolShared {
            live: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            handles: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn push_handle(&self, handle: JoinHandle<()>) {
        lock_recover(&self.handles).push(handle);
    }

    fn drain_handles(&self) -> Vec<JoinHandle<()>> {
        lock_recover(&self.handles).drain(..).collect()
    }
}

/// A supervised pool of worker threads consuming [`Job`]s from a bounded queue.
pub(crate) struct JobExecutor {
    queue: Arc<JobQueue>,
    shared: Arc<PoolShared>,
    state: Arc<EngineState>,
    events: Sender<WorkerEvent>,
    supervisor: Option<JoinHandle<()>>,
    target_workers: usize,
}

impl JobExecutor {
    pub(crate) fn start(
        num_workers: usize,
        queue_capacity: usize,
        admission: AdmissionPolicy,
        supervisor_config: SupervisorConfig,
        state: Arc<EngineState>,
    ) -> Self {
        let num_workers = num_workers.max(1);
        let queue = Arc::new(JobQueue::new(queue_capacity, admission));
        let shared = Arc::new(PoolShared::new());
        let (events_tx, events_rx) = channel::<WorkerEvent>();
        for index in 0..num_workers {
            shared.live.fetch_add(1, Ordering::SeqCst);
            let handle = spawn_worker(
                index,
                Arc::clone(&queue),
                Arc::clone(&state),
                Arc::clone(&shared),
                events_tx.clone(),
            );
            shared.push_handle(handle);
        }
        let supervisor = {
            let events_tx = events_tx.clone();
            let queue = Arc::clone(&queue);
            let state = Arc::clone(&state);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tagdm-engine-supervisor".to_string())
                .spawn(move || {
                    supervise(
                        events_rx,
                        events_tx,
                        supervisor_config,
                        queue,
                        state,
                        shared,
                    )
                })
                .expect("supervisor thread spawns")
        };
        JobExecutor {
            queue,
            shared,
            state,
            events: events_tx,
            supervisor: Some(supervisor),
            target_workers: num_workers,
        }
    }

    /// Admit a job. On failure the job comes back with the error it must be answered
    /// with.
    pub(crate) fn submit(&self, job: Job) -> Result<(), Box<(Job, EngineError)>> {
        self.queue.push(job, &self.state.metrics)
    }

    /// The configured pool size (the supervisor's invariant).
    pub(crate) fn num_workers(&self) -> usize {
        self.target_workers
    }

    /// Jobs sitting in the admission queue right now.
    pub(crate) fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Worker threads alive right now — dips below [`num_workers`](Self::num_workers)
    /// between a death and its respawn.
    pub(crate) fn live_workers(&self) -> usize {
        self.shared.live.load(Ordering::SeqCst)
    }
}

impl Drop for JobExecutor {
    fn drop(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Closing the queue ends each worker's pop loop; queued jobs are answered
        // first because pop drains the queue before observing the close.
        self.queue.close();
        // Stop the supervisor first: once it is joined, no new workers can appear and
        // the handle list is final.
        let _ = self.events.send(WorkerEvent::Shutdown);
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        for worker in self.shared.drain_handles() {
            let _ = worker.join();
        }
    }
}

/// Spawn one worker thread. `live` must already be incremented by the caller.
pub(crate) fn spawn_worker(
    index: usize,
    queue: Arc<JobQueue>,
    state: Arc<EngineState>,
    shared: Arc<PoolShared>,
    events: Sender<WorkerEvent>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("tagdm-engine-worker-{index}"))
        .spawn(move || {
            let _guard = WorkerGuard {
                index,
                events,
                shared,
            };
            worker_loop(&queue, &state);
        })
        .expect("worker threads spawn")
}

/// Reports the worker's death to the supervisor if its thread unwinds. Lives on the
/// worker's stack so `Drop` runs even (especially) while panicking.
struct WorkerGuard {
    index: usize,
    events: Sender<WorkerEvent>,
    shared: Arc<PoolShared>,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        self.shared.live.fetch_sub(1, Ordering::SeqCst);
        if std::thread::panicking() {
            let _ = self.events.send(WorkerEvent::Died { index: self.index });
        }
    }
}

fn worker_loop(queue: &JobQueue, state: &EngineState) {
    loop {
        // Outside the catch_unwind boundary and *before* dequeuing, so an injected
        // escape-panic kills the worker without losing a job.
        let _ = failpoint::check(failpoint::site::WORKER_LOOP);
        let Some(job) = queue.pop() else {
            return; // queue closed and drained: shutdown
        };
        execute(state, job);
    }
}

/// Run one job inside the panic-isolation boundary, guaranteeing exactly one reply.
fn execute(state: &EngineState, job: Job) {
    let deadline = job.deadline_instant();
    let Job {
        id,
        request,
        submitted,
        reply,
    } = job;
    let queue_wait = submitted.elapsed();
    state.metrics.queue_wait.record(queue_wait);
    let responder = Responder {
        id,
        reply,
        submitted,
        queue_wait,
        sent: AtomicBool::new(false),
    };
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        run_job(state, request, deadline, &responder);
    }));
    if let Err(payload) = unwound {
        state.metrics.jobs_panicked.inc();
        responder.send(
            state,
            Err(EngineError::WorkerPanicked {
                // `as_ref` reaches the payload itself — `&payload` would coerce the
                // `Box<dyn Any>` into the `dyn Any` and every downcast would miss.
                payload: panic_message(payload.as_ref()),
            }),
            CacheReport::default(),
            false,
        );
    }
}

/// A reply channel that sends at most once (the panic path may race a response the
/// job already sent).
struct Responder {
    id: JobId,
    reply: Sender<SolveResponse>,
    submitted: Instant,
    queue_wait: std::time::Duration,
    sent: AtomicBool,
}

impl Responder {
    fn send(
        &self,
        state: &EngineState,
        result: Result<tagdm_core::solvers::SolverOutcome, EngineError>,
        cache: CacheReport,
        deadline_hit: bool,
    ) {
        if self.sent.swap(true, Ordering::SeqCst) {
            return;
        }
        state.metrics.jobs_completed.inc();
        // A dropped ticket just means nobody is waiting for this answer.
        let _ = self.reply.send(SolveResponse {
            job: self.id,
            result,
            cache,
            deadline_hit,
            queue_wait: self.queue_wait,
            total: self.submitted.elapsed(),
        });
    }
}

/// Render a caught panic payload for [`EngineError::WorkerPanicked`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&'static str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn run_job(
    state: &EngineState,
    request: SolveRequest,
    deadline: Option<Instant>,
    reply: &Responder,
) {
    // Inside the boundary: an injected panic here is caught and answered.
    if let Err(error) = failpoint::check(failpoint::site::RUN_JOB) {
        reply.send(state, Err(error), CacheReport::default(), false);
        return;
    }

    // A deadline that fired while the job was queued: don't start the solve at all.
    if deadline.is_some_and(|d| Instant::now() >= d) {
        state.metrics.jobs_expired.inc();
        reply.send(
            state,
            Err(EngineError::DeadlineExpiredInQueue {
                waited: reply.queue_wait,
            }),
            CacheReport::default(),
            true,
        );
        return;
    }

    if let Err(message) = request.problem.validate() {
        reply.send(
            state,
            Err(EngineError::InvalidProblem(message)),
            CacheReport::default(),
            false,
        );
        return;
    }

    // The outcome cache is consulted before the context: a hit needs only the
    // registration's generation, and a miss resolves against the same registration.
    let SolveRequest {
        context: spec,
        problem,
        solver,
        ..
    } = request;
    let (generation, registration) = match state.registration(&spec) {
        Ok(registration) => registration,
        Err(error) => {
            reply.send(state, Err(error), CacheReport::default(), false);
            return;
        }
    };
    let key = OutcomeKey {
        context: ContextId { spec, generation },
        solver,
        problem,
    };
    if let Err(error) = failpoint::check(failpoint::site::OUTCOME_LOOKUP) {
        reply.send(state, Err(error), CacheReport::default(), false);
        return;
    }
    let looking = Instant::now();
    if let Some(outcome) = state.lookup_outcome(&key) {
        state.metrics.record_solve(looking.elapsed(), true);
        reply.send(
            state,
            Ok(outcome),
            CacheReport {
                context_hit: true,
                outcome_hit: true,
            },
            false,
        );
        return;
    }

    let resolving = Instant::now();
    let resolved = state.resolve_context(&key.context, registration);
    state.metrics.context_resolve.record(resolving.elapsed());
    let (context, context_hit) = match resolved {
        Ok(resolved) => resolved,
        Err(error) => {
            reply.send(state, Err(error), CacheReport::default(), false);
            return;
        }
    };
    // The solve clock starts once the context is in hand, so context builds and waits
    // on a deduplicated build land in `context_resolve`, not in `solve_miss`.
    let started = Instant::now();

    let token = match deadline {
        Some(deadline) => CancelToken::with_deadline(deadline),
        None => CancelToken::new(),
    };
    let solver = key.solver.instantiate(&key.problem);
    let outcome = solver.solve_cancellable(&context, &key.problem, &token);
    let deadline_hit = token.is_cancelled();
    state.metrics.record_solve(started.elapsed(), false);
    // A truncated search is not the canonical answer; never cache it.
    if !deadline_hit {
        state.store_outcome(key, outcome.clone());
    }
    reply.send(
        state,
        Ok(outcome),
        CacheReport {
            context_hit,
            outcome_hit: false,
        },
        deadline_hit,
    );
}
