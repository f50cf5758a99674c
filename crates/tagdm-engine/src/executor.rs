//! The supervised worker pool running solve jobs.
//!
//! Jobs flow through a capacity-bounded [`JobQueue`] (see
//! [`admission`](crate::admission)); each worker thread loops on `pop`, runs one job
//! inside a `catch_unwind` boundary and sends the [`SolveResponse`] back on the job's
//! private reply channel. Three fault-tolerance guarantees hold:
//!
//! * **Every admitted job is answered exactly once, by construction.** `run_job`
//!   returns the job's answer instead of sending it; `execute` maps an unwind out of
//!   it to [`EngineError::WorkerPanicked`] and then sends the one response, so no
//!   path can answer twice or drop the channel and hang the caller.
//! * **A panicking solver does not kill its worker.** The unwind is caught at the job
//!   boundary; the worker dequeues the next job.
//! * **A panic that escapes the boundary does not shrink the pool.** Each worker holds
//!   a guard whose `Drop` runs in the dying thread while it unwinds: it claims a
//!   restart from the [`SupervisorConfig`] budget, sleeps the burst's backoff and
//!   spawns the replacement itself. The pool needs no thread of its own: an engine
//!   with N workers runs N threads.
//!
//! Shutdown is queue-driven: closing the queue lets workers drain what is queued and
//! exit. [`JobExecutor::drop`] then marks the pool closed and takes every join handle
//! in one critical section of the pool's one leaf lock, the same lock a respawn holds
//! while it checks "closed", spawns and registers; so no replacement is ever missed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use tagdm_core::solvers::{CancelToken, SolverOutcome};

use crate::admission::{AdmissionPolicy, JobQueue};
use crate::error::EngineError;
use crate::failpoint;
use crate::job::{CacheReport, JobId, SolveRequest, SolveResponse};
use crate::metrics::EngineMetrics;
use crate::retry::Backoff;
use crate::state::{lock_recover, ContextId, EngineState, OutcomeKey};

/// Restart policy for workers killed by panics that escape the job boundary (or by
/// the `worker.loop` failpoint). The dying worker's own unwind guard applies it: it
/// claims one restart, sleeps the backoff and spawns its replacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupervisorConfig {
    /// Total worker restarts over the engine's lifetime. Once exhausted, further
    /// deaths shrink the pool permanently (a crash loop is a bug to fix, not to mask).
    /// A restart is claimed before its backoff, so deaths close together never
    /// overshoot the budget.
    pub max_restarts: u32,
    /// Backoff between a worker death and its replacement. The exponent tracks
    /// *consecutive* deaths: it resets once the pool stays quiet for longer than the
    /// schedule's `max` delay. Deaths close together sleep their backoffs side by
    /// side, each in its own dying thread.
    pub backoff: Backoff,
}

impl SupervisorConfig {
    /// Override the restart budget.
    pub fn with_max_restarts(mut self, max_restarts: u32) -> Self {
        self.max_restarts = max_restarts;
        self
    }

    /// Override the respawn backoff.
    pub fn with_backoff(mut self, backoff: Backoff) -> Self {
        self.backoff = backoff;
        self
    }
}

impl Default for SupervisorConfig {
    /// 32 restarts, respawn backoff 1ms doubling to 250ms.
    fn default() -> Self {
        SupervisorConfig {
            max_restarts: 32,
            backoff: Backoff::new(Duration::from_millis(1), Duration::from_millis(250)),
        }
    }
}

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
        metrics.jobs_completed.inc();
        let waited = self.submitted.elapsed();
        let _ = self
            .reply
            .send(SolveResponse::failed(self.id, error, waited, waited));
    }
}

/// State shared between the executor handle and every worker.
struct PoolShared {
    queue: JobQueue,
    state: Arc<EngineState>,
    supervisor: SupervisorConfig,
    /// Currently-alive worker threads (incremented before spawn, decremented by each
    /// worker guard's `Drop`).
    live: AtomicUsize,
    /// The pool's one leaf lock: shutdown, join handles and the restart budget.
    roster: Mutex<Roster>,
}

struct Roster {
    /// Set by [`JobExecutor::drop`]; no worker is spawned afterwards.
    closed: bool,
    /// Join handles of every worker spawned (initial and respawned) and not yet joined.
    handles: Vec<JoinHandle<()>>,
    /// Restarts claimed so far, at most `max_restarts`.
    restarts: u32,
    /// Restarts claimed in the current burst: the backoff exponent.
    consecutive: u32,
    /// When the last restart was claimed; a longer quiet spell than `backoff.max`
    /// ends the burst.
    last_death: Option<Instant>,
}

impl PoolShared {
    /// Spawn the worker at `index` and register its join handle in `roster`, the
    /// caller's guard of [`roster`](Self::roster). Spawning and registering under the
    /// lock that [`JobExecutor::drop`] takes to close the pool means it never misses
    /// a handle.
    fn spawn_worker(self: &Arc<Self>, roster: &mut Roster, index: usize) -> std::io::Result<()> {
        self.live.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name(format!("tagdm-engine-worker-{index}"))
            .spawn(move || {
                let guard = WorkerGuard { index, shared };
                worker_loop(&guard.shared.queue, &guard.shared.state);
            });
        match spawned {
            Ok(handle) => {
                roster.handles.push(handle);
                Ok(())
            }
            Err(error) => {
                self.live.fetch_sub(1, Ordering::SeqCst);
                Err(error)
            }
        }
    }

    /// Claim one restart from the budget and return its backoff, or `None` when the
    /// pool is closed or the budget is spent.
    fn claim_restart(&self) -> Option<Duration> {
        let mut roster = lock_recover(&self.roster);
        if roster.closed || roster.restarts >= self.supervisor.max_restarts {
            return None; // shutting down, or the budget is exhausted: the pool shrinks
        }
        roster.restarts += 1;
        let backoff = self.supervisor.backoff;
        // After a quiet spell the pool had recovered: this death starts a new burst.
        if roster
            .last_death
            .is_some_and(|at| at.elapsed() > backoff.max)
        {
            roster.consecutive = 0;
        }
        roster.last_death = Some(Instant::now());
        let delay = backoff.delay(roster.consecutive);
        roster.consecutive = roster.consecutive.saturating_add(1);
        Some(delay)
    }
}

/// A pool of worker threads consuming [`Job`]s from a bounded queue, respawning
/// workers that die within the restart budget.
pub(crate) struct JobExecutor {
    shared: Arc<PoolShared>,
    target_workers: usize,
}

impl JobExecutor {
    pub(crate) fn start(
        num_workers: usize,
        queue_capacity: usize,
        admission: AdmissionPolicy,
        supervisor: SupervisorConfig,
        state: Arc<EngineState>,
    ) -> Self {
        let num_workers = num_workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: JobQueue::new(queue_capacity, admission),
            state,
            supervisor,
            live: AtomicUsize::new(0),
            roster: Mutex::new(Roster {
                closed: false,
                handles: Vec::with_capacity(num_workers),
                restarts: 0,
                consecutive: 0,
                last_death: None,
            }),
        });
        {
            let mut roster = lock_recover(&shared.roster);
            for index in 0..num_workers {
                shared
                    .spawn_worker(&mut roster, index)
                    .expect("worker threads spawn");
            }
        }
        JobExecutor {
            shared,
            target_workers: num_workers,
        }
    }

    /// Admit a job. On failure the job comes back with the error it must be answered
    /// with.
    pub(crate) fn submit(&self, job: Job) -> Result<(), Box<(Job, EngineError)>> {
        self.shared.queue.push(job, &self.shared.state.metrics)
    }

    /// The configured pool size (what respawns restore).
    pub(crate) fn num_workers(&self) -> usize {
        self.target_workers
    }

    /// Jobs sitting in the admission queue right now.
    pub(crate) fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// Worker threads alive right now — dips below [`num_workers`](Self::num_workers)
    /// between a death and its respawn.
    pub(crate) fn live_workers(&self) -> usize {
        self.shared.live.load(Ordering::SeqCst)
    }
}

impl Drop for JobExecutor {
    fn drop(&mut self) {
        // Closing the queue ends each worker's pop loop; queued jobs are answered
        // first because pop drains the queue before observing the close.
        self.shared.queue.close();
        // Once closed is set no worker is spawned, so the handles taken in the same
        // critical section are final.
        let handles = {
            let mut roster = lock_recover(&self.shared.roster);
            roster.closed = true;
            std::mem::take(&mut roster.handles)
        };
        for worker in handles {
            let _ = worker.join();
        }
    }
}

/// Lives on the worker's stack so `Drop` runs even (especially) while its thread
/// unwinds. A dying worker respawns itself: it claims a restart, sleeps the backoff
/// and spawns its replacement. Nothing here may panic, since a panic during unwinding
/// aborts the process; a failed spawn leaves the pool smaller.
struct WorkerGuard {
    index: usize,
    shared: Arc<PoolShared>,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        self.shared.live.fetch_sub(1, Ordering::SeqCst);
        if !std::thread::panicking() {
            return;
        }
        let Some(delay) = self.shared.claim_restart() else {
            return;
        };
        std::thread::sleep(delay);
        let mut roster = lock_recover(&self.shared.roster);
        if roster.closed {
            return;
        }
        // Counted before the replacement shows in `live`, so a caller that waits for
        // the pool to refill then reads the metric sees the restart.
        self.shared.state.metrics.worker_restarts.inc();
        let _ = self.shared.spawn_worker(&mut roster, self.index);
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

/// Run one job inside the panic-isolation boundary and send its one reply.
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
    let answer = catch_unwind(AssertUnwindSafe(|| {
        run_job(state, request, deadline, queue_wait)
    }))
    .unwrap_or_else(|payload| {
        state.metrics.jobs_panicked.inc();
        Err(EngineError::WorkerPanicked {
            // `as_ref` reaches the payload itself — `&payload` would coerce the
            // `Box<dyn Any>` into the `dyn Any` and every downcast would miss.
            payload: panic_message(payload.as_ref()),
        })
    });
    state.metrics.jobs_completed.inc();
    let total = submitted.elapsed();
    let response = match answer {
        Ok((outcome, cache, deadline_hit)) => SolveResponse {
            job: id,
            result: Ok(outcome),
            cache,
            deadline_hit,
            queue_wait,
            total,
        },
        Err(error) => SolveResponse::failed(id, error, queue_wait, total),
    };
    // A dropped ticket just means nobody is waiting for this answer.
    let _ = reply.send(response);
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

/// Solve one dequeued job: its outcome, which cache layers served it and whether its
/// deadline truncated the search, or the error that answers it instead.
fn run_job(
    state: &EngineState,
    request: SolveRequest,
    deadline: Option<Instant>,
    queue_wait: Duration,
) -> Result<(SolverOutcome, CacheReport, bool), EngineError> {
    // Inside the boundary: an injected panic here is caught and answered.
    failpoint::check(failpoint::site::RUN_JOB)?;

    // A deadline that fired while the job was queued: don't start the solve at all.
    if deadline.is_some_and(|d| Instant::now() >= d) {
        state.metrics.jobs_expired.inc();
        return Err(EngineError::DeadlineExpiredInQueue { waited: queue_wait });
    }

    request
        .problem
        .validate()
        .map_err(EngineError::InvalidProblem)?;

    // The outcome cache is consulted before the context: a hit needs only the
    // registration's generation, and a miss resolves against the same registration.
    let SolveRequest {
        context: spec,
        problem,
        solver,
        ..
    } = request;
    let (generation, registration) = state.registration(&spec)?;
    let key = OutcomeKey {
        context: ContextId { spec, generation },
        solver,
        problem,
    };
    failpoint::check(failpoint::site::OUTCOME_LOOKUP)?;
    let looking = Instant::now();
    if let Some(outcome) = state.lookup_outcome(&key) {
        state.metrics.record_solve(looking.elapsed(), true);
        let cache = CacheReport {
            context_hit: true,
            outcome_hit: true,
        };
        return Ok((outcome, cache, false));
    }

    let resolving = Instant::now();
    let resolved = state.resolve_context(&key.context, registration);
    state.metrics.context_resolve.record(resolving.elapsed());
    let (context, context_hit) = resolved?;
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
    let cache = CacheReport {
        context_hit,
        outcome_hit: false,
    };
    Ok((outcome, cache, deadline_hit))
}
