//! Fault-injection tests of the engine's robustness layer: panic isolation, worker
//! supervision, bounded admission with load shedding, retry, and context-build
//! deduplication. Run with `cargo test -p tagdm-engine --features failpoints`.
//!
//! The failpoint registry is process-global, so every test here serializes itself
//! through [`serial`] and disarms all sites on entry and exit.

#![cfg(feature = "failpoints")]

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use tagdm_core::catalog::{problem_1, ProblemParams};
use tagdm_core::context::SummarizerChoice;
use tagdm_data::generator::{GeneratorConfig, MovieLensStyleGenerator};
use tagdm_engine::failpoint::{self, site, FailAction};
use tagdm_engine::{
    AdmissionPolicy, Backoff, CacheReport, ContextSpec, Engine, EngineConfig, EngineError,
    RetryPolicy, SolveRequest, SolverChoice, SupervisorConfig,
};

static FAILPOINT_TESTS: Mutex<()> = Mutex::new(());

/// Serialize failpoint tests and guarantee a clean registry on entry and exit (even
/// when an assertion panics while sites are armed).
struct Serial(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for Serial {
    fn drop(&mut self) {
        failpoint::disarm_all();
    }
}

fn serial() -> Serial {
    let guard = FAILPOINT_TESTS
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    failpoint::disarm_all();
    Serial(guard)
}

const GROUPING: [(&str, &str); 2] = [("user", "gender"), ("item", "genre")];

fn params() -> ProblemParams {
    ProblemParams {
        k: 3,
        min_support: 5,
        user_threshold: 0.2,
        item_threshold: 0.2,
    }
}

fn engine_with_corpus(config: EngineConfig) -> (Engine, ContextSpec) {
    let engine = Engine::new(config);
    let dataset = MovieLensStyleGenerator::new(GeneratorConfig::small()).generate();
    engine.register_dataset("ml-small", dataset);
    let spec = ContextSpec::grouped(
        "ml-small",
        &GROUPING,
        5,
        SummarizerChoice::FrequencyNormalized,
    );
    (engine, spec)
}

fn request(spec: &ContextSpec) -> SolveRequest {
    SolveRequest::new(spec.clone(), problem_1(params()), SolverChoice::Recommended)
}

/// A fast supervisor for tests: near-immediate respawns.
fn fast_supervisor() -> SupervisorConfig {
    SupervisorConfig::default().with_backoff(Backoff::new(
        Duration::from_millis(1),
        Duration::from_millis(10),
    ))
}

/// Poll until the live worker count reaches `target` (respawns are asynchronous).
fn wait_for_pool(engine: &Engine, target: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while engine.live_workers() != target {
        assert!(
            Instant::now() < deadline,
            "pool did not return to {target} workers (live: {})",
            engine.live_workers()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

// --- Satellite regression: panic isolation -----------------------------------------

#[test]
fn panicking_solver_answers_the_ticket_instead_of_hanging() {
    let _serial = serial();
    let (engine, spec) = engine_with_corpus(EngineConfig::default().with_workers(2));
    failpoint::arm(
        site::RUN_JOB,
        FailAction::Panic("injected solver bug".into()),
    );

    let ticket = engine.submit(request(&spec));
    // The regression this guards: a panicking worker used to drop the reply channel,
    // leaving the caller blocked forever. Bound the wait so the test fails instead.
    let response = ticket
        .wait_timeout(Duration::from_secs(10))
        .expect("a panicking solver must still answer its ticket");
    match response.result {
        Err(EngineError::WorkerPanicked { payload }) => {
            assert!(
                payload.contains("injected solver bug"),
                "payload: {payload}"
            )
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }

    // The panic was caught at the job boundary: both workers are still alive and the
    // engine keeps serving.
    failpoint::disarm_all();
    assert_eq!(engine.live_workers(), 2);
    let healthy = engine.solve(request(&spec));
    assert!(healthy.result.is_ok());

    let metrics = engine.metrics();
    assert_eq!(metrics.jobs_panicked, 1);
    assert_eq!(metrics.worker_restarts, 0, "caught panics need no respawn");
    assert_eq!(metrics.jobs_submitted, metrics.jobs_completed);
}

// --- Worker supervision --------------------------------------------------------------

#[test]
fn escaped_panic_kills_the_worker_and_the_supervisor_respawns_it() {
    let _serial = serial();
    let (engine, spec) = engine_with_corpus(
        EngineConfig::default()
            .with_workers(1)
            .with_supervisor(fast_supervisor()),
    );
    assert_eq!(engine.live_workers(), 1);

    // The worker is parked in its dequeue wait, past this iteration's loop-top check.
    // Arm a single escape-panic: the next loop iteration — right after it answers the
    // job below — kills the thread outside the catch_unwind boundary.
    failpoint::arm_times(
        site::WORKER_LOOP,
        1,
        FailAction::Panic("worker killed".into()),
    );
    let response = engine.solve(request(&spec));
    assert!(response.result.is_ok(), "the job itself is unaffected");

    // The kill fires on the worker's *next* loop iteration, so wait for the respawn
    // to be recorded (polling live workers alone would race the death itself).
    let deadline = Instant::now() + Duration::from_secs(5);
    while engine.metrics().worker_restarts < 1 {
        assert!(
            Instant::now() < deadline,
            "supervisor never respawned the worker"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    wait_for_pool(&engine, 1);
    assert_eq!(engine.metrics().worker_restarts, 1);

    // The respawned worker serves requests.
    let after = engine.solve(request(&spec));
    assert!(after.result.is_ok());
}

#[test]
fn restart_budget_caps_respawns() {
    let _serial = serial();
    let (engine, spec) = engine_with_corpus(
        EngineConfig::default()
            .with_workers(2)
            .with_supervisor(fast_supervisor().with_max_restarts(1)),
    );
    // Two escape-panics but a budget of one: the pool settles at one worker.
    failpoint::arm_times(site::WORKER_LOOP, 2, FailAction::Panic("crash loop".into()));
    let first = engine.solve(request(&spec));
    assert!(first.result.is_ok());
    // Drive the second death (and give the survivor work to trip its loop-top check).
    let second = engine.solve(request(&spec));
    assert!(second.result.is_ok());

    let deadline = Instant::now() + Duration::from_secs(5);
    while engine.metrics().worker_restarts < 1 || engine.live_workers() != 1 {
        assert!(
            Instant::now() < deadline,
            "expected the budgeted pool to settle at 1 live worker (live: {}, restarts: {})",
            engine.live_workers(),
            engine.metrics().worker_restarts
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(engine.metrics().worker_restarts, 1);

    // The shrunken pool still answers.
    failpoint::disarm_all();
    assert!(engine.solve(request(&spec)).result.is_ok());
}

#[test]
fn deaths_close_together_respawn_exactly_the_budget() {
    let _serial = serial();
    const WORKERS: usize = 4;
    const DEATHS: usize = 3;
    const BUDGET: u32 = 2;
    let (engine, spec) = engine_with_corpus(
        EngineConfig::default()
            .with_workers(WORKERS)
            .with_supervisor(
                SupervisorConfig::default()
                    .with_max_restarts(BUDGET)
                    .with_backoff(Backoff::new(
                        Duration::from_millis(20),
                        Duration::from_millis(80),
                    )),
            ),
    );
    // Warm the caches so each job below is an outcome hit, and let the warm-up's
    // worker park again.
    assert!(engine.solve(request(&spec)).result.is_ok());
    std::thread::sleep(Duration::from_millis(20));

    // Hold every worker in one job so all of them return to the loop top together,
    // where the first DEATHS of them die within moments of each other. Their
    // backoffs overlap, so each death claims from the budget while others sleep.
    failpoint::arm_times(
        site::RUN_JOB,
        WORKERS as u64,
        FailAction::Delay(Duration::from_millis(100)),
    );
    failpoint::arm_times(
        site::WORKER_LOOP,
        DEATHS as u64,
        FailAction::Panic("burst".into()),
    );
    let tickets: Vec<_> = (0..WORKERS)
        .map(|_| engine.submit(request(&spec)))
        .collect();
    for ticket in tickets {
        let response = ticket
            .wait_timeout(Duration::from_secs(10))
            .expect("every job of the burst is answered");
        assert!(response.result.is_ok(), "{:?}", response.result);
    }

    let settled = WORKERS - DEATHS + BUDGET as usize;
    let deadline = Instant::now() + Duration::from_secs(5);
    while engine.metrics().worker_restarts < u64::from(BUDGET) || engine.live_workers() != settled {
        assert!(
            Instant::now() < deadline,
            "expected {settled} live workers after {BUDGET} restarts (live: {}, restarts: {})",
            engine.live_workers(),
            engine.metrics().worker_restarts
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Outlast every backoff: a late respawn would overshoot the budget here.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(engine.metrics().worker_restarts, u64::from(BUDGET));
    assert_eq!(engine.live_workers(), settled);

    failpoint::disarm_all();
    assert!(engine.solve(request(&spec)).result.is_ok());
}

// --- Bounded admission and load shedding --------------------------------------------

/// Occupy every worker with `Delay`ed jobs and fill the queue, so follow-up
/// submissions exercise the full-queue policy deterministically.
fn saturate(
    engine: &Engine,
    spec: &ContextSpec,
    workers: usize,
    queue: usize,
) -> Vec<tagdm_engine::JobTicket> {
    let mut tickets = Vec::new();
    for _ in 0..workers {
        tickets.push(engine.submit(request(spec)));
    }
    // Let the workers dequeue and park in their injected delays.
    std::thread::sleep(Duration::from_millis(50));
    for _ in 0..queue {
        tickets.push(engine.submit(request(spec)));
    }
    tickets
}

#[test]
fn reject_policy_fails_fast_when_the_queue_is_full() {
    let _serial = serial();
    let (engine, spec) = engine_with_corpus(
        EngineConfig::default()
            .with_workers(1)
            .with_queue_capacity(2)
            .with_admission(AdmissionPolicy::Reject),
    );
    // Warm the context cache so delayed jobs spend their time in the delay, not a build.
    assert!(engine.solve(request(&spec)).result.is_ok());

    failpoint::arm(site::RUN_JOB, FailAction::Delay(Duration::from_millis(150)));
    let admitted = saturate(&engine, &spec, 1, 2);
    let rejected = engine.submit(request(&spec));
    let response = rejected
        .wait_timeout(Duration::from_secs(1))
        .expect("rejection must resolve the ticket immediately");
    assert_eq!(
        response.result,
        Err(EngineError::Overloaded { capacity: 2 })
    );

    for ticket in admitted {
        let response = ticket
            .wait_timeout(Duration::from_secs(10))
            .expect("admitted jobs complete");
        assert!(response.result.is_ok());
    }
    let metrics = engine.metrics();
    assert_eq!(metrics.jobs_rejected, 1);
    assert_eq!(metrics.jobs_submitted, metrics.jobs_completed);
}

#[test]
fn block_policy_waits_then_gives_up() {
    let _serial = serial();
    let (engine, spec) = engine_with_corpus(
        EngineConfig::default()
            .with_workers(1)
            .with_queue_capacity(1)
            .with_admission(AdmissionPolicy::Block {
                timeout: Duration::from_millis(60),
            }),
    );
    assert!(engine.solve(request(&spec)).result.is_ok());

    failpoint::arm(site::RUN_JOB, FailAction::Delay(Duration::from_millis(400)));
    let admitted = saturate(&engine, &spec, 1, 1);

    // Worker busy for ~400ms, queue full: this submit blocks its full 60ms timeout.
    let blocked_at = Instant::now();
    let overflow = engine.submit(request(&spec));
    let blocked_for = blocked_at.elapsed();
    assert!(
        blocked_for >= Duration::from_millis(50),
        "submit should have blocked near the timeout, blocked {blocked_for:?}"
    );
    let response = overflow
        .wait_timeout(Duration::from_secs(1))
        .expect("timed-out admission resolves the ticket");
    assert_eq!(
        response.result,
        Err(EngineError::Overloaded { capacity: 1 })
    );

    for ticket in admitted {
        assert!(ticket.wait_timeout(Duration::from_secs(10)).is_some());
    }
}

#[test]
fn shed_oldest_policy_sweeps_expired_jobs_first_then_evicts_the_oldest() {
    let _serial = serial();
    let (engine, spec) = engine_with_corpus(
        EngineConfig::default()
            .with_workers(1)
            .with_queue_capacity(2)
            .with_admission(AdmissionPolicy::ShedOldest),
    );
    assert!(engine.solve(request(&spec)).result.is_ok());

    failpoint::arm(site::RUN_JOB, FailAction::Delay(Duration::from_millis(300)));
    // Occupy the worker.
    let running = engine.submit(request(&spec));
    std::thread::sleep(Duration::from_millis(50));

    // Queue slot 1: a job whose deadline is already expired when the next submit
    // arrives. Queue slot 2: a healthy job.
    let expired = engine.submit(request(&spec).with_deadline(Duration::from_millis(1)));
    std::thread::sleep(Duration::from_millis(10));
    let healthy = engine.submit(request(&spec));

    // Full queue + one expired entry: the sweep sheds `expired`, admits this one.
    let admitted_by_sweep = engine.submit(request(&spec));
    let expired_response = expired
        .wait_timeout(Duration::from_secs(1))
        .expect("swept jobs resolve immediately");
    assert!(
        matches!(
            expired_response.result,
            Err(EngineError::DeadlineExpiredInQueue { .. })
        ),
        "expired queue entries are swept with a deadline error, got {:?}",
        expired_response.result
    );

    // Full queue, nothing expired: the oldest queued job (`healthy`) is evicted.
    let admitted_by_eviction = engine.submit(request(&spec));
    let evicted_response = healthy
        .wait_timeout(Duration::from_secs(1))
        .expect("evicted jobs resolve immediately");
    assert_eq!(
        evicted_response.result,
        Err(EngineError::Overloaded { capacity: 2 })
    );

    for ticket in [running, admitted_by_sweep, admitted_by_eviction] {
        let response = ticket
            .wait_timeout(Duration::from_secs(10))
            .expect("admitted jobs complete");
        assert!(response.result.is_ok());
    }
    let metrics = engine.metrics();
    assert_eq!(metrics.jobs_shed, 2);
    assert_eq!(metrics.jobs_submitted, metrics.jobs_completed);
}

// --- Retry with backoff --------------------------------------------------------------

#[test]
fn retry_recovers_from_transient_panics() {
    let _serial = serial();
    let (engine, spec) = engine_with_corpus(EngineConfig::default().with_workers(2));
    // The first two attempts panic; the third runs clean.
    failpoint::arm_times(site::RUN_JOB, 2, FailAction::Panic("flaky".into()));

    let policy = RetryPolicy::attempts(3).with_backoff(Backoff::new(
        Duration::from_millis(1),
        Duration::from_millis(5),
    ));
    let response = engine.solve_with(request(&spec), policy);
    assert!(response.result.is_ok(), "third attempt must succeed");

    let metrics = engine.metrics();
    assert_eq!(metrics.jobs_panicked, 2);
    assert_eq!(metrics.jobs_retried, 2);
    assert_eq!(metrics.jobs_submitted, 3);
}

#[test]
fn retry_surfaces_the_error_once_attempts_are_exhausted() {
    let _serial = serial();
    let (engine, spec) = engine_with_corpus(EngineConfig::default().with_workers(2));
    failpoint::arm(site::RUN_JOB, FailAction::Panic("always broken".into()));

    let policy = RetryPolicy::attempts(2).with_backoff(Backoff::new(
        Duration::from_millis(1),
        Duration::from_millis(5),
    ));
    let response = engine.solve_with(request(&spec), policy);
    assert!(
        matches!(response.result, Err(EngineError::WorkerPanicked { .. })),
        "exhausted retries surface the last transient error, got {:?}",
        response.result
    );
    assert_eq!(engine.metrics().jobs_retried, 1);
    assert_eq!(engine.metrics().jobs_submitted, 2);
}

#[test]
fn deterministic_errors_are_never_retried() {
    let _serial = serial();
    let (engine, _) = engine_with_corpus(EngineConfig::default().with_workers(2));
    let missing = SolveRequest::new(
        ContextSpec::grouped("no-such-dataset", &GROUPING, 5, SummarizerChoice::Frequency),
        problem_1(params()),
        SolverChoice::Recommended,
    );
    let response = engine.solve_with(missing, RetryPolicy::attempts(5));
    assert_eq!(
        response.result,
        Err(EngineError::UnknownDataset("no-such-dataset".into()))
    );
    assert_eq!(engine.metrics().jobs_submitted, 1, "no retry was attempted");
    assert_eq!(engine.metrics().jobs_retried, 0);
}

// --- Context-build deduplication ------------------------------------------------------

#[test]
fn racing_context_misses_join_one_build() {
    let _serial = serial();
    let (engine, spec) = engine_with_corpus(EngineConfig::default().with_workers(4));
    // Stretch the build so all four workers race into the miss path together.
    failpoint::arm(
        site::CONTEXT_BUILD,
        FailAction::Delay(Duration::from_millis(100)),
    );

    let responses = engine.solve_batch(vec![
        request(&spec),
        request(&spec),
        request(&spec),
        request(&spec),
    ]);
    for response in responses {
        assert!(response.result.is_ok());
    }

    let metrics = engine.metrics();
    assert_eq!(
        metrics.context_build.count, 1,
        "exactly one build ran for four racing misses"
    );
    assert_eq!(metrics.context_builds_deduped, 3);
    assert_eq!(metrics.context_hits + metrics.context_misses, 4);
}

#[test]
fn failed_build_wakes_every_deduplicated_waiter_with_the_error() {
    let _serial = serial();
    let (engine, spec) = engine_with_corpus(EngineConfig::default().with_workers(3));
    let injected = EngineError::InvalidGrouping("injected build failure".into());
    failpoint::arm(
        site::CONTEXT_BUILD,
        FailAction::DelayedError(Duration::from_millis(100), injected.clone()),
    );

    let responses = engine.solve_batch(vec![request(&spec), request(&spec), request(&spec)]);
    for response in responses {
        assert_eq!(response.result, Err(injected.clone()));
    }
    assert_eq!(engine.metrics().context_builds_deduped, 2);

    // The failed build deregistered itself: a later attempt builds cleanly.
    failpoint::disarm_all();
    assert!(engine.solve(request(&spec)).result.is_ok());
}

#[test]
fn panicking_build_wakes_waiters_instead_of_stranding_them() {
    let _serial = serial();
    let (engine, spec) = engine_with_corpus(EngineConfig::default().with_workers(3));
    failpoint::arm_times(
        site::CONTEXT_BUILD,
        1,
        FailAction::Panic("summarizer bug".into()),
    );
    // All three race the miss; the builder panics. Whoever joined its in-flight build
    // must wake with an error, not block forever — bound every wait.
    let tickets = vec![
        engine.submit(request(&spec)),
        engine.submit(request(&spec)),
        engine.submit(request(&spec)),
    ];
    for ticket in tickets {
        let response = ticket
            .wait_timeout(Duration::from_secs(10))
            .expect("no caller may hang on a panicked build");
        if let Err(error) = response.result {
            assert!(
                matches!(error, EngineError::WorkerPanicked { .. }),
                "got {error:?}"
            );
        }
    }
    // The registry entry is gone; the engine recovers.
    assert!(engine.solve(request(&spec)).result.is_ok());
}

#[test]
fn slow_context_build_is_timed_as_resolve_not_as_solve() {
    let _serial = serial();
    let config = EngineConfig {
        context_cache: 1,
        ..EngineConfig::default().with_workers(1)
    };
    let (engine, spec) = engine_with_corpus(config);
    let other = ContextSpec::grouped(
        "ml-small",
        &[("user", "occupation")],
        5,
        SummarizerChoice::FrequencyNormalized,
    );
    // Cache the outcome, then evict its context.
    assert!(engine.solve(request(&spec)).result.is_ok());
    assert!(engine.solve(request(&other)).result.is_ok());
    let build = Duration::from_millis(200);
    failpoint::arm(site::CONTEXT_BUILD, FailAction::Delay(build));

    // The outcome is looked up before the context: the hit rebuilds nothing.
    let response = engine.solve(request(&spec));
    assert!(response.result.is_ok());
    assert!(response.cache.outcome_hit);
    let metrics = engine.metrics();
    assert_eq!(metrics.context_build.count, 2);
    assert_eq!(metrics.context_resolve.count, 2);

    // Another problem over the evicted context misses and rebuilds it.
    let mut miss = request(&spec);
    miss.problem = problem_1(ProblemParams { k: 2, ..params() });
    let response = engine.solve(miss);
    assert!(response.result.is_ok());
    assert!(!response.cache.context_hit && !response.cache.outcome_hit);

    let metrics = engine.metrics();
    let build_us = build.as_micros() as u64;
    assert_eq!(metrics.solve_hit.count, 1);
    assert_eq!(metrics.solve_miss.count, 3);
    assert!(
        metrics.solve_miss.max_us < build_us,
        "the rebuild leaked into solve_miss: {}",
        metrics.solve_miss.render()
    );
    assert_eq!(metrics.context_resolve.count, 3);
    assert!(metrics.context_resolve.max_us >= build_us);
}

// --- Outcome-lookup fault injection ---------------------------------------------------

#[test]
fn outcome_lookup_fault_answers_the_ticket_and_clears() {
    let _serial = serial();
    let (engine, spec) = engine_with_corpus(EngineConfig::default().with_workers(1));
    failpoint::arm_times(
        site::OUTCOME_LOOKUP,
        1,
        FailAction::Error(EngineError::Shutdown),
    );

    // The injected error surfaces on the ticket instead of reaching the solver.
    let response = engine
        .submit(request(&spec))
        .wait_timeout(Duration::from_secs(10))
        .expect("a faulted outcome lookup must still answer its ticket");
    assert_eq!(response.result, Err(EngineError::Shutdown));

    // The site fired its budget: the same request now solves normally.
    let response = engine
        .submit(request(&spec))
        .wait_timeout(Duration::from_secs(10))
        .expect("the second attempt answers");
    assert!(response.result.is_ok());
}

/// The failpoint rows of `engine_service.rs`'s early-exit table: an injected error at
/// job start, a caught panic there and an injected error at the outcome lookup are
/// each answered once, with their typed error, no cache layer, no `deadline_hit` and
/// exactly one more completed job.
#[test]
fn injected_early_exits_answer_once_with_a_bare_error() {
    let _serial = serial();
    let (engine, spec) = engine_with_corpus(EngineConfig::default().with_workers(1));
    type Row = (&'static str, FailAction, fn(&EngineError) -> bool);
    let rows: [Row; 3] = [
        (
            site::RUN_JOB,
            FailAction::Error(EngineError::Overloaded { capacity: 7 }),
            |error| *error == EngineError::Overloaded { capacity: 7 },
        ),
        (
            site::RUN_JOB,
            FailAction::Panic("injected early-exit panic".into()),
            |error| {
                matches!(error, EngineError::WorkerPanicked { payload }
                    if payload.contains("injected early-exit panic"))
            },
        ),
        (
            site::OUTCOME_LOOKUP,
            FailAction::Error(EngineError::Shutdown),
            |error| *error == EngineError::Shutdown,
        ),
    ];
    for (site, action, expected) in rows {
        failpoint::arm_times(site, 1, action);
        let completed = engine.metrics().jobs_completed;
        let response = engine
            .submit(request(&spec))
            .wait_timeout(Duration::from_secs(10))
            .expect("an early exit answers its ticket");
        let error = response.result.expect_err(site);
        assert!(expected(&error), "{site}: got {error:?}");
        assert_eq!(response.cache, CacheReport::default(), "{site}");
        assert!(!response.deadline_hit, "{site}");
        assert_eq!(engine.metrics().jobs_completed, completed + 1, "{site}");
    }
    let metrics = engine.metrics();
    assert_eq!(metrics.jobs_panicked, 1);
    assert_eq!(metrics.jobs_submitted, metrics.jobs_completed);
    // Every site spent its budget: the same request now solves.
    assert!(engine.solve(request(&spec)).result.is_ok());
}

#[test]
fn deadline_truncated_answer_is_not_a_transient_fault() {
    let _serial = serial();
    let (engine, spec) = engine_with_corpus(EngineConfig::default().with_workers(1));
    engine.context(&spec).expect("the context builds");
    // The job starts well inside its deadline, then stalls past it at the outcome
    // lookup, so the solver runs with a token that has already fired.
    failpoint::arm_times(
        site::OUTCOME_LOOKUP,
        1,
        FailAction::Delay(Duration::from_millis(600)),
    );

    let response = engine
        .submit(request(&spec).with_deadline(Duration::from_millis(300)))
        .wait_timeout(Duration::from_secs(10))
        .expect("a truncated solve answers its ticket");
    assert!(response.deadline_hit);
    assert!(response.result.is_ok(), "{:?}", response.result);

    // The caller learns about the truncation from `deadline_hit`; the fault counters
    // that circuit breakers watch stay clean.
    let metrics = engine.metrics();
    assert_eq!(metrics.jobs_expired, 0);
    assert_eq!(metrics.transient_faults(), 0);
}

// --- The chaos storm (acceptance criterion) ------------------------------------------

#[test]
fn chaos_storm_answers_every_caller_and_restores_the_pool() {
    let _serial = serial();
    let (engine, spec) = engine_with_corpus(
        EngineConfig::default()
            .with_workers(4)
            .with_queue_capacity(4)
            .with_admission(AdmissionPolicy::ShedOldest)
            .with_supervisor(fast_supervisor().with_max_restarts(64)),
    );
    // ≥10% of jobs panic inside the boundary; every ~25th loop iteration an escape
    // panic kills a worker outright, so supervision runs during the storm too.
    failpoint::arm_one_in(site::RUN_JOB, 10, FailAction::Panic("chaos".into()));
    failpoint::arm_one_in(
        site::WORKER_LOOP,
        25,
        FailAction::Panic("chaos kill".into()),
    );
    // Hold the first context build long enough for the cold-start stampede to find
    // it in flight.
    failpoint::arm_times(
        site::CONTEXT_BUILD,
        1,
        FailAction::Delay(Duration::from_millis(100)),
    );

    const THREADS: usize = 16;
    const JOBS_PER_THREAD: usize = 8;
    let policy = RetryPolicy::attempts(2).with_backoff(Backoff::new(
        Duration::from_millis(1),
        Duration::from_millis(5),
    ));

    let started = Instant::now();
    let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let engine = &engine;
                let spec = &spec;
                scope.spawn(move || {
                    for _ in 0..JOBS_PER_THREAD {
                        let response = engine.solve_with(request(spec), policy);
                        match response.result {
                            Ok(_)
                            | Err(EngineError::WorkerPanicked { .. })
                            | Err(EngineError::Overloaded { .. })
                            | Err(EngineError::DeadlineExpiredInQueue { .. }) => {}
                            Err(other) => return Err(format!("unexpected error: {other}")),
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no submitter thread panics"))
            .collect()
    });
    for outcome in results {
        outcome.expect("every caller returns an allowed outcome");
    }
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "the storm must finish promptly — no hung callers"
    );

    failpoint::disarm_all();
    // A worker killed by one of the storm's last escape panics still counts as live
    // until its unwind guard runs, so wait (bounded) for a restart to be recorded
    // before polling the pool, which alone would race the death itself.
    let deadline = Instant::now() + Duration::from_secs(5);
    while engine.metrics().worker_restarts == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    // Supervision restores the pool: no leaked (dead) workers.
    wait_for_pool(&engine, 4);

    let metrics = engine.metrics();
    assert_eq!(
        metrics.jobs_submitted, metrics.jobs_completed,
        "every submitted job was answered exactly once"
    );
    assert!(metrics.jobs_panicked > 0, "panic injection must have fired");
    assert!(
        metrics.worker_restarts > 0,
        "escape panics must have exercised the supervisor"
    );
    assert!(metrics.jobs_retried > 0, "transient failures were retried");
    assert!(
        metrics.context_builds_deduped > 0,
        "the cold-start stampede must dedupe on the in-flight build"
    );
    // The engine is healthy after the storm.
    assert!(engine.solve(request(&spec)).result.is_ok());
}
