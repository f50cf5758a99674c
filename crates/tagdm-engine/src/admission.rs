//! Bounded job admission with load shedding.
//!
//! The engine's submit path used to feed an *unbounded* channel, so overload turned
//! into unbounded queue growth and latency collapse. The (crate-private) `JobQueue`
//! bounds the queue at
//! a configured capacity and applies an [`AdmissionPolicy`] when it is full, so a
//! saturated engine degrades predictably: submitters are rejected fast, blocked
//! briefly, or older queued work is shed to make room.
//!
//! Every lock acquisition here recovers from poisoning via
//! [`PoisonError::into_inner`]: the queue's state is a plain `VecDeque` plus a closed
//! flag with no cross-field invariants a panicking holder could corrupt, and a single
//! poisoned mutex must never drain the worker pool (each worker's dequeue loop runs
//! through these locks).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::error::EngineError;
use crate::executor::Job;
use crate::metrics::EngineMetrics;
use crate::state::lock_recover;

/// What [`Engine::submit`](crate::Engine::submit) does when the job queue is full.
///
/// ```
/// use tagdm_engine::{AdmissionPolicy, EngineConfig};
///
/// let config = EngineConfig::default()
///     .with_queue_capacity(64)
///     .with_admission(AdmissionPolicy::ShedOldest);
/// assert_eq!(config.admission, AdmissionPolicy::ShedOldest);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Fail fast: answer the new job with [`EngineError::Overloaded`] immediately.
    Reject,
    /// Block the submitter until a slot frees, up to the timeout; then
    /// [`EngineError::Overloaded`].
    Block {
        /// How long a submitter may wait for a queue slot.
        timeout: Duration,
    },
    /// Make room by shedding queued work: first sweep out every queued job whose
    /// deadline has already expired (answered with
    /// [`EngineError::DeadlineExpiredInQueue`]); if none had, shed the oldest queued
    /// job (answered with [`EngineError::Overloaded`]). The new job is then admitted.
    ShedOldest,
}

struct Inner {
    queue: VecDeque<Job>,
    closed: bool,
}

/// A capacity-bounded MPMC job queue (mutex + condvars; std has no bounded channel
/// with multiple consumers).
pub(crate) struct JobQueue {
    capacity: usize,
    policy: AdmissionPolicy,
    inner: Mutex<Inner>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl JobQueue {
    pub(crate) fn new(capacity: usize, policy: AdmissionPolicy) -> Self {
        JobQueue {
            capacity: capacity.max(1),
            policy,
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Jobs queued right now — the saturation gauge health reports expose.
    pub(crate) fn depth(&self) -> usize {
        self.inner().queue.len()
    }

    fn inner(&self) -> MutexGuard<'_, Inner> {
        lock_recover(&self.inner)
    }

    /// Admit a job per the configured policy. `Err` returns the job to the caller with
    /// the error it must be answered with; any job shed to make room is answered (and
    /// counted) here.
    pub(crate) fn push(
        &self,
        job: Job,
        metrics: &EngineMetrics,
    ) -> Result<(), Box<(Job, EngineError)>> {
        let mut inner = self.inner();
        if inner.closed {
            return Err(Box::new((job, EngineError::Shutdown)));
        }
        if inner.queue.len() >= self.capacity {
            match self.policy {
                AdmissionPolicy::Reject => {
                    metrics.jobs_rejected.inc();
                    return Err(Box::new((
                        job,
                        EngineError::Overloaded {
                            capacity: self.capacity,
                        },
                    )));
                }
                AdmissionPolicy::Block { timeout } => {
                    let capacity = self.capacity;
                    let (guard, wait) = self
                        .not_full
                        .wait_timeout_while(inner, timeout, |inner| {
                            !inner.closed && inner.queue.len() >= capacity
                        })
                        .unwrap_or_else(PoisonError::into_inner);
                    inner = guard;
                    if inner.closed {
                        return Err(Box::new((job, EngineError::Shutdown)));
                    }
                    if wait.timed_out() && inner.queue.len() >= self.capacity {
                        metrics.jobs_rejected.inc();
                        return Err(Box::new((
                            job,
                            EngineError::Overloaded {
                                capacity: self.capacity,
                            },
                        )));
                    }
                }
                AdmissionPolicy::ShedOldest => {
                    // First sweep: queued jobs whose deadline already fired will only
                    // be answered with an expiry by a worker anyway — answer them now
                    // without occupying one.
                    let now = Instant::now();
                    let before = inner.queue.len();
                    let expired: Vec<Job> = {
                        let mut kept = VecDeque::with_capacity(before);
                        let mut expired = Vec::new();
                        for queued in inner.queue.drain(..) {
                            if queued.deadline_instant().is_some_and(|d| now >= d) {
                                expired.push(queued);
                            } else {
                                kept.push_back(queued);
                            }
                        }
                        inner.queue = kept;
                        expired
                    };
                    for shed in expired {
                        metrics.jobs_shed.inc();
                        metrics.jobs_expired.inc();
                        let waited = shed.submitted.elapsed();
                        shed.answer_error(EngineError::DeadlineExpiredInQueue { waited }, metrics);
                    }
                    if inner.queue.len() >= self.capacity {
                        if let Some(oldest) = inner.queue.pop_front() {
                            metrics.jobs_shed.inc();
                            oldest.answer_error(
                                EngineError::Overloaded {
                                    capacity: self.capacity,
                                },
                                metrics,
                            );
                        }
                    }
                }
            }
        }
        inner.queue.push_back(job);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeue the next job, blocking while the queue is empty and open. `None` means
    /// the queue is closed and fully drained: the worker should exit.
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut inner = self.inner();
        loop {
            if let Some(job) = inner.queue.pop_front() {
                drop(inner);
                self.not_full.notify_one();
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Close the queue: rejects new submissions, lets workers drain what is queued and
    /// then exit, and wakes every blocked submitter.
    pub(crate) fn close(&self) {
        self.inner().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::channel;

    use tagdm_core::catalog::{problem_1, ProblemParams};

    use super::*;
    use crate::job::{JobId, SolveRequest, SolverChoice};
    use crate::spec::ContextSpec;

    #[test]
    fn admission_policies_round_trip_through_serde() {
        for policy in [
            AdmissionPolicy::Reject,
            AdmissionPolicy::Block {
                timeout: Duration::from_millis(25),
            },
            AdmissionPolicy::ShedOldest,
        ] {
            let json = serde_json::to_string(&policy).expect("policies serialize");
            let back: AdmissionPolicy = serde_json::from_str(&json).expect("policies deserialize");
            assert_eq!(back, policy);
        }
    }

    #[test]
    fn shedding_past_a_deadline_beyond_instant_range_does_not_panic() {
        let queue = JobQueue::new(1, AdmissionPolicy::ShedOldest);
        let metrics = EngineMetrics::default();
        let (reply, answers) = channel();
        let job = |id| Job {
            id: JobId(id),
            request: SolveRequest::new(
                ContextSpec::installed("ctx"),
                problem_1(ProblemParams::default()),
                SolverChoice::Recommended,
            )
            .with_deadline(Duration::MAX),
            submitted: Instant::now(),
            reply: reply.clone(),
        };
        assert!(queue.push(job(0), &metrics).is_ok());
        // The queue is full: the sweep must skip the never-firing deadline and shed the
        // oldest job for overload instead.
        assert!(queue.push(job(1), &metrics).is_ok());
        let shed = answers.try_recv().expect("the oldest job is answered");
        assert_eq!(shed.job, JobId(0));
        assert!(matches!(shed.result, Err(EngineError::Overloaded { .. })));
        assert_eq!(metrics.jobs_expired.get(), 0);
        assert_eq!(queue.depth(), 1);
    }
}
