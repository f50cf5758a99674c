//! The closed-loop client: it sends its next request only after the previous reply.
//! There is one, in front of a one-worker engine, so one call is in flight at a time
//! and the CPU time the process uses during a call is what that call cost.

use std::time::{Duration, Instant};

use tagdm_core::solvers::SolverOutcome;
use tagdm_engine::{SolveRequest, SolveResponse};

use crate::check::same_answer;
use crate::gauge::Gauge;
use crate::stats::{cpu_time, Histogram};
use crate::system::System;
use crate::trace::{Recorder, Span};

/// Where a workload's requests come from.
pub trait Traffic {
    /// The `j`-th request, with the key of its reference answer.
    fn next(&self, j: usize) -> (usize, SolveRequest);

    /// The reference answer for `key`, computed before any timed phase.
    fn expected(&self, key: usize) -> Option<&SolverOutcome>;
}

/// One answered request, reduced to the fields the per-layer metrics read.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Client-observed latency of the call, ns.
    pub latency_ns: u32,
    /// `SolveResponse::queue_wait` and `total`, ns.
    pub queue_ns: u32,
    pub total_ns: u32,
    /// `SolverOutcome::elapsed` (ns) and `candidates_evaluated`; 0 on errors.
    pub solve_ns: u32,
    pub candidates: u32,
    /// Solver family of the answer: 0 Exact, 1 SM-LSH, 2 DV-FDP, 3 other or error.
    pub family: u8,
    pub context_hit: bool,
    pub outcome_hit: bool,
    /// The answer is `Ok` and equal to its reference.
    pub correct: bool,
}

fn ns(duration: Duration) -> u32 {
    u32::try_from(duration.as_nanos()).unwrap_or(u32::MAX)
}

/// The solver family an outcome's solver name belongs to (3 when none).
pub fn family(outcome: &SolverOutcome) -> u8 {
    ["Exact", "SM-LSH", "DV-FDP"]
        .iter()
        .position(|prefix| outcome.solver.starts_with(prefix))
        .map_or(3, |f| f as u8)
}

impl Sample {
    pub fn new(
        latency: Duration,
        response: &SolveResponse,
        expected: Option<&SolverOutcome>,
    ) -> Sample {
        let outcome = response.result.as_ref().ok();
        Sample {
            latency_ns: ns(latency),
            queue_ns: ns(response.queue_wait),
            total_ns: ns(response.total),
            solve_ns: outcome.map_or(0, |o| ns(o.elapsed)),
            candidates: outcome.map_or(0, |o| {
                u32::try_from(o.candidates_evaluated).unwrap_or(u32::MAX)
            }),
            family: outcome.map_or(3, family),
            context_hit: response.cache.context_hit,
            outcome_hit: response.cache.outcome_hit,
            correct: matches!((outcome, expected), (Some(o), Some(e)) if same_answer(o, e)),
        }
    }

    pub fn latency_us(&self) -> f64 {
        self.latency_ns as f64 / 1e3
    }

    /// Engine time outside queueing and the solver, µs (meaningful on misses).
    pub fn overhead_us(&self) -> f64 {
        (self.total_ns as f64 - self.queue_ns as f64 - self.solve_ns as f64) / 1e3
    }
}

/// Describe a wrong answer.
fn failure(key: usize, response: &SolveResponse, expected: Option<&SolverOutcome>) -> String {
    match (&response.result, expected) {
        (Err(error), _) => format!("key {key}: {error}"),
        (Ok(_), None) => format!("key {key}: no reference answer"),
        (Ok(o), Some(e)) => format!(
            "key {key}: answer {:?}/{}/{}/{} differs from reference {:?}/{}/{}/{}",
            o.groups,
            o.objective,
            o.feasible,
            o.candidates_evaluated,
            e.groups,
            e.objective,
            e.feasible,
            e.candidates_evaluated
        ),
    }
}

/// What one phase of traffic produced.
pub struct Phase {
    /// Replies received.
    pub replies: usize,
    /// Client-observed latency of every reply. A histogram, so the harness's memory
    /// does not grow with the program's throughput.
    pub latencies: Histogram,
    /// CPU time the process used during the calls: what the replies cost.
    pub cpu: Duration,
    /// The core-speed gauge, run between replies.
    pub gauge: Gauge,
    /// Every reply in full, only when the phase was run with `detail`.
    pub samples: Vec<Sample>,
    /// Replies that were `Err` or differed from their reference.
    pub failed: usize,
    /// The first few of those, described.
    pub failures: Vec<String>,
    /// Wall time of the phase.
    pub elapsed: Duration,
    pub spans: Vec<Span>,
}

impl Phase {
    pub fn empty() -> Phase {
        Phase {
            replies: 0,
            latencies: Histogram::new(),
            cpu: Duration::ZERO,
            gauge: Gauge::default(),
            samples: Vec::new(),
            failed: 0,
            failures: Vec::new(),
            elapsed: Duration::ZERO,
            spans: Vec::new(),
        }
    }

    /// Replies per second over the whole phase.
    pub fn throughput(&self) -> f64 {
        self.replies as f64 / self.elapsed.as_secs_f64()
    }

    /// The `q`-quantile of the phase's latencies, ms.
    pub fn latency_ms(&self, q: f64) -> f64 {
        self.latencies.quantile(q) / 1e6
    }

    /// Mean CPU time a reply cost, scaled to the reference core speed.
    pub fn cpu_per_reply(&self) -> Duration {
        self.gauge.scale(self.cpu / self.replies.max(1) as u32)
    }

    /// Add `part`'s replies to this phase, and its time when `timed`.
    pub fn absorb(&mut self, part: Phase, timed: bool) {
        self.replies += part.replies;
        self.latencies.merge(&part.latencies);
        self.cpu += part.cpu;
        self.gauge.absorb(part.gauge);
        self.samples.extend(part.samples);
        self.failed += part.failed;
        self.failures.extend(part.failures);
        self.spans.extend(part.spans);
        if timed {
            self.elapsed += part.elapsed;
        }
    }
}

/// Run the client for `duration`. `cursor` is the index of its next request and
/// advances as it sends, so consecutive phases continue the same request stream.
/// With `detail` every reply is kept in full; with `trace` every request also records
/// spans.
pub fn closed_loop(
    system: &System,
    traffic: &dyn Traffic,
    cursor: &mut usize,
    duration: Duration,
    detail: bool,
    trace: Option<Instant>,
) -> Phase {
    let layer = system.entry_layer();
    let mut recorder = trace.map(Recorder::new);
    let mut out = Phase::empty();
    let began = Instant::now();
    while began.elapsed() < duration {
        let c0 = Instant::now();
        let j = *cursor;
        *cursor += 1;
        let (key, request) = traffic.next(j);
        let (k0, t0) = (cpu_time(), Instant::now());
        let response = system.solve(request);
        let (t1, k1) = (Instant::now(), cpu_time());
        if let Some(recorder) = recorder.as_mut() {
            recorder.request(j as u64, (c0, Instant::now()), (t0, t1), layer, &response);
        }
        let expected = traffic.expected(key);
        let sample = Sample::new(t1 - t0, &response, expected);
        if !sample.correct {
            out.failed += 1;
            if out.failures.len() < 5 {
                out.failures.push(failure(key, &response, expected));
            }
        }
        out.replies += 1;
        out.latencies.record(u64::from(sample.latency_ns));
        out.cpu += k1 - k0;
        out.gauge.keep_up(out.cpu);
        if detail {
            out.samples.push(sample);
        }
    }
    out.spans = recorder.map(|r| r.spans).unwrap_or_default();
    out.elapsed = began.elapsed();
    out
}
