//! Built-in observability: one [`Counter`] type, plus the engine's counters and
//! latency histograms.
//!
//! Every cache layer and the job executor stamp the engine's live counters as they
//! work; [`Engine::metrics`](crate::Engine::metrics) copies them into a
//! [`MetricsSnapshot`], a consistent-enough point-in-time view (individual loads are
//! relaxed — counters may be mid-update across fields, which is fine for monitoring).
//! The snapshot is serializable and renders as a plain-text report for examples and
//! operators. The transport and the cluster count with the same [`Counter`] and own
//! their counters themselves.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::histogram::{HistogramSnapshot, LatencyHistogram};

/// A monotonically increasing event count. Relaxed ordering: counters are for
/// monitoring and never order other memory.
///
/// ```
/// let sent = tagdm_engine::metrics::Counter::default();
/// sent.inc();
/// sent.inc();
/// assert_eq!(sent.get(), 2);
/// ```
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Count one event.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// The events counted so far.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Live counters and histograms shared by the engine's caches and workers.
#[derive(Default)]
pub(crate) struct EngineMetrics {
    /// Jobs accepted by [`Engine::submit`](crate::Engine::submit).
    pub(crate) jobs_submitted: Counter,
    /// Jobs whose response was sent (including errors and expiries).
    pub(crate) jobs_completed: Counter,
    /// Jobs whose deadline fired while they were queued. A solve truncated by its
    /// deadline still answers `Ok` (flagged by `SolveResponse::deadline_hit`) and is
    /// not counted here.
    pub(crate) jobs_expired: Counter,
    /// Jobs whose solver panicked; the panic was caught and answered as
    /// [`EngineError::WorkerPanicked`](crate::EngineError::WorkerPanicked).
    pub(crate) jobs_panicked: Counter,
    /// Jobs refused at admission because the queue was full (reject or block-timeout).
    pub(crate) jobs_rejected: Counter,
    /// Queued jobs shed by the shed-oldest admission policy (expired sweeps and
    /// oldest-evictions).
    pub(crate) jobs_shed: Counter,
    /// Transparent resubmissions performed by [`Engine::solve_with`](crate::Engine::solve_with).
    pub(crate) jobs_retried: Counter,
    /// Dead workers respawned (each by its own unwind guard).
    pub(crate) worker_restarts: Counter,
    /// Context-cache misses that joined an in-flight build instead of duplicating it.
    pub(crate) context_builds_deduped: Counter,
    /// Context-cache hits (including installed contexts), counted on outcome-cache
    /// misses and `Engine::context` calls.
    context_hits: Counter,
    /// Context-cache misses (each one paid a full context build).
    context_misses: Counter,
    /// Solver-outcome cache hits.
    outcome_hits: Counter,
    /// Solver-outcome cache misses (each one ran a solver).
    outcome_misses: Counter,
    /// Time jobs spent queued before a worker picked them up.
    pub(crate) queue_wait: LatencyHistogram,
    /// Time spent building mining contexts (cache-miss path only).
    pub(crate) context_build: LatencyHistogram,
    /// Worker time spent obtaining each outcome-cache miss's context: a cache hit, a
    /// build, or a wait on a build already in flight.
    pub(crate) context_resolve: LatencyHistogram,
    /// Worker time looking up jobs answered from the outcome cache (no context is
    /// resolved for them).
    solve_hit: LatencyHistogram,
    /// Worker time, after context resolution, for jobs that ran a solver.
    solve_miss: LatencyHistogram,
}

impl EngineMetrics {
    pub(crate) fn context_lookup(&self, hit: bool) {
        if hit {
            self.context_hits.inc();
        } else {
            self.context_misses.inc();
        }
    }

    pub(crate) fn outcome_lookup(&self, hit: bool) {
        if hit {
            self.outcome_hits.inc();
        } else {
            self.outcome_misses.inc();
        }
    }

    pub(crate) fn record_solve(&self, elapsed: Duration, outcome_hit: bool) {
        if outcome_hit {
            self.solve_hit.record(elapsed);
        } else {
            self.solve_miss.record(elapsed);
        }
    }

    /// A point-in-time copy of every counter and histogram.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            jobs_submitted: self.jobs_submitted.get(),
            jobs_completed: self.jobs_completed.get(),
            jobs_expired: self.jobs_expired.get(),
            jobs_panicked: self.jobs_panicked.get(),
            jobs_rejected: self.jobs_rejected.get(),
            jobs_shed: self.jobs_shed.get(),
            jobs_retried: self.jobs_retried.get(),
            worker_restarts: self.worker_restarts.get(),
            context_builds_deduped: self.context_builds_deduped.get(),
            context_hits: self.context_hits.get(),
            context_misses: self.context_misses.get(),
            outcome_hits: self.outcome_hits.get(),
            outcome_misses: self.outcome_misses.get(),
            queue_wait: self.queue_wait.snapshot(),
            context_build: self.context_build.snapshot(),
            context_resolve: self.context_resolve.snapshot(),
            solve_hit: self.solve_hit.snapshot(),
            solve_miss: self.solve_miss.snapshot(),
        }
    }
}

/// Serializable point-in-time view of the engine's counters and histograms.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Jobs accepted by the engine.
    pub jobs_submitted: u64,
    /// Jobs answered (success, error or expiry).
    pub jobs_completed: u64,
    /// Jobs whose deadline fired while they were queued.
    pub jobs_expired: u64,
    /// Jobs whose caught solver panic was answered as `WorkerPanicked`.
    pub jobs_panicked: u64,
    /// Jobs refused at admission (full queue under reject / block-timeout policies).
    pub jobs_rejected: u64,
    /// Queued jobs shed by the shed-oldest admission policy.
    pub jobs_shed: u64,
    /// Transparent retries performed by `Engine::solve_with`.
    pub jobs_retried: u64,
    /// Dead workers respawned (each by its own unwind guard).
    pub worker_restarts: u64,
    /// Context builds avoided by joining one already in flight.
    pub context_builds_deduped: u64,
    /// Context-cache hits (counted on outcome-cache misses and `Engine::context`).
    pub context_hits: u64,
    /// Context-cache misses.
    pub context_misses: u64,
    /// Outcome-cache hits.
    pub outcome_hits: u64,
    /// Outcome-cache misses.
    pub outcome_misses: u64,
    /// Queue-wait latency distribution.
    pub queue_wait: HistogramSnapshot,
    /// Context-build latency distribution (misses only).
    pub context_build: HistogramSnapshot,
    /// Context-resolution latency of outcome-cache misses: hits, builds and waits on
    /// deduplicated builds.
    pub context_resolve: HistogramSnapshot,
    /// Worker latency of the outcome lookup, for outcome-cache hits.
    pub solve_hit: HistogramSnapshot,
    /// Worker latency after context resolution, for jobs that ran a solver.
    pub solve_miss: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// Fraction of context lookups served from cache (0 when there were none).
    ///
    /// ```
    /// let mut snap = tagdm_engine::MetricsSnapshot::default();
    /// assert_eq!(snap.context_hit_ratio(), 0.0);
    /// snap.context_hits = 3;
    /// snap.context_misses = 1;
    /// assert_eq!(snap.context_hit_ratio(), 0.75);
    /// ```
    pub fn context_hit_ratio(&self) -> f64 {
        ratio(self.context_hits, self.context_misses)
    }

    /// Fraction of outcome lookups served from cache (0 when there were none).
    pub fn outcome_hit_ratio(&self) -> f64 {
        ratio(self.outcome_hits, self.outcome_misses)
    }

    /// Jobs that ended in a transient fault: caught panics, admission rejections,
    /// shed queue entries and queue-expired deadlines. This is the numerator
    /// circuit breakers (`tagdm-cluster`) watch.
    ///
    /// ```
    /// let mut snap = tagdm_engine::MetricsSnapshot::default();
    /// snap.jobs_panicked = 2;
    /// snap.jobs_shed = 1;
    /// assert_eq!(snap.transient_faults(), 3);
    /// ```
    pub fn transient_faults(&self) -> u64 {
        self.jobs_panicked + self.jobs_rejected + self.jobs_shed + self.jobs_expired
    }

    /// Multi-line plain-text report, e.g. for `examples/engine_service.rs`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("engine metrics\n");
        out.push_str(&format!(
            "  jobs      submitted={} completed={} expired={}\n",
            self.jobs_submitted, self.jobs_completed, self.jobs_expired
        ));
        out.push_str(&format!(
            "  faults    panics={} rejected={} shed={} retries={} restarts={}\n",
            self.jobs_panicked,
            self.jobs_rejected,
            self.jobs_shed,
            self.jobs_retried,
            self.worker_restarts
        ));
        out.push_str(&format!(
            "  contexts  hits={} misses={} deduped={} (hit ratio {:.0}%)\n",
            self.context_hits,
            self.context_misses,
            self.context_builds_deduped,
            100.0 * self.context_hit_ratio()
        ));
        out.push_str(&format!(
            "  outcomes  hits={} misses={} (hit ratio {:.0}%)\n",
            self.outcome_hits,
            self.outcome_misses,
            100.0 * self.outcome_hit_ratio()
        ));
        out.push_str(&format!("  queue wait    {}\n", self.queue_wait.render()));
        out.push_str(&format!(
            "  context build {}\n",
            self.context_build.render()
        ));
        out.push_str(&format!(
            "  ctx resolve   {}\n",
            self.context_resolve.render()
        ));
        out.push_str(&format!("  solve (hit)   {}\n", self.solve_hit.render()));
        out.push_str(&format!("  solve (miss)  {}\n", self.solve_miss.render()));
        out
    }
}

fn ratio(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_recorded_events() {
        let metrics = EngineMetrics::default();
        metrics.jobs_submitted.inc();
        metrics.jobs_submitted.inc();
        metrics.jobs_completed.inc();
        metrics.jobs_panicked.inc();
        metrics.jobs_rejected.inc();
        metrics.jobs_shed.inc();
        metrics.jobs_retried.inc();
        metrics.jobs_retried.inc();
        metrics.worker_restarts.inc();
        metrics.context_builds_deduped.inc();
        metrics.context_lookup(true);
        metrics.context_lookup(false);
        metrics.outcome_lookup(true);
        metrics.record_solve(Duration::from_micros(3), true);
        metrics.record_solve(Duration::from_millis(4), false);
        metrics.queue_wait.record(Duration::from_micros(15));
        metrics.context_resolve.record(Duration::from_micros(40));

        let snap = metrics.snapshot();
        assert_eq!(snap.jobs_submitted, 2);
        assert_eq!(snap.jobs_completed, 1);
        assert_eq!(snap.jobs_panicked, 1);
        assert_eq!(snap.jobs_rejected, 1);
        assert_eq!(snap.jobs_shed, 1);
        assert_eq!(snap.jobs_retried, 2);
        assert_eq!(snap.worker_restarts, 1);
        assert_eq!(snap.context_builds_deduped, 1);
        assert_eq!(snap.context_hits, 1);
        assert_eq!(snap.context_misses, 1);
        assert_eq!(snap.outcome_hits, 1);
        assert_eq!(snap.outcome_misses, 0);
        assert!((snap.context_hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(snap.outcome_hit_ratio(), 1.0);
        assert_eq!(snap.solve_hit.count, 1);
        assert_eq!(snap.solve_miss.count, 1);
        assert!(snap.solve_hit.mean_us < snap.solve_miss.mean_us);
        assert_eq!(snap.queue_wait.count, 1);
        assert_eq!(snap.context_resolve.count, 1);
        let report = snap.render();
        assert!(report.contains("ctx resolve"));
        assert!(report.contains("hits=1"));
        assert!(report.contains("solve (hit)"));
        assert!(report.contains("panics=1"));
        assert!(report.contains("restarts=1"));
        assert!(report.contains("deduped=1"));
    }

    #[test]
    fn empty_ratios_are_zero() {
        let snap = EngineMetrics::default().snapshot();
        assert_eq!(snap.context_hit_ratio(), 0.0);
        assert_eq!(snap.outcome_hit_ratio(), 0.0);
    }
}
