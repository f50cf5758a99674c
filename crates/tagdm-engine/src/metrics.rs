//! Built-in engine observability: atomic counters plus latency histograms.
//!
//! Every cache layer and the job executor stamp [`EngineMetrics`] as they work; a
//! [`snapshot`](EngineMetrics::snapshot) is a consistent-enough point-in-time copy
//! (individual loads are relaxed — counters may be mid-update across fields, which is
//! fine for monitoring). The snapshot is serializable and renders as a plain-text
//! report for examples and operators.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::histogram::{HistogramSnapshot, LatencyHistogram};

/// Live counters and histograms shared by the engine's caches and workers.
#[derive(Default)]
pub struct EngineMetrics {
    /// Jobs accepted by [`Engine::submit`](crate::Engine::submit).
    pub jobs_submitted: AtomicU64,
    /// Jobs whose response was sent (including errors and expiries).
    pub jobs_completed: AtomicU64,
    /// Jobs whose deadline fired while they were queued. A solve truncated by its
    /// deadline still answers `Ok` (flagged by `SolveResponse::deadline_hit`) and is
    /// not counted here.
    pub jobs_expired: AtomicU64,
    /// Jobs whose solver panicked; the panic was caught and answered as
    /// [`EngineError::WorkerPanicked`](crate::EngineError::WorkerPanicked).
    pub jobs_panicked: AtomicU64,
    /// Jobs refused at admission because the queue was full (reject or block-timeout).
    pub jobs_rejected: AtomicU64,
    /// Queued jobs shed by the shed-oldest admission policy (expired sweeps and
    /// oldest-evictions).
    pub jobs_shed: AtomicU64,
    /// Transparent resubmissions performed by [`Engine::solve_with`](crate::Engine::solve_with).
    pub jobs_retried: AtomicU64,
    /// Dead workers respawned by the supervisor.
    pub worker_restarts: AtomicU64,
    /// Context-cache misses that joined an in-flight build instead of duplicating it.
    pub context_builds_deduped: AtomicU64,
    /// Context-cache hits (including installed contexts).
    pub context_hits: AtomicU64,
    /// Context-cache misses (each one paid a full context build).
    pub context_misses: AtomicU64,
    /// Solver-outcome cache hits.
    pub outcome_hits: AtomicU64,
    /// Solver-outcome cache misses (each one ran a solver).
    pub outcome_misses: AtomicU64,
    /// TCP connections accepted by the `tagdm-net` transport.
    pub net_connections_opened: AtomicU64,
    /// Transport connections closed, whatever the reason (client EOF, protocol
    /// fault, deadline cut, draining shutdown).
    pub net_connections_closed: AtomicU64,
    /// Request frames the transport decoded successfully.
    pub net_frames_received: AtomicU64,
    /// Response frames the transport wrote successfully.
    pub net_frames_sent: AtomicU64,
    /// Frames rejected as protocol faults (bad magic, version, kind, length or JSON).
    pub net_frame_errors: AtomicU64,
    /// Connections cut because a read or write deadline fired (slow or stalled peer).
    pub net_deadline_disconnects: AtomicU64,
    /// `GoAway` frames sent while draining for shutdown.
    pub net_goaways_sent: AtomicU64,
    /// Connection handlers that panicked; the panic was isolated to that connection.
    pub net_conn_panics: AtomicU64,
    /// Acceptor threads respawned by the transport's supervision guard.
    pub net_acceptor_restarts: AtomicU64,
    /// Time jobs spent queued before a worker picked them up.
    pub queue_wait: LatencyHistogram,
    /// Time spent building mining contexts (cache-miss path only).
    pub context_build: LatencyHistogram,
    /// Worker time spent obtaining each job's context: a cache hit, a build, or a wait
    /// on a build already in flight.
    pub context_resolve: LatencyHistogram,
    /// Worker time, after context resolution, for jobs answered from the outcome cache.
    pub solve_hit: LatencyHistogram,
    /// Worker time, after context resolution, for jobs that ran a solver.
    pub solve_miss: LatencyHistogram,
}

impl EngineMetrics {
    fn add(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn job_submitted(&self) {
        Self::add(&self.jobs_submitted);
    }

    pub(crate) fn job_completed(&self) {
        Self::add(&self.jobs_completed);
    }

    pub(crate) fn job_expired(&self) {
        Self::add(&self.jobs_expired);
    }

    pub(crate) fn job_panicked(&self) {
        Self::add(&self.jobs_panicked);
    }

    pub(crate) fn job_rejected(&self) {
        Self::add(&self.jobs_rejected);
    }

    pub(crate) fn job_shed(&self) {
        Self::add(&self.jobs_shed);
    }

    pub(crate) fn job_retried(&self) {
        Self::add(&self.jobs_retried);
    }

    pub(crate) fn worker_restarted(&self) {
        Self::add(&self.worker_restarts);
    }

    pub(crate) fn context_build_deduped(&self) {
        Self::add(&self.context_builds_deduped);
    }

    // The `net_*` recorders are `pub`: they are stamped by the out-of-crate
    // `tagdm-net` transport, which folds its connection/frame counters into this
    // registry so one `MetricsSnapshot` covers the whole service.

    /// Record an accepted transport connection.
    pub fn net_connection_opened(&self) {
        Self::add(&self.net_connections_opened);
    }

    /// Record a closed transport connection.
    pub fn net_connection_closed(&self) {
        Self::add(&self.net_connections_closed);
    }

    /// Record a request frame decoded successfully.
    pub fn net_frame_received(&self) {
        Self::add(&self.net_frames_received);
    }

    /// Record a response frame written successfully.
    pub fn net_frame_sent(&self) {
        Self::add(&self.net_frames_sent);
    }

    /// Record a frame rejected as a protocol fault.
    pub fn net_frame_error(&self) {
        Self::add(&self.net_frame_errors);
    }

    /// Record a connection cut at its read/write deadline.
    pub fn net_deadline_disconnect(&self) {
        Self::add(&self.net_deadline_disconnects);
    }

    /// Record a `GoAway` frame sent while draining.
    pub fn net_goaway_sent(&self) {
        Self::add(&self.net_goaways_sent);
    }

    /// Record a connection handler panic that was isolated.
    pub fn net_conn_panicked(&self) {
        Self::add(&self.net_conn_panics);
    }

    /// Record an acceptor-thread respawn.
    pub fn net_acceptor_restarted(&self) {
        Self::add(&self.net_acceptor_restarts);
    }

    pub(crate) fn context_lookup(&self, hit: bool) {
        Self::add(if hit {
            &self.context_hits
        } else {
            &self.context_misses
        });
    }

    pub(crate) fn outcome_lookup(&self, hit: bool) {
        Self::add(if hit {
            &self.outcome_hits
        } else {
            &self.outcome_misses
        });
    }

    pub(crate) fn record_queue_wait(&self, wait: Duration) {
        self.queue_wait.record(wait);
    }

    pub(crate) fn record_context_build(&self, elapsed: Duration) {
        self.context_build.record(elapsed);
    }

    pub(crate) fn record_context_resolve(&self, elapsed: Duration) {
        self.context_resolve.record(elapsed);
    }

    pub(crate) fn record_solve(&self, elapsed: Duration, outcome_hit: bool) {
        if outcome_hit {
            self.solve_hit.record(elapsed);
        } else {
            self.solve_miss.record(elapsed);
        }
    }

    /// A point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        MetricsSnapshot {
            jobs_submitted: load(&self.jobs_submitted),
            jobs_completed: load(&self.jobs_completed),
            jobs_expired: load(&self.jobs_expired),
            jobs_panicked: load(&self.jobs_panicked),
            jobs_rejected: load(&self.jobs_rejected),
            jobs_shed: load(&self.jobs_shed),
            jobs_retried: load(&self.jobs_retried),
            worker_restarts: load(&self.worker_restarts),
            context_builds_deduped: load(&self.context_builds_deduped),
            context_hits: load(&self.context_hits),
            context_misses: load(&self.context_misses),
            outcome_hits: load(&self.outcome_hits),
            outcome_misses: load(&self.outcome_misses),
            net_connections_opened: load(&self.net_connections_opened),
            net_connections_closed: load(&self.net_connections_closed),
            net_frames_received: load(&self.net_frames_received),
            net_frames_sent: load(&self.net_frames_sent),
            net_frame_errors: load(&self.net_frame_errors),
            net_deadline_disconnects: load(&self.net_deadline_disconnects),
            net_goaways_sent: load(&self.net_goaways_sent),
            net_conn_panics: load(&self.net_conn_panics),
            net_acceptor_restarts: load(&self.net_acceptor_restarts),
            queue_wait: self.queue_wait.snapshot(),
            context_build: self.context_build.snapshot(),
            context_resolve: self.context_resolve.snapshot(),
            solve_hit: self.solve_hit.snapshot(),
            solve_miss: self.solve_miss.snapshot(),
        }
    }
}

/// Serializable point-in-time view of [`EngineMetrics`].
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
    /// Dead workers respawned by the supervisor.
    pub worker_restarts: u64,
    /// Context builds avoided by joining one already in flight.
    pub context_builds_deduped: u64,
    /// Context-cache hits.
    pub context_hits: u64,
    /// Context-cache misses.
    pub context_misses: u64,
    /// Outcome-cache hits.
    pub outcome_hits: u64,
    /// Outcome-cache misses.
    pub outcome_misses: u64,
    /// Transport connections accepted.
    pub net_connections_opened: u64,
    /// Transport connections closed.
    pub net_connections_closed: u64,
    /// Request frames decoded by the transport.
    pub net_frames_received: u64,
    /// Response frames written by the transport.
    pub net_frames_sent: u64,
    /// Frames rejected as protocol faults.
    pub net_frame_errors: u64,
    /// Connections cut at a read/write deadline.
    pub net_deadline_disconnects: u64,
    /// `GoAway` frames sent while draining.
    pub net_goaways_sent: u64,
    /// Isolated connection-handler panics.
    pub net_conn_panics: u64,
    /// Acceptor-thread respawns.
    pub net_acceptor_restarts: u64,
    /// Queue-wait latency distribution.
    pub queue_wait: HistogramSnapshot,
    /// Context-build latency distribution (misses only).
    pub context_build: HistogramSnapshot,
    /// Context-resolution latency: hits, builds and waits on deduplicated builds.
    pub context_resolve: HistogramSnapshot,
    /// Worker latency after context resolution, for outcome-cache hits.
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

    /// Transient faults as a fraction of completed jobs (0 when none completed).
    /// A sustained rate near 1.0 means the engine is answering mostly with
    /// panics/overload — the trip signal for a per-shard circuit breaker.
    pub fn fault_rate(&self) -> f64 {
        if self.jobs_completed == 0 {
            0.0
        } else {
            self.transient_faults() as f64 / self.jobs_completed as f64
        }
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
        out.push_str(&format!(
            "  network   conns={}/{} frames={}rx/{}tx errors={} deadline_cuts={}\n",
            self.net_connections_opened,
            self.net_connections_closed,
            self.net_frames_received,
            self.net_frames_sent,
            self.net_frame_errors,
            self.net_deadline_disconnects
        ));
        out.push_str(&format!(
            "  net-faults goaways={} conn_panics={} acceptor_restarts={}\n",
            self.net_goaways_sent, self.net_conn_panics, self.net_acceptor_restarts
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
        metrics.job_submitted();
        metrics.job_submitted();
        metrics.job_completed();
        metrics.job_panicked();
        metrics.job_rejected();
        metrics.job_shed();
        metrics.job_retried();
        metrics.job_retried();
        metrics.worker_restarted();
        metrics.context_build_deduped();
        metrics.context_lookup(true);
        metrics.context_lookup(false);
        metrics.outcome_lookup(true);
        metrics.record_solve(Duration::from_micros(3), true);
        metrics.record_solve(Duration::from_millis(4), false);
        metrics.record_queue_wait(Duration::from_micros(15));
        metrics.record_context_resolve(Duration::from_micros(40));
        metrics.net_connection_opened();
        metrics.net_connection_opened();
        metrics.net_connection_closed();
        metrics.net_frame_received();
        metrics.net_frame_sent();
        metrics.net_frame_error();
        metrics.net_deadline_disconnect();
        metrics.net_goaway_sent();
        metrics.net_conn_panicked();
        metrics.net_acceptor_restarted();

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
        assert_eq!(snap.context_resolve.count, 1);
        let report = snap.render();
        assert!(report.contains("ctx resolve"));
        assert!(report.contains("hits=1"));
        assert!(report.contains("solve (hit)"));
        assert!(report.contains("panics=1"));
        assert!(report.contains("restarts=1"));
        assert!(report.contains("deduped=1"));
        assert_eq!(snap.net_connections_opened, 2);
        assert_eq!(snap.net_connections_closed, 1);
        assert_eq!(snap.net_frames_received, 1);
        assert_eq!(snap.net_frames_sent, 1);
        assert_eq!(snap.net_frame_errors, 1);
        assert_eq!(snap.net_deadline_disconnects, 1);
        assert_eq!(snap.net_goaways_sent, 1);
        assert_eq!(snap.net_conn_panics, 1);
        assert_eq!(snap.net_acceptor_restarts, 1);
        assert!(report.contains("conns=2/1"));
        assert!(report.contains("acceptor_restarts=1"));
    }

    #[test]
    fn empty_ratios_are_zero() {
        let snap = EngineMetrics::default().snapshot();
        assert_eq!(snap.context_hit_ratio(), 0.0);
        assert_eq!(snap.outcome_hit_ratio(), 0.0);
    }
}
