//! Per-shard circuit breakers: Closed → Open → HalfOpen → Closed.
//!
//! A breaker watches one shard's dispatch results. Sustained transient failures
//! — caught worker panics, overload rejections, shed queue entries, transport
//! faults — trip it **Open**: the router stops sending the shard traffic (fail
//! fast or spill to the next ring replica) so a sick shard is not hammered while
//! it recovers. After a cool-down the breaker admits a **HalfOpen** probe (the
//! router `PING`s the shard before trusting it with work); probe successes
//! re-close it, a probe failure re-opens it for another cool-down.
//!
//! The state lives behind one leaf mutex (`breaker_core`, see
//! `crates/tagdm-lint/lock_order.toml`): every method takes the lock, mutates
//! plain counters and returns — no other lock is ever touched under it, and
//! poisoning recovers via [`lock_recover`] because the state is a bare state
//! machine with no cross-field invariant a panicking holder could tear.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use tagdm_engine::lock_recover;

/// When a breaker trips and how it recovers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Consecutive transient failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker refuses traffic before admitting a probe. A
    /// cool-down past `Instant`'s range (such as `Duration::MAX`) never probes.
    pub cooldown: Duration,
    /// Successes a half-open breaker needs before it re-closes.
    pub success_threshold: u32,
}

impl Default for BreakerConfig {
    /// Trip after 5 consecutive transient failures, probe after 1s, re-close on
    /// the first successful probe.
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: Duration::from_secs(1),
            success_threshold: 1,
        }
    }
}

impl BreakerConfig {
    /// Override the consecutive-failure trip threshold (clamped to ≥ 1).
    pub fn with_failure_threshold(mut self, threshold: u32) -> Self {
        self.failure_threshold = threshold.max(1);
        self
    }

    /// Override the open cool-down.
    pub fn with_cooldown(mut self, cooldown: Duration) -> Self {
        self.cooldown = cooldown;
        self
    }

    /// Override the half-open success threshold (clamped to ≥ 1).
    pub fn with_success_threshold(mut self, threshold: u32) -> Self {
        self.success_threshold = threshold.max(1);
        self
    }
}

/// The breaker's position in its state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Healthy: traffic flows, consecutive failures are counted.
    Closed,
    /// Tripped: traffic is refused until the cool-down elapses.
    Open,
    /// Probing: limited traffic is admitted to test recovery.
    HalfOpen,
}

/// What the router may do with the next request for this shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Dispatch normally.
    Allow,
    /// Dispatch, but `PING` the shard first — the breaker is half-open and the
    /// shard must prove liveness before being trusted with real work.
    Probe,
    /// Do not dispatch; fail fast or spill to the next replica.
    Deny,
}

struct Core {
    state: BreakerState,
    consecutive_failures: u32,
    half_open_successes: u32,
    /// When an open breaker may admit its next probe; `None` (a cool-down past
    /// `Instant`'s range) never probes.
    probe_at: Option<Instant>,
    transitions: u64,
}

/// A circuit breaker guarding one shard.
///
/// ```
/// use std::time::Duration;
/// use tagdm_cluster::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
///
/// let breaker = CircuitBreaker::new(
///     BreakerConfig::default()
///         .with_failure_threshold(2)
///         .with_cooldown(Duration::ZERO),
/// );
/// assert_eq!(breaker.state(), BreakerState::Closed);
/// breaker.record_failure();
/// breaker.record_failure(); // threshold reached → trips
/// assert_eq!(breaker.state(), BreakerState::Open);
/// // Zero cool-down: the next admission is a half-open probe.
/// assert_eq!(breaker.admit(), Admission::Probe);
/// breaker.record_success(); // probe succeeded → re-closes
/// assert_eq!(breaker.state(), BreakerState::Closed);
/// ```
pub struct CircuitBreaker {
    config: BreakerConfig,
    breaker_core: Mutex<Core>,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            breaker_core: Mutex::new(Core {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                half_open_successes: 0,
                probe_at: None,
                transitions: 0,
            }),
        }
    }

    /// Ask to dispatch one request. An open breaker whose cool-down elapsed
    /// transitions to half-open here and answers [`Admission::Probe`].
    pub fn admit(&self) -> Admission {
        let mut core = lock_recover(&self.breaker_core);
        match core.state {
            BreakerState::Closed => Admission::Allow,
            BreakerState::HalfOpen => Admission::Probe,
            BreakerState::Open => {
                if core.probe_at.is_some_and(|at| Instant::now() >= at) {
                    core.state = BreakerState::HalfOpen;
                    core.half_open_successes = 0;
                    core.transitions += 1;
                    Admission::Probe
                } else {
                    Admission::Deny
                }
            }
        }
    }

    /// Record a healthy dispatch (or a successful half-open probe).
    pub fn record_success(&self) {
        let mut core = lock_recover(&self.breaker_core);
        match core.state {
            BreakerState::Closed => core.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                core.half_open_successes += 1;
                if core.half_open_successes >= self.config.success_threshold {
                    core.state = BreakerState::Closed;
                    core.consecutive_failures = 0;
                    core.transitions += 1;
                }
            }
            // A success racing the trip is stale evidence; the open timer wins.
            BreakerState::Open => {}
        }
    }

    /// Record a transient failure (engine fault, failed probe or transport
    /// fault). Trips a closed breaker at the threshold; re-opens a half-open one
    /// immediately.
    pub fn record_failure(&self) {
        let mut core = lock_recover(&self.breaker_core);
        match core.state {
            BreakerState::Closed => {
                core.consecutive_failures += 1;
                if core.consecutive_failures >= self.config.failure_threshold {
                    self.trip(&mut core);
                }
            }
            BreakerState::HalfOpen => self.trip(&mut core),
            BreakerState::Open => {}
        }
    }

    /// Open the breaker until the cool-down elapses.
    fn trip(&self, core: &mut Core) {
        core.state = BreakerState::Open;
        core.probe_at = Instant::now().checked_add(self.config.cooldown);
        core.transitions += 1;
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        lock_recover(&self.breaker_core).state
    }

    /// State transitions so far (each trip, half-open entry and re-close counts
    /// one) — the flapping gauge cluster metrics expose.
    pub fn transitions(&self) -> u64 {
        lock_recover(&self.breaker_core).transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn quick(threshold: u32, cooldown: Duration) -> CircuitBreaker {
        CircuitBreaker::new(
            BreakerConfig::default()
                .with_failure_threshold(threshold)
                .with_cooldown(cooldown),
        )
    }

    #[test]
    fn failures_below_the_threshold_keep_it_closed() {
        let breaker = quick(3, Duration::from_secs(60));
        breaker.record_failure();
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(breaker.admit(), Admission::Allow);
        // A success resets the consecutive count.
        breaker.record_success();
        breaker.record_failure();
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Closed);
    }

    #[test]
    fn the_threshold_trips_it_and_the_cooldown_gates_probes() {
        let breaker = quick(2, Duration::from_secs(60));
        breaker.record_failure();
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
        // Cool-down has not elapsed: traffic is refused.
        assert_eq!(breaker.admit(), Admission::Deny);
        assert_eq!(breaker.transitions(), 1);
    }

    #[test]
    fn the_full_cycle_closed_open_halfopen_closed() {
        let breaker = quick(1, Duration::ZERO);
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
        // Zero cool-down: the next admission flips to half-open.
        assert_eq!(breaker.admit(), Admission::Probe);
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        breaker.record_success();
        assert_eq!(breaker.state(), BreakerState::Closed);
        // Trip, half-open entry, re-close: three transitions.
        assert_eq!(breaker.transitions(), 3);
    }

    #[test]
    fn a_failed_probe_reopens_it() {
        let breaker = quick(1, Duration::ZERO);
        breaker.record_failure();
        assert_eq!(breaker.admit(), Admission::Probe);
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
    }

    #[test]
    fn reclosing_needs_the_configured_success_count() {
        let breaker = CircuitBreaker::new(
            BreakerConfig::default()
                .with_failure_threshold(1)
                .with_cooldown(Duration::ZERO)
                .with_success_threshold(2),
        );
        breaker.record_failure();
        assert_eq!(breaker.admit(), Admission::Probe);
        breaker.record_success();
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        breaker.record_success();
        assert_eq!(breaker.state(), BreakerState::Closed);
    }

    #[test]
    fn a_cooldown_past_the_clock_range_trips_and_never_probes() {
        let breaker = quick(1, Duration::MAX);
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.admit(), Admission::Deny);
        assert_eq!(breaker.transitions(), 1);
    }

    #[test]
    fn breaker_states_round_trip_through_serde() {
        for state in [
            BreakerState::Closed,
            BreakerState::Open,
            BreakerState::HalfOpen,
        ] {
            let json = serde_json::to_string(&state).expect("serialize");
            let back: BreakerState = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(back, state);
        }
    }
}
