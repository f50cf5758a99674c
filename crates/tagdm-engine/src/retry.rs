//! Retry policies for transient failures.
//!
//! A [`RetryPolicy`] says how many attempts a call gets and how long to back off
//! between them; [`RetryPolicy::run`] is the one retry loop, shared by
//! [`Engine::solve_with`](crate::Engine::solve_with), the cluster's `solve_with` and
//! the network client. Each caller says what is *transient*: for engine answers that
//! is a caught worker panic, an overloaded admission queue or a queue-expired
//! deadline (see [`EngineError::is_transient`](crate::EngineError::is_transient)).
//! Deterministic errors (invalid problems, unknown names, shutdown) are never retried.
//! The same [`Backoff`] schedule also paces worker respawns
//! ([`SupervisorConfig`](crate::SupervisorConfig)).

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// A capped exponential backoff schedule: attempt `n` waits `base * 2^n`, never more
/// than `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Backoff {
    /// Delay before the first retry (attempt 0).
    pub base: Duration,
    /// Upper bound on any single delay.
    pub max: Duration,
}

impl Backoff {
    /// A schedule doubling from `base` up to `max`.
    pub const fn new(base: Duration, max: Duration) -> Self {
        Backoff { base, max }
    }

    /// The delay before retry number `attempt` (0-based).
    ///
    /// ```
    /// use std::time::Duration;
    /// use tagdm_engine::Backoff;
    ///
    /// let backoff = Backoff::new(Duration::from_millis(10), Duration::from_millis(25));
    /// assert_eq!(backoff.delay(0), Duration::from_millis(10));
    /// assert_eq!(backoff.delay(1), Duration::from_millis(20));
    /// assert_eq!(backoff.delay(9), Duration::from_millis(25)); // capped
    /// ```
    pub fn delay(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.min(16);
        self.base
            .checked_mul(factor)
            .map_or(self.max, |d| d.min(self.max))
    }
}

impl Default for Backoff {
    /// 10ms doubling up to 1s — sized for caller-facing retries.
    fn default() -> Self {
        Backoff::new(Duration::from_millis(10), Duration::from_secs(1))
    }
}

/// How many attempts a request gets and how they are paced.
///
/// ```
/// use tagdm_engine::RetryPolicy;
///
/// assert_eq!(RetryPolicy::none().max_attempts, 1);
/// assert_eq!(RetryPolicy::default().max_attempts, 3);
/// assert_eq!(RetryPolicy::attempts(5).max_attempts, 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts including the first (so `1` means "never retry"). A value of 0
    /// is treated as 1.
    pub max_attempts: u32,
    /// Backoff between attempts.
    pub backoff: Backoff,
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff: Backoff::default(),
        }
    }

    /// A policy with `max_attempts` total attempts and the default backoff.
    pub fn attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            backoff: Backoff::default(),
        }
    }

    /// Override the backoff schedule.
    pub fn with_backoff(mut self, backoff: Backoff) -> Self {
        self.backoff = backoff;
        self
    }

    /// Run `attempt` under this policy and return the last result. `attempt` gets
    /// its 0-based attempt number; up to `max_attempts.max(1)` attempts run, and
    /// retry `n` sleeps `backoff.delay(n)` first. Only a result `transient` accepts
    /// is retried.
    ///
    /// ```
    /// use std::time::Duration;
    /// use tagdm_engine::{Backoff, RetryPolicy};
    ///
    /// let tick = Duration::from_micros(1);
    /// let policy = RetryPolicy::attempts(3).with_backoff(Backoff::new(tick, tick));
    /// assert_eq!(policy.run(|attempt| attempt, |_| true), 2); // budget spent
    /// assert_eq!(policy.run(|attempt| attempt, |&a| a < 1), 1); // 1 is not transient
    /// ```
    pub fn run<T>(
        &self,
        mut attempt: impl FnMut(u32) -> T,
        mut transient: impl FnMut(&T) -> bool,
    ) -> T {
        let attempts = self.max_attempts.max(1);
        let mut tries = 0;
        loop {
            let result = attempt(tries);
            if tries + 1 >= attempts || !transient(&result) {
                return result;
            }
            std::thread::sleep(self.backoff.delay(tries));
            tries += 1;
        }
    }
}

impl Default for RetryPolicy {
    /// Three attempts with the default backoff.
    fn default() -> Self {
        RetryPolicy::attempts(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let backoff = Backoff::new(Duration::from_millis(10), Duration::from_millis(65));
        assert_eq!(backoff.delay(0), Duration::from_millis(10));
        assert_eq!(backoff.delay(1), Duration::from_millis(20));
        assert_eq!(backoff.delay(2), Duration::from_millis(40));
        assert_eq!(backoff.delay(3), Duration::from_millis(65));
        assert_eq!(backoff.delay(30), Duration::from_millis(65));
    }

    #[test]
    fn huge_attempts_do_not_overflow() {
        let backoff = Backoff::new(Duration::from_secs(1), Duration::from_secs(30));
        assert_eq!(backoff.delay(u32::MAX), Duration::from_secs(30));
    }

    #[test]
    fn policies_round_trip_through_serde() {
        let policy = RetryPolicy::attempts(5).with_backoff(Backoff::new(
            Duration::from_millis(2),
            Duration::from_millis(50),
        ));
        let json = serde_json::to_string(&policy).expect("policies serialize");
        let back: RetryPolicy = serde_json::from_str(&json).expect("policies deserialize");
        assert_eq!(back, policy);
        assert_eq!(RetryPolicy::none().max_attempts, 1);
        assert_eq!(RetryPolicy::default().max_attempts, 3);
    }
}
