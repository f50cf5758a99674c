//! Cooperative cancellation for long-running solves.
//!
//! A [`CancelToken`] is a cheap, clonable handle shared between the party that may
//! cancel (e.g. the engine's deadline watcher) and the solver doing the work. Solvers
//! poll [`CancelToken::is_cancelled`] at natural checkpoints of their search loops and,
//! when it fires, stop early and return the best result found so far (flagged through
//! the truncated `candidates_evaluated` count). Cancellation is *cooperative*: a token
//! never interrupts a computation mid-step, it only asks the next checkpoint to bail.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A shared cancellation flag with an optional deadline.
///
/// Cloning shares the underlying flag: cancelling any clone cancels them all. The
/// default token never fires on its own and can only be cancelled explicitly.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that only fires when [`cancel`](CancelToken::cancel) is called.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that fires automatically once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// A token that fires automatically `timeout` from now. A timeout beyond the range
    /// of `Instant` never fires.
    pub fn after(timeout: Duration) -> Self {
        match Instant::now().checked_add(timeout) {
            Some(deadline) => CancelToken::with_deadline(deadline),
            None => CancelToken::new(),
        }
    }

    /// Request cancellation. Idempotent.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation was requested or the deadline has passed. Once a deadline
    /// has been observed as expired the flag latches, so later calls are a single
    /// atomic load.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return true;
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                self.inner.cancelled.store(true, Ordering::Release);
                return true;
            }
        }
        false
    }

    /// The token's deadline, if it has one.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_not_cancelled() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        assert!(token.deadline().is_none());
    }

    #[test]
    fn cancel_propagates_to_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        clone.cancel();
        assert!(token.is_cancelled());
        assert!(clone.is_cancelled());
    }

    #[test]
    fn deadline_in_the_past_fires_immediately() {
        let token = CancelToken::after(Duration::ZERO);
        assert!(token.is_cancelled());
    }

    #[test]
    fn far_deadline_does_not_fire() {
        let token = CancelToken::after(Duration::from_secs(3600));
        assert!(!token.is_cancelled());
        assert!(token.deadline().is_some());
    }

    #[test]
    fn deadline_beyond_instant_range_never_fires() {
        let token = CancelToken::after(Duration::MAX);
        assert!(!token.is_cancelled());
        assert!(token.deadline().is_none());
    }
}
