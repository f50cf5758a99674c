//! Engine error types.

use std::fmt;
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Why the engine could not produce a [`SolverOutcome`] for a request.
///
/// [`SolverOutcome`]: tagdm_core::solvers::SolverOutcome
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EngineError {
    /// The request referenced a dataset name that was never registered.
    UnknownDataset(String),
    /// The request referenced an installed context name that does not exist.
    UnknownContext(String),
    /// The context recipe is invalid: its grouping does not match the dataset's schema,
    /// or its summarizer cannot run (e.g. an LDA configuration with no topics).
    InvalidGrouping(String),
    /// The problem failed [`TagDmProblem::validate`](tagdm_core::problem::TagDmProblem::validate).
    InvalidProblem(String),
    /// The job's deadline passed while it was still queued; no solver ran. Also the
    /// answer a queued job receives when the shed-oldest admission policy sweeps it
    /// out because its deadline had already expired.
    DeadlineExpiredInQueue {
        /// How long the job had been queued when a worker finally saw it.
        waited: Duration,
    },
    /// A worker panicked while running the job. The panic was caught at the job
    /// boundary: the worker survives and the caller gets this instead of a hang.
    WorkerPanicked {
        /// The stringified panic payload.
        payload: String,
    },
    /// The engine's admission queue was full and the admission policy refused (or
    /// shed) the job. Back off and retry, or accept the shed.
    Overloaded {
        /// The configured queue capacity that was exhausted.
        capacity: usize,
    },
    /// The engine was shut down before the job could be answered.
    Shutdown,
    /// A routing tier (`tagdm-cluster`) could not place the job on any shard:
    /// every candidate's circuit breaker was open or its dispatch failed. A
    /// resident engine never produces this itself; it exists so cluster answers
    /// stay inside the one typed error surface callers already handle.
    ShardUnavailable {
        /// The shard the request hashed to (the start of the replica walk).
        shard: String,
        /// Why the last candidate was skipped or failed.
        detail: String,
    },
}

impl EngineError {
    /// Whether retrying the same request may succeed. Panics, overload and queue
    /// expiry are load- or luck-dependent and worth retrying (a resubmission restarts
    /// the deadline clock); invalid problems, unknown names and shutdown are
    /// deterministic and never retried.
    ///
    /// ```
    /// use tagdm_engine::EngineError;
    ///
    /// assert!(EngineError::Overloaded { capacity: 8 }.is_transient());
    /// assert!(!EngineError::UnknownDataset("ml".into()).is_transient());
    /// assert!(!EngineError::Shutdown.is_transient());
    /// ```
    // tagdm-lint rule ER01 diffs this match against the enum: every variant must be
    // classified explicitly so a new variant cannot silently default to one side.
    // `matches!` (which clippy would prefer here) would hide the non-transient
    // variants from that diff.
    #[allow(clippy::match_like_matches_macro)]
    pub fn is_transient(&self) -> bool {
        match self {
            EngineError::WorkerPanicked { .. }
            | EngineError::Overloaded { .. }
            | EngineError::DeadlineExpiredInQueue { .. }
            | EngineError::ShardUnavailable { .. } => true,
            EngineError::UnknownDataset(_)
            | EngineError::UnknownContext(_)
            | EngineError::InvalidGrouping(_)
            | EngineError::InvalidProblem(_)
            | EngineError::Shutdown => false,
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownDataset(name) => write!(f, "unknown dataset `{name}`"),
            EngineError::UnknownContext(name) => write!(f, "unknown installed context `{name}`"),
            EngineError::InvalidGrouping(message) => {
                write!(f, "invalid context recipe: {message}")
            }
            EngineError::InvalidProblem(message) => write!(f, "invalid problem: {message}"),
            EngineError::DeadlineExpiredInQueue { waited } => {
                write!(f, "deadline expired after {waited:?} in queue")
            }
            EngineError::WorkerPanicked { payload } => {
                write!(f, "worker panicked while running the job: {payload}")
            }
            EngineError::Overloaded { capacity } => {
                write!(
                    f,
                    "engine overloaded: admission queue at capacity {capacity}"
                )
            }
            EngineError::Shutdown => write!(f, "engine shut down"),
            EngineError::ShardUnavailable { shard, detail } => {
                write!(f, "no shard available for `{shard}`: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_context() {
        assert_eq!(
            EngineError::UnknownDataset("ml".into()).to_string(),
            "unknown dataset `ml`"
        );
        assert!(EngineError::DeadlineExpiredInQueue {
            waited: Duration::from_millis(5)
        }
        .to_string()
        .contains("deadline expired"));
        assert_eq!(EngineError::Shutdown.to_string(), "engine shut down");
        assert_eq!(
            EngineError::WorkerPanicked {
                payload: "solver index out of bounds".into()
            }
            .to_string(),
            "worker panicked while running the job: solver index out of bounds"
        );
        assert_eq!(
            EngineError::Overloaded { capacity: 4 }.to_string(),
            "engine overloaded: admission queue at capacity 4"
        );
        assert_eq!(
            EngineError::ShardUnavailable {
                shard: "shard-1".into(),
                detail: "breaker open".into()
            }
            .to_string(),
            "no shard available for `shard-1`: breaker open"
        );
    }

    #[test]
    fn transience_classifies_retryable_errors() {
        assert!(EngineError::WorkerPanicked {
            payload: "p".into()
        }
        .is_transient());
        assert!(EngineError::Overloaded { capacity: 1 }.is_transient());
        assert!(EngineError::DeadlineExpiredInQueue {
            waited: Duration::from_millis(1)
        }
        .is_transient());
        assert!(!EngineError::InvalidProblem("k = 0".into()).is_transient());
        assert!(!EngineError::UnknownDataset("ml".into()).is_transient());
        assert!(!EngineError::UnknownContext("ctx".into()).is_transient());
        assert!(!EngineError::InvalidGrouping("no such attribute".into()).is_transient());
        assert!(!EngineError::Shutdown.is_transient());
        assert!(EngineError::ShardUnavailable {
            shard: "shard-0".into(),
            detail: "breaker open".into()
        }
        .is_transient());
    }

    #[test]
    fn new_error_variants_round_trip_through_serde() {
        for error in [
            EngineError::WorkerPanicked {
                payload: "boom".into(),
            },
            EngineError::Overloaded { capacity: 16 },
            EngineError::DeadlineExpiredInQueue {
                waited: Duration::from_millis(7),
            },
            EngineError::Shutdown,
            EngineError::ShardUnavailable {
                shard: "shard-2".into(),
                detail: "connection refused".into(),
            },
        ] {
            let json = serde_json::to_string(&error).expect("errors serialize");
            let back: EngineError = serde_json::from_str(&json).expect("errors deserialize");
            assert_eq!(back, error);
        }
    }
}
