//! Typed solve jobs: requests, responses and tickets.

use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use tagdm_core::problem::TagDmProblem;
use tagdm_core::solvers::{
    recommend, ConstraintMode, DvFdpSolver, ExactSolver, SmLshSolver, Solver, SolverOutcome,
};

use crate::error::EngineError;
use crate::spec::ContextSpec;

/// Identifier of a submitted job, unique within one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct JobId(pub u64);

/// Which solver a request runs. A plain-data stand-in for `Box<dyn Solver>` so that
/// requests stay serializable and each worker thread can instantiate its own solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SolverChoice {
    /// The uncapped exact baseline.
    Exact,
    /// The exact baseline with a candidate budget.
    ExactCapped(u64),
    /// SM-LSH with the given constraint-handling mode.
    SmLsh(ConstraintMode),
    /// DV-FDP with the given constraint-handling mode.
    DvFdp(ConstraintMode),
    /// The Table-2 recommendation for the problem (SM-LSH-Fo or DV-FDP-Fo).
    Recommended,
}

impl SolverChoice {
    /// Build the solver this choice denotes for `problem`.
    pub fn instantiate(&self, problem: &TagDmProblem) -> Box<dyn Solver + Send + Sync> {
        match *self {
            SolverChoice::Exact => Box::new(ExactSolver::new()),
            SolverChoice::ExactCapped(cap) => Box::new(ExactSolver::with_cap(cap)),
            SolverChoice::SmLsh(mode) => Box::new(SmLshSolver::new(mode)),
            SolverChoice::DvFdp(mode) => Box::new(DvFdpSolver::new(mode)),
            SolverChoice::Recommended => recommend(problem),
        }
    }

    /// A stable, distinct display name for each choice (reports and logs print it).
    /// `Recommended` maps to a fixed tag, not to the solver it picks for a problem.
    pub fn tag(&self) -> String {
        match *self {
            SolverChoice::Exact => "exact".to_string(),
            SolverChoice::ExactCapped(cap) => format!("exact-cap={cap}"),
            SolverChoice::SmLsh(mode) => format!("sm-lsh{}", mode.suffix()),
            SolverChoice::DvFdp(mode) => format!("dv-fdp{}", mode.suffix()),
            SolverChoice::Recommended => "recommended".to_string(),
        }
    }
}

/// One unit of work for the engine: a problem, the context recipe to solve it over,
/// the solver to run and an optional deadline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveRequest {
    /// The context recipe.
    pub context: ContextSpec,
    /// The TagDM problem instance.
    pub problem: TagDmProblem,
    /// The solver to run.
    pub solver: SolverChoice,
    /// Optional deadline, measured from submission. When it fires while the job is
    /// queued the job is not started; when it fires mid-solve the solver is cancelled
    /// cooperatively and the best result found so far is returned.
    pub deadline: Option<Duration>,
}

impl SolveRequest {
    /// A request without a deadline.
    pub fn new(context: ContextSpec, problem: TagDmProblem, solver: SolverChoice) -> Self {
        SolveRequest {
            context,
            problem,
            solver,
            deadline: None,
        }
    }

    /// Attach a deadline relative to submission time.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Which cache layers served a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheReport {
    /// No context was built for the job: it came from the context cache or an
    /// installed context, or was not needed because the outcome was cached.
    pub context_hit: bool,
    /// The whole outcome came from the outcome cache; no solver ran.
    pub outcome_hit: bool,
}

/// The engine's answer to a [`SolveRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveResponse {
    /// The job this answers.
    pub job: JobId,
    /// The solver outcome, or why none could be produced. A solve cancelled mid-run by
    /// its deadline still yields `Ok` with the best result found so far;
    /// `deadline_hit` records the truncation.
    pub result: Result<SolverOutcome, EngineError>,
    /// Which cache layers served the job.
    pub cache: CacheReport,
    /// Whether the job's deadline fired (in queue or mid-solve).
    pub deadline_hit: bool,
    /// Time spent queued before a worker picked the job up.
    pub queue_wait: Duration,
    /// Total time from submission to response.
    pub total: Duration,
}

/// A handle to a submitted job: resolves to the [`SolveResponse`] when the worker pool
/// answers.
pub struct JobTicket {
    pub(crate) id: JobId,
    pub(crate) receiver: Receiver<SolveResponse>,
}

impl JobTicket {
    /// The submitted job's id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Block until the response arrives. If the engine shuts down first, a synthetic
    /// [`EngineError::Shutdown`] response is returned.
    pub fn wait(self) -> SolveResponse {
        let id = self.id;
        self.receiver
            .recv()
            .unwrap_or_else(|_| shutdown_response(id))
    }

    /// Block for at most `timeout`. `None` means the job is still running.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<SolveResponse> {
        match self.receiver.recv_timeout(timeout) {
            Ok(response) => Some(response),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(shutdown_response(self.id)),
        }
    }
}

pub(crate) fn shutdown_response(id: JobId) -> SolveResponse {
    SolveResponse {
        job: id,
        result: Err(EngineError::Shutdown),
        cache: CacheReport::default(),
        deadline_hit: false,
        queue_wait: Duration::ZERO,
        total: Duration::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagdm_core::catalog::{problem_1, problem_6, ProblemParams};

    #[test]
    fn solver_choice_tags_are_distinct_and_stable() {
        let tags = [
            SolverChoice::Exact.tag(),
            SolverChoice::ExactCapped(100).tag(),
            SolverChoice::ExactCapped(200).tag(),
            SolverChoice::SmLsh(ConstraintMode::Filter).tag(),
            SolverChoice::SmLsh(ConstraintMode::Fold).tag(),
            SolverChoice::DvFdp(ConstraintMode::Fold).tag(),
            SolverChoice::Recommended.tag(),
        ];
        let mut dedup = tags.to_vec();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), tags.len());
    }

    #[test]
    fn instantiate_matches_solver_names() {
        let params = ProblemParams::default();
        let p1 = problem_1(params);
        let p6 = problem_6(params);
        assert_eq!(SolverChoice::Exact.instantiate(&p1).name(), "Exact");
        assert_eq!(
            SolverChoice::SmLsh(ConstraintMode::Fold)
                .instantiate(&p1)
                .name(),
            "SM-LSH-Fo"
        );
        assert_eq!(
            SolverChoice::DvFdp(ConstraintMode::Filter)
                .instantiate(&p6)
                .name(),
            "DV-FDP-Fi"
        );
        // The recommendation follows Table 2: similarity goal -> SM-LSH, diversity -> DV-FDP.
        assert_eq!(
            SolverChoice::Recommended.instantiate(&p1).name(),
            "SM-LSH-Fo"
        );
        assert_eq!(
            SolverChoice::Recommended.instantiate(&p6).name(),
            "DV-FDP-Fo"
        );
    }

    #[test]
    fn fault_responses_round_trip_through_serde() {
        // A response carrying the new fault-surface errors stays wire-transportable
        // (the roadmap's network-service direction depends on it).
        for error in [
            EngineError::WorkerPanicked {
                payload: "solver overflowed".into(),
            },
            EngineError::Overloaded { capacity: 8 },
        ] {
            let response = SolveResponse {
                job: JobId(42),
                result: Err(error),
                cache: CacheReport::default(),
                deadline_hit: false,
                queue_wait: Duration::from_micros(120),
                total: Duration::from_millis(3),
            };
            let json = serde_json::to_string(&response).expect("responses serialize");
            let back: SolveResponse = serde_json::from_str(&json).expect("responses deserialize");
            assert_eq!(back, response);
        }
    }

    #[test]
    fn request_builder_sets_the_deadline() {
        let params = ProblemParams::default();
        let request = SolveRequest::new(
            ContextSpec::installed("ctx"),
            problem_1(params),
            SolverChoice::Recommended,
        )
        .with_deadline(Duration::from_millis(250));
        assert_eq!(request.deadline, Some(Duration::from_millis(250)));
    }
}
