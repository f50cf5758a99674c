//! Request streams, reference answers computed outside the timed phases, and the
//! gate that compares every answer with its reference.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::time::{Duration, Instant};

use tagdm_core::context::MiningContext;
use tagdm_core::solvers::SolverOutcome;
use tagdm_data::group::GroupingScheme;
use tagdm_engine::{Engine, EngineConfig, SolveRequest, SolverChoice};

use crate::inputs::{Churn, Inputs, Kind, MIN_GROUP};
use crate::system::System;
use crate::traffic::{Phase, Traffic};

/// Reference answers by request key.
pub type Reference = HashMap<usize, SolverOutcome>;

/// The client cycles through the pool in the schedule's order.
pub struct PoolTraffic<'a> {
    pub inputs: &'a Inputs,
    pub reference: &'a Reference,
}

impl Traffic for PoolTraffic<'_> {
    fn next(&self, j: usize) -> (usize, SolveRequest) {
        let order = &self.inputs.schedule;
        let key = order[j % order.len()];
        (key, self.inputs.pool[key].clone())
    }

    fn expected(&self, key: usize) -> Option<&SolverOutcome> {
        self.reference.get(&key)
    }
}

/// context-churn: registers each snapshot version the first time the client needs it,
/// and never again once the traffic has wrapped round to it.
pub struct ChurnTraffic<'a> {
    churn: &'a Churn,
    engine: &'a Engine,
    reference: &'a Reference,
    /// Versions registered so far (set-up registers version 0).
    registered: Cell<usize>,
    /// Wall time of each `Engine::register_dataset` call.
    pub registrations: RefCell<Vec<Duration>>,
}

impl<'a> ChurnTraffic<'a> {
    pub fn new(churn: &'a Churn, engine: &'a Engine, reference: &'a Reference) -> Self {
        ChurnTraffic {
            churn,
            engine,
            reference,
            registered: Cell::new(1),
            registrations: RefCell::new(Vec::new()),
        }
    }
}

impl Traffic for ChurnTraffic<'_> {
    fn next(&self, j: usize) -> (usize, SolveRequest) {
        let request = self.churn.request(j);
        while self.registered.get() <= request.version {
            let version = self.registered.get();
            let snapshot = self.churn.snapshots[version % self.churn.snapshots.len()].clone();
            let started = Instant::now();
            self.engine
                .register_dataset(Churn::version_name(version), snapshot);
            self.registrations.borrow_mut().push(started.elapsed());
            self.registered.set(version + 1);
        }
        (self.churn.key(&request), request.request)
    }

    fn expected(&self, key: usize) -> Option<&SolverOutcome> {
        self.reference.get(&key)
    }
}

/// Solve every job; each yields keyed outcomes.
fn solve_all<J>(
    jobs: &[J],
    solve: impl Fn(&J) -> Result<Vec<(usize, SolverOutcome)>, String>,
) -> Result<Reference, String> {
    let mut reference = Reference::new();
    for job in jobs {
        reference.extend(solve(job)?);
    }
    Ok(reference)
}

/// A request's answer straight from its solver, without the engine.
pub fn direct(context: &MiningContext, request: &SolveRequest) -> SolverOutcome {
    request
        .solver
        .instantiate(&request.problem)
        .solve(context, &request.problem)
}

/// Reference answers for the pool workloads: mine-* solve directly over the
/// engine's own context; serve-hits asks a separate in-process engine.
pub fn pool_reference(inputs: &Inputs, system: &System) -> Result<Reference, String> {
    match inputs.kind {
        Kind::MineExact | Kind::MineHeuristic => {
            let context = system.engines[0]
                .context(&inputs.probe_spec)
                .map_err(|e| format!("reference context: {e}"))?;
            let keys: Vec<usize> = (0..inputs.pool.len()).collect();
            solve_all(&keys, |&key| {
                Ok(vec![(key, direct(&context, &inputs.pool[key]))])
            })
        }
        Kind::ServeHits => {
            let engine = Engine::new(EngineConfig::default().with_workers(1));
            for (name, dataset) in &inputs.datasets {
                engine.register_dataset(name.clone(), dataset.clone());
            }
            let responses = engine.solve_batch(inputs.pool.clone());
            responses
                .into_iter()
                .enumerate()
                .map(|(key, response)| {
                    response
                        .result
                        .map(|outcome| (key, outcome))
                        .map_err(|e| format!("reference engine: {e}"))
                })
                .collect()
        }
        Kind::ContextChurn => {
            churn_reference(inputs.churn.as_ref().expect("context-churn has a plan"))
        }
    }
}

/// Reference answers for every context-churn key: a direct context build on each
/// snapshot, then a direct solve of every problem.
fn churn_reference(churn: &Churn) -> Result<Reference, String> {
    let problems = churn.problems.len();
    let contexts = churn.snapshots.len() * churn.templates.len();
    let jobs: Vec<(usize, Vec<usize>)> = (0..contexts)
        .map(|context| {
            (
                context,
                (context * problems..(context + 1) * problems).collect(),
            )
        })
        .collect();
    solve_all(&jobs, |(context_key, keys)| {
        let snapshot = &churn.snapshots[context_key / churn.templates.len()];
        let (grouping, summarizer) = churn.templates[context_key % churn.templates.len()];
        let groups = GroupingScheme::over(snapshot, grouping)
            .map_err(|e| format!("reference grouping: {e}"))?
            .min_group_size(MIN_GROUP)
            .enumerate(snapshot);
        let context = MiningContext::build(snapshot, groups, summarizer);
        Ok(keys
            .iter()
            .map(|&key| {
                let problem = &churn.problems[key % problems];
                (
                    key,
                    SolverChoice::Recommended
                        .instantiate(problem)
                        .solve(&context, problem),
                )
            })
            .collect())
    })
}

/// Whether two outcomes are the same answer: groups, objective bits, feasibility
/// and candidate count.
pub fn same_answer(a: &SolverOutcome, b: &SolverOutcome) -> bool {
    a.groups == b.groups
        && a.objective.to_bits() == b.objective.to_bits()
        && a.feasible == b.feasible
        && a.candidates_evaluated == b.candidates_evaluated
}

/// Attempted and failed operations, with the first few failures described.
#[derive(Default)]
pub struct Verdict {
    pub attempted: usize,
    pub failed: usize,
    pub messages: Vec<String>,
}

impl Verdict {
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 5 {
            self.messages.push(message);
        }
    }

    /// Count a phase's answers; its wrong ones fail.
    pub fn add(&mut self, phase: &Phase) {
        self.attempted += phase.replies;
        self.failed += phase.failed;
        for message in &phase.failures {
            if self.messages.len() < 5 {
                self.messages.push(message.clone());
            }
        }
    }
}
