//! End-to-end tests of the engine as a service: a mixed concurrent workload must give
//! bit-identical answers to direct `Solver::solve` calls, and repeated requests must be
//! served from the outcome cache.

use std::time::Duration;

use tagdm_core::catalog::{problem_1, problem_2, problem_4, problem_6, ProblemParams};
use tagdm_core::context::{MiningContext, SummarizerChoice};
use tagdm_core::problem::TagDmProblem;
use tagdm_core::solvers::{ConstraintMode, SolverOutcome};
use tagdm_data::dataset::Dataset;
use tagdm_data::generator::{GeneratorConfig, MovieLensStyleGenerator};
use tagdm_data::group::GroupingScheme;
use tagdm_engine::{
    ContextSpec, Engine, EngineConfig, EngineError, RetryPolicy, SolveRequest, SolverChoice,
};
use tagdm_topics::lda::LdaConfig;

const GROUPING: [(&str, &str); 3] = [("user", "gender"), ("user", "age"), ("item", "genre")];
const MIN_GROUP_SIZE: usize = 5;
const SUMMARIZER: SummarizerChoice = SummarizerChoice::FrequencyNormalized;

fn params() -> ProblemParams {
    ProblemParams {
        k: 3,
        min_support: 5,
        user_threshold: 0.2,
        item_threshold: 0.2,
    }
}

/// The small corpus generated from `seed`.
fn corpus(seed: u64) -> Dataset {
    MovieLensStyleGenerator::new(GeneratorConfig::small().with_seed(seed)).generate()
}

/// A context over `dataset`, built the way the engine builds it.
fn direct_context(dataset: &Dataset) -> MiningContext {
    let groups = GroupingScheme::over(dataset, &GROUPING)
        .expect("grouping attributes exist")
        .min_group_size(MIN_GROUP_SIZE)
        .enumerate(dataset);
    MiningContext::build(dataset, groups, SUMMARIZER)
}

fn engine_with_registered_corpus(workers: usize) -> (Engine, ContextSpec) {
    let engine = Engine::new(EngineConfig::default().with_workers(workers));
    let dataset = MovieLensStyleGenerator::new(GeneratorConfig::small()).generate();
    engine.register_dataset("ml-small", dataset);
    let spec = ContextSpec::grouped("ml-small", &GROUPING, MIN_GROUP_SIZE, SUMMARIZER);
    (engine, spec)
}

/// A mixed Table-1 workload covering every solver family.
fn mixed_workload() -> Vec<(TagDmProblem, SolverChoice)> {
    let params = params();
    vec![
        (problem_1(params), SolverChoice::Exact),
        (problem_1(params), SolverChoice::SmLsh(ConstraintMode::Fold)),
        (
            problem_2(params),
            SolverChoice::SmLsh(ConstraintMode::Filter),
        ),
        (problem_2(params), SolverChoice::ExactCapped(100_000)),
        (problem_4(params), SolverChoice::Recommended),
        (problem_6(params), SolverChoice::Exact),
        (problem_6(params), SolverChoice::DvFdp(ConstraintMode::Fold)),
        (problem_6(params), SolverChoice::Recommended),
    ]
}

#[test]
fn concurrent_engine_solves_match_direct_solver_calls() {
    let (engine, spec) = engine_with_registered_corpus(4);
    assert!(engine.num_workers() >= 4);
    let context =
        direct_context(&MovieLensStyleGenerator::new(GeneratorConfig::small()).generate());
    let workload = mixed_workload();

    // Everything submitted up front: the batch runs concurrently across the pool.
    let responses = engine.solve_batch(
        workload
            .iter()
            .map(|(problem, solver)| SolveRequest::new(spec.clone(), problem.clone(), *solver))
            .collect(),
    );

    assert_eq!(responses.len(), workload.len());
    for ((problem, choice), response) in workload.iter().zip(responses) {
        let engine_outcome = response.result.expect("mixed workload solves succeed");
        let direct = choice.instantiate(problem).solve(&context, problem);
        // Everything but wall-clock time must be bit-identical to the direct call.
        assert_eq!(engine_outcome.solver, direct.solver);
        assert_eq!(engine_outcome.groups, direct.groups);
        assert_eq!(engine_outcome.objective, direct.objective);
        assert_eq!(engine_outcome.feasible, direct.feasible);
        assert_eq!(
            engine_outcome.candidates_evaluated,
            direct.candidates_evaluated
        );
        assert!(!response.deadline_hit);
    }

    let metrics = engine.metrics();
    assert_eq!(metrics.jobs_submitted, workload.len() as u64);
    assert_eq!(metrics.jobs_completed, workload.len() as u64);
    // One grouped context build, shared by every job in the batch (two may race on the
    // first-miss build, so at least one miss rather than exactly one).
    assert!(metrics.context_misses >= 1);
    assert_eq!(
        metrics.context_hits + metrics.context_misses,
        workload.len() as u64
    );
}

#[test]
fn repeated_request_is_a_cache_hit_with_an_equal_outcome() {
    let (engine, spec) = engine_with_registered_corpus(4);
    let request = SolveRequest::new(
        spec,
        problem_1(params()),
        SolverChoice::SmLsh(ConstraintMode::Fold),
    );

    let first = engine.solve(request.clone());
    assert!(!first.cache.outcome_hit);
    let first_outcome = first.result.expect("first solve succeeds");

    let second = engine.solve(request);
    assert!(
        second.cache.outcome_hit,
        "repeat must hit the outcome cache"
    );
    assert!(
        second.cache.context_hit,
        "repeat must hit the context cache"
    );
    let second_outcome = second.result.expect("cached solve succeeds");

    // Full structural equality, `elapsed` included: the cache returns the stored
    // outcome, it does not re-run the solver.
    assert_eq!(first_outcome, second_outcome);

    let metrics = engine.metrics();
    assert_eq!(metrics.outcome_hits, 1);
    assert_eq!(metrics.outcome_misses, 1);
    assert_eq!(metrics.solve_hit.count, 1);
    assert_eq!(metrics.solve_miss.count, 1);
}

#[test]
fn zero_deadline_expires_in_queue_without_running_the_solver() {
    let (engine, spec) = engine_with_registered_corpus(1);
    let request = SolveRequest::new(spec, problem_1(params()), SolverChoice::Exact)
        .with_deadline(Duration::ZERO);
    let response = engine.solve(request);
    assert!(response.deadline_hit);
    match response.result {
        Err(EngineError::DeadlineExpiredInQueue { .. }) => {}
        other => panic!("expected a queue-expiry error, got {other:?}"),
    }
    assert_eq!(engine.metrics().jobs_expired, 1);
}

#[test]
fn deadline_beyond_instant_range_never_fires() {
    let (engine, spec) = engine_with_registered_corpus(1);
    let request = SolveRequest::new(spec, problem_1(params()), SolverChoice::Recommended)
        .with_deadline(Duration::MAX);
    let response = engine.solve(request);
    assert!(!response.deadline_hit);
    assert!(response.result.is_ok(), "{:?}", response.result);
    assert_eq!(engine.metrics().jobs_panicked, 0);
}

#[test]
fn unknown_names_surface_typed_errors() {
    let (engine, _) = engine_with_registered_corpus(2);
    let missing_dataset = engine.solve(SolveRequest::new(
        ContextSpec::grouped("nope", &GROUPING, MIN_GROUP_SIZE, SUMMARIZER),
        problem_1(params()),
        SolverChoice::Recommended,
    ));
    assert_eq!(
        missing_dataset.result,
        Err(EngineError::UnknownDataset("nope".to_string()))
    );

    let missing_context = engine.solve(SolveRequest::new(
        ContextSpec::installed("nope"),
        problem_1(params()),
        SolverChoice::Recommended,
    ));
    assert_eq!(
        missing_context.result,
        Err(EngineError::UnknownContext("nope".to_string()))
    );
}

/// An infinite weight (`1e999` in a hand-written SOLVE frame) would make every
/// objective `inf`, which JSON cannot carry back in the ANSWER.
#[test]
fn infinite_objective_weight_is_an_invalid_problem() {
    let (engine, spec) = engine_with_registered_corpus(1);
    let mut problem = problem_1(params());
    problem.objectives[0].weight = f64::INFINITY;
    let response = engine.solve(SolveRequest::new(spec, problem, SolverChoice::Exact));
    match response.result {
        Err(EngineError::InvalidProblem(_)) => {}
        other => panic!("expected InvalidProblem, got {other:?}"),
    }
}

/// An LDA configuration the sampler cannot run is the caller's error: answered as a
/// non-transient `InvalidGrouping`, not as a worker panic that retries and breakers
/// would count as a fault.
#[test]
fn unrunnable_lda_config_is_an_invalid_recipe_not_a_panic() {
    let (engine, _) = engine_with_registered_corpus(1);
    let fast = LdaConfig::fast(4);
    let invalid = [
        LdaConfig::fast(0),
        LdaConfig::fast(70_000),
        LdaConfig {
            burn_in: fast.iterations,
            ..fast
        },
        LdaConfig { alpha: 0.0, ..fast },
        LdaConfig {
            alpha: 1e308,
            ..fast
        },
        LdaConfig {
            beta: 1e308,
            ..fast
        },
    ];
    for config in invalid {
        let spec = ContextSpec::grouped(
            "ml-small",
            &GROUPING,
            MIN_GROUP_SIZE,
            SummarizerChoice::Lda(config),
        );
        let request = SolveRequest::new(spec, problem_1(params()), SolverChoice::Exact);
        let response = engine.solve_with(request, RetryPolicy::attempts(3));
        match response.result {
            Err(error @ EngineError::InvalidGrouping(_)) => assert!(!error.is_transient()),
            other => panic!("expected InvalidGrouping for {config:?}, got {other:?}"),
        }
    }
    let metrics = engine.metrics();
    assert_eq!(metrics.jobs_panicked, 0);
    assert_eq!(metrics.jobs_retried, 0);
}

/// Solve `request` on the engine and check the answer equals a direct solve over
/// `context`; returns the engine's outcome.
fn assert_solves_like_direct(
    engine: &Engine,
    request: &SolveRequest,
    context: &MiningContext,
) -> SolverOutcome {
    let outcome = engine
        .solve(request.clone())
        .result
        .expect("solve succeeds");
    let direct = request
        .solver
        .instantiate(&request.problem)
        .solve(context, &request.problem);
    assert_eq!(outcome.groups, direct.groups);
    assert_eq!(outcome.objective.to_bits(), direct.objective.to_bits());
    assert_eq!(outcome.feasible, direct.feasible);
    assert_eq!(outcome.candidates_evaluated, direct.candidates_evaluated);
    outcome
}

/// The solvers run on replaced data: Exact, and SM-LSH-Fo, whose first solve fills the
/// old context's LSH memo.
const REPLACED_DATA_SOLVERS: [SolverChoice; 2] = [
    SolverChoice::Exact,
    SolverChoice::SmLsh(ConstraintMode::Fold),
];

/// Replacing a dataset under its name must not serve the context, its SM-LSH memo or
/// the outcomes cached for the old data.
#[test]
fn re_registered_dataset_is_solved_on_its_new_data() {
    for solver in REPLACED_DATA_SOLVERS {
        let engine = Engine::new(EngineConfig::default().with_workers(2));
        let spec = ContextSpec::grouped("ml", &GROUPING, MIN_GROUP_SIZE, SUMMARIZER);
        let request = SolveRequest::new(spec, problem_1(params()), solver);

        let (old, new) = (corpus(1), corpus(2));
        let (old_context, new_context) = (direct_context(&old), direct_context(&new));
        engine.register_dataset("ml", old);
        let before = assert_solves_like_direct(&engine, &request, &old_context);
        engine.register_dataset("ml", new);
        let after = assert_solves_like_direct(&engine, &request, &new_context);
        assert_ne!(
            before.groups, after.groups,
            "{solver:?}: the two corpora must disagree"
        );
        assert_eq!(
            engine.metrics().context_misses,
            2,
            "{solver:?}: the new data gets its own build"
        );
    }
}

/// Reinstalling a context under its name must not serve the replaced context's SM-LSH
/// memo or the outcomes cached for it.
#[test]
fn reinstalled_context_is_solved_on_its_new_data() {
    for solver in REPLACED_DATA_SOLVERS {
        let engine = Engine::new(EngineConfig::default().with_workers(2));
        let request = SolveRequest::new(ContextSpec::installed("bin"), problem_1(params()), solver);

        let old_context = direct_context(&corpus(1));
        let new_context = direct_context(&corpus(2));
        engine.install_context("bin", old_context.clone());
        let before = assert_solves_like_direct(&engine, &request, &old_context);
        engine.install_context("bin", new_context.clone());
        let after = assert_solves_like_direct(&engine, &request, &new_context);
        assert_ne!(
            before.groups, after.groups,
            "{solver:?}: the two corpora must disagree"
        );
    }
}

/// A spec whose one attribute name spells out another spec's two attributes
/// (`"gender,item.genre"` on the user dimension) is a different recipe: an engine that
/// has served the two-attribute spec must answer it as a fresh engine does.
#[test]
fn attribute_names_with_separators_are_not_another_specs_cache_entry() {
    let two_attributes = ContextSpec::grouped(
        "ml-small",
        &[("user", "gender"), ("item", "genre")],
        MIN_GROUP_SIZE,
        SUMMARIZER,
    );
    let one_attribute = ContextSpec::grouped(
        "ml-small",
        &[("user", "gender,item.genre")],
        MIN_GROUP_SIZE,
        SUMMARIZER,
    );
    let request = |spec: &ContextSpec| {
        SolveRequest::new(spec.clone(), problem_1(params()), SolverChoice::Exact)
    };

    let (fresh, _) = engine_with_registered_corpus(1);
    let expected = fresh.solve(request(&one_attribute)).result;
    assert!(
        matches!(expected, Err(EngineError::InvalidGrouping(_))),
        "{expected:?}"
    );

    let (engine, _) = engine_with_registered_corpus(1);
    let served = engine.solve(request(&two_attributes));
    assert!(served.result.is_ok(), "{:?}", served.result);
    let response = engine.solve(request(&one_attribute));
    assert_eq!(response.result, expected);
    assert!(!response.cache.outcome_hit);
}
