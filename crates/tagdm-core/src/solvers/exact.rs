//! The brute-force Exact baseline (Section 3.1 of the paper).
//!
//! Enumerates every candidate set of groups of size `k_lo … k_hi`, checks feasibility and
//! keeps the feasible set with the largest objective. The number of candidate sets is
//! `Σ_j C(n, j)` — exponential in `k` — which is exactly why the paper develops SM-LSH
//! and DV-FDP; the Exact solver exists as the ground-truth baseline for the quality and
//! running-time comparisons of Figures 3–8.
//!
//! The enumeration is a depth-first search over a per-solve evaluation kernel that
//! extends each candidate from its parent instead of re-scoring it from scratch:
//!
//! * **Support.** [`MiningContext::support`] of the current set, which the DFS keeps in
//!   ascending group order: on an enumerated context, whose groups partition the
//!   actions, that is the sum of the set's group sizes.
//! * **Constraints and objectives.** Every constraint and objective function is a
//!   pair-wise aggregation, so a candidate's values come from the scores of its pairs,
//!   and the solve scores each pair at most once per function. When group `c` is pushed
//!   at a depth that later pushes still follow, its *row* is filled, once per solve:
//!   `c` scored against every `d > c` under every function, the functions interleaved.
//!   The rows live in one flat buffer that grows a row at a time, with one row offset
//!   per group. The rows are the only score source of the candidate's constraints and
//!   objective, which the problem's own compositions value (see
//!   [`DualMiningFunction::value`]).
//!
//! A row is filled only when its group is pushed below the last depth, so a capped solve
//! over many groups pays for the rows of the few groups it reached, and a `k = 1` solve
//! scores no pair. The rows hold at most `F · n(n − 1)/2` scores for `F` functions over
//! `n` groups (5 KB for three functions over 21 groups) and are dropped with the solve.

use std::time::Instant;

use crate::context::MiningContext;
use crate::functions::DualMiningFunction;
use crate::problem::TagDmProblem;
use crate::solvers::{CancelToken, Solver, SolverOutcome};

/// How many candidate evaluations pass between cancellation checks: frequent enough
/// that a deadline lands within microseconds, rare enough to stay off the hot path.
const CANCEL_CHECK_MASK: u64 = 0x3F;

/// Exhaustive enumeration solver.
#[derive(Debug, Clone, Default)]
pub struct ExactSolver {
    /// Optional safety cap on the number of candidate sets evaluated (0 = unlimited).
    /// When the cap is hit the best result found so far is returned; the outcome's
    /// `candidates_evaluated` reveals the truncation.
    pub max_candidates: u64,
}

impl ExactSolver {
    /// An uncapped exact solver.
    pub fn new() -> Self {
        ExactSolver { max_candidates: 0 }
    }

    /// An exact solver that stops after evaluating `max_candidates` candidate sets.
    pub fn with_cap(max_candidates: u64) -> Self {
        ExactSolver { max_candidates }
    }
}

impl Solver for ExactSolver {
    fn name(&self) -> String {
        "Exact".to_string()
    }

    fn solve_cancellable(
        &self,
        ctx: &MiningContext,
        problem: &TagDmProblem,
        cancel: &CancelToken,
    ) -> SolverOutcome {
        let start = Instant::now();
        let mut kernel = Kernel::new(ctx, problem, self.max_candidates, cancel);
        kernel.descend(0);
        let (best, evaluated) = (kernel.best, kernel.evaluated);
        SolverOutcome::found(self.name(), ctx, problem, best, evaluated, start.elapsed())
    }
}

/// No row: the group has not been pushed at a depth that later pushes follow.
const UNFILLED: usize = usize::MAX;

/// The per-solve state of the depth-first enumeration.
struct Kernel<'a> {
    ctx: &'a MiningContext,
    problem: &'a TagDmProblem,
    cancel: &'a CancelToken,
    cap: u64,
    /// The candidate set under evaluation, in push order (ascending group index).
    set: Vec<usize>,
    /// The problem's constraint functions, then its objective functions.
    functions: Vec<DualMiningFunction>,
    /// The filled rows, back to back: group `c`'s row holds, for each `d > c` in order,
    /// the pair `(c, d)`'s score under every function.
    rows: Vec<f64>,
    /// Per group, the offset of its row in `rows`, or [`UNFILLED`].
    row_start: Vec<usize>,
    best: Option<(Vec<usize>, f64)>,
    evaluated: u64,
    exhausted: bool,
}

impl<'a> Kernel<'a> {
    fn new(
        ctx: &'a MiningContext,
        problem: &'a TagDmProblem,
        cap: u64,
        cancel: &'a CancelToken,
    ) -> Self {
        let depth = problem.max_groups.min(ctx.num_groups());
        let functions = problem
            .constraints
            .iter()
            .map(|c| c.function)
            .chain(problem.objectives.iter().map(|o| o.function))
            .collect();
        Kernel {
            ctx,
            problem,
            cancel,
            cap,
            set: Vec::with_capacity(depth),
            functions,
            rows: Vec::new(),
            row_start: vec![UNFILLED; ctx.num_groups()],
            best: None,
            evaluated: 0,
            exhausted: false,
        }
    }

    /// Evaluate the current set if it is large enough, then extend it with every group
    /// from `start` on, in index order.
    fn descend(&mut self, start: usize) {
        if self.exhausted {
            return;
        }
        let len = self.set.len();
        if len >= self.problem.min_groups {
            self.evaluated += 1;
            self.evaluate();
            if self.cap > 0 && self.evaluated >= self.cap {
                self.exhausted = true;
                return;
            }
            if self.evaluated & CANCEL_CHECK_MASK == 0 && self.cancel.is_cancelled() {
                self.exhausted = true;
                return;
            }
        }
        if len == self.problem.max_groups {
            return;
        }
        for c in start..self.ctx.num_groups() {
            self.push(c);
            self.descend(c + 1);
            self.set.pop();
            if self.exhausted {
                return;
            }
        }
    }

    /// Append group `c`. If later pushes follow, the set's pairs with `c` first are read
    /// from `c`'s row, so fill it unless an earlier push did.
    fn push(&mut self, c: usize) {
        self.set.push(c);
        if self.set.len() < self.problem.max_groups && self.row_start[c] == UNFILLED {
            let n = self.ctx.num_groups();
            self.row_start[c] = self.rows.len();
            self.rows.reserve((n - c - 1) * self.functions.len());
            for d in c + 1..n {
                for function in &self.functions {
                    self.rows.push(function.evaluate_pair(self.ctx, c, d));
                }
            }
        }
    }

    /// Function `f`'s score of the pair at positions `i < j` of the current set, read
    /// from the row of the pair's first member. The set's last member heads no pair, so
    /// its row, which may be unfilled, is never read.
    #[inline]
    fn score(&self, f: usize, i: usize, j: usize) -> f64 {
        let (a, b) = (self.set[i], self.set[j]);
        self.rows[self.row_start[a] + (b - a - 1) * self.functions.len() + f]
    }

    /// Check the current set's feasibility and, if feasible, keep it when it beats the
    /// incumbent.
    fn evaluate(&mut self) {
        let problem = self.problem;
        let len = self.set.len();
        // `size_ok` holds by construction: `descend` evaluates sets of
        // `min_groups..=max_groups` groups only.
        let feasible = self.ctx.support(&self.set) >= problem.min_support
            && problem.constraints_hold(len, |f, i, j| self.score(f, i, j));
        if !feasible {
            return;
        }
        let offset = problem.constraints.len();
        let objective = problem.objective_from(len, |o, i, j| self.score(offset + o, i, j));
        if self.best.as_ref().is_none_or(|(_, b)| objective > *b) {
            self.best = Some((self.set.clone(), objective));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{problem, problem_1, problem_6, ProblemParams};
    use crate::context::SummarizerChoice;
    use crate::criteria::{Aggregator, MiningCriterion, PairwiseKind, TaggingDimension};
    use crate::problem::{ConstraintSpec, ObjectiveSpec, TagDmProblem};
    use crate::solvers::test_support::{
        overlapping_context, random_context, small_context, GROUPINGS,
    };
    use proptest::prelude::*;
    use std::time::Duration;
    use tagdm_data::generator::{GeneratorConfig, MovieLensStyleGenerator};
    use tagdm_data::group::GroupingScheme;
    use tagdm_topics::lda::LdaConfig;

    /// The reference oracle: the depth-first enumeration that scores every candidate
    /// from scratch through [`TagDmProblem::feasible`] and [`TagDmProblem::objective`].
    /// The kernel must reproduce its outcomes bit for bit.
    fn reference(
        solver: &ExactSolver,
        ctx: &MiningContext,
        problem: &TagDmProblem,
        cancel: Option<&CancelToken>,
    ) -> SolverOutcome {
        struct Search<'a> {
            ctx: &'a MiningContext,
            problem: &'a TagDmProblem,
            cancel: Option<&'a CancelToken>,
            cap: u64,
            current: Vec<usize>,
            best: Option<(Vec<usize>, f64)>,
            evaluated: u64,
            exhausted: bool,
        }
        impl Search<'_> {
            fn recurse(&mut self, start_idx: usize) {
                if self.exhausted {
                    return;
                }
                if self.current.len() >= self.problem.min_groups {
                    self.evaluated += 1;
                    if self.problem.feasible(self.ctx, &self.current) {
                        let objective = self.problem.objective(self.ctx, &self.current);
                        if self.best.as_ref().is_none_or(|(_, b)| objective > *b) {
                            self.best = Some((self.current.clone(), objective));
                        }
                    }
                    if self.cap > 0 && self.evaluated >= self.cap {
                        self.exhausted = true;
                        return;
                    }
                    if self.evaluated & CANCEL_CHECK_MASK == 0 {
                        if let Some(token) = self.cancel {
                            if token.is_cancelled() {
                                self.exhausted = true;
                                return;
                            }
                        }
                    }
                }
                if self.current.len() == self.problem.max_groups {
                    return;
                }
                for i in start_idx..self.ctx.num_groups() {
                    self.current.push(i);
                    self.recurse(i + 1);
                    self.current.pop();
                    if self.exhausted {
                        return;
                    }
                }
            }
        }
        let mut search = Search {
            ctx,
            problem,
            cancel,
            cap: solver.max_candidates,
            current: Vec::new(),
            best: None,
            evaluated: 0,
            exhausted: false,
        };
        search.recurse(0);
        let (best, evaluated) = (search.best, search.evaluated);
        SolverOutcome::found(solver.name(), ctx, problem, best, evaluated, Duration::ZERO)
    }

    /// Run the kernel and the oracle and require identical outcomes.
    fn assert_matches_reference(
        solver: &ExactSolver,
        ctx: &MiningContext,
        problem: &TagDmProblem,
        cancel: Option<&CancelToken>,
    ) {
        let kernel = match cancel {
            Some(token) => solver.solve_cancellable(ctx, problem, token),
            None => solver.solve(ctx, problem),
        };
        let oracle = reference(solver, ctx, problem, cancel);
        let what = problem.describe();
        assert_eq!(kernel.groups, oracle.groups, "groups: {what}");
        assert_eq!(
            kernel.objective.to_bits(),
            oracle.objective.to_bits(),
            "objective {} vs {}: {what}",
            kernel.objective,
            oracle.objective
        );
        assert_eq!(kernel.feasible, oracle.feasible, "feasible: {what}");
        assert_eq!(
            kernel.candidates_evaluated, oracle.candidates_evaluated,
            "candidates: {what}"
        );
    }

    /// Walk every candidate set through the kernel and require each function value to
    /// match the from-scratch evaluation bit for bit — every candidate, not only the
    /// winner, so a summation-order slip cannot hide behind the argmax.
    fn assert_every_candidate_matches(ctx: &MiningContext, problem: &TagDmProblem) {
        fn walk(kernel: &mut Kernel, start: usize) {
            let set = kernel.set.clone();
            let functions = kernel
                .problem
                .constraints
                .iter()
                .map(|c| c.function)
                .chain(kernel.problem.objectives.iter().map(|o| o.function));
            for (f, function) in functions.enumerate() {
                let expected = function.evaluate(kernel.ctx, &set);
                let value = function.value(set.len(), |i, j| kernel.score(f, i, j));
                assert_eq!(value.to_bits(), expected.to_bits(), "{set:?}");
            }
            if set.len() < kernel.problem.max_groups {
                for c in start..kernel.ctx.num_groups() {
                    kernel.push(c);
                    walk(kernel, c + 1);
                    kernel.set.pop();
                }
            }
        }
        walk(&mut Kernel::new(ctx, problem, 0, &CancelToken::new()), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_kernel_matches_the_reference_on_random_corpora(
            seed in 0u64..1_000,
            actions in 40usize..400,
            grouping in 0usize..GROUPINGS.len(),
            id in 1usize..7,
            k in 1usize..5,
            min_groups in 1usize..5,
            min_support in 1usize..80,
            threshold in 0.0f64..1.0,
        ) {
            let ctx = random_context(seed, actions, grouping);
            let params = ProblemParams {
                k,
                min_support,
                user_threshold: threshold,
                item_threshold: 1.0 - threshold,
            };
            let problem = problem(id, params).with_min_groups(min_groups.min(k));
            assert_matches_reference(&ExactSolver::new(), &ctx, &problem, None);
        }
    }

    #[test]
    fn kernel_matches_the_reference_for_every_aggregator_and_kind() {
        let ctx = small_context();
        let aggregators = [
            Aggregator::Mean,
            Aggregator::Min,
            Aggregator::Max,
            Aggregator::Sum,
        ];
        let kinds = [
            PairwiseKind::Structural,
            PairwiseKind::ItemSetJaccard,
            PairwiseKind::TagCosine,
        ];
        for aggregator in aggregators {
            for kind in kinds {
                for criterion in MiningCriterion::ALL {
                    let function = |dimension| {
                        crate::functions::DualMiningFunction::standard(dimension, criterion)
                            .with_kind(kind)
                            .with_aggregator(aggregator)
                    };
                    for k in 1..=4 {
                        let problem = TagDmProblem::new("kinds", k, 2)
                            .with_constraint(ConstraintSpec {
                                function: function(TaggingDimension::Users),
                                threshold: 0.3,
                            })
                            .with_objective(ObjectiveSpec {
                                function: function(TaggingDimension::Tags),
                                weight: 0.7,
                            })
                            .with_objective(ObjectiveSpec {
                                function: function(TaggingDimension::Items),
                                weight: 1.3,
                            });
                        assert_matches_reference(&ExactSolver::new(), &ctx, &problem, None);
                        assert_every_candidate_matches(&ctx, &problem);
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_matches_the_reference_under_caps_and_cancellation() {
        let ctx = small_context();
        let fired = CancelToken::new();
        fired.cancel();
        for id in 1..=6 {
            for k in [1, 3, 4, ctx.num_groups() + 1] {
                let problem = problem(
                    id,
                    ProblemParams {
                        k,
                        ..loose_params()
                    },
                );
                for cap in [1, 7, 100] {
                    assert_matches_reference(&ExactSolver::with_cap(cap), &ctx, &problem, None);
                }
                assert_matches_reference(&ExactSolver::new(), &ctx, &problem, Some(&fired));
            }
        }
    }

    #[test]
    fn kernel_matches_the_reference_on_the_medium_occupation_context() {
        // The benchmark's solver-bound traffic: Exact at k = 3 over the occupation
        // groups of the medium corpus, one request per support threshold 1..=20.
        let ds = MovieLensStyleGenerator::new(GeneratorConfig::medium()).generate();
        let groups = GroupingScheme::over(&ds, &[("user", "occupation")])
            .unwrap()
            .min_group_size(5)
            .enumerate(&ds);
        let summarizer = SummarizerChoice::Lda(LdaConfig::with_topics(25));
        let ctx = MiningContext::build(&ds, groups, summarizer);
        for i in 0..20 {
            let params = ProblemParams {
                k: 3,
                min_support: 1 + i,
                user_threshold: 0.0,
                item_threshold: 0.0,
            };
            assert_matches_reference(&ExactSolver::new(), &ctx, &problem(1 + i % 6, params), None);
        }
    }

    #[test]
    fn kernel_matches_the_reference_on_overlapping_groups() {
        // Support there is the merge, not the sum of the group sizes: thresholds past
        // the corpus size tell the two apart on every set holding the everyone group.
        let ctx = overlapping_context();
        for id in 1..=6 {
            for min_support in [1, 30, ctx.num_input_actions(), ctx.num_input_actions() + 1] {
                let params = ProblemParams {
                    k: 3,
                    min_support,
                    user_threshold: 0.0,
                    item_threshold: 0.0,
                };
                assert_matches_reference(&ExactSolver::new(), &ctx, &problem(id, params), None);
            }
        }
    }

    /// The groups whose rows `kernel` filled, in ascending order, after checking that the
    /// rows buffer holds exactly those rows, each once, and no more than the triangle of
    /// `F · n(n − 1)/2` scores.
    fn filled_rows(kernel: &Kernel) -> Vec<usize> {
        let n = kernel.ctx.num_groups();
        let stride = kernel.functions.len();
        let filled: Vec<usize> = (0..n)
            .filter(|&c| kernel.row_start[c] != UNFILLED)
            .collect();
        let held: usize = filled.iter().map(|&c| (n - c - 1) * stride).sum();
        assert_eq!(kernel.rows.len(), held, "a row was filled twice");
        assert!(kernel.rows.len() <= stride * n * (n - 1) / 2);
        filled
    }

    /// Run the kernel's enumeration of `problem` under `cap` and return it spent.
    fn run<'a>(
        ctx: &'a MiningContext,
        problem: &'a TagDmProblem,
        cap: u64,
        cancel: &'a CancelToken,
    ) -> Kernel<'a> {
        let mut kernel = Kernel::new(ctx, problem, cap, cancel);
        kernel.descend(0);
        kernel
    }

    #[test]
    fn a_one_group_solve_scores_no_pair() {
        let ctx = small_context();
        let cancel = CancelToken::new();
        for id in 1..=6 {
            let problem = problem(
                id,
                ProblemParams {
                    k: 1,
                    ..loose_params()
                },
            );
            let kernel = run(&ctx, &problem, 0, &cancel);
            assert_eq!(kernel.evaluated, ctx.num_groups() as u64);
            assert!(filled_rows(&kernel).is_empty());
            assert!(kernel.rows.is_empty());
        }
    }

    #[test]
    fn an_uncapped_solve_fills_every_row_once() {
        let cancel = CancelToken::new();
        for ctx in [
            small_context(),
            random_context(7, 300, 0),
            overlapping_context(),
        ] {
            let n = ctx.num_groups();
            for id in 1..=6 {
                for k in [2, 3, n + 1] {
                    let problem = problem(
                        id,
                        ProblemParams {
                            k,
                            ..loose_params()
                        },
                    );
                    let kernel = run(&ctx, &problem, 0, &cancel);
                    // Every group is pushed at depth 1, below the last depth.
                    assert_eq!(filled_rows(&kernel), (0..n).collect::<Vec<_>>());
                    let stride = kernel.functions.len();
                    assert_eq!(kernel.rows.len(), stride * n * (n - 1) / 2);
                }
            }
        }
    }

    #[test]
    fn a_capped_solve_fills_only_the_rows_it_pushed_below_the_last_depth() {
        // Age × gender: the most groups of any of the random groupings.
        let ctx = random_context(11, 400, 2);
        let n = ctx.num_groups();
        assert!(n >= 12, "a many-group context, got {n} groups");
        let cancel = CancelToken::new();
        for k in [2, 3, 4] {
            // Every visited set is evaluated (`min_groups` is 1), so the kernel visits
            // exactly the first `cap` sets of the depth-first order.
            let mut order = Vec::new();
            let mut stack = vec![Vec::new()];
            while let Some(set) = stack.pop() {
                let start = set.last().map_or(0, |&last| last + 1);
                if set.len() < k {
                    stack.extend((start..n).rev().map(|c| [&set[..], &[c]].concat()));
                }
                if !set.is_empty() {
                    order.push(set);
                }
            }
            for cap in [1, 5, n as u64, 3 * n as u64] {
                let problem = problem(
                    1,
                    ProblemParams {
                        k,
                        ..loose_params()
                    },
                );
                let kernel = run(&ctx, &problem, cap, &cancel);
                assert_eq!(kernel.evaluated, cap);
                let mut expected: Vec<usize> = order[..cap as usize]
                    .iter()
                    .filter(|set| set.len() < k)
                    .map(|set| set[set.len() - 1])
                    .collect();
                expected.sort_unstable();
                expected.dedup();
                assert!(
                    expected.len() < n,
                    "k {k}, cap {cap}: the cap leaves rows unread"
                );
                assert_eq!(filled_rows(&kernel), expected, "k {k}, cap {cap}");
            }
        }
    }

    fn loose_params() -> ProblemParams {
        ProblemParams {
            k: 3,
            min_support: 2,
            user_threshold: 0.2,
            item_threshold: 0.2,
        }
    }

    #[test]
    fn exact_finds_a_feasible_optimum_when_one_exists() {
        let ctx = small_context();
        let problem = problem_1(loose_params());
        let outcome = ExactSolver::new().solve(&ctx, &problem);
        assert!(!outcome.is_null(), "the small corpus has feasible pairs");
        assert!(outcome.feasible);
        assert!(outcome.groups.len() <= 3);
        assert!(outcome.objective > 0.0);
        assert!(outcome.candidates_evaluated > 0);
        // The optimum's objective equals the problem objective re-evaluated on the set.
        assert!((problem.objective(&ctx, &outcome.groups) - outcome.objective).abs() < 1e-12);
    }

    #[test]
    fn exact_is_optimal_over_explicit_enumeration() {
        let ctx = small_context();
        let problem = problem_6(loose_params());
        let outcome = ExactSolver::new().solve(&ctx, &problem);
        // Manually enumerate all feasible pairs/triples and confirm nothing beats it.
        let n = ctx.num_groups();
        let mut best = f64::NEG_INFINITY;
        let mut sets: Vec<Vec<usize>> = Vec::new();
        for a in 0..n {
            sets.push(vec![a]);
            for b in (a + 1)..n {
                sets.push(vec![a, b]);
                for c in (b + 1)..n {
                    sets.push(vec![a, b, c]);
                }
            }
        }
        for set in sets {
            if problem.feasible(&ctx, &set) {
                best = best.max(problem.objective(&ctx, &set));
            }
        }
        assert!((outcome.objective - best).abs() < 1e-9);
    }

    #[test]
    fn exact_returns_null_when_nothing_is_feasible() {
        let ctx = small_context();
        let mut problem = problem_1(loose_params());
        problem.min_support = 1_000_000; // impossible support
        let outcome = ExactSolver::new().solve(&ctx, &problem);
        assert!(outcome.is_null());
        assert!(!outcome.feasible);
    }

    #[test]
    fn candidate_cap_truncates_the_search() {
        let ctx = small_context();
        let problem = problem_1(loose_params());
        let capped = ExactSolver::with_cap(3).solve(&ctx, &problem);
        assert!(capped.candidates_evaluated <= 3);
        let full = ExactSolver::new().solve(&ctx, &problem);
        assert!(full.candidates_evaluated > capped.candidates_evaluated);
        assert!(full.objective >= capped.objective - 1e-12);
    }

    #[test]
    fn unfired_cancel_token_leaves_the_result_unchanged() {
        let ctx = small_context();
        let problem = problem_1(loose_params());
        let direct = ExactSolver::new().solve(&ctx, &problem);
        let token = crate::solvers::CancelToken::new();
        let cancellable = ExactSolver::new().solve_cancellable(&ctx, &problem, &token);
        assert_eq!(direct.groups, cancellable.groups);
        assert_eq!(direct.objective, cancellable.objective);
        assert_eq!(
            direct.candidates_evaluated,
            cancellable.candidates_evaluated
        );
    }

    #[test]
    fn pre_fired_cancel_token_truncates_the_search() {
        let ctx = small_context();
        let problem = problem_1(loose_params());
        let full = ExactSolver::new().solve(&ctx, &problem);
        let token = crate::solvers::CancelToken::new();
        token.cancel();
        let truncated = ExactSolver::new().solve_cancellable(&ctx, &problem, &token);
        // The first checkpoint (every 64 evaluations) aborts the enumeration well
        // before the full search space is covered.
        assert!(truncated.candidates_evaluated < full.candidates_evaluated);
    }

    #[test]
    fn unconstrained_objective_only_problem_picks_the_best_pairs() {
        let ctx = small_context();
        // No constraints at all: maximize tag diversity over at most 2 groups.
        let problem = TagDmProblem::new("unconstrained", 2, 1).with_objective(
            ObjectiveSpec::standard(TaggingDimension::Tags, MiningCriterion::Diversity),
        );
        let outcome = ExactSolver::new().solve(&ctx, &problem);
        assert_eq!(outcome.groups.len(), 2);
        // The chosen pair attains the maximum pairwise diversity.
        let mut best = 0.0f64;
        for a in 0..ctx.num_groups() {
            for b in (a + 1)..ctx.num_groups() {
                best = best.max(problem.pairwise_objective(&ctx, a, b));
            }
        }
        assert!((outcome.objective - best).abs() < 1e-9);
    }
}
