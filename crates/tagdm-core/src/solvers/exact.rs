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
//! * **Support.** Every group gets one `u64` bitset over the input actions. The kernel
//!   keeps the union of the current set's bitsets per DFS depth, so pushing a group
//!   costs one OR and one popcount over the words, with no hashing or allocation.
//! * **Constraints and objectives.** When group `c` is pushed at position `m`, each
//!   constraint and objective function scores `c` against the `m` groups already in the
//!   set, once, into the shared [`PairTable`]: a `k × k` table per function. A
//!   candidate's value for a function is that table's `(i < j)` entries in row-major
//!   order, aggregated by the function's [`Aggregator`](crate::criteria::Aggregator) —
//!   the same scores, in the same order, as
//!   [`DualMiningFunction::evaluate`](crate::functions::DualMiningFunction::evaluate),
//!   so objectives and feasibility are bit-identical to [`TagDmProblem::objective`] and
//!   [`TagDmProblem::feasible`].
//!
//! All kernel state is sized by the solve's own group count and `k` and dropped with
//! the solve; the mining context gains nothing.

use std::time::{Duration, Instant};

use crate::context::MiningContext;
use crate::problem::TagDmProblem;
use crate::solvers::pairs::PairTable;
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

    fn outcome(
        &self,
        ctx: &MiningContext,
        problem: &TagDmProblem,
        best: Option<(Vec<usize>, f64)>,
        evaluated: u64,
        elapsed: Duration,
    ) -> SolverOutcome {
        match best {
            Some((groups, objective)) => SolverOutcome {
                solver: self.name(),
                feasible: problem.feasible(ctx, &groups),
                groups,
                objective,
                elapsed,
                candidates_evaluated: evaluated,
            },
            None => SolverOutcome {
                elapsed,
                candidates_evaluated: evaluated,
                ..SolverOutcome::null(self.name())
            },
        }
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
        self.outcome(ctx, problem, kernel.best, kernel.evaluated, start.elapsed())
    }
}

/// One action bitset per group of `ctx`, concatenated: returns the words per bitset
/// and the bits, where group `g` owns `bits[g * words..(g + 1) * words]`.
fn action_bitsets(ctx: &MiningContext) -> (usize, Vec<u64>) {
    let words = ctx
        .groups()
        .iter()
        .filter_map(|g| g.actions.last())
        .map(|a| a.0 as usize / 64 + 1)
        .max()
        .unwrap_or(0);
    let mut bits = vec![0u64; ctx.num_groups() * words];
    for (row, group) in bits.chunks_exact_mut(words.max(1)).zip(ctx.groups()) {
        for a in &group.actions {
            row[a.0 as usize / 64] |= 1 << (a.0 % 64);
        }
    }
    (words, bits)
}

/// The per-solve state of the depth-first enumeration.
struct Kernel<'a> {
    ctx: &'a MiningContext,
    problem: &'a TagDmProblem,
    cancel: &'a CancelToken,
    cap: u64,
    /// The candidate set under evaluation, in push order (ascending group index).
    set: Vec<usize>,
    /// Words per action bitset.
    words: usize,
    /// Per-group action bitsets (see [`action_bitsets`]).
    group_bits: Vec<u64>,
    /// `depth + 1` rows of `words`: row `d` is the union of the first `d` groups' bits.
    covered: Vec<u64>,
    /// `support[d]` is the popcount of `covered` row `d`.
    support: Vec<usize>,
    /// Pair scores of the current set under the problem's constraint functions, then
    /// its objective functions.
    table: PairTable,
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
        let (words, group_bits) = action_bitsets(ctx);
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
            words,
            group_bits,
            covered: vec![0; (depth + 1) * words],
            support: vec![0; depth + 1],
            table: PairTable::new(functions, depth),
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

    /// Append group `c`: extend the support union and score `c` against every group
    /// already in the set under every function.
    fn push(&mut self, c: usize) {
        let m = self.set.len();
        let w = self.words;
        let (parent, child) = self.covered[m * w..(m + 2) * w].split_at_mut(w);
        let bits = &self.group_bits[c * w..(c + 1) * w];
        let mut support = 0;
        for ((out, &p), &g) in child.iter_mut().zip(parent.iter()).zip(bits) {
            *out = p | g;
            support += out.count_ones() as usize;
        }
        self.support[m + 1] = support;
        self.table.score_all(self.ctx, &self.set, c);
        self.set.push(c);
    }

    /// Function `f`'s value on the current set.
    fn value(&mut self, f: usize) -> f64 {
        self.table.value(f, self.set.len())
    }

    /// Check the current set's feasibility and, if feasible, keep it when it beats the
    /// incumbent. Mirrors [`TagDmProblem::feasible`] and [`TagDmProblem::objective`].
    fn evaluate(&mut self) {
        let problem = self.problem;
        // `size_ok` holds by construction: `descend` evaluates sets of
        // `min_groups..=max_groups` groups only.
        let feasible = self.support[self.set.len()] >= problem.min_support
            && problem
                .constraints
                .iter()
                .enumerate()
                .all(|(f, c)| c.admits(self.value(f)));
        if !feasible {
            return;
        }
        let offset = problem.constraints.len();
        let objective: f64 = problem
            .objectives
            .iter()
            .enumerate()
            .map(|(o, spec)| spec.weight * self.value(offset + o))
            .sum();
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
    use crate::solvers::test_support::{random_context, small_context, GROUPINGS};
    use proptest::prelude::*;
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
        solver.outcome(ctx, problem, search.best, search.evaluated, Duration::ZERO)
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

    /// Walk every candidate set through the kernel and require each function value and
    /// the support to match the from-scratch evaluation bit for bit — every candidate,
    /// not only the winner, so a summation-order slip cannot hide behind the argmax.
    fn assert_every_candidate_matches(ctx: &MiningContext, problem: &TagDmProblem) {
        fn walk(kernel: &mut Kernel, start: usize) {
            let set = kernel.set.clone();
            assert_eq!(
                kernel.support[set.len()],
                kernel.ctx.support(&set),
                "{set:?}"
            );
            let functions = kernel
                .problem
                .constraints
                .iter()
                .map(|c| c.function)
                .chain(kernel.problem.objectives.iter().map(|o| o.function));
            for (f, function) in functions.enumerate() {
                let expected = function.evaluate(kernel.ctx, &set);
                assert_eq!(kernel.value(f).to_bits(), expected.to_bits(), "{set:?}");
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

        #[test]
        fn prop_bitset_popcount_equals_group_support(
            seed in 0u64..1_000,
            actions in 1usize..400,
            grouping in 0usize..GROUPINGS.len(),
            picks in proptest::collection::vec(0usize..64, 0..6),
        ) {
            let ctx = random_context(seed, actions, grouping);
            let (words, bits) = action_bitsets(&ctx);
            let n = ctx.num_groups();
            let set: Vec<usize> = picks.iter().filter(|_| n > 0).map(|p| p % n).collect();
            let mut union = vec![0u64; words];
            for &g in &set {
                for (u, b) in union.iter_mut().zip(&bits[g * words..(g + 1) * words]) {
                    *u |= b;
                }
            }
            let popcount: usize = union.iter().map(|w| w.count_ones() as usize).sum();
            prop_assert_eq!(popcount, ctx.support(&set));
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
            for k in [3, 4] {
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
