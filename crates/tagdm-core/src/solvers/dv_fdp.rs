//! The DV-FDP solver family (Section 5 of the paper): tag-diversity maximization via the
//! facility dispersion greedy.
//!
//! Every candidate group is a point (its tag signature vector in the unit hypercube);
//! the pairwise "distance" is the problem's pairwise objective contribution (for the
//! canonical diversity problems, `1 − cos θ` between tag signatures), clamped to 0 when
//! negative or not finite. DV-FDP runs the Ravi–Rosenkrantz–Tayi MAX-AVG greedy
//! (Algorithm 2), which carries a factor-4 approximation guarantee for the
//! unconstrained problem (Theorem 4): seed with the pair at the largest distance, then
//! repeatedly add the group with the largest total distance to the groups chosen.
//!
//! Constraint handling:
//!
//! * **DV-FDP-Fi** ([`ConstraintMode::Filter`]): the greedy result is post-checked
//!   against the hard constraints; an unsatisfying result is reported as infeasible.
//! * **DV-FDP-Fo** ([`ConstraintMode::Fold`]): the hard constraints are folded into the
//!   greedy *add* operation — a group may only join the result set if the set including
//!   it still satisfies every user/item constraint — and the support constraint is
//!   post-checked (Section 5.3).
//!
//! The greedy runs on the shared pair kernel (`solvers::pairs`) and builds no distance
//! matrix. The seed scan takes row `i in 1..n` at a time and, within it, the partners
//! `j in 0..i` in ascending order, keeping the first strict maximum: the largest
//! distance, ties broken by the smallest `(i, j)` in row-major order. Ignore and Filter
//! visit every pair, Fo the admitted pairs only. When every constraint is structural on
//! users or items (all of Table 1's are) and the context keeps both sides' class
//! similarity tables, a row's admitted partners are the set bits below `i` of the AND
//! of two per-class group bitsets (`pairs::ClassAdmits`), so the scan never visits a
//! pair the constraints reject. A solve builds those bitsets by testing the constraints
//! once per distinct class similarity and ORing, per class, the context's group sets at
//! the admitted values. Any other constraint set tests each pair's constraint
//! functions. Either way the scan visits the same pairs in the same order.
//!
//! A visited pair's distance is scored only when it could be the seed. When every
//! objective is a tag diversity and the context keeps cosine floors (always for LDA), a
//! pair's ceiling, `W·(1 − floor)` for the weight sum `W`, bounds its distance as
//! computed; a pair whose ceiling is at most the best distance so far cannot strictly
//! exceed it, and is skipped. This is the bound-then-verify pruning of all-pairs
//! similarity search (Bayardo, Ma & Srikant, WWW 2007). On the benchmark's medium
//! four-attribute context it leaves 3,446 of P4's 8,521 admitted pairs to score, 419 of
//! P5's 15,484 and 867 of P6's 1,370. Any other objective set scores every visited pair.
//!
//! A greedy round scores each candidate against the chosen groups only, into `k × k`
//! constraint tables; those scores and `Fresh`'s are all the solver supplies to the
//! problem's own valuation (see
//! [`DualMiningFunction::value`](crate::functions::DualMiningFunction::value)). A solve
//! allocates `O(n + k² + c·n/64)` words for `c` description classes; the context keeps,
//! from the first Fo solve on, `c·V·⌈n/64⌉` words per side for its `V` distinct class
//! similarities (22 KB for the medium context's users, 2.4 KB for its items).
//!
//! Testing whole blocks of pairs does not pay on that context: every enumerated group
//! has a description of its own, so bucketing the groups by `(user class, item class)`
//! gives one group a block (456 blocks for 456 groups), and a `c_u × c_i` grid walked
//! over each row's admitted user × item classes probes every empty cell as well (only
//! 456 of its 88 × 19 = 1,672 cells hold a group).
//!
//! `candidates_evaluated` counts the `n(n−1)/2` pairs of the seed scan. Fo adds one for
//! each pair's `[i, j]` test, one more for each admitted pair's `[j, i]` test, and one
//! for each candidate tested in a greedy round: row `i` counts `2i` plus its admitted
//! pairs, whichever way the admitted pairs are found. The token is polled before each
//! seed-scan row and once per greedy candidate; when it fires the solver returns the
//! best admissible selection so far and counts only the rows it scanned, so a fired
//! token's partial count is the same for both ways.
//!
//! Because the distance is simply the pairwise objective, the same solver also handles
//! similarity-maximization instances (the "may also be extended to determine a set of
//! tagging action groups that are similar" remark of Section 5), which the ablation
//! benchmarks exercise.

use std::time::{Duration, Instant};

use crate::context::{CosineFloors, MiningContext};
use crate::criteria::{MiningCriterion, PairwiseKind, TaggingDimension};
use crate::problem::TagDmProblem;
use crate::solvers::pairs::{pair_admits, ClassAdmits, PairScores, PairTable, Walk};
use crate::solvers::{CancelToken, ConstraintMode, Solver, SolverOutcome};

/// Tag-diversity (or, generally, pairwise-objective) maximization by greedy facility
/// dispersion.
#[derive(Debug, Clone)]
pub struct DvFdpSolver {
    /// How hard constraints are handled.
    pub mode: ConstraintMode,
}

/// The dispersion distance between two groups: their pairwise objective, clamped to 0
/// when negative or not finite.
fn distance(ctx: &MiningContext, problem: &TagDmProblem, a: usize, b: usize) -> f64 {
    let d = problem.pairwise_objective(ctx, a, b);
    if d.is_finite() && d > 0.0 {
        d
    } else {
        0.0
    }
}

/// An upper bound on the seed scan's distances, for a problem whose every objective is
/// a tag diversity over a context that keeps cosine floors.
///
/// Such a pair's distance is `Σ w·(1 − cos)`, at most `W·(1 − floor)` for the weight sum
/// `W` and the context's [`CosineFloors`]. As computed: the cosine is at least the floor
/// plus `0.7·10⁻⁹` (see `context`'s `FLOOR_MARGIN`), and both sides of the bound round in
/// at most `m + 3` operations for `m` objectives, a relative error below `10⁻⁹ / 3` for
/// `m ≤ 2²⁰`. So the computed ceiling is at least the computed distance, which the scan's
/// clamp only lowers to 0, and a pair whose ceiling is at most the best distance so far
/// cannot strictly exceed it.
struct Ceiling<'a> {
    floors: CosineFloors<'a>,
    /// `W`, the objectives' weight sum.
    weight: f64,
}

impl<'a> Ceiling<'a> {
    /// The ceiling of `problem`'s distances over `ctx`, or `None` when some objective is
    /// not a tag diversity with a finite non-negative weight, there are over `2²⁰`
    /// objectives, or the context keeps no cosine floors.
    fn new(ctx: &'a MiningContext, problem: &TagDmProblem) -> Option<Self> {
        let diversities = problem.objectives.len() <= 1 << 20
            && problem.objectives.iter().all(|o| {
                let f = &o.function;
                f.criterion == MiningCriterion::Diversity
                    && (f.dimension == TaggingDimension::Tags || f.kind == PairwiseKind::TagCosine)
                    && o.weight.is_finite()
                    && o.weight >= 0.0
            });
        if !diversities {
            return None;
        }
        Some(Ceiling {
            floors: ctx.cosine_floors()?,
            weight: problem.objectives.iter().map(|o| o.weight).sum(),
        })
    }

    /// At least the distance of the pair `(a, b)` as [`distance`] computes it.
    #[inline]
    fn of(&self, a: usize, b: usize) -> f64 {
        self.weight * (1.0 - self.floors.floor(a, b))
    }
}

/// The greedy's pair scores: each pair is scored when the walk asks for it.
struct Fresh<'a> {
    ctx: &'a MiningContext,
    problem: &'a TagDmProblem,
}

impl PairScores for Fresh<'_> {
    fn constraint(&self, f: usize, a: usize, b: usize) -> f64 {
        self.problem.constraints[f]
            .function
            .evaluate_pair(self.ctx, a, b)
    }

    fn distance(&self, a: usize, b: usize) -> f64 {
        distance(self.ctx, self.problem, a, b)
    }
}

impl DvFdpSolver {
    /// Create a solver with the given constraint-handling mode.
    pub fn new(mode: ConstraintMode) -> Self {
        DvFdpSolver { mode }
    }

    /// Algorithm 2: the selection, sorted, and the number of candidates evaluated.
    fn select(
        &self,
        ctx: &MiningContext,
        problem: &TagDmProblem,
        cancel: &CancelToken,
    ) -> (Vec<usize>, u64) {
        let n = ctx.num_groups();
        let k = problem.max_groups.min(n);
        let fold = self.mode == ConstraintMode::Fold;
        if k < 2 {
            // Any single group maximizes the vacuous average distance. No pair needs a
            // score, but the count still covers the seed scan, as for every `k`.
            let pairs = (n * n.saturating_sub(1) / 2) as u64;
            return (if k == 0 { Vec::new() } else { vec![0] }, pairs);
        }

        let (seed, mut evaluated) =
            self.seed(ctx, problem, cancel, |i, j| distance(ctx, problem, i, j));
        let Some((i, j)) = seed else {
            return (Vec::new(), evaluated);
        };
        let table = fold.then(|| PairTable::constraints(problem, k));
        let mut walk = Walk::new(problem, table);
        walk.grow(&Fresh { ctx, problem }, (j, i), 0..n, k, || {
            if cancel.is_cancelled() {
                return false;
            }
            evaluated += u64::from(fold);
            true
        });
        let mut selection = walk.groups;
        selection.sort_unstable();
        (selection, evaluated)
    }

    /// The seed scan: the first strict maximum of `distance` over the pairs `(i, j)`,
    /// `j < i`, row by row (under Fo, over the admitted pairs only), and the count of the
    /// rows scanned. A pair whose [`Ceiling`] cannot exceed the best so far is visited
    /// and counted but not scored: it could not become the seed.
    fn seed(
        &self,
        ctx: &MiningContext,
        problem: &TagDmProblem,
        cancel: &CancelToken,
        mut distance: impl FnMut(usize, usize) -> f64,
    ) -> (Option<(usize, usize)>, u64) {
        let fold = self.mode == ConstraintMode::Fold;
        let classes = if fold {
            ClassAdmits::new(ctx, problem)
        } else {
            None
        };
        let ceiling = Ceiling::new(ctx, problem);
        let mut evaluated = 0u64;
        let mut seed: Option<(usize, usize, f64)> = None;
        for i in 1..ctx.num_groups() {
            if cancel.is_cancelled() {
                break;
            }
            // Row `i` scans its `i` pairs. Under Fo each pair also counts its `[i, j]`
            // test, and an admitted pair its `[j, i]` test, one count per `visit`.
            evaluated += i as u64 * (1 + u64::from(fold));
            let visit = |j| {
                evaluated += u64::from(fold);
                let best = seed.map(|(_, _, best)| best);
                if let (Some(best), Some(ceiling)) = (best, &ceiling) {
                    if ceiling.of(i, j) <= best {
                        return;
                    }
                }
                let d = distance(i, j);
                if best.is_none_or(|best| d > best) {
                    seed = Some((i, j, d));
                }
            };
            match &classes {
                Some(classes) => classes.for_each_partner(i, visit),
                None if fold => (0..i)
                    .filter(|&j| pair_admits(ctx, problem, i, j))
                    .for_each(visit),
                None => (0..i).for_each(visit),
            }
        }
        (seed.map(|(i, j, _)| (i, j)), evaluated)
    }

    /// The outcome for a greedy `selection`: null when it is empty or too small, and
    /// under Filter when it violates a constraint.
    fn outcome(
        &self,
        ctx: &MiningContext,
        problem: &TagDmProblem,
        selection: Vec<usize>,
        evaluated: u64,
        elapsed: Duration,
    ) -> SolverOutcome {
        // Filtering semantics: a constraint-violating greedy result is a null result
        // (the paper notes DV-FDP-Fi "may return null results frequently").
        let best = Some(selection)
            .filter(|s| !s.is_empty() && s.len() >= problem.min_groups)
            .filter(|s| self.mode != ConstraintMode::Filter || problem.feasible(ctx, s))
            .map(|s| {
                let objective = problem.objective(ctx, &s);
                (s, objective)
            });
        SolverOutcome::found(self.name(), ctx, problem, best, evaluated, elapsed)
    }
}

impl Solver for DvFdpSolver {
    fn name(&self) -> String {
        format!("DV-FDP{}", self.mode.suffix())
    }

    fn solve_cancellable(
        &self,
        ctx: &MiningContext,
        problem: &TagDmProblem,
        cancel: &CancelToken,
    ) -> SolverOutcome {
        let start = Instant::now();
        let (selection, evaluated) = if ctx.num_groups() == 0 || cancel.is_cancelled() {
            (Vec::new(), 0)
        } else {
            self.select(ctx, problem, cancel)
        };
        self.outcome(ctx, problem, selection, evaluated, start.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{problem, problem_4, problem_5, problem_6, ProblemParams};
    use crate::context::SummarizerChoice;
    use crate::criteria::{MiningCriterion, PairwiseKind, TaggingDimension};
    use crate::functions::DualMiningFunction;
    use crate::problem::{ObjectiveSpec, TagDmProblem};
    use crate::solvers::test_support::{
        lda_ties_context, medium_context, overlapping_context, random_context, random_dataset,
        small_context, wide_items_context, GROUPINGS,
    };
    use crate::solvers::ExactSolver;
    use proptest::prelude::*;
    use tagdm_data::generator::{GeneratorConfig, MovieLensStyleGenerator};
    use tagdm_data::group::GroupingScheme;
    use tagdm_geometry::dispersion::{max_avg_greedy, max_avg_greedy_with};
    use tagdm_geometry::distance::DistanceMatrix;
    use tagdm_topics::lda::LdaConfig;

    const MODES: [ConstraintMode; 3] = [
        ConstraintMode::Ignore,
        ConstraintMode::Filter,
        ConstraintMode::Fold,
    ];

    /// The reference oracle: the solver before the pair kernel. It builds the `n × n`
    /// matrix of clamped pair objectives and runs the MAX-AVG greedy over it, folding
    /// the constraints into the admissibility predicate as from-scratch set
    /// evaluations. The kernel must reproduce its outcomes bit for bit.
    fn reference(
        solver: &DvFdpSolver,
        ctx: &MiningContext,
        problem: &TagDmProblem,
    ) -> SolverOutcome {
        let (selection, evaluated) = reference_selection(solver, ctx, problem);
        solver.outcome(ctx, problem, selection, evaluated, Duration::ZERO)
    }

    /// The oracle's selection and count, which the support threshold does not change.
    fn reference_selection(
        solver: &DvFdpSolver,
        ctx: &MiningContext,
        problem: &TagDmProblem,
    ) -> (Vec<usize>, u64) {
        let n = ctx.num_groups();
        if n == 0 {
            return (Vec::new(), 0);
        }
        let matrix = DistanceMatrix::from_fn(n, |i, j| problem.pairwise_objective(ctx, i, j));
        let mut evaluated = (n as u64) * (n as u64 - 1) / 2;
        let selection = match solver.mode {
            ConstraintMode::Ignore | ConstraintMode::Filter => {
                max_avg_greedy(&matrix, problem.max_groups)
            }
            ConstraintMode::Fold => {
                max_avg_greedy_with(&matrix, problem.max_groups, |selected, candidate| {
                    if selected.is_empty() {
                        return true;
                    }
                    let mut trial: Vec<usize> = selected.to_vec();
                    trial.push(candidate);
                    evaluated += 1;
                    problem.constraints_satisfied(ctx, &trial)
                })
            }
        };
        (selection, evaluated)
    }

    /// Run the kernel and the oracle and require identical outcomes.
    fn assert_matches_reference(solver: &DvFdpSolver, ctx: &MiningContext, problem: &TagDmProblem) {
        let kernel = solver.solve(ctx, problem);
        let oracle = reference(solver, ctx, problem);
        let what = format!("{}: {}", solver.name(), problem.describe());
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // The last grouping index draws the hand-built corpus: its groups with equal
        // signatures and descriptions tie, which exercises the first-strict-maximum
        // tie-breaking of the seed scan and of every greedy round.
        #[test]
        fn prop_kernel_matches_the_reference(
            seed in 0u64..1_000,
            actions in 40usize..400,
            grouping in 0usize..GROUPINGS.len() + 1,
            mode in 0usize..3,
            id in 1usize..7,
            k in 1usize..5,
            min_groups in 1usize..5,
            min_support in 1usize..80,
            threshold in 0.0f64..1.0,
        ) {
            let ctx = if grouping == GROUPINGS.len() {
                small_context()
            } else {
                random_context(seed, actions, grouping)
            };
            let params = ProblemParams {
                k,
                min_support,
                user_threshold: threshold,
                item_threshold: 1.0 - threshold,
            };
            let problem = problem(id, params).with_min_groups(min_groups.min(k));
            assert_matches_reference(&DvFdpSolver::new(MODES[mode]), &ctx, &problem);
        }

        // Theorem 4: on a metric, the unconstrained greedy's average pairwise distance
        // is at least a quarter of the best `k`-set's. `1 − Jaccard` over item sets is
        // a metric (`1 − cos` is not).
        #[test]
        fn prop_unconstrained_greedy_is_within_a_factor_of_4_on_a_metric(
            seed in 0u64..1_000,
            actions in 40usize..400,
            grouping in 0usize..GROUPINGS.len(),
            k in 2usize..5,
        ) {
            let ctx = random_context(seed, actions, grouping);
            prop_assume!(ctx.num_groups() >= k);
            let function =
                DualMiningFunction::standard(TaggingDimension::Users, MiningCriterion::Diversity)
                    .with_kind(PairwiseKind::ItemSetJaccard);
            let problem = TagDmProblem::new("metric dispersion", k, 0)
                .with_min_groups(k)
                .with_objective(ObjectiveSpec { function, weight: 1.0 });
            let greedy = DvFdpSolver::new(ConstraintMode::Ignore).solve(&ctx, &problem);
            let exact = ExactSolver::new().solve(&ctx, &problem);
            prop_assert_eq!(greedy.groups.len(), k);
            prop_assert!(
                4.0 * greedy.objective >= exact.objective - 1e-9,
                "greedy {} vs exact {}",
                greedy.objective,
                exact.objective
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // LDA contexts, where the seed scan skips pairs by their cosine floors, with
        // duplicated tag bags and two empty groups of identical θ, whose distances to
        // any third group tie exactly; one topic ties every distance at 0. The prior is
        // the default or 10⁻⁴ to 10² of it: a small one makes θ peaked, a large one flat,
        // where the floors come close to the cosines. The objective is reweighted and may
        // gain a second one: a tag diversity, which keeps the skip under the weight sum,
        // or a tag similarity, which turns it off.
        #[test]
        fn prop_kernel_matches_the_reference_on_lda_contexts(
            seed in 0u64..1_000,
            actions in 40usize..300,
            grouping in 0usize..GROUPINGS.len(),
            topics in 1usize..8,
            copies in 0usize..4,
            alpha in (0u32..2, -4.0f64..2.0).prop_map(|(q, e)| if q == 0 { 1.0 } else { 10f64.powf(e) }),
            mode in 0usize..3,
            id in 1usize..7,
            k in 2usize..5,
            threshold in 0.0f64..1.0,
            weights in (0.1f64..3.0, 0.1f64..3.0),
            second in 0usize..3,
        ) {
            let ctx = lda_ties_context(seed, actions, grouping, topics, copies, alpha);
            prop_assert!(ctx.cosine_floors().is_some());
            let params = ProblemParams {
                k,
                min_support: 2,
                user_threshold: threshold,
                item_threshold: 1.0 - threshold,
            };
            let mut problem = problem(id, params);
            problem.objectives[0].weight = weights.0;
            if second > 0 {
                let criterion = MiningCriterion::ALL[second - 1];
                problem.objectives.push(ObjectiveSpec {
                    function: DualMiningFunction::standard(TaggingDimension::Tags, criterion),
                    weight: weights.1,
                });
            }
            assert_matches_reference(&DvFdpSolver::new(MODES[mode]), &ctx, &problem);
        }
    }

    #[test]
    fn kernel_matches_the_reference_where_distances_tie_at_the_best() {
        // The first group and its two empty copies, whose θ rows are the same uniform
        // row: the copies lie at exactly the same distance from the first group, the
        // largest of the three pairs, so row 2 ties the best of row 1. One topic ties all
        // three pairs at 0.
        for topics in [1, 4] {
            let full = lda_ties_context(3, 200, 0, topics, 0, 1e-3);
            let n = full.num_groups();
            let ds = random_dataset(3, 200);
            let groups = [0, n - 2, n - 1].map(|g| full.group(g).clone()).to_vec();
            let ctx = MiningContext::build(
                &ds,
                groups,
                SummarizerChoice::Lda(LdaConfig {
                    alpha: 1e-3 * LdaConfig::fast(topics).alpha,
                    ..LdaConfig::fast(topics)
                }),
            );
            let objective = TagDmProblem::new("tag diversity", 2, 0).with_objective(
                ObjectiveSpec::standard(TaggingDimension::Tags, MiningCriterion::Diversity),
            );
            let d = |a, b| objective.pairwise_objective(&ctx, a, b).to_bits();
            assert_eq!(d(1, 0), d(2, 0));
            assert!(f64::from_bits(d(1, 0)) >= f64::from_bits(d(2, 1)));
            for mode in MODES {
                for k in 2..=3 {
                    let mut problem = objective.clone();
                    problem.max_groups = k;
                    assert_matches_reference(&DvFdpSolver::new(mode), &ctx, &problem);
                    let params = ProblemParams {
                        k,
                        min_support: 1,
                        user_threshold: 0.0,
                        item_threshold: 0.0,
                    };
                    assert_matches_reference(&DvFdpSolver::new(mode), &ctx, &problem_6(params));
                }
            }
        }
    }

    #[test]
    fn kernel_matches_the_reference_on_every_problem_mode_and_size() {
        let ctx = small_context();
        for id in 1..=6 {
            for k in 1..=4 {
                for min_groups in 1..=k {
                    for threshold in [0.0, 0.25, 0.5, 1.0] {
                        let params = ProblemParams {
                            k,
                            min_support: 2,
                            user_threshold: threshold,
                            item_threshold: threshold,
                        };
                        let problem = problem(id, params).with_min_groups(min_groups);
                        for mode in MODES {
                            assert_matches_reference(&DvFdpSolver::new(mode), &ctx, &problem);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_matches_the_reference_on_overlapping_groups() {
        // Overlapping groups, one of them with an empty description: the structural
        // problems still enumerate their admitted pairs from the class bitsets.
        let ctx = overlapping_context();
        for id in 1..=6 {
            for threshold in [0.0, 0.25, 0.5, 1.0] {
                let params = ProblemParams {
                    k: 3,
                    min_support: 2,
                    user_threshold: threshold,
                    item_threshold: threshold,
                };
                let problem = problem(id, params);
                assert!(ClassAdmits::new(&ctx, &problem).is_some());
                for mode in MODES {
                    assert_matches_reference(&DvFdpSolver::new(mode), &ctx, &problem);
                }
            }
        }
    }

    #[test]
    fn kernel_matches_the_reference_over_a_side_without_a_table() {
        // Over MAX_TABLE_CLASSES item classes: Fo tests each pair's constraints.
        let ctx = wide_items_context();
        for problem in [
            problem_4(loose_params()),
            problem_5(loose_params()),
            problem_6(loose_params()),
        ] {
            assert!(ClassAdmits::new(&ctx, &problem).is_none());
            assert_matches_reference(&DvFdpSolver::new(ConstraintMode::Fold), &ctx, &problem);
        }
    }

    #[test]
    fn benchmark_shaped_requests_match_the_reference() {
        // mine-heuristic's DV-FDP-Fo requests: P4–P6 at the paper's defaults, support
        // offset by −20..+10. Support only decides feasibility, so the oracle selects
        // once per problem.
        let ctx = medium_context();
        let base = ProblemParams::paper_defaults(ctx.num_input_actions());
        let solver = DvFdpSolver::new(ConstraintMode::Fold);
        for id in 4..=6 {
            let (selection, evaluated) = reference_selection(&solver, &ctx, &problem(id, base));
            for offset in -20isize..=10 {
                let params = ProblemParams {
                    min_support: base.min_support.saturating_add_signed(offset),
                    ..base
                };
                let problem = problem(id, params);
                assert!(ClassAdmits::new(&ctx, &problem).is_some());
                let kernel = solver.solve(&ctx, &problem);
                let oracle =
                    solver.outcome(&ctx, &problem, selection.clone(), evaluated, Duration::ZERO);
                let what = format!("P{id} support {}", params.min_support);
                assert_eq!(kernel.groups, oracle.groups, "{what}");
                assert_eq!(
                    kernel.objective.to_bits(),
                    oracle.objective.to_bits(),
                    "{what}"
                );
                assert_eq!(kernel.feasible, oracle.feasible, "{what}");
                assert_eq!(
                    kernel.candidates_evaluated, oracle.candidates_evaluated,
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn the_seed_scan_scores_few_of_the_benchmark_pairs() {
        // mine-heuristic's DV-FDP-Fo requests admit 8,521 (P4), 15,484 (P5) and 1,370
        // (P6) pairs; the cosine floors leave at most 3,446, 419 and 867 to score. The
        // seed is the one a scan scoring every admitted pair finds.
        let ctx = medium_context();
        let base = ProblemParams::paper_defaults(ctx.num_input_actions());
        let solver = DvFdpSolver::new(ConstraintMode::Fold);
        let token = CancelToken::new();
        for (id, admitted, most) in [(4, 8_521, 3_446), (5, 15_484, 419), (6, 1_370, 867)] {
            let problem = problem(id, base);
            let mut scored = 0u64;
            let (seed, evaluated) = solver.seed(&ctx, &problem, &token, |i, j| {
                scored += 1;
                distance(&ctx, &problem, i, j)
            });
            let n = ctx.num_groups() as u64;
            assert_eq!(evaluated, n * (n - 1) + admitted, "P{id}");
            assert!(scored <= most, "P{id}: {scored} pairs scored");
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 1..ctx.num_groups() {
                for j in (0..i).filter(|&j| pair_admits(&ctx, &problem, i, j)) {
                    let d = distance(&ctx, &problem, i, j);
                    if best.is_none_or(|(_, _, b)| d > b) {
                        best = Some((i, j, d));
                    }
                }
            }
            assert_eq!(seed, best.map(|(i, j, _)| (i, j)), "P{id}");
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
    fn names_follow_the_paper() {
        assert_eq!(DvFdpSolver::new(ConstraintMode::Ignore).name(), "DV-FDP");
        assert_eq!(DvFdpSolver::new(ConstraintMode::Filter).name(), "DV-FDP-Fi");
        assert_eq!(DvFdpSolver::new(ConstraintMode::Fold).name(), "DV-FDP-Fo");
    }

    #[test]
    fn fdp_finds_diverse_feasible_sets() {
        let ctx = small_context();
        let problem = problem_6(loose_params());
        let outcome = DvFdpSolver::new(ConstraintMode::Fold).solve(&ctx, &problem);
        assert!(!outcome.is_null());
        assert!(outcome.feasible);
        assert!(outcome.groups.len() <= 3);
        assert!(outcome.objective > 0.0);
    }

    #[test]
    fn fdp_quality_is_close_to_exact_on_diversity_problems() {
        let ctx = small_context();
        for problem in [
            problem_4(loose_params()),
            problem_5(loose_params()),
            problem_6(loose_params()),
        ] {
            let exact = ExactSolver::new().solve(&ctx, &problem);
            let fdp = DvFdpSolver::new(ConstraintMode::Fold).solve(&ctx, &problem);
            if exact.is_null() {
                continue;
            }
            assert!(!fdp.is_null(), "{}", problem.name);
            assert!(fdp.objective <= exact.objective + 1e-9, "{}", problem.name);
            // Well within the factor-4 guarantee on these tiny instances.
            assert!(
                fdp.objective >= exact.objective / 4.0 - 1e-9,
                "{}: fdp {} vs exact {}",
                problem.name,
                fdp.objective,
                exact.objective
            );
        }
    }

    #[test]
    fn unconstrained_greedy_matches_plain_dispersion() {
        let ctx = small_context();
        let problem = TagDmProblem::new("diversity-only", 3, 1).with_objective(
            ObjectiveSpec::standard(TaggingDimension::Tags, MiningCriterion::Diversity),
        );
        let ignore = DvFdpSolver::new(ConstraintMode::Ignore).solve(&ctx, &problem);
        let filter = DvFdpSolver::new(ConstraintMode::Filter).solve(&ctx, &problem);
        // Without constraints, Ignore and Filter run the identical greedy.
        assert_eq!(ignore.groups, filter.groups);
        assert!(!ignore.is_null());
    }

    #[test]
    fn folding_keeps_constraints_satisfied_during_selection() {
        let ctx = small_context();
        let problem = problem_6(ProblemParams {
            k: 3,
            min_support: 2,
            user_threshold: 0.25, // gender must match across the selected groups
            item_threshold: 0.0,
        });
        let outcome = DvFdpSolver::new(ConstraintMode::Fold).solve(&ctx, &problem);
        if !outcome.is_null() {
            assert!(problem.constraints_satisfied(&ctx, &outcome.groups));
        }
    }

    #[test]
    fn filter_mode_returns_null_on_violated_constraints() {
        let ctx = small_context();
        let mut problem = problem_4(loose_params());
        problem.min_support = 1_000_000;
        let outcome = DvFdpSolver::new(ConstraintMode::Filter).solve(&ctx, &problem);
        assert!(outcome.is_null());
    }

    #[test]
    fn work_counter_covers_every_seed_pair() {
        let ctx = small_context();
        let n = ctx.num_groups() as u64;
        let problem = problem_6(loose_params());
        let filter = DvFdpSolver::new(ConstraintMode::Filter).solve(&ctx, &problem);
        assert_eq!(filter.candidates_evaluated, n * (n - 1) / 2);
        let fold = DvFdpSolver::new(ConstraintMode::Fold).solve(&ctx, &problem);
        assert!(fold.candidates_evaluated > n * (n - 1) / 2);
    }

    #[test]
    fn a_deadline_cuts_the_seed_scan_short() {
        // Occupation × age × genre × actor over the medium corpus: well over 1,500
        // groups, so the full seed scan visits over a million pairs. Both sides keep
        // class tables, so Fo enumerates the admitted pairs from the class bitsets.
        let ds = MovieLensStyleGenerator::new(GeneratorConfig::medium()).generate();
        let groups = GroupingScheme::over(
            &ds,
            &[
                ("user", "occupation"),
                ("user", "age"),
                ("item", "genre"),
                ("item", "actor"),
            ],
        )
        .unwrap()
        .min_group_size(1)
        .enumerate(&ds);
        let ctx = MiningContext::build(&ds, groups, SummarizerChoice::Frequency);
        let n = ctx.num_groups() as u64;
        assert!(n >= 1_500, "{n} groups");
        let problem = problem_6(loose_params());
        assert!(ClassAdmits::new(&ctx, &problem).is_some());
        // A full Fi scan counts its n(n−1)/2 pairs; a full Fo scan counts each pair's
        // `[i, j]` test besides, n(n−1) before any admitted pair.
        for (mode, full) in [
            (ConstraintMode::Filter, n * (n - 1) / 2),
            (ConstraintMode::Fold, n * (n - 1)),
        ] {
            let token = CancelToken::after(Duration::from_millis(1));
            let outcome = DvFdpSolver::new(mode).solve_cancellable(&ctx, &problem, &token);
            assert!(
                outcome.candidates_evaluated < full,
                "{mode:?}: {} of {full}",
                outcome.candidates_evaluated,
            );
        }
    }

    #[test]
    fn cancellation_preserves_results_until_fired() {
        let ctx = small_context();
        let problem = problem_6(loose_params());
        let solver = DvFdpSolver::new(ConstraintMode::Fold);
        let direct = solver.solve(&ctx, &problem);
        let token = crate::solvers::CancelToken::new();
        let cancellable = solver.solve_cancellable(&ctx, &problem, &token);
        assert_eq!(direct.groups, cancellable.groups);
        assert_eq!(direct.objective, cancellable.objective);

        // A pre-fired token returns a null result before the seed scan.
        token.cancel();
        let truncated = solver.solve_cancellable(&ctx, &problem, &token);
        assert!(truncated.is_null());
        assert_eq!(truncated.candidates_evaluated, 0);
    }

    #[test]
    fn deterministic_results() {
        let ctx = small_context();
        let problem = problem_6(loose_params());
        let a = DvFdpSolver::new(ConstraintMode::Fold).solve(&ctx, &problem);
        let b = DvFdpSolver::new(ConstraintMode::Fold).solve(&ctx, &problem);
        assert_eq!(a.groups, b.groups);
    }
}
