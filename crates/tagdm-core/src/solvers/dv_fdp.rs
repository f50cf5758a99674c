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
//! matrix. The seed scan visits the pairs `(i, j)` for `i in 1..n`, `j in 0..i`, and
//! keeps the first strict maximum. Under Fo each pair is tested against the constraints
//! once, and its distance is scored only when it passes. When every constraint is
//! structural on users or items (all of Table 1's are) and the context keeps both
//! sides' class similarity tables, the test is two reads of per-side admit tables
//! (`pairs::ClassAdmits`), filled once per solve over the description-class pairs;
//! any other constraint set scores each pair's constraint functions. Either way the
//! scan visits the same pairs in the same order with the same verdicts. A greedy round
//! scores each candidate against the chosen groups only, into `k × k` constraint
//! tables. A solve allocates `O(n + k² + c²)` for `c` description classes.
//!
//! Bucketing the groups by `(user class, item class)` and testing whole blocks would
//! not shorten the scan: every enumerated group has a description of its own, so each
//! block holds one group (456 blocks for the medium four-attribute context's 456
//! groups).
//!
//! `candidates_evaluated` counts the `n(n−1)/2` pairs of the seed scan. Fo adds one for
//! each pair's `[i, j]` test, one more for its `[j, i]` test when the first passes, and
//! one for each candidate tested in a greedy round. The token is polled once per
//! seed-scan row and once per greedy candidate; when it fires the solver returns the
//! best admissible selection so far and counts only the pairs it scanned.
//!
//! Because the distance is simply the pairwise objective, the same solver also handles
//! similarity-maximization instances (the "may also be extended to determine a set of
//! tagging action groups that are similar" remark of Section 5), which the ablation
//! benchmarks exercise.

use std::time::{Duration, Instant};

use crate::context::MiningContext;
use crate::problem::TagDmProblem;
use crate::solvers::pairs::{pair_admits, ClassAdmits, PairTable, Walk};
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

        let classes = if fold {
            ClassAdmits::new(ctx, problem)
        } else {
            None
        };
        let admits = |i, j| match &classes {
            Some(classes) => classes.admits(i, j),
            None => pair_admits(ctx, problem, i, j),
        };
        let mut evaluated = 0u64;
        let mut seed: Option<(usize, usize, f64)> = None;
        for i in 1..n {
            if cancel.is_cancelled() {
                break;
            }
            evaluated += i as u64;
            for j in 0..i {
                if fold {
                    // One test answers both the `[i, j]` and the `[j, i]` test; each
                    // still counts.
                    evaluated += 1;
                    if !admits(i, j) {
                        continue;
                    }
                    evaluated += 1;
                }
                let d = distance(ctx, problem, i, j);
                if seed.is_none_or(|(_, _, best)| d > best) {
                    seed = Some((i, j, d));
                }
            }
        }
        let Some((i, j, _)) = seed else {
            return (Vec::new(), evaluated);
        };

        let table = fold.then(|| PairTable::constraints(problem, k));
        let mut walk = Walk::new(ctx, problem, table);
        walk.seed(j, i);
        walk.grow(
            0..n,
            k,
            |c, s| distance(ctx, problem, c, s),
            || {
                if cancel.is_cancelled() {
                    return false;
                }
                evaluated += u64::from(fold);
                true
            },
        );
        let mut selection = walk.groups;
        selection.sort_unstable();
        (selection, evaluated)
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
        let null = SolverOutcome {
            elapsed,
            candidates_evaluated: evaluated,
            ..SolverOutcome::null(self.name())
        };
        if selection.is_empty() || selection.len() < problem.min_groups {
            return null;
        }
        let feasible = problem.feasible(ctx, &selection);
        // Filtering semantics: a constraint-violating greedy result is a null result
        // (the paper notes DV-FDP-Fi "may return null results frequently").
        if self.mode == ConstraintMode::Filter && !feasible {
            return null;
        }
        SolverOutcome {
            solver: self.name(),
            objective: problem.objective(ctx, &selection),
            groups: selection,
            feasible,
            elapsed,
            candidates_evaluated: evaluated,
        }
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
    use crate::solvers::test_support::{random_context, small_context, GROUPINGS};
    use crate::solvers::ExactSolver;
    use proptest::prelude::*;
    use tagdm_data::generator::{GeneratorConfig, MovieLensStyleGenerator};
    use tagdm_data::group::GroupingScheme;
    use tagdm_geometry::dispersion::{max_avg_greedy, max_avg_greedy_with};
    use tagdm_geometry::distance::DistanceMatrix;

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
        let n = ctx.num_groups();
        if n == 0 {
            return solver.outcome(ctx, problem, Vec::new(), 0, Duration::ZERO);
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
        solver.outcome(ctx, problem, selection, evaluated, Duration::ZERO)
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
        // groups, so the full seed scan scores over a million pairs.
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
        let token = CancelToken::after(Duration::from_millis(1));
        let outcome =
            DvFdpSolver::new(ConstraintMode::Filter).solve_cancellable(&ctx, &problem, &token);
        assert!(
            outcome.candidates_evaluated < n * (n - 1) / 2,
            "{} of {} pairs",
            outcome.candidates_evaluated,
            n * (n - 1) / 2
        );
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
