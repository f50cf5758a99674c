//! The DV-FDP solver family (Section 5 of the paper): tag-diversity maximization via the
//! facility dispersion greedy.
//!
//! Every candidate group is a point (its tag signature vector in the unit hypercube);
//! the pairwise "distance" is the problem's pairwise objective contribution (for the
//! canonical diversity problems, `1 − cos θ` between tag signatures). DV-FDP builds the
//! `n × n` distance matrix and runs the Ravi–Rosenkrantz–Tayi MAX-AVG greedy
//! (Algorithm 2), which carries a factor-4 approximation guarantee for the
//! unconstrained problem (Theorem 4).
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
//! Because the distance is simply the pairwise objective, the same solver also handles
//! similarity-maximization instances (the "may also be extended to determine a set of
//! tagging action groups that are similar" remark of Section 5), which the ablation
//! benchmarks exercise.

use std::time::Instant;

use tagdm_geometry::dispersion::{max_avg_greedy, max_avg_greedy_with};
use tagdm_geometry::distance::DistanceMatrix;

use crate::context::MiningContext;
use crate::problem::TagDmProblem;
use crate::solvers::{CancelToken, ConstraintMode, Solver, SolverOutcome};

/// Tag-diversity (or, generally, pairwise-objective) maximization by greedy facility
/// dispersion.
#[derive(Debug, Clone)]
pub struct DvFdpSolver {
    /// How hard constraints are handled.
    pub mode: ConstraintMode,
}

impl DvFdpSolver {
    /// Create a solver with the given constraint-handling mode.
    pub fn new(mode: ConstraintMode) -> Self {
        DvFdpSolver { mode }
    }

    /// Build the pairwise-objective matrix `S_G` of Algorithm 2.
    fn objective_matrix(&self, ctx: &MiningContext, problem: &TagDmProblem) -> DistanceMatrix {
        DistanceMatrix::from_fn(ctx.num_groups(), |i, j| {
            problem.pairwise_objective(ctx, i, j)
        })
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
        let n = ctx.num_groups();
        // Cancellation is coarse here: the quadratic matrix build is one uninterruptible
        // block, so the token is honoured before it and at every greedy admissibility
        // test after it.
        if n == 0 || cancel.is_cancelled() {
            return SolverOutcome {
                elapsed: start.elapsed(),
                ..SolverOutcome::null(self.name())
            };
        }
        let matrix = self.objective_matrix(ctx, problem);
        // Building the matrix evaluates every pair once.
        let mut evaluated = (n as u64) * (n.saturating_sub(1) as u64) / 2;

        let selection = match self.mode {
            ConstraintMode::Ignore | ConstraintMode::Filter => {
                max_avg_greedy(&matrix, problem.max_groups)
            }
            ConstraintMode::Fold => {
                // The greedy add only admits a candidate if the grown set still satisfies
                // every non-support constraint (support is checked after selection).
                max_avg_greedy_with(&matrix, problem.max_groups, |selected, candidate| {
                    if cancel.is_cancelled() {
                        return false;
                    }
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

        let elapsed = start.elapsed();
        if selection.is_empty() || selection.len() < problem.min_groups {
            return SolverOutcome {
                elapsed,
                candidates_evaluated: evaluated,
                ..SolverOutcome::null(self.name())
            };
        }
        let objective = problem.objective(ctx, &selection);
        let feasible = problem.feasible(ctx, &selection);
        // Filtering semantics: a constraint-violating greedy result is a null result
        // (the paper notes DV-FDP-Fi "may return null results frequently").
        if self.mode == ConstraintMode::Filter && !feasible {
            return SolverOutcome {
                elapsed,
                candidates_evaluated: evaluated,
                ..SolverOutcome::null(self.name())
            };
        }
        SolverOutcome {
            solver: self.name(),
            groups: selection,
            objective,
            feasible,
            elapsed,
            candidates_evaluated: evaluated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{problem_4, problem_5, problem_6, ProblemParams};
    use crate::criteria::{MiningCriterion, TaggingDimension};
    use crate::problem::{ObjectiveSpec, TagDmProblem};
    use crate::solvers::test_support::small_context;
    use crate::solvers::ExactSolver;

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
    fn work_counter_reflects_the_quadratic_matrix_build() {
        let ctx = small_context();
        let n = ctx.num_groups() as u64;
        let problem = problem_6(loose_params());
        let outcome = DvFdpSolver::new(ConstraintMode::Filter).solve(&ctx, &problem);
        assert!(outcome.candidates_evaluated >= n * (n - 1) / 2);
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

        // A pre-fired token returns a null result before the matrix build.
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
