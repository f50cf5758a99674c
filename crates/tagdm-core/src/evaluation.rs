//! Evaluation helpers: quality reports, solver comparisons and human-readable result
//! rendering.
//!
//! The paper's quantitative evaluation reports two indicators per run (Section 6.1):
//! overall response time and result quality, the latter measured as the average pairwise
//! cosine similarity between the tag signature vectors of the `k` returned groups.
//! [`QualityReport`] captures both plus the support and feasibility of the result, and
//! [`compare`] runs several solvers on the same context/problem to produce the rows of
//! Figures 3–8.

use serde::{Deserialize, Serialize};

use tagdm_data::dataset::Dataset;

use crate::context::MiningContext;
use crate::criteria::{MiningCriterion, TaggingDimension};
use crate::functions::DualMiningFunction;
use crate::problem::TagDmProblem;
use crate::solvers::{Solver, SolverOutcome};

/// The per-run measurements reported by the experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityReport {
    /// Solver name.
    pub solver: String,
    /// Indices of the returned groups.
    pub groups: Vec<usize>,
    /// Value of the problem's optimization goal.
    pub objective: f64,
    /// Average pairwise cosine similarity between the returned groups' tag signatures
    /// (the paper's quality measure, reported for both similarity and diversity
    /// problems).
    pub avg_pairwise_tag_similarity: f64,
    /// Average pairwise tag diversity (1 − similarity), convenient for the diversity
    /// problems.
    pub avg_pairwise_tag_diversity: f64,
    /// Group support of the result.
    pub support: usize,
    /// Support as a fraction of the input tuples.
    pub support_fraction: f64,
    /// Whether the result satisfies the problem's constraints, size and support bounds.
    pub feasible: bool,
    /// Whether the solver returned any groups at all.
    pub null_result: bool,
    /// Solver wall-clock time in milliseconds.
    pub elapsed_ms: f64,
    /// Machine-independent work counter (candidate sets evaluated).
    pub candidates_evaluated: u64,
}

/// Build the quality report for one solver outcome.
pub fn evaluate(
    ctx: &MiningContext,
    problem: &TagDmProblem,
    outcome: &SolverOutcome,
) -> QualityReport {
    let tags = |criterion| {
        DualMiningFunction::standard(TaggingDimension::Tags, criterion)
            .evaluate(ctx, &outcome.groups)
    };
    QualityReport {
        solver: outcome.solver.clone(),
        groups: outcome.groups.clone(),
        objective: outcome.objective,
        avg_pairwise_tag_similarity: tags(MiningCriterion::Similarity),
        avg_pairwise_tag_diversity: tags(MiningCriterion::Diversity),
        support: ctx.support(&outcome.groups),
        support_fraction: ctx.support_fraction(&outcome.groups),
        feasible: outcome.feasible && problem.feasible(ctx, &outcome.groups),
        null_result: outcome.is_null(),
        elapsed_ms: outcome.elapsed.as_secs_f64() * 1e3,
        candidates_evaluated: outcome.candidates_evaluated,
    }
}

/// Run every solver on the same context and problem and report the results.
pub fn compare(
    ctx: &MiningContext,
    problem: &TagDmProblem,
    solvers: &[&dyn Solver],
) -> Vec<QualityReport> {
    solvers
        .iter()
        .map(|solver| {
            let outcome = solver.solve(ctx, problem);
            evaluate(ctx, problem, &outcome)
        })
        .collect()
}

/// Render a result set as human-readable lines: each group's description followed by its
/// most frequent tags, like the `G_opt` listings of Section 2.2.
pub fn render_groups(
    ctx: &MiningContext,
    dataset: &Dataset,
    groups: &[usize],
    top_tags: usize,
) -> Vec<String> {
    groups
        .iter()
        .map(|&idx| {
            let group = ctx.group(idx);
            let description = group
                .description
                .describe(&dataset.user_schema, &dataset.item_schema);
            let tags: Vec<String> = group
                .top_tags(top_tags)
                .into_iter()
                .map(|(t, c)| format!("{} ({c})", dataset.tags.name(t).unwrap_or("<unknown>")))
                .collect();
            format!(
                "{description} [{} tuples] tags: {}",
                group.len(),
                tags.join(", ")
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{problem_1, problem_6, ProblemParams};
    use crate::context::SummarizerChoice;
    use crate::solvers::test_support::{small_context, small_dataset};
    use crate::solvers::{ConstraintMode, DvFdpSolver, ExactSolver, SmLshSolver};
    use tagdm_data::group::GroupingScheme;

    fn loose_params() -> ProblemParams {
        ProblemParams {
            k: 3,
            min_support: 2,
            user_threshold: 0.2,
            item_threshold: 0.2,
        }
    }

    #[test]
    fn report_fields_are_consistent_with_the_outcome() {
        let ctx = small_context();
        let problem = problem_1(loose_params());
        let outcome = ExactSolver::new().solve(&ctx, &problem);
        let report = evaluate(&ctx, &problem, &outcome);
        assert_eq!(report.solver, "Exact");
        assert_eq!(report.groups, outcome.groups);
        assert!((report.objective - outcome.objective).abs() < 1e-12);
        assert!(report.feasible);
        assert!(!report.null_result);
        assert!(report.support >= problem.min_support);
        assert!((0.0..=1.0).contains(&report.support_fraction));
        assert!(
            (report.avg_pairwise_tag_similarity + report.avg_pairwise_tag_diversity - 1.0).abs()
                < 1e-9
        );
    }

    #[test]
    fn compare_runs_every_solver_once() {
        let ctx = small_context();
        let problem = problem_6(loose_params());
        let exact = ExactSolver::new();
        let fdp_fi = DvFdpSolver::new(ConstraintMode::Filter);
        let fdp_fo = DvFdpSolver::new(ConstraintMode::Fold);
        let reports = compare(&ctx, &problem, &[&exact, &fdp_fi, &fdp_fo]);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].solver, "Exact");
        assert_eq!(reports[1].solver, "DV-FDP-Fi");
        assert_eq!(reports[2].solver, "DV-FDP-Fo");
        // Exact dominates the heuristics on objective value.
        for r in &reports[1..] {
            if !r.null_result {
                assert!(r.objective <= reports[0].objective + 1e-9);
            }
        }
    }

    #[test]
    fn lsh_report_for_similarity_problem_has_high_tag_similarity() {
        let ctx = small_context();
        let problem = problem_1(loose_params());
        let outcome = SmLshSolver::new(ConstraintMode::Fold)
            .with_bits(6)
            .solve(&ctx, &problem);
        let report = evaluate(&ctx, &problem, &outcome);
        assert!(!report.null_result);
        assert!(report.avg_pairwise_tag_similarity > 0.3);
    }

    #[test]
    fn render_groups_produces_readable_descriptions() {
        let ds = small_dataset();
        let groups = GroupingScheme::over(&ds, &[("user", "gender"), ("item", "genre")])
            .unwrap()
            .min_group_size(2)
            .enumerate(&ds);
        let ctx = MiningContext::build(&ds, groups, SummarizerChoice::Frequency);
        let lines = render_groups(&ctx, &ds, &[0, 1], 2);
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.contains("user.gender="));
            assert!(line.contains("item.genre="));
            assert!(line.contains("tags:"));
        }
    }

    #[test]
    fn null_outcomes_report_zero_scores() {
        let ctx = small_context();
        let problem = problem_1(loose_params());
        let outcome = crate::solvers::SolverOutcome::null("nothing");
        let report = evaluate(&ctx, &problem, &outcome);
        assert!(report.null_result);
        assert_eq!(report.support, 0);
        assert_eq!(report.avg_pairwise_tag_similarity, 0.0);
        assert_eq!(report.avg_pairwise_tag_diversity, 0.0);
        assert!(!report.feasible);
    }
}
