//! Cross-crate integration tests: the full TagDM pipeline from synthetic corpus
//! generation through group enumeration, LDA tag signatures and every solver family,
//! on all six canonical problems of Table 1.

use tagdm::prelude::*;
use tagdm_core::solvers::recommend;

fn pipeline_context() -> (Dataset, MiningContext, ProblemParams) {
    let dataset = MovieLensStyleGenerator::new(GeneratorConfig::small()).generate();
    let groups = GroupingScheme::over(
        &dataset,
        &[("user", "gender"), ("user", "age"), ("item", "genre")],
    )
    .unwrap()
    .min_group_size(5)
    .enumerate(&dataset);
    assert!(
        groups.len() >= 10,
        "small corpus should yield a healthy group count"
    );
    let ctx = MiningContext::build(&dataset, groups, SummarizerChoice::fast_lda(10));
    let params = ProblemParams {
        k: 3,
        min_support: dataset.num_actions() / 100,
        user_threshold: 0.3,
        item_threshold: 0.3,
    };
    (dataset, ctx, params)
}

#[test]
fn all_canonical_problems_are_solvable_end_to_end() {
    let (_dataset, ctx, params) = pipeline_context();
    let exact = ExactSolver::new();
    for (i, problem) in catalog::canonical_problems(params).iter().enumerate() {
        problem.validate().unwrap();
        let exact_outcome = exact.solve(&ctx, problem);
        let recommended = recommend(problem);
        let heuristic_outcome = recommended.solve(&ctx, problem);

        // Whenever the exact solver finds a feasible optimum, the recommended heuristic
        // must find *something* and never beat the optimum.
        if !exact_outcome.is_null() {
            assert!(
                !heuristic_outcome.is_null(),
                "problem {} ({}): heuristic {} returned null although a feasible set exists",
                i + 1,
                problem.describe(),
                recommended.name()
            );
            assert!(
                heuristic_outcome.objective <= exact_outcome.objective + 1e-9,
                "problem {}: heuristic beat the exact optimum",
                i + 1
            );
            assert!(heuristic_outcome.feasible);
            assert!(heuristic_outcome.groups.len() <= params.k);
            // Diversity problems come with the paper's factor-4 guarantee; similarity
            // problems have no formal bound but should stay within a factor 2 here.
            let ratio = if exact_outcome.objective > 0.0 {
                heuristic_outcome.objective / exact_outcome.objective
            } else {
                1.0
            };
            assert!(
                ratio >= 0.25,
                "problem {}: heuristic quality ratio {ratio:.3} is implausibly poor",
                i + 1
            );
        }
    }
}

#[test]
fn lsh_and_fdp_families_cover_their_respective_problems() {
    let (_dataset, ctx, params) = pipeline_context();
    // Problems 1-3 (similarity): SM-LSH variants return feasible results.
    for pid in 1..=3 {
        let problem = catalog::problem(pid, params);
        for mode in [ConstraintMode::Filter, ConstraintMode::Fold] {
            let outcome = SmLshSolver::new(mode).solve(&ctx, &problem);
            if !outcome.is_null() {
                assert!(
                    problem.feasible(&ctx, &outcome.groups),
                    "problem {pid} {mode:?}"
                );
            }
        }
    }
    // Problems 4-6 (diversity): DV-FDP variants return feasible results.
    for pid in 4..=6 {
        let problem = catalog::problem(pid, params);
        let outcome = DvFdpSolver::new(ConstraintMode::Fold).solve(&ctx, &problem);
        if !outcome.is_null() {
            assert!(problem.feasible(&ctx, &outcome.groups), "problem {pid}");
        }
    }
}

#[test]
fn pipeline_is_deterministic_from_seed_to_solution() {
    let run = || {
        let (_d, ctx, params) = pipeline_context();
        let problem = catalog::problem_6(params);
        DvFdpSolver::new(ConstraintMode::Fold)
            .solve(&ctx, &problem)
            .groups
    };
    assert_eq!(run(), run());
}

#[test]
fn support_and_constraints_are_honoured_by_returned_sets() {
    let (_dataset, ctx, params) = pipeline_context();
    for problem in catalog::canonical_problems(params) {
        let outcome = recommend(&problem).solve(&ctx, &problem);
        if outcome.is_null() {
            continue;
        }
        assert!(ctx.support(&outcome.groups) >= problem.min_support);
        assert!(problem.constraints_satisfied(&ctx, &outcome.groups));
        for &g in &outcome.groups {
            assert!(g < ctx.num_groups());
            assert!(
                !ctx.group(g).description.is_empty(),
                "groups must stay describable"
            );
        }
    }
}

#[test]
fn quality_reports_match_recomputed_scores() {
    let (_dataset, ctx, params) = pipeline_context();
    let problem = catalog::problem_1(params);
    let outcome = SmLshSolver::new(ConstraintMode::Fold).solve(&ctx, &problem);
    let report = evaluation::evaluate(&ctx, &problem, &outcome);
    if !outcome.is_null() {
        let recomputed =
            DualMiningFunction::standard(TaggingDimension::Tags, MiningCriterion::Similarity)
                .evaluate(&ctx, &outcome.groups);
        assert!((report.avg_pairwise_tag_similarity - recomputed).abs() < 1e-12);
        assert!((report.objective - problem.objective(&ctx, &outcome.groups)).abs() < 1e-12);
    }
}
