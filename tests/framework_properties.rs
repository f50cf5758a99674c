//! Property-based integration tests over randomly generated corpora: the dual mining
//! framework's structural invariants must hold for *any* tagging data, not just the
//! hand-built fixtures.

use proptest::prelude::*;

use tagdm::prelude::*;

/// Strategy: a small random corpus with `users` users, `items` items and `actions`
/// tagging actions over a tiny vocabulary — adversarially small so that edge cases
/// (single-action groups, empty overlaps) actually occur.
fn arbitrary_dataset() -> impl Strategy<Value = Dataset> {
    (2usize..6, 2usize..6, 5usize..40, 0u64..1000).prop_map(|(users, items, actions, seed)| {
        let config = GeneratorConfig {
            num_users: users,
            num_items: items,
            num_actions: actions,
            vocab_size: 30,
            num_topics: 4,
            mean_tags_per_action: 2.0,
            num_occupations: 3,
            num_states: 3,
            num_genres: 3,
            num_actors: 4,
            num_directors: 3,
            zipf_exponent: 1.05,
            genre_topic_weight: 0.5,
            demographic_topic_weight: 0.3,
            rating_fraction: 0.5,
            seed,
        };
        MovieLensStyleGenerator::new(config).generate()
    })
}

fn context_for(dataset: &Dataset) -> MiningContext {
    let groups = GroupingScheme::over(dataset, &[("user", "gender"), ("item", "genre")])
        .unwrap()
        .enumerate(dataset);
    MiningContext::build(dataset, groups, SummarizerChoice::FrequencyNormalized)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pairwise_scores_are_bounded_and_dual(dataset in arbitrary_dataset()) {
        let ctx = context_for(&dataset);
        for a in 0..ctx.num_groups() {
            for b in 0..ctx.num_groups() {
                for dim in [TaggingDimension::Users, TaggingDimension::Items, TaggingDimension::Tags] {
                    let similarity = DualMiningFunction::standard(dim, MiningCriterion::Similarity);
                    let diversity = DualMiningFunction::standard(dim, MiningCriterion::Diversity);
                    let sim = similarity.evaluate_pair(&ctx, a, b);
                    let div = diversity.evaluate_pair(&ctx, a, b);
                    prop_assert!((0.0..=1.0).contains(&sim), "sim {sim} out of range");
                    prop_assert!((0.0..=1.0).contains(&div), "div {div} out of range");
                    prop_assert!((sim + div - 1.0).abs() < 1e-9);
                    // Symmetry.
                    let sim_ba = similarity.evaluate_pair(&ctx, b, a);
                    prop_assert!((sim - sim_ba).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn group_support_never_exceeds_the_corpus(dataset in arbitrary_dataset()) {
        let ctx = context_for(&dataset);
        let all: Vec<usize> = (0..ctx.num_groups()).collect();
        let support = ctx.support(&all);
        prop_assert!(support <= dataset.num_actions());
        // Full-coverage grouping schemes partition the corpus, so the union is everything.
        prop_assert_eq!(support, dataset.num_actions());
        // Support is monotone under set inclusion.
        if ctx.num_groups() >= 2 {
            prop_assert!(ctx.support(&all[..1]) <= ctx.support(&all[..2]));
        }
    }

    #[test]
    fn exact_dominates_heuristics_on_feasible_instances(dataset in arbitrary_dataset()) {
        let ctx = context_for(&dataset);
        prop_assume!(ctx.num_groups() >= 2);
        let params = ProblemParams { k: 2, min_support: 1, user_threshold: 0.0, item_threshold: 0.0 };
        for problem in [catalog::problem_1(params), catalog::problem_6(params)] {
            let exact = ExactSolver::new().solve(&ctx, &problem);
            let lsh = SmLshSolver::new(ConstraintMode::Fold).solve(&ctx, &problem);
            let fdp = DvFdpSolver::new(ConstraintMode::Fold).solve(&ctx, &problem);
            for heuristic in [&lsh, &fdp] {
                if !heuristic.is_null() && !exact.is_null() {
                    prop_assert!(heuristic.objective <= exact.objective + 1e-9);
                }
            }
        }
    }

    #[test]
    fn solver_outcomes_reference_valid_groups(dataset in arbitrary_dataset()) {
        let ctx = context_for(&dataset);
        prop_assume!(ctx.num_groups() >= 2);
        let params = ProblemParams { k: 3, min_support: 1, user_threshold: 0.0, item_threshold: 0.0 };
        let problem = catalog::problem_4(params);
        for outcome in [
            DvFdpSolver::new(ConstraintMode::Filter).solve(&ctx, &problem),
            DvFdpSolver::new(ConstraintMode::Fold).solve(&ctx, &problem),
            SmLshSolver::new(ConstraintMode::Filter).solve(&ctx, &problem),
        ] {
            let mut seen = std::collections::HashSet::new();
            for &g in &outcome.groups {
                prop_assert!(g < ctx.num_groups());
                prop_assert!(seen.insert(g), "duplicate group index in outcome");
            }
            prop_assert!(outcome.groups.len() <= problem.max_groups);
        }
    }

    #[test]
    fn objective_is_monotone_in_objective_weights(dataset in arbitrary_dataset()) {
        let ctx = context_for(&dataset);
        prop_assume!(ctx.num_groups() >= 2);
        let params = ProblemParams { k: 2, min_support: 1, user_threshold: 0.0, item_threshold: 0.0 };
        let mut problem = catalog::problem_1(params);
        let set: Vec<usize> = vec![0, 1];
        let base = problem.objective(&ctx, &set);
        problem.objectives[0].weight = 2.0;
        let doubled = problem.objective(&ctx, &set);
        prop_assert!((doubled - 2.0 * base).abs() < 1e-9);
    }
}
