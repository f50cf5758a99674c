//! Dual mining functions (Definitions 2 and 3 of the paper).
//!
//! A dual mining function `F : G × b × m → float` scores a *set* of tagging-action
//! groups on one dimension under one criterion. The practically relevant subclass is the
//! pair-wise aggregation dual mining function `F_pa`, which evaluates a pairwise
//! comparison `F_p` on every unordered pair of groups and aggregates the results with
//! `F_a`. [`DualMiningFunction`] is that subclass, parameterized by the comparison kind
//! and the aggregator, and it is the one place a pair or a set is scored: the
//! [`MiningContext`] supplies an unoriented pair similarity, and the function owns the
//! criterion's orientation, the row-major `(i < j)` pair order and `F_a`.

use serde::{Deserialize, Serialize};

use crate::context::MiningContext;
use crate::criteria::{Aggregator, MiningCriterion, PairwiseKind, TaggingDimension};

/// A pair-wise aggregation dual mining function `F_pa(·, dimension, criterion)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DualMiningFunction {
    /// The tagging dimension `b` the function examines.
    pub dimension: TaggingDimension,
    /// The dual mining criterion `m` (similarity or diversity).
    pub criterion: MiningCriterion,
    /// The concrete pairwise comparison `F_p`.
    pub kind: PairwiseKind,
    /// The aggregation `F_a` over pairwise scores.
    pub aggregator: Aggregator,
}

impl DualMiningFunction {
    /// The paper's default function for a dimension/criterion pair: structural
    /// comparison for users/items, signature cosine for tags, mean aggregation.
    pub fn standard(dimension: TaggingDimension, criterion: MiningCriterion) -> Self {
        DualMiningFunction {
            dimension,
            criterion,
            kind: PairwiseKind::default_for(dimension),
            aggregator: Aggregator::Mean,
        }
    }

    /// Replace the pairwise comparison kind.
    pub fn with_kind(mut self, kind: PairwiseKind) -> Self {
        self.kind = kind;
        self
    }

    /// Replace the aggregator.
    pub fn with_aggregator(mut self, aggregator: Aggregator) -> Self {
        self.aggregator = aggregator;
        self
    }

    /// Evaluate the function on a candidate set: [`evaluate_pair`](Self::evaluate_pair)
    /// on its unordered pairs in row-major `(i < j)` order, folded by `F_a`. Sets with
    /// fewer than two groups have no pairs and score 0.
    pub fn evaluate(&self, ctx: &MiningContext, set: &[usize]) -> f64 {
        self.value(set.len(), |i, j| self.evaluate_pair(ctx, set[i], set[j]))
    }

    /// The function's value on a set of `len` members, whose pair at positions `i < j`
    /// of the set's own order scores `score(i, j)`. This is the one valuation rule of
    /// every solver and report (Definition 3), which
    /// [`TagDmProblem`](crate::problem::TagDmProblem) composes into feasibility and the
    /// weighted objective (Definition 4); each caller supplies only its score source.
    ///
    /// The pairs are taken in row-major `(i < j)` order, each scored once, and folded
    /// straight into `F_a` (see [`Aggregator::aggregate`]): Mean and Sum add from
    /// `-0.0`, Min and Max fold `f64::min`/`f64::max` from `±∞`, and Mean divides by the
    /// `len(len − 1)/2` pairs. A set with no pairs (fewer than two members) values 0.
    /// A source that returns `evaluate_pair`'s bits for each pair therefore values a set
    /// bit for bit as [`evaluate`](Self::evaluate) does.
    #[inline]
    pub(crate) fn value(&self, len: usize, mut score: impl FnMut(usize, usize) -> f64) -> f64 {
        let aggregator = self.aggregator;
        let mut folded = aggregator.start();
        for i in 0..len {
            for j in i + 1..len {
                folded = aggregator.step(folded, score(i, j));
            }
        }
        aggregator.finish(folded, len * len.saturating_sub(1) / 2)
    }

    /// Evaluate the oriented pairwise comparison `F_p(g_a, g_b, dimension, criterion)` on
    /// a single pair. On the tags dimension every kind compares the tag signatures by
    /// cosine, so `Structural` and `ItemSetJaccard` score like `TagCosine` there.
    pub fn evaluate_pair(&self, ctx: &MiningContext, a: usize, b: usize) -> f64 {
        self.criterion
            .orient(ctx.pairwise_similarity(self.dimension, self.kind, a, b))
    }

    /// A short description such as `"tags similarity (tag-cosine, mean)"`.
    pub fn describe(&self) -> String {
        format!(
            "{} {} ({}, {})",
            self.dimension.name(),
            self.criterion.name(),
            self.kind.name(),
            self.aggregator.name()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SummarizerChoice;
    use crate::solvers::test_support::{random_context, GROUPINGS};
    use proptest::prelude::*;
    use tagdm_data::dataset::DatasetBuilder;
    use tagdm_data::group::GroupingScheme;

    const AGGREGATORS: [Aggregator; 4] = [
        Aggregator::Mean,
        Aggregator::Min,
        Aggregator::Max,
        Aggregator::Sum,
    ];

    /// The reference valuation: a set's pair scores collected in row-major `(i < j)`
    /// order into a list, then aggregated by the list's sum, minimum or maximum.
    fn collected(aggregator: Aggregator, scores: &[f64]) -> f64 {
        if scores.is_empty() {
            return 0.0;
        }
        match aggregator {
            Aggregator::Mean => scores.iter().sum::<f64>() / scores.len() as f64,
            Aggregator::Min => scores.iter().copied().fold(f64::INFINITY, f64::min),
            Aggregator::Max => scores.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            Aggregator::Sum => scores.iter().sum(),
        }
    }

    /// Whether a valuation agrees with the reference: the same bits, except that a Min or
    /// Max of zeros may carry either sign. `f64::min` and `f64::max` leave the sign of
    /// `min(-0.0, +0.0)` unspecified, and an optimized build returns `-0.0` where an
    /// unoptimized one returns `+0.0`. No pair score is `-0.0`: every `F_p` is a ratio
    /// of non-negative sums or `1 −` one.
    fn agrees(aggregator: Aggregator, got: f64, want: f64) -> bool {
        let zeros = got == 0.0 && want == 0.0;
        got.to_bits() == want.to_bits()
            || zeros && matches!(aggregator, Aggregator::Min | Aggregator::Max)
    }

    /// A pair score: about one draw in six a signed zero, a subnormal, 1 or NaN.
    fn score() -> impl Strategy<Value = f64> {
        const SPECIAL: [f64; 7] = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, 1.0, f64::NAN];
        (0usize..42, 0.0f64..1.0).prop_map(|(s, x)| SPECIAL.get(s).copied().unwrap_or(x))
    }

    fn ctx() -> MiningContext {
        let mut b = DatasetBuilder::movielens_style();
        let u0 = b
            .add_user([
                ("gender", "male"),
                ("age", "18-24"),
                ("occupation", "student"),
                ("state", "ny"),
            ])
            .unwrap();
        let u1 = b
            .add_user([
                ("gender", "female"),
                ("age", "18-24"),
                ("occupation", "artist"),
                ("state", "ca"),
            ])
            .unwrap();
        let i0 = b
            .add_item([("genre", "comedy"), ("actor", "a"), ("director", "x")])
            .unwrap();
        let i1 = b
            .add_item([("genre", "war"), ("actor", "b"), ("director", "y")])
            .unwrap();
        b.add_action_str(u0, i0, &["funny", "light"], None).unwrap();
        b.add_action_str(u1, i0, &["funny", "light"], None).unwrap();
        b.add_action_str(u0, i1, &["gritty"], None).unwrap();
        b.add_action_str(u1, i1, &["war", "tense"], None).unwrap();
        let ds = b.build();
        let groups = GroupingScheme::over(&ds, &[("user", "gender"), ("item", "genre")])
            .unwrap()
            .enumerate(&ds);
        MiningContext::build(&ds, groups, SummarizerChoice::Frequency)
    }

    #[test]
    fn standard_functions_use_paper_defaults() {
        let f = DualMiningFunction::standard(TaggingDimension::Tags, MiningCriterion::Similarity);
        assert_eq!(f.kind, PairwiseKind::TagCosine);
        assert_eq!(f.aggregator, Aggregator::Mean);
        let g = DualMiningFunction::standard(TaggingDimension::Users, MiningCriterion::Diversity);
        assert_eq!(g.kind, PairwiseKind::Structural);
    }

    #[test]
    fn evaluate_aggregates_all_pairs() {
        let ctx = ctx();
        let f = DualMiningFunction::standard(TaggingDimension::Tags, MiningCriterion::Similarity);
        let mean = f.evaluate(&ctx, &[0, 1, 2]);
        let manual = (f.evaluate_pair(&ctx, 0, 1)
            + f.evaluate_pair(&ctx, 0, 2)
            + f.evaluate_pair(&ctx, 1, 2))
            / 3.0;
        assert_eq!(mean.to_bits(), manual.to_bits());
        // Singleton and empty sets score zero, under either criterion.
        let g = DualMiningFunction::standard(TaggingDimension::Tags, MiningCriterion::Diversity);
        for set in [&[0usize][..], &[]] {
            assert_eq!(f.evaluate(&ctx, set), 0.0);
            assert_eq!(g.evaluate(&ctx, set), 0.0);
        }
    }

    #[test]
    fn similarity_and_diversity_evaluations_are_duals_per_pair() {
        let ctx = ctx();
        let sim = DualMiningFunction::standard(TaggingDimension::Tags, MiningCriterion::Similarity);
        let div = DualMiningFunction::standard(TaggingDimension::Tags, MiningCriterion::Diversity);
        for a in 0..ctx.num_groups() {
            for b in (a + 1)..ctx.num_groups() {
                let s = sim.evaluate_pair(&ctx, a, b);
                let d = div.evaluate_pair(&ctx, a, b);
                assert!((s + d - 1.0).abs() < 1e-12);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The fold gives the collected list's bits for every aggregator: over a list of
        // 0, 1 or 29 to 66 scores, and over the pairs of a set of 0 to 12 members.
        #[test]
        fn prop_the_fold_matches_collect_then_aggregate(
            pool in proptest::collection::vec(score(), 66),
            cut in (0usize..4, 29usize..67).prop_map(|(c, long)| [0, 1].get(c).copied().unwrap_or(long)),
            members in 0usize..13,
        ) {
            let pairs = &pool[..members * members.saturating_sub(1) / 2];
            // The row-major index of the pair at positions `i < j`.
            let at = |i: usize, j: usize| i * (2 * members - i - 1) / 2 + (j - i - 1);
            for aggregator in AGGREGATORS {
                let list = &pool[..cut];
                let (got, want) = (aggregator.aggregate(list), collected(aggregator, list));
                prop_assert!(agrees(aggregator, got, want), "{:?}: {} vs {}", aggregator, got, want);
                let function =
                    DualMiningFunction::standard(TaggingDimension::Tags, MiningCriterion::Similarity)
                        .with_aggregator(aggregator);
                let got = function.value(members, |i, j| pairs[at(i, j)]);
                let want = collected(aggregator, pairs);
                prop_assert!(agrees(aggregator, got, want), "{:?}: {} vs {}", aggregator, got, want);
            }
        }

        // `evaluate` gives the collected bits of every function on sets of 0 to 12
        // distinct groups in any order, as the heuristics' walks hold them.
        #[test]
        fn prop_evaluate_matches_collect_then_aggregate(
            seed in 0u64..1_000,
            actions in 40usize..400,
            grouping in 0usize..GROUPINGS.len(),
            len in 0usize..13,
            keys in proptest::collection::vec(0u64..u64::MAX, 64),
        ) {
            let ctx = random_context(seed, actions, grouping);
            // The first `len` groups of a random permutation.
            let mut set: Vec<usize> = (0..ctx.num_groups()).collect();
            set.sort_by_key(|&g| keys[g % keys.len()] ^ g as u64);
            set.truncate(len);
            let kinds = [
                PairwiseKind::Structural,
                PairwiseKind::ItemSetJaccard,
                PairwiseKind::TagCosine,
            ];
            for dimension in TaggingDimension::ALL {
                for kind in kinds {
                    for criterion in MiningCriterion::ALL {
                        for aggregator in AGGREGATORS {
                            let f = DualMiningFunction::standard(dimension, criterion)
                                .with_kind(kind)
                                .with_aggregator(aggregator);
                            let mut scores = Vec::new();
                            for (i, &a) in set.iter().enumerate() {
                                for &b in &set[i + 1..] {
                                    scores.push(f.evaluate_pair(&ctx, a, b));
                                }
                            }
                            let got = f.evaluate(&ctx, &set);
                            let want = collected(aggregator, &scores);
                            prop_assert!(
                                agrees(aggregator, got, want),
                                "{}: {} vs {} on {:?}",
                                f.describe(),
                                got,
                                want,
                                set
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn builder_methods_override_kind_and_aggregator() {
        let f = DualMiningFunction::standard(TaggingDimension::Users, MiningCriterion::Similarity)
            .with_kind(PairwiseKind::ItemSetJaccard)
            .with_aggregator(Aggregator::Min);
        assert_eq!(f.kind, PairwiseKind::ItemSetJaccard);
        assert_eq!(f.aggregator, Aggregator::Min);
        assert!(f.describe().contains("item-set-jaccard"));
        assert!(f.describe().contains("min"));
    }
}
