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

/// The most groups a set may have for [`DualMiningFunction::evaluate`] to keep its pair
/// scores on the stack (28 scores, 224 bytes). Table 1's problems ask for `k = 3`.
const STACK_SET: usize = 8;

/// A pair-wise aggregation dual mining function `F_pa(·, dimension, criterion)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
    /// on its unordered pairs in row-major `(i < j)` order, aggregated by `F_a`. Sets
    /// with fewer than two groups have no pairs and score 0. The scores of a set of at
    /// most eight groups are kept on the stack; only a larger set allocates.
    pub fn evaluate(&self, ctx: &MiningContext, set: &[usize]) -> f64 {
        let len = set.len() * set.len().saturating_sub(1) / 2;
        let mut stack = [0.0; STACK_SET * (STACK_SET - 1) / 2];
        let mut heap = Vec::new();
        let scores = if len <= stack.len() {
            &mut stack[..len]
        } else {
            heap.resize(len, 0.0);
            &mut heap[..]
        };
        let pairs = set
            .iter()
            .enumerate()
            .flat_map(|(i, &a)| set[i + 1..].iter().map(move |&b| (a, b)));
        for (score, (a, b)) in scores.iter_mut().zip(pairs) {
            *score = self.evaluate_pair(ctx, a, b);
        }
        self.aggregator.aggregate(scores)
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
    use tagdm_data::dataset::DatasetBuilder;
    use tagdm_data::group::GroupingScheme;

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
