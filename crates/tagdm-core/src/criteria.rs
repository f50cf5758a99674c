//! The vocabulary of the dual mining framework: dimensions, criteria, pairwise
//! comparison kinds and aggregation operators.

use serde::{Deserialize, Serialize};

/// The tagging behaviour dimension `b ∈ {users, items, tags}` a dual mining function is
/// applied to (Definition 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TaggingDimension {
    /// The users performing the tagging actions.
    Users,
    /// The items being tagged.
    Items,
    /// The tags themselves.
    Tags,
}

impl TaggingDimension {
    /// All three dimensions, in the paper's order.
    pub const ALL: [TaggingDimension; 3] = [
        TaggingDimension::Users,
        TaggingDimension::Items,
        TaggingDimension::Tags,
    ];

    /// Lower-case display name.
    pub fn name(self) -> &'static str {
        match self {
            TaggingDimension::Users => "users",
            TaggingDimension::Items => "items",
            TaggingDimension::Tags => "tags",
        }
    }
}

/// The dual mining criterion `m ∈ {similarity, diversity}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MiningCriterion {
    /// Prefer groups that agree on the dimension.
    Similarity,
    /// Prefer groups that disagree on the dimension.
    Diversity,
}

impl MiningCriterion {
    /// Both criteria.
    pub const ALL: [MiningCriterion; 2] = [MiningCriterion::Similarity, MiningCriterion::Diversity];

    /// The opposite criterion.
    pub fn dual(self) -> MiningCriterion {
        match self {
            MiningCriterion::Similarity => MiningCriterion::Diversity,
            MiningCriterion::Diversity => MiningCriterion::Similarity,
        }
    }

    /// Lower-case display name.
    pub fn name(self) -> &'static str {
        match self {
            MiningCriterion::Similarity => "similarity",
            MiningCriterion::Diversity => "diversity",
        }
    }

    /// Orient a similarity score in `[0, 1]` according to the criterion: similarity
    /// passes through, diversity inverts (`1 − s`).
    pub fn orient(self, similarity: f64) -> f64 {
        match self {
            MiningCriterion::Similarity => similarity,
            MiningCriterion::Diversity => 1.0 - similarity,
        }
    }
}

/// The concrete pairwise comparison function `F_p(g_1, g_2, b, m)` used for a dimension
/// (Section 2.1 of the paper). Every kind produces a *similarity* in `[0, 1]`; diversity
/// is obtained by [`MiningCriterion::orient`]. On [`TaggingDimension::Tags`] every kind
/// scores like [`PairwiseKind::TagCosine`]: descriptions and item sets are not tags, so
/// `Structural` and `ItemSetJaccard` fall back to the signature cosine there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PairwiseKind {
    /// Structural distance between group descriptions: the fraction of schema attributes
    /// on which both descriptions agree (Section 2.1.1, first variant).
    Structural,
    /// Set distance between the item sets tagged by the two groups (Jaccard overlap of
    /// `g_1.I` and `g_2.I`; Section 2.1.1, second variant).
    ItemSetJaccard,
    /// Cosine similarity between the two group tag signatures (Section 2.1.2).
    TagCosine,
}

impl PairwiseKind {
    /// The default comparison kind for a dimension, as used in the paper's experiments:
    /// structural distance for users and items, signature cosine for tags.
    pub fn default_for(dimension: TaggingDimension) -> PairwiseKind {
        match dimension {
            TaggingDimension::Users | TaggingDimension::Items => PairwiseKind::Structural,
            TaggingDimension::Tags => PairwiseKind::TagCosine,
        }
    }

    /// Lower-case display name.
    pub fn name(self) -> &'static str {
        match self {
            PairwiseKind::Structural => "structural",
            PairwiseKind::ItemSetJaccard => "item-set-jaccard",
            PairwiseKind::TagCosine => "tag-cosine",
        }
    }
}

/// The aggregation function `F_a` of a pair-wise aggregation dual mining function
/// (Definition 3): how the pairwise scores over all pairs of the candidate set are
/// combined into one score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Aggregator {
    /// Average over all pairs (the paper's evaluation measure).
    Mean,
    /// Minimum over all pairs (every pair must meet the bar).
    Min,
    /// Maximum over all pairs.
    Max,
    /// Sum over all pairs (unnormalized).
    Sum,
}

impl Aggregator {
    /// Aggregate a list of pairwise scores. Empty input (candidate sets with fewer than
    /// two groups) aggregates to 0.
    pub fn aggregate(self, scores: &[f64]) -> f64 {
        if scores.is_empty() {
            return 0.0;
        }
        match self {
            Aggregator::Mean => scores.iter().sum::<f64>() / scores.len() as f64,
            Aggregator::Min => scores.iter().copied().fold(f64::INFINITY, f64::min),
            Aggregator::Max => scores.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            Aggregator::Sum => scores.iter().sum(),
        }
    }

    /// Lower-case display name.
    pub fn name(self) -> &'static str {
        match self {
            Aggregator::Mean => "mean",
            Aggregator::Min => "min",
            Aggregator::Max => "max",
            Aggregator::Sum => "sum",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orient_inverts_for_diversity() {
        assert_eq!(MiningCriterion::Similarity.orient(0.8), 0.8);
        assert!((MiningCriterion::Diversity.orient(0.8) - 0.2).abs() < 1e-12);
        assert_eq!(
            MiningCriterion::Similarity.dual(),
            MiningCriterion::Diversity
        );
        assert_eq!(
            MiningCriterion::Diversity.dual(),
            MiningCriterion::Similarity
        );
    }

    #[test]
    fn default_pairwise_kinds_match_the_paper() {
        assert_eq!(
            PairwiseKind::default_for(TaggingDimension::Users),
            PairwiseKind::Structural
        );
        assert_eq!(
            PairwiseKind::default_for(TaggingDimension::Items),
            PairwiseKind::Structural
        );
        assert_eq!(
            PairwiseKind::default_for(TaggingDimension::Tags),
            PairwiseKind::TagCosine
        );
    }

    #[test]
    fn aggregators_compute_expected_values() {
        let scores = [0.2, 0.4, 0.9];
        assert!((Aggregator::Mean.aggregate(&scores) - 0.5).abs() < 1e-12);
        assert_eq!(Aggregator::Min.aggregate(&scores), 0.2);
        assert_eq!(Aggregator::Max.aggregate(&scores), 0.9);
        assert!((Aggregator::Sum.aggregate(&scores) - 1.5).abs() < 1e-12);
        for agg in [
            Aggregator::Mean,
            Aggregator::Min,
            Aggregator::Max,
            Aggregator::Sum,
        ] {
            assert_eq!(agg.aggregate(&[]), 0.0);
            assert!(!agg.name().is_empty());
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(TaggingDimension::Users.name(), "users");
        assert_eq!(MiningCriterion::Diversity.name(), "diversity");
        assert_eq!(PairwiseKind::TagCosine.name(), "tag-cosine");
        assert_eq!(TaggingDimension::ALL.len(), 3);
        assert_eq!(MiningCriterion::ALL.len(), 2);
    }
}
