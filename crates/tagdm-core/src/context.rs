//! The mining context: per-group pre-computations shared by every dual mining function
//! and solver.
//!
//! Building a context performs the expensive, solver-independent work once — group tag
//! signature generation (LDA/tf·idf/frequency), extraction of each group's description
//! values, and the unarized (one-hot) attribute vectors used by the constraint-folding
//! algorithm variants — so that the Exact, SM-LSH and DV-FDP solvers all operate on
//! identical inputs and their running times are directly comparable, exactly as in the
//! paper's experimental setup.
//!
//! A context also holds SM-LSH's pre-processing step (Algorithm 1): the LSH index over
//! the groups' folded vectors, one per fold variant `(fold_users, fold_items)`. It is
//! hashed lazily by the first SM-LSH solve of that variant, whose `elapsed` therefore
//! includes the hashing, and reused by every later solve with the same LSH
//! configuration.

use std::borrow::Cow;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use tagdm_data::dataset::Dataset;
use tagdm_data::group::{group_support, TaggingActionGroup};
use tagdm_data::predicate::Dimension;
use tagdm_data::schema::ValueId;
use tagdm_lsh::index::{LshConfig, LshIndex};
use tagdm_topics::corpus::Corpus;
use tagdm_topics::frequency::FrequencySummarizer;
use tagdm_topics::lda::{LdaConfig, LdaSummarizer};
use tagdm_topics::signature::TagSignature;
use tagdm_topics::summarizer::GroupSummarizer;
use tagdm_topics::tfidf::TfIdfSummarizer;

use crate::criteria::{Aggregator, MiningCriterion, PairwiseKind, TaggingDimension};

/// Which group tag summarizer to use when building a [`MiningContext`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SummarizerChoice {
    /// Raw frequency signatures over the whole vocabulary.
    Frequency,
    /// L1-normalized frequency signatures.
    FrequencyNormalized,
    /// tf·idf signatures over the whole vocabulary.
    TfIdf,
    /// LDA topic signatures (the paper's choice, with 25 topics).
    Lda(LdaConfig),
}

impl SummarizerChoice {
    /// A fast LDA configuration for tests and examples.
    pub fn fast_lda(num_topics: usize) -> Self {
        SummarizerChoice::Lda(LdaConfig::fast(num_topics))
    }
}

/// Solver-independent pre-computations over an enumerated set of candidate groups.
#[derive(Debug, Clone)]
pub struct MiningContext {
    groups: Vec<TaggingActionGroup>,
    num_input_actions: usize,
    signatures: Vec<TagSignature>,
    /// L2 norm of each signature, cached for the pairwise tag cosine.
    signature_norms: Vec<f64>,
    signature_dims: usize,
    /// Per group, per user attribute: the value the description constrains it to.
    user_values: Vec<Vec<Option<ValueId>>>,
    /// Per group, per item attribute: the value the description constrains it to.
    item_values: Vec<Vec<Option<ValueId>>>,
    /// Unarized (one-hot) user description vectors.
    user_onehot: Vec<Vec<(u32, f64)>>,
    /// Unarized (one-hot) item description vectors.
    item_onehot: Vec<Vec<(u32, f64)>>,
    user_arity: usize,
    item_arity: usize,
    user_domain: usize,
    item_domain: usize,
    /// The LSH index of each fold variant, slot `2 · fold_users + fold_items`, filled
    /// by the first [`MiningContext::lsh_index`] call for that variant.
    lsh: [OnceLock<LshIndex>; 4],
}

impl MiningContext {
    /// Build a context from a dataset and the candidate groups enumerated over it.
    pub fn build(
        dataset: &Dataset,
        groups: Vec<TaggingActionGroup>,
        summarizer: SummarizerChoice,
    ) -> Self {
        // Group tag signatures.
        let corpus = Corpus::from_documents(
            dataset.num_tags(),
            groups
                .iter()
                .map(|g| g.tag_counts.iter().map(|&(t, c)| (t.0, c)).collect())
                .collect(),
        );
        let signatures = match summarizer {
            SummarizerChoice::Frequency => FrequencySummarizer::new().summarize(&corpus),
            SummarizerChoice::FrequencyNormalized => {
                FrequencySummarizer::normalized().summarize(&corpus)
            }
            SummarizerChoice::TfIdf => TfIdfSummarizer.summarize(&corpus),
            SummarizerChoice::Lda(config) => LdaSummarizer::new(config).summarize(&corpus),
        };
        let signature_dims = signatures.first().map_or(0, TagSignature::dims);
        let signature_norms = signatures.iter().map(TagSignature::norm).collect();

        // Description values and one-hot encodings.
        let user_arity = dataset.user_schema.arity();
        let item_arity = dataset.item_schema.arity();
        let user_offsets = dataset.user_schema.unarization_offsets();
        let item_offsets = dataset.item_schema.unarization_offsets();
        let user_domain = dataset.user_schema.total_domain_size();
        let item_domain = dataset.item_schema.total_domain_size();

        let mut user_values = Vec::with_capacity(groups.len());
        let mut item_values = Vec::with_capacity(groups.len());
        let mut user_onehot = Vec::with_capacity(groups.len());
        let mut item_onehot = Vec::with_capacity(groups.len());
        for group in &groups {
            let mut uv = vec![None; user_arity];
            let mut iv = vec![None; item_arity];
            let mut uo = Vec::new();
            let mut io = Vec::new();
            for cond in group.description.conditions() {
                match cond.dimension {
                    Dimension::User => {
                        uv[cond.attribute.0 as usize] = Some(cond.value);
                        uo.push((
                            (user_offsets[cond.attribute.0 as usize] + cond.value.0 as usize)
                                as u32,
                            1.0,
                        ));
                    }
                    Dimension::Item => {
                        iv[cond.attribute.0 as usize] = Some(cond.value);
                        io.push((
                            (item_offsets[cond.attribute.0 as usize] + cond.value.0 as usize)
                                as u32,
                            1.0,
                        ));
                    }
                }
            }
            uo.sort_by_key(|&(i, _)| i);
            io.sort_by_key(|&(i, _)| i);
            user_values.push(uv);
            item_values.push(iv);
            user_onehot.push(uo);
            item_onehot.push(io);
        }

        MiningContext {
            groups,
            num_input_actions: dataset.num_actions(),
            signatures,
            signature_norms,
            signature_dims,
            user_values,
            item_values,
            user_onehot,
            item_onehot,
            user_arity,
            item_arity,
            user_domain,
            item_domain,
            lsh: Default::default(),
        }
    }

    /// Number of candidate groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of tagging-action tuples in the input set `G` (used to express the support
    /// threshold as a percentage, as the paper does with p = 1%).
    pub fn num_input_actions(&self) -> usize {
        self.num_input_actions
    }

    /// The candidate groups.
    pub fn groups(&self) -> &[TaggingActionGroup] {
        &self.groups
    }

    /// One candidate group.
    pub fn group(&self, idx: usize) -> &TaggingActionGroup {
        &self.groups[idx]
    }

    /// The tag signature of one group.
    pub fn tag_signature(&self, idx: usize) -> &TagSignature {
        &self.signatures[idx]
    }

    /// All group tag signatures (parallel to [`MiningContext::groups`]).
    pub fn tag_signatures(&self) -> &[TagSignature] {
        &self.signatures
    }

    /// Dimensionality of the group tag signatures (25 for the paper's LDA setting).
    pub fn signature_dims(&self) -> usize {
        self.signature_dims
    }

    /// Arity of the user schema (number of user attributes).
    pub fn user_arity(&self) -> usize {
        self.user_arity
    }

    /// Arity of the item schema (number of item attributes).
    pub fn item_arity(&self) -> usize {
        self.item_arity
    }

    /// Total size of the unarized user-attribute space.
    pub fn user_domain_size(&self) -> usize {
        self.user_domain
    }

    /// Total size of the unarized item-attribute space.
    pub fn item_domain_size(&self) -> usize {
        self.item_domain
    }

    /// The unarized user description vector of a group.
    pub fn user_onehot(&self, idx: usize) -> &[(u32, f64)] {
        &self.user_onehot[idx]
    }

    /// The unarized item description vector of a group.
    pub fn item_onehot(&self, idx: usize) -> &[(u32, f64)] {
        &self.item_onehot[idx]
    }

    /// The pairwise *similarity* `F_p(g_a, g_b, dimension, similarity) ∈ [0, 1]` under a
    /// concrete comparison kind. For the tags dimension the structural kind is
    /// meaningless and falls back to signature cosine.
    pub fn pairwise_similarity(
        &self,
        dimension: TaggingDimension,
        kind: PairwiseKind,
        a: usize,
        b: usize,
    ) -> f64 {
        match (dimension, kind) {
            (TaggingDimension::Tags, _) | (_, PairwiseKind::TagCosine) => self.signatures[a]
                .cosine_with_norms(
                    &self.signatures[b],
                    self.signature_norms[a],
                    self.signature_norms[b],
                ),
            (TaggingDimension::Users, PairwiseKind::Structural) => {
                structural_similarity(&self.user_values[a], &self.user_values[b])
            }
            (TaggingDimension::Items, PairwiseKind::Structural) => {
                structural_similarity(&self.item_values[a], &self.item_values[b])
            }
            (_, PairwiseKind::ItemSetJaccard) => {
                jaccard(&self.groups[a].items, &self.groups[b].items)
            }
        }
    }

    /// The oriented pairwise score `F_p(g_a, g_b, dimension, criterion)`.
    pub fn pairwise_score(
        &self,
        dimension: TaggingDimension,
        criterion: MiningCriterion,
        kind: PairwiseKind,
        a: usize,
        b: usize,
    ) -> f64 {
        criterion.orient(self.pairwise_similarity(dimension, kind, a, b))
    }

    /// The pair-wise aggregation dual mining function `F_pa(G, b, m)` (Definition 3):
    /// aggregate the oriented pairwise scores over all unordered pairs of `set`.
    /// Sets with fewer than two groups score 0.
    pub fn set_score(
        &self,
        set: &[usize],
        dimension: TaggingDimension,
        criterion: MiningCriterion,
        kind: PairwiseKind,
        aggregator: Aggregator,
    ) -> f64 {
        let mut scores = Vec::with_capacity(set.len() * set.len().saturating_sub(1) / 2);
        for (i, &a) in set.iter().enumerate() {
            for &b in set.iter().skip(i + 1) {
                scores.push(self.pairwise_score(dimension, criterion, kind, a, b));
            }
        }
        aggregator.aggregate(&scores)
    }

    /// Group support (Definition 1) of a candidate set: the number of distinct input
    /// tuples covered by at least one group of the set.
    pub fn support(&self, set: &[usize]) -> usize {
        group_support(set.iter().map(|&i| &self.groups[i]))
    }

    /// Support as a fraction of the input tuples.
    pub fn support_fraction(&self, set: &[usize]) -> f64 {
        if self.num_input_actions == 0 {
            0.0
        } else {
            self.support(set) as f64 / self.num_input_actions as f64
        }
    }

    /// Dimensionality of a folded vector (tag signature plus the requested unarized
    /// attribute blocks), as used by SM-LSH-Fo (Section 4.3).
    pub fn folded_dims(&self, fold_users: bool, fold_items: bool) -> usize {
        self.signature_dims
            + if fold_users { self.user_domain } else { 0 }
            + if fold_items { self.item_domain } else { 0 }
    }

    /// The folded vector of a group: its tag signature, optionally concatenated with its
    /// unarized user and/or item description vectors.
    pub fn folded_vector(&self, idx: usize, fold_users: bool, fold_items: bool) -> Vec<(u32, f64)> {
        let mut out: Vec<(u32, f64)> = self.signatures[idx].entries().to_vec();
        let mut offset = self.signature_dims as u32;
        if fold_users {
            out.extend(self.user_onehot[idx].iter().map(|&(i, w)| (i + offset, w)));
            offset += self.user_domain as u32;
        }
        if fold_items {
            out.extend(self.item_onehot[idx].iter().map(|&(i, w)| (i + offset, w)));
        }
        out
    }

    /// The LSH index of every group's folded vector under `config`. The first call for
    /// a fold variant hashes the groups and keeps the index; a later call with the same
    /// `config` returns it, and one with another `config` hashes afresh without keeping
    /// the result. Either way the index is the one [`LshIndex::build`] gives.
    pub(crate) fn lsh_index(
        &self,
        fold_users: bool,
        fold_items: bool,
        config: LshConfig,
    ) -> Cow<'_, LshIndex> {
        let hash = || {
            let vectors: Vec<Vec<(u32, f64)>> = (0..self.num_groups())
                .map(|i| self.folded_vector(i, fold_users, fold_items))
                .collect();
            LshIndex::build(config, vectors.iter().map(|v| v.as_slice()))
        };
        let slot = &self.lsh[2 * usize::from(fold_users) + usize::from(fold_items)];
        let kept = slot.get_or_init(hash);
        if *kept.config() == config {
            Cow::Borrowed(kept)
        } else {
            Cow::Owned(hash())
        }
    }
}

/// Structural similarity of two group descriptions (Section 2.1.1): over the set `A` of
/// attributes constrained in *both* descriptions, the fraction whose values agree.
/// Descriptions with no shared constrained attribute are maximally dissimilar (0).
fn structural_similarity(a: &[Option<ValueId>], b: &[Option<ValueId>]) -> f64 {
    let mut shared = 0usize;
    let mut matches = 0usize;
    for (x, y) in a.iter().zip(b.iter()) {
        if let (Some(vx), Some(vy)) = (x, y) {
            shared += 1;
            if vx == vy {
                matches += 1;
            }
        }
    }
    if shared == 0 {
        0.0
    } else {
        matches as f64 / shared as f64
    }
}

/// Jaccard overlap of two sorted id slices.
fn jaccard<T: Ord>(a: &[T], b: &[T]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let (mut i, mut j) = (0usize, 0usize);
    let mut intersection = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                intersection += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - intersection;
    intersection as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagdm_data::dataset::DatasetBuilder;
    use tagdm_data::group::GroupingScheme;

    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::movielens_style();
        let users = [
            [
                ("gender", "male"),
                ("age", "18-24"),
                ("occupation", "student"),
                ("state", "ny"),
            ],
            [
                ("gender", "male"),
                ("age", "18-24"),
                ("occupation", "student"),
                ("state", "ca"),
            ],
            [
                ("gender", "female"),
                ("age", "35-44"),
                ("occupation", "artist"),
                ("state", "ca"),
            ],
        ]
        .map(|p| b.add_user(p).unwrap());
        let items = [
            [("genre", "comedy"), ("actor", "a"), ("director", "x")],
            [("genre", "war"), ("actor", "b"), ("director", "spielberg")],
        ]
        .map(|p| b.add_item(p).unwrap());
        b.add_action_str(users[0], items[0], &["funny", "light"], None)
            .unwrap();
        b.add_action_str(users[1], items[0], &["funny", "quirky"], None)
            .unwrap();
        b.add_action_str(users[0], items[1], &["gritty", "war"], None)
            .unwrap();
        b.add_action_str(users[2], items[1], &["moving", "war"], None)
            .unwrap();
        b.add_action_str(users[2], items[0], &["light", "quirky"], None)
            .unwrap();
        b.add_action_str(users[1], items[1], &["gritty", "tense"], None)
            .unwrap();
        b.build()
    }

    fn context(choice: SummarizerChoice) -> (Dataset, MiningContext) {
        let ds = dataset();
        let groups = GroupingScheme::over(&ds, &[("user", "gender"), ("item", "genre")])
            .unwrap()
            .enumerate(&ds);
        let ctx = MiningContext::build(&ds, groups, choice);
        (ds, ctx)
    }

    #[test]
    fn context_precomputes_one_signature_per_group() {
        let (_, ctx) = context(SummarizerChoice::Frequency);
        assert_eq!(ctx.num_groups(), 4);
        assert_eq!(ctx.tag_signatures().len(), 4);
        assert_eq!(ctx.signature_dims(), 7); // vocabulary size
        assert_eq!(ctx.num_input_actions(), 6);
    }

    #[test]
    fn structural_similarity_reflects_shared_description_values() {
        let (_, ctx) = context(SummarizerChoice::Frequency);
        // Find the two groups with gender=male: they share the user side entirely.
        let male_groups: Vec<usize> = (0..ctx.num_groups())
            .filter(|&i| {
                ctx.user_onehot(i).iter().any(|&(c, _)| c == 0) // first unarized slot = gender=male (first interned)
            })
            .collect();
        assert_eq!(male_groups.len(), 2);
        let sim = ctx.pairwise_similarity(
            TaggingDimension::Users,
            PairwiseKind::Structural,
            male_groups[0],
            male_groups[1],
        );
        // Gender is the only user attribute constrained in both descriptions, and it
        // matches: similarity 1 over the shared-attribute set A = {gender}.
        assert!((sim - 1.0).abs() < 1e-12);
        // Item similarity for those two groups is 0 (comedy vs war).
        let item_sim = ctx.pairwise_similarity(
            TaggingDimension::Items,
            PairwiseKind::Structural,
            male_groups[0],
            male_groups[1],
        );
        assert_eq!(item_sim, 0.0);
    }

    #[test]
    fn tag_similarity_uses_signature_cosine() {
        let (_, ctx) = context(SummarizerChoice::Frequency);
        for a in 0..ctx.num_groups() {
            for b in 0..ctx.num_groups() {
                let sim =
                    ctx.pairwise_similarity(TaggingDimension::Tags, PairwiseKind::TagCosine, a, b);
                let expected = ctx.tag_signature(a).cosine_similarity(ctx.tag_signature(b));
                // The cached norms reproduce the signature cosine bit for bit.
                assert_eq!(sim.to_bits(), expected.to_bits());
                // Structural kind on the tags dimension falls back to cosine too.
                let fallback =
                    ctx.pairwise_similarity(TaggingDimension::Tags, PairwiseKind::Structural, a, b);
                assert!((fallback - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn diversity_is_one_minus_similarity() {
        let (_, ctx) = context(SummarizerChoice::Frequency);
        let sim = ctx.pairwise_score(
            TaggingDimension::Tags,
            MiningCriterion::Similarity,
            PairwiseKind::TagCosine,
            0,
            1,
        );
        let div = ctx.pairwise_score(
            TaggingDimension::Tags,
            MiningCriterion::Diversity,
            PairwiseKind::TagCosine,
            0,
            1,
        );
        assert!((sim + div - 1.0).abs() < 1e-12);
    }

    #[test]
    fn set_score_aggregates_all_pairs() {
        let (_, ctx) = context(SummarizerChoice::Frequency);
        let set = [0usize, 1, 2];
        let mean = ctx.set_score(
            &set,
            TaggingDimension::Tags,
            MiningCriterion::Similarity,
            PairwiseKind::TagCosine,
            Aggregator::Mean,
        );
        let manual =
            (ctx.pairwise_similarity(TaggingDimension::Tags, PairwiseKind::TagCosine, 0, 1)
                + ctx.pairwise_similarity(TaggingDimension::Tags, PairwiseKind::TagCosine, 0, 2)
                + ctx.pairwise_similarity(TaggingDimension::Tags, PairwiseKind::TagCosine, 1, 2))
                / 3.0;
        assert!((mean - manual).abs() < 1e-12);
        // Singleton and empty sets score zero.
        assert_eq!(
            ctx.set_score(
                &[0],
                TaggingDimension::Tags,
                MiningCriterion::Similarity,
                PairwiseKind::TagCosine,
                Aggregator::Mean
            ),
            0.0
        );
    }

    #[test]
    fn support_counts_distinct_covered_tuples() {
        let (ds, ctx) = context(SummarizerChoice::Frequency);
        let all: Vec<usize> = (0..ctx.num_groups()).collect();
        assert_eq!(ctx.support(&all), ds.num_actions());
        assert!((ctx.support_fraction(&all) - 1.0).abs() < 1e-12);
        assert!(ctx.support(&[0]) < ds.num_actions());
    }

    #[test]
    fn folded_vectors_concatenate_blocks() {
        let (_, ctx) = context(SummarizerChoice::Frequency);
        let plain = ctx.folded_vector(0, false, false);
        assert_eq!(plain, ctx.tag_signature(0).entries().to_vec());

        let folded = ctx.folded_vector(0, true, true);
        assert_eq!(
            ctx.folded_dims(true, true),
            ctx.signature_dims() + ctx.user_domain_size() + ctx.item_domain_size()
        );
        // Folded vector has the one-hot entries beyond the signature block.
        let beyond: Vec<_> = folded
            .iter()
            .filter(|&&(i, _)| (i as usize) >= ctx.signature_dims())
            .collect();
        assert_eq!(
            beyond.len(),
            ctx.user_onehot(0).len() + ctx.item_onehot(0).len()
        );
        // All components fall inside the declared folded dimensionality.
        assert!(folded
            .iter()
            .all(|&(i, _)| (i as usize) < ctx.folded_dims(true, true)));
    }

    #[test]
    fn item_set_jaccard_matches_manual_computation() {
        let (_, ctx) = context(SummarizerChoice::Frequency);
        // Groups 0 and 1: both contain item 0 if they tag the comedy movie.
        let sim =
            ctx.pairwise_similarity(TaggingDimension::Users, PairwiseKind::ItemSetJaccard, 0, 1);
        assert!((0.0..=1.0).contains(&sim));
        // Identity gives 1.
        let self_sim =
            ctx.pairwise_similarity(TaggingDimension::Users, PairwiseKind::ItemSetJaccard, 0, 0);
        assert!((self_sim - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lsh_index_keeps_the_first_configuration_of_each_fold_variant() {
        let (_, ctx) = context(SummarizerChoice::Frequency);
        let buckets = |index: &LshIndex| -> Vec<Vec<usize>> {
            index.all_buckets().map(<[usize]>::to_vec).collect()
        };
        for (fold_users, fold_items) in [(false, false), (true, false), (false, true), (true, true)]
        {
            let built = |seed| {
                let config = LshConfig {
                    dims: ctx.folded_dims(fold_users, fold_items),
                    num_bits: 4,
                    num_tables: 2,
                    seed,
                };
                let vectors: Vec<_> = (0..ctx.num_groups())
                    .map(|i| ctx.folded_vector(i, fold_users, fold_items))
                    .collect();
                (
                    config,
                    LshIndex::build(config, vectors.iter().map(|v| v.as_slice())),
                )
            };
            let (first, first_index) = built(1);
            let (other, other_index) = built(2);
            // The first call fills the slot; another seed misses it and is not kept.
            for (config, index, kept) in [
                (first, &first_index, true),
                (other, &other_index, false),
                (first, &first_index, true),
            ] {
                let got = ctx.lsh_index(fold_users, fold_items, config);
                assert_eq!(matches!(got, Cow::Borrowed(_)), kept);
                assert_eq!(*got.config(), config);
                assert_eq!(buckets(&got), buckets(index));
            }
        }
    }

    #[test]
    fn lda_context_uses_topic_space() {
        let (_, ctx) = context(SummarizerChoice::fast_lda(4));
        assert_eq!(ctx.signature_dims(), 4);
    }
}
