//! The mining context: per-group pre-computations shared by every dual mining function
//! and solver.
//!
//! Building a context performs the expensive, solver-independent work once — group tag
//! signature generation (LDA/tf·idf/frequency) with each signature's norm, and each
//! group's description as one row of values per side — so that the Exact, SM-LSH and
//! DV-FDP solvers all operate on identical inputs and their running times are directly
//! comparable, exactly as in the paper's experimental setup. A description is stored
//! once: the unarized (one-hot) block that the constraint-folding variants append to a
//! signature is derived from its row when SM-LSH hashes.
//!
//! The context holds data; [`DualMiningFunction`](crate::functions::DualMiningFunction)
//! scores with it, through the context's one crate-private pair primitive,
//! `pairwise_similarity`.
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

use crate::criteria::{PairwiseKind, TaggingDimension};

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
    /// Start of each user attribute's block in the unarized user space.
    user_offsets: Vec<usize>,
    /// Start of each item attribute's block in the unarized item space.
    item_offsets: Vec<usize>,
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

        // Description values, one row per side.
        let user_offsets = dataset.user_schema.unarization_offsets();
        let item_offsets = dataset.item_schema.unarization_offsets();
        let mut user_values = Vec::with_capacity(groups.len());
        let mut item_values = Vec::with_capacity(groups.len());
        for group in &groups {
            let mut uv = vec![None; user_offsets.len()];
            let mut iv = vec![None; item_offsets.len()];
            for cond in group.description.conditions() {
                let row = match cond.dimension {
                    Dimension::User => &mut uv,
                    Dimension::Item => &mut iv,
                };
                row[cond.attribute.0 as usize] = Some(cond.value);
            }
            user_values.push(uv);
            item_values.push(iv);
        }

        MiningContext {
            groups,
            num_input_actions: dataset.num_actions(),
            signatures,
            signature_norms,
            signature_dims,
            user_values,
            item_values,
            user_offsets,
            item_offsets,
            user_domain: dataset.user_schema.total_domain_size(),
            item_domain: dataset.item_schema.total_domain_size(),
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

    /// All group tag signatures (parallel to [`MiningContext::groups`]).
    pub fn tag_signatures(&self) -> &[TagSignature] {
        &self.signatures
    }

    /// Dimensionality of the group tag signatures (25 for the paper's LDA setting).
    pub fn signature_dims(&self) -> usize {
        self.signature_dims
    }

    /// The pairwise *similarity* `F_p(g_a, g_b, dimension, kind) ∈ [0, 1]`, unoriented:
    /// the one pair primitive, which [`DualMiningFunction`] orients and aggregates.
    ///
    /// On the tags dimension every kind scores signature cosine: `Structural` and
    /// `ItemSetJaccard` compare descriptions and item sets, not tags, so both fall back
    /// to `TagCosine`. On users and items, `TagCosine` still scores the signatures and
    /// `ItemSetJaccard` the item sets, whichever of the two dimensions is named.
    ///
    /// [`DualMiningFunction`]: crate::functions::DualMiningFunction
    pub(crate) fn pairwise_similarity(
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
    /// unarized user and/or item description vectors. A block holds `1.0` at
    /// `offset(attribute) + value` for each attribute the description constrains, derived
    /// from the group's description row; offsets grow with the attribute, so the indices
    /// come out ascending.
    pub fn folded_vector(&self, idx: usize, fold_users: bool, fold_items: bool) -> Vec<(u32, f64)> {
        let mut out: Vec<(u32, f64)> = self.signatures[idx].entries().to_vec();
        let mut base = self.signature_dims;
        if fold_users {
            push_onehot(&mut out, base, &self.user_offsets, &self.user_values[idx]);
            base += self.user_domain;
        }
        if fold_items {
            push_onehot(&mut out, base, &self.item_offsets, &self.item_values[idx]);
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

/// Append the one-hot block of a description row at `base`: `(base + offsets[a] + v,
/// 1.0)` for each attribute `a` the row constrains to value `v`, in attribute order.
fn push_onehot(out: &mut Vec<(u32, f64)>, base: usize, offsets: &[usize], row: &[Option<ValueId>]) {
    out.extend(offsets.iter().zip(row).filter_map(|(&offset, value)| {
        value.map(|v| ((base + offset + v.0 as usize) as u32, 1.0))
    }));
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
    use crate::solvers::test_support::random_dataset;
    use proptest::prelude::*;
    use tagdm_data::dataset::DatasetBuilder;
    use tagdm_data::group::GroupingScheme;
    use tagdm_data::schema::AttributeId;

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
        // Find the two groups with gender=male (the first interned user attribute and
        // value): they share the user side entirely.
        let male_groups: Vec<usize> = (0..ctx.num_groups())
            .filter(|&i| {
                ctx.group(i)
                    .description
                    .value_for(Dimension::User, AttributeId(0))
                    == Some(ValueId(0))
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
        let signatures = ctx.tag_signatures();
        for a in 0..ctx.num_groups() {
            for b in 0..ctx.num_groups() {
                let sim =
                    ctx.pairwise_similarity(TaggingDimension::Tags, PairwiseKind::TagCosine, a, b);
                let expected = signatures[a].cosine_similarity(&signatures[b]);
                // The cached norms reproduce the signature cosine bit for bit.
                assert_eq!(sim.to_bits(), expected.to_bits());
                // Every other kind on the tags dimension is the signature cosine too.
                for kind in [PairwiseKind::Structural, PairwiseKind::ItemSetJaccard] {
                    let fallback = ctx.pairwise_similarity(TaggingDimension::Tags, kind, a, b);
                    assert_eq!(fallback.to_bits(), sim.to_bits(), "{}", kind.name());
                }
            }
        }
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
        let (ds, ctx) = context(SummarizerChoice::Frequency);
        let plain = ctx.folded_vector(0, false, false);
        assert_eq!(plain, ctx.tag_signatures()[0].entries().to_vec());

        let folded = ctx.folded_vector(0, true, true);
        assert_eq!(
            ctx.folded_dims(true, true),
            ctx.signature_dims()
                + ds.user_schema.total_domain_size()
                + ds.item_schema.total_domain_size()
        );
        // Folded vector has one one-hot entry per description condition beyond the
        // signature block.
        let beyond: Vec<_> = folded
            .iter()
            .filter(|&&(i, _)| (i as usize) >= ctx.signature_dims())
            .collect();
        assert_eq!(beyond.len(), ctx.group(0).description.len());
        // All components fall inside the declared folded dimensionality.
        assert!(folded
            .iter()
            .all(|&(i, _)| (i as usize) < ctx.folded_dims(true, true)));
    }

    /// The folded vector as built from a stored one-hot encoding per group: each
    /// condition's `offset(attribute) + value`, sorted, shifted past the blocks before it.
    fn reference_folded_vector(
        ds: &Dataset,
        ctx: &MiningContext,
        idx: usize,
        fold_users: bool,
        fold_items: bool,
    ) -> Vec<(u32, f64)> {
        let user_offsets = ds.user_schema.unarization_offsets();
        let item_offsets = ds.item_schema.unarization_offsets();
        let (mut user_onehot, mut item_onehot) = (Vec::new(), Vec::new());
        for cond in ctx.group(idx).description.conditions() {
            let (onehot, offsets) = match cond.dimension {
                Dimension::User => (&mut user_onehot, &user_offsets),
                Dimension::Item => (&mut item_onehot, &item_offsets),
            };
            onehot.push((
                (offsets[cond.attribute.0 as usize] + cond.value.0 as usize) as u32,
                1.0,
            ));
        }
        user_onehot.sort_by_key(|&(i, _)| i);
        item_onehot.sort_by_key(|&(i, _)| i);
        let mut out = ctx.tag_signatures()[idx].entries().to_vec();
        let mut offset = ctx.signature_dims() as u32;
        if fold_users {
            out.extend(user_onehot.iter().map(|&(i, w)| (i + offset, w)));
            offset += ds.user_schema.total_domain_size() as u32;
        }
        if fold_items {
            out.extend(item_onehot.iter().map(|&(i, w)| (i + offset, w)));
        }
        out
    }

    /// Groupings of the generator's schema, some listing their attributes out of schema
    /// order, so the one-hot blocks span several attributes per side.
    const FOLD_GROUPINGS: [&[(&str, &str)]; 4] = [
        &[("user", "gender"), ("item", "genre")],
        &[("item", "director"), ("user", "state"), ("user", "gender")],
        &[("user", "occupation"), ("user", "age"), ("item", "genre")],
        &[("item", "actor"), ("item", "genre"), ("user", "age")],
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_folded_vectors_match_the_stored_onehot_reference(
            seed in 0u64..1_000,
            actions in 40usize..400,
            grouping in 0usize..FOLD_GROUPINGS.len(),
        ) {
            let ds = random_dataset(seed, actions);
            let groups = GroupingScheme::over(&ds, FOLD_GROUPINGS[grouping])
                .unwrap()
                .enumerate(&ds);
            let ctx = MiningContext::build(&ds, groups, SummarizerChoice::Frequency);
            for (fold_users, fold_items) in
                [(false, false), (true, false), (false, true), (true, true)]
            {
                for i in 0..ctx.num_groups() {
                    let got: Vec<(u32, u64)> = ctx
                        .folded_vector(i, fold_users, fold_items)
                        .iter()
                        .map(|&(j, w)| (j, w.to_bits()))
                        .collect();
                    let want: Vec<(u32, u64)> =
                        reference_folded_vector(&ds, &ctx, i, fold_users, fold_items)
                            .iter()
                            .map(|&(j, w)| (j, w.to_bits()))
                            .collect();
                    prop_assert_eq!(got, want);
                }
            }
        }
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
