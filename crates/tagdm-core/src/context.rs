//! The mining context: per-group pre-computations shared by every dual mining function
//! and solver.
//!
//! Building a context performs the expensive, solver-independent work once — group tag
//! signature generation (LDA/tf·idf/frequency) with each signature's norm, and each
//! group's description — so that the Exact, SM-LSH and DV-FDP solvers all operate on
//! identical inputs and their running times are directly comparable, exactly as in the
//! paper's experimental setup.
//!
//! The context holds data; [`DualMiningFunction`](crate::functions::DualMiningFunction)
//! scores with it, through the context's one crate-private pair primitive,
//! `pairwise_similarity`. The data behind that primitive is laid out flat, so that a
//! pair score is a table read or one dense loop:
//!
//! * **Description classes.** Each side's description rows are interned: a group names
//!   the `u32` class of its user description and of its item description, and each
//!   class keeps one row of values. A side with at most `MAX_TABLE_CLASSES` (512)
//!   classes also keeps the row-major `c × c` table of the classes' structural
//!   similarities, so a structural score is one read; a larger side scores from its
//!   class rows. The unarized (one-hot) block that the constraint-folding variants
//!   append to a signature is derived from the class row when SM-LSH hashes.
//! * **Dense θ.** When every signature stores all `dims` entries (always for LDA, whose
//!   θ is positive since α > 0), the signatures are also kept as one row-major
//!   `n × dims` array, and a cosine is an index-order dot product over two rows beside
//!   the cached norms: the same products, summed in the same order, as the sparse
//!   merge. Other signatures stay sparse.
//!
//! Every score is therefore bit-identical to scoring each group's own description row
//! and merging the sparse signatures.
//!
//! Group support (Definition 1) is decided here too, for every solver and report. Build
//! checks once whether the groups are pairwise disjoint, as every enumeration by
//! [`GroupingScheme::enumerate`](tagdm_data::group::GroupingScheme::enumerate) is: each
//! action falls in exactly one group, so the union of a set's groups is the sum of their
//! sizes. [`MiningContext::support`] takes that sum for a strictly ascending set over a
//! disjoint context, the form in which every solver passes its sets, and the
//! [`group_support`] merge of the action lists for any other set or context.
//!
//! A context also holds SM-LSH's pre-processing step (Algorithm 1): the LSH index over
//! the groups' folded vectors, one per fold variant `(fold_users, fold_items)`. It is
//! hashed lazily by the first SM-LSH solve of that variant, whose `elapsed` therefore
//! includes the hashing, and reused by every later solve with the same LSH
//! configuration. Beside each index the context keeps, per bucket, its pairs' scores
//! under each of that first solve's objective functions and the pairs ranked by their
//! weighted sum, stable-sorted in descending order, in at most `MAX_RANKED_WORDS`
//! (16,384 words, 128 KB) a variant. A later solve with the same objectives reads its
//! bucket walks' seed pairs off the ranking and every objective score of a bucket pair
//! off the kept scores, instead of scoring them again.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
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
use crate::problem::{ObjectiveSpec, TagDmProblem};

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
    /// Whether no action id occurs twice across (or within) the groups' action lists.
    disjoint: bool,
    num_input_actions: usize,
    signatures: Vec<TagSignature>,
    /// L2 norm of each signature, cached for the pairwise tag cosine.
    signature_norms: Vec<f64>,
    signature_dims: usize,
    /// The signatures as one row-major `n × signature_dims` array when every signature
    /// stores all its entries; empty otherwise.
    dense: Vec<f64>,
    /// The user descriptions, interned.
    users: DescriptionClasses,
    /// The item descriptions, interned.
    items: DescriptionClasses,
    /// Start of each user attribute's block in the unarized user space.
    user_offsets: Vec<usize>,
    /// Start of each item attribute's block in the unarized item space.
    item_offsets: Vec<usize>,
    user_domain: usize,
    item_domain: usize,
    /// SM-LSH's pre-processing of each fold variant, slot `2 · fold_users + fold_items`,
    /// filled by the first [`MiningContext::lsh_index`] call for that variant.
    lsh: [OnceLock<KeptLsh>; 4],
}

/// One fold variant's kept LSH pre-processing: the full-width index, and the ranking of
/// its buckets' pairs under the objectives of the solve that hashed it.
#[derive(Debug, Clone)]
struct KeptLsh {
    index: LshIndex,
    objectives: Vec<ObjectiveSpec>,
    ranking: BucketRanking,
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
        let dense = if signatures
            .iter()
            .all(|s| s.entries().len() == signature_dims)
        {
            signatures
                .iter()
                .flat_map(|s| s.entries().iter().map(|&(_, w)| w))
                .collect()
        } else {
            Vec::new()
        };

        // Description values, one row per side, interned into classes.
        let user_offsets = dataset.user_schema.unarization_offsets();
        let item_offsets = dataset.item_schema.unarization_offsets();
        let (user_rows, item_rows) = groups
            .iter()
            .map(|group| {
                let mut uv = vec![None; user_offsets.len()];
                let mut iv = vec![None; item_offsets.len()];
                for cond in group.description.conditions() {
                    let row = match cond.dimension {
                        Dimension::User => &mut uv,
                        Dimension::Item => &mut iv,
                    };
                    row[cond.attribute.0 as usize] = Some(cond.value);
                }
                (uv, iv)
            })
            .unzip();

        MiningContext {
            disjoint: pairwise_disjoint(&groups),
            groups,
            num_input_actions: dataset.num_actions(),
            signatures,
            signature_norms,
            signature_dims,
            dense,
            users: DescriptionClasses::intern(user_rows),
            items: DescriptionClasses::intern(item_rows),
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
            (TaggingDimension::Tags, _) | (_, PairwiseKind::TagCosine) => self.cosine(a, b),
            (TaggingDimension::Users, PairwiseKind::Structural) => self.users.similarity(a, b),
            (TaggingDimension::Items, PairwiseKind::Structural) => self.items.similarity(a, b),
            (_, PairwiseKind::ItemSetJaccard) => {
                jaccard(&self.groups[a].items, &self.groups[b].items)
            }
        }
    }

    /// The cosine of two groups' tag signatures: [`TagSignature::cosine_with_norms`]
    /// with the cached norms, over the dense rows when the context keeps them. A dense
    /// row holds every entry the sparse merge visits, so the dot product adds the same
    /// products in the same index order.
    #[inline]
    fn cosine(&self, a: usize, b: usize) -> f64 {
        let (norm_a, norm_b) = (self.signature_norms[a], self.signature_norms[b]);
        if self.dense.is_empty() {
            return self.signatures[a].cosine_with_norms(&self.signatures[b], norm_a, norm_b);
        }
        let denom = norm_a * norm_b;
        if denom == 0.0 {
            return 0.0;
        }
        let k = self.signature_dims;
        let (x, y) = (
            &self.dense[a * k..(a + 1) * k],
            &self.dense[b * k..(b + 1) * k],
        );
        let mut dot = 0.0;
        for (p, q) in x.iter().zip(y) {
            dot += p * q;
        }
        (dot / denom).clamp(0.0, 1.0)
    }

    /// One side's interned descriptions: the users' for [`TaggingDimension::Users`],
    /// the items' for [`TaggingDimension::Items`], none for tags.
    pub(crate) fn description_classes(
        &self,
        dimension: TaggingDimension,
    ) -> Option<&DescriptionClasses> {
        match dimension {
            TaggingDimension::Users => Some(&self.users),
            TaggingDimension::Items => Some(&self.items),
            TaggingDimension::Tags => None,
        }
    }

    /// Group support (Definition 1) of a candidate set: the number of distinct input
    /// tuples covered by at least one group of the set.
    ///
    /// When the context's groups partition their actions and `set` is strictly
    /// ascending, so that no group repeats, that is the sum of the groups' sizes.
    /// Otherwise it is the [`group_support`] merge of their action lists. Both give the
    /// same count wherever both apply.
    pub fn support(&self, set: &[usize]) -> usize {
        if self.disjoint && set.windows(2).all(|w| w[0] < w[1]) {
            set.iter().map(|&i| self.groups[i].len()).sum()
        } else {
            group_support(set.iter().map(|&i| &self.groups[i]))
        }
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
    /// from the row of the group's description class; offsets grow with the attribute,
    /// so the indices come out ascending.
    pub fn folded_vector(&self, idx: usize, fold_users: bool, fold_items: bool) -> Vec<(u32, f64)> {
        let mut out: Vec<(u32, f64)> = self.signatures[idx].entries().to_vec();
        let mut base = self.signature_dims;
        if fold_users {
            push_onehot(&mut out, base, &self.user_offsets, self.users.row(idx));
            base += self.user_domain;
        }
        if fold_items {
            push_onehot(&mut out, base, &self.item_offsets, self.items.row(idx));
        }
        out
    }

    /// The LSH index of every group's folded vector under `config`, and the ranking of
    /// its buckets' pairs by `problem`'s pairwise objective when the context keeps one.
    ///
    /// The first call for a fold variant hashes the groups and keeps the index together
    /// with its [`BucketRanking`] under that call's objectives. A later call with the
    /// same `config` returns the kept index, and the ranking too when its objectives
    /// equal the kept ones; a call with another `config` hashes afresh, keeps nothing
    /// and gets no ranking. Either way the index is the one [`LshIndex::build`] gives.
    pub(crate) fn lsh_index(
        &self,
        fold_users: bool,
        fold_items: bool,
        config: LshConfig,
        problem: &TagDmProblem,
    ) -> (Cow<'_, LshIndex>, Option<&BucketRanking>) {
        let hash = || {
            let vectors: Vec<Vec<(u32, f64)>> = (0..self.num_groups())
                .map(|i| self.folded_vector(i, fold_users, fold_items))
                .collect();
            LshIndex::build(config, vectors.iter().map(|v| v.as_slice()))
        };
        let slot = &self.lsh[2 * usize::from(fold_users) + usize::from(fold_items)];
        let kept = slot.get_or_init(|| {
            let index = hash();
            let ranking = BucketRanking::new(index.all_buckets(), self, problem);
            KeptLsh {
                index,
                objectives: problem.objectives.clone(),
                ranking,
            }
        });
        if kept.index.config() == &config {
            let ranking = (kept.objectives == problem.objectives).then_some(&kept.ranking);
            (Cow::Borrowed(&kept.index), ranking)
        } else {
            (Cow::Owned(hash()), None)
        }
    }
}

/// The most 8-byte words one [`BucketRanking`] keeps: 16,384 words, 128 KB. A ranked
/// pair takes one word for its positions and one for each objective function's score.
/// The medium four-attribute context's three SM-LSH-Fo variants rank 967, 2,635 and
/// 6,638 pairs at the paper's `d′ = 10`, `l = 1`, two words a pair under one objective.
/// A bucket whose words would take a ranking past the cap keeps nothing, so more
/// objectives keep fewer buckets, never more memory.
const MAX_RANKED_WORDS: usize = 1 << 14;

/// The pairs of each bucket of an LSH index, ranked by the problem's pairwise objective
/// in descending order, and every objective function's scores of those pairs.
///
/// A pair is `[i, j]`, the positions in the bucket of its two groups, `i < j`. The sort
/// is stable, so tied pairs keep the bucket's `(i < j)` pair order: the first ranked
/// pair is the first pair of largest score in that order, and the first ranked pair
/// passing a test is the first such pair among those that pass it.
///
/// Beside its ranked pairs a bucket keeps, per objective function in objective order,
/// the triangle of its pairs' scores in `(i < j)` row-major order (see
/// [`RankedBucket::score`]). The ranking values exactly those scores, by
/// [`TagDmProblem::pairwise_objective_from`], so a solver that reads them scores as if
/// it had called `evaluate_pair` itself.
///
/// A bucket keeps neither ranking nor scores when one of its ranking scores is NaN,
/// which no order ranks, or when its pairs and scores would take the ranking past
/// [`MAX_RANKED_WORDS`].
#[derive(Debug, Clone)]
pub(crate) struct BucketRanking {
    /// The number of objective functions, and of score triangles per ranked bucket.
    functions: usize,
    /// Per bucket of the index, in [`LshIndex::all_buckets`] order, the end of its
    /// ranked pairs in `pairs`. A bucket of two or more groups with no pairs there
    /// keeps no ranking.
    ends: Vec<u32>,
    pairs: Vec<[u32; 2]>,
    /// The ranked buckets' score triangles, back to back: a bucket whose pairs start at
    /// `p` in `pairs` starts its triangles at `p × functions`.
    scores: Vec<f64>,
}

/// One ranked bucket of a [`BucketRanking`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct RankedBucket<'a> {
    /// The bucket's pairs of positions, ranked.
    pub(crate) pairs: &'a [[u32; 2]],
    /// Its objective functions' score triangles, back to back.
    scores: &'a [f64],
}

impl RankedBucket<'_> {
    /// Objective function `o`'s score of the pair at positions `i < j` of this bucket of
    /// `len` groups.
    #[inline]
    pub(crate) fn score(&self, o: usize, i: usize, j: usize, len: usize) -> f64 {
        debug_assert!(i < j && j < len);
        self.scores[o * self.pairs.len() + i * (2 * len - i - 1) / 2 + (j - i - 1)]
    }
}

impl BucketRanking {
    /// Score every bucket of `buckets` under each of `problem`'s objective functions, and
    /// rank it by [`TagDmProblem`]'s pairwise objective of those scores.
    pub(crate) fn new<'a>(
        buckets: impl Iterator<Item = &'a [usize]>,
        ctx: &MiningContext,
        problem: &TagDmProblem,
    ) -> Self {
        let objectives = &problem.objectives;
        let functions = objectives.len();
        let mut ends = Vec::new();
        let mut pairs = Vec::new();
        let mut scores = Vec::new();
        let mut ranked: Vec<(f64, [u32; 2])> = Vec::new();
        for bucket in buckets {
            let len = bucket.len();
            let count = len * len.saturating_sub(1) / 2;
            let words = (pairs.len() + count).saturating_mul(1 + functions);
            if words <= MAX_RANKED_WORDS {
                let start = scores.len();
                for o in objectives {
                    for (i, &a) in bucket.iter().enumerate() {
                        for &b in &bucket[i + 1..] {
                            scores.push(o.function.evaluate_pair(ctx, a, b));
                        }
                    }
                }
                let triangles = &scores[start..];
                ranked.clear();
                let mut t = 0;
                for i in 0..len {
                    for j in i + 1..len {
                        let score = problem.pairwise_objective_from(|o| triangles[o * count + t]);
                        ranked.push((score, [i as u32, j as u32]));
                        t += 1;
                    }
                }
                if ranked.iter().all(|(s, _)| !s.is_nan()) {
                    ranked.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap_or(Ordering::Equal));
                    pairs.extend(ranked.iter().map(|&(_, pair)| pair));
                } else {
                    scores.truncate(start);
                }
            }
            ends.push(pairs.len() as u32);
        }
        BucketRanking {
            functions,
            ends,
            pairs,
            scores,
        }
    }

    /// Bucket `b`'s ranked pairs and scores, or `None` when it keeps no ranking.
    pub(crate) fn bucket(&self, b: usize) -> Option<RankedBucket<'_>> {
        let start = if b == 0 { 0 } else { self.ends[b - 1] as usize };
        let end = self.ends[b] as usize;
        (start < end).then(|| RankedBucket {
            pairs: &self.pairs[start..end],
            scores: &self.scores[start * self.functions..end * self.functions],
        })
    }
}

/// The most description classes a side keeps a similarity table for. The medium
/// four-attribute context has 88 user and 19 item classes, and the paper-scale
/// seven-attribute one 98 and 59; with single-action groups the paper scale reaches
/// 1,707 and 3,471, whose tables would take 23 MB and 96 MB. A larger side scores from
/// its class rows.
pub(crate) const MAX_TABLE_CLASSES: usize = 512;

/// One side's group descriptions, interned: each group names the class of its
/// description, and each class keeps one row of values.
#[derive(Debug, Clone)]
pub(crate) struct DescriptionClasses {
    /// Per group, the class of its description.
    class_of: Vec<u32>,
    /// Per class, per attribute: the value the description constrains it to.
    rows: Vec<Vec<Option<ValueId>>>,
    /// Row-major `c × c` structural similarities of the class rows; empty when the side
    /// has more than [`MAX_TABLE_CLASSES`] classes.
    table: Vec<f64>,
}

impl DescriptionClasses {
    /// Intern one description row per group, numbering the classes in order of first
    /// occurrence, and fill the similarity table when there are few enough classes.
    fn intern(group_rows: Vec<Vec<Option<ValueId>>>) -> Self {
        let mut ids = HashMap::new();
        let mut rows = Vec::new();
        let class_of = group_rows
            .into_iter()
            .map(|row| {
                *ids.entry(row).or_insert_with_key(|row| {
                    rows.push(row.clone());
                    (rows.len() - 1) as u32
                })
            })
            .collect();
        let table = if rows.len() <= MAX_TABLE_CLASSES {
            rows.iter()
                .flat_map(|x| rows.iter().map(|y| structural_similarity(x, y)))
                .collect()
        } else {
            Vec::new()
        };
        DescriptionClasses {
            class_of,
            rows,
            table,
        }
    }

    /// The number of classes.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// The class of group `group`'s description.
    #[inline]
    pub(crate) fn class(&self, group: usize) -> usize {
        self.class_of[group] as usize
    }

    /// Whether the side keeps its class similarity table.
    pub(crate) fn has_table(&self) -> bool {
        !self.table.is_empty()
    }

    /// The description row of group `group`.
    fn row(&self, group: usize) -> &[Option<ValueId>] {
        &self.rows[self.class(group)]
    }

    /// The structural similarity of classes `x` and `y`: a table read, or for a side
    /// without a table, [`structural_similarity`] of their rows.
    #[inline]
    pub(crate) fn class_similarity(&self, x: usize, y: usize) -> f64 {
        if self.table.is_empty() {
            structural_similarity(&self.rows[x], &self.rows[y])
        } else {
            self.table[x * self.len() + y]
        }
    }

    /// The structural similarity of two groups' descriptions.
    #[inline]
    fn similarity(&self, a: usize, b: usize) -> f64 {
        self.class_similarity(self.class(a), self.class(b))
    }
}

/// Whether no action id occurs twice in the groups' action lists, within one group or
/// across two. The marks are sized by the largest id present, not by the dataset.
fn pairwise_disjoint(groups: &[TaggingActionGroup]) -> bool {
    let mut ids = groups.iter().flat_map(|g| &g.actions).map(|a| a.0 as usize);
    let mut seen = vec![false; ids.clone().max().map_or(0, |max| max + 1)];
    ids.all(|id| !std::mem::replace(&mut seen[id], true))
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
    use crate::catalog::{problem, ProblemParams};
    use crate::criteria::{Aggregator, MiningCriterion};
    use crate::functions::DualMiningFunction;
    use crate::solvers::test_support::{
        overlapping_context, random_context, random_dataset, random_summarizer, wide_items_context,
        GROUPINGS,
    };
    use proptest::prelude::*;
    use tagdm_data::action::ActionId;
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

    /// The merge of the named groups' action lists, whatever the context's partition.
    fn merged(ctx: &MiningContext, set: &[usize]) -> usize {
        group_support(set.iter().map(|&i| ctx.group(i)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_support_matches_the_merge(
            seed in 0u64..1_000,
            actions in 1usize..400,
            grouping in 0usize..GROUPINGS.len(),
            picks in proptest::collection::vec(0usize..64, 0..6),
        ) {
            let ctx = random_context(seed, actions, grouping);
            prop_assert!(ctx.disjoint);
            let n = ctx.num_groups();
            let unsorted: Vec<usize> = picks.iter().filter(|_| n > 0).map(|p| p % n).collect();
            let mut ascending = unsorted.clone();
            ascending.sort_unstable();
            ascending.dedup();
            let descending: Vec<usize> = ascending.iter().rev().copied().collect();
            let doubled: Vec<usize> = ascending.iter().flat_map(|&i| [i, i]).collect();
            for set in [&ascending, &unsorted, &descending, &doubled, &Vec::new()] {
                prop_assert_eq!(ctx.support(set), merged(&ctx, set), "{:?}", set);
            }
        }

        #[test]
        fn prop_enumeration_partitions_the_corpus(
            seed in 0u64..1_000,
            actions in 1usize..400,
            grouping in 0usize..GROUPINGS.len(),
            min_group_size in 1usize..6,
        ) {
            let ds = random_dataset(seed, actions);
            let groups = GroupingScheme::over(&ds, GROUPINGS[grouping])
                .unwrap()
                .min_group_size(min_group_size)
                .enumerate(&ds);
            let mut owner = vec![None; ds.num_actions()];
            for (g, group) in groups.iter().enumerate() {
                for a in &group.actions {
                    prop_assert_eq!(owner[a.0 as usize].replace(g), None, "{:?}", a);
                }
            }
            if min_group_size == 1 {
                let total: usize = groups.iter().map(TaggingActionGroup::len).sum();
                prop_assert_eq!(total, ds.num_actions());
            }
            prop_assert!(MiningContext::build(&ds, groups, SummarizerChoice::Frequency).disjoint);
        }
    }

    #[test]
    fn support_of_overlapping_groups_is_the_merge() {
        let ctx = overlapping_context();
        assert!(!ctx.disjoint);
        let n = ctx.num_groups();
        for mask in 0..1usize << n {
            let set: Vec<usize> = (0..n).filter(|i| mask >> i & 1 == 1).collect();
            assert_eq!(ctx.support(&set), merged(&ctx, &set), "{set:?}");
        }
        // Group 0 holds every action, so each set containing it supports all of them,
        // which is less than the sum of its sizes once a second group joins.
        for other in 1..n {
            let sum = ctx.group(0).len() + ctx.group(other).len();
            assert_eq!(ctx.support(&[0, other]), ctx.num_input_actions());
            assert_ne!(ctx.support(&[0, other]), sum);
        }
    }

    #[test]
    fn disjointness_counts_every_occurrence_of_an_action_id() {
        let ds = dataset();
        let groups = GroupingScheme::over(&ds, &[("user", "gender"), ("item", "genre")])
            .unwrap()
            .enumerate(&ds);
        let build = |groups| MiningContext::build(&ds, groups, SummarizerChoice::Frequency);
        assert!(build(groups.clone()).disjoint);
        // An id listed twice inside one group.
        let mut twice = groups.clone();
        let first = twice[0].actions[0];
        twice[0].actions.insert(0, first);
        assert!(!build(twice).disjoint);
        // An id past the dataset's last action is marked without indexing out of range.
        let mut beyond = groups;
        beyond[0]
            .actions
            .push(ActionId(10 * ds.num_actions() as u32));
        let ctx = build(beyond);
        assert!(ctx.disjoint);
        assert_eq!(ctx.support(&[0, 1]), merged(&ctx, &[0, 1]));
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

    /// A group's description row on one side, rebuilt from its description.
    fn reference_row(ctx: &MiningContext, side: Dimension, idx: usize) -> Vec<Option<ValueId>> {
        let arity = match side {
            Dimension::User => ctx.user_offsets.len(),
            Dimension::Item => ctx.item_offsets.len(),
        };
        let mut row = vec![None; arity];
        for cond in ctx.group(idx).description.conditions() {
            if cond.dimension == side {
                row[cond.attribute.0 as usize] = Some(cond.value);
            }
        }
        row
    }

    /// The pair similarity as scored from one description row per group and the sparse
    /// signature merge, without description classes or dense rows.
    fn reference_similarity(
        ctx: &MiningContext,
        dimension: TaggingDimension,
        kind: PairwiseKind,
        a: usize,
        b: usize,
    ) -> f64 {
        let structural = |side| {
            structural_similarity(&reference_row(ctx, side, a), &reference_row(ctx, side, b))
        };
        match (dimension, kind) {
            (TaggingDimension::Tags, _) | (_, PairwiseKind::TagCosine) => {
                ctx.tag_signatures()[a].cosine_similarity(&ctx.tag_signatures()[b])
            }
            (TaggingDimension::Users, PairwiseKind::Structural) => structural(Dimension::User),
            (TaggingDimension::Items, PairwiseKind::Structural) => structural(Dimension::Item),
            (_, PairwiseKind::ItemSetJaccard) => jaccard(&ctx.group(a).items, &ctx.group(b).items),
        }
    }

    /// Require every dimension × kind × criterion to score the pairs `(a, b)`, `a` in
    /// `rows` and `b` any group, bit for bit as [`reference_similarity`] does.
    fn assert_scores_match_the_reference(ctx: &MiningContext, rows: impl Iterator<Item = usize>) {
        let kinds = [
            PairwiseKind::Structural,
            PairwiseKind::ItemSetJaccard,
            PairwiseKind::TagCosine,
        ];
        for a in rows {
            for b in 0..ctx.num_groups() {
                for dimension in TaggingDimension::ALL {
                    for kind in kinds {
                        let reference = reference_similarity(ctx, dimension, kind, a, b);
                        for criterion in MiningCriterion::ALL {
                            let function =
                                DualMiningFunction::standard(dimension, criterion).with_kind(kind);
                            assert_eq!(
                                function.evaluate_pair(ctx, a, b).to_bits(),
                                criterion.orient(reference).to_bits(),
                                "{} on ({a}, {b})",
                                function.describe()
                            );
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_pair_scores_match_the_per_group_reference(
            seed in 0u64..1_000,
            actions in 40usize..400,
            grouping in 0usize..GROUPINGS.len(),
        ) {
            let ctx = random_context(seed, actions, grouping);
            // LDA θ is positive, so its contexts score cosines over the dense rows.
            if matches!(random_summarizer(seed), SummarizerChoice::Lda(_)) {
                prop_assert_eq!(ctx.dense.len(), ctx.num_groups() * ctx.signature_dims());
            }
            prop_assert!(ctx.users.has_table() && ctx.items.has_table());
            assert_scores_match_the_reference(&ctx, 0..ctx.num_groups());
        }
    }

    /// The ranking before it kept scores: `bucket`'s pairs `[a, b]`, `a` before `b` in
    /// the bucket, stable-sorted by `score` in descending order; `None` when a score is
    /// NaN.
    fn score_closure_ranking(
        bucket: &[usize],
        score: impl Fn(usize, usize) -> f64,
    ) -> Option<Vec<[usize; 2]>> {
        let mut scored = Vec::new();
        for (i, &a) in bucket.iter().enumerate() {
            for &b in &bucket[i + 1..] {
                scored.push((score(a, b), [a, b]));
            }
        }
        if scored.iter().any(|(s, _)| s.is_nan()) {
            return None;
        }
        scored.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap_or(Ordering::Equal));
        Some(scored.into_iter().map(|(_, pair)| pair).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // Every kept score is `evaluate_pair`'s own bits, and every kept bucket ranks
        // its pairs as the ranking by a score closure did, for one to three objectives
        // of mixed dimensions, kinds, criteria, aggregators and weights.
        #[test]
        fn prop_kept_scores_are_the_pair_scores(
            seed in 0u64..1_000,
            actions in 40usize..400,
            grouping in 0usize..GROUPINGS.len(),
            bits in 1usize..5,
            fold in 0usize..4,
            functions in proptest::collection::vec(
                (0usize..3, 0usize..3, 0usize..2, 0usize..4, 0.1f64..2.0),
                1..4,
            ),
        ) {
            let ctx = random_context(seed, actions, grouping);
            let kinds = [
                PairwiseKind::Structural,
                PairwiseKind::ItemSetJaccard,
                PairwiseKind::TagCosine,
            ];
            let aggregators = [
                Aggregator::Mean,
                Aggregator::Sum,
                Aggregator::Min,
                Aggregator::Max,
            ];
            let objectives: Vec<ObjectiveSpec> = functions
                .iter()
                .map(|&(dimension, kind, criterion, aggregator, weight)| ObjectiveSpec {
                    function: DualMiningFunction::standard(
                        TaggingDimension::ALL[dimension],
                        MiningCriterion::ALL[criterion],
                    )
                    .with_kind(kinds[kind])
                    .with_aggregator(aggregators[aggregator]),
                    weight,
                })
                .collect();
            let (fold_users, fold_items) = (fold & 2 != 0, fold & 1 != 0);
            let config = LshConfig {
                dims: ctx.folded_dims(fold_users, fold_items),
                num_bits: bits,
                num_tables: 2,
                seed,
            };
            let vectors: Vec<_> = (0..ctx.num_groups())
                .map(|i| ctx.folded_vector(i, fold_users, fold_items))
                .collect();
            let index = LshIndex::build(config, vectors.iter().map(|v| v.as_slice()));
            let problem = TagDmProblem {
                objectives,
                ..TagDmProblem::new("kept scores", 3, 1)
            };
            let objectives = &problem.objectives;
            let ranking = BucketRanking::new(index.all_buckets(), &ctx, &problem);
            let objective = |a, b| -> f64 {
                objectives
                    .iter()
                    .map(|o| o.weight * o.function.evaluate_pair(&ctx, a, b))
                    .sum()
            };
            let words_per_pair = 1 + objectives.len();
            let mut words = 0;
            for (b, bucket) in index.all_buckets().enumerate() {
                let len = bucket.len();
                let pairs = len * len.saturating_sub(1) / 2;
                let old = score_closure_ranking(bucket, objective);
                let Some(kept) = ranking.bucket(b) else {
                    // Nothing kept: no pair, a NaN score, or over the cap.
                    prop_assert!(
                        pairs == 0
                            || old.is_none()
                            || words + pairs * words_per_pair > MAX_RANKED_WORDS
                    );
                    continue;
                };
                words += pairs * words_per_pair;
                let ranked: Vec<[usize; 2]> = kept
                    .pairs
                    .iter()
                    .map(|&[i, j]| [bucket[i as usize], bucket[j as usize]])
                    .collect();
                prop_assert_eq!(Some(ranked), old);
                for (o, spec) in objectives.iter().enumerate() {
                    for i in 0..len {
                        for j in i + 1..len {
                            let want = spec.function.evaluate_pair(&ctx, bucket[i], bucket[j]);
                            prop_assert_eq!(kept.score(o, i, j, len).to_bits(), want.to_bits());
                        }
                    }
                }
            }
            prop_assert!(words <= MAX_RANKED_WORDS);
        }
    }

    #[test]
    fn a_side_beyond_the_table_cap_scores_from_its_class_rows() {
        let ctx = wide_items_context();
        assert!(
            ctx.items.len() > MAX_TABLE_CLASSES,
            "{} classes",
            ctx.items.len()
        );
        assert!(!ctx.items.has_table() && ctx.users.has_table());
        assert!(!ctx.dense.is_empty());
        let n = ctx.num_groups();
        assert_scores_match_the_reference(&ctx, (0..n).step_by(n / 16));
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
        let params = ProblemParams::default();
        let (similar, diverse) = (problem(1, params), problem(4, params));
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
            // Only the kept index comes with a ranking, and only for the objectives it
            // was ranked under.
            for (config, index, problem, kept, ranked) in [
                (first, &first_index, &similar, true, true),
                (other, &other_index, &similar, false, false),
                (first, &first_index, &diverse, true, false),
                (first, &first_index, &similar, true, true),
            ] {
                let (got, ranking) = ctx.lsh_index(fold_users, fold_items, config, problem);
                assert_eq!(matches!(got, Cow::Borrowed(_)), kept);
                assert_eq!(ranking.is_some(), ranked);
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
