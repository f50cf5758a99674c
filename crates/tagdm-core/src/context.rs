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
//!   class rows. A side with a table builds, on first use, its `SimilaritySets`: the
//!   table's few distinct values and, per class and value, the bitset of the groups at
//!   that similarity from the class, which DV-FDP-Fo ORs into a problem's admitted
//!   pairs. The unarized (one-hot) block that the constraint-folding variants append
//!   to a signature is derived from the class row when SM-LSH hashes.
//! * **Dense θ.** When every signature stores all `dims` entries (always for LDA, whose
//!   θ is positive since α > 0), the signatures are also kept as one row-major
//!   `n × dims` array, and a cosine is an index-order dot product over two rows beside
//!   the cached norms: the same products, summed in the same order, as the sparse
//!   merge. Other signatures stay sparse.
//! * **Cosine floors.** When the dense rows are finite and non-negative, each group also
//!   keeps `p = min θ / ‖θ‖` and `q = Σθ / ‖θ‖`. Then `θ_a·θ_b ≥ min θ_a · Σθ_b`, so
//!   `cos(a, b) ≥ max(p_a·q_b, p_b·q_a)`; `CosineFloors` returns that bound less a
//!   rounding margin, which DV-FDP's seed scan uses to skip pairs that cannot be its seed.
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
//! A context also holds one memo slot per fold variant (`MiningContext::lsh_memo`), which
//! SM-LSH fills with its pre-processing step (Algorithm 1) and the context never reads.

use std::collections::HashMap;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use tagdm_data::dataset::Dataset;
use tagdm_data::group::{group_support, TaggingActionGroup};
use tagdm_data::predicate::Dimension;
use tagdm_data::schema::ValueId;
use tagdm_topics::corpus::Corpus;
use tagdm_topics::frequency::FrequencySummarizer;
use tagdm_topics::lda::{LdaConfig, LdaSummarizer};
use tagdm_topics::signature::TagSignature;
use tagdm_topics::summarizer::GroupSummarizer;
use tagdm_topics::tfidf::TfIdfSummarizer;

use crate::criteria::{PairwiseKind, TaggingDimension};
use crate::solvers::sm_lsh::LshMemo;

/// Which group tag summarizer to use when building a [`MiningContext`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
    /// Per group, `[min θ / ‖θ‖, Σθ / ‖θ‖]` of its dense row (see [`CosineFloors`]);
    /// empty when the context keeps no floors.
    floors: Vec<[f64; 2]>,
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
    /// SM-LSH's memo of each fold variant, slot `2 · fold_users + fold_items` (see
    /// [`MiningContext::lsh_memo`]).
    lsh: [OnceLock<LshMemo>; 4],
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
        let signature_norms: Vec<f64> = signatures.iter().map(TagSignature::norm).collect();
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
        let floors = floor_terms(&dense, signature_dims, &signature_norms);

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
            floors,
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

    /// Whether the groups partition their actions, so that the [`support`](Self::support)
    /// of a strictly ascending set is the sum of its groups' sizes.
    pub(crate) fn disjoint(&self) -> bool {
        self.disjoint
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

    /// Lower bounds on the tag cosines of pairs, when the context keeps dense rows whose
    /// entries are finite and non-negative (always for LDA).
    pub(crate) fn cosine_floors(&self) -> Option<CosineFloors<'_>> {
        (!self.floors.is_empty()).then_some(CosineFloors {
            terms: &self.floors,
        })
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

    /// The slot in which SM-LSH keeps its memo of the fold variant `(fold_users,
    /// fold_items)`.
    pub(crate) fn lsh_memo(&self, fold_users: bool, fold_items: bool) -> &OnceLock<LshMemo> {
        &self.lsh[2 * usize::from(fold_users) + usize::from(fold_items)]
    }
}

/// What a cosine floor leaves below the bound `max(p_a·q_b, p_b·q_a)` for rounding.
///
/// The computed cosine `dot / (‖θ_a‖·‖θ_b‖)` and the computed bound
/// `(min θ_a / ‖θ_a‖)·(Σθ_b / ‖θ_b‖)` divide by the same computed norms, and over
/// non-negative rows the exact `dot` is at least the exact `min θ_a · Σθ_b`. The rest is
/// rounding: a dot product and a sum of at most `d` non-negative terms each and five more
/// operations, a relative error of at most `(2d + 6)·2⁻⁵³ < 2.4·10⁻¹⁰` for
/// `d ≤ MAX_FLOOR_DIMS`. The bound is at most about 1, so the computed cosine is at least
/// the computed bound less `2.4·10⁻¹⁰`, and at least the floor plus `0.7·10⁻⁹`; clamping
/// the cosine into `[0, 1]` keeps that, since the floor is below 1. Norms in
/// `[10⁻¹⁵⁰, 10¹⁵⁰]` keep every square and product finite, and what the products lose to
/// underflow below `10⁻¹⁷` of a cosine. A zero row, whose cosine is 0, gets the floor
/// `−FLOOR_MARGIN`.
const FLOOR_MARGIN: f64 = 1e-9;

/// The most signature dimensions for which the context keeps cosine floors.
const MAX_FLOOR_DIMS: usize = 1 << 20;

/// Lower bounds on the tag cosines the context computes: for every pair `(a, b)`,
/// `cosine(a, b) ≥ floor(a, b)`, bit for bit as the context scores it (see
/// [`FLOOR_MARGIN`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CosineFloors<'a> {
    /// Per group, `[p, q] = [min θ / ‖θ‖, Σθ / ‖θ‖]`.
    terms: &'a [[f64; 2]],
}

impl CosineFloors<'_> {
    /// `max(p_a·q_b, p_b·q_a)` less [`FLOOR_MARGIN`]: at most the computed cosine of
    /// `a` and `b`.
    #[inline]
    pub(crate) fn floor(&self, a: usize, b: usize) -> f64 {
        let ([pa, qa], [pb, qb]) = (self.terms[a], self.terms[b]);
        (pa * qb).max(pb * qa) - FLOOR_MARGIN
    }
}

/// Each dense row's `[min θ / ‖θ‖, Σθ / ‖θ‖]`, `[0, 0]` for a zero row; empty unless
/// every entry is finite and non-negative, every norm is 0 or in `[10⁻¹⁵⁰, 10¹⁵⁰]` and
/// the rows have at most [`MAX_FLOOR_DIMS`] entries (see [`FLOOR_MARGIN`]).
fn floor_terms(dense: &[f64], dims: usize, norms: &[f64]) -> Vec<[f64; 2]> {
    let bounded = dims <= MAX_FLOOR_DIMS
        && dense.iter().all(|&w| w.is_finite() && w >= 0.0)
        && norms
            .iter()
            .all(|&norm| norm == 0.0 || (1e-150..=1e150).contains(&norm));
    if dense.is_empty() || !bounded {
        return Vec::new();
    }
    dense
        .chunks_exact(dims)
        .zip(norms)
        .map(|(row, &norm)| {
            if norm == 0.0 {
                return [0.0, 0.0];
            }
            let min = row.iter().copied().fold(f64::INFINITY, f64::min);
            let sum: f64 = row.iter().sum();
            [min / norm, sum / norm]
        })
        .collect()
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
    /// The groups by class and similarity, filled by the first
    /// [`DescriptionClasses::similarity_sets`] call.
    sets: OnceLock<SimilaritySets>,
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
            sets: OnceLock::new(),
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

    /// The side's groups by class and similarity, built on the first call; `None` when
    /// the side keeps no similarity table.
    pub(crate) fn similarity_sets(&self) -> Option<&SimilaritySets> {
        self.has_table()
            .then(|| self.sets.get_or_init(|| SimilaritySets::new(self)))
    }
}

/// One side's groups bucketed by class similarity: the distinct values of the side's
/// `c × c` table and, per class `x` and value `v`, the bitset of the groups whose class
/// is at similarity `v` from `x`. Structural similarity takes few values (the fractions of
/// agreeing attributes: 4 on the medium context's user side, 2 on its item side), so a
/// side takes `c·V·⌈n/64⌉` words for `V` values.
#[derive(Debug, Clone)]
pub(crate) struct SimilaritySets {
    /// The table's distinct values, compared by bits, in row-major order of first
    /// occurrence.
    values: Vec<f64>,
    /// `u64` words per bitset: one bit per group.
    words: usize,
    /// Bitset `(x, v)` at word `(x·V + v)·words`.
    bits: Vec<u64>,
}

impl SimilaritySets {
    /// Bucket the groups of `classes`, a side with a table, by their class's similarity
    /// from each class.
    fn new(classes: &DescriptionClasses) -> Self {
        let c = classes.len();
        let words = classes.class_of.len().div_ceil(64);
        let mut ids = HashMap::new();
        let mut values = Vec::new();
        let value_of: Vec<usize> = classes
            .table
            .iter()
            .map(|&s| {
                *ids.entry(s.to_bits()).or_insert_with(|| {
                    values.push(s);
                    values.len() - 1
                })
            })
            .collect();
        let v = values.len();
        let mut bits = vec![0u64; c * v * words];
        for (g, &y) in classes.class_of.iter().enumerate() {
            for x in 0..c {
                bits[(x * v + value_of[x * c + y as usize]) * words + g / 64] |= 1 << (g % 64);
            }
        }
        SimilaritySets {
            values,
            words,
            bits,
        }
    }

    /// The distinct similarities.
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }

    /// The groups whose class is at similarity `values()[v]` from class `x`.
    pub(crate) fn set(&self, x: usize, v: usize) -> &[u64] {
        let start = (x * self.values.len() + v) * self.words;
        &self.bits[start..start + self.words]
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
    use crate::criteria::MiningCriterion;
    use crate::functions::DualMiningFunction;
    use crate::solvers::test_support::{
        lda_ties_context, overlapping_context, random_context, random_dataset, random_summarizer,
        wide_items_context, GROUPINGS,
    };
    use proptest::prelude::*;
    use tagdm_data::action::ActionId;
    use tagdm_data::dataset::DatasetBuilder;
    use tagdm_data::group::{GroupId, GroupingScheme};
    use tagdm_data::predicate::ConjunctivePredicate;
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

    /// A corpus whose action `d` tags one of two items with `docs[d]`: ids into a
    /// vocabulary of five tags, repeats counted; one group per action.
    fn one_group_per_document(docs: &[Vec<usize>], summarizer: SummarizerChoice) -> MiningContext {
        const TAGS: [&str; 5] = ["a", "b", "c", "d", "e"];
        let mut b = DatasetBuilder::movielens_style();
        let user = b
            .add_user([
                ("gender", "male"),
                ("age", "18-24"),
                ("occupation", "student"),
                ("state", "ny"),
            ])
            .unwrap();
        let items = [("comedy", "a", "x"), ("war", "b", "y")].map(|(genre, actor, director)| {
            b.add_item([("genre", genre), ("actor", actor), ("director", director)])
                .unwrap()
        });
        for (d, doc) in docs.iter().enumerate() {
            let tags: Vec<&str> = doc.iter().map(|&t| TAGS[t]).collect();
            b.add_action_str(user, items[d % 2], &tags, None).unwrap();
        }
        let ds = b.build();
        let everyone = ConjunctivePredicate::parse(&ds, &[]).unwrap();
        let groups = (0..docs.len())
            .map(|d| {
                TaggingActionGroup::from_actions(
                    GroupId(d as u32),
                    everyone.clone(),
                    &ds,
                    vec![ActionId(d as u32)],
                )
            })
            .collect();
        MiningContext::build(&ds, groups, summarizer)
    }

    /// A scale for LDA's prior: the default a third of the time, otherwise down to
    /// `10⁻⁶` of it, which makes θ peaked.
    fn prior_scale() -> impl Strategy<Value = f64> {
        (0u32..3, -6.0f64..0.0).prop_map(|(q, e)| if q == 0 { 1.0 } else { 10f64.powf(e) })
    }

    /// Require the context's cosine floors to exist when `expected`, and each to be at
    /// most the context's own cosine, for every ordered pair, a group with itself too.
    fn assert_floors_bound_the_cosines(ctx: &MiningContext, expected: bool) {
        assert_eq!(ctx.cosine_floors().is_some(), expected);
        let Some(floors) = ctx.cosine_floors() else {
            return;
        };
        for a in 0..ctx.num_groups() {
            for b in 0..ctx.num_groups() {
                let (cosine, floor) = (ctx.cosine(a, b), floors.floor(a, b));
                assert!(
                    cosine >= floor,
                    "({a}, {b}): cosine {cosine} < floor {floor}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // Dense frequency rows (every document holds every tag), sparse ones, and LDA θ
        // of one-term documents, whose θ is peaked under a small prior. The last
        // document repeats the first, so a pair has identical rows under the frequency
        // summarizers.
        #[test]
        fn prop_cosine_floors_bound_the_cosines_of_documents(
            mut docs in proptest::collection::vec(proptest::collection::vec(0usize..5, 1..6), 1..12),
            dense in any::<bool>(),
            one_term in any::<bool>(),
            summarizer in 0usize..3,
            topics in 1usize..6,
            alpha in prior_scale(),
        ) {
            for doc in &mut docs {
                if one_term {
                    let term = doc[0];
                    doc.fill(term);
                } else if dense {
                    doc.extend(0..5);
                }
            }
            docs.push(docs[0].clone());
            // Frequency rows are dense when every document holds every tag in use.
            let dense = docs.iter().flatten().all(|t| docs.iter().all(|doc| doc.contains(t)));
            let (choice, expected) = match summarizer {
                0 => (SummarizerChoice::Frequency, dense),
                1 => (SummarizerChoice::FrequencyNormalized, dense),
                _ => {
                    let fast = LdaConfig::fast(topics);
                    let config = LdaConfig { alpha: alpha * fast.alpha, ..fast };
                    (SummarizerChoice::Lda(config), true)
                }
            };
            let ctx = one_group_per_document(&docs, choice);
            assert_floors_bound_the_cosines(&ctx, expected);
        }

        // LDA contexts of random corpora, with duplicated tag bags and two empty groups
        // whose θ rows are identical; one topic makes every row `[1]`.
        #[test]
        fn prop_cosine_floors_bound_the_cosines_of_lda_contexts(
            seed in 0u64..1_000,
            actions in 40usize..300,
            grouping in 0usize..GROUPINGS.len(),
            topics in 1usize..8,
            copies in 0usize..4,
            alpha in prior_scale(),
        ) {
            let ctx = lda_ties_context(seed, actions, grouping, topics, copies, alpha);
            let n = ctx.num_groups();
            prop_assert_eq!(
                &ctx.dense[(n - 2) * ctx.signature_dims()..(n - 1) * ctx.signature_dims()],
                &ctx.dense[(n - 1) * ctx.signature_dims()..]
            );
            assert_floors_bound_the_cosines(&ctx, true);
        }
    }

    #[test]
    fn cosine_floors_of_one_topic_rows_sit_below_one() {
        let ctx = lda_ties_context(7, 120, 0, 1, 2, 1.0);
        assert!(ctx.dense.iter().all(|&w| w == 1.0));
        let floors = ctx.cosine_floors().unwrap();
        for a in 0..ctx.num_groups() {
            for b in 0..ctx.num_groups() {
                assert_eq!(ctx.cosine(a, b), 1.0);
                assert!(floors.floor(a, b) <= 1.0 - FLOOR_MARGIN);
            }
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
    fn lda_context_uses_topic_space() {
        let (_, ctx) = context(SummarizerChoice::fast_lda(4));
        assert_eq!(ctx.signature_dims(), 4);
    }
}
