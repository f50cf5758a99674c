//! The SM-LSH solver family (Section 4 of the paper): tag-similarity maximization via
//! random-hyperplane locality sensitive hashing.
//!
//! The algorithm hashes every group's tag signature vector into `l` hash tables of
//! `d′`-bit signatures (Algorithm 1). Instead of using the buckets for nearest-neighbour
//! queries, it *ranks the buckets with the mining scoring function* and returns the best
//! bucket whose size fits `1 ≤ |G_opt| ≤ k`. If no bucket qualifies, the number of hash
//! bits `d′` is relaxed by binary search (fewer bits → larger buckets). Hyperplane
//! families are nested (the first `b` planes of a seeded family are the `b`-plane
//! family), so every relaxed round re-buckets signature prefixes instead of hashing
//! again.
//!
//! Hashing is the algorithm's pre-processing step: it depends on the context, the fold
//! variant and the LSH configuration, not on the query. So the solver keeps an [`LshMemo`]
//! in the context's slot for each fold variant ([`MiningContext::lsh_memo`]): the
//! full-width index that the first solve of the variant hashed, and a [`BucketRanking`]
//! of every bucket's pairs under that solve's objectives, with each objective function's
//! score of those pairs. The first solve of a variant hashes and ranks, and its `elapsed`
//! includes both. A later solve with the same `d′`, `l` and seed only evaluates buckets,
//! and reads the ranking when its objectives are the ranked ones. A solve with another
//! configuration hashes its own index and keeps nothing.
//!
//! Constraint handling:
//!
//! * **SM-LSH-Fi** ([`ConstraintMode::Filter`]): buckets are post-filtered for the hard
//!   constraints (user/item similarity or diversity thresholds plus group support).
//! * **SM-LSH-Fo** ([`ConstraintMode::Fold`]): the *similarity* constraints are folded
//!   into the hashed vector — the group's unarized (boolean) user and/or item attribute
//!   vectors are concatenated with its tag signature (Section 4.3) — so that groups
//!   agreeing on the constrained attributes are more likely to share a bucket; the
//!   remaining constraints are post-checked as in filtering.
//!
//! One practical extension over the paper's pseudo-code: buckets larger than `k` are not
//! discarded but greedily refined to their best `k`-subset (disable with
//! [`SmLshSolver::strict_bucket_semantics`]), which avoids needless null results when
//! `d′` is small. The refinement runs two greedy walks per bucket on the shared pair
//! kernel (`solvers::pairs`): one by pairwise objective alone and, when constraints are
//! enforced, one that only admits constraint-satisfying sets. The free walk starts from
//! the bucket's best pair, the bound walk from its best admissible pair. Those seeds
//! depend on the bucket and the objectives only, not on thresholds or support, so a solve
//! with a ranking reads the free seed as a bucket's first ranked pair and the bound seed
//! as its first ranked pair that passes the constraints. Any other solve, and every
//! relaxed round, seeds both walks in one pass over the bucket's pairs that scores each
//! pair's objective once. Both ways give the same seeds, ties included.
//!
//! Everything a bucket's walks and candidate checks score comes from one source per
//! bucket, indexed by position in the bucket (`BucketScores`). Objective scores come
//! from the kept scores when the bucket has them, so a warm solve of the benchmark's
//! requests scores no tag pair; a bucket without them (every relaxed round, a solve
//! with other objectives or another LSH configuration, a bucket over the kept cap)
//! scores them where they are read. Constraint scores are scored where they are read
//! too: the walks test a candidate's constraints only when its distance puts it ahead
//! of the round's best. A bucket's candidate sets are ascending position lists in one
//! reused buffer; a candidate equal to an earlier one of the same bucket is counted but
//! not valued again, as it cannot beat the first copy.
//!
//! Every score is `evaluate_pair`'s own bits, and every set is valued by the problem's
//! own compositions over them (see
//! [`DualMiningFunction::value`](crate::functions::DualMiningFunction::value)), so
//! answers, objectives, `feasible` and `candidates_evaluated` equal scoring every
//! candidate from scratch.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::time::Instant;

use tagdm_lsh::index::{LshConfig, LshIndex};

use crate::context::MiningContext;
use crate::criteria::TaggingDimension;
use crate::problem::{ObjectiveSpec, TagDmProblem};
use crate::solvers::pairs::{pair_admits, PairScores, PairTable, Walk};
use crate::solvers::{CancelToken, ConstraintMode, Solver, SolverOutcome};

/// Tag-similarity maximization by locality sensitive hashing.
#[derive(Debug, Clone)]
pub struct SmLshSolver {
    /// How hard constraints are handled.
    pub mode: ConstraintMode,
    /// Number of hash tables `l` (the paper's experiments use 1).
    pub num_tables: usize,
    /// Initial number of hash bits `d′` (the paper's experiments use 10); the iterative
    /// relaxation may lower it.
    pub initial_bits: usize,
    /// RNG seed for the hyperplane families.
    pub seed: u64,
    /// When `true`, buckets larger than `k` are skipped exactly as in Algorithm 1; when
    /// `false` (default), such buckets are greedily refined to their best `k`-subset.
    pub strict_bucket_semantics: bool,
}

impl SmLshSolver {
    /// A solver with the paper's default parameters (`l = 1`, `d′ = 10`).
    pub fn new(mode: ConstraintMode) -> Self {
        SmLshSolver {
            mode,
            num_tables: 1,
            initial_bits: 10,
            seed: 0x5A17,
            strict_bucket_semantics: false,
        }
    }

    /// Override the number of hash tables.
    pub fn with_tables(mut self, num_tables: usize) -> Self {
        self.num_tables = num_tables.max(1);
        self
    }

    /// Override the initial number of hash bits.
    pub fn with_bits(mut self, bits: usize) -> Self {
        self.initial_bits = bits.max(1);
        self
    }

    /// Override the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Use the strict bucket semantics of Algorithm 1 (oversized buckets are skipped).
    pub fn strict(mut self) -> Self {
        self.strict_bucket_semantics = true;
        self
    }

    /// Which attribute blocks the folding variant concatenates: the dimensions with a
    /// *similarity* constraint (folding a diversity constraint into a similarity hash
    /// would be counter-productive, as the paper notes in Section 4.4).
    fn fold_dimensions(&self, problem: &TagDmProblem) -> (bool, bool) {
        if self.mode != ConstraintMode::Fold {
            return (false, false);
        }
        let mut fold_users = false;
        let mut fold_items = false;
        for c in problem.similarity_constraints() {
            match c.function.dimension {
                TaggingDimension::Users => fold_users = true,
                TaggingDimension::Items => fold_items = true,
                TaggingDimension::Tags => {}
            }
        }
        (fold_users, fold_items)
    }

    /// [`lsh_index`] of `problem`'s fold variant under this solver's configuration.
    fn full_index<'c>(
        &self,
        ctx: &'c MiningContext,
        problem: &TagDmProblem,
    ) -> (Cow<'c, LshIndex>, Option<&'c BucketRanking>) {
        let (fold_users, fold_items) = self.fold_dimensions(problem);
        // The pub fields skip the builders' clamps: zero bits or tables hash like one.
        let config = LshConfig {
            dims: ctx.folded_dims(fold_users, fold_items).max(1),
            num_bits: self.initial_bits.max(1),
            num_tables: self.num_tables.max(1),
            seed: self.seed,
        };
        lsh_index(ctx, fold_users, fold_items, config, problem)
    }

    /// Evaluate every bucket of an index, returning the best candidate set and the
    /// number of candidate sets evaluated. `ranking`, when given, ranks the index's
    /// bucket pairs by the problem's pairwise objective and keeps their scores.
    fn evaluate_buckets<'a>(
        &self,
        index: &LshIndex,
        ranking: Option<&'a BucketRanking>,
        state: &mut Buckets<'a>,
        cancel: &CancelToken,
    ) -> (Option<(Vec<usize>, f64)>, u64) {
        let Buckets {
            scores,
            walks,
            candidates,
            groups,
        } = state;
        let problem = scores.problem;
        let k = problem.max_groups;
        let enforced = self.mode != ConstraintMode::Ignore;
        // A constraint-aware walk rescues buckets whose objective-best subset violates a
        // hard constraint that some other subset satisfies.
        let constrained = enforced && !problem.constraints.is_empty();
        let mut best: Option<(Vec<usize>, f64)> = None;
        let mut evaluated = 0u64;
        for (b, bucket) in index.all_buckets().enumerate() {
            if cancel.is_cancelled() {
                break;
            }
            if bucket.len() < problem.min_groups {
                continue;
            }
            if self.strict_bucket_semantics && bucket.len() > k {
                // Algorithm 1 only accepts buckets whose size already fits 1 ≤ |G| ≤ k.
                continue;
            }
            let ranked = ranking.and_then(|r| r.bucket(b));
            scores.reset(bucket, ranked);
            // Candidate sets drawn from this bucket, as positions in it: the bucket
            // itself when it fits, and (in the refining mode) greedy sub-selections of
            // every admissible size, so that a feasible high-scoring pair inside an
            // oversized or partly constraint-violating bucket is not lost.
            candidates.clear();
            let len = bucket.len();
            if len <= k {
                candidates.push_sorted(0..len);
            }
            if !self.strict_bucket_semantics {
                let upper = k.min(len);
                walks.run(
                    scores,
                    ranked.map(|r| r.pairs),
                    upper.min(len.saturating_sub(1)),
                    if constrained { k } else { 0 },
                );
                // One walk serves every refined size `s ≥ 2`: the greedy to `s` groups
                // is the walk's first `s` steps.
                for size in (problem.min_groups..=upper).rev() {
                    if size == len {
                        continue; // already covered by the full bucket
                    }
                    if size == 1 {
                        candidates.push_sorted([0]);
                    } else {
                        candidates.push_sorted(walks.free.groups[..size].iter().copied());
                    }
                }
                if constrained {
                    candidates.push_sorted(walks.bound.groups.iter().copied());
                }
                // A support-oriented selection (the bucket's largest groups) rescues
                // buckets whose objective-best subsets cover too few tuples to meet the
                // group-support threshold p.
                if enforced && problem.min_support > 1 {
                    candidates.push_largest(k, len, |p| scores.ctx.group(bucket[p]).len());
                }
            }

            for c in 0..candidates.len() {
                let set = candidates.get(c);
                if set.is_empty() {
                    continue;
                }
                evaluated += 1;
                // An equal earlier candidate already had its chance: `best` only moves
                // on a strictly larger objective.
                if candidates.repeats(c) {
                    continue;
                }
                groups.clear();
                groups.extend(set.iter().map(|&p| bucket[p]));
                if !scores.acceptable(self.mode, set, groups) {
                    continue;
                }
                let objective = scores.objective(set);
                if best.as_ref().is_none_or(|(_, b)| objective > *b) {
                    best = Some((groups.clone(), objective));
                }
            }
        }
        (best, evaluated)
    }
}

impl Solver for SmLshSolver {
    fn name(&self) -> String {
        format!("SM-LSH{}", self.mode.suffix())
    }

    fn solve_cancellable(
        &self,
        ctx: &MiningContext,
        problem: &TagDmProblem,
        cancel: &CancelToken,
    ) -> SolverOutcome {
        let start = Instant::now();
        let (full, mut ranking) = self.full_index(ctx, problem);

        // Iterative relaxation of d′ (Algorithm 1): start from the configured d′; on a
        // null result, halve the bits (larger buckets) down to a single bit. Each
        // relaxed index re-buckets prefixes of the full index's hashed signatures, whose
        // buckets its ranking does not cover.
        let mut evaluated_total = 0u64;
        let mut best: Option<(Vec<usize>, f64)> = None;
        let mut state = Buckets::new(ctx, problem);
        let mut relaxed: LshIndex;
        let mut index: &LshIndex = &full;
        loop {
            let (found, evaluated) = self.evaluate_buckets(index, ranking, &mut state, cancel);
            evaluated_total += evaluated;
            if found.is_some() {
                best = found;
                break;
            }
            // A fired token ends the relaxation: re-bucketing with fewer bits restarts
            // the whole bucket sweep, which a deadline-bound caller cannot afford.
            let bits = index.config().num_bits;
            if bits == 1 || cancel.is_cancelled() {
                break;
            }
            relaxed = full.truncated(bits / 2);
            index = &relaxed;
            ranking = None;
        }

        let elapsed = start.elapsed();
        SolverOutcome::found(self.name(), ctx, problem, best, evaluated_total, elapsed)
    }
}

/// One fold variant's memo: the full-width index that the variant's first solve hashed,
/// and the ranking of its buckets under that solve's objectives.
#[derive(Debug, Clone)]
pub(crate) struct LshMemo {
    index: LshIndex,
    ranking: BucketRanking,
}

/// The LSH index of every group's folded vector under `config`, and its ranking under
/// `problem`'s objectives, as the fold variant's memo allows (see the module doc). Either
/// way the index is the one [`LshIndex::build`] gives.
fn lsh_index<'c>(
    ctx: &'c MiningContext,
    fold_users: bool,
    fold_items: bool,
    config: LshConfig,
    problem: &TagDmProblem,
) -> (Cow<'c, LshIndex>, Option<&'c BucketRanking>) {
    let hash = || {
        let vectors: Vec<Vec<(u32, f64)>> = (0..ctx.num_groups())
            .map(|i| ctx.folded_vector(i, fold_users, fold_items))
            .collect();
        LshIndex::build(config, vectors.iter().map(|v| v.as_slice()))
    };
    let memo = ctx.lsh_memo(fold_users, fold_items).get_or_init(|| {
        let index = hash();
        let ranking = BucketRanking::new(index.all_buckets(), ctx, problem);
        LshMemo { index, ranking }
    });
    if memo.index.config() != &config {
        return (Cow::Owned(hash()), None);
    }
    let ranking = (memo.ranking.objectives == problem.objectives).then_some(&memo.ranking);
    (Cow::Borrowed(&memo.index), ranking)
}

/// The most 8-byte words one [`BucketRanking`] keeps: 16,384 words, 128 KB. A ranked
/// pair takes one word for its positions and one for each objective function's score.
/// The medium four-attribute context's three SM-LSH-Fo variants rank 967, 2,635 and
/// 6,638 pairs at the paper's `d′ = 10`, `l = 1`, two words a pair under one objective.
/// A bucket whose words would take a ranking past the cap keeps nothing, so more
/// objectives keep fewer buckets, never more memory.
const MAX_RANKED_WORDS: usize = 1 << 14;

/// The pairs of each bucket of an LSH index, ranked in descending order by the pairwise
/// objective of the objectives it keeps, and each objective function's scores of those
/// pairs.
///
/// A pair is `[i, j]`, the positions in the bucket of its two groups, `i < j`. The sort
/// is stable, so tied pairs keep the bucket's `(i < j)` pair order: the first ranked
/// pair is the first pair of largest score in that order, and the first ranked pair
/// passing a test is the first such pair among those that pass it. Beside its ranked
/// pairs a bucket keeps, per objective function in objective order, the triangle of its
/// pairs' scores in `(i < j)` row-major order (see [`RankedBucket::score`]), and the
/// ranking values exactly those scores, by [`TagDmProblem::weighted_objective`].
///
/// A bucket keeps neither ranking nor scores when one of its ranking scores is NaN,
/// which no order ranks, or when its pairs and scores would take the ranking past
/// [`MAX_RANKED_WORDS`].
#[derive(Debug, Clone)]
struct BucketRanking {
    /// The objectives it ranks under, one score triangle each per ranked bucket.
    objectives: Vec<ObjectiveSpec>,
    /// Per bucket of the index, in [`LshIndex::all_buckets`] order, the end of its
    /// ranked pairs in `pairs`. A bucket of two or more groups with no pairs there
    /// keeps no ranking.
    ends: Vec<u32>,
    pairs: Vec<[u32; 2]>,
    /// The ranked buckets' score triangles, back to back: a bucket whose pairs start at
    /// `p` in `pairs` starts its triangles at `p × objectives`.
    scores: Vec<f64>,
}

/// One ranked bucket of a [`BucketRanking`].
#[derive(Debug, Clone, Copy)]
struct RankedBucket<'a> {
    /// The bucket's pairs of positions, ranked.
    pairs: &'a [[u32; 2]],
    /// Its objective functions' score triangles, back to back.
    scores: &'a [f64],
}

impl RankedBucket<'_> {
    /// Objective function `o`'s score of the pair at positions `i < j` of this bucket of
    /// `len` groups.
    #[inline]
    fn score(&self, o: usize, i: usize, j: usize, len: usize) -> f64 {
        debug_assert!(i < j && j < len);
        self.scores[o * self.pairs.len() + i * (2 * len - i - 1) / 2 + (j - i - 1)]
    }
}

impl BucketRanking {
    /// Score every bucket of `buckets` under each of `problem`'s objective functions, and
    /// rank it by [`TagDmProblem`]'s pairwise objective of those scores.
    fn new<'a>(
        buckets: impl Iterator<Item = &'a [usize]>,
        ctx: &MiningContext,
        problem: &TagDmProblem,
    ) -> Self {
        let objectives = problem.objectives.clone();
        let mut ends = Vec::new();
        let mut pairs = Vec::new();
        let mut scores = Vec::new();
        let mut ranked: Vec<(f64, [u32; 2])> = Vec::new();
        for bucket in buckets {
            let len = bucket.len();
            let count = len * len.saturating_sub(1) / 2;
            let words = (pairs.len() + count).saturating_mul(1 + objectives.len());
            if words <= MAX_RANKED_WORDS {
                let start = scores.len();
                for o in &objectives {
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
                        let score = problem.weighted_objective(|o| triangles[o * count + t]);
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
            objectives,
            ends,
            pairs,
            scores,
        }
    }

    /// Bucket `b`'s ranked pairs and scores, or `None` when it keeps no ranking.
    fn bucket(&self, b: usize) -> Option<RankedBucket<'_>> {
        let start = if b == 0 { 0 } else { self.ends[b - 1] as usize };
        let end = self.ends[b] as usize;
        let functions = self.objectives.len();
        (start < end).then(|| RankedBucket {
            pairs: &self.pairs[start..end],
            scores: &self.scores[start * functions..end * functions],
        })
    }
}

/// What a solve reuses from bucket to bucket.
struct Buckets<'a> {
    scores: BucketScores<'a>,
    walks: BucketWalks<'a>,
    candidates: Candidates,
    /// The groups of a candidate.
    groups: Vec<usize>,
}

impl<'a> Buckets<'a> {
    fn new(ctx: &'a MiningContext, problem: &'a TagDmProblem) -> Self {
        Buckets {
            scores: BucketScores::new(ctx, problem),
            walks: BucketWalks::new(ctx, problem),
            candidates: Candidates::default(),
            groups: Vec::new(),
        }
    }
}

/// The pair scores of one bucket, by position in the bucket: the one source of the
/// bucket's walks and candidate checks.
///
/// * An objective function's score comes from the bucket's kept triangle (see
///   [`BucketRanking`]) when the bucket has one, and is scored where it is read when
///   it has none.
/// * A constraint function's score is scored where it is read. A walk reads a
///   candidate's constraint scores only when its distance puts it ahead of the round's
///   best (see [`PairScores::DISTANCE_FIRST`]).
///
/// Every source holds `evaluate_pair`'s own bits, and sets and pairs are valued by
/// [`TagDmProblem`]'s own compositions over them.
struct BucketScores<'a> {
    ctx: &'a MiningContext,
    problem: &'a TagDmProblem,
    /// The bucket's groups, in bucket order.
    bucket: Vec<usize>,
    kept: Option<RankedBucket<'a>>,
}

impl<'a> BucketScores<'a> {
    fn new(ctx: &'a MiningContext, problem: &'a TagDmProblem) -> Self {
        BucketScores {
            ctx,
            problem,
            bucket: Vec::new(),
            kept: None,
        }
    }

    /// Start on `bucket`, whose kept triangles `kept` holds when it is ranked.
    fn reset(&mut self, bucket: &[usize], kept: Option<RankedBucket<'a>>) {
        self.bucket.clear();
        self.bucket.extend_from_slice(bucket);
        self.kept = kept;
    }

    /// Constraint `f`'s score of the pair at positions `i ≠ j`.
    #[inline]
    fn constraint_score(&self, f: usize, i: usize, j: usize) -> f64 {
        let (a, b) = (self.bucket[i], self.bucket[j]);
        self.problem.constraints[f]
            .function
            .evaluate_pair(self.ctx, a, b)
    }

    /// Objective function `o`'s score of the pair at positions `i ≠ j`.
    #[inline]
    fn objective_score(&self, o: usize, i: usize, j: usize) -> f64 {
        if let Some(kept) = &self.kept {
            let (i, j) = if i < j { (i, j) } else { (j, i) };
            return kept.score(o, i, j, self.bucket.len());
        }
        let (a, b) = (self.bucket[i], self.bucket[j]);
        self.problem.objectives[o]
            .function
            .evaluate_pair(self.ctx, a, b)
    }

    /// The pairwise objective of positions `i` and `j`.
    #[inline]
    fn pairwise_objective(&self, i: usize, j: usize) -> f64 {
        self.problem
            .weighted_objective(|o| self.objective_score(o, i, j))
    }

    /// Whether the 2-set of positions `i` and `j` satisfies every constraint.
    fn pair_admits(&self, i: usize, j: usize) -> bool {
        pair_admits(self.ctx, self.problem, self.bucket[i], self.bucket[j])
    }

    /// Whether the ascending positions `set`, of the bucket's `groups`, form an
    /// acceptable answer under `mode`: the right size, and under Filter and Fold also
    /// [`TagDmProblem::feasible`].
    fn acceptable(&self, mode: ConstraintMode, set: &[usize], groups: &[usize]) -> bool {
        let problem = self.problem;
        problem.size_ok(set.len())
            && (mode == ConstraintMode::Ignore
                || self.ctx.support(groups) >= problem.min_support
                    && problem.constraints_hold(set.len(), |f, i, j| {
                        self.constraint_score(f, set[i], set[j])
                    }))
    }

    /// [`TagDmProblem::objective`] of the positions `set`.
    fn objective(&self, set: &[usize]) -> f64 {
        self.problem
            .objective_from(set.len(), |o, i, j| self.objective_score(o, set[i], set[j]))
    }
}

impl PairScores for BucketScores<'_> {
    const DISTANCE_FIRST: bool = true;

    fn constraint(&self, f: usize, a: usize, b: usize) -> f64 {
        self.constraint_score(f, a, b)
    }

    fn distance(&self, a: usize, b: usize) -> f64 {
        self.pairwise_objective(a, b)
    }
}

/// A bucket's candidate sets: ascending lists of positions, back to back in one buffer.
#[derive(Default)]
struct Candidates {
    positions: Vec<usize>,
    /// The end of each candidate in `positions`.
    ends: Vec<usize>,
}

impl Candidates {
    fn clear(&mut self) {
        self.positions.clear();
        self.ends.clear();
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Candidate `c`.
    fn get(&self, c: usize) -> &[usize] {
        let start = if c == 0 { 0 } else { self.ends[c - 1] };
        &self.positions[start..self.ends[c]]
    }

    /// Whether candidate `c` equals an earlier one.
    fn repeats(&self, c: usize) -> bool {
        (0..c).any(|e| self.get(e) == self.get(c))
    }

    /// Add the positions `set`, sorted.
    fn push_sorted(&mut self, set: impl IntoIterator<Item = usize>) {
        let start = self.positions.len();
        self.positions.extend(set);
        self.positions[start..].sort_unstable();
        self.ends.push(self.positions.len());
    }

    /// Add the `k` positions of `0..len` whose groups are largest by `size`, ties to the
    /// earlier position, sorted: what a stable sort by decreasing size, cut to `k`,
    /// keeps.
    fn push_largest(&mut self, k: usize, len: usize, size: impl Fn(usize) -> usize) {
        let start = self.positions.len();
        // Once `k` are chosen, the size of the smallest: no larger `p` gets in.
        let mut floor = None;
        for p in 0..len {
            let size_p = size(p);
            if floor.is_some_and(|floor| size_p <= floor) {
                continue;
            }
            let chosen = &self.positions[start..];
            let at = chosen
                .iter()
                .position(|&q| size(q) < size_p)
                .unwrap_or(chosen.len());
            if at < k {
                self.positions.insert(start + at, p);
                self.positions.truncate(start + k);
                if self.positions.len() == start + k {
                    floor = Some(size(self.positions[start + k - 1]));
                }
            }
        }
        self.positions[start..].sort_unstable();
        self.ends.push(self.positions.len());
    }
}

/// The two refinement walks of a bucket, over its positions: `free` greedily maximizes
/// the pairwise objective; `bound` does the same over sets that satisfy every
/// constraint.
struct BucketWalks<'a> {
    free: Walk<'a>,
    bound: Walk<'a>,
}

impl<'a> BucketWalks<'a> {
    /// Walks for `problem`; the constrained walk holds at most `problem.max_groups`
    /// groups.
    fn new(ctx: &MiningContext, problem: &'a TagDmProblem) -> Self {
        let k = problem.max_groups.min(ctx.num_groups());
        BucketWalks {
            free: Walk::new(problem, None),
            bound: Walk::new(problem, Some(PairTable::constraints(problem, k))),
        }
    }

    /// Walk the bucket of `scores` to at most `free_limit` positions by pairwise
    /// objective, and to at most `bound_limit` positions over constraint-satisfying
    /// sets. A walk is left empty when its limit is below 2 or no pair of the bucket is
    /// admissible to it.
    ///
    /// The free walk starts from the bucket's first pair of largest score in `(i < j)`
    /// order, the bound walk from the first such pair that satisfies every constraint:
    /// the first ranked pair and the first admissible ranked pair when `ranked` ranks
    /// the bucket (see [`BucketRanking`]), else one pass over the bucket's pairs that
    /// scores each pair's objective once. Each walk then adds, per round, the bucket
    /// position with the largest total objective to its positions (see [`Walk::grow`]).
    /// A larger limit only runs more rounds, so the first `s ≥ 2` positions of a walk
    /// are the walk to `s`.
    fn run(
        &mut self,
        scores: &BucketScores,
        ranked: Option<&[[u32; 2]]>,
        free_limit: usize,
        bound_limit: usize,
    ) {
        self.free.groups.clear();
        self.bound.groups.clear();
        let len = scores.bucket.len();
        if len < 2 || free_limit.max(bound_limit) < 2 {
            return;
        }
        let pair = |&[i, j]: &[u32; 2]| (i as usize, j as usize);
        let (free, bound) = match ranked {
            Some(ranked) => {
                let admitted = |&(i, j): &(usize, usize)| scores.pair_admits(i, j);
                let bound = (bound_limit >= 2).then(|| ranked.iter().map(pair).find(admitted));
                (Some(pair(&ranked[0])), bound.flatten())
            }
            None => {
                let mut free: Option<(usize, usize, f64)> = None;
                let mut bound: Option<(usize, usize, f64)> = None;
                for i in 0..len {
                    for j in i + 1..len {
                        let score = scores.pairwise_objective(i, j);
                        if free.is_none_or(|(_, _, s)| score > s) {
                            free = Some((i, j, score));
                        }
                        if bound_limit >= 2
                            && bound.is_none_or(|(_, _, s)| score > s)
                            && scores.pair_admits(i, j)
                        {
                            bound = Some((i, j, score));
                        }
                    }
                }
                let pair = |seed: Option<(usize, usize, f64)>| seed.map(|(i, j, _)| (i, j));
                (pair(free), pair(bound))
            }
        };
        for (walk, seed, limit) in [
            (&mut self.free, free, free_limit),
            (&mut self.bound, bound, bound_limit),
        ] {
            if let Some(seed) = seed.filter(|_| limit >= 2) {
                walk.grow(scores, seed, 0..len, limit, || true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{problem, problem_1, problem_2, problem_3, ProblemParams};
    use crate::criteria::{Aggregator, MiningCriterion, PairwiseKind};
    use crate::functions::DualMiningFunction;
    use crate::problem::ObjectiveSpec;
    use crate::solvers::test_support::{medium_context, random_context, small_context, GROUPINGS};
    use crate::solvers::ExactSolver;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::sync::{Arc, Barrier};
    use std::thread;
    use ConstraintMode::{Filter, Fold};

    /// The oracle for the unconstrained bucket walk, run afresh for each size
    /// `limit`: pick at most `limit` members of `candidates` maximizing the problem's
    /// pairwise objective by seeding with the best pair, then repeatedly adding the
    /// candidate with the largest total pairwise objective to the already-selected ones.
    fn greedy_select_by_objective(
        ctx: &MiningContext,
        problem: &TagDmProblem,
        candidates: &[usize],
        limit: usize,
    ) -> Vec<usize> {
        if candidates.len() <= limit {
            return candidates.to_vec();
        }
        if limit == 0 {
            return Vec::new();
        }
        if limit == 1 {
            return vec![candidates[0]];
        }
        // Seed with the best pair.
        let mut best_pair = (candidates[0], candidates[1]);
        let mut best_score = f64::NEG_INFINITY;
        for (i, &a) in candidates.iter().enumerate() {
            for &b in candidates.iter().skip(i + 1) {
                let score = problem.pairwise_objective(ctx, a, b);
                if score > best_score {
                    best_score = score;
                    best_pair = (a, b);
                }
            }
        }
        let mut selected = vec![best_pair.0, best_pair.1];
        while selected.len() < limit {
            let mut best: Option<(usize, f64)> = None;
            for &candidate in candidates {
                if selected.contains(&candidate) {
                    continue;
                }
                let gain: f64 = selected
                    .iter()
                    .map(|&s| problem.pairwise_objective(ctx, candidate, s))
                    .sum();
                if best.is_none_or(|(_, g)| gain > g) {
                    best = Some((candidate, gain));
                }
            }
            match best {
                Some((candidate, _)) => selected.push(candidate),
                None => break,
            }
        }
        selected.sort_unstable();
        selected
    }

    /// The oracle for the constrained bucket walk: grow the set greedily by pairwise
    /// objective but only admit a candidate if the grown set still satisfies every hard
    /// constraint of the problem.
    fn greedy_select_feasible(
        ctx: &MiningContext,
        problem: &TagDmProblem,
        candidates: &[usize],
        limit: usize,
    ) -> Vec<usize> {
        if limit < 2 || candidates.len() < 2 {
            return Vec::new();
        }
        // Seed with the best constraint-satisfying pair.
        let mut best_pair: Option<(usize, usize, f64)> = None;
        for (i, &a) in candidates.iter().enumerate() {
            for &b in candidates.iter().skip(i + 1) {
                if !problem.constraints_satisfied(ctx, &[a, b]) {
                    continue;
                }
                let score = problem.pairwise_objective(ctx, a, b);
                if best_pair.is_none_or(|(_, _, s)| score > s) {
                    best_pair = Some((a, b, score));
                }
            }
        }
        let Some((a, b, _)) = best_pair else {
            return Vec::new();
        };
        let mut selected = vec![a, b];
        while selected.len() < limit {
            let mut best: Option<(usize, f64)> = None;
            for &candidate in candidates {
                if selected.contains(&candidate) {
                    continue;
                }
                let mut trial = selected.clone();
                trial.push(candidate);
                if !problem.constraints_satisfied(ctx, &trial) {
                    continue;
                }
                let gain: f64 = selected
                    .iter()
                    .map(|&s| problem.pairwise_objective(ctx, candidate, s))
                    .sum();
                if best.is_none_or(|(_, g)| gain > g) {
                    best = Some((candidate, gain));
                }
            }
            match best {
                Some((candidate, _)) => selected.push(candidate),
                None => break,
            }
        }
        selected.sort_unstable();
        selected
    }

    /// The candidate sets a bucket yields, built with the per-size greedies above: the
    /// bucket itself when it fits, its greedy selections of every size it does not
    /// already cover, the constraint-aware selection and the support-oriented one.
    fn reference_candidates(
        solver: &SmLshSolver,
        ctx: &MiningContext,
        problem: &TagDmProblem,
        bucket: &[usize],
    ) -> Vec<Vec<usize>> {
        let (strict, k) = (solver.strict_bucket_semantics, problem.max_groups);
        if bucket.len() < problem.min_groups || (strict && bucket.len() > k) {
            return Vec::new();
        }
        let mut candidates = Vec::new();
        if bucket.len() <= k {
            candidates.push(bucket.to_vec());
        }
        if !strict {
            for size in (problem.min_groups..=k.min(bucket.len())).rev() {
                if size < bucket.len() {
                    candidates.push(match size {
                        1 => vec![bucket[0]],
                        _ => greedy_select_by_objective(ctx, problem, bucket, size),
                    });
                }
            }
            if solver.mode != ConstraintMode::Ignore && !problem.constraints.is_empty() {
                candidates.push(greedy_select_feasible(ctx, problem, bucket, k));
            }
            if solver.mode != ConstraintMode::Ignore && problem.min_support > 1 {
                let mut by_size = bucket.to_vec();
                by_size.sort_by_key(|&g| std::cmp::Reverse(ctx.group(g).len()));
                by_size.truncate(k);
                by_size.sort_unstable();
                candidates.push(by_size);
            }
        }
        candidates.retain(|c| !c.is_empty());
        candidates
    }

    /// The reference oracle for a whole solve: no kept index, no ranking, no walks. Each
    /// round hashes its own index at the round's `d′` and draws every bucket's candidates
    /// from the per-size greedies; the first strictly best acceptable candidate wins.
    fn reference(
        solver: &SmLshSolver,
        ctx: &MiningContext,
        problem: &TagDmProblem,
    ) -> SolverOutcome {
        let (fold_users, fold_items) = solver.fold_dimensions(problem);
        let vectors: Vec<_> = (0..ctx.num_groups())
            .map(|i| ctx.folded_vector(i, fold_users, fold_items))
            .collect();
        let mut evaluated = 0u64;
        let mut bits = solver.initial_bits.max(1);
        loop {
            let config = LshConfig {
                dims: ctx.folded_dims(fold_users, fold_items).max(1),
                num_bits: bits,
                num_tables: solver.num_tables.max(1),
                seed: solver.seed,
            };
            let index = LshIndex::build(config, vectors.iter().map(|v| v.as_slice()));
            let mut best: Option<(Vec<usize>, f64)> = None;
            for bucket in index.all_buckets() {
                for candidate in reference_candidates(solver, ctx, problem, bucket) {
                    evaluated += 1;
                    let acceptable = match solver.mode {
                        ConstraintMode::Ignore => problem.size_ok(candidate.len()),
                        _ => problem.feasible(ctx, &candidate),
                    };
                    let objective = problem.objective(ctx, &candidate);
                    if acceptable && best.as_ref().is_none_or(|(_, b)| objective > *b) {
                        best = Some((candidate, objective));
                    }
                }
            }
            if let Some((groups, objective)) = best {
                return SolverOutcome {
                    solver: solver.name(),
                    feasible: problem.feasible(ctx, &groups),
                    groups,
                    objective,
                    elapsed: std::time::Duration::ZERO,
                    candidates_evaluated: evaluated,
                };
            }
            if bits == 1 {
                return SolverOutcome {
                    candidates_evaluated: evaluated,
                    ..SolverOutcome::null(solver.name())
                };
            }
            bits /= 2;
        }
    }

    /// Solve on `ctx` and require the oracle's outcome, bit for bit.
    fn assert_matches_reference(solver: &SmLshSolver, ctx: &MiningContext, problem: &TagDmProblem) {
        let got = solver.solve(ctx, problem);
        let want = reference(solver, ctx, problem);
        assert_eq!(
            answer(&got),
            answer(&want),
            "{} {solver:?}: {}",
            solver.name(),
            problem.describe()
        );
    }

    /// The free and the bound walk of `problem` over the group list `bucket`, seeded
    /// from `ranked` when given, each as its groups in the order they joined.
    fn walk_bucket(
        ctx: &MiningContext,
        problem: &TagDmProblem,
        bucket: &[usize],
        ranked: Option<RankedBucket>,
        free_limit: usize,
        bound_limit: usize,
    ) -> (Vec<usize>, Vec<usize>) {
        let mut scores = BucketScores::new(ctx, problem);
        scores.reset(bucket, ranked);
        let mut walks = BucketWalks::new(ctx, problem);
        walks.run(&scores, ranked.map(|r| r.pairs), free_limit, bound_limit);
        let groups = |walk: &Walk| walk.groups.iter().map(|&p| bucket[p]).collect();
        (groups(&walks.free), groups(&walks.bound))
    }

    #[test]
    fn bucket_walks_return_bounded_distinct_sets() {
        let ctx = small_context();
        let problem = problem_1(ProblemParams {
            k: 3,
            min_support: 1,
            user_threshold: 0.0,
            item_threshold: 0.0,
        });
        let candidates: Vec<usize> = (0..ctx.num_groups()).collect();
        let (free, bound) = walk_bucket(&ctx, &problem, &candidates, None, 3, 3);
        for walk in [free, bound] {
            let mut picked = walk.clone();
            picked.sort_unstable();
            picked.dedup();
            assert_eq!(picked.len(), 3.min(ctx.num_groups()));
        }
        // A walk whose limit exceeds the candidate list takes every candidate; a zero
        // limit skips the walk.
        let (free, bound) = walk_bucket(&ctx, &problem, &[1, 2], None, 3, 0);
        assert_eq!(free, vec![1, 2]);
        assert!(bound.is_empty());
        for limit in [0, 1] {
            let (free, bound) = walk_bucket(&ctx, &problem, &candidates, None, limit, limit);
            assert!(free.is_empty() && bound.is_empty());
        }
        // No pair satisfies an unreachable threshold: the constrained walk stays empty.
        let mut impossible = problem.clone();
        for c in &mut impossible.constraints {
            c.threshold = 2.0;
        }
        let (free, bound) = walk_bucket(&ctx, &impossible, &candidates, None, 3, 3);
        assert_eq!(free.len(), 3);
        assert!(bound.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // Sorted prefixes of the unconstrained walk equal the per-size greedy, and the
        // sorted constrained walk equals the constraint-aware greedy, on random
        // candidate lists drawn from random small corpora.
        #[test]
        fn prop_bucket_walks_match_the_per_size_greedies(
            seed in 0u64..1_000,
            actions in 40usize..400,
            grouping in 0usize..GROUPINGS.len() + 1,
            id in 1usize..7,
            picks in proptest::collection::vec(0usize..64, 0..12),
            limit in 0usize..7,
            threshold in 0.0f64..1.0,
        ) {
            // The last grouping index draws the hand-built corpus: its groups with
            // equal signatures tie, which exercises the walks' tie-breaking.
            let ctx = if grouping == GROUPINGS.len() {
                small_context()
            } else {
                random_context(seed, actions, grouping)
            };
            let n = ctx.num_groups();
            let mut candidates: Vec<usize> = Vec::new();
            for g in picks.iter().filter(|_| n > 0).map(|p| p % n) {
                if !candidates.contains(&g) {
                    candidates.push(g);
                }
            }
            // The constrained walk holds at most `k` groups; nothing else in the walks
            // reads `k`.
            let problem = problem(id, ProblemParams {
                k: limit.max(1),
                min_support: 1,
                user_threshold: threshold,
                item_threshold: 1.0 - threshold,
            });
            let (free, bound) = walk_bucket(&ctx, &problem, &candidates, None, limit, limit);
            // Seeding from the ranked pairs, and reading the objective scores the ranking
            // keeps, walks the same groups in the same order.
            let ranking =
                BucketRanking::new(std::iter::once(&candidates[..]), &ctx, &problem);
            let ranked = walk_bucket(&ctx, &problem, &candidates, ranking.bucket(0), limit, limit);
            prop_assert_eq!(&ranked.0, &free);
            prop_assert_eq!(&ranked.1, &bound);

            let walk = &free;
            let expected_len = if limit < 2 || candidates.len() < 2 {
                0
            } else {
                limit.min(candidates.len())
            };
            prop_assert_eq!(walk.len(), expected_len);
            // The old greedy returns a list no longer than its limit unchanged, so it
            // is the oracle only for sizes below the list length.
            for size in (2..=walk.len()).filter(|&size| size < candidates.len()) {
                let mut prefix = walk[..size].to_vec();
                prefix.sort_unstable();
                prop_assert_eq!(
                    prefix,
                    greedy_select_by_objective(&ctx, &problem, &candidates, size)
                );
            }

            let mut constrained = bound;
            constrained.sort_unstable();
            prop_assert_eq!(
                constrained,
                greedy_select_feasible(&ctx, &problem, &candidates, limit)
            );
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
    fn lsh_index_keeps_the_first_configuration_of_each_fold_variant() {
        let ctx = small_context();
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
                let (got, ranking) = lsh_index(&ctx, fold_users, fold_items, config, problem);
                assert_eq!(matches!(got, Cow::Borrowed(_)), kept);
                assert_eq!(ranking.is_some(), ranked);
                assert_eq!(*got.config(), config);
                assert_eq!(buckets(&got), buckets(index));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The support-oriented candidate keeps what a stable sort of the bucket by
        // decreasing group size, cut to `k` and sorted, keeps: on ties, the earlier
        // positions.
        #[test]
        fn prop_largest_positions_match_the_stable_sort(
            sizes in proptest::collection::vec(0usize..4, 0..12),
            k in 0usize..6,
        ) {
            let mut candidates = Candidates::default();
            candidates.push_sorted([5, 3]);
            candidates.push_largest(k, sizes.len(), |p| sizes[p]);
            let mut by_size: Vec<usize> = (0..sizes.len()).collect();
            by_size.sort_by_key(|&p| std::cmp::Reverse(sizes[p]));
            by_size.truncate(k);
            by_size.sort_unstable();
            prop_assert_eq!(candidates.len(), 2);
            prop_assert_eq!(candidates.get(0), &[3, 5][..]);
            prop_assert_eq!(candidates.get(1), &by_size[..]);
        }
    }

    fn loose_params() -> ProblemParams {
        ProblemParams {
            k: 3,
            min_support: 2,
            user_threshold: 0.2,
            item_threshold: 0.2,
        }
    }

    #[test]
    fn names_follow_the_paper() {
        assert_eq!(SmLshSolver::new(ConstraintMode::Ignore).name(), "SM-LSH");
        assert_eq!(SmLshSolver::new(ConstraintMode::Filter).name(), "SM-LSH-Fi");
        assert_eq!(SmLshSolver::new(ConstraintMode::Fold).name(), "SM-LSH-Fo");
    }

    #[test]
    fn lsh_finds_a_similarity_maximizing_set() {
        let ctx = small_context();
        let problem = problem_1(loose_params());
        for mode in [ConstraintMode::Filter, ConstraintMode::Fold] {
            let outcome = SmLshSolver::new(mode).with_bits(6).solve(&ctx, &problem);
            assert!(!outcome.is_null(), "{mode:?} should find a result");
            assert!(
                outcome.feasible,
                "{mode:?} result should satisfy constraints"
            );
            assert!(outcome.groups.len() <= 3);
            assert!(outcome.objective > 0.0);
        }
    }

    #[test]
    fn lsh_quality_is_close_to_exact() {
        let ctx = small_context();
        for problem in [
            problem_1(loose_params()),
            problem_2(loose_params()),
            problem_3(loose_params()),
        ] {
            let exact = ExactSolver::new().solve(&ctx, &problem);
            // Several short hash tables: on this tiny corpus a single long signature
            // separates near-identical groups too aggressively (the paper's d' = 10 is
            // tuned for thousands of groups).
            let lsh = SmLshSolver::new(ConstraintMode::Fold)
                .with_bits(4)
                .with_tables(4)
                .solve(&ctx, &problem);
            assert!(!exact.is_null());
            assert!(!lsh.is_null(), "{}", problem.name);
            // LSH is approximate: allow a modest quality gap but never a better-than-
            // optimal result.
            assert!(lsh.objective <= exact.objective + 1e-9, "{}", problem.name);
            assert!(
                lsh.objective >= 0.5 * exact.objective,
                "{}: lsh {} vs exact {}",
                problem.name,
                lsh.objective,
                exact.objective
            );
        }
    }

    #[test]
    fn relaxation_recovers_from_too_many_bits() {
        let ctx = small_context();
        let problem = problem_1(loose_params());
        // With an absurdly large d′ every group initially lands in its own bucket; the
        // binary-search relaxation must still find a result.
        let outcome = SmLshSolver::new(ConstraintMode::Filter)
            .with_bits(48)
            .strict()
            .solve(&ctx, &problem);
        assert!(
            !outcome.is_null(),
            "relaxation should eventually produce buckets"
        );
    }

    #[test]
    fn unsatisfiable_constraints_produce_null_results() {
        let ctx = small_context();
        let mut problem = problem_1(loose_params());
        problem.min_support = 1_000_000;
        let outcome = SmLshSolver::new(ConstraintMode::Filter).solve(&ctx, &problem);
        assert!(outcome.is_null());
        assert!(!outcome.feasible);
    }

    #[test]
    fn ignore_mode_skips_constraint_checks() {
        let ctx = small_context();
        let mut problem = problem_1(loose_params());
        problem.min_support = 1_000_000; // impossible, but Ignore mode does not care
        let outcome = SmLshSolver::new(ConstraintMode::Ignore)
            .with_bits(4)
            .solve(&ctx, &problem);
        assert!(!outcome.is_null());
        assert!(
            !outcome.feasible,
            "result exists but does not meet the support bar"
        );
    }

    #[test]
    fn folding_uses_a_larger_hash_space() {
        let ctx = small_context();
        let problem = problem_1(loose_params());
        let solver = SmLshSolver::new(ConstraintMode::Fold);
        let (fold_users, fold_items) = solver.fold_dimensions(&problem);
        assert!(
            fold_users && fold_items,
            "Problem 1 constrains both dimensions to similarity"
        );
        assert!(ctx.folded_dims(fold_users, fold_items) > ctx.signature_dims());

        // Problem 3 has a *diversity* user constraint: only items are folded.
        let p3 = problem_3(loose_params());
        let (fu, fi) = solver.fold_dimensions(&p3);
        assert!(!fu && fi);

        // Filtering never folds.
        let fi_solver = SmLshSolver::new(ConstraintMode::Filter);
        assert_eq!(fi_solver.fold_dimensions(&problem), (false, false));
    }

    #[test]
    fn cancellation_preserves_results_until_fired() {
        let ctx = small_context();
        let problem = problem_1(loose_params());
        let solver = SmLshSolver::new(ConstraintMode::Fold).with_bits(4);
        let direct = solver.solve(&ctx, &problem);
        let token = crate::solvers::CancelToken::new();
        let cancellable = solver.solve_cancellable(&ctx, &problem, &token);
        assert_eq!(direct.groups, cancellable.groups);
        assert_eq!(direct.objective, cancellable.objective);

        // A token fired before the solve starts suppresses every bucket evaluation.
        token.cancel();
        let truncated = solver.solve_cancellable(&ctx, &problem, &token);
        assert_eq!(truncated.candidates_evaluated, 0);
        assert!(truncated.is_null());
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let ctx = small_context();
        let problem = problem_1(loose_params());
        let a = SmLshSolver::new(ConstraintMode::Fold)
            .with_seed(9)
            .solve(&ctx, &problem);
        let b = SmLshSolver::new(ConstraintMode::Fold)
            .with_seed(9)
            .solve(&ctx, &problem);
        assert_eq!(a.groups, b.groups);
        assert_eq!(a.objective, b.objective);
    }

    /// What a solve answers: groups, objective bits, feasibility and work done.
    fn answer(outcome: &SolverOutcome) -> (Vec<usize>, u64, bool, u64) {
        (
            outcome.groups.clone(),
            outcome.objective.to_bits(),
            outcome.feasible,
            outcome.candidates_evaluated,
        )
    }

    /// One run per fold variant: Filter hashes bare signatures, and Fold on P1, P2 and
    /// P3 folds users and items, users only and items only.
    fn fold_variants() -> Vec<(TagDmProblem, ConstraintMode)> {
        vec![
            (problem_1(loose_params()), Filter),
            (problem_1(loose_params()), Fold),
            (problem_2(loose_params()), Fold),
            (problem_3(loose_params()), Fold),
        ]
    }

    #[test]
    fn kept_indexes_answer_like_a_fresh_context() {
        let variants = fold_variants();
        let folds: HashSet<(bool, bool)> = variants
            .iter()
            .map(|(problem, mode)| SmLshSolver::new(*mode).fold_dimensions(problem))
            .collect();
        assert_eq!(folds.len(), 4, "one run per fold variant");

        // The default configuration fills every slot of the shared context; the other
        // configurations differ from it in seed, d′ or l and miss their slot.
        let shared = small_context();
        for (problem, mode) in &variants {
            SmLshSolver::new(*mode).solve(&shared, problem);
        }
        let configs: [fn(SmLshSolver) -> SmLshSolver; 4] = [
            |s| s,
            |s| s.with_seed(9),
            |s| s.with_bits(6),
            |s| s.with_tables(3),
        ];
        for (problem, mode) in &variants {
            for configure in configs {
                let solver = configure(SmLshSolver::new(*mode));
                let fresh = solver.solve(&small_context(), problem);
                let kept = solver.solve(&shared, problem);
                assert_eq!(answer(&kept), answer(&fresh), "{} {solver:?}", problem.name);
            }
        }
    }

    /// `problem` with a user-similarity objective beside its own: another pairwise
    /// objective over the same fold variant.
    fn with_second_objective(problem: TagDmProblem) -> TagDmProblem {
        with_user_objective(problem, Aggregator::Mean)
    }

    /// `problem` with a half-weight user-similarity objective aggregated by
    /// `aggregator` after its own.
    fn with_user_objective(problem: TagDmProblem, aggregator: Aggregator) -> TagDmProblem {
        problem.with_objective(ObjectiveSpec {
            function: DualMiningFunction::standard(
                TaggingDimension::Users,
                MiningCriterion::Similarity,
            )
            .with_aggregator(aggregator),
            weight: 0.5,
        })
    }

    /// Whether the context keeps a ranking of `solver`'s full index for `problem`.
    fn ranked(ctx: &MiningContext, solver: &SmLshSolver, problem: &TagDmProblem) -> bool {
        solver.full_index(ctx, problem).1.is_some()
    }

    #[test]
    fn a_second_objective_on_a_filled_slot_answers_like_a_fresh_context() {
        let shared = small_context();
        for (problem, mode) in fold_variants() {
            let solver = SmLshSolver::new(mode);
            solver.solve(&shared, &problem);
            assert!(ranked(&shared, &solver, &problem), "{}", problem.name);
            // The slot is ranked under the first objective: the second one seeds its
            // walks by scoring each bucket's pairs, a fresh context from its ranking.
            let other = with_second_objective(problem);
            assert!(!ranked(&shared, &solver, &other), "{}", other.name);
            let fresh = small_context();
            assert_eq!(
                answer(&solver.solve(&shared, &other)),
                answer(&solver.solve(&fresh, &other)),
                "{mode:?} {}",
                other.name
            );
            assert!(ranked(&fresh, &solver, &other), "{}", other.name);
            assert_matches_reference(&solver, &shared, &other);
        }
    }

    #[test]
    fn relaxed_rounds_answer_like_a_fresh_context() {
        // Each problem also runs with a second objective under `Sum` beside its own
        // under `Mean`, so unranked buckets score two functions.
        for second in [false, true] {
            let shared = small_context();
            for (problem, mode) in fold_variants() {
                let problem = match second {
                    true => with_user_objective(problem, Aggregator::Sum),
                    false => problem,
                };
                // The default configuration fills and ranks the fold variant's slot;
                // d′ = 4 then misses it and hashes afresh, with no ranking at all.
                for (solver, ranks) in [
                    (SmLshSolver::new(mode), true),
                    (SmLshSolver::new(mode).with_bits(4), false),
                ] {
                    solver.solve(&shared, &problem);
                    let (full, ranking) = solver.full_index(&shared, &problem);
                    assert_eq!(ranking.is_some(), ranks, "{solver:?} {}", problem.name);
                    // Sets one group larger than the full index's largest bucket: every
                    // answer comes from a relaxed round, whose buckets the kept ranking
                    // does not cover.
                    let size = full.all_buckets().map(<[usize]>::len).max().unwrap() + 1;
                    let mut relaxed = problem.clone().with_min_groups(size);
                    relaxed.max_groups = size;
                    let kept = solver.solve(&shared, &relaxed);
                    assert_eq!(kept.groups.len(), size, "{solver:?} {}", relaxed.name);
                    assert_eq!(
                        answer(&kept),
                        answer(&solver.solve(&small_context(), &relaxed))
                    );
                    assert_matches_reference(&solver, &shared, &relaxed);
                }
            }
        }
    }

    #[test]
    fn tied_bucket_pairs_answer_like_the_reference() {
        // The hand-built corpus's groups with equal signatures tie on the objective:
        // a ranking keeps tied pairs in bucket order, as the first strict maximum does.
        let shared = small_context();
        let mut ties = 0;
        for (problem, mode) in fold_variants() {
            for bits in [2, 3, 4, 6] {
                for tables in [1, 2] {
                    let solver = SmLshSolver::new(mode).with_bits(bits).with_tables(tables);
                    let fresh = small_context();
                    assert_matches_reference(&solver, &fresh, &problem);
                    assert_eq!(
                        answer(&solver.solve(&shared, &problem)),
                        answer(&solver.solve(&fresh, &problem))
                    );
                    let (full, ranking) = solver.full_index(&fresh, &problem);
                    let ranking = ranking.expect("the fresh context's first solve ranks");
                    for (b, bucket) in full.all_buckets().enumerate() {
                        let score = |[i, j]: [u32; 2]| {
                            let (a, b) = (bucket[i as usize], bucket[j as usize]);
                            problem.pairwise_objective(&fresh, a, b)
                        };
                        let pairs = ranking.bucket(b).map_or(&[][..], |r| r.pairs);
                        if pairs.len() > 1 && score(pairs[0]) == score(pairs[1]) {
                            ties += 1;
                        }
                    }
                }
            }
        }
        assert!(ties > 0, "no bucket ties at its top pair");
    }

    #[test]
    fn buckets_over_the_ranking_cap_answer_like_the_reference() {
        // At d′ = 2 the medium context's buckets hold thousands of pairs each: the
        // ranking keeps each bucket whose pairs and scores still fit under
        // MAX_RANKED_WORDS, not all.
        let ctx = medium_context();
        let params = ProblemParams::paper_defaults(ctx.num_input_actions());
        let solver = SmLshSolver::new(Fold).with_bits(2);
        let kept = |ctx: &MiningContext, problem: &TagDmProblem| -> Vec<bool> {
            let (full, ranking) = solver.full_index(ctx, problem);
            let ranking = ranking.expect("the first solve of a variant ranks");
            full.all_buckets()
                .enumerate()
                .filter(|(_, bucket)| bucket.len() >= 2)
                .map(|(b, _)| ranking.bucket(b).is_some())
                .collect()
        };
        for problem in [problem_1(params), problem_2(params), problem_3(params)] {
            assert_matches_reference(&solver, &ctx, &problem);
            let kept = kept(&ctx, &problem);
            assert!(
                kept.contains(&true) && kept.contains(&false),
                "{}: {kept:?}",
                problem.name
            );
        }
        // Seventeen objectives take eighteen words a pair: no bucket of P1's or P3's
        // fold variant at d′ = 2 fits, so the solve keeps no scores at all.
        let aggregators = [
            Aggregator::Mean,
            Aggregator::Sum,
            Aggregator::Min,
            Aggregator::Max,
        ];
        for problem in [problem_1(params), problem_3(params)] {
            let many = (0..16).fold(problem, |problem, i| {
                problem.with_objective(ObjectiveSpec {
                    function: DualMiningFunction::standard(
                        [TaggingDimension::Users, TaggingDimension::Items][i % 2],
                        MiningCriterion::Similarity,
                    )
                    .with_aggregator(aggregators[i % 4]),
                    weight: 0.125,
                })
            });
            let ctx = medium_context();
            assert_matches_reference(&solver, &ctx, &many);
            assert!(!kept(&ctx, &many).contains(&true), "{}", many.name);
        }
    }

    #[test]
    fn benchmark_shaped_requests_match_the_reference() {
        // mine-heuristic's SM-LSH-Fo requests: P1–P3 at the paper's defaults, support
        // offset by −20..+10, on one context that keeps what the first solves rank.
        // After them run the same requests at d′ = 4, which miss the kept index and
        // score every pair where it is read, and then the requests with a second objective under `Sum`,
        // on a context of their own.
        let (shared, other) = (medium_context(), medium_context());
        let base = ProblemParams::paper_defaults(shared.num_input_actions());
        let runs = [
            (SmLshSolver::new(Fold), None, &shared, true),
            (SmLshSolver::new(Fold).with_bits(4), None, &shared, false),
            (SmLshSolver::new(Fold), Some(Aggregator::Sum), &other, true),
        ];
        for (solver, second, ctx, ranks) in runs {
            for offset in -20isize..=10 {
                for id in 1..=3 {
                    let params = ProblemParams {
                        min_support: base.min_support.saturating_add_signed(offset),
                        ..base
                    };
                    let mut problem = problem(id, params);
                    if let Some(aggregator) = second {
                        problem = with_user_objective(problem, aggregator);
                    }
                    assert_matches_reference(&solver, ctx, &problem);
                    assert_eq!(ranked(ctx, &solver, &problem), ranks, "{}", problem.name);
                }
            }
        }
    }

    #[test]
    fn threads_sharing_a_context_get_the_serial_answers() {
        // Each problem also runs with a second objective, which shares its fold variant:
        // the threads race to rank a slot's pairs under either objective.
        let runs: Vec<(TagDmProblem, ConstraintMode)> = [problem_1, problem_2, problem_3]
            .into_iter()
            .flat_map(|p| [p(loose_params()), with_second_objective(p(loose_params()))])
            .flat_map(|p| [(p.clone(), Filter), (p, Fold)])
            .collect();
        let serial: Vec<_> = runs
            .iter()
            .map(|(problem, mode)| {
                let solver = SmLshSolver::new(*mode);
                assert_matches_reference(&solver, &small_context(), problem);
                answer(&solver.solve(&small_context(), problem))
            })
            .collect();

        let shared = Arc::new(small_context());
        let runs = Arc::new(runs);
        let start = Arc::new(Barrier::new(4));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let (ctx, runs, start) =
                    (Arc::clone(&shared), Arc::clone(&runs), Arc::clone(&start));
                thread::spawn(move || {
                    start.wait();
                    // Each thread starts at another run, so the threads race to fill
                    // different slots.
                    (0..runs.len())
                        .map(|i| (i + t) % runs.len())
                        .map(|r| {
                            let (problem, mode) = &runs[r];
                            (r, answer(&SmLshSolver::new(*mode).solve(&ctx, problem)))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in threads {
            for (r, got) in handle.join().expect("solver thread panicked") {
                assert_eq!(got, serial[r], "run {r}");
            }
        }
    }

    #[test]
    fn zero_bits_or_tables_solve_like_one() {
        let ctx = small_context();
        for (problem, mode) in fold_variants() {
            let base = SmLshSolver::new(mode);
            let zero_bits = SmLshSolver {
                initial_bits: 0,
                ..base.clone()
            };
            let zero_tables = SmLshSolver {
                num_tables: 0,
                ..base.clone()
            };
            assert_eq!(
                answer(&zero_bits.solve(&ctx, &problem)),
                answer(&base.clone().with_bits(1).solve(&ctx, &problem)),
                "{mode:?} {}",
                problem.name
            );
            assert_eq!(
                answer(&zero_tables.solve(&ctx, &problem)),
                answer(&base.with_tables(1).solve(&ctx, &problem)),
                "{mode:?} {}",
                problem.name
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // SM-LSH-Fi and -Fo report their answer's own objective and feasibility, and a
        // non-null answer never beats Exact on the similarity problems P1–P3.
        #[test]
        fn prop_answers_report_the_truth_and_stay_within_exact(
            seed in 0u64..1_000,
            actions in 40usize..400,
            grouping in 0usize..GROUPINGS.len(),
            id in 1usize..4,
            fold in any::<bool>(),
            k in 1usize..4,
            min_support in 1usize..80,
            threshold in 0.0f64..1.0,
        ) {
            let ctx = random_context(seed, actions, grouping);
            let problem = problem(id, ProblemParams {
                k,
                min_support,
                user_threshold: threshold,
                item_threshold: 1.0 - threshold,
            });
            let mode = if fold { Fold } else { Filter };
            let lsh = SmLshSolver::new(mode).solve(&ctx, &problem);
            prop_assert_eq!(
                lsh.objective.to_bits(),
                problem.objective(&ctx, &lsh.groups).to_bits()
            );
            prop_assert_eq!(lsh.feasible, problem.feasible(&ctx, &lsh.groups));
            if !lsh.is_null() {
                let exact = ExactSolver::new().solve(&ctx, &problem);
                prop_assert!(
                    lsh.objective <= exact.objective,
                    "SM-LSH {} vs Exact {}",
                    lsh.objective,
                    exact.objective
                );
            }
        }
    }

    type GoldenRow = (
        u8,
        ConstraintMode,
        usize,
        bool,
        usize,
        &'static [usize],
        u64,
        bool,
        u64,
    );

    /// `(problem, mode, with_bits, strict, with_tables)` → `(groups, objective bits,
    /// feasible, candidates_evaluated)` on `small_context()` with `loose_params()`,
    /// recorded from the earlier solver that rebuilt the index with fresh hyperplanes in
    /// every relaxation round. The strict 48- and 80-bit rows relax several times.
    #[rustfmt::skip]
    const GOLDEN: &[GoldenRow] = &[
        (1, Filter, 4, true, 1, &[0, 3], 0x3feffffffffffffe, true, 3),
        (1, Filter, 4, true, 4, &[0, 3], 0x3feffffffffffffe, true, 11),
        (1, Filter, 4, false, 1, &[1, 4], 0x3feffffffffffffe, true, 17),
        (1, Filter, 4, false, 4, &[1, 4], 0x3feffffffffffffe, true, 69),
        (1, Filter, 10, true, 1, &[0, 3], 0x3feffffffffffffe, true, 4),
        (1, Filter, 10, true, 4, &[0, 3], 0x3feffffffffffffe, true, 16),
        (1, Filter, 10, false, 1, &[0, 3], 0x3feffffffffffffe, true, 21),
        (1, Filter, 10, false, 4, &[0, 3], 0x3feffffffffffffe, true, 84),
        (1, Filter, 48, true, 1, &[6, 9], 0x3feffffffffffffe, true, 4),
        (1, Filter, 48, true, 4, &[6, 9], 0x3feffffffffffffe, true, 16),
        (1, Filter, 48, false, 1, &[6, 9], 0x3feffffffffffffe, true, 21),
        (1, Filter, 48, false, 4, &[6, 9], 0x3feffffffffffffe, true, 84),
        (1, Filter, 80, true, 1, &[6, 9], 0x3feffffffffffffe, true, 4),
        (1, Filter, 80, true, 4, &[6, 9], 0x3feffffffffffffe, true, 16),
        (1, Filter, 80, false, 1, &[6, 9], 0x3feffffffffffffe, true, 21),
        (1, Filter, 80, false, 4, &[6, 9], 0x3feffffffffffffe, true, 84),
        (1, Fold, 4, true, 1, &[0, 1, 3], 0x3fd5555555555554, true, 4),
        (1, Fold, 4, true, 4, &[7, 10], 0x3feffffffffffffe, true, 16),
        (1, Fold, 4, false, 1, &[0, 3], 0x3feffffffffffffe, true, 18),
        (1, Fold, 4, false, 4, &[0, 3], 0x3feffffffffffffe, true, 71),
        (1, Fold, 10, true, 1, &[0, 3], 0x3feffffffffffffe, true, 18),
        (1, Fold, 10, true, 4, &[0, 3], 0x3feffffffffffffe, true, 70),
        (1, Fold, 10, false, 1, &[0, 3], 0x3feffffffffffffe, true, 44),
        (1, Fold, 10, false, 4, &[0, 3], 0x3feffffffffffffe, true, 171),
        (1, Fold, 48, true, 1, &[0, 3], 0x3feffffffffffffe, true, 44),
        (1, Fold, 48, true, 4, &[0, 3], 0x3feffffffffffffe, true, 175),
        (1, Fold, 48, false, 1, &[0, 3], 0x3feffffffffffffe, true, 94),
        (1, Fold, 48, false, 4, &[0, 3], 0x3feffffffffffffe, true, 374),
        (1, Fold, 80, true, 1, &[0, 3], 0x3feffffffffffffe, true, 54),
        (1, Fold, 80, true, 4, &[0, 3], 0x3feffffffffffffe, true, 214),
        (1, Fold, 80, false, 1, &[0, 3], 0x3feffffffffffffe, true, 116),
        (1, Fold, 80, false, 4, &[0, 3], 0x3feffffffffffffe, true, 459),
        (2, Filter, 4, true, 1, &[], 0x0000000000000000, false, 6),
        (2, Filter, 4, true, 4, &[], 0x0000000000000000, false, 20),
        (2, Filter, 4, false, 1, &[1, 2, 4], 0x3fd5555555555554, true, 14),
        (2, Filter, 4, false, 4, &[1, 2, 4], 0x3fd5555555555554, true, 56),
        (2, Filter, 10, true, 1, &[], 0x0000000000000000, false, 10),
        (2, Filter, 10, true, 4, &[], 0x0000000000000000, false, 37),
        (2, Filter, 10, false, 1, &[1, 2, 4], 0x3fd5555555555554, true, 30),
        (2, Filter, 10, false, 4, &[1, 2, 4], 0x3fd5555555555554, true, 122),
        (2, Filter, 48, true, 1, &[], 0x0000000000000000, false, 19),
        (2, Filter, 48, true, 4, &[], 0x0000000000000000, false, 70),
        (2, Filter, 48, false, 1, &[1, 2, 4], 0x3fd5555555555554, true, 78),
        (2, Filter, 48, false, 4, &[1, 4, 8], 0x3fd5555555555554, true, 252),
        (2, Filter, 80, true, 1, &[], 0x0000000000000000, false, 22),
        (2, Filter, 80, true, 4, &[], 0x0000000000000000, false, 85),
        (2, Filter, 80, false, 1, &[1, 2, 4], 0x3fd5555555555554, true, 78),
        (2, Filter, 80, false, 4, &[1, 2, 4], 0x3fd5555555555554, true, 314),
        (2, Fold, 4, true, 1, &[3, 4], 0x0000000000000000, true, 5),
        (2, Fold, 4, true, 4, &[3, 4], 0x0000000000000000, true, 20),
        (2, Fold, 4, false, 1, &[1, 2, 7], 0x3fd5555555555554, true, 19),
        (2, Fold, 4, false, 4, &[1, 2, 7], 0x3fd5555555555554, true, 80),
        (2, Fold, 10, true, 1, &[1, 2], 0x0000000000000000, true, 11),
        (2, Fold, 10, true, 4, &[1, 2], 0x0000000000000000, true, 45),
        (2, Fold, 10, false, 1, &[1, 2], 0x0000000000000000, true, 24),
        (2, Fold, 10, false, 4, &[1, 2], 0x0000000000000000, true, 96),
        (2, Fold, 48, true, 1, &[1, 2], 0x0000000000000000, true, 35),
        (2, Fold, 48, true, 4, &[1, 2], 0x0000000000000000, true, 141),
        (2, Fold, 48, false, 1, &[1, 2], 0x0000000000000000, true, 72),
        (2, Fold, 48, false, 4, &[1, 2], 0x0000000000000000, true, 288),
        (2, Fold, 80, true, 1, &[1, 2], 0x0000000000000000, true, 35),
        (2, Fold, 80, true, 4, &[1, 2], 0x0000000000000000, true, 143),
        (2, Fold, 80, false, 1, &[1, 2], 0x0000000000000000, true, 72),
        (2, Fold, 80, false, 4, &[1, 2], 0x0000000000000000, true, 288),
        (3, Filter, 4, true, 1, &[0, 3], 0x3feffffffffffffe, true, 3),
        (3, Filter, 4, true, 4, &[0, 3], 0x3feffffffffffffe, true, 11),
        (3, Filter, 4, false, 1, &[1, 4], 0x3feffffffffffffe, true, 17),
        (3, Filter, 4, false, 4, &[1, 4], 0x3feffffffffffffe, true, 69),
        (3, Filter, 10, true, 1, &[0, 3], 0x3feffffffffffffe, true, 4),
        (3, Filter, 10, true, 4, &[0, 3], 0x3feffffffffffffe, true, 16),
        (3, Filter, 10, false, 1, &[0, 3], 0x3feffffffffffffe, true, 21),
        (3, Filter, 10, false, 4, &[0, 3], 0x3feffffffffffffe, true, 84),
        (3, Filter, 48, true, 1, &[6, 9], 0x3feffffffffffffe, true, 4),
        (3, Filter, 48, true, 4, &[6, 9], 0x3feffffffffffffe, true, 16),
        (3, Filter, 48, false, 1, &[6, 9], 0x3feffffffffffffe, true, 21),
        (3, Filter, 48, false, 4, &[6, 9], 0x3feffffffffffffe, true, 84),
        (3, Filter, 80, true, 1, &[6, 9], 0x3feffffffffffffe, true, 4),
        (3, Filter, 80, true, 4, &[6, 9], 0x3feffffffffffffe, true, 16),
        (3, Filter, 80, false, 1, &[6, 9], 0x3feffffffffffffe, true, 21),
        (3, Filter, 80, false, 4, &[6, 9], 0x3feffffffffffffe, true, 84),
        (3, Fold, 4, true, 1, &[6, 9], 0x3feffffffffffffe, true, 2),
        (3, Fold, 4, true, 4, &[6, 9], 0x3feffffffffffffe, true, 10),
        (3, Fold, 4, false, 1, &[6, 9], 0x3feffffffffffffe, true, 18),
        (3, Fold, 4, false, 4, &[6, 9], 0x3feffffffffffffe, true, 75),
        (3, Fold, 10, true, 1, &[2, 5], 0x3feffffffffffffe, true, 4),
        (3, Fold, 10, true, 4, &[2, 5], 0x3feffffffffffffe, true, 16),
        (3, Fold, 10, false, 1, &[2, 5], 0x3feffffffffffffe, true, 21),
        (3, Fold, 10, false, 4, &[2, 5], 0x3feffffffffffffe, true, 84),
        (3, Fold, 48, true, 1, &[2, 5], 0x3feffffffffffffe, true, 4),
        (3, Fold, 48, true, 4, &[2, 5], 0x3feffffffffffffe, true, 16),
        (3, Fold, 48, false, 1, &[2, 5], 0x3feffffffffffffe, true, 21),
        (3, Fold, 48, false, 4, &[2, 5], 0x3feffffffffffffe, true, 84),
        (3, Fold, 80, true, 1, &[2, 5], 0x3feffffffffffffe, true, 4),
        (3, Fold, 80, true, 4, &[2, 5], 0x3feffffffffffffe, true, 16),
        (3, Fold, 80, false, 1, &[2, 5], 0x3feffffffffffffe, true, 21),
        (3, Fold, 80, false, 4, &[2, 5], 0x3feffffffffffffe, true, 84),
    ];

    #[test]
    fn relaxing_by_signature_prefix_reproduces_the_rebuild_per_round_answers() {
        let ctx = small_context();
        for &(p, mode, bits, strict, tables, groups, objective, feasible, candidates) in GOLDEN {
            let problem = match p {
                1 => problem_1(loose_params()),
                2 => problem_2(loose_params()),
                _ => problem_3(loose_params()),
            };
            let mut solver = SmLshSolver::new(mode).with_bits(bits).with_tables(tables);
            if strict {
                solver = solver.strict();
            }
            let outcome = solver.solve(&ctx, &problem);
            let row = format!("P{p} {mode:?} bits={bits} strict={strict} tables={tables}");
            assert_eq!(outcome.groups, groups, "{row}");
            assert_eq!(outcome.objective.to_bits(), objective, "{row}");
            assert_eq!(outcome.feasible, feasible, "{row}");
            assert_eq!(outcome.candidates_evaluated, candidates, "{row}");
        }
    }
}
