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
//! variant and the LSH configuration, not on the query. The [`MiningContext`] keeps the
//! full-width index of each fold variant, so the first solve of a variant hashes (and
//! its `elapsed` includes the hashing) and later solves with the same `d′`, `l` and
//! seed only evaluate buckets. A solve with another configuration hashes its own index.
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
//! depend on the bucket and the objectives only, not on thresholds or support, so the
//! context keeps, beside each kept index, a [`BucketRanking`] of every bucket's pairs
//! under the objectives of the solve that hashed it. A later solve with the same
//! objectives reads the free seed as a bucket's first ranked pair and the bound seed as
//! its first ranked pair that passes the constraints. Any other solve, and every relaxed
//! round, seeds both walks in one pass over the bucket's pairs that scores each pair's
//! objective once. Both ways give the same seeds, ties included.

use std::borrow::Cow;
use std::time::Instant;

use tagdm_lsh::index::{LshConfig, LshIndex};

use crate::context::{BucketRanking, MiningContext};
use crate::criteria::TaggingDimension;
use crate::problem::TagDmProblem;
use crate::solvers::pairs::{pair_admits, PairTable, Walk};
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

    /// The context's full-width LSH index of `problem`'s fold variant under this
    /// solver's configuration, and the index's bucket ranking when the context keeps one
    /// for `problem`'s objectives.
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
        ctx.lsh_index(fold_users, fold_items, config, problem)
    }

    /// Evaluate every bucket of an index, returning the best candidate set and the
    /// number of candidate sets evaluated. `ranking`, when given, ranks the index's
    /// bucket pairs by the problem's pairwise objective.
    fn evaluate_buckets(
        &self,
        ctx: &MiningContext,
        problem: &TagDmProblem,
        index: &LshIndex,
        ranking: Option<&BucketRanking>,
        walks: &mut BucketWalks,
        cancel: &CancelToken,
    ) -> (Option<(Vec<usize>, f64)>, u64) {
        let mut best: Option<(Vec<usize>, f64)> = None;
        let mut evaluated = 0u64;
        for (b, bucket) in index.all_buckets().enumerate() {
            if cancel.is_cancelled() {
                break;
            }
            if bucket.len() < problem.min_groups {
                continue;
            }
            if self.strict_bucket_semantics && bucket.len() > problem.max_groups {
                // Algorithm 1 only accepts buckets whose size already fits 1 ≤ |G| ≤ k.
                continue;
            }
            // Candidate sets drawn from this bucket: the bucket itself when it fits, and
            // (in the refining mode) greedy sub-selections of every admissible size, so
            // that a feasible high-scoring pair inside an oversized or partly
            // constraint-violating bucket is not lost.
            let mut candidates: Vec<Vec<usize>> = Vec::new();
            if bucket.len() <= problem.max_groups {
                candidates.push(bucket.to_vec());
            }
            if !self.strict_bucket_semantics {
                let upper = problem.max_groups.min(bucket.len());
                // A constraint-aware walk rescues buckets whose objective-best subset
                // violates a hard constraint that some other subset satisfies.
                let constrained =
                    self.mode != ConstraintMode::Ignore && !problem.constraints.is_empty();
                walks.run(
                    bucket,
                    ranking.and_then(|r| r.bucket(b)),
                    upper.min(bucket.len().saturating_sub(1)),
                    if constrained { problem.max_groups } else { 0 },
                );
                // One walk serves every refined size `s ≥ 2`: the greedy to `s` groups
                // is the walk's first `s` steps.
                for size in (problem.min_groups..=upper).rev() {
                    if size == bucket.len() {
                        continue; // already covered by the full bucket
                    }
                    let mut refined = if size == 1 {
                        vec![bucket[0]]
                    } else {
                        walks.free.groups[..size].to_vec()
                    };
                    refined.sort_unstable();
                    candidates.push(refined);
                }
                if constrained {
                    let mut feasible = walks.bound.groups.clone();
                    feasible.sort_unstable();
                    candidates.push(feasible);
                }
                // A support-oriented selection (the bucket's largest groups) rescues
                // buckets whose objective-best subsets cover too few tuples to meet the
                // group-support threshold p.
                if self.mode != ConstraintMode::Ignore && problem.min_support > 1 {
                    let mut by_size = bucket.to_vec();
                    by_size.sort_by_key(|&g| std::cmp::Reverse(ctx.group(g).len()));
                    by_size.truncate(problem.max_groups);
                    by_size.sort_unstable();
                    candidates.push(by_size);
                }
            }

            for candidate in candidates {
                if candidate.is_empty() {
                    continue;
                }
                evaluated += 1;
                let acceptable = match self.mode {
                    ConstraintMode::Ignore => problem.size_ok(candidate.len()),
                    ConstraintMode::Filter | ConstraintMode::Fold => {
                        problem.feasible(ctx, &candidate)
                    }
                };
                if !acceptable {
                    continue;
                }
                let objective = problem.objective(ctx, &candidate);
                if best.as_ref().is_none_or(|(_, b)| objective > *b) {
                    best = Some((candidate, objective));
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
        // relaxed index re-buckets prefixes of the context's hashed signatures, whose
        // buckets the context's ranking does not cover.
        let mut evaluated_total = 0u64;
        let mut best: Option<(Vec<usize>, f64)> = None;
        let mut walks = BucketWalks::new(ctx, problem);
        let mut relaxed: LshIndex;
        let mut index: &LshIndex = &full;
        loop {
            let (found, evaluated) =
                self.evaluate_buckets(ctx, problem, index, ranking, &mut walks, cancel);
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
        match best {
            Some((groups, objective)) => SolverOutcome {
                solver: self.name(),
                feasible: problem.feasible(ctx, &groups),
                groups,
                objective,
                elapsed,
                candidates_evaluated: evaluated_total,
            },
            None => SolverOutcome {
                elapsed,
                candidates_evaluated: evaluated_total,
                ..SolverOutcome::null(self.name())
            },
        }
    }
}

/// The two refinement walks of a bucket: `free` greedily maximizes the pairwise
/// objective; `bound` does the same over sets that satisfy every constraint.
struct BucketWalks<'a> {
    ctx: &'a MiningContext,
    problem: &'a TagDmProblem,
    free: Walk<'a>,
    bound: Walk<'a>,
}

impl<'a> BucketWalks<'a> {
    /// Walks for `problem`; the constrained walk holds at most `problem.max_groups`
    /// groups.
    fn new(ctx: &'a MiningContext, problem: &'a TagDmProblem) -> Self {
        let k = problem.max_groups.min(ctx.num_groups());
        BucketWalks {
            ctx,
            problem,
            free: Walk::new(ctx, problem, None),
            bound: Walk::new(ctx, problem, Some(PairTable::constraints(problem, k))),
        }
    }

    /// Walk `bucket` to at most `free_limit` groups by pairwise objective, and to at
    /// most `bound_limit` groups over constraint-satisfying sets. A walk is left empty
    /// when its limit is below 2 or no pair of the bucket is admissible to it.
    ///
    /// The free walk starts from the bucket's first pair of largest score in `(a < b)`
    /// order, the bound walk from the first such pair that satisfies every constraint:
    /// the first ranked pair and the first admissible ranked pair when `ranked` ranks
    /// the bucket (see [`BucketRanking`]), else one pass over the bucket's pairs that
    /// scores each pair's objective once. Each walk then adds, per round, the bucket
    /// member with the largest total objective to its groups (see [`Walk::grow`]). A
    /// larger limit only runs more rounds, so the first `s ≥ 2` groups of a walk are the
    /// walk to `s`.
    fn run(
        &mut self,
        bucket: &[usize],
        ranked: Option<&[[u32; 2]]>,
        free_limit: usize,
        bound_limit: usize,
    ) {
        self.free.groups.clear();
        self.bound.groups.clear();
        if bucket.len() < 2 || free_limit.max(bound_limit) < 2 {
            return;
        }
        let (ctx, problem) = (self.ctx, self.problem);
        let admits = |&(a, b): &(usize, usize)| pair_admits(ctx, problem, a, b);
        let (free, bound) = match ranked {
            Some(ranked) => {
                let mut pairs = ranked.iter().map(|&[a, b]| (a as usize, b as usize));
                let free = pairs.clone().next();
                let bound = (bound_limit >= 2).then(|| pairs.find(admits)).flatten();
                (free, bound)
            }
            None => {
                let mut free: Option<(usize, usize, f64)> = None;
                let mut bound: Option<(usize, usize, f64)> = None;
                for (i, &a) in bucket.iter().enumerate() {
                    for &b in &bucket[i + 1..] {
                        let score = problem.pairwise_objective(ctx, a, b);
                        if free.is_none_or(|(_, _, s)| score > s) {
                            free = Some((a, b, score));
                        }
                        if bound_limit >= 2
                            && bound.is_none_or(|(_, _, s)| score > s)
                            && admits(&(a, b))
                        {
                            bound = Some((a, b, score));
                        }
                    }
                }
                let pair = |seed: Option<(usize, usize, f64)>| seed.map(|(a, b, _)| (a, b));
                (pair(free), pair(bound))
            }
        };
        let objective = |c, s| problem.pairwise_objective(ctx, c, s);
        for (walk, seed, limit) in [
            (&mut self.free, free, free_limit),
            (&mut self.bound, bound, bound_limit),
        ] {
            if let Some((a, b)) = seed.filter(|_| limit >= 2) {
                walk.seed(a, b);
                walk.grow(bucket.iter().copied(), limit, objective, || true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{problem, problem_1, problem_2, problem_3, ProblemParams};
    use crate::criteria::MiningCriterion;
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
        let mut walks = BucketWalks::new(&ctx, &problem);
        walks.run(&candidates, None, 3, 3);
        for walk in [&walks.free.groups, &walks.bound.groups] {
            let mut picked = walk.clone();
            picked.sort_unstable();
            picked.dedup();
            assert_eq!(picked.len(), 3.min(ctx.num_groups()));
        }
        // A walk whose limit exceeds the candidate list takes every candidate; a zero
        // limit skips the walk.
        walks.run(&[1, 2], None, 3, 0);
        assert_eq!(walks.free.groups, vec![1, 2]);
        assert!(walks.bound.groups.is_empty());
        for limit in [0, 1] {
            walks.run(&candidates, None, limit, limit);
            assert!(walks.free.groups.is_empty() && walks.bound.groups.is_empty());
        }
        // No pair satisfies an unreachable threshold: the constrained walk stays empty.
        let mut impossible = problem.clone();
        for c in &mut impossible.constraints {
            c.threshold = 2.0;
        }
        let mut walks = BucketWalks::new(&ctx, &impossible);
        walks.run(&candidates, None, 3, 3);
        assert_eq!(walks.free.groups.len(), 3);
        assert!(walks.bound.groups.is_empty());
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
            let mut walks = BucketWalks::new(&ctx, &problem);
            walks.run(&candidates, None, limit, limit);
            // Seeding from the ranked pairs walks the same groups in the same order.
            let ranking = BucketRanking::new(std::iter::once(&candidates[..]), |a, b| {
                problem.pairwise_objective(&ctx, a, b)
            });
            let mut ranked = BucketWalks::new(&ctx, &problem);
            ranked.run(&candidates, ranking.bucket(0), limit, limit);
            prop_assert_eq!(&ranked.free.groups, &walks.free.groups);
            prop_assert_eq!(&ranked.bound.groups, &walks.bound.groups);

            let walk = &walks.free.groups;
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

            let mut constrained = walks.bound.groups.clone();
            constrained.sort_unstable();
            prop_assert_eq!(
                constrained,
                greedy_select_feasible(&ctx, &problem, &candidates, limit)
            );
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
        problem.with_objective(ObjectiveSpec {
            function: DualMiningFunction::standard(
                TaggingDimension::Users,
                MiningCriterion::Similarity,
            ),
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
        let shared = small_context();
        for (problem, mode) in fold_variants() {
            let solver = SmLshSolver::new(mode);
            solver.solve(&shared, &problem);
            let (full, ranking) = solver.full_index(&shared, &problem);
            assert!(ranking.is_some(), "{}", problem.name);
            // Sets one group larger than the full index's largest bucket: every answer
            // comes from a relaxed round, whose buckets the kept ranking does not cover.
            let size = full.all_buckets().map(<[usize]>::len).max().unwrap() + 1;
            let mut relaxed = problem.with_min_groups(size);
            relaxed.max_groups = size;
            let kept = solver.solve(&shared, &relaxed);
            assert_eq!(kept.groups.len(), size, "{mode:?} {}", relaxed.name);
            assert_eq!(
                answer(&kept),
                answer(&solver.solve(&small_context(), &relaxed))
            );
            assert_matches_reference(&solver, &shared, &relaxed);
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
                    let score = |[a, b]: [u32; 2]| {
                        problem.pairwise_objective(&fresh, a as usize, b as usize)
                    };
                    ties += (0..full.all_buckets().count())
                        .filter_map(|b| ranking.bucket(b))
                        .filter(|pairs| pairs.len() > 1 && score(pairs[0]) == score(pairs[1]))
                        .count();
                }
            }
        }
        assert!(ties > 0, "no bucket ties at its top pair");
    }

    #[test]
    fn buckets_over_the_ranking_cap_answer_like_the_reference() {
        // At d′ = 2 the medium context's buckets hold thousands of pairs each: the
        // ranking keeps each bucket that still fits under MAX_RANKED_PAIRS, not all.
        let ctx = medium_context();
        let params = ProblemParams::paper_defaults(ctx.num_input_actions());
        for problem in [problem_1(params), problem_2(params), problem_3(params)] {
            let solver = SmLshSolver::new(Fold).with_bits(2);
            assert_matches_reference(&solver, &ctx, &problem);
            let (full, ranking) = solver.full_index(&ctx, &problem);
            let ranking = ranking.expect("the first solve of a variant ranks");
            let kept: Vec<bool> = full
                .all_buckets()
                .enumerate()
                .filter(|(_, bucket)| bucket.len() >= 2)
                .map(|(b, _)| ranking.bucket(b).is_some())
                .collect();
            assert!(
                kept.contains(&true) && kept.contains(&false),
                "{}: {kept:?}",
                problem.name
            );
        }
    }

    #[test]
    fn benchmark_shaped_requests_match_the_reference() {
        // mine-heuristic's SM-LSH-Fo requests: P1–P3 at the paper's defaults, support
        // offset by −20..+10, on one context that keeps what the first solves rank.
        let ctx = medium_context();
        let base = ProblemParams::paper_defaults(ctx.num_input_actions());
        let solver = SmLshSolver::new(Fold);
        for offset in -20isize..=10 {
            for id in 1..=3 {
                let params = ProblemParams {
                    min_support: base.min_support.saturating_add_signed(offset),
                    ..base
                };
                let problem = problem(id, params);
                assert_matches_reference(&solver, &ctx, &problem);
                assert!(ranked(&ctx, &solver, &problem), "{}", problem.name);
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
