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
//! enforced, one that only admits constraint-satisfying sets. One pass over the
//! bucket's pairs seeds both, scoring each pair's objective once.

use std::time::Instant;

use tagdm_lsh::index::{LshConfig, LshIndex};

use crate::context::MiningContext;
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

    /// Evaluate every bucket of an index, returning the best candidate set and the
    /// number of candidate sets evaluated.
    fn evaluate_buckets(
        &self,
        ctx: &MiningContext,
        problem: &TagDmProblem,
        index: &LshIndex,
        walks: &mut BucketWalks,
        cancel: &CancelToken,
    ) -> (Option<(Vec<usize>, f64)>, u64) {
        let mut best: Option<(Vec<usize>, f64)> = None;
        let mut evaluated = 0u64;
        for bucket in index.all_buckets() {
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
        let (fold_users, fold_items) = self.fold_dimensions(problem);
        let dims = ctx.folded_dims(fold_users, fold_items).max(1);
        let vectors: Vec<Vec<(u32, f64)>> = (0..ctx.num_groups())
            .map(|i| ctx.folded_vector(i, fold_users, fold_items))
            .collect();

        let full = LshIndex::build(
            LshConfig {
                dims,
                num_bits: self.initial_bits,
                num_tables: self.num_tables,
                seed: self.seed,
            },
            vectors.iter().map(|v| v.as_slice()),
        );

        // Iterative relaxation of d′ (Algorithm 1): start from the configured d′; on a
        // null result, halve the bits (larger buckets) down to a single bit. Each
        // relaxed index re-buckets prefixes of the signatures hashed above.
        let mut evaluated_total = 0u64;
        let mut best: Option<(Vec<usize>, f64)> = None;
        let mut walks = BucketWalks::new(ctx, problem);
        let mut relaxed: LshIndex;
        let mut index = &full;
        loop {
            let (found, evaluated) = self.evaluate_buckets(ctx, problem, index, &mut walks, cancel);
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
    /// One pass over the bucket's pairs in `(a < b)` order seeds both walks and scores
    /// each pair's objective once: the free walk starts from the first pair of largest
    /// score, the bound walk from the first such pair that satisfies every constraint.
    /// Each walk then adds, per round, the bucket member with the largest total
    /// objective to its groups (see [`Walk::grow`]). A larger limit only runs more
    /// rounds, so the first `s ≥ 2` groups of a walk are the walk to `s`.
    fn run(&mut self, bucket: &[usize], free_limit: usize, bound_limit: usize) {
        self.free.groups.clear();
        self.bound.groups.clear();
        if bucket.len() < 2 || free_limit.max(bound_limit) < 2 {
            return;
        }
        let (ctx, problem) = (self.ctx, self.problem);
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
                    && pair_admits(ctx, problem, a, b)
                {
                    bound = Some((a, b, score));
                }
            }
        }
        let objective = |c, s| problem.pairwise_objective(ctx, c, s);
        for (walk, seed, limit) in [
            (&mut self.free, free, free_limit),
            (&mut self.bound, bound, bound_limit),
        ] {
            if let Some((a, b, _)) = seed.filter(|_| limit >= 2) {
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
    use crate::solvers::test_support::{random_context, small_context, GROUPINGS};
    use crate::solvers::ExactSolver;
    use proptest::prelude::*;
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
        walks.run(&candidates, 3, 3);
        for walk in [&walks.free.groups, &walks.bound.groups] {
            let mut picked = walk.clone();
            picked.sort_unstable();
            picked.dedup();
            assert_eq!(picked.len(), 3.min(ctx.num_groups()));
        }
        // A walk whose limit exceeds the candidate list takes every candidate; a zero
        // limit skips the walk.
        walks.run(&[1, 2], 3, 0);
        assert_eq!(walks.free.groups, vec![1, 2]);
        assert!(walks.bound.groups.is_empty());
        for limit in [0, 1] {
            walks.run(&candidates, limit, limit);
            assert!(walks.free.groups.is_empty() && walks.bound.groups.is_empty());
        }
        // No pair satisfies an unreachable threshold: the constrained walk stays empty.
        let mut impossible = problem.clone();
        for c in &mut impossible.constraints {
            c.threshold = 2.0;
        }
        let mut walks = BucketWalks::new(&ctx, &impossible);
        walks.run(&candidates, 3, 3);
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
            walks.run(&candidates, limit, limit);

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
