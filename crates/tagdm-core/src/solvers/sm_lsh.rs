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
//! `d′` is small.

use std::time::Instant;

use tagdm_lsh::index::{LshConfig, LshIndex};

use crate::context::MiningContext;
use crate::criteria::TaggingDimension;
use crate::problem::TagDmProblem;
use crate::solvers::{greedy_walk, CancelToken, ConstraintMode, Solver, SolverOutcome};

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
                // One walk serves every refined size `s ≥ 2`: the greedy to `s` groups
                // is the walk's first `s` steps.
                let upper = problem.max_groups.min(bucket.len());
                let walk_limit = upper.min(bucket.len().saturating_sub(1));
                let walk = greedy_walk(ctx, problem, bucket, walk_limit, |_| true);
                for size in (problem.min_groups..=upper).rev() {
                    if size == bucket.len() {
                        continue; // already covered by the full bucket
                    }
                    let mut refined = if size == 1 {
                        vec![bucket[0]]
                    } else {
                        walk[..size].to_vec()
                    };
                    refined.sort_unstable();
                    candidates.push(refined);
                }
                // A constraint-aware selection rescues buckets whose objective-best
                // subset violates a hard constraint that some other subset satisfies.
                if self.mode != ConstraintMode::Ignore && !problem.constraints.is_empty() {
                    let mut feasible =
                        greedy_walk(ctx, problem, bucket, problem.max_groups, |set| {
                            problem.constraints_satisfied(ctx, set)
                        });
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
        let mut relaxed: LshIndex;
        let mut index = &full;
        loop {
            let (found, evaluated) = self.evaluate_buckets(ctx, problem, index, cancel);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{problem_1, problem_2, problem_3, ProblemParams};
    use crate::solvers::test_support::small_context;
    use crate::solvers::ExactSolver;
    use ConstraintMode::{Filter, Fold};

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
