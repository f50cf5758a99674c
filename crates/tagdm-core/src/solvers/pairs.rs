//! The per-solve pair kernel shared by the solvers.
//!
//! Every dual mining function is a pair-wise aggregation (Definition 3): a set's value
//! is its unordered pairs' scores, taken in row-major `(i < j)` order and aggregated.
//! The solvers grow their sets one group at a time, so they never need the `n × n`
//! score matrix, only a new group's scores against the groups already chosen:
//!
//! * [`pair_admits`] tests a 2-set against the hard constraints, each constraint
//!   function scoring the pair once and aggregating it as a one-pair set;
//! * [`PairTable`] keeps one `k × k` table of pair scores per function over a set kept
//!   in insertion order. A set's value is that table read in
//!   [`DualMiningFunction::evaluate`]'s pair order and aggregated by the unchanged
//!   [`Aggregator::aggregate`](crate::criteria::Aggregator::aggregate), so it is
//!   bit-identical to scoring the set from scratch;
//! * [`Walk`] is the greedy add of DV-FDP and of SM-LSH's bucket refinement: the
//!   admissible candidate with the largest total distance to the walk joins it.
//!
//! Pair scores are symmetric bit for bit (`F_p(a, b) = F_p(b, a)`, pinned by a test),
//! so a pair is scored in one orientation and serves both.
//!
//! All state is sized by `k` and dropped with the solve; nothing here is `O(n²)`.

use crate::context::MiningContext;
use crate::functions::DualMiningFunction;
use crate::problem::TagDmProblem;

/// Whether the 2-set `{a, b}` satisfies every constraint of `problem`, each constraint
/// function scoring the pair once (see [`ConstraintSpec::pair_satisfied`]).
///
/// [`ConstraintSpec::pair_satisfied`]: crate::problem::ConstraintSpec::pair_satisfied
pub(crate) fn pair_admits(ctx: &MiningContext, problem: &TagDmProblem, a: usize, b: usize) -> bool {
    problem
        .constraints
        .iter()
        .all(|c| c.pair_satisfied(ctx, a, b))
}

/// One `k × k` table of pair scores per function, over a set of at most `k` groups kept
/// in insertion order. The set itself lives with the caller; the table only holds its
/// scores.
pub(crate) struct PairTable {
    functions: Vec<DualMiningFunction>,
    /// The largest set size, and the side of every table.
    k: usize,
    /// One `k × k` table per function: entry `(i, j)`, `i < j`, scores
    /// `(set[i], set[j])`.
    pairs: Vec<f64>,
    /// Reused buffer of one function's pair scores over the set.
    scores: Vec<f64>,
}

impl PairTable {
    /// Tables for `functions` over sets of at most `k` groups.
    pub(crate) fn new(functions: Vec<DualMiningFunction>, k: usize) -> Self {
        PairTable {
            pairs: vec![0.0; functions.len() * k * k],
            functions,
            k,
            scores: Vec::with_capacity(k * k.saturating_sub(1) / 2),
        }
    }

    /// Tables for the problem's constraint functions, in order, over sets of at most
    /// `k` groups: the tables [`PairTable::admits`] reads.
    pub(crate) fn constraints(problem: &TagDmProblem, k: usize) -> Self {
        PairTable::new(problem.constraints.iter().map(|c| c.function).collect(), k)
    }

    /// Score `c`, as the next member of `set`, against every member of `set` under
    /// function `f`: fills column `set.len()` of `f`'s table.
    #[inline]
    pub(crate) fn score(&mut self, f: usize, ctx: &MiningContext, set: &[usize], c: usize) {
        let square = self.k * self.k;
        let table = &mut self.pairs[f * square..(f + 1) * square];
        fill_column(&self.functions[f], table, self.k, ctx, set, c);
    }

    /// Score `c` against `set` under every function.
    #[inline]
    pub(crate) fn score_all(&mut self, ctx: &MiningContext, set: &[usize], c: usize) {
        let square = self.k * self.k;
        for (function, table) in self
            .functions
            .iter()
            .zip(self.pairs.chunks_exact_mut(square))
        {
            fill_column(function, table, self.k, ctx, set, c);
        }
    }

    /// Function `f`'s value over the set's first `len` members: their pair scores in
    /// row-major `(i < j)` order, aggregated.
    #[inline]
    pub(crate) fn value(&mut self, f: usize, len: usize) -> f64 {
        let square = self.k * self.k;
        let table = &self.pairs[f * square..(f + 1) * square];
        self.scores.clear();
        for i in 0..len {
            let row = &table[i * self.k..];
            self.scores.extend_from_slice(&row[i + 1..len]);
        }
        self.functions[f].aggregator.aggregate(&self.scores)
    }

    /// Whether `set` plus `c` satisfies every constraint of `problem`, for a table built
    /// by [`PairTable::constraints`]. Scores `c` against `set` one constraint at a time
    /// and stops at the first violated one, like [`TagDmProblem::constraints_satisfied`].
    pub(crate) fn admits(
        &mut self,
        ctx: &MiningContext,
        problem: &TagDmProblem,
        set: &[usize],
        c: usize,
    ) -> bool {
        problem.constraints.iter().enumerate().all(|(f, spec)| {
            self.score(f, ctx, set, c);
            spec.admits(self.value(f, set.len() + 1))
        })
    }
}

/// Write `function`'s scores of `c` against every member of `set` into column
/// `set.len()` of one `k × k` table.
#[inline]
fn fill_column(
    function: &DualMiningFunction,
    table: &mut [f64],
    k: usize,
    ctx: &MiningContext,
    set: &[usize],
    c: usize,
) {
    debug_assert!(set.len() < k, "a table holds sets of at most {k}");
    let m = set.len();
    for (i, &a) in set.iter().enumerate() {
        table[i * k + m] = function.evaluate_pair(ctx, a, c);
    }
}

/// A greedy dispersion walk: a seed pair, grown one admissible candidate at a time.
pub(crate) struct Walk<'a> {
    ctx: &'a MiningContext,
    problem: &'a TagDmProblem,
    /// Constraint tables (see [`PairTable::constraints`]) when the walk only admits sets
    /// that satisfy every constraint of the problem.
    table: Option<PairTable>,
    /// The chosen groups, in the order they joined.
    pub(crate) groups: Vec<usize>,
}

impl<'a> Walk<'a> {
    /// An empty walk; `table` makes it constrained.
    pub(crate) fn new(
        ctx: &'a MiningContext,
        problem: &'a TagDmProblem,
        table: Option<PairTable>,
    ) -> Self {
        Walk {
            ctx,
            problem,
            table,
            groups: Vec::new(),
        }
    }

    /// Restart the walk from the pair `[a, b]`.
    pub(crate) fn seed(&mut self, a: usize, b: usize) {
        self.groups.clear();
        self.push(a);
        self.push(b);
    }

    /// Append `c`, scoring it against the walk under every constraint function.
    fn push(&mut self, c: usize) {
        if let Some(table) = &mut self.table {
            table.score_all(self.ctx, &self.groups, c);
        }
        self.groups.push(c);
    }

    /// Grow the walk to at most `limit` groups. Each round visits `candidates` in order,
    /// skipping the walk's own groups, and adds the admissible one with the largest total
    /// `distance(candidate, member)` over the walk's members; the first strict maximum
    /// wins. A constrained walk admits a candidate only when the grown set satisfies
    /// every constraint. The walk stops early when no candidate is admissible, or when
    /// `visit`, called before each candidate's test, returns `false`.
    pub(crate) fn grow(
        &mut self,
        candidates: impl Iterator<Item = usize> + Clone,
        limit: usize,
        distance: impl Fn(usize, usize) -> f64,
        mut visit: impl FnMut() -> bool,
    ) {
        while self.groups.len() < limit {
            let mut best: Option<(usize, f64)> = None;
            for c in candidates.clone() {
                if self.groups.contains(&c) {
                    continue;
                }
                if !visit() {
                    return;
                }
                if let Some(table) = &mut self.table {
                    if !table.admits(self.ctx, self.problem, &self.groups, c) {
                        continue;
                    }
                }
                let gain: f64 = self.groups.iter().map(|&s| distance(c, s)).sum();
                if best.is_none_or(|(_, g)| gain > g) {
                    best = Some((c, gain));
                }
            }
            match best {
                Some((c, _)) => self.push(c),
                None => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::{MiningCriterion, PairwiseKind, TaggingDimension};
    use crate::solvers::test_support::{random_context, small_context, GROUPINGS};
    use proptest::prelude::*;

    /// Require `F_p(a, b)` and `F_p(b, a)` to agree bit for bit for every dimension,
    /// kind and criterion over every pair of `ctx`: the kernel scores a pair once for
    /// both orientations.
    fn assert_pair_scores_are_symmetric(ctx: &MiningContext) {
        let kinds = [
            PairwiseKind::Structural,
            PairwiseKind::ItemSetJaccard,
            PairwiseKind::TagCosine,
        ];
        for dimension in TaggingDimension::ALL {
            for kind in kinds {
                for criterion in MiningCriterion::ALL {
                    let function =
                        DualMiningFunction::standard(dimension, criterion).with_kind(kind);
                    for a in 0..ctx.num_groups() {
                        for b in 0..a {
                            assert_eq!(
                                function.evaluate_pair(ctx, a, b).to_bits(),
                                function.evaluate_pair(ctx, b, a).to_bits(),
                                "{} on ({a}, {b})",
                                function.describe()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pair_scores_are_symmetric_on_the_hand_built_corpus() {
        assert_pair_scores_are_symmetric(&small_context());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_pair_scores_are_symmetric_on_random_corpora(
            seed in 0u64..1_000,
            actions in 40usize..400,
            grouping in 0usize..GROUPINGS.len(),
        ) {
            assert_pair_scores_are_symmetric(&random_context(seed, actions, grouping));
        }
    }
}
