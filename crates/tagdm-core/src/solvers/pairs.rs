//! The per-solve pair kernel shared by the heuristic solvers (SM-LSH and DV-FDP).
//!
//! Every dual mining function is a pair-wise aggregation (Definition 3): a set's value
//! comes from its unordered pairs' scores alone. The heuristics' walks grow their sets
//! one group at a time, so they never need the `n × n` score matrix, only a new group's
//! scores against the groups already chosen:
//!
//! * [`pair_admits`] tests a 2-set against the hard constraints, each constraint
//!   function scoring the pair once;
//! * [`ClassAdmits`] lists the same test's admitted pairs, for DV-FDP-Fo's seed scan.
//!   When every constraint is structural on users or items, a pair's verdict depends
//!   only on the description classes of its groups (see [`MiningContext`]), so one
//!   bitset per class and side, of the groups that class admits, gives the same
//!   verdicts; a group's admitted partners are the AND of its two classes' bitsets.
//!   Each class's bitset is the OR of the context's per-value sets at the similarity
//!   values the constraints admit, so a solve tests the constraints once per value;
//! * [`PairScores`] is where a [`Walk`] reads its scores, and the caller supplies it:
//!   DV-FDP scores each pair when the walk asks, SM-LSH reads the scores its bucket
//!   already holds (see `sm_lsh`'s `BucketScores`);
//! * [`PairTable`] keeps one `k × k` table of constraint-function pair scores over a
//!   constrained [`Walk`]'s groups, in the order they joined, as the source gives them:
//!   the score source of the grown set's constraints (see
//!   [`DualMiningFunction::value`](crate::functions::DualMiningFunction::value));
//! * [`Walk`] is the one greedy add of DV-FDP and of SM-LSH's bucket refinement: the
//!   admissible candidate with the largest total distance to the walk joins it. Whether
//!   a round tests a candidate's distance or its admissibility first is the source's
//!   call ([`PairScores::DISTANCE_FIRST`]): a candidate joins only if it passes both,
//!   so the order changes what is scored, never who joins.
//!
//! Pair scores are symmetric bit for bit (`F_p(a, b) = F_p(b, a)`, pinned by a test),
//! so a pair is scored in one orientation and serves both.
//!
//! All state is sized by `k`, or by the description classes times `n` bits, and
//! dropped with the solve; nothing here is `O(n²)`.

use crate::context::{DescriptionClasses, MiningContext};
use crate::criteria::{PairwiseKind, TaggingDimension};
use crate::problem::{ConstraintSpec, TagDmProblem};

/// Whether the 2-set `{a, b}` satisfies every constraint of `problem`: its
/// [`TagDmProblem::constraints_satisfied`] without building the set. SM-LSH's bucket
/// walks test pairs with it, and so does DV-FDP-Fo's seed scan when [`ClassAdmits`]
/// does not apply.
pub(crate) fn pair_admits(ctx: &MiningContext, problem: &TagDmProblem, a: usize, b: usize) -> bool {
    problem.constraints_hold(2, |f, _, _| {
        problem.constraints[f].function.evaluate_pair(ctx, a, b)
    })
}

/// [`pair_admits`] as group bitsets, for problems whose constraints are all structural
/// on users or items over a context whose two sides keep their class similarity
/// tables. A pair's verdict then depends only on its groups' description classes, so
/// each side keeps, per class, the bitset of the groups whose class that side's
/// constraints admit beside it. The pair `{a, b}` is admitted iff `b` is set in both of
/// `a`'s sides' bitsets.
pub(crate) struct ClassAdmits<'a> {
    /// `u64` words per bitset: one bit per group.
    words: usize,
    /// Per side, its classes and, per class, one bitset of `words` words.
    sides: [(&'a DescriptionClasses, Vec<u64>); 2],
}

impl<'a> ClassAdmits<'a> {
    /// The admit bitsets of `problem` over `ctx`, or `None` when some constraint is not
    /// structural on users or items, or a side keeps no class similarity table.
    ///
    /// A side's verdict is `pair_admits`' own expression on a class similarity, taken
    /// once per distinct value of the side's table (see
    /// [`SimilaritySets`](crate::context::SimilaritySets)). A class's bitset is the OR of
    /// its sets at the admitted values: at most `V` ORs of a bitset per class, for `V`
    /// values.
    pub(crate) fn new(ctx: &'a MiningContext, problem: &TagDmProblem) -> Option<Self> {
        let structural = problem.constraints.iter().all(|c| {
            c.function.kind == PairwiseKind::Structural
                && c.function.dimension != TaggingDimension::Tags
        });
        if !structural {
            return None;
        }
        let words = ctx.num_groups().div_ceil(64);
        let side = |dimension| {
            let classes = ctx.description_classes(dimension)?;
            let sets = classes.similarity_sets()?;
            let constraints: Vec<&ConstraintSpec> = problem
                .constraints
                .iter()
                .filter(|c| c.function.dimension == dimension)
                .collect();
            let admitted: Vec<usize> = (0..sets.values().len())
                .filter(|&v| {
                    let similarity = sets.values()[v];
                    constraints
                        .iter()
                        .all(|c| c.holds(2, |_, _| c.function.criterion.orient(similarity)))
                })
                .collect();
            let mut bits = vec![0u64; classes.len() * words];
            for x in 0..classes.len() {
                let row = &mut bits[x * words..(x + 1) * words];
                for &v in &admitted {
                    for (into, from) in row.iter_mut().zip(sets.set(x, v)) {
                        *into |= from;
                    }
                }
            }
            Some((classes, bits))
        };
        Some(ClassAdmits {
            words,
            sides: [
                side(TaggingDimension::Users)?,
                side(TaggingDimension::Items)?,
            ],
        })
    }

    /// Call `visit` on every `j < i` whose pair with `i` satisfies every constraint, in
    /// ascending order: the set bits below `i` of the AND of `i`'s two side bitsets.
    #[inline]
    pub(crate) fn for_each_partner(&self, i: usize, mut visit: impl FnMut(usize)) {
        let words = self.words;
        let [users, items] = self.sides.each_ref().map(|(classes, bits)| {
            let start = classes.class(i) * words;
            &bits[start..start + words]
        });
        for (w, (&u, &t)) in users.iter().zip(items).take(i.div_ceil(64)).enumerate() {
            let mut word = u & t;
            if w == i / 64 {
                word &= (1 << (i % 64)) - 1;
            }
            while word != 0 {
                visit(w * 64 + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
    }
}

/// Where a [`Walk`] reads its pair scores. The caller supplies the source: DV-FDP scores
/// every pair afresh, SM-LSH reads the scores its bucket already holds. A source must
/// return, for each pair, the same bits in either orientation.
pub(crate) trait PairScores {
    /// Whether a walk reads a candidate's distances before its constraint scores: true
    /// for a source whose distances are the cheaper read.
    ///
    /// Measured on the medium LDA(25) context (456 groups), per Fold solve at `k = 3`.
    /// SM-LSH's distances are kept tag cosines. Distance-first, a warm P1/P2/P3 solve
    /// scores 908/1,011/645 structural pairs and takes ~30 µs. Constraint-first, it
    /// scores 1,084/1,799/1,861 and takes ~38–41 µs (2-vCPU x86-64). DV-FDP's distances
    /// are fresh tag cosines, ~27 ns each against ~6.5 ns for a structural pair.
    /// Distance-first, its P4/P5/P6 greedy would score 9,432/16,395/2,281 tag and
    /// 1,584/44/1,090 structural pairs. Constraint-first, it scores
    /// 8,600/15,729/1,389 tag and 1,776/1,162/1,128 structural pairs. That is more tag
    /// pairs on all three and more pairs in all on P4 and P6, so DV-FDP stays
    /// constraint-first. Its solve time showed no difference either way: the seed scan
    /// dominates it.
    const DISTANCE_FIRST: bool = false;

    /// Constraint `f`'s function's score of the pair `(a, b)`.
    fn constraint(&self, f: usize, a: usize, b: usize) -> f64;

    /// The walk's distance between `a` and `b`: a candidate's gain is its total
    /// distance to the walk's groups.
    fn distance(&self, a: usize, b: usize) -> f64;
}

/// One `k × k` table of pair scores per constraint function, over a set of at most `k`
/// groups kept in insertion order. The set itself lives with the caller; the table only
/// holds its scores, as a [`PairScores`] source gives them.
pub(crate) struct PairTable {
    /// The largest set size, and the side of every table.
    k: usize,
    /// One `k × k` table per constraint: entry `(i, j)`, `i < j`, scores
    /// `(set[i], set[j])`.
    pairs: Vec<f64>,
}

impl PairTable {
    /// Tables for the problem's constraint functions, in order, over sets of at most
    /// `k` groups.
    pub(crate) fn constraints(problem: &TagDmProblem, k: usize) -> Self {
        PairTable {
            pairs: vec![0.0; problem.constraints.len() * k * k],
            k,
        }
    }

    /// Score `c`, as the next member of `set`, against every member of `set` under
    /// constraint `f`: fills column `set.len()` of `f`'s table.
    #[inline]
    fn score(&mut self, f: usize, source: &impl PairScores, set: &[usize], c: usize) {
        let k = self.k;
        debug_assert!(set.len() < k, "a table holds sets of at most {k}");
        let table = &mut self.pairs[f * k * k..(f + 1) * k * k];
        let m = set.len();
        for (i, &a) in set.iter().enumerate() {
            table[i * k + m] = source.constraint(f, a, c);
        }
    }

    /// Whether `set` plus `c` satisfies every constraint of `problem`: the pairs within
    /// `set` read from the tables, and `c`'s pairs scored by `source` as they are read.
    #[inline]
    fn admits(
        &self,
        problem: &TagDmProblem,
        source: &impl PairScores,
        set: &[usize],
        c: usize,
    ) -> bool {
        let (k, m) = (self.k, set.len());
        problem.constraints_hold(m + 1, |f, i, j| {
            if j < m {
                self.pairs[f * k * k + i * k + j]
            } else {
                source.constraint(f, set[i], c)
            }
        })
    }
}

/// A greedy dispersion walk: a seed pair, grown one admissible candidate at a time.
pub(crate) struct Walk<'a> {
    problem: &'a TagDmProblem,
    /// Constraint tables (see [`PairTable::constraints`]) when the walk only admits sets
    /// that satisfy every constraint of the problem.
    table: Option<PairTable>,
    /// The chosen groups, in the order they joined.
    pub(crate) groups: Vec<usize>,
}

impl<'a> Walk<'a> {
    /// An empty walk; `table` makes it constrained.
    pub(crate) fn new(problem: &'a TagDmProblem, table: Option<PairTable>) -> Self {
        Walk {
            problem,
            table,
            groups: Vec::new(),
        }
    }

    /// Append `c`, scoring it against the walk under every constraint function.
    fn push(&mut self, source: &impl PairScores, c: usize) {
        if let Some(table) = &mut self.table {
            for f in 0..self.problem.constraints.len() {
                table.score(f, source, &self.groups, c);
            }
        }
        self.groups.push(c);
    }

    /// Restart the walk from the pair `seed` and grow it to at most `limit` groups, with
    /// every score read from `source`. Each round visits `candidates` in order, skipping
    /// the walk's own groups, and adds the admissible one with the largest total
    /// `source.distance(candidate, member)` over the walk's members; the first strict
    /// maximum wins. A constrained walk admits a candidate only when the grown set
    /// satisfies every constraint. The walk stops early when no candidate is admissible,
    /// or when `visit`, called before each candidate's test, returns `false`.
    pub(crate) fn grow<S: PairScores>(
        &mut self,
        source: &S,
        seed: (usize, usize),
        candidates: impl Iterator<Item = usize> + Clone,
        limit: usize,
        mut visit: impl FnMut() -> bool,
    ) {
        self.groups.clear();
        self.push(source, seed.0);
        self.push(source, seed.1);
        while self.groups.len() < limit {
            let mut best: Option<(usize, f64)> = None;
            for c in candidates.clone() {
                if self.groups.contains(&c) {
                    continue;
                }
                if !visit() {
                    return;
                }
                // A candidate joins only if it is admissible and strictly ahead of the
                // best so far, so either test may go first.
                let ahead = |gain: f64| best.is_none_or(|(_, g)| gain > g);
                let gain =
                    |c: usize| -> f64 { self.groups.iter().map(|&s| source.distance(c, s)).sum() };
                let early = S::DISTANCE_FIRST.then(|| gain(c));
                if early.is_some_and(|g| !ahead(g)) {
                    continue;
                }
                if let Some(table) = &self.table {
                    if !table.admits(self.problem, source, &self.groups, c) {
                        continue;
                    }
                }
                let gain = early.unwrap_or_else(|| gain(c));
                if ahead(gain) {
                    best = Some((c, gain));
                }
            }
            match best {
                Some((c, _)) => self.push(source, c),
                None => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{problem, ProblemParams};
    use crate::context::MAX_TABLE_CLASSES;
    use crate::criteria::{MiningCriterion, PairwiseKind, TaggingDimension};
    use crate::functions::DualMiningFunction;
    use crate::solvers::test_support::{
        constrained_problems, overlapping_context, random_context, small_context,
        wide_items_groups, GROUPINGS,
    };
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

    /// Require [`pair_admits`] to equal `constraints_satisfied` on the 2-set for every
    /// pair of `ctx`, in both orders.
    fn assert_pair_admits_matches_the_set_test(ctx: &MiningContext, problem: &TagDmProblem) {
        for a in 0..ctx.num_groups() {
            for b in 0..ctx.num_groups() {
                assert_eq!(
                    pair_admits(ctx, problem, a, b),
                    problem.constraints_satisfied(ctx, &[a, b]),
                    "{} on ({a}, {b})",
                    problem.describe()
                );
            }
        }
    }

    /// Require the class admit bitsets to list, for every group `i` of `ctx`, exactly the
    /// `j < i` that [`pair_admits`] admits beside `i`, in either order, ascending.
    fn assert_class_admits_match_pair_admits(
        ctx: &MiningContext,
        problem: &TagDmProblem,
        classes: &ClassAdmits,
    ) {
        for i in 0..ctx.num_groups() {
            let mut partners = Vec::new();
            classes.for_each_partner(i, |j| partners.push(j));
            let forward: Vec<usize> = (0..i)
                .filter(|&j| pair_admits(ctx, problem, i, j))
                .collect();
            let backward: Vec<usize> = (0..i)
                .filter(|&j| pair_admits(ctx, problem, j, i))
                .collect();
            assert_eq!(partners, forward, "{} on row {i}", problem.describe());
            assert_eq!(partners, backward, "{} on row {i}", problem.describe());
        }
    }

    /// Require each side's per-value sets to hold exactly the groups whose class is at
    /// that similarity, by bits, from each class.
    fn assert_similarity_sets_bucket_the_groups(ctx: &MiningContext) {
        for dimension in [TaggingDimension::Users, TaggingDimension::Items] {
            let classes = ctx.description_classes(dimension).unwrap();
            let sets = classes.similarity_sets().unwrap();
            for x in 0..classes.len() {
                for (v, value) in sets.values().iter().enumerate() {
                    let set = sets.set(x, v);
                    for g in 0..ctx.num_groups() {
                        let at = classes.class_similarity(x, classes.class(g));
                        assert_eq!(
                            set[g / 64] >> (g % 64) & 1 == 1,
                            at.to_bits() == value.to_bits(),
                            "class {x}, value {value}, group {g}"
                        );
                    }
                }
            }
        }
    }

    /// Problems of one structural constraint on `dimension` under `criterion`, with its
    /// threshold at each distinct similarity of that side oriented by the criterion, at
    /// that plus `admits`' `1e-12`, and one ulp either side of both.
    fn boundary_problems(
        ctx: &MiningContext,
        dimension: TaggingDimension,
        criterion: MiningCriterion,
    ) -> Vec<TagDmProblem> {
        let sets = ctx
            .description_classes(dimension)
            .unwrap()
            .similarity_sets()
            .unwrap();
        let mut problems = Vec::new();
        for &similarity in sets.values() {
            let value = criterion.orient(similarity);
            for at in [value, value + 1e-12] {
                for threshold in [at.next_down(), at, at.next_up()] {
                    problems.push(TagDmProblem::new("boundary", 3, 1).with_constraint(
                        ConstraintSpec::standard(dimension, criterion, threshold),
                    ));
                }
            }
        }
        problems
    }

    #[test]
    fn class_admits_match_pair_admits_at_boundary_thresholds() {
        for ctx in [
            small_context(),
            overlapping_context(),
            random_context(11, 300, 0),
            random_context(12, 300, 2),
        ] {
            assert_similarity_sets_bucket_the_groups(&ctx);
            for dimension in [TaggingDimension::Users, TaggingDimension::Items] {
                for criterion in MiningCriterion::ALL {
                    for problem in boundary_problems(&ctx, dimension, criterion) {
                        let classes = ClassAdmits::new(&ctx, &problem).unwrap();
                        assert_class_admits_match_pair_admits(&ctx, &problem, &classes);
                    }
                }
            }
        }
    }

    #[test]
    fn class_admits_at_and_over_the_table_cap() {
        // The wide-items groups in order, up to the last before the item side reaches
        // `MAX_TABLE_CLASSES + 1` classes, and then up to that one.
        let (ds, groups) = wide_items_groups();
        let item_row = |g: &tagdm_data::group::TaggingActionGroup| {
            g.description
                .conditions()
                .iter()
                .filter(|c| c.dimension == tagdm_data::predicate::Dimension::Item)
                .map(|c| (c.attribute, c.value))
                .collect::<Vec<_>>()
        };
        let mut seen = std::collections::HashSet::new();
        let over = groups
            .iter()
            .position(|g| seen.insert(item_row(g)) && seen.len() > MAX_TABLE_CLASSES)
            .unwrap();
        let params = ProblemParams {
            k: 3,
            min_support: 1,
            user_threshold: 0.5,
            item_threshold: 1.0 / 3.0,
        };
        for (len, classes, table) in [
            (over, MAX_TABLE_CLASSES, true),
            (over + 1, MAX_TABLE_CLASSES + 1, false),
        ] {
            let ctx = MiningContext::build(
                &ds,
                groups[..len].to_vec(),
                crate::context::SummarizerChoice::Frequency,
            );
            let items = ctx.description_classes(TaggingDimension::Items).unwrap();
            assert_eq!(items.len(), classes);
            assert_eq!(items.similarity_sets().is_some(), table);
            if table {
                assert_similarity_sets_bucket_the_groups(&ctx);
            }
            for id in 4..=6 {
                let problem = problem(id, params);
                let admits = ClassAdmits::new(&ctx, &problem);
                assert_eq!(admits.is_some(), table, "P{id}");
                if let Some(admits) = admits {
                    assert_class_admits_match_pair_admits(&ctx, &problem, &admits);
                }
            }
        }
    }

    /// A constraint threshold: half the time a quarter step, which structural scores
    /// can hit exactly, otherwise any value in `[0, 1)`.
    fn threshold() -> impl Strategy<Value = f64> {
        (0u32..10, 0.0f64..1.0).prop_map(|(q, x)| if q < 5 { f64::from(q) / 4.0 } else { x })
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

        #[test]
        fn prop_pair_admits_matches_the_set_constraints(
            seed in 0u64..1_000,
            actions in 40usize..400,
            grouping in 0usize..GROUPINGS.len(),
            user_threshold in threshold(),
            item_threshold in threshold(),
            jaccard_threshold in threshold(),
            min_threshold in threshold(),
        ) {
            let params = ProblemParams {
                k: 3,
                min_support: 1,
                user_threshold,
                item_threshold,
            };
            let mut problems = constrained_problems(params, jaccard_threshold, min_threshold);
            // A structural constraint beside a non-structural one: no class tables.
            let mut mixed = problems[0].clone();
            mixed.constraints.push(problems[6].constraints[0]);
            problems.push(mixed);
            for ctx in [
                random_context(seed, actions, grouping),
                small_context(),
                overlapping_context(),
            ] {
                for problem in &problems {
                    assert_pair_admits_matches_the_set_test(&ctx, problem);
                    // Every set but the item-set Jaccard and the mixed one is all
                    // structural, and these contexts keep both class tables.
                    let structural = problem.constraints.iter().all(|c| {
                        c.function.kind == PairwiseKind::Structural
                    });
                    let classes = ClassAdmits::new(&ctx, problem);
                    prop_assert_eq!(classes.is_some(), structural, "{}", problem.describe());
                    if let Some(classes) = classes {
                        assert_class_admits_match_pair_admits(&ctx, problem, &classes);
                    }
                }
            }
        }
    }
}
