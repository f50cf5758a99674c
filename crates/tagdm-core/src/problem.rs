//! The Tagging Behaviour Dual Mining problem (Definition 4 of the paper).

use serde::{Deserialize, Serialize};

use crate::context::MiningContext;
use crate::criteria::{Aggregator, MiningCriterion, TaggingDimension};
use crate::functions::DualMiningFunction;

/// One hard constraint `c_i`: a dual mining function whose value over the candidate set
/// must reach a threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConstraintSpec {
    /// The constrained dual mining function.
    pub function: DualMiningFunction,
    /// The threshold `c_i.Th` the function value must reach (≥).
    pub threshold: f64,
}

impl ConstraintSpec {
    /// A constraint on the paper's standard function for the dimension/criterion pair.
    pub fn standard(
        dimension: TaggingDimension,
        criterion: MiningCriterion,
        threshold: f64,
    ) -> Self {
        ConstraintSpec {
            function: DualMiningFunction::standard(dimension, criterion),
            threshold,
        }
    }

    /// Whether a function value reaches the threshold (with a `1e-12` tolerance).
    pub fn admits(&self, value: f64) -> bool {
        value + 1e-12 >= self.threshold
    }

    /// Whether the candidate set satisfies this constraint.
    pub fn satisfied(&self, ctx: &MiningContext, set: &[usize]) -> bool {
        self.admits(self.function.evaluate(ctx, set))
    }

    /// Whether the function's [`value`](DualMiningFunction::value) on a set of `len`
    /// members, whose pair at positions `i < j` scores `score(i, j)`, reaches the
    /// threshold.
    #[inline]
    pub(crate) fn holds(&self, len: usize, score: impl FnMut(usize, usize) -> f64) -> bool {
        self.admits(self.function.value(len, score))
    }
}

/// One optimization criterion `o_j`: a dual mining function and its weight `o_j.Wt` in
/// the (weighted-sum) optimization goal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveSpec {
    /// The maximized dual mining function.
    pub function: DualMiningFunction,
    /// The weight of this function in the overall goal (positive and finite).
    pub weight: f64,
}

impl ObjectiveSpec {
    /// A unit-weight objective on the paper's standard function for the pair.
    pub fn standard(dimension: TaggingDimension, criterion: MiningCriterion) -> Self {
        ObjectiveSpec {
            function: DualMiningFunction::standard(dimension, criterion),
            weight: 1.0,
        }
    }
}

/// A complete TagDM problem instance ⟨G, C, O⟩ (Definition 4): size bounds, the group
/// support threshold, hard constraints and the weighted optimization goal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TagDmProblem {
    /// Human-readable name (e.g. `"Problem 2 (Table 1)"`).
    pub name: String,
    /// Lower bound `k_lo` on the number of returned groups.
    pub min_groups: usize,
    /// Upper bound `k_hi` (the paper's `k`) on the number of returned groups.
    pub max_groups: usize,
    /// Group support threshold `p` (absolute number of covered input tuples).
    pub min_support: usize,
    /// The hard constraints `C`.
    pub constraints: Vec<ConstraintSpec>,
    /// The optimization criteria `O`.
    pub objectives: Vec<ObjectiveSpec>,
}

impl TagDmProblem {
    /// Create a problem with `1 ≤ |G_opt| ≤ k` and the given support threshold, no
    /// constraints and no objectives (add them with the builder methods).
    pub fn new(name: impl Into<String>, k: usize, min_support: usize) -> Self {
        TagDmProblem {
            name: name.into(),
            min_groups: 1,
            max_groups: k,
            min_support,
            constraints: Vec::new(),
            objectives: Vec::new(),
        }
    }

    /// Add a hard constraint.
    pub fn with_constraint(mut self, constraint: ConstraintSpec) -> Self {
        self.constraints.push(constraint);
        self
    }

    /// Add an optimization criterion.
    pub fn with_objective(mut self, objective: ObjectiveSpec) -> Self {
        self.objectives.push(objective);
        self
    }

    /// Set the lower bound on the result-set size.
    pub fn with_min_groups(mut self, min_groups: usize) -> Self {
        self.min_groups = min_groups;
        self
    }

    /// Basic well-formedness checks.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_groups == 0 {
            return Err("k (max_groups) must be at least 1".into());
        }
        if self.min_groups == 0 || self.min_groups > self.max_groups {
            return Err("min_groups must be in [1, max_groups]".into());
        }
        if self.objectives.is_empty() {
            return Err("a TagDM problem needs at least one optimization criterion".into());
        }
        if !self
            .objectives
            .iter()
            .all(|o| o.weight.is_finite() && o.weight > 0.0)
        {
            return Err("objective weights must be positive and finite".into());
        }
        if !(2.0 * self.largest_objective()).is_finite() {
            return Err("the largest attainable objective must be finite".into());
        }
        if self
            .constraints
            .iter()
            .any(|c| !(0.0..=1.0).contains(&c.threshold))
        {
            return Err("constraint thresholds must lie in [0, 1]".into());
        }
        Ok(())
    }

    /// An upper bound on the optimization goal over any candidate set. Pair scores lie
    /// in `[0, 1]`, so a function's value is at most 1, or at most `C(k, 2)` under a
    /// `Sum` aggregator. [`validate`](Self::validate) requires twice this bound to be
    /// finite, a margin no rounding of the sums can cross: an answer's objective is
    /// then always a finite number.
    fn largest_objective(&self) -> f64 {
        let k = self.max_groups as f64;
        let pairs = k * (k - 1.0) / 2.0;
        self.objectives
            .iter()
            .map(|o| match o.function.aggregator {
                Aggregator::Sum => o.weight * pairs,
                Aggregator::Mean | Aggregator::Min | Aggregator::Max => o.weight,
            })
            .sum()
    }

    /// The optimization goal `Σ_j o_j.Wt × o_j.F(set)`.
    pub fn objective(&self, ctx: &MiningContext, set: &[usize]) -> f64 {
        self.objective_from(set.len(), |o, i, j| {
            self.objectives[o]
                .function
                .evaluate_pair(ctx, set[i], set[j])
        })
    }

    /// The optimization goal of a set of `len` members whose pair at positions `i < j`
    /// objective `o`'s function scores `score(o, i, j)`: `Σ weight × value`, summed in
    /// objective order from `-0.0`.
    #[inline]
    pub(crate) fn objective_from(
        &self,
        len: usize,
        mut score: impl FnMut(usize, usize, usize) -> f64,
    ) -> f64 {
        self.objectives
            .iter()
            .enumerate()
            .map(|(o, spec)| spec.weight * spec.function.value(len, |i, j| score(o, i, j)))
            .sum()
    }

    /// The pairwise contribution of the optimization goal for a single pair of groups —
    /// the edge weight used by the facility-dispersion solvers.
    pub fn pairwise_objective(&self, ctx: &MiningContext, a: usize, b: usize) -> f64 {
        self.pairwise_objective_from(|o| self.objectives[o].function.evaluate_pair(ctx, a, b))
    }

    /// The pairwise objective of a pair that objective `o`'s function scores `score(o)`:
    /// `Σ weight × score`, summed in objective order from `-0.0`.
    #[inline]
    pub(crate) fn pairwise_objective_from(&self, mut score: impl FnMut(usize) -> f64) -> f64 {
        self.objectives
            .iter()
            .enumerate()
            .map(|(o, spec)| spec.weight * score(o))
            .sum()
    }

    /// Whether the candidate set's size is within `[min_groups, max_groups]`.
    pub fn size_ok(&self, len: usize) -> bool {
        (self.min_groups..=self.max_groups).contains(&len)
    }

    /// Whether the candidate set's group support reaches `min_support`.
    pub fn support_ok(&self, ctx: &MiningContext, set: &[usize]) -> bool {
        ctx.support(set) >= self.min_support
    }

    /// Whether every hard constraint holds for the candidate set.
    pub fn constraints_satisfied(&self, ctx: &MiningContext, set: &[usize]) -> bool {
        self.constraints_hold(set.len(), |f, i, j| {
            self.constraints[f]
                .function
                .evaluate_pair(ctx, set[i], set[j])
        })
    }

    /// Whether every hard constraint [`holds`](ConstraintSpec::holds) for a set of `len`
    /// members whose pair at positions `i < j` constraint `f`'s function scores
    /// `score(f, i, j)`. The constraints are tested in order, up to the first that fails.
    #[inline]
    pub(crate) fn constraints_hold(
        &self,
        len: usize,
        mut score: impl FnMut(usize, usize, usize) -> f64,
    ) -> bool {
        self.constraints
            .iter()
            .enumerate()
            .all(|(f, c)| c.holds(len, |i, j| score(f, i, j)))
    }

    /// Full feasibility: size bounds, support threshold and every hard constraint.
    /// (Describability holds by construction — every candidate group is enumerated from
    /// a conjunctive description.)
    pub fn feasible(&self, ctx: &MiningContext, set: &[usize]) -> bool {
        self.size_ok(set.len()) && self.support_ok(ctx, set) && self.constraints_satisfied(ctx, set)
    }

    /// Whether any objective asks for similarity (drives the choice of SM-LSH).
    pub fn maximizes_similarity(&self) -> bool {
        self.objectives
            .iter()
            .any(|o| o.function.criterion == MiningCriterion::Similarity)
    }

    /// Whether any objective asks for diversity (drives the choice of DV-FDP).
    pub fn maximizes_diversity(&self) -> bool {
        self.objectives
            .iter()
            .any(|o| o.function.criterion == MiningCriterion::Diversity)
    }

    /// The constraints whose criterion is similarity (the ones the folding variants can
    /// fold into the hashed vector / greedy add test).
    pub fn similarity_constraints(&self) -> impl Iterator<Item = &ConstraintSpec> {
        self.constraints
            .iter()
            .filter(|c| c.function.criterion == MiningCriterion::Similarity)
    }

    /// One-line description of the problem shape, e.g.
    /// `"C: users similarity ≥ 0.5, items diversity ≥ 0.5; O: tags similarity"`.
    pub fn describe(&self) -> String {
        let constraints: Vec<String> = self
            .constraints
            .iter()
            .map(|c| {
                format!(
                    "{} {} >= {:.2}",
                    c.function.dimension.name(),
                    c.function.criterion.name(),
                    c.threshold
                )
            })
            .collect();
        let objectives: Vec<String> = self
            .objectives
            .iter()
            .map(|o| {
                format!(
                    "{} {}",
                    o.function.dimension.name(),
                    o.function.criterion.name()
                )
            })
            .collect();
        format!(
            "k in [{}, {}], support >= {}; C: {}; O: {}",
            self.min_groups,
            self.max_groups,
            self.min_support,
            if constraints.is_empty() {
                "-".to_string()
            } else {
                constraints.join(", ")
            },
            objectives.join(" + ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{problem_1, ProblemParams};
    use crate::context::{MiningContext, SummarizerChoice};
    use tagdm_data::dataset::DatasetBuilder;
    use tagdm_data::group::GroupingScheme;

    fn ctx() -> MiningContext {
        let mut b = DatasetBuilder::movielens_style();
        let u0 = b
            .add_user([
                ("gender", "male"),
                ("age", "18-24"),
                ("occupation", "student"),
                ("state", "ny"),
            ])
            .unwrap();
        let u1 = b
            .add_user([
                ("gender", "female"),
                ("age", "35-44"),
                ("occupation", "artist"),
                ("state", "ca"),
            ])
            .unwrap();
        let i0 = b
            .add_item([("genre", "comedy"), ("actor", "a"), ("director", "x")])
            .unwrap();
        let i1 = b
            .add_item([("genre", "war"), ("actor", "b"), ("director", "y")])
            .unwrap();
        for _ in 0..3 {
            b.add_action_str(u0, i0, &["funny", "light"], None).unwrap();
            b.add_action_str(u1, i0, &["funny", "light"], None).unwrap();
            b.add_action_str(u0, i1, &["gritty", "war"], None).unwrap();
            b.add_action_str(u1, i1, &["war", "moving"], None).unwrap();
        }
        let ds = b.build();
        let groups = GroupingScheme::over(&ds, &[("user", "gender"), ("item", "genre")])
            .unwrap()
            .enumerate(&ds);
        MiningContext::build(&ds, groups, SummarizerChoice::Frequency)
    }

    fn sample_problem() -> TagDmProblem {
        TagDmProblem::new("test", 3, 2)
            .with_constraint(ConstraintSpec::standard(
                TaggingDimension::Users,
                MiningCriterion::Similarity,
                0.2,
            ))
            .with_objective(ObjectiveSpec::standard(
                TaggingDimension::Tags,
                MiningCriterion::Similarity,
            ))
    }

    #[test]
    fn validation_accepts_well_formed_and_rejects_malformed_problems() {
        sample_problem().validate().unwrap();

        let no_objective = TagDmProblem::new("bad", 2, 1);
        assert!(no_objective.validate().is_err());

        let mut zero_k = sample_problem();
        zero_k.max_groups = 0;
        assert!(zero_k.validate().is_err());

        let mut bad_bounds = sample_problem();
        bad_bounds.min_groups = 5;
        assert!(bad_bounds.validate().is_err());

        let mut bad_threshold = sample_problem();
        bad_threshold.constraints[0].threshold = 1.5;
        assert!(bad_threshold.validate().is_err());

        for weight in [0.0, f64::INFINITY, f64::NAN] {
            let mut bad_weight = sample_problem();
            bad_weight.objectives[0].weight = weight;
            assert!(bad_weight.validate().is_err(), "weight {weight}");
        }
    }

    #[test]
    fn validation_rejects_problems_whose_objective_can_overflow() {
        let params = ProblemParams {
            k: 3,
            min_support: 1,
            user_threshold: 0.5,
            item_threshold: 0.5,
        };
        let objective =
            |function: DualMiningFunction, weight: f64| ObjectiveSpec { function, weight };
        let tags =
            DualMiningFunction::standard(TaggingDimension::Tags, MiningCriterion::Similarity);
        let sum = tags.with_aggregator(Aggregator::Sum);

        // Finite weights whose weighted sum is not: the solve would answer `inf`.
        let overflowing = problem_1(params)
            .with_objective(objective(tags, f64::MAX))
            .with_objective(objective(tags, f64::MAX));
        assert!(overflowing.validate().is_err());
        // One weight at the edge of the margin, and one past it.
        let mut edge = sample_problem();
        edge.objectives[0].weight = f64::MAX / 2.0;
        edge.validate().unwrap();
        edge.objectives[0].weight = f64::MAX / 1.5;
        assert!(edge.validate().is_err());

        // `Sum` adds up to C(k, 2) pair scores: 1e305 is fine for k = 3 (3 pairs), and
        // overflows for k = 1,000 (499,500 pairs) but not under `Mean`.
        let summed = |k: usize, function| {
            TagDmProblem::new("sum", k, 1).with_objective(objective(function, 1e305))
        };
        summed(3, sum).validate().unwrap();
        assert!(summed(1_000, sum).validate().is_err());
        summed(1_000, tags).validate().unwrap();
        // A one-group set has no pairs: its `Sum` is 0 whatever the weight.
        summed(1, sum).validate().unwrap();
    }

    #[test]
    fn objective_is_weighted_sum_of_function_values() {
        let ctx = ctx();
        let mut problem = sample_problem();
        problem.objectives[0].weight = 2.0;
        let set: Vec<usize> = (0..ctx.num_groups().min(3)).collect();
        let raw = problem.objectives[0].function.evaluate(&ctx, &set);
        assert!((problem.objective(&ctx, &set) - 2.0 * raw).abs() < 1e-12);
    }

    #[test]
    fn pairwise_objective_matches_set_objective_for_pairs() {
        let ctx = ctx();
        let problem = sample_problem();
        let pair = [0usize, 1];
        assert!(
            (problem.objective(&ctx, &pair) - problem.pairwise_objective(&ctx, 0, 1)).abs() < 1e-12
        );
    }

    #[test]
    fn feasibility_combines_size_support_and_constraints() {
        let ctx = ctx();
        let problem = sample_problem();
        // Too many groups.
        let too_big: Vec<usize> = (0..ctx.num_groups()).collect();
        assert!(!problem.size_ok(too_big.len()) || too_big.len() <= 3);
        // A pair of groups sharing the user side should satisfy the user-similarity
        // constraint; find one.
        let mut found_feasible = false;
        for a in 0..ctx.num_groups() {
            for b in (a + 1)..ctx.num_groups() {
                let set = [a, b];
                if problem.feasible(&ctx, &set) {
                    found_feasible = true;
                    assert!(problem.support_ok(&ctx, &set));
                    assert!(problem.constraints_satisfied(&ctx, &set));
                }
            }
        }
        assert!(found_feasible, "at least one pair should be feasible");
        // An infeasible support threshold rules everything out.
        let mut strict = problem.clone();
        strict.min_support = 10_000;
        assert!(!strict.feasible(&ctx, &[0, 1]));
    }

    #[test]
    fn criterion_helpers_classify_problems() {
        let problem = sample_problem();
        assert!(problem.maximizes_similarity());
        assert!(!problem.maximizes_diversity());
        assert_eq!(problem.similarity_constraints().count(), 1);
        let desc = problem.describe();
        assert!(desc.contains("users similarity"));
        assert!(desc.contains("tags similarity"));
    }
}
