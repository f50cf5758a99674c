//! Solvers for TagDM problem instances.
//!
//! * [`ExactSolver`] — the brute-force baseline of Section 3.1: enumerate every
//!   candidate set of groups, keep the best feasible one. Exponential in `k`.
//! * [`SmLshSolver`] — the SM-LSH family of Section 4 (similarity maximization via
//!   random-hyperplane LSH), with filtering (SM-LSH-Fi) and folding (SM-LSH-Fo)
//!   constraint handling.
//! * [`DvFdpSolver`] — the DV-FDP family of Section 5 (diversity maximization via the
//!   facility dispersion greedy), with filtering (DV-FDP-Fi) and folding (DV-FDP-Fo)
//!   constraint handling.
//!
//! All three value their sets by the one rule of [`DualMiningFunction`] and
//! [`TagDmProblem`], and differ only in where they read pair scores, so every value is
//! bit-identical to scoring the set from scratch. Exact's depth-first search pushes
//! groups in index order and reads each pair's scores from per-solve rows: a group's
//! row holds its scores against every later group, filled the first time the search
//! pushes it below the last depth. The heuristics keep no `n × n` table: they grow a
//! set one group at a time through the shared pair kernel's one `Walk`, which reads
//! each score from a source its caller supplies. DV-FDP's seed scan visits the pairs
//! `(i, j)` for `i in 1..n`, `j in 0..i`, and its walk scores each candidate only
//! against the groups already chosen. SM-LSH's bucket walks visit each bucket's pairs
//! `(a < b)` in bucket order and read objective scores off SM-LSH's kept bucket scores,
//! or score them where they are read when a bucket has none.
//!
//! [`DualMiningFunction`]: crate::functions::DualMiningFunction

mod cancel;
mod dv_fdp;
mod exact;
mod pairs;
mod registry;
pub(crate) mod sm_lsh;

pub use cancel::CancelToken;
pub use dv_fdp::DvFdpSolver;
pub use exact::ExactSolver;
pub use registry::{prescribed_technique, recommend, solution_summary, SolutionRow};
pub use sm_lsh::SmLshSolver;

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::context::MiningContext;
use crate::problem::TagDmProblem;

/// How a solver deals with the problem's hard constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConstraintMode {
    /// Ignore the hard constraints entirely (the plain SM-LSH / DV-FDP algorithms, which
    /// only optimize the mining goal — useful for the theoretical-guarantee setting).
    Ignore,
    /// Post-process candidates and *filter* out those violating a constraint
    /// (the `-Fi` variants of the paper).
    Filter,
    /// *Fold* constraints into the search itself — into the hashed vector for SM-LSH-Fo,
    /// into the greedy admissibility test for DV-FDP-Fo — and post-check the rest
    /// (the `-Fo` variants of the paper).
    Fold,
}

impl ConstraintMode {
    /// Suffix used in solver names (`""`, `"-Fi"`, `"-Fo"`).
    pub fn suffix(self) -> &'static str {
        match self {
            ConstraintMode::Ignore => "",
            ConstraintMode::Filter => "-Fi",
            ConstraintMode::Fold => "-Fo",
        }
    }
}

/// The result of running one solver on one problem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolverOutcome {
    /// Name of the solver that produced the result.
    pub solver: String,
    /// Indices (into the context's group list) of the returned groups; empty for a null
    /// result.
    pub groups: Vec<usize>,
    /// Value of the optimization goal on the returned set.
    pub objective: f64,
    /// Whether the returned set satisfies every hard constraint plus the size and
    /// support requirements.
    pub feasible: bool,
    /// Wall-clock time spent inside the solver.
    pub elapsed: Duration,
    /// Number of candidate sets whose objective/constraints were evaluated (a machine-
    /// independent work measure reported alongside wall-clock time).
    pub candidates_evaluated: u64,
}

impl SolverOutcome {
    /// A null result (no groups found).
    pub fn null(solver: impl Into<String>) -> Self {
        SolverOutcome {
            solver: solver.into(),
            groups: Vec::new(),
            objective: 0.0,
            feasible: false,
            elapsed: Duration::ZERO,
            candidates_evaluated: 0,
        }
    }

    /// The outcome of a solve by `solver` that found `best`, a set and its objective,
    /// whose feasibility it reports, or found nothing: a null outcome. Either way it
    /// carries the solve's count and time.
    pub(crate) fn found(
        solver: String,
        ctx: &MiningContext,
        problem: &TagDmProblem,
        best: Option<(Vec<usize>, f64)>,
        candidates_evaluated: u64,
        elapsed: Duration,
    ) -> Self {
        match best {
            Some((groups, objective)) => SolverOutcome {
                solver,
                feasible: problem.feasible(ctx, &groups),
                groups,
                objective,
                elapsed,
                candidates_evaluated,
            },
            None => SolverOutcome {
                elapsed,
                candidates_evaluated,
                ..SolverOutcome::null(solver)
            },
        }
    }

    /// Whether the solver found any groups at all.
    pub fn is_null(&self) -> bool {
        self.groups.is_empty()
    }
}

/// A TagDM solver.
///
/// Implementations must be `Send + Sync`-compatible value types (plain configuration,
/// no interior mutability) so that a solver can be shared with or rebuilt on worker
/// threads; `tagdm-engine` relies on this.
pub trait Solver {
    /// The solver's display name (e.g. `"SM-LSH-Fo"`).
    fn name(&self) -> String;

    /// Solve `problem` over the candidate groups of `ctx`: a
    /// [`solve_cancellable`](Solver::solve_cancellable) whose token never fires.
    fn solve(&self, ctx: &MiningContext, problem: &TagDmProblem) -> SolverOutcome {
        self.solve_cancellable(ctx, problem, &CancelToken::new())
    }

    /// Solve with a cooperative [`CancelToken`]. When the token fires mid-search the
    /// solver stops at its next checkpoint and returns the best result found so far.
    fn solve_cancellable(
        &self,
        ctx: &MiningContext,
        problem: &TagDmProblem,
        cancel: &CancelToken,
    ) -> SolverOutcome;
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures for solver tests: a small corpus with clear similarity/diversity
    //! structure and a context built over coarse describable groups.

    use crate::catalog::{problem, ProblemParams};
    use crate::context::{MiningContext, SummarizerChoice};
    use crate::criteria::{Aggregator, MiningCriterion, PairwiseKind, TaggingDimension};
    use crate::functions::DualMiningFunction;
    use crate::problem::{ConstraintSpec, TagDmProblem};
    use std::sync::OnceLock;
    use tagdm_data::dataset::{Dataset, DatasetBuilder};
    use tagdm_data::generator::{GeneratorConfig, MovieLensStyleGenerator};
    use tagdm_data::group::{GroupId, GroupingScheme, TaggingActionGroup};
    use tagdm_data::predicate::ConjunctivePredicate;
    use tagdm_topics::lda::LdaConfig;

    /// A hand-built corpus where male/female teens tag comedy and action movies with
    /// deliberately similar (within demographic) and divergent (across demographic) tag
    /// sets, mirroring the paper's Section 2.2 examples.
    pub fn small_dataset() -> Dataset {
        let mut b = DatasetBuilder::movielens_style();
        let mut users = Vec::new();
        for i in 0..4 {
            let gender = if i % 2 == 0 { "male" } else { "female" };
            let state = if i < 2 { "ny" } else { "ca" };
            users.push(
                b.add_user([
                    ("gender", gender),
                    ("age", "under 18"),
                    ("occupation", "k-12 student"),
                    ("state", state),
                ])
                .unwrap(),
            );
        }
        let mut items = Vec::new();
        for g in ["action", "comedy", "drama"] {
            for j in 0..2 {
                items.push(
                    b.add_item([
                        ("genre", g),
                        ("actor", if j == 0 { "a. star" } else { "b. lead" }),
                        ("director", if j == 0 { "x. name" } else { "y. name" }),
                    ])
                    .unwrap(),
                );
            }
        }
        // Males tag action with "gun"/"special effects", females with "violence"/"gory"
        // (the paper's Problem 4 example); everyone tags comedy with "funny"/"light".
        for round in 0..6 {
            for (ui, &u) in users.iter().enumerate() {
                let male = ui % 2 == 0;
                let action_item = items[round % 2];
                let comedy_item = items[2 + round % 2];
                let drama_item = items[4 + round % 2];
                if male {
                    b.add_action_str(u, action_item, &["gun", "special effects"], Some(4.0))
                        .unwrap();
                } else {
                    b.add_action_str(u, action_item, &["violence", "gory"], Some(2.5))
                        .unwrap();
                }
                b.add_action_str(u, comedy_item, &["funny", "light"], Some(3.5))
                    .unwrap();
                b.add_action_str(
                    u,
                    drama_item,
                    if male {
                        &["slow", "moving"]
                    } else {
                        &["moving", "tragic"]
                    },
                    Some(3.0),
                )
                .unwrap();
            }
        }
        b.build()
    }

    /// Context over (gender × genre) groups with frequency signatures — small, fully
    /// deterministic, and with obvious structure for the solvers to find.
    pub fn small_context() -> MiningContext {
        let ds = small_dataset();
        let groups = GroupingScheme::over(
            &ds,
            &[("user", "gender"), ("user", "state"), ("item", "genre")],
        )
        .unwrap()
        .min_group_size(2)
        .enumerate(&ds);
        MiningContext::build(&ds, groups, SummarizerChoice::FrequencyNormalized)
    }

    /// A context over overlapping groups of [`small_dataset`]: everyone, the males, the
    /// comedy taggers and the females tagging action. No enumeration yields such a set,
    /// so its support takes the action-list merge.
    pub fn overlapping_context() -> MiningContext {
        let ds = small_dataset();
        let predicates: [&[(&str, &str, &str)]; 4] = [
            &[],
            &[("user", "gender", "male")],
            &[("item", "genre", "comedy")],
            &[("user", "gender", "female"), ("item", "genre", "action")],
        ];
        let groups = predicates
            .iter()
            .enumerate()
            .map(|(i, conditions)| {
                let predicate = ConjunctivePredicate::parse(&ds, conditions).unwrap();
                TaggingActionGroup::from_predicate(GroupId(i as u32), &ds, predicate)
            })
            .collect();
        MiningContext::build(&ds, groups, SummarizerChoice::FrequencyNormalized)
    }

    /// Groupings of the generator's schema small enough for an oracle run at k = 4.
    pub const GROUPINGS: [&[(&str, &str)]; 4] = [
        &[("user", "gender"), ("item", "genre")],
        &[("user", "occupation")],
        &[("user", "age"), ("user", "gender")],
        &[("item", "genre")],
    ];

    /// A random small corpus of `actions` tagging actions.
    pub fn random_dataset(seed: u64, actions: usize) -> Dataset {
        let config = GeneratorConfig {
            num_actions: actions,
            ..GeneratorConfig::small().with_seed(seed)
        };
        MovieLensStyleGenerator::new(config).generate()
    }

    /// The summarizer of [`random_context`] for `seed`: sparse raw, normalized or tf·idf
    /// frequencies, or dense LDA θ rows, in turn.
    pub fn random_summarizer(seed: u64) -> SummarizerChoice {
        match seed % 4 {
            0 => SummarizerChoice::Frequency,
            1 => SummarizerChoice::FrequencyNormalized,
            2 => SummarizerChoice::TfIdf,
            _ => SummarizerChoice::fast_lda(6),
        }
    }

    /// A random small corpus grouped by one of [`GROUPINGS`] and summarized by
    /// [`random_summarizer`].
    pub fn random_context(seed: u64, actions: usize, grouping: usize) -> MiningContext {
        let ds = random_dataset(seed, actions);
        let groups = GroupingScheme::over(&ds, GROUPINGS[grouping])
            .unwrap()
            .min_group_size(2)
            .enumerate(&ds);
        MiningContext::build(&ds, groups, random_summarizer(seed))
    }

    /// The benchmark's mine-heuristic context: the `medium` corpus grouped by gender,
    /// age, occupation and genre, at least five actions a group, with LDA(25)
    /// signatures. It is built once per test binary and cloned for each caller, so each
    /// starts without kept LSH state.
    pub fn medium_context() -> MiningContext {
        static CONTEXT: OnceLock<MiningContext> = OnceLock::new();
        CONTEXT
            .get_or_init(|| {
                let ds = MovieLensStyleGenerator::new(GeneratorConfig::medium()).generate();
                let groups = GroupingScheme::over(
                    &ds,
                    &[
                        ("user", "gender"),
                        ("user", "age"),
                        ("user", "occupation"),
                        ("item", "genre"),
                    ],
                )
                .unwrap()
                .min_group_size(5)
                .enumerate(&ds);
                MiningContext::build(
                    &ds,
                    groups,
                    SummarizerChoice::Lda(LdaConfig::with_topics(25)),
                )
            })
            .clone()
    }

    /// A context whose item side has more than `MAX_TABLE_CLASSES` description classes,
    /// and so keeps no item similarity table: many items with near-unique (genre, actor,
    /// director) descriptions.
    pub fn wide_items_context() -> MiningContext {
        let (ds, groups) = wide_items_groups();
        MiningContext::build(&ds, groups, SummarizerChoice::fast_lda(4))
    }

    /// The dataset and groups of [`wide_items_context`].
    pub fn wide_items_groups() -> (Dataset, Vec<TaggingActionGroup>) {
        let ds = MovieLensStyleGenerator::new(GeneratorConfig {
            num_items: 1_500,
            num_actions: 3_000,
            num_actors: 150,
            num_directors: 60,
            ..GeneratorConfig::small()
        })
        .generate();
        let groups = GroupingScheme::over(
            &ds,
            &[
                ("user", "gender"),
                ("item", "genre"),
                ("item", "actor"),
                ("item", "director"),
            ],
        )
        .unwrap()
        .enumerate(&ds);
        (ds, groups)
    }

    /// An LDA context over a random corpus with tied signatures: the groups of one of
    /// [`GROUPINGS`], then a copy of each of the first `copies` groups (a duplicated tag
    /// bag) and two empty copies of the first group, whose θ rows are both uniform, so
    /// that their distances to any third group tie exactly. `alpha` scales the
    /// Dirichlet prior; a small one makes θ peaked.
    pub fn lda_ties_context(
        seed: u64,
        actions: usize,
        grouping: usize,
        topics: usize,
        copies: usize,
        alpha: f64,
    ) -> MiningContext {
        let ds = random_dataset(seed, actions);
        let mut groups = GroupingScheme::over(&ds, GROUPINGS[grouping])
            .unwrap()
            .min_group_size(2)
            .enumerate(&ds);
        let n = groups.len();
        let mut extra: Vec<TaggingActionGroup> =
            groups.iter().take(copies.min(n)).cloned().collect();
        if let Some(first) = groups.first() {
            for _ in 0..2 {
                extra.push(TaggingActionGroup::from_actions(
                    first.id,
                    first.description.clone(),
                    &ds,
                    Vec::new(),
                ));
            }
        }
        for (i, mut group) in extra.into_iter().enumerate() {
            group.id = GroupId((n + i) as u32);
            groups.push(group);
        }
        let config = LdaConfig {
            alpha: alpha * LdaConfig::fast(topics).alpha,
            ..LdaConfig::fast(topics)
        };
        MiningContext::build(&ds, groups, SummarizerChoice::Lda(config))
    }

    /// Problems 1–6 of Table 1 under `params`, then problem 1 with its constraints
    /// replaced by one on users' item-set Jaccard similarity and then by one on the
    /// least pairwise item diversity (`Aggregator::Min`).
    pub fn constrained_problems(
        params: ProblemParams,
        jaccard_threshold: f64,
        min_threshold: f64,
    ) -> Vec<TagDmProblem> {
        let mut problems: Vec<TagDmProblem> = (1..=6).map(|id| problem(id, params)).collect();
        let jaccard =
            DualMiningFunction::standard(TaggingDimension::Users, MiningCriterion::Similarity)
                .with_kind(PairwiseKind::ItemSetJaccard);
        let min = DualMiningFunction::standard(TaggingDimension::Items, MiningCriterion::Diversity)
            .with_aggregator(Aggregator::Min);
        for (function, threshold) in [(jaccard, jaccard_threshold), (min, min_threshold)] {
            let mut extra = problems[0].clone();
            extra.constraints = vec![ConstraintSpec {
                function,
                threshold,
            }];
            problems.push(extra);
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{problem_1, ProblemParams};
    use crate::solvers::test_support::{constrained_problems, random_context, GROUPINGS};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // Exact (uncapped and capped) and DV-FDP in every mode report their answer's own
        // objective, bit for bit, and its own feasibility.
        #[test]
        fn prop_exact_and_dv_fdp_answers_report_the_truth(
            seed in 0u64..1_000,
            actions in 40usize..400,
            grouping in 0usize..GROUPINGS.len(),
            k in 1usize..4,
            min_support in 1usize..80,
            threshold in 0.0f64..1.0,
            extra_threshold in 0.0f64..1.0,
            cap in 1u64..40,
        ) {
            let ctx = random_context(seed, actions, grouping);
            let params = ProblemParams {
                k,
                min_support,
                user_threshold: threshold,
                item_threshold: 1.0 - threshold,
            };
            let solvers: [Box<dyn Solver>; 5] = [
                Box::new(ExactSolver::new()),
                Box::new(ExactSolver::with_cap(cap)),
                Box::new(DvFdpSolver::new(ConstraintMode::Ignore)),
                Box::new(DvFdpSolver::new(ConstraintMode::Filter)),
                Box::new(DvFdpSolver::new(ConstraintMode::Fold)),
            ];
            for problem in constrained_problems(params, extra_threshold, extra_threshold) {
                for solver in &solvers {
                    let outcome = solver.solve(&ctx, &problem);
                    let what = format!("{}: {}", solver.name(), problem.describe());
                    prop_assert_eq!(
                        outcome.objective.to_bits(),
                        problem.objective(&ctx, &outcome.groups).to_bits(),
                        "{}", what
                    );
                    prop_assert_eq!(
                        outcome.feasible,
                        problem.feasible(&ctx, &outcome.groups),
                        "{}", what
                    );
                }
            }
        }
    }

    #[test]
    fn constraint_mode_suffixes() {
        assert_eq!(ConstraintMode::Ignore.suffix(), "");
        assert_eq!(ConstraintMode::Filter.suffix(), "-Fi");
        assert_eq!(ConstraintMode::Fold.suffix(), "-Fo");
    }

    #[test]
    fn null_outcome_is_empty_and_infeasible() {
        let outcome = SolverOutcome::null("X");
        assert!(outcome.is_null());
        assert!(!outcome.feasible);
        assert_eq!(outcome.objective, 0.0);
        assert_eq!(outcome.solver, "X");
    }

    #[test]
    fn solver_and_context_types_are_send_and_sync() {
        // tagdm-engine shares contexts across worker threads and rebuilds solvers from
        // plain configuration; this audit keeps every participating type thread-safe.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ExactSolver>();
        assert_send_sync::<SmLshSolver>();
        assert_send_sync::<DvFdpSolver>();
        assert_send_sync::<MiningContext>();
        assert_send_sync::<TagDmProblem>();
        assert_send_sync::<SolverOutcome>();
        assert_send_sync::<CancelToken>();
        assert_send_sync::<Box<dyn Solver + Send + Sync>>();
    }

    #[test]
    fn provided_solve_matches_solve_cancellable() {
        struct Fixed;
        impl Solver for Fixed {
            fn name(&self) -> String {
                "fixed".into()
            }
            fn solve_cancellable(
                &self,
                _ctx: &MiningContext,
                _problem: &TagDmProblem,
                cancel: &CancelToken,
            ) -> SolverOutcome {
                assert!(!cancel.is_cancelled());
                SolverOutcome::null("fixed")
            }
        }
        let ctx = test_support::small_context();
        let problem = problem_1(ProblemParams {
            k: 3,
            min_support: 1,
            user_threshold: 0.0,
            item_threshold: 0.0,
        });
        let token = CancelToken::new();
        let direct = Fixed.solve(&ctx, &problem);
        let cancellable = Fixed.solve_cancellable(&ctx, &problem, &token);
        assert_eq!(direct.solver, cancellable.solver);
        assert_eq!(direct.groups, cancellable.groups);
    }
}
