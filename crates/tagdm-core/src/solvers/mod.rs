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

mod cancel;
mod dv_fdp;
mod exact;
mod registry;
mod sm_lsh;

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

/// Greedily walk `candidates` by the problem's pairwise objective: seed with the best
/// admissible pair, then repeatedly add the admissible candidate with the largest total
/// pairwise objective to the groups already chosen, until `limit` groups are chosen or
/// no candidate is admissible. `admit` is asked about every trial set (a seed pair, or
/// the chosen groups plus one candidate).
///
/// Returns the groups in the order they were chosen, or nothing when `limit < 2` or no
/// pair is admissible. A larger `limit` only runs more iterations of the same loop, so
/// the first `s ≥ 2` groups of a walk are the walk to `s`. The SM-LSH bucket refinement
/// relies on that to serve every refined size from one walk.
pub(crate) fn greedy_walk(
    ctx: &MiningContext,
    problem: &TagDmProblem,
    candidates: &[usize],
    limit: usize,
    mut admit: impl FnMut(&[usize]) -> bool,
) -> Vec<usize> {
    if limit < 2 || candidates.len() < 2 {
        return Vec::new();
    }
    let mut best_pair: Option<(usize, usize, f64)> = None;
    for (i, &a) in candidates.iter().enumerate() {
        for &b in &candidates[i + 1..] {
            if !admit(&[a, b]) {
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
    let mut walk = vec![a, b];
    while walk.len() < limit {
        let mut best: Option<(usize, f64)> = None;
        for &candidate in candidates {
            if walk.contains(&candidate) {
                continue;
            }
            walk.push(candidate);
            let admitted = admit(&walk);
            walk.pop();
            if !admitted {
                continue;
            }
            let gain: f64 = walk
                .iter()
                .map(|&s| problem.pairwise_objective(ctx, candidate, s))
                .sum();
            if best.is_none_or(|(_, g)| gain > g) {
                best = Some((candidate, gain));
            }
        }
        match best {
            Some((candidate, _)) => walk.push(candidate),
            None => break,
        }
    }
    walk
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures for solver tests: a small corpus with clear similarity/diversity
    //! structure and a context built over coarse describable groups.

    use crate::context::{MiningContext, SummarizerChoice};
    use tagdm_data::dataset::{Dataset, DatasetBuilder};
    use tagdm_data::generator::{GeneratorConfig, MovieLensStyleGenerator};
    use tagdm_data::group::GroupingScheme;

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

    /// Groupings of the generator's schema small enough for an oracle run at k = 4.
    pub const GROUPINGS: [&[(&str, &str)]; 4] = [
        &[("user", "gender"), ("item", "genre")],
        &[("user", "occupation")],
        &[("user", "age"), ("user", "gender")],
        &[("item", "genre")],
    ];

    /// A random small corpus grouped by one of [`GROUPINGS`].
    pub fn random_context(seed: u64, actions: usize, grouping: usize) -> MiningContext {
        let config = GeneratorConfig {
            num_actions: actions,
            ..GeneratorConfig::small().with_seed(seed)
        };
        let ds = MovieLensStyleGenerator::new(config).generate();
        let groups = GroupingScheme::over(&ds, GROUPINGS[grouping])
            .unwrap()
            .min_group_size(2)
            .enumerate(&ds);
        MiningContext::build(&ds, groups, SummarizerChoice::Frequency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{problem, problem_1, ProblemParams};
    use proptest::prelude::*;

    /// The oracle for the unconstrained [`greedy_walk`], run afresh for each size
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

    /// The oracle for the constrained [`greedy_walk`]: grow the set greedily by pairwise
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

    #[test]
    fn greedy_selection_returns_bounded_distinct_sets() {
        let ctx = test_support::small_context();
        let problem = problem_1(ProblemParams {
            k: 3,
            min_support: 1,
            user_threshold: 0.0,
            item_threshold: 0.0,
        });
        let candidates: Vec<usize> = (0..ctx.num_groups()).collect();
        let mut picked = greedy_walk(&ctx, &problem, &candidates, 3, |_| true);
        assert_eq!(picked.len(), 3.min(ctx.num_groups()));
        picked.sort_unstable();
        picked.dedup();
        assert_eq!(picked.len(), 3.min(ctx.num_groups()));
        // A walk whose limit exceeds the candidate list takes every candidate.
        assert_eq!(
            greedy_walk(&ctx, &problem, &[1, 2], 3, |_| true),
            vec![1, 2]
        );
        for limit in [0, 1] {
            assert!(greedy_walk(&ctx, &problem, &candidates, limit, |_| true).is_empty());
        }
        assert!(greedy_walk(&ctx, &problem, &candidates, 3, |_| false).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // Sorted prefixes of one unconstrained walk equal the per-size greedy, and the
        // sorted constrained walk equals the constraint-aware greedy, on random
        // candidate lists drawn from random small corpora.
        #[test]
        fn prop_greedy_walk_matches_the_per_size_greedies(
            seed in 0u64..1_000,
            actions in 40usize..400,
            grouping in 0usize..test_support::GROUPINGS.len() + 1,
            id in 1usize..7,
            picks in proptest::collection::vec(0usize..64, 0..12),
            limit in 0usize..7,
            threshold in 0.0f64..1.0,
        ) {
            // The last grouping index draws the hand-built corpus: its groups with
            // equal signatures tie, which exercises the walk's tie-breaking.
            let ctx = if grouping == test_support::GROUPINGS.len() {
                test_support::small_context()
            } else {
                test_support::random_context(seed, actions, grouping)
            };
            let n = ctx.num_groups();
            let mut candidates: Vec<usize> = Vec::new();
            for g in picks.iter().filter(|_| n > 0).map(|p| p % n) {
                if !candidates.contains(&g) {
                    candidates.push(g);
                }
            }
            let problem = problem(id, ProblemParams {
                k: 3,
                min_support: 1,
                user_threshold: threshold,
                item_threshold: 1.0 - threshold,
            });

            let walk = greedy_walk(&ctx, &problem, &candidates, limit, |_| true);
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

            let mut constrained = greedy_walk(&ctx, &problem, &candidates, limit, |set| {
                problem.constraints_satisfied(&ctx, set)
            });
            constrained.sort_unstable();
            prop_assert_eq!(
                constrained,
                greedy_select_feasible(&ctx, &problem, &candidates, limit)
            );
        }
    }
}
