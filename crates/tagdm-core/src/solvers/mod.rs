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
//! All three score sets through one per-solve pair kernel (`pairs`) and keep no
//! `n × n` table. A set grows one group at a time, and a new group is scored only
//! against the groups already in it, once per constraint or objective function, into
//! a `k × k` table per function. A set's value is that table's `(i < j)` entries read
//! in row-major order, the pair order of [`DualMiningFunction::evaluate`], and
//! aggregated. That makes it bit-identical to scoring the set from scratch. Exact's
//! depth-first search pushes groups in index order. DV-FDP's seed scan visits the
//! pairs `(i, j)` for `i in 1..n`, `j in 0..i`. SM-LSH's bucket walks visit each
//! bucket's pairs `(a < b)` in bucket order. Both greedies then add groups through the
//! kernel's shared `Walk`.
//!
//! [`DualMiningFunction::evaluate`]: crate::functions::DualMiningFunction::evaluate

mod cancel;
mod dv_fdp;
mod exact;
mod pairs;
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
    use crate::catalog::{problem_1, ProblemParams};

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
