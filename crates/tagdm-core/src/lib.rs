//! # tagdm-core
//!
//! The **TagDM** (Tagging Behaviour Dual Mining) framework of "Who Tags What? An
//! Analysis Framework" (Das et al., PVLDB 5(11), 2012), on top of the substrates in
//! `tagdm-data`, `tagdm-topics` and `tagdm-lsh`. `tagdm-geometry`'s dispersion greedy
//! is used only in tests, as the reference DV-FDP is checked against.
//!
//! A TagDM problem (Definition 4 of the paper) asks for a set of *describable*
//! tagging-action groups `G_opt = {g_1, g_2, …}` such that
//!
//! * `k_lo ≤ |G_opt| ≤ k_hi`,
//! * the [group support](tagdm_data::group::group_support) of `G_opt` is at least `p`,
//! * every constraint `c_i.F(G_opt, b, m) ≥ threshold` holds, and
//! * the weighted sum of objective functions `Σ o_j.F(G_opt, b, m)` is maximized,
//!
//! where `b ∈ {users, items, tags}` is a tagging dimension and `m ∈ {similarity,
//! diversity}` a dual mining criterion. The decision version is NP-complete (Theorem 1;
//! see [`complexity`] for the executable reduction), so besides the brute-force
//! [`solvers::ExactSolver`] the crate implements the paper's two efficient algorithm
//! families: locality-sensitive-hashing based ([`solvers::SmLshSolver`], Section 4) for
//! tag-similarity maximization and facility-dispersion based
//! ([`solvers::DvFdpSolver`], Section 5) for tag-diversity maximization, each with
//! *filtering* and *folding* constraint handling.
//!
//! ## Quick example
//!
//! ```
//! use tagdm_core::catalog::{self, ProblemParams};
//! use tagdm_core::context::{MiningContext, SummarizerChoice};
//! use tagdm_core::solvers::{DvFdpSolver, ConstraintMode, Solver};
//! use tagdm_data::generator::{GeneratorConfig, MovieLensStyleGenerator};
//! use tagdm_data::group::GroupingScheme;
//!
//! let dataset = MovieLensStyleGenerator::new(GeneratorConfig::small()).generate();
//! let groups = GroupingScheme::over(&dataset, &[("user", "gender"), ("user", "age"), ("item", "genre")])
//!     .unwrap()
//!     .min_group_size(5)
//!     .enumerate(&dataset);
//! let ctx = MiningContext::build(&dataset, groups, SummarizerChoice::fast_lda(8));
//!
//! // Problem 6 of Table 1: similar users, similar items, maximally diverse tags.
//! let params = ProblemParams { k: 3, min_support: 10, user_threshold: 0.3, item_threshold: 0.3 };
//! let problem = catalog::problem_6(params);
//! let outcome = DvFdpSolver::new(ConstraintMode::Fold).solve(&ctx, &problem);
//! assert!(outcome.groups.len() <= 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod complexity;
pub mod context;
pub mod criteria;
pub mod evaluation;
pub mod functions;
pub mod problem;
pub mod solvers;

pub use catalog::ProblemParams;
pub use context::{MiningContext, SummarizerChoice};
pub use criteria::{Aggregator, MiningCriterion, PairwiseKind, TaggingDimension};
pub use problem::{ConstraintSpec, ObjectiveSpec, TagDmProblem};
pub use solvers::{ConstraintMode, DvFdpSolver, ExactSolver, SmLshSolver, Solver, SolverOutcome};
