//! # tagdm
//!
//! A Rust implementation of the **TagDM** social-tagging behaviour analysis framework
//! from *"Who Tags What? An Analysis Framework"* (Das, Thirumuruganathan, Amer-Yahia,
//! Das, Yu — PVLDB 5(11), 2012).
//!
//! This crate is a thin facade over the workspace:
//!
//! * [`data`] (`tagdm-data`) — the tagging data model, describable groups and the
//!   synthetic MovieLens-style corpus generator;
//! * [`topics`] (`tagdm-topics`) — group tag signatures: frequency, tf·idf and LDA;
//! * [`lsh`] (`tagdm-lsh`) — random-hyperplane cosine LSH;
//! * [`geometry`] (`tagdm-geometry`) — distance matrices and the MAX-AVG
//!   facility-dispersion greedy;
//! * [`core`] (`tagdm-core`) — the dual mining framework itself: problems, constraints,
//!   objectives and the Exact / SM-LSH / DV-FDP solvers;
//! * [`engine`] (`tagdm-engine`) — a concurrent mining service: context/outcome caching,
//!   a deadline-aware solver worker pool and built-in metrics;
//! * [`net`] (`tagdm-net`) — a deadline-aware TCP transport for the engine: versioned
//!   JSON frames (`docs/PROTOCOL.md`), a draining server with a supervised acceptor
//!   and a reconnecting blocking client;
//! * [`cluster`] (`tagdm-cluster`) — a consistent-hash sharded routing tier: local
//!   and remote engine shards behind one `Cluster` facade, per-shard circuit
//!   breakers with half-open `PING` probes, and scatter-gather batch dispatch.
//!
//! See the [`prelude`] for the handful of types most programs need, the `examples/`
//! directory for runnable end-to-end scenarios, and the `tagdm-bench` crate for the
//! harness that regenerates every table and figure of the paper.
//!
//! ```
//! use tagdm::prelude::*;
//!
//! // 1. A corpus (here: synthetic MovieLens-style data).
//! let dataset = MovieLensStyleGenerator::new(GeneratorConfig::small()).generate();
//!
//! // 2. Candidate describable groups and their LDA tag signatures.
//! let groups = GroupingScheme::over(&dataset, &[("user", "gender"), ("item", "genre")])
//!     .unwrap()
//!     .min_group_size(5)
//!     .enumerate(&dataset);
//! let ctx = MiningContext::build(&dataset, groups, SummarizerChoice::fast_lda(8));
//!
//! // 3. A problem from the paper's Table 1 and a solver.
//! let params = ProblemParams { k: 3, min_support: 10, user_threshold: 0.3, item_threshold: 0.3 };
//! let outcome = DvFdpSolver::new(ConstraintMode::Fold).solve(&ctx, &catalog::problem_6(params));
//! assert!(outcome.groups.len() <= 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tagdm_cluster as cluster;
pub use tagdm_core as core;
pub use tagdm_data as data;
pub use tagdm_engine as engine;
pub use tagdm_geometry as geometry;
pub use tagdm_lsh as lsh;
pub use tagdm_net as net;
pub use tagdm_topics as topics;

/// The types most TagDM programs need.
pub mod prelude {
    pub use tagdm_cluster::{
        BreakerConfig, BreakerState, Cluster, ClusterConfig, ClusterHealth, SpillPolicy,
    };
    pub use tagdm_core::catalog::{self, ProblemParams};
    pub use tagdm_core::context::{MiningContext, SummarizerChoice};
    pub use tagdm_core::criteria::{Aggregator, MiningCriterion, PairwiseKind, TaggingDimension};
    pub use tagdm_core::evaluation::{self, QualityReport};
    pub use tagdm_core::functions::DualMiningFunction;
    pub use tagdm_core::problem::{ConstraintSpec, ObjectiveSpec, TagDmProblem};
    pub use tagdm_core::solvers::{
        CancelToken, ConstraintMode, DvFdpSolver, ExactSolver, SmLshSolver, Solver, SolverOutcome,
    };
    pub use tagdm_data::dataset::{Dataset, DatasetBuilder};
    pub use tagdm_data::generator::{GeneratorConfig, MovieLensStyleGenerator};
    pub use tagdm_data::group::{GroupingScheme, TaggingActionGroup};
    pub use tagdm_data::predicate::ConjunctivePredicate;
    pub use tagdm_data::query::DatasetQuery;
    pub use tagdm_engine::{
        AdmissionPolicy, Backoff, ContextSpec, Engine, EngineConfig, EngineError, RetryPolicy,
        SolveRequest, SolveResponse, SolverChoice, SupervisorConfig,
    };
    pub use tagdm_net::{
        Client, ClientConfig, HealthReport, HealthStatus, NetError, Server, ServerConfig,
    };
    pub use tagdm_topics::lda::LdaConfig;
    pub use tagdm_topics::signature::TagSignature;
}
