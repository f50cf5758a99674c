//! The workloads and the inputs each one generates from its seed.
//!
//! Corpora are fixed (the generator's own seeds), so every seed loads the program
//! with the same amount of work; the seed draws the traffic: which distinct
//! requests the client sends and in what order. Nothing here is timed.

use tagdm_cluster::{ClusterConfig, HashRing};
use tagdm_core::catalog::{problem, ProblemParams};
use tagdm_core::context::SummarizerChoice;
use tagdm_core::solvers::ConstraintMode;
use tagdm_data::dataset::Dataset;
use tagdm_data::generator::{GeneratorConfig, MovieLensStyleGenerator};
use tagdm_engine::{ContextSpec, SolveRequest, SolverChoice};
use tagdm_topics::lda::LdaConfig;

/// Minimum tuples per candidate group, as in the paper's experiments.
pub const MIN_GROUP: usize = 5;

/// Distinct requests the mine-* client cycles through. Both mine workloads run with
/// an outcome cache of [`MINE_OUTCOME_CACHE`] entries; the cycle is longer than that,
/// so LRU has evicted every answer before its request comes round again.
pub const MINE_OUTCOME_CACHE: usize = 16;
const EXACT_REQUESTS: usize = 20;
const SM_LSH_REQUESTS: usize = 30;
const DV_FDP_REQUESTS: usize = 3;

/// context-churn: visits of each spec per snapshot version, pre-generated snapshots
/// the versions rotate through, and version names. After the last version the
/// traffic wraps round to version 0, so the engine never holds more than
/// `CHURN_VERSIONS` snapshots however fast it answers, and no name is registered
/// twice.
const CHURN_VISITS_PER_VERSION: usize = 4;
const CHURN_SNAPSHOTS: usize = 4;
pub const CHURN_VERSIONS: usize = 16;
const _: () = assert!(CHURN_VERSIONS.is_multiple_of(CHURN_SNAPSHOTS));

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    MineExact,
    MineHeuristic,
    ServeHits,
    ContextChurn,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "mine-exact" => Some(Kind::MineExact),
            "mine-heuristic" => Some(Kind::MineHeuristic),
            "serve-hits" => Some(Kind::ServeHits),
            "context-churn" => Some(Kind::ContextChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::MineExact => "mine-exact",
            Kind::MineHeuristic => "mine-heuristic",
            Kind::ServeHits => "serve-hits",
            Kind::ContextChurn => "context-churn",
        }
    }
}

/// SplitMix64: a tiny deterministic generator for traffic decisions.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Everything a workload sends, generated before set-up.
pub struct Inputs {
    pub kind: Kind,
    /// Datasets registered during set-up.
    pub datasets: Vec<(String, Dataset)>,
    /// Contexts built during set-up.
    pub warm: Vec<ContextSpec>,
    /// The distinct requests of the pool workloads (empty for context-churn).
    pub pool: Vec<SolveRequest>,
    /// The pool indices the client cycles through, in order.
    pub schedule: Vec<usize>,
    pub churn: Option<Churn>,
    /// The context the per-layer probes run on, and its corpus.
    pub probe_spec: ContextSpec,
    pub probe_dataset: Dataset,
    /// Problem parameters of the pinned probe requests.
    pub probe_params: ProblemParams,
}

/// The pinned probe: seed-independent requests over the probe context whose
/// candidate counts are checked against `expected_counts.txt`.
pub fn pinned_requests(spec: &ContextSpec, params: ProblemParams) -> Vec<SolveRequest> {
    let mut requests = vec![SolveRequest::new(
        spec.clone(),
        problem(1, params),
        SolverChoice::ExactCapped(PROBE_EXACT_CAP),
    )];
    for id in 1..=3 {
        requests.push(SolveRequest::new(
            spec.clone(),
            problem(id, params),
            SolverChoice::SmLsh(ConstraintMode::Fold),
        ));
    }
    for id in 4..=6 {
        requests.push(SolveRequest::new(
            spec.clone(),
            problem(id, params),
            SolverChoice::DvFdp(ConstraintMode::Fold),
        ));
    }
    requests
}

/// Candidate budget of the pinned Exact probe, so it stays cheap on large contexts.
const PROBE_EXACT_CAP: u64 = 5_000;

fn medium() -> Dataset {
    MovieLensStyleGenerator::new(GeneratorConfig::medium()).generate()
}

fn small(variant: u64) -> Dataset {
    let config = GeneratorConfig::small();
    let seed = config.seed + variant;
    MovieLensStyleGenerator::new(config.with_seed(seed)).generate()
}

fn params(min_support: usize, threshold: f64) -> ProblemParams {
    ProblemParams {
        k: 3,
        min_support,
        user_threshold: threshold,
        item_threshold: threshold,
    }
}

/// `items` in a seeded order.
fn shuffled(rng: &mut Rng, mut items: Vec<usize>) -> Vec<usize> {
    rng.shuffle(&mut items);
    items
}

pub fn generate(kind: Kind, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed ^ 0x7A6D_BE4C);
    match kind {
        Kind::MineExact => mine_exact(&mut rng),
        Kind::MineHeuristic => mine_heuristic(&mut rng),
        Kind::ServeHits => serve_hits(&mut rng),
        Kind::ContextChurn => context_churn(&mut rng),
    }
}

fn medium_spec(grouping: &[(&str, &str)]) -> ContextSpec {
    ContextSpec::grouped(
        "medium",
        grouping,
        MIN_GROUP,
        SummarizerChoice::Lda(LdaConfig::with_topics(25)),
    )
}

/// Exact over the occupation grouping: thresholds 0 keep every candidate feasible,
/// so each one runs support, constraints and objective; the support threshold makes
/// each request distinct.
fn mine_exact(rng: &mut Rng) -> Inputs {
    let dataset = medium();
    let spec = medium_spec(&[("user", "occupation")]);
    let pool: Vec<SolveRequest> = (0..EXACT_REQUESTS)
        .map(|i| {
            SolveRequest::new(
                spec.clone(),
                problem(1 + i % 6, params(1 + i, 0.0)),
                SolverChoice::Exact,
            )
        })
        .collect();
    let schedule = shuffled(rng, (0..EXACT_REQUESTS).collect());
    Inputs {
        kind: Kind::MineExact,
        probe_params: ProblemParams::paper_defaults(dataset.num_actions()),
        probe_dataset: dataset.clone(),
        datasets: vec![("medium".to_string(), dataset)],
        warm: vec![spec.clone()],
        pool,
        schedule,
        churn: None,
        probe_spec: spec,
    }
}

/// SM-LSH-Fo on P1–P3 and DV-FDP-Fo on P4–P6 at 10:1 over the four-attribute
/// context; the support threshold makes each request distinct.
fn mine_heuristic(rng: &mut Rng) -> Inputs {
    let dataset = medium();
    let spec = medium_spec(&[
        ("user", "gender"),
        ("user", "age"),
        ("user", "occupation"),
        ("item", "genre"),
    ]);
    let base = ProblemParams::paper_defaults(dataset.num_actions());
    let mut pool = Vec::new();
    for i in 0..SM_LSH_REQUESTS {
        let p = params(base.min_support - 20 + i, base.user_threshold);
        pool.push(SolveRequest::new(
            spec.clone(),
            problem(1 + i % 3, p),
            SolverChoice::SmLsh(ConstraintMode::Fold),
        ));
    }
    for i in 0..DV_FDP_REQUESTS {
        let p = params(base.min_support - 20 + i, base.user_threshold);
        pool.push(SolveRequest::new(
            spec.clone(),
            problem(4 + i % 3, p),
            SolverChoice::DvFdp(ConstraintMode::Fold),
        ));
    }
    let schedule = shuffled(rng, (0..pool.len()).collect());
    Inputs {
        kind: Kind::MineHeuristic,
        probe_params: base,
        probe_dataset: dataset.clone(),
        datasets: vec![("medium".to_string(), dataset)],
        warm: vec![spec.clone()],
        pool,
        schedule,
        churn: None,
        probe_spec: spec,
    }
}

/// Grouping subsets of the `small` schema the served and churned specs draw from.
const SMALL_GROUPINGS: [&[(&str, &str)]; 10] = [
    &[("user", "gender"), ("item", "genre")],
    &[("user", "age"), ("item", "genre")],
    &[("user", "occupation")],
    &[("user", "gender"), ("user", "age"), ("item", "genre")],
    &[("user", "occupation"), ("item", "genre")],
    &[("user", "state")],
    &[("item", "actor")],
    &[("user", "age")],
    &[("item", "genre")],
    &[("user", "gender"), ("user", "occupation")],
];

fn small_spec(
    dataset: &str,
    grouping: &[(&str, &str)],
    summarizer: SummarizerChoice,
) -> ContextSpec {
    ContextSpec::grouped(dataset, grouping, MIN_GROUP, summarizer)
}

/// Shard names of the serve-hits cluster, in ring order.
pub const SHARDS: [&str; 2] = ["shard-0", "shard-1"];
const SERVED_SPECS: usize = 7;

/// Table-1 problems over seven warm `small` specs, split across both shards.
fn serve_hits(rng: &mut Rng) -> Inputs {
    let dataset = small(0);
    let config = ClusterConfig::default();
    let mut ring = HashRing::new(config.virtual_nodes, config.seed);
    for (index, name) in SHARDS.iter().enumerate() {
        ring.insert(index, name);
    }
    let mut per_shard = [0usize; 2];
    let mut specs = Vec::new();
    for grouping in SMALL_GROUPINGS {
        let spec = small_spec("small", grouping, SummarizerChoice::Lda(LdaConfig::fast(8)));
        let owner = ring
            .primary(spec.key().as_str())
            .expect("the ring has two shards");
        if specs.len() < SERVED_SPECS && per_shard[owner] < SERVED_SPECS.div_ceil(2) {
            per_shard[owner] += 1;
            specs.push(spec);
        }
    }
    assert_eq!(specs.len(), SERVED_SPECS, "the groupings cover both shards");
    let mut pool = Vec::new();
    for spec in &specs {
        for min_support in [10, 15] {
            for id in 1..=6 {
                pool.push(SolveRequest::new(
                    spec.clone(),
                    problem(id, params(min_support, 0.25)),
                    SolverChoice::Recommended,
                ));
            }
        }
    }
    let schedule = shuffled(rng, (0..pool.len()).collect());
    Inputs {
        kind: Kind::ServeHits,
        probe_params: params(15, 0.25),
        probe_dataset: dataset.clone(),
        datasets: vec![("small".to_string(), dataset)],
        warm: specs.clone(),
        pool,
        schedule,
        churn: None,
        probe_spec: specs[0].clone(),
    }
}

/// context-churn's traffic plan.
pub struct Churn {
    /// Pre-generated snapshots; version `v` registers `snapshots[v % len]`. The
    /// version count is a multiple of their number, so a version wrapping round
    /// keeps its snapshot.
    pub snapshots: Vec<Dataset>,
    /// Every (grouping, summarizer) pair.
    pub templates: Vec<(&'static [(&'static str, &'static str)], SummarizerChoice)>,
    /// The template indices the client walks round-robin, in order.
    pub slots: Vec<usize>,
    pub problems: Vec<tagdm_core::problem::TagDmProblem>,
    seed: u64,
}

/// One context-churn request and what identifies its reference answer.
pub struct ChurnRequest {
    pub version: usize,
    pub template: usize,
    pub problem: usize,
    pub request: SolveRequest,
}

impl Churn {
    pub fn version_name(version: usize) -> String {
        format!("snap-{version}")
    }

    /// The `j`-th request: spec slot `j mod 32`; every four visits of a slot move to
    /// the next of the 16 snapshot versions; the visits of one version ask two
    /// problems, each twice, so about half repeat an answered problem. By the time a
    /// version comes round again its answers have left the outcome cache.
    pub fn request(&self, j: usize) -> ChurnRequest {
        let slot = j % self.slots.len();
        let visit = j / self.slots.len();
        let version = visit / CHURN_VISITS_PER_VERSION % CHURN_VERSIONS;
        let template = self.slots[slot];
        let mut rng = Rng::new(self.seed ^ ((slot as u64) << 32) ^ version as u64);
        let first = rng.below(self.problems.len());
        let second = (first + 1 + rng.below(self.problems.len() - 1)) % self.problems.len();
        let problem = if visit % CHURN_VISITS_PER_VERSION < 2 {
            first
        } else {
            second
        };
        let (grouping, summarizer) = self.templates[template];
        ChurnRequest {
            version,
            template,
            problem,
            request: SolveRequest::new(
                small_spec(&Churn::version_name(version), grouping, summarizer),
                self.problems[problem].clone(),
                SolverChoice::Recommended,
            ),
        }
    }

    /// The reference-answer key of a request.
    pub fn key(&self, request: &ChurnRequest) -> usize {
        ((request.version % self.snapshots.len()) * self.templates.len() + request.template)
            * self.problems.len()
            + request.problem
    }
}

/// 32 specs (8 groupings × 4 LDA settings) over rotating `small` snapshots, twice the
/// default context cache.
fn context_churn(rng: &mut Rng) -> Inputs {
    let snapshots: Vec<Dataset> = (0..CHURN_SNAPSHOTS as u64).map(|i| small(1 + i)).collect();
    let mut summarizers = Vec::new();
    for topics in [8, 10] {
        for seed_shift in [0, 1] {
            let mut config = LdaConfig::fast(topics);
            config.seed ^= seed_shift;
            summarizers.push(SummarizerChoice::Lda(config));
        }
    }
    let groupings = &SMALL_GROUPINGS[..8];
    let mut templates = Vec::new();
    for &summarizer in &summarizers {
        for &grouping in groupings {
            templates.push((grouping, summarizer));
        }
    }
    let slots = shuffled(rng, (0..templates.len()).collect());
    let problems = (1..=6).map(|id| problem(id, params(10, 0.25))).collect();
    let churn = Churn {
        snapshots,
        templates,
        slots,
        problems,
        seed: rng.next_u64(),
    };
    // The first half of the walk, as many contexts as the default cache holds.
    let warm: Vec<ContextSpec> = (0..churn.slots.len() / 2)
        .map(|j| churn.request(j).request.context)
        .collect();
    // The probe context is the same for every seed: the first template on version 0.
    let (grouping, summarizer) = churn.templates[0];
    let probe_spec = small_spec(&Churn::version_name(0), grouping, summarizer);
    let probe_dataset = churn.snapshots[0].clone();
    Inputs {
        kind: Kind::ContextChurn,
        probe_params: params(10, 0.25),
        datasets: vec![(Churn::version_name(0), probe_dataset.clone())],
        probe_spec,
        probe_dataset,
        warm,
        pool: Vec::new(),
        schedule: Vec::new(),
        churn: Some(churn),
    }
}
