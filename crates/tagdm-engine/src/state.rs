//! Shared engine state: the dataset registry, the memoization caches and the metrics.
//!
//! One `EngineState` is shared (via `Arc`) between the public [`Engine`](crate::Engine)
//! handle and every worker thread. Locks are held only for lookups and insertions —
//! never across a context build or a solve — so workers serialize on the caches for
//! microseconds at a time. Workers racing on the same missing context are deduplicated
//! through an in-flight build registry: the first miss claims the build, concurrent
//! misses block on its result (counted as `context_builds_deduped` in the metrics), and
//! a failed or panicked build wakes every waiter with the error instead of leaving them
//! hanging.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Instant;

use tagdm_core::context::{MiningContext, SummarizerChoice};
use tagdm_core::problem::TagDmProblem;
use tagdm_core::solvers::SolverOutcome;
use tagdm_data::dataset::Dataset;
use tagdm_data::group::GroupingScheme;

use crate::cache::LruCache;
use crate::error::EngineError;
use crate::failpoint;
use crate::job::SolverChoice;
use crate::metrics::EngineMetrics;
use crate::spec::ContextSpec;

/// Acquire a mutex, recovering the guard if a previous holder panicked.
///
/// The three `*_recover` helpers below are the designated lock-acquisition path for
/// the whole workspace (they are re-exported at the crate root so `tagdm-net` and
/// friends share them) — `tagdm-lint` rule LK01 rejects `.lock().unwrap()` (and the
/// `.expect(..)` spelling) everywhere else. Poison recovery is sound here because
/// every structure these locks guard is a plain container (maps, LRU lists, a job
/// deque) with no cross-field invariant a panicking holder could leave half-written,
/// and because the alternative — propagating the poison panic — would turn one caught
/// worker panic into a permanent denial of service for every later caller on the same
/// lock.
pub fn lock_recover<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Acquire an `RwLock` for reading, recovering from poisoning; see [`lock_recover`].
pub fn read_recover<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Acquire an `RwLock` for writing, recovering from poisoning; see [`lock_recover`].
pub fn write_recover<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Engine-internal identity of a resolved context: the spec itself plus the generation
/// of the registration it resolved against (the dataset for grouped specs, the
/// installation for installed ones). Replacing the data under a name leaves the old
/// cache entries unreachable, so they age out of the LRUs instead of being served.
/// Hashed and compared by value, floats by their bits, so two specs share an entry
/// only when every field is equal.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct ContextId {
    pub(crate) spec: ContextSpec,
    pub(crate) generation: u64,
}

/// Key of a cached solver outcome: the context identity, the solver choice and the
/// problem, moved out of the request that first asked for them.
#[derive(PartialEq, Eq, Hash)]
pub(crate) struct OutcomeKey {
    pub(crate) context: ContextId,
    pub(crate) solver: SolverChoice,
    pub(crate) problem: TagDmProblem,
}

/// What a spec's name is registered as, read once per request: the dataset a grouped
/// spec builds from, or the installed context itself.
pub(crate) enum Registration {
    Dataset(Arc<Dataset>),
    Installed(Arc<MiningContext>),
}

type BuildResult = Result<Arc<MiningContext>, EngineError>;

/// One in-flight context build: the builder fills `result` and notifies; waiters block
/// on the condvar until it is filled.
struct InFlightBuild {
    result: Mutex<Option<BuildResult>>,
    done: Condvar,
}

impl InFlightBuild {
    fn new() -> Self {
        InFlightBuild {
            result: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn wait(&self) -> BuildResult {
        let mut slot = lock_recover(&self.result);
        loop {
            match slot.as_ref() {
                Some(result) => return result.clone(),
                None => slot = self.done.wait(slot).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }

    fn fill(&self, result: BuildResult) {
        *lock_recover(&self.result) = Some(result);
        self.done.notify_all();
    }
}

pub(crate) struct EngineState {
    /// Registered datasets with their registration generations.
    datasets: RwLock<HashMap<String, (u64, Arc<Dataset>)>>,
    /// Pre-built contexts pinned under explicit names (never LRU-evicted), with their
    /// installation generations.
    installed: RwLock<HashMap<String, (u64, Arc<MiningContext>)>>,
    /// Source of registration generations, shared by datasets and installed contexts.
    generations: AtomicU64,
    contexts: Mutex<LruCache<ContextId, Arc<MiningContext>>>,
    /// Context builds currently running, for racing misses to wait on instead of
    /// duplicating the work.
    building: Mutex<HashMap<ContextId, Arc<InFlightBuild>>>,
    outcomes: Mutex<LruCache<OutcomeKey, SolverOutcome>>,
    pub(crate) metrics: EngineMetrics,
}

impl EngineState {
    pub(crate) fn new(context_capacity: usize, outcome_capacity: usize) -> Self {
        EngineState {
            datasets: RwLock::new(HashMap::new()),
            installed: RwLock::new(HashMap::new()),
            generations: AtomicU64::new(0),
            contexts: Mutex::new(LruCache::new(context_capacity)),
            building: Mutex::new(HashMap::new()),
            outcomes: Mutex::new(LruCache::new(outcome_capacity)),
            metrics: EngineMetrics::default(),
        }
    }

    fn next_generation(&self) -> u64 {
        self.generations.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn register_dataset(&self, name: String, dataset: Dataset) -> Arc<Dataset> {
        let dataset = Arc::new(dataset);
        let generation = self.next_generation();
        write_recover(&self.datasets).insert(name, (generation, Arc::clone(&dataset)));
        dataset
    }

    pub(crate) fn dataset(&self, name: &str) -> Option<Arc<Dataset>> {
        self.dataset_registration(name).map(|(_, dataset)| dataset)
    }

    /// The generation and dataset registered under `name`. The read guard is confined
    /// to this helper so it never overlaps another lock.
    fn dataset_registration(&self, name: &str) -> Option<(u64, Arc<Dataset>)> {
        read_recover(&self.datasets).get(name).cloned()
    }

    pub(crate) fn dataset_names(&self) -> Vec<String> {
        let mut names: Vec<String> = read_recover(&self.datasets).keys().cloned().collect();
        names.sort();
        names
    }

    pub(crate) fn install_context(
        &self,
        name: String,
        context: MiningContext,
    ) -> Arc<MiningContext> {
        let context = Arc::new(context);
        let generation = self.next_generation();
        write_recover(&self.installed).insert(name, (generation, Arc::clone(&context)));
        context
    }

    /// The generation and registration a spec's name resolves to right now.
    pub(crate) fn registration(
        &self,
        spec: &ContextSpec,
    ) -> Result<(u64, Registration), EngineError> {
        match spec {
            ContextSpec::Installed { name } => read_recover(&self.installed)
                .get(name)
                .map(|(generation, context)| {
                    (*generation, Registration::Installed(Arc::clone(context)))
                })
                .ok_or_else(|| EngineError::UnknownContext(name.clone())),
            ContextSpec::Grouped { dataset: name, .. } => self
                .dataset_registration(name)
                .map(|(generation, dataset)| (generation, Registration::Dataset(dataset)))
                .ok_or_else(|| EngineError::UnknownDataset(name.clone())),
        }
    }

    /// Resolve a context identity to a (possibly cached) context, given the
    /// registration its generation was read from. Returns the context and whether it
    /// was a cache hit; records hit/miss and build-time metrics.
    pub(crate) fn resolve_context(
        &self,
        id: &ContextId,
        registration: Registration,
    ) -> Result<(Arc<MiningContext>, bool), EngineError> {
        let dataset = match registration {
            Registration::Installed(context) => {
                self.metrics.context_lookup(true);
                return Ok((context, true));
            }
            Registration::Dataset(dataset) => dataset,
        };
        if let Some(context) = lock_recover(&self.contexts).get(id) {
            self.metrics.context_lookup(true);
            return Ok((context, true));
        }
        // A recipe the summarizer cannot run is the caller's error, answered before
        // any build is claimed.
        if let ContextSpec::Grouped {
            summarizer: SummarizerChoice::Lda(config),
            ..
        } = &id.spec
        {
            config.validate().map_err(EngineError::InvalidGrouping)?;
        }
        // Miss: claim the build, or join one already in flight.
        let (slot, is_builder) = {
            let mut building = lock_recover(&self.building);
            match building.get(id) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(InFlightBuild::new());
                    building.insert(id.clone(), Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        if !is_builder {
            self.metrics.context_builds_deduped.inc();
            self.metrics.context_lookup(false);
            return slot.wait().map(|context| (context, false));
        }
        // Publish on every exit — including an unwind (e.g. a panicking summarizer):
        // the guard's Drop wakes waiters with an error rather than leaving them
        // blocked forever.
        let guard = BuildClaim {
            state: self,
            id: Some(id),
            slot: &slot,
        };
        let built = self.build_context(&id.spec, &dataset);
        guard.publish(built.clone());
        if let Ok(context) = &built {
            self.metrics.context_lookup(false);
            lock_recover(&self.contexts).insert(id.clone(), Arc::clone(context));
        }
        built.map(|context| (context, false))
    }

    /// Run one grouped-context build over `dataset` (the caller holds the in-flight
    /// claim).
    fn build_context(&self, spec: &ContextSpec, dataset: &Dataset) -> BuildResult {
        let ContextSpec::Grouped {
            grouping,
            min_group_size,
            summarizer,
            ..
        } = spec
        else {
            unreachable!("only grouped specs are built");
        };
        failpoint::check(failpoint::site::CONTEXT_BUILD)?;
        let started = Instant::now();
        let attrs: Vec<(&str, &str)> = grouping
            .iter()
            .map(|(dim, attr)| (dim.as_str(), attr.as_str()))
            .collect();
        let groups = GroupingScheme::over(dataset, &attrs)
            .map_err(|e| EngineError::InvalidGrouping(e.to_string()))?
            .min_group_size(*min_group_size)
            .enumerate(dataset);
        let context = Arc::new(MiningContext::build(dataset, groups, *summarizer));
        self.metrics.context_build.record(started.elapsed());
        Ok(context)
    }

    /// Deregister an in-flight build claim, filling its slot so waiters wake.
    fn release_build_claim(&self, id: &ContextId, slot: &InFlightBuild, result: BuildResult) {
        slot.fill(result);
        lock_recover(&self.building).remove(id);
    }

    /// Look up a cached outcome, recording the hit/miss.
    pub(crate) fn lookup_outcome(&self, key: &OutcomeKey) -> Option<SolverOutcome> {
        let cached = lock_recover(&self.outcomes).get(key);
        self.metrics.outcome_lookup(cached.is_some());
        cached
    }

    pub(crate) fn store_outcome(&self, key: OutcomeKey, outcome: SolverOutcome) {
        lock_recover(&self.outcomes).insert(key, outcome);
    }
}

/// The builder's claim on an in-flight context build. Normal exits publish the build
/// result explicitly; if the build unwinds instead (a panicking summarizer, an
/// injected `state.context_build` panic), `Drop` publishes a `WorkerPanicked` error so
/// deduplicated waiters wake with a failure instead of blocking forever.
struct BuildClaim<'a> {
    state: &'a EngineState,
    id: Option<&'a ContextId>,
    slot: &'a InFlightBuild,
}

impl BuildClaim<'_> {
    fn publish(mut self, result: BuildResult) {
        if let Some(id) = self.id.take() {
            self.state.release_build_claim(id, self.slot, result);
        }
    }
}

impl Drop for BuildClaim<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id.take() {
            self.state.release_build_claim(
                id,
                self.slot,
                Err(EngineError::WorkerPanicked {
                    payload: "context build panicked".to_string(),
                }),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    use proptest::collection::vec;
    use proptest::prelude::*;
    use tagdm_core::criteria::{Aggregator, MiningCriterion, PairwiseKind, TaggingDimension};
    use tagdm_core::functions::DualMiningFunction;
    use tagdm_core::problem::{ConstraintSpec, ObjectiveSpec};
    use tagdm_core::solvers::ConstraintMode;
    use tagdm_topics::lda::LdaConfig;

    use super::*;
    use crate::spec::ContextKey;

    /// Names: the first three hold none of the old key's separators.
    const NAMES: [&str; 7] = ["ml", "ml2", "user", "a|b", "a.b", "x,y", "u:v"];
    /// Groupings, among them pairs that render alike in the old key
    /// (`user.gender,item.genre`, `user.gender.age`).
    const GROUPINGS: [&[(&str, &str)]; 8] = [
        &[],
        &[("user", "gender")],
        &[("user", "gender"), ("item", "genre")],
        &[("user", "gender,item.genre")],
        &[("item", "genre"), ("user", "gender")],
        &[("user", "age")],
        &[("user.gender", "age")],
        &[("user", "gender.age")],
    ];
    /// Thresholds, weights and priors: ±0.0, subnormals, ordinary values, NaNs with
    /// two payloads and an infinity.
    const FLOATS: [f64; 11] = [
        0.0,
        -0.0,
        5e-324,
        1.5e-310,
        f64::MIN_POSITIVE,
        0.2,
        0.5,
        1.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
    ];
    const PICKS: usize = 36;

    /// Draws fields from small pools, so that requests built from picks that differ in
    /// one place are often equal, or render equal old keys.
    struct Picker<'a>(std::slice::Iter<'a, usize>);

    impl Picker<'_> {
        fn below(&mut self, n: usize) -> usize {
            self.0.next().expect("enough picks") % n
        }

        fn float(&mut self) -> f64 {
            FLOATS[self.below(FLOATS.len())]
        }

        fn name(&mut self) -> String {
            NAMES[self.below(NAMES.len())].to_string()
        }

        fn function(&mut self) -> DualMiningFunction {
            let dimension = [
                TaggingDimension::Users,
                TaggingDimension::Items,
                TaggingDimension::Tags,
            ][self.below(3)];
            let criterion =
                [MiningCriterion::Similarity, MiningCriterion::Diversity][self.below(2)];
            let aggregator = [Aggregator::Mean, Aggregator::Sum][self.below(2)];
            let kind = [
                PairwiseKind::default_for(dimension),
                PairwiseKind::ItemSetJaccard,
            ][self.below(2)];
            DualMiningFunction::standard(dimension, criterion)
                .with_kind(kind)
                .with_aggregator(aggregator)
        }

        fn summarizer(&mut self) -> SummarizerChoice {
            let mut lda = LdaConfig::with_topics(25);
            match self.below(7) {
                0 => return SummarizerChoice::Frequency,
                1 => return SummarizerChoice::FrequencyNormalized,
                2 => return SummarizerChoice::TfIdf,
                3 => {}
                4 => lda.seed ^= 1,
                5 => lda.alpha = self.float(),
                _ => lda.beta = self.float(),
            }
            SummarizerChoice::Lda(lda)
        }

        fn solver(&mut self) -> SolverChoice {
            let mode = [
                ConstraintMode::Ignore,
                ConstraintMode::Filter,
                ConstraintMode::Fold,
            ][self.below(3)];
            match self.below(5) {
                0 => SolverChoice::Exact,
                1 => SolverChoice::ExactCapped(self.below(2) as u64 * 100),
                2 => SolverChoice::SmLsh(mode),
                3 => SolverChoice::DvFdp(mode),
                _ => SolverChoice::Recommended,
            }
        }

        fn key(&mut self) -> OutcomeKey {
            let spec = if self.below(4) == 0 {
                ContextSpec::installed(self.name())
            } else {
                let dataset = self.name();
                let grouping = GROUPINGS[self.below(GROUPINGS.len())];
                ContextSpec::grouped(dataset, grouping, self.below(2), self.summarizer())
            };
            let context = ContextId {
                spec,
                generation: self.below(2) as u64,
            };
            let solver = self.solver();
            let mut problem = TagDmProblem::new(["P1", "P|1"][self.below(2)], 3, self.below(2))
                .with_min_groups(1 + self.below(2));
            for _ in 0..self.below(3) {
                let function = self.function();
                problem = problem.with_constraint(ConstraintSpec {
                    function,
                    threshold: self.float(),
                });
            }
            for _ in 0..1 + self.below(2) {
                let function = self.function();
                problem = problem.with_objective(ObjectiveSpec {
                    function,
                    weight: self.float(),
                });
            }
            OutcomeKey {
                context,
                solver,
                problem,
            }
        }
    }

    fn key_from(picks: &[usize]) -> OutcomeKey {
        Picker(picks.iter()).key()
    }

    /// The context key the engine used before typed keys.
    fn old_context_key(id: &ContextId) -> (ContextKey, u64) {
        (id.spec.key(), id.generation)
    }

    /// The outcome key the engine used before typed keys.
    fn old_outcome_key(key: &OutcomeKey) -> ((ContextKey, u64), String) {
        let fingerprint = format!(
            "{}|{}",
            key.solver.tag(),
            serde_json::to_string(&key.problem).expect("problems serialize")
        );
        (old_context_key(&key.context), fingerprint)
    }

    fn hash_of(value: &impl Hash) -> u64 {
        let mut hasher = DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    /// Whether every float is finite and every name free of the old key's separators:
    /// where the old key was injective.
    fn plain(key: &OutcomeKey) -> bool {
        let clean = |name: &str| !name.contains(['|', ',', '.', ':']);
        let names = match &key.context.spec {
            ContextSpec::Installed { name } => clean(name),
            ContextSpec::Grouped {
                dataset, grouping, ..
            } => clean(dataset) && grouping.iter().all(|(d, a)| clean(d) && clean(a)),
        };
        let priors = match &key.context.spec {
            ContextSpec::Grouped {
                summarizer: SummarizerChoice::Lda(lda),
                ..
            } => lda.alpha.is_finite() && lda.beta.is_finite(),
            _ => true,
        };
        let problem = &key.problem;
        names
            && priors
            && problem.constraints.iter().all(|c| c.threshold.is_finite())
            && problem.objectives.iter().all(|o| o.weight.is_finite())
    }

    // Two requests share a typed key only if their old string keys are equal, and where
    // the old key was injective they share one whenever those are equal.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16384))]

        #[test]
        fn prop_typed_keys_agree_with_the_old_string_keys(
            picks in vec(0..840usize, PICKS),
            at in 0..PICKS + 1,
            fresh in 0..840usize,
        ) {
            let mut other = picks.clone();
            if let Some(pick) = other.get_mut(at) {
                *pick = fresh;
            }
            let (a, b) = (key_from(&picks), key_from(&other));
            let contexts = (a.context == b.context, old_context_key(&a.context) == old_context_key(&b.context));
            let outcomes = (a == b, old_outcome_key(&a) == old_outcome_key(&b));
            if contexts.0 {
                prop_assert!(contexts.1);
                prop_assert_eq!(hash_of(&a.context), hash_of(&b.context));
            }
            if outcomes.0 {
                prop_assert!(outcomes.1);
                prop_assert_eq!(hash_of(&a), hash_of(&b));
            }
            if plain(&a) && plain(&b) {
                prop_assert_eq!(contexts.0, contexts.1);
                prop_assert_eq!(outcomes.0, outcomes.1);
            }
        }
    }

    #[test]
    fn floats_key_by_their_bits() {
        let picks = [0; PICKS];
        let base = key_from(&picks);
        let with_threshold = |threshold: f64| {
            let mut problem = base.problem.clone();
            problem.constraints = vec![ConstraintSpec {
                function: base.problem.objectives[0].function,
                threshold,
            }];
            problem
        };
        // ±0.0 render and key apart; two NaN payloads render alike but key apart.
        assert_ne!(with_threshold(0.0), with_threshold(-0.0));
        assert_ne!(with_threshold(f64::NAN), with_threshold(-f64::NAN));
        assert_eq!(with_threshold(f64::NAN), with_threshold(f64::NAN));
        assert_eq!(
            hash_of(&with_threshold(f64::NAN)),
            hash_of(&with_threshold(f64::NAN))
        );
        assert_eq!(with_threshold(5e-324), with_threshold(5e-324));
        assert_ne!(with_threshold(5e-324), with_threshold(0.0));
        // LDA configs that differ only in the seed are different contexts.
        let mut seeded = LdaConfig::with_topics(25);
        seeded.seed ^= 1;
        assert_ne!(LdaConfig::with_topics(25), seeded);
        assert_eq!(LdaConfig::with_topics(25), LdaConfig::with_topics(25));
    }
}
