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
use crate::spec::{ContextKey, ContextSpec};

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

/// Engine-internal identity of a resolved context: the spec's [`ContextKey`] plus the
/// generation of the registration it resolved against (the dataset for grouped specs,
/// the installation for installed ones). Replacing the data under a name leaves the
/// old cache entries unreachable, so they age out of the LRUs instead of being served.
/// The generation stays out of [`ContextSpec::key`], which names a context for
/// placement (the cluster ring) whatever is registered.
pub(crate) type ContextId = (ContextKey, u64);

/// Key of a cached solver outcome: the context identity plus a canonical rendering of
/// the problem and the solver choice.
pub(crate) type OutcomeKey = (ContextId, String);

/// A resolved context, whether it was a cache hit, and its identity.
pub(crate) type Resolved = (Arc<MiningContext>, bool, ContextId);

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
        self.registration(name).map(|(_, dataset)| dataset)
    }

    /// The generation and dataset registered under `name`. The read guard is confined
    /// to this helper so it never overlaps another lock.
    fn registration(&self, name: &str) -> Option<(u64, Arc<Dataset>)> {
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

    /// Resolve a context spec to a (possibly cached) context. Returns the context,
    /// whether it was a cache hit and its identity; records hit/miss and build-time
    /// metrics.
    pub(crate) fn resolve_context(&self, spec: &ContextSpec) -> Result<Resolved, EngineError> {
        match spec {
            ContextSpec::Installed { name } => {
                let (generation, context) = read_recover(&self.installed)
                    .get(name)
                    .cloned()
                    .ok_or_else(|| EngineError::UnknownContext(name.clone()))?;
                self.metrics.context_lookup(true);
                Ok((context, true, (spec.key(), generation)))
            }
            ContextSpec::Grouped {
                dataset: name,
                summarizer,
                ..
            } => {
                let (generation, dataset) = self
                    .registration(name)
                    .ok_or_else(|| EngineError::UnknownDataset(name.clone()))?;
                let key = (spec.key(), generation);
                if let Some(context) = lock_recover(&self.contexts).get(&key) {
                    self.metrics.context_lookup(true);
                    return Ok((context, true, key));
                }
                // A recipe the summarizer cannot run is the caller's error, answered
                // before any build is claimed.
                if let SummarizerChoice::Lda(config) = summarizer {
                    config.validate().map_err(EngineError::InvalidGrouping)?;
                }
                // Miss: claim the build, or join one already in flight.
                let (slot, is_builder) = {
                    let mut building = lock_recover(&self.building);
                    match building.get(&key) {
                        Some(slot) => (Arc::clone(slot), false),
                        None => {
                            let slot = Arc::new(InFlightBuild::new());
                            building.insert(key.clone(), Arc::clone(&slot));
                            (slot, true)
                        }
                    }
                };
                if !is_builder {
                    self.metrics.context_builds_deduped.inc();
                    self.metrics.context_lookup(false);
                    return slot.wait().map(|context| (context, false, key));
                }
                // Publish on every exit — including an unwind (e.g. a panicking
                // summarizer): the guard's Drop wakes waiters with an error rather
                // than leaving them blocked forever.
                let guard = BuildClaim {
                    state: self,
                    key: Some(key.clone()),
                    slot: &slot,
                };
                let built = self.build_context(spec, &dataset);
                guard.publish(built.clone());
                if let Ok(context) = &built {
                    self.metrics.context_lookup(false);
                    lock_recover(&self.contexts).insert(key.clone(), Arc::clone(context));
                }
                built.map(|context| (context, false, key))
            }
        }
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
    fn release_build_claim(&self, key: &ContextId, slot: &InFlightBuild, result: BuildResult) {
        slot.fill(result);
        lock_recover(&self.building).remove(key);
    }

    /// The outcome-cache key for a request triple.
    pub(crate) fn outcome_key(
        context: &ContextId,
        solver: &SolverChoice,
        problem: &TagDmProblem,
    ) -> OutcomeKey {
        let fingerprint = format!(
            "{}|{}",
            solver.tag(),
            serde_json::to_string(problem).expect("problems serialize infallibly")
        );
        (context.clone(), fingerprint)
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
    key: Option<ContextId>,
    slot: &'a InFlightBuild,
}

impl BuildClaim<'_> {
    fn publish(mut self, result: BuildResult) {
        if let Some(key) = self.key.take() {
            self.state.release_build_claim(&key, self.slot, result);
        }
    }
}

impl Drop for BuildClaim<'_> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.state.release_build_claim(
                &key,
                self.slot,
                Err(EngineError::WorkerPanicked {
                    payload: "context build panicked".to_string(),
                }),
            );
        }
    }
}
