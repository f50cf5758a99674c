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
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Instant;

use tagdm_core::context::MiningContext;
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

/// Key of a cached solver outcome: the context identity plus a canonical rendering of
/// the problem and the solver choice.
pub(crate) type OutcomeKey = (ContextKey, String);

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
    datasets: RwLock<HashMap<String, Arc<Dataset>>>,
    /// Pre-built contexts pinned under explicit names (never LRU-evicted).
    installed: RwLock<HashMap<String, Arc<MiningContext>>>,
    contexts: Mutex<LruCache<ContextKey, Arc<MiningContext>>>,
    /// Context builds currently running, for racing misses to wait on instead of
    /// duplicating the work.
    building: Mutex<HashMap<ContextKey, Arc<InFlightBuild>>>,
    outcomes: Mutex<LruCache<OutcomeKey, SolverOutcome>>,
    pub(crate) metrics: EngineMetrics,
}

impl EngineState {
    pub(crate) fn new(context_capacity: usize, outcome_capacity: usize) -> Self {
        EngineState {
            datasets: RwLock::new(HashMap::new()),
            installed: RwLock::new(HashMap::new()),
            contexts: Mutex::new(LruCache::new(context_capacity)),
            building: Mutex::new(HashMap::new()),
            outcomes: Mutex::new(LruCache::new(outcome_capacity)),
            metrics: EngineMetrics::default(),
        }
    }

    pub(crate) fn register_dataset(&self, name: String, dataset: Dataset) -> Arc<Dataset> {
        let dataset = Arc::new(dataset);
        write_recover(&self.datasets).insert(name, Arc::clone(&dataset));
        dataset
    }

    pub(crate) fn dataset(&self, name: &str) -> Option<Arc<Dataset>> {
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
        write_recover(&self.installed).insert(name, Arc::clone(&context));
        context
    }

    /// Resolve a context spec to a (possibly cached) context. Returns the context and
    /// whether it was a cache hit; records hit/miss and build-time metrics.
    pub(crate) fn resolve_context(
        &self,
        spec: &ContextSpec,
    ) -> Result<(Arc<MiningContext>, bool), EngineError> {
        match spec {
            ContextSpec::Installed { name } => {
                let context = read_recover(&self.installed)
                    .get(name)
                    .cloned()
                    .ok_or_else(|| EngineError::UnknownContext(name.clone()))?;
                self.metrics.context_lookup(true);
                Ok((context, true))
            }
            ContextSpec::Grouped { .. } => {
                let key = spec.key();
                if let Some(context) = lock_recover(&self.contexts).get(&key) {
                    self.metrics.context_lookup(true);
                    return Ok((context, true));
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
                    self.metrics.context_build_deduped();
                    self.metrics.context_lookup(false);
                    return slot.wait().map(|context| (context, false));
                }
                // Publish on every exit — including an unwind (e.g. a panicking
                // summarizer): the guard's Drop wakes waiters with an error rather
                // than leaving them blocked forever.
                let guard = BuildClaim {
                    state: self,
                    key: Some(key.clone()),
                    slot: &slot,
                };
                let built = self.build_context(spec);
                guard.publish(built.clone());
                if let Ok(context) = &built {
                    self.metrics.context_lookup(false);
                    lock_recover(&self.contexts).insert(key, Arc::clone(context));
                }
                built.map(|context| (context, false))
            }
        }
    }

    /// Run one grouped-context build (the caller holds the in-flight claim).
    fn build_context(&self, spec: &ContextSpec) -> BuildResult {
        let ContextSpec::Grouped {
            dataset,
            grouping,
            min_group_size,
            summarizer,
        } = spec
        else {
            unreachable!("only grouped specs are built");
        };
        failpoint::check(failpoint::site::CONTEXT_BUILD)?;
        let dataset = self
            .dataset(dataset)
            .ok_or_else(|| EngineError::UnknownDataset(dataset.clone()))?;
        let started = Instant::now();
        let attrs: Vec<(&str, &str)> = grouping
            .iter()
            .map(|(dim, attr)| (dim.as_str(), attr.as_str()))
            .collect();
        let groups = GroupingScheme::over(&dataset, &attrs)
            .map_err(|e| EngineError::InvalidGrouping(e.to_string()))?
            .min_group_size(*min_group_size)
            .enumerate(&dataset);
        let context = Arc::new(MiningContext::build(&dataset, groups, *summarizer));
        self.metrics.record_context_build(started.elapsed());
        Ok(context)
    }

    /// Deregister an in-flight build claim, filling its slot so waiters wake.
    fn release_build_claim(&self, key: &ContextKey, slot: &InFlightBuild, result: BuildResult) {
        slot.fill(result);
        lock_recover(&self.building).remove(key);
    }

    /// The outcome-cache key for a request triple.
    pub(crate) fn outcome_key(
        context_key: &ContextKey,
        solver: &SolverChoice,
        problem: &TagDmProblem,
    ) -> OutcomeKey {
        let fingerprint = format!(
            "{}|{}",
            solver.tag(),
            serde_json::to_string(problem).expect("problems serialize infallibly")
        );
        (context_key.clone(), fingerprint)
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
    key: Option<ContextKey>,
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
