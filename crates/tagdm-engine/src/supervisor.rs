//! Worker supervision: detect dead workers and respawn them.
//!
//! Panics inside a job are caught at the job boundary ([`EngineError::WorkerPanicked`]),
//! but a panic that escapes the boundary — or is injected outside it via the
//! `worker.loop` failpoint — still kills its worker thread. Without supervision each
//! death silently shrinks the pool until the engine starves. Every worker therefore
//! holds a guard whose `Drop` (running while the thread unwinds) reports the death to
//! a supervisor thread, which respawns a replacement after an exponential backoff,
//! keeping the pool at its configured size — up to a restart budget that stops a
//! crash-looping engine from spinning forever.
//!
//! [`EngineError::WorkerPanicked`]: crate::EngineError::WorkerPanicked

use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::admission::JobQueue;
use crate::executor::{spawn_worker, PoolShared};
use crate::retry::Backoff;
use crate::state::EngineState;

/// Restart policy for dead workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupervisorConfig {
    /// Total worker restarts over the engine's lifetime. Once exhausted, further
    /// deaths shrink the pool permanently (a crash loop is a bug to fix, not to mask).
    pub max_restarts: u32,
    /// Backoff between a worker death and its replacement. The exponent tracks
    /// *consecutive* deaths: it resets once the pool stays quiet for longer than the
    /// schedule's `max` delay.
    pub backoff: Backoff,
}

impl SupervisorConfig {
    /// Override the restart budget.
    pub fn with_max_restarts(mut self, max_restarts: u32) -> Self {
        self.max_restarts = max_restarts;
        self
    }

    /// Override the respawn backoff.
    pub fn with_backoff(mut self, backoff: Backoff) -> Self {
        self.backoff = backoff;
        self
    }
}

impl Default for SupervisorConfig {
    /// 32 restarts, respawn backoff 1ms doubling to 250ms.
    fn default() -> Self {
        SupervisorConfig {
            max_restarts: 32,
            backoff: Backoff::new(
                std::time::Duration::from_millis(1),
                std::time::Duration::from_millis(250),
            ),
        }
    }
}

/// Notification that the worker at `index` died (sent from its guard's `Drop` while
/// the thread unwinds). `Shutdown` is the executor telling the supervisor to exit.
pub(crate) enum WorkerEvent {
    Died { index: usize },
    Shutdown,
}

/// The supervisor thread body: respawn dead workers until told to shut down.
pub(crate) fn supervise(
    events_rx: Receiver<WorkerEvent>,
    events_tx: Sender<WorkerEvent>,
    config: SupervisorConfig,
    queue: Arc<JobQueue>,
    state: Arc<EngineState>,
    shared: Arc<PoolShared>,
) {
    let mut restarts: u32 = 0;
    let mut consecutive: u32 = 0;
    let mut last_death: Option<Instant> = None;
    while let Ok(event) = events_rx.recv() {
        let index = match event {
            WorkerEvent::Died { index } => index,
            WorkerEvent::Shutdown => return,
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            continue;
        }
        if restarts >= config.max_restarts {
            continue; // budget exhausted: the pool shrinks
        }
        if last_death.is_some_and(|at| at.elapsed() > config.backoff.max) {
            consecutive = 0; // the pool had recovered; this death starts a new burst
        }
        last_death = Some(Instant::now());
        std::thread::sleep(config.backoff.delay(consecutive));
        consecutive = consecutive.saturating_add(1);
        if shared.shutting_down.load(Ordering::SeqCst) {
            continue;
        }
        restarts += 1;
        state.metrics.worker_restarts.inc();
        shared.live.fetch_add(1, Ordering::SeqCst);
        let handle = spawn_worker(
            index,
            Arc::clone(&queue),
            Arc::clone(&state),
            Arc::clone(&shared),
            events_tx.clone(),
        );
        shared.push_handle(handle);
    }
}
