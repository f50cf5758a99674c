//! An engine with N workers runs exactly N threads of its own: dead workers respawn
//! from their own unwind guard, so no extra thread watches the pool. Alone in its
//! test binary, so no other test's engine shares the process.
//!
//! Counts the process's threads through `/proc/self/task`, so it runs on Linux only.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use tagdm_engine::{Engine, EngineConfig};

/// Threads of this process whose name starts like the engine's (`comm` keeps the
/// first 15 bytes of a thread name).
fn engine_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("tagdm-engine"))
        .count()
}

/// Poll until `engine_threads()` reads `expected`: a new thread names itself once it
/// runs, and a joined one may linger in /proc for a moment before the kernel
/// releases it.
fn wait_for_engine_threads(expected: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while engine_threads() != expected {
        assert!(
            Instant::now() < deadline,
            "expected {expected} engine threads, found {}",
            engine_threads()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn an_engine_runs_one_thread_per_worker() {
    wait_for_engine_threads(0);
    for workers in [1, 3] {
        let engine = Engine::new(EngineConfig::default().with_workers(workers));
        assert_eq!(engine.live_workers(), workers);
        wait_for_engine_threads(workers);
        // Every thread the engine spawned has had time to name itself.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(engine_threads(), workers, "{workers}-worker engine");
        // Dropping the engine joins every one of its threads.
        drop(engine);
        wait_for_engine_threads(0);
    }
}
