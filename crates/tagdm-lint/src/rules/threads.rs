//! TH01 and SL01: thread-spawn and sleep hygiene.
//!
//! * **TH01** — inside `tagdm-engine`, only the executor module may create
//!   threads; inside `tagdm-net`, only the server (acceptor) and conn (handler)
//!   modules may; inside `tagdm-cluster`, only the cluster facade (scoped batch
//!   dispatch) may. Every thread must be owned by a supervision or
//!   registration tree so a panic is observed — workers are respawned, the acceptor
//!   is respawned by its guard, connection handlers are registered for
//!   join-on-drain; a raw `thread::spawn` elsewhere is an unsupervised thread whose
//!   panic loses work silently.
//! * **SL01** — solver hot paths in `tagdm-core` must not call `thread::sleep`. The
//!   admission queue admits jobs by estimated cost; a sleeping solver holds a worker
//!   slot while doing nothing, which inverts the cost model and stalls the queue.
//!   (Sleeps in tests and benches are fine — the rule only scopes solver sources.)

use crate::report::Finding;
use crate::SourceFile;

/// The source trees TH01 polices, each with its designated thread-owner modules.
/// The engine's threads are the worker pool's (`executor.rs`), each respawned by
/// its own unwind guard; the transport's threads are the supervised acceptor
/// (`server.rs`) and the registered, joined-on-drain connection handlers
/// (`conn.rs`); the cluster's batch-dispatch threads live in `cluster.rs`,
/// scoped so `solve_batch` joins every one before returning.
const THREAD_TREES: [(&str, &[&str], &str); 3] = [
    ("crates/tagdm-engine/src/", &["executor.rs"], "executor"),
    (
        "crates/tagdm-net/src/",
        &["server.rs", "conn.rs"],
        "server/conn",
    ),
    ("crates/tagdm-cluster/src/", &["cluster.rs"], "cluster"),
];
/// Path prefix SL01 polices.
const SOLVER_SRC: &str = "crates/tagdm-core/src/solvers/";

/// Run TH01 on one file (no-op outside the policed source trees).
pub fn th01(file: &SourceFile) -> Vec<Finding> {
    let Some((rest, owners, owner_label)) =
        THREAD_TREES.iter().find_map(|(tree, owners, label)| {
            file.path
                .strip_prefix(tree)
                .map(|rest| (rest, *owners, *label))
        })
    else {
        return Vec::new();
    };
    if owners.contains(&rest) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (line, what) in thread_path_calls(file, &["spawn", "Builder"]) {
        findings.push(Finding {
            rule: "TH01",
            file: file.path.clone(),
            line,
            message: format!(
                "`thread::{what}` outside the {owner_label} modules creates \
                 an unsupervised thread; route it through a thread owner so panics \
                 are observed and replayed"
            ),
        });
    }
    findings
}

/// Run SL01 on one file (no-op outside the core solver tree).
pub fn sl01(file: &SourceFile) -> Vec<Finding> {
    if !file.path.starts_with(SOLVER_SRC) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (line, _) in thread_path_calls(file, &["sleep"]) {
        findings.push(Finding {
            rule: "SL01",
            file: file.path.clone(),
            line,
            message: "`thread::sleep` in a solver hot path holds a worker slot while \
                      idle and breaks the admission queue's cost model; make the \
                      solver yield by returning instead"
                .to_string(),
        });
    }
    findings
}

/// Find `thread :: <target>` token sequences for each target in `targets`,
/// returning `(line, target)` per occurrence.
fn thread_path_calls(file: &SourceFile, targets: &[&'static str]) -> Vec<(u32, &'static str)> {
    let code = file.code_tokens();
    let mut hits = Vec::new();
    let mut k = 0;
    while k + 3 < code.len() {
        if code[k].is_ident("thread") && code[k + 1].is_punct(':') && code[k + 2].is_punct(':') {
            if let Some(target) = targets.iter().find(|t| code[k + 3].is_ident(t)) {
                hits.push((code[k + 3].line, *target));
                k += 4;
                continue;
            }
        }
        k += 1;
    }
    hits
}
