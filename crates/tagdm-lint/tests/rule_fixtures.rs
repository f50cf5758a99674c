//! Fixture tests: for every rule, one snippet that passes and one that fires.
//!
//! These go through the public `lint_files` API with workspace-shaped fake paths, so
//! they also pin the per-rule path scoping (e.g. TH01 only polices
//! `crates/tagdm-engine/src/`).

use tagdm_lint::lock_order::DeclaredEdge;
use tagdm_lint::report::Finding;
use tagdm_lint::{lint_files, SourceFile};

const HIERARCHY: &str = "crates/tagdm-lint/lock_order.toml";

/// Lint one (path, source) file with `declared` edges, keeping only `rule` findings.
fn run_rule(rule: &str, path: &str, source: &str, declared: &[DeclaredEdge]) -> Vec<Finding> {
    let files = vec![SourceFile::parse(path, source)];
    lint_files(&files, declared, HIERARCHY, &[])
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

fn edge(from: &str, to: &str) -> DeclaredEdge {
    DeclaredEdge {
        from: from.into(),
        to: to.into(),
        line: 1,
    }
}

// ---------------------------------------------------------------- LK01

#[test]
fn lk01_fires_on_panicking_acquisition() {
    let bad = r#"
        fn f(m: &std::sync::Mutex<u32>) -> u32 {
            *m.lock().unwrap()
        }
    "#;
    let findings = run_rule("LK01", "crates/tagdm-engine/src/x.rs", bad, &[]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].line, 3);
    assert!(findings[0].message.contains("poison"));
}

#[test]
fn lk01_passes_recovering_acquisition_and_ignores_strings_and_io_read() {
    let good = r#"
        fn f(m: &std::sync::Mutex<u32>) -> u32 {
            *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
        }
        fn g(r: &mut impl std::io::Read, buf: &mut [u8]) {
            r.read(buf).unwrap(); // has an argument: io read, not a lock
            let _ = "docs: .lock().unwrap() inside a string is inert";
        }
    "#;
    assert!(run_rule("LK01", "crates/tagdm-engine/src/x.rs", good, &[]).is_empty());
}

// ---------------------------------------------------------------- LK02

#[test]
fn lk02_fires_on_undeclared_nesting_and_detects_injected_abba_cycle() {
    // fn first: a then b; fn second: b then a — classic ABBA.
    let bad = r#"
        struct S { a: std::sync::Mutex<u32>, b: std::sync::Mutex<u32> }
        impl S {
            fn first(&self) {
                let ga = self.a.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                let gb = self.b.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                drop(gb);
                drop(ga);
            }
            fn second(&self) {
                let gb = self.b.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                let ga = self.a.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                drop(ga);
                drop(gb);
            }
        }
    "#;
    // Neither edge declared: both reported as undeclared, plus the cycle.
    let findings = run_rule("LK02", "crates/tagdm-engine/src/s.rs", bad, &[]);
    assert!(
        findings.iter().any(|f| f.message.contains("not declared")),
        "{findings:?}"
    );
    let cycle = findings
        .iter()
        .find(|f| f.message.contains("cycle"))
        .expect("ABBA cycle must be detected");
    assert!(cycle.message.contains("a") && cycle.message.contains("b"));

    // Declaring both directions doesn't make it legal: the union stays cyclic.
    let declared = [edge("a", "b"), edge("b", "a")];
    let findings = run_rule("LK02", "crates/tagdm-engine/src/s.rs", bad, &declared);
    assert!(
        findings.iter().any(|f| f.message.contains("cycle")),
        "declared cycle must still be flagged: {findings:?}"
    );
}

#[test]
fn lk02_passes_declared_nesting_and_guard_scopes_end_edges() {
    let good = r#"
        struct S { a: std::sync::Mutex<u32>, b: std::sync::Mutex<u32> }
        impl S {
            fn nested_declared(&self) {
                let ga = self.a.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                let gb = self.b.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                drop(gb);
                drop(ga);
            }
            fn sequential_not_nested(&self) {
                let gb = self.b.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                drop(gb);
                let ga = self.a.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                drop(ga);
            }
        }
    "#;
    let declared = [edge("a", "b")];
    let findings = run_rule("LK02", "crates/tagdm-engine/src/s.rs", good, &declared);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn lk02_fires_on_self_reacquisition() {
    let bad = r#"
        struct S { a: std::sync::Mutex<u32> }
        impl S {
            fn twice(&self) {
                let g1 = self.a.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                let g2 = self.a.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                drop(g2);
                drop(g1);
            }
        }
    "#;
    let findings = run_rule("LK02", "crates/tagdm-engine/src/s.rs", bad, &[]);
    assert!(
        findings.iter().any(|f| f.message.contains("not reentrant")),
        "{findings:?}"
    );
}

// ---------------------------------------------------------------- ER01

#[test]
fn er01_fires_on_unclassified_variant_and_wildcard() {
    let bad = r#"
        pub enum EngineError {
            Shutdown,
            Overloaded { depth: usize },
            BrandNew(String),
        }
        impl EngineError {
            pub fn is_transient(&self) -> bool {
                match self {
                    EngineError::Overloaded { .. } => true,
                    EngineError::Shutdown => false,
                    _ => false,
                }
            }
        }
    "#;
    let findings = run_rule("ER01", "crates/tagdm-engine/src/error.rs", bad, &[]);
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("BrandNew") && f.message.contains("not classified")),
        "{findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.message.contains("wildcard")),
        "{findings:?}"
    );
}

#[test]
fn er01_passes_exhaustive_classifier_and_skips_files_without_the_enum() {
    let good = r#"
        pub enum EngineError {
            Shutdown,
            Overloaded { depth: usize },
        }
        impl EngineError {
            pub fn is_transient(&self) -> bool {
                match self {
                    EngineError::Overloaded { .. } => true,
                    EngineError::Shutdown => false,
                }
            }
        }
    "#;
    assert!(run_rule("ER01", "crates/tagdm-engine/src/error.rs", good, &[]).is_empty());
    // A file that merely *uses* the enum is not in scope.
    let user = "fn f(e: &EngineError) -> bool { e.is_transient() }";
    assert!(run_rule("ER01", "crates/tagdm-engine/src/other.rs", user, &[]).is_empty());
}

// ---------------------------------------------------------------- FP01

const FP_REGISTRY_OK: &str = r#"
    pub mod site {
        pub const WORKER_LOOP: &str = "worker.loop";
    }
"#;

#[test]
fn fp01_fires_on_unused_sites_inline_names_and_duplicates() {
    let registry = r#"
        pub mod site {
            pub const WORKER_LOOP: &str = "worker.loop";
            pub const ORPHAN: &str = "worker.loop";
        }
    "#;
    let source = r#"
        fn run() {
            crate::failpoint::check("inline.name");
            crate::failpoint::check(site::WORKER_LOOP);
            let _ = site::UNDECLARED;
        }
    "#;
    let files = vec![
        SourceFile::parse("crates/tagdm-engine/src/failpoint.rs", registry),
        SourceFile::parse("crates/tagdm-engine/src/worker.rs", source),
    ];
    let findings: Vec<Finding> = lint_files(&files, &[], HIERARCHY, &[])
        .into_iter()
        .filter(|f| f.rule == "FP01")
        .collect();
    assert!(
        findings.iter().any(|f| f.message.contains("duplicates")),
        "{findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.message.contains("inline")),
        "{findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("UNDECLARED") && f.message.contains("not declared")),
        "{findings:?}"
    );
    // WORKER_LOOP has a source ref but no test ref; ORPHAN has neither.
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("WORKER_LOOP") && f.message.contains("no test reference")),
        "{findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("ORPHAN") && f.message.contains("never evaluated")),
        "{findings:?}"
    );
}

#[test]
fn fp01_passes_when_every_site_is_declared_used_and_tested() {
    let source = "fn run() { crate::failpoint::check(site::WORKER_LOOP); }";
    let test = "#[test]\nfn t() { arm(site::WORKER_LOOP); }";
    let files = vec![
        SourceFile::parse("crates/tagdm-engine/src/failpoint.rs", FP_REGISTRY_OK),
        SourceFile::parse("crates/tagdm-engine/src/worker.rs", source),
        SourceFile::parse("crates/tagdm-engine/tests/faults.rs", test),
    ];
    let findings: Vec<Finding> = lint_files(&files, &[], HIERARCHY, &[])
        .into_iter()
        .filter(|f| f.rule == "FP01")
        .collect();
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------- TH01

#[test]
fn th01_fires_on_raw_spawn_in_engine_but_not_in_thread_owner_modules() {
    let bad = "fn go() { std::thread::spawn(|| {}); }";
    let findings = run_rule("TH01", "crates/tagdm-engine/src/worker.rs", bad, &[]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("unsupervised"));

    // The executor is the engine's one thread owner: workers respawn from their own
    // unwind guard, so a supervisor module spawning threads is flagged too.
    let findings = run_rule("TH01", "crates/tagdm-engine/src/supervisor.rs", bad, &[]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("executor modules"));

    // Same code is fine in the executor (the designated thread owner) …
    assert!(run_rule("TH01", "crates/tagdm-engine/src/executor.rs", bad, &[]).is_empty());
    // … and outside the policed trees entirely.
    assert!(run_rule("TH01", "crates/tagdm-bench/src/main.rs", bad, &[]).is_empty());
}

#[test]
fn th01_polices_the_net_transport_with_its_own_thread_owners() {
    let bad = "fn go() { std::thread::spawn(|| {}); }";
    // A raw spawn in a non-owner transport module is an unsupervised thread …
    let findings = run_rule("TH01", "crates/tagdm-net/src/client.rs", bad, &[]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("server/conn"));

    // … while the acceptor and connection-handler owners may spawn.
    assert!(run_rule("TH01", "crates/tagdm-net/src/server.rs", bad, &[]).is_empty());
    assert!(run_rule("TH01", "crates/tagdm-net/src/conn.rs", bad, &[]).is_empty());
}

// ---------------------------------------------------------------- SL01

#[test]
fn sl01_fires_on_sleep_in_solver_hot_path_only() {
    let bad = "fn solve() { std::thread::sleep(std::time::Duration::from_millis(1)); }";
    let findings = run_rule("SL01", "crates/tagdm-core/src/solvers/exact.rs", bad, &[]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("admission"));

    // Sleeps in tests / other crates are out of scope.
    assert!(run_rule("SL01", "crates/tagdm-engine/tests/chaos.rs", bad, &[]).is_empty());
    assert!(run_rule("SL01", "crates/tagdm-core/src/problem.rs", bad, &[]).is_empty());
}

// ---------------------------------------------------------------- AL01

#[test]
fn al01_fires_on_bare_allow_and_accepts_adjacent_comments() {
    let bad = r#"
        #[allow(dead_code)]
        fn unused() {}
    "#;
    let findings = run_rule("AL01", "crates/tagdm-core/src/x.rs", bad, &[]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("justification"));

    let good = r#"
        // kept for the serde shim's derive output, which references it
        #[allow(dead_code)]
        fn unused() {}

        #[allow(dead_code)] // justified inline on the same line
        fn also_unused() {}

        /// Doc comments count as justification too.
        #[allow(dead_code)]
        fn documented() {}
    "#;
    assert!(run_rule("AL01", "crates/tagdm-core/src/x.rs", good, &[]).is_empty());
}

// ---------------------------------------------------------------- skip plumbing

#[test]
fn skip_disables_a_rule_without_touching_others() {
    let bad = r#"
        fn f(m: &std::sync::Mutex<u32>) {
            #[allow(dead_code)]
            let g = m.lock().unwrap();
            drop(g);
        }
    "#;
    let files = vec![SourceFile::parse("crates/tagdm-engine/src/x.rs", bad)];
    let all = lint_files(&files, &[], HIERARCHY, &[]);
    assert!(all.iter().any(|f| f.rule == "LK01"));
    assert!(all.iter().any(|f| f.rule == "AL01"));

    let skipped = lint_files(&files, &[], HIERARCHY, &["LK01".to_string()]);
    assert!(!skipped.iter().any(|f| f.rule == "LK01"));
    assert!(skipped.iter().any(|f| f.rule == "AL01"));
}
