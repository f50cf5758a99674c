//! tagdm-lint: the workspace's concurrency-invariant linter.
//!
//! A std-only static-analysis tool (no external parser — it ships its own
//! [`tokenizer`]) that walks every `.rs` file in the workspace and enforces the
//! concurrency and fault-tolerance invariants the engine's design depends on but
//! rustc cannot check:
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | LK01 | no panicking `.lock()/.read()/.write()` + `unwrap/expect` — use the poison-recovering helpers |
//! | LK02 | observed lock nesting ⊆ declared hierarchy (`lock_order.toml`), union graph acyclic |
//! | ER01 | every `EngineError` variant explicitly classified in `is_transient` |
//! | FP01 | failpoint sites declared once in the registry, used in source, exercised by tests |
//! | TH01 | no raw thread creation in `tagdm-engine` outside the executor, in `tagdm-net` outside server/conn, or in `tagdm-cluster` outside the cluster facade |
//! | SL01 | no `thread::sleep` in `tagdm-core` solver hot paths |
//! | AL01 | every `#[allow(...)]` carries a justification comment |
//!
//! Analysis is token-sequence based: patterns inside strings and comments are inert,
//! and no full parse (or rustc invocation) is needed, which keeps the linter
//! dependency-free and fast enough to run on every CI build.

pub mod lock_order;
pub mod report;
pub mod rules;
pub mod tokenizer;
pub mod walker;

use std::path::Path;

use report::Finding;
use tokenizer::{tokenize, Token};

/// Workspace-relative location of the declared lock hierarchy.
pub const LOCK_ORDER_FILE: &str = "crates/tagdm-lint/lock_order.toml";

/// A tokenized source file, the unit every rule consumes.
pub struct SourceFile {
    /// Workspace-relative, `/`-separated path.
    pub path: String,
    /// All tokens, comments included (AL01 needs them).
    pub tokens: Vec<Token>,
}

impl SourceFile {
    /// Tokenize `source` as the contents of `path`.
    pub fn parse(path: impl Into<String>, source: &str) -> Self {
        SourceFile {
            path: path.into(),
            tokens: tokenize(source),
        }
    }

    /// The comment-free token stream rules pattern-match against.
    pub fn code_tokens(&self) -> Vec<&Token> {
        self.tokens.iter().filter(|t| t.is_code()).collect()
    }
}

/// Rule id + one-line description, for `--list` and the README.
pub const RULES: &[(&str, &str)] = &[
    (
        "LK01",
        "no `.lock()/.read()/.write()` + `unwrap/expect`; use the poison-recovering helpers",
    ),
    (
        "LK02",
        "observed lock nesting must be declared in lock_order.toml and acyclic",
    ),
    (
        "ER01",
        "every EngineError variant must be explicitly classified in is_transient",
    ),
    (
        "FP01",
        "failpoint sites: declared once, referenced via site::, used in source and tests",
    ),
    (
        "TH01",
        "no raw thread creation in tagdm-engine outside the executor, in tagdm-net outside server/conn, or in tagdm-cluster outside the cluster facade",
    ),
    ("SL01", "no thread::sleep in tagdm-core solver hot paths"),
    (
        "AL01",
        "every #[allow(...)] needs an adjacent justification comment",
    ),
];

/// True unless `rule` appears in `skip`.
fn enabled(rule: &str, skip: &[String]) -> bool {
    !skip.iter().any(|s| s == rule)
}

/// Run every (non-skipped) rule over an in-memory file set. `declared` /
/// `hierarchy_file` feed LK02. Findings come back sorted.
pub fn lint_files(
    files: &[SourceFile],
    declared: &[lock_order::DeclaredEdge],
    hierarchy_file: &str,
    skip: &[String],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut edges = Vec::new();
    for file in files {
        if enabled("LK01", skip) {
            findings.extend(rules::locks::lk01(file));
        }
        if enabled("LK02", skip) {
            edges.extend(rules::locks::extract_edges(file));
        }
        if enabled("ER01", skip) {
            findings.extend(rules::errors::er01(file));
        }
        if enabled("TH01", skip) {
            findings.extend(rules::threads::th01(file));
        }
        if enabled("SL01", skip) {
            findings.extend(rules::threads::sl01(file));
        }
        if enabled("AL01", skip) {
            findings.extend(rules::allows::al01(file));
        }
    }
    if enabled("LK02", skip) {
        findings.extend(rules::locks::lk02(&edges, declared, hierarchy_file));
    }
    if enabled("FP01", skip) {
        findings.extend(rules::failpoints::fp01(files));
    }
    report::sort_findings(&mut findings);
    findings
}

/// Walk the workspace at `root`, load the lock hierarchy, and lint everything.
/// Only I/O errors are `Err`; lint problems (including a malformed hierarchy file)
/// are findings.
pub fn lint_workspace(root: &Path, skip: &[String]) -> Result<Vec<Finding>, String> {
    let paths = walker::walk_rs_files(root)?;
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let source =
            std::fs::read_to_string(root.join(&path)).map_err(|e| format!("read {path}: {e}"))?;
        files.push(SourceFile::parse(path, &source));
    }

    let mut findings = Vec::new();
    let hierarchy_path = root.join(LOCK_ORDER_FILE);
    let declared = if hierarchy_path.is_file() {
        let text = std::fs::read_to_string(&hierarchy_path)
            .map_err(|e| format!("read {LOCK_ORDER_FILE}: {e}"))?;
        let (declared, errors) = lock_order::parse(&text);
        for (line, message) in errors {
            findings.push(Finding {
                rule: "LK02",
                file: LOCK_ORDER_FILE.to_string(),
                line,
                message,
            });
        }
        declared
    } else {
        if enabled("LK02", skip) {
            findings.push(Finding {
                rule: "LK02",
                file: LOCK_ORDER_FILE.to_string(),
                line: 0,
                message: "lock hierarchy file is missing; declare the allowed \
                          lock-order edges"
                    .to_string(),
            });
        }
        Vec::new()
    };

    findings.extend(lint_files(&files, &declared, LOCK_ORDER_FILE, skip));
    report::sort_findings(&mut findings);
    Ok(findings)
}
