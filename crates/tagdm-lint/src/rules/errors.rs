//! ER01: every `EngineError` variant must be explicitly classified in
//! `is_transient`.
//!
//! The retry loop (`RetryPolicy::run`, as `Engine::solve_with` and
//! `Cluster::solve_with` call it), the cluster's breakers and the chaos tests all key
//! off [`EngineError::is_transient`]; a variant that silently falls into a default
//! arm gets a retry policy nobody chose. The rule parses the `enum EngineError`
//! declaration and the `fn is_transient` body from the same file, diffs the two
//! variant sets, and additionally rejects wildcard `_` arms (which would defeat the
//! diff — and the compiler's own exhaustiveness check — forever after).
//!
//! The rule is self-selecting: it only fires on files that define `enum EngineError`.
//!
//! [`EngineError::is_transient`]: ../../../tagdm-engine/src/error.rs

use std::collections::BTreeSet;

use crate::report::Finding;
use crate::tokenizer::TokenKind;
use crate::SourceFile;

/// The enum and classifier-function names the rule pairs up.
const ENUM_NAME: &str = "EngineError";
const CLASSIFIER: &str = "is_transient";

/// Run ER01 on one file; empty unless the file declares `enum EngineError`.
pub fn er01(file: &SourceFile) -> Vec<Finding> {
    let code = file.code_tokens();
    let Some((variants, enum_line)) = parse_enum_variants(&code) else {
        return Vec::new();
    };
    let mut findings = Vec::new();
    let Some((arms, wildcard_line, fn_line)) = parse_classifier_arms(&code) else {
        findings.push(Finding {
            rule: "ER01",
            file: file.path.clone(),
            line: enum_line,
            message: format!(
                "`enum {ENUM_NAME}` has no `fn {CLASSIFIER}` in this file; every \
                 variant must be explicitly classified as transient or not"
            ),
        });
        return findings;
    };
    if let Some(line) = wildcard_line {
        findings.push(Finding {
            rule: "ER01",
            file: file.path.clone(),
            line,
            message: format!(
                "wildcard `_` arm in `{CLASSIFIER}` silently classifies future \
                 variants; list every variant explicitly"
            ),
        });
    }
    let variant_names: BTreeSet<&str> = variants.iter().map(|(n, _)| n.as_str()).collect();
    let arm_names: BTreeSet<&str> = arms.iter().map(|(n, _)| n.as_str()).collect();
    for (name, line) in &variants {
        if !arm_names.contains(name.as_str()) {
            findings.push(Finding {
                rule: "ER01",
                file: file.path.clone(),
                line: *line,
                message: format!(
                    "variant `{ENUM_NAME}::{name}` is not classified in \
                     `{CLASSIFIER}` (line {fn_line}); add it to the transient or \
                     non-transient arm"
                ),
            });
        }
    }
    for (name, line) in &arms {
        if !variant_names.contains(name.as_str()) {
            findings.push(Finding {
                rule: "ER01",
                file: file.path.clone(),
                line: *line,
                message: format!(
                    "`{CLASSIFIER}` matches `{ENUM_NAME}::{name}`, which is not a \
                     variant of the enum (stale arm?)"
                ),
            });
        }
    }
    findings
}

/// Parse `enum EngineError { … }`: variant names with their lines, plus the line of
/// the `enum` keyword.
fn parse_enum_variants(code: &[&crate::tokenizer::Token]) -> Option<(Vec<(String, u32)>, u32)> {
    let mut k = 0;
    let start = loop {
        if k + 1 >= code.len() {
            return None;
        }
        if code[k].is_ident("enum") && code[k + 1].is_ident(ENUM_NAME) {
            break k;
        }
        k += 1;
    };
    // Find the opening brace of the enum body.
    let mut j = start + 2;
    while j < code.len() && !code[j].is_punct('{') {
        j += 1;
    }
    let mut variants = Vec::new();
    let mut brace = 1i32;
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut expecting = true; // a variant name may come next
    j += 1;
    while j < code.len() && brace > 0 {
        let t = code[j];
        if t.is_punct('{') {
            brace += 1;
        } else if t.is_punct('}') {
            brace -= 1;
        } else if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if brace == 1 && paren == 0 && bracket == 0 {
            if t.is_punct(',') {
                expecting = true;
            } else if expecting && t.kind == TokenKind::Ident && !t.text.starts_with('#') {
                variants.push((t.text.clone(), t.line));
                expecting = false;
            }
        }
        j += 1;
    }
    Some((variants, code[start].line))
}

/// Parse `fn is_transient`'s body: `(variant, line)` for every `EngineError::X` or
/// `Self::X` path, the line of a `_ =>` wildcard arm if present, and the fn's line.
#[allow(clippy::type_complexity)] // one-shot parse result, named fields buy nothing
fn parse_classifier_arms(
    code: &[&crate::tokenizer::Token],
) -> Option<(Vec<(String, u32)>, Option<u32>, u32)> {
    let mut k = 0;
    let start = loop {
        if k + 1 >= code.len() {
            return None;
        }
        if code[k].is_ident("fn") && code[k + 1].is_ident(CLASSIFIER) {
            break k;
        }
        k += 1;
    };
    let mut j = start + 2;
    while j < code.len() && !code[j].is_punct('{') {
        j += 1;
    }
    let mut arms = Vec::new();
    let mut wildcard = None;
    let mut depth = 1i32;
    j += 1;
    while j < code.len() && depth > 0 {
        let t = code[j];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
        } else if (t.is_ident(ENUM_NAME) || t.is_ident("Self"))
            && code.get(j + 1).is_some_and(|t| t.is_punct(':'))
            && code.get(j + 2).is_some_and(|t| t.is_punct(':'))
            && code.get(j + 3).is_some_and(|t| t.kind == TokenKind::Ident)
        {
            arms.push((code[j + 3].text.clone(), code[j + 3].line));
            j += 4;
            continue;
        } else if t.is_ident("_")
            && code.get(j + 1).is_some_and(|t| t.is_punct('='))
            && code.get(j + 2).is_some_and(|t| t.is_punct('>'))
        {
            wildcard.get_or_insert(t.line);
        }
        j += 1;
    }
    Some((arms, wildcard, code[start].line))
}
