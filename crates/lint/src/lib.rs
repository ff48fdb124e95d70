//! # fpdt-lint
//!
//! Project-invariant static analysis for the FPDT workspace. The paper's
//! schedule only reproduces bitwise if the runtime stays deterministic,
//! and the fault-tolerance roadmap only works if comm errors propagate —
//! invariants the test suites can confirm *after* a regression lands.
//! This crate catches the violation at the line that introduces it, with
//! a hand-rolled lexer (no third-party parser) so the pass runs anywhere
//! the workspace builds.
//!
//! The rules are listed in [`rules::RULES`]; `fpdt-lint --list-rules`
//! prints them. Scope and allowlists live in [`rules`], next to the rule
//! logic, with a rationale string per exemption.
//!
//! ## Suppressions
//!
//! ```text
//! // fpdt-lint: allow(unwrap-in-comm-path): construction invariant — every slot was just filled
//! ```
//!
//! on the finding's line or the line above. The reason text is
//! **mandatory** (a bare `allow` is itself a `malformed-suppression`
//! finding) and a suppression matching no finding is an
//! `unused-suppression` finding, so suppressions cannot rot. There is no
//! baseline: the CI gate fails on any finding not suppressed inline.

#![deny(missing_docs)]

pub mod lexer;
pub mod rules;

use serde::{Serialize, Value};
use std::path::{Path, PathBuf};

/// One rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (kebab-case, from [`rules::RULES`]).
    pub rule: String,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong and what to do instead.
    pub message: String,
    /// The trimmed source line.
    pub excerpt: String,
}

impl Finding {
    /// `file:line:col [rule] message` + excerpt, for human output.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{} [{}] {}\n    {}",
            self.file, self.line, self.col, self.rule, self.message, self.excerpt
        )
    }
}

impl serde::Serialize for Finding {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("rule".to_string(), Value::Str(self.rule.clone())),
            ("file".to_string(), Value::Str(self.file.clone())),
            ("line".to_string(), Value::UInt(self.line as u64)),
            ("col".to_string(), Value::UInt(self.col as u64)),
            ("message".to_string(), Value::Str(self.message.clone())),
            ("excerpt".to_string(), Value::Str(self.excerpt.clone())),
        ])
    }
}

/// A parsed `fpdt-lint: allow(rule): reason` directive.
#[derive(Debug)]
struct Suppression {
    rule: String,
    line: u32,
    used: bool,
}

/// Lints one file's source text: lex, strip test items, run rules, apply
/// suppressions, and append suppression-hygiene findings. Findings come
/// back sorted by position. This is the whole per-file pipeline — the
/// fixture tests drive it directly with synthetic paths.
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    let lines: Vec<String> = src.lines().map(|l| l.to_string()).collect();
    let lexed = lexer::lex(src);
    let toks = lexer::strip_test_items(&lexed.tokens);

    let mut findings = rules::check_file(path, &lines, &lexed.tokens, &toks);

    // Parse directives out of the comment stream. Only a comment that
    // *starts* with `fpdt-lint` is a directive — prose that merely
    // mentions the tool is ignored, and doc comments never qualify
    // (their captured text starts with the extra `/` or `!`).
    let mut sups: Vec<Suppression> = Vec::new();
    for c in &lexed.comments {
        let body = c.text.trim_start();
        if !body.starts_with("fpdt-lint") {
            continue;
        }
        match parse_directive(body) {
            Ok(rule) => sups.push(Suppression {
                rule,
                line: c.line,
                used: false,
            }),
            Err(why) => findings.push(Finding {
                rule: "malformed-suppression".to_string(),
                file: path.to_string(),
                line: c.line,
                col: 1,
                message: why,
                excerpt: lines
                    .get(c.line as usize - 1)
                    .map(|l| l.trim().to_string())
                    .unwrap_or_default(),
            }),
        }
    }

    // A suppression covers findings of its rule on its own line or the
    // line directly below (directive-above style).
    findings.retain(|f| {
        for s in sups.iter_mut() {
            if s.rule == f.rule && (s.line == f.line || s.line + 1 == f.line) {
                s.used = true;
                return false;
            }
        }
        true
    });

    for s in &sups {
        if !s.used {
            findings.push(Finding {
                rule: "unused-suppression".to_string(),
                file: path.to_string(),
                line: s.line,
                col: 1,
                message: format!(
                    "suppression for `{}` matches no finding on this or the next line; remove it",
                    s.rule
                ),
                excerpt: lines
                    .get(s.line as usize - 1)
                    .map(|l| l.trim().to_string())
                    .unwrap_or_default(),
            });
        }
    }

    findings.sort_by(|a, b| {
        (a.line, a.col, a.rule.as_str()).cmp(&(b.line, b.col, b.rule.as_str()))
    });
    findings
}

/// Parses `fpdt-lint: allow(<rule>): <reason>` starting at `fpdt-lint`.
/// Returns the rule name; the reason is validated but not kept.
fn parse_directive(text: &str) -> Result<String, String> {
    const SYNTAX: &str = "expected `fpdt-lint: allow(<rule>): <reason>`";
    let rest = text
        .strip_prefix("fpdt-lint")
        .unwrap_or(text)
        .trim_start()
        .strip_prefix(':')
        .ok_or(format!("{SYNTAX} (missing `:` after fpdt-lint)"))?
        .trim_start();
    let rest = rest
        .strip_prefix("allow(")
        .ok_or(format!("{SYNTAX} (missing `allow(`)"))?;
    let close = rest
        .find(')')
        .ok_or(format!("{SYNTAX} (unclosed `allow(`)"))?;
    let rule = rest[..close].trim();
    if !rules::is_known_rule(rule) {
        return Err(format!(
            "unknown rule `{rule}` in suppression (run fpdt-lint --list-rules)"
        ));
    }
    let reason = rest[close + 1..]
        .trim_start()
        .strip_prefix(':')
        .ok_or("suppression requires a reason: `fpdt-lint: allow(<rule>): <why>`")?
        .trim();
    if reason.len() < 3 {
        return Err("suppression reason is empty; say why the finding is acceptable".to_string());
    }
    Ok(rule.to_string())
}

/// Result of scanning the whole workspace.
#[derive(Debug)]
pub struct WorkspaceReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All findings across all files, in (file, position) order.
    pub findings: Vec<Finding>,
}

/// Directory names never descended into: build output, vendored
/// stand-ins, and test/fixture trees (rules apply to non-test code).
const SKIP_DIRS: &[&str] = &["target", "vendor", "tests", "benches", "fixtures", "golden"];

/// The workspace sub-roots that contain first-party source.
const SCAN_ROOTS: &[&str] = &["crates", "src", "examples"];

/// Scans every first-party `.rs` file under `root` (the repo root) and
/// runs the full per-file pipeline on each. Files are visited in sorted
/// path order, so output and JSON artifacts are deterministic.
pub fn lint_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let mut files: Vec<PathBuf> = Vec::new();
    for sub in SCAN_ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();

    let mut findings = Vec::new();
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(f)?;
        findings.extend(lint_source(&rel, &src));
    }
    Ok(WorkspaceReport {
        files_scanned: files.len(),
        findings,
    })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().to_string();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Renders the `--json` report document.
pub fn report_json(report: &WorkspaceReport) -> String {
    let doc = Value::Object(vec![
        (
            "files_scanned".to_string(),
            Value::UInt(report.files_scanned as u64),
        ),
        (
            "rules".to_string(),
            Value::Array(
                rules::RULES
                    .iter()
                    .map(|r| Value::Str(r.name.to_string()))
                    .collect(),
            ),
        ),
        (
            "findings".to_string(),
            Value::Array(report.findings.iter().map(|f| f.to_value()).collect()),
        ),
        ("ok".to_string(), Value::Bool(report.findings.is_empty())),
    ]);
    serde_json::to_string_pretty(&doc).unwrap_or_else(|_| "{}".to_string())
}
