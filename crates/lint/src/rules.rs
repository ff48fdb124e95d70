//! The project-invariant rules, each enforcing a contract the test suites
//! can only check after the fact:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `env-outside-options`   | env flags are parsed at documented entry points only |
//! | `unwrap-in-comm-path`   | comm/executor hot paths propagate `CommError`, never panic |
//! | `unordered-map-emission`| trace/digest emission never iterates a `HashMap` unsorted |
//! | `wallclock-in-kernel`   | kernels are clock-free (determinism) |
//! | `raw-thread-spawn`      | threads come from the pool / rank sessions, not ad hoc |
//! | `dropped-span-guard`    | span guards get named bindings (`let _ =` drops instantly) |
//! | `unchecked-ckpt-io`     | checkpoint I/O results are handled, never discarded |
//! | `item-after-test-module`| a crate source file ends with its test module |
//!
//! Rules pattern-match the **token stream** (string literals and comments
//! never fire) after `#[cfg(test)]` items are stripped — tests are free
//! to unwrap, spawn, and read clocks. `item-after-test-module` alone also
//! reads where the stripped test module stood.

use crate::lexer::{TokKind, Token};
use crate::Finding;

/// Name and one-line rationale for one rule, for `--list-rules` and docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// The rule's kebab-case name (used in suppressions).
    pub name: &'static str,
    /// One-line description of the enforced invariant.
    pub what: &'static str,
}

/// Every enforced rule, including the two suppression-hygiene meta rules.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "env-outside-options",
        what: "std::env::var only at documented initialization points (RuntimeOptions::from_env, fpdt_tensor::env, trace wire, bench/bin setup)",
    },
    RuleInfo {
        name: "unwrap-in-comm-path",
        what: "no unwrap()/expect() in crates/comm or runtime/exec.rs — fault tolerance needs CommError propagation",
    },
    RuleInfo {
        name: "unordered-map-emission",
        what: "no bare HashMap iteration in trace-emission/digest paths without a sort",
    },
    RuleInfo {
        name: "wallclock-in-kernel",
        what: "no Instant/SystemTime inside crates/tensor — kernels are deterministic, only fpdt-trace and the wire sim read clocks",
    },
    RuleInfo {
        name: "raw-thread-spawn",
        what: "threads only via run_group / spawn_rank, not std::thread directly",
    },
    RuleInfo {
        name: "dropped-span-guard",
        what: "`let _ = ...span...` drops the RAII guard immediately — bind it to a name",
    },
    RuleInfo {
        name: "unchecked-ckpt-io",
        what: "checkpoint I/O results (write_shard, read_shard, shard_paths, Trainer::checkpoint and the fs calls beneath them) must not be discarded via `let _ =` or `.ok()` — a silently dropped CkptError means a resume from half-written state",
    },
    RuleInfo {
        name: "item-after-test-module",
        what: "in crates/*/src, no non-test item after a top-level `#[cfg(test)] mod` — a file's program text ends where its tests begin, so a plain count up to the first test module counts all of it",
    },
    RuleInfo {
        name: "malformed-suppression",
        what: "fpdt-lint suppressions must name a known rule and give a reason",
    },
    RuleInfo {
        name: "unused-suppression",
        what: "a suppression that matches no finding is stale and must be removed",
    },
];

/// Whether `name` names a real (non-meta) suppressible rule.
pub fn is_known_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// Files allowed to read `std::env` directly, with the rationale recorded
/// next to the exemption (prefix match on the workspace-relative path).
pub const ENV_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/core/src/runtime/options.rs",
        "RuntimeOptions::from_env — the documented runtime knob parser",
    ),
    (
        "crates/tensor/src/env.rs",
        "fpdt_tensor::env — the kernel layer's strict parse primitives (fpdt-tensor cannot depend on fpdt-core)",
    ),
    (
        "crates/trace/src/wire.rs",
        "FPDT_SIM_GBPS — fpdt-trace sits below fpdt-core in the dependency graph; the read is strict and warn-once",
    ),
    (
        "crates/bench/src/",
        "bench harness setup — benches configure the very knobs under test",
    ),
    (
        "src/bin/",
        "CLI entrypoints interpret their own invocation environment",
    ),
];

/// Paths where `unwrap()`/`expect()` are forbidden: the collective wire
/// layer and the chunked executor, where every error must become a
/// `CommError`/`ExecResult` for the fault-tolerance roadmap to work.
const UNWRAP_SCOPE: &[&str] = &["crates/comm/src/", "crates/core/src/runtime/exec.rs"];

/// Paths whose output feeds schedule digests or trace artifacts, where a
/// bare `HashMap` iteration order would leak into golden files.
const MAP_EMISSION_SCOPE: &[&str] = &[
    "crates/trace/src/",
    "crates/comm/src/stats.rs",
    "crates/core/src/runtime/exec.rs",
];

/// The clock-free zone: compute kernels.
const WALLCLOCK_SCOPE: &[&str] = &["crates/tensor/src/"];

/// Files allowed to call `std::thread` directly: the group that owns the
/// rank threads (the kernel pool lives in the vendored `rayon`, outside
/// the scan). The comm and copy streams are clocks, with no thread.
const THREAD_ALLOWLIST: &[&str] = &["crates/comm/src/group.rs"];

/// The checkpoint persistence surface: everywhere a `CkptError` (or the
/// fs call underneath one) is born. A discarded Result here turns a
/// half-written shard into a later resume-time mystery.
const CKPT_SCOPE: &[&str] = &[
    "crates/core/src/runtime/ckpt.rs",
    "crates/core/src/runtime/dist.rs",
    "src/bin/fpdt-ckpt.rs",
];

/// Fallible checkpoint-I/O calls whose `Result` carries the durability
/// contract (typed `CkptError`s or the `io::Error` beneath them).
const CKPT_IO_IDENTS: &[&str] = &[
    "write_shard",
    "read_shard",
    "shard_paths",
    "checkpoint",
    "create_dir_all",
    "sync_all",
    "rename",
];

fn in_scope(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

fn finding(
    rule: &'static str,
    path: &str,
    lines: &[String],
    tok: &Token,
    message: String,
) -> Finding {
    let excerpt = lines
        .get(tok.line as usize - 1)
        .map(|l| l.trim().to_string())
        .unwrap_or_default();
    Finding {
        rule: rule.to_string(),
        file: path.to_string(),
        line: tok.line,
        col: tok.col,
        message,
        excerpt,
    }
}

/// Runs every path-applicable rule over one file's stripped token stream
/// (`raw` is the unstripped stream, for `item-after-test-module`).
/// Suppressions are applied by the caller ([`crate::lint_source`]).
pub fn check_file(path: &str, lines: &[String], raw: &[Token], toks: &[Token]) -> Vec<Finding> {
    let mut out = Vec::new();
    item_after_test_module(path, lines, raw, toks, &mut out);
    env_outside_options(path, lines, toks, &mut out);
    unwrap_in_comm_path(path, lines, toks, &mut out);
    unordered_map_emission(path, lines, toks, &mut out);
    wallclock_in_kernel(path, lines, toks, &mut out);
    raw_thread_spawn(path, lines, toks, &mut out);
    dropped_span_guard(path, lines, toks, &mut out);
    unchecked_ckpt_io(path, lines, toks, &mut out);
    out
}

/// `env :: var` / `env :: var_os` anywhere outside the allowlist.
fn env_outside_options(path: &str, lines: &[String], toks: &[Token], out: &mut Vec<Finding>) {
    if ENV_ALLOWLIST.iter().any(|(p, _)| path.starts_with(p)) {
        return;
    }
    for i in 0..toks.len() {
        if toks[i].is_ident("env")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks
                .get(i + 3)
                .is_some_and(|t| t.is_ident("var") || t.is_ident("var_os"))
        {
            out.push(finding(
                "env-outside-options",
                path,
                lines,
                &toks[i],
                "environment read outside the documented initialization points; route the knob \
                 through RuntimeOptions::from_env / fpdt_tensor::env (see DESIGN.md \"Static \
                 invariants\")"
                    .to_string(),
            ));
        }
    }
}

/// `.unwrap()` / `.expect(` in the comm/executor scope.
fn unwrap_in_comm_path(path: &str, lines: &[String], toks: &[Token], out: &mut Vec<Finding>) {
    if !in_scope(path, UNWRAP_SCOPE) {
        return;
    }
    for i in 1..toks.len() {
        if toks[i - 1].is_punct('.')
            && (toks[i].is_ident("unwrap") || toks[i].is_ident("expect"))
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            out.push(finding(
                "unwrap-in-comm-path",
                path,
                lines,
                &toks[i],
                format!(
                    "`{}()` on a fallible comm-path value panics the rank instead of propagating \
                     a CommError; return a Result (or recover poisoned locks with \
                     `unwrap_or_else(|e| e.into_inner())`)",
                    toks[i].text
                ),
            ));
        }
    }
}

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Bare iteration over an identifier declared as a `HashMap`, in emission
/// scope, with no `sort*` in the following tokens.
fn unordered_map_emission(path: &str, lines: &[String], toks: &[Token], out: &mut Vec<Finding>) {
    if !in_scope(path, MAP_EMISSION_SCOPE) {
        return;
    }
    let maps = collect_map_idents(toks);
    if maps.is_empty() {
        return;
    }
    let is_map = |t: &Token| t.kind == TokKind::Ident && maps.contains(&t.text);

    let flag = |idx: usize, out: &mut Vec<Finding>| {
        // Waived when a sort follows closely (collect-then-sort pattern).
        let sorted_after = toks[idx..toks.len().min(idx + 80)]
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text.starts_with("sort"));
        if !sorted_after {
            out.push(finding(
                "unordered-map-emission",
                path,
                lines,
                &toks[idx],
                format!(
                    "`{}` is a HashMap iterated without a sort in an emission/digest path; its \
                     order is nondeterministic — sort the items, iterate a side order list, or \
                     use a BTreeMap",
                    toks[idx].text
                ),
            ));
        }
    };

    for i in 0..toks.len() {
        // map.iter() / map.keys() / ...
        if is_map(&toks[i])
            && toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && toks.get(i + 2).is_some_and(|t| {
                t.kind == TokKind::Ident && ITER_METHODS.contains(&t.text.as_str())
            })
            && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
        {
            flag(i, out);
        }
        // for k in map { / for (k, v) in &map { / for x in self.map {
        if toks[i].is_ident("in") {
            let mut j = i + 1;
            while toks
                .get(j)
                .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
            {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_ident("self"))
                && toks.get(j + 1).is_some_and(|t| t.is_punct('.'))
            {
                j += 2;
            }
            if toks.get(j).is_some_and(is_map) && toks.get(j + 1).is_some_and(|t| t.is_punct('{')) {
                flag(j, out);
            }
        }
    }
}

/// Identifiers declared with a `HashMap` type or initializer in this file.
fn collect_map_idents(toks: &[Token]) -> Vec<String> {
    let mut maps: Vec<String> = Vec::new();
    let mut add = |name: &str| {
        if !maps.iter().any(|m| m == name) {
            maps.push(name.to_string());
        }
    };
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        // `name: ...HashMap...` — field, param, or typed let. The type
        // region ends at a depth-0 `,` `;` `=` `{` `)` (angle brackets
        // tracked so `Mutex<HashMap<K, V>>` scans past its inner comma).
        if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            let mut angle = 0i64;
            let mut j = i + 2;
            while let Some(t) = toks.get(j) {
                match t.kind {
                    TokKind::Punct('<') => angle += 1,
                    TokKind::Punct('>') => angle -= 1,
                    TokKind::Punct(',')
                    | TokKind::Punct(';')
                    | TokKind::Punct('=')
                    | TokKind::Punct('{')
                    | TokKind::Punct(')')
                    | TokKind::Punct('}')
                        if angle <= 0 =>
                    {
                        break;
                    }
                    _ => {}
                }
                if t.is_ident("HashMap") {
                    add(&toks[i].text);
                    break;
                }
                j += 1;
            }
        }
        // `let [mut] name = HashMap::new()` and friends.
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.kind == TokKind::Ident)
                && toks.get(j + 1).is_some_and(|t| t.is_punct('='))
                && toks.get(j + 2).is_some_and(|t| t.is_ident("HashMap"))
            {
                add(&toks[j].text);
            }
        }
    }
    maps
}

/// `Instant` / `SystemTime` mentioned anywhere in kernel code.
fn wallclock_in_kernel(path: &str, lines: &[String], toks: &[Token], out: &mut Vec<Finding>) {
    if !in_scope(path, WALLCLOCK_SCOPE) {
        return;
    }
    for t in toks {
        if t.is_ident("Instant") || t.is_ident("SystemTime") {
            out.push(finding(
                "wallclock-in-kernel",
                path,
                lines,
                t,
                format!(
                    "`{}` inside crates/tensor: kernels must be clock-free so results depend \
                     only on inputs; timing belongs in fpdt-trace or the wire sim",
                    t.text
                ),
            ));
        }
    }
}

/// `thread :: spawn` / `thread :: scope` / `thread :: Builder` outside
/// the file that owns threads.
fn raw_thread_spawn(path: &str, lines: &[String], toks: &[Token], out: &mut Vec<Finding>) {
    if in_scope(path, THREAD_ALLOWLIST) {
        return;
    }
    for i in 0..toks.len() {
        if toks[i].is_ident("thread")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| {
                t.is_ident("spawn") || t.is_ident("scope") || t.is_ident("Builder")
            })
        {
            out.push(finding(
                "raw-thread-spawn",
                path,
                lines,
                &toks[i],
                "raw std::thread use outside fpdt_comm's run_group / spawn_rank; model a stream \
                 as a clock (fpdt_trace::wire::Link) or run the work as kernel-pool items, so \
                 thread lifetime and panic policy stay centralized"
                    .to_string(),
            ));
        }
    }
}

/// `let _ = <expr containing span>;` — the guard drops before the work it
/// was meant to measure.
fn dropped_span_guard(path: &str, lines: &[String], toks: &[Token], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if toks[i].is_ident("let")
            && toks.get(i + 1).is_some_and(|t| t.is_ident("_"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('='))
        {
            // Scan the initializer to its terminating `;` at brace depth 0.
            let mut depth = 0i64;
            let mut j = i + 3;
            let mut has_span = false;
            while let Some(t) = toks.get(j) {
                match t.kind {
                    TokKind::Punct('{') => depth += 1,
                    TokKind::Punct('}') => depth -= 1,
                    TokKind::Punct(';') if depth <= 0 => break,
                    TokKind::Ident if t.text == "span" => has_span = true,
                    _ => {}
                }
                j += 1;
            }
            if has_span {
                out.push(finding(
                    "dropped-span-guard",
                    path,
                    lines,
                    &toks[i],
                    "`let _ = ...span(...)` drops the RAII guard immediately, recording a \
                     zero-length span; bind it (`let _guard = ...`) so it lives to the end of \
                     scope"
                        .to_string(),
                ));
            }
        }
    }
}

/// In the checkpoint persistence scope: `let _ = <expr containing a
/// ckpt-I/O call>;` or `.ok()` chained directly onto such a call — both
/// swallow the `Result` that carries the durability contract.
fn unchecked_ckpt_io(path: &str, lines: &[String], toks: &[Token], out: &mut Vec<Finding>) {
    if !in_scope(path, CKPT_SCOPE) {
        return;
    }
    let is_ckpt_call =
        |t: &Token| t.kind == TokKind::Ident && CKPT_IO_IDENTS.contains(&t.text.as_str());
    for i in 0..toks.len() {
        // `let _ = ...write_shard(...)...;` — discarded at the binding.
        if toks[i].is_ident("let")
            && toks.get(i + 1).is_some_and(|t| t.is_ident("_"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('='))
        {
            let mut depth = 0i64;
            let mut j = i + 3;
            let mut dropped: Option<usize> = None;
            while let Some(t) = toks.get(j) {
                match t.kind {
                    TokKind::Punct('{') => depth += 1,
                    TokKind::Punct('}') => depth -= 1,
                    TokKind::Punct(';') if depth <= 0 => break,
                    _ => {}
                }
                if is_ckpt_call(t) && toks.get(j + 1).is_some_and(|t| t.is_punct('(')) {
                    dropped = Some(j);
                }
                j += 1;
            }
            if let Some(k) = dropped {
                out.push(finding(
                    "unchecked-ckpt-io",
                    path,
                    lines,
                    &toks[k],
                    format!(
                        "`let _ = ...{}(...)` discards a checkpoint I/O Result; propagate the \
                         CkptError (`?`) or handle it — a dropped error here resumes from \
                         half-written state",
                        toks[k].text
                    ),
                ));
            }
        }
        // `write_shard(...).ok()` — the error is erased at the call site.
        if is_ckpt_call(&toks[i]) && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            let mut depth = 0i64;
            let mut j = i + 1;
            while let Some(t) = toks.get(j) {
                match t.kind {
                    TokKind::Punct('(') => depth += 1,
                    TokKind::Punct(')') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if toks.get(j + 1).is_some_and(|t| t.is_punct('.'))
                && toks.get(j + 2).is_some_and(|t| t.is_ident("ok"))
                && toks.get(j + 3).is_some_and(|t| t.is_punct('('))
            {
                out.push(finding(
                    "unchecked-ckpt-io",
                    path,
                    lines,
                    &toks[i],
                    format!(
                        "`{}(...).ok()` erases the checkpoint I/O error; propagate the CkptError \
                         (`?`) or match on it — `.ok()` here hides a failed or partial write",
                        toks[i].text
                    ),
                ));
            }
        }
    }
}

/// In `crates/*/src`: the first non-test token after the first top-level
/// `#[cfg(test)] mod`. One finding per file.
fn item_after_test_module(
    path: &str,
    lines: &[String],
    raw: &[Token],
    toks: &[Token],
    out: &mut Vec<Finding>,
) {
    if !(path.starts_with("crates/") && path.contains("/src/")) {
        return;
    }
    let Some(end) = test_module_end(raw) else {
        return;
    };
    if let Some(t) = toks.iter().find(|t| (t.line, t.col) > end) {
        out.push(finding(
            "item-after-test-module",
            path,
            lines,
            t,
            "non-test code after the file's `#[cfg(test)]` module; move it above the test module so \
             the file's program text ends where its tests begin"
                .to_string(),
        ));
    }
}

/// Position of the token that closes the first `#[cfg(test)] mod` at
/// brace depth 0 (its `}`, or the `;` of a file module).
fn test_module_end(raw: &[Token]) -> Option<(u32, u32)> {
    const GATE: [char; 7] = ['#', '[', 'c', '(', 't', ')', ']'];
    let is_gate = |i: usize| {
        GATE.iter().enumerate().all(|(k, &c)| {
            raw.get(i + k).is_some_and(|t| match c {
                'c' => t.is_ident("cfg"),
                't' => t.is_ident("test"),
                _ => t.is_punct(c),
            })
        })
    };
    let mut depth = 0i64;
    for i in 0..raw.len() {
        if depth == 0 && is_gate(i) && raw.get(i + GATE.len()).is_some_and(|t| t.is_ident("mod")) {
            let mut inner = 0i64;
            for t in &raw[i + GATE.len()..] {
                match t.kind {
                    TokKind::Punct('{') => inner += 1,
                    TokKind::Punct('}') if inner == 1 => return Some((t.line, t.col)),
                    TokKind::Punct('}') => inner -= 1,
                    TokKind::Punct(';') if inner == 0 => return Some((t.line, t.col)),
                    _ => {}
                }
            }
            return None;
        }
        match raw[i].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => depth -= 1,
            _ => {}
        }
    }
    None
}
