//! One firing and one non-firing fixture per rule, driven through the
//! full per-file pipeline (`lint_source`), plus suppression-grammar
//! coverage. Fixtures are inline strings with synthetic paths so the rule
//! scoping (path prefixes) is exercised too.

use fpdt_lint::lint_source;

fn rules_fired(path: &str, src: &str) -> Vec<String> {
    lint_source(path, src)
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

// --- env-outside-options ---

#[test]
fn env_read_outside_allowlist_fires() {
    let src = r#"
        pub fn load() -> bool {
            std::env::var("FPDT_SECRET_KNOB").is_ok()
        }
    "#;
    assert_eq!(
        rules_fired("crates/model/src/loader.rs", src),
        ["env-outside-options"]
    );
}

#[test]
fn env_read_at_documented_entry_points_is_allowed() {
    let src = r#"
        pub fn load() -> bool {
            std::env::var("FPDT_SECRET_KNOB").is_ok()
        }
    "#;
    assert!(rules_fired("crates/core/src/runtime/options.rs", src).is_empty());
    assert!(rules_fired("crates/tensor/src/env.rs", src).is_empty());
    assert!(rules_fired("src/bin/fpdt-bench.rs", src).is_empty());
}

#[test]
fn env_mention_in_string_or_comment_never_fires() {
    let src = r#"
        // callers should use std::env::var("FPDT_X") via options
        pub const HINT: &str = "std::env::var(\"FPDT_X\")";
    "#;
    assert!(rules_fired("crates/model/src/loader.rs", src).is_empty());
}

// --- unwrap-in-comm-path ---

#[test]
fn unwrap_in_comm_scope_fires() {
    let src = r#"
        pub fn drain(v: Option<u32>) -> u32 { v.unwrap() }
        pub fn drain2(v: Option<u32>) -> u32 { v.expect("msg") }
    "#;
    assert_eq!(
        rules_fired("crates/comm/src/wire.rs", src),
        ["unwrap-in-comm-path", "unwrap-in-comm-path"]
    );
    assert_eq!(
        rules_fired("crates/core/src/runtime/exec.rs", src).len(),
        2
    );
}

#[test]
fn unwrap_outside_comm_scope_or_in_tests_is_allowed() {
    let src = r#"
        pub fn drain(v: Option<u32>) -> u32 { v.unwrap() }
    "#;
    assert!(rules_fired("crates/model/src/layer.rs", src).is_empty());

    let test_only = r#"
        pub fn ok() {}
        #[cfg(test)]
        mod tests {
            #[test]
            fn t() { Some(1).unwrap(); }
        }
    "#;
    assert!(rules_fired("crates/comm/src/wire.rs", test_only).is_empty());
}

// --- unordered-map-emission ---

#[test]
fn bare_hashmap_iteration_in_emission_path_fires() {
    let src = r#"
        use std::collections::HashMap;
        pub fn emit(counts: &HashMap<String, u64>) -> String {
            let mut out = String::new();
            for (k, v) in counts {
                out.push_str(k);
            }
            out
        }
    "#;
    assert_eq!(
        rules_fired("crates/trace/src/digest.rs", src),
        ["unordered-map-emission"]
    );
}

#[test]
fn sorted_hashmap_iteration_is_allowed() {
    let src = r#"
        use std::collections::HashMap;
        pub fn emit(counts: &HashMap<String, u64>) -> String {
            let mut items: Vec<_> = counts.iter().collect();
            items.sort();
            items.into_iter().map(|(k, _)| k.clone()).collect()
        }
    "#;
    assert!(rules_fired("crates/trace/src/digest.rs", src).is_empty());
    // Vec iteration never fires, whatever it is named.
    let vec_src = r#"
        pub fn emit(counts: &Vec<(String, u64)>) -> usize {
            counts.iter().count()
        }
    "#;
    assert!(rules_fired("crates/trace/src/digest.rs", vec_src).is_empty());
    // And outside the emission scope, map iteration is fine.
    let map_src = r#"
        use std::collections::HashMap;
        pub fn sum(m: &HashMap<u32, u32>) -> u32 { m.values().sum() }
    "#;
    assert!(rules_fired("crates/model/src/init.rs", map_src).is_empty());
}

// --- wallclock-in-kernel ---

#[test]
fn instant_in_tensor_crate_fires() {
    let src = r#"
        use std::time::Instant;
        pub fn gemm_timed() { let t0 = Instant::now(); }
    "#;
    let fired = rules_fired("crates/tensor/src/mk.rs", src);
    assert!(fired.iter().all(|r| r == "wallclock-in-kernel"));
    assert!(!fired.is_empty());
}

#[test]
fn instant_outside_kernel_scope_is_allowed() {
    let src = r#"
        use std::time::Instant;
        pub fn now_us() -> u128 { Instant::now().elapsed().as_micros() }
    "#;
    assert!(rules_fired("crates/trace/src/span.rs", src).is_empty());
}

// --- raw-thread-spawn ---

#[test]
fn raw_thread_spawn_fires() {
    let src = r#"
        pub fn go() {
            std::thread::spawn(|| {});
        }
    "#;
    assert_eq!(
        rules_fired("crates/model/src/pipeline.rs", src),
        ["raw-thread-spawn"]
    );
}

#[test]
fn thread_use_in_the_group_is_allowed() {
    let src = r#"
        pub fn go() {
            std::thread::spawn(|| {});
        }
    "#;
    assert!(rules_fired("crates/comm/src/group.rs", src).is_empty());
    // `stream.rs` is not on the allowlist: streams are clocks, so a
    // thread spawned there is flagged.
    assert_eq!(rules_fired("crates/comm/src/stream.rs", src), ["raw-thread-spawn"]);
}

#[test]
fn a_stream_worker_in_either_engine_fires() {
    // The comm and copy streams are clocks on the rank thread: a worker
    // thread spawned in either engine, plainly or scoped, is flagged.
    for src in [
        r#"
        pub fn new() -> Self {
            std::thread::spawn(|| {});
        }
    "#,
        r#"
        pub fn wait(&self) {
            std::thread::scope(|s| { s.spawn(|| {}); });
        }
    "#,
    ] {
        assert_eq!(rules_fired("crates/comm/src/engine.rs", src), ["raw-thread-spawn"]);
        assert_eq!(rules_fired("crates/core/src/offload.rs", src), ["raw-thread-spawn"]);
    }
}

// --- dropped-span-guard ---

#[test]
fn discarded_span_guard_fires() {
    let src = r#"
        pub fn step(tracer: &Tracer) {
            let _ = tracer.span("forward");
            work();
        }
    "#;
    assert_eq!(
        rules_fired("crates/core/src/runtime/mod.rs", src),
        ["dropped-span-guard"]
    );
}

#[test]
fn named_span_guard_is_allowed() {
    let src = r#"
        pub fn step(tracer: &Tracer) {
            let _guard = tracer.span("forward");
            work();
        }
    "#;
    assert!(rules_fired("crates/core/src/runtime/mod.rs", src).is_empty());
    // `let _ =` without a span in the initializer is fine too.
    let no_span = r#"
        pub fn step() { let _ = compute(); }
    "#;
    assert!(rules_fired("crates/core/src/runtime/mod.rs", no_span).is_empty());
}

// --- unchecked-ckpt-io ---

#[test]
fn discarded_ckpt_write_fires() {
    let src = r#"
        pub fn save(dir: &Path, d: &StateDict) {
            let _ = write_shard(dir, 0, 1, d);
        }
    "#;
    assert_eq!(
        rules_fired("crates/core/src/runtime/ckpt.rs", src),
        ["unchecked-ckpt-io"]
    );
}

#[test]
fn ok_erased_ckpt_read_fires() {
    let src = r#"
        pub fn peek(p: &Path) -> Option<StateDict> {
            read_shard(p).ok()
        }
    "#;
    assert_eq!(
        rules_fired("crates/core/src/runtime/dist.rs", src),
        ["unchecked-ckpt-io"]
    );
}

#[test]
fn discarded_trainer_checkpoint_fires() {
    let src = r#"
        pub fn save_and_go(t: &Trainer, dir: &Path) {
            let _ = t.checkpoint(dir);
        }
    "#;
    for path in ["crates/core/src/runtime/dist.rs", "src/bin/fpdt-ckpt.rs"] {
        assert_eq!(rules_fired(path, src), ["unchecked-ckpt-io"], "{path}");
    }
}

#[test]
fn propagated_ckpt_io_is_allowed() {
    let src = r#"
        pub fn save(dir: &Path, d: &StateDict) -> Result<(), CkptError> {
            write_shard(dir, 0, 1, d)?;
            std::fs::rename(tmp, path)?;
            Ok(())
        }
    "#;
    assert!(rules_fired("crates/core/src/runtime/ckpt.rs", src).is_empty());
    // Non-ckpt Results may still be discarded, and the rule stays scoped:
    // the same discard outside the checkpoint surface is someone else's
    // contract.
    let elsewhere = r#"
        pub fn cleanup(dir: &Path) {
            let _ = std::fs::remove_dir_all(dir);
            let _ = write_shard(dir, 0, 1, d);
        }
    "#;
    assert!(rules_fired("crates/core/src/offload.rs", elsewhere).is_empty());
}

// --- item-after-test-module ---

#[test]
fn item_after_the_test_module_fires() {
    let src = r#"
        pub fn above() {}
        #[cfg(test)]
        mod tests {
            #[test]
            fn t() {}
        }
        /// Counted by nobody who stops at the test module.
        pub fn below() -> u32 { 1 }
        #[cfg(test)]
        mod more_tests {}
    "#;
    let found = lint_source("crates/sim/src/engine.rs", src);
    assert_eq!(found.iter().map(|f| f.rule.as_str()).collect::<Vec<_>>(), ["item-after-test-module"]);
    assert_eq!(found[0].excerpt, "pub fn below() -> u32 { 1 }");
}

#[test]
fn tests_at_the_end_or_outside_crate_sources_are_allowed() {
    // Test items only after the first test module (a second module, a
    // lone `#[test]` fn), and a nested test module closed by its parent.
    let src = r#"
        pub fn above() {}
        pub mod inner {
            pub fn f() {}
            #[cfg(test)]
            mod tests {}
        }
        #[cfg(test)]
        mod tests {
            fn helper() {}
        }
        #[cfg(test)]
        mod more_tests {}
        #[test]
        fn lone() {}
    "#;
    assert!(rules_fired("crates/sim/src/engine.rs", src).is_empty());
    // The rule covers crate sources only: integration tests, bins at the
    // root and examples may order items as they like.
    let trailing = r#"
        #[cfg(test)]
        mod tests {}
        pub fn below() {}
    "#;
    assert!(rules_fired("src/bin/fpdt-plan.rs", trailing).is_empty());
    assert!(rules_fired("crates/core/tests/common/mod.rs", trailing).is_empty());
    assert_eq!(rules_fired("crates/bench/src/bin/figure7.rs", trailing), ["item-after-test-module"]);
}

// --- suppressions ---

#[test]
fn suppression_above_the_line_silences_the_finding() {
    let src = r#"
        pub fn drain(v: Option<u32>) -> u32 {
            // fpdt-lint: allow(unwrap-in-comm-path): fixture — value is guaranteed by construction
            v.unwrap()
        }
    "#;
    assert!(rules_fired("crates/comm/src/wire.rs", src).is_empty());
}

#[test]
fn suppression_on_the_same_line_silences_the_finding() {
    let src = r#"
        pub fn drain(v: Option<u32>) -> u32 {
            v.unwrap() // fpdt-lint: allow(unwrap-in-comm-path): fixture — guaranteed present
        }
    "#;
    assert!(rules_fired("crates/comm/src/wire.rs", src).is_empty());
}

#[test]
fn suppression_without_reason_is_malformed_and_does_not_suppress() {
    let src = r#"
        pub fn drain(v: Option<u32>) -> u32 {
            // fpdt-lint: allow(unwrap-in-comm-path)
            v.unwrap()
        }
    "#;
    let mut fired = rules_fired("crates/comm/src/wire.rs", src);
    fired.sort();
    assert_eq!(fired, ["malformed-suppression", "unwrap-in-comm-path"]);
}

#[test]
fn suppression_naming_unknown_rule_is_malformed() {
    let src = r#"
        // fpdt-lint: allow(no-such-rule): whatever
        pub fn f() {}
    "#;
    assert_eq!(rules_fired("crates/model/src/x.rs", src), ["malformed-suppression"]);
}

#[test]
fn suppression_matching_nothing_is_reported_unused() {
    let src = r#"
        // fpdt-lint: allow(unwrap-in-comm-path): left behind after a refactor
        pub fn f() {}
    "#;
    assert_eq!(
        rules_fired("crates/comm/src/wire.rs", src),
        ["unused-suppression"]
    );
}

#[test]
fn prose_mentioning_the_tool_is_not_a_directive() {
    let src = r#"
        //! Checked by `fpdt-lint` (rule env-outside-options).
        // see fpdt-lint for details
        pub fn f() {}
    "#;
    assert!(rules_fired("crates/model/src/x.rs", src).is_empty());
}
