//! Drives the built binary the way the benchmark driver does, on the
//! cheapest settings (`--smoke`: 3 timed segments, result not comparable).

use serde_json::Value;
use std::process::Command;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

/// The metric names `BENCHMARK.json` promises under `section`.
fn promised(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    match field(&doc, section) {
        Value::Array(items) => items
            .iter()
            .map(|m| match field(m, "name") {
                Value::Str(s) => s.clone(),
                other => panic!("metric name {other:?}"),
            })
            .collect(),
        other => panic!("{section} is {other:?}"),
    }
}

#[test]
fn a_smoke_run_ends_with_the_result_line_in_both_trace_modes() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(env!("CARGO_BIN_EXE_fpdt-benchmark"))
            .args(["--workload", "fpdt_link", "--seed", "7", "--seconds", "1"])
            .args(["--trace", trace, "--smoke"])
            .output()
            .expect("run the benchmark");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "trace {trace} failed:\n{stdout}");
        let last = stdout.lines().last().expect("some output");
        let result = serde_json::from_str(last).expect("the last line is JSON");
        assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(field(&result, "correct"), &Value::Bool(true));
        assert_eq!(field(&result, "failed"), &Value::UInt(0));
        let metrics = field(&result, "metrics");
        assert_eq!(keys(metrics), promised(section), "trace {trace}");
        for name in keys(metrics) {
            assert_eq!(keys(field(metrics, name)), ["value", "unit"], "{name}");
        }
    }
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_fpdt-benchmark"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run the benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
