//! Every workload from one command: each runs in a child process of its
//! own (the link, thread budget and SIMD backend are process-wide), once
//! with tracing off and once traced. `--selfcheck` runs the set twice and
//! holds the end-to-end metrics to their own bounds.

use crate::json::{at, field, items, number, object, text};
use crate::metrics::END_TO_END;
use crate::run::{out_dir, record_path, RunArgs};
use crate::workloads::{self, Workload};
use serde_json::Value;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// One workload's two child runs, as the records they left in `out/`.
struct Entry {
    name: &'static str,
    e2e: Value,
    layers: Value,
    correct: bool,
}

/// Runs one child and returns its record, or `None` when it produced none.
/// The child's stdout (metric lines, `CHECK_FAILED` lines) passes through.
fn child(w: &Workload, args: &RunArgs, trace: bool) -> Option<Value> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::inherit())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let path = record_path(w, trace);
    // a stale record must not stand in for a child that died
    let _ = std::fs::remove_file(&path);
    let started = Instant::now();
    let status = cmd.status().expect("spawn workload child");
    eprintln!(
        "[{} trace={} finished in {:.1}s, {status}]",
        w.name,
        u8::from(trace),
        started.elapsed().as_secs_f64()
    );
    serde_json::from_str(&std::fs::read_to_string(path).ok()?).ok()
}

fn run_set(args: &RunArgs) -> Vec<Entry> {
    workloads::all()
        .iter()
        .map(|w| {
            let e2e = child(w, args, false);
            let layers = child(w, args, true);
            let ok = |r: &Option<Value>| {
                r.as_ref().and_then(|r| at(r, &["result", "correct"])) == Some(&Value::Bool(true))
            };
            Entry {
                name: w.name,
                correct: ok(&e2e) && ok(&layers),
                e2e: e2e.unwrap_or(Value::Null),
                layers: layers.unwrap_or(Value::Null),
            }
        })
        .collect()
}

fn metric(record: &Value, name: &str) -> Option<f64> {
    at(record, &["result", "metrics", name, "value"]).and_then(number)
}

/// The cross-workload check: `fpdt_long` and `ulysses_long` train the same
/// model on the same data, so their first 20 losses must coincide.
fn check_long_pair(set: &[Entry]) -> Option<String> {
    let losses = |name: &str| -> Vec<f64> {
        set.iter()
            .find(|e| e.name == name)
            .and_then(|e| field(&e.e2e, "losses_head"))
            .map(|l| items(l).iter().filter_map(number).collect())
            .unwrap_or_default()
    };
    let (a, b) = (losses("fpdt_long"), losses("ulysses_long"));
    let worst = a
        .iter()
        .zip(&b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max);
    let compared = a.len().min(b.len());
    (compared == 0 || worst >= 5e-3).then(|| {
        format!(
            "CHECK_FAILED long_pair_losses {compared} steps compared, worst difference {worst:e}"
        )
    })
}

pub fn run(args: &RunArgs, selfcheck: bool) -> ExitCode {
    let first = run_set(args);
    let mut failures: Vec<String> = first
        .iter()
        .filter(|e| !e.correct)
        .map(|e| {
            format!(
                "CHECK_FAILED workload {} did not report a correct result",
                e.name
            )
        })
        .collect();
    failures.extend(check_long_pair(&first));

    if selfcheck {
        let second = run_set(args);
        failures.extend(
            second
                .iter()
                .filter(|e| !e.correct)
                .map(|e| format!("CHECK_FAILED workload {} failed on the second set", e.name)),
        );
        println!(
            "{:<14}{:<14}{:>14}{:>14}{:>9}{:>8}",
            "workload", "metric", "first", "second", "diff", "bound"
        );
        for (a, b) in first.iter().zip(&second) {
            for m in END_TO_END {
                let (Some(x), Some(y)) = (metric(&a.e2e, m.name), metric(&b.e2e, m.name)) else {
                    continue; // already reported as an incorrect workload
                };
                let diff = (y - x) / x;
                let verdict = if diff.abs() > m.bound {
                    failures.push(format!(
                        "SELFCHECK_FAILED {} {} {x} vs {y}: {:.1}% apart, bound {:.0}%",
                        a.name,
                        m.name,
                        diff * 100.0,
                        m.bound * 100.0
                    ));
                    " !"
                } else {
                    ""
                };
                println!(
                    "{:<14}{:<14}{x:>14.3}{y:>14.3}{:>8.2}%{:>7.0}%{verdict}",
                    a.name,
                    m.name,
                    diff * 100.0,
                    m.bound * 100.0
                );
            }
        }
    }

    let summary = object(vec![
        ("seed", Value::UInt(args.seed)),
        ("seconds", Value::UInt(args.seconds)),
        ("comparable", Value::Bool(!args.smoke)),
        (
            "workloads",
            Value::Array(
                first
                    .iter()
                    .map(|e| {
                        object(vec![
                            ("name", Value::Str(e.name.to_string())),
                            ("end_to_end", e.e2e.clone()),
                            ("per_layer", e.layers.clone()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "check_failures",
            Value::Array(failures.iter().cloned().map(Value::Str).collect()),
        ),
    ]);
    let path = out_dir().join("result.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&summary).expect("render the summary"),
    )
    .expect("write the summary");
    for e in &first {
        let head = at(&e.e2e, &["environment", "git_head"]).and_then(text);
        let wall = |r: &Value| field(r, "wall_s").and_then(number).unwrap_or(f64::NAN);
        println!(
            "{:<14} child wall {:>6.1}s + {:>6.1}s  commit {}",
            e.name,
            wall(&e.e2e),
            wall(&e.layers),
            head.unwrap_or("unknown")
        );
    }
    println!("wrote {}", path.display());
    for f in &failures {
        println!("{f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
