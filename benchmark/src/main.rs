//! The repo benchmark: four training workloads measured end to end and,
//! from a traced run, layer by layer. See `README.md` beside this package.
//!
//! ```text
//! fpdt-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last stdout line is the result
//! fpdt-benchmark --seed <n> [--seconds <s>] [--smoke] [--selfcheck]
//!     every workload, each in a child process, both trace modes
//! ```

mod host;
mod json;
mod metrics;
mod probes;
mod reduce;
mod run;
mod stats;
mod suite;
mod workloads;

use json::object;
use metrics::{END_TO_END, PER_LAYER};
use run::{Outcome, RunArgs};
use serde_json::Value;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::Workload;

/// Default `--seconds`; `BENCHMARK.json` names the same number.
pub const RUN_SECONDS: u64 = 20;

struct Cli {
    workload: Option<String>,
    run: RunArgs,
    selfcheck: bool,
    /// Internal: this process is one leg of an untraced run, timing for
    /// this many milliseconds.
    leg_millis: Option<u64>,
    /// Internal: fewest timed segments of the leg.
    leg_segments: usize,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        run: RunArgs {
            seed: 0,
            seconds: RUN_SECONDS,
            trace: false,
            smoke: false,
        },
        selfcheck: false,
        leg_millis: None,
        leg_segments: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                cli.run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => cli.run.smoke = true,
            "--selfcheck" => cli.selfcheck = true,
            "--leg" => cli.leg_millis = Some(value()?.parse().map_err(|e| format!("--leg: {e}"))?),
            "--leg-segments" => {
                cli.leg_segments = value()?
                    .parse()
                    .map_err(|e| format!("--leg-segments: {e}"))?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("error: {why}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = &cli.workload else {
        return suite::run(&cli.run, cli.selfcheck);
    };
    let Some(w) = workloads::by_name(name) else {
        let known: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
        eprintln!("error: unknown workload {name}; known: {known:?}");
        return ExitCode::from(2);
    };
    // Before any thread exists and before any knob is parsed.
    workloads::pin_environment(&w);
    if let Some(millis) = cli.leg_millis {
        run::leg(&w, cli.run.seed, millis, cli.leg_segments, started);
        return ExitCode::SUCCESS;
    }
    let outcome = run::run(&w, &cli.run);
    report(&w, &cli.run, &outcome, started.elapsed().as_secs_f64())
}

/// Where and how the numbers were taken.
fn environment() -> Value {
    let head = Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    object(vec![
        ("nproc", Value::UInt(rayon::pool::hardware_threads() as u64)),
        (
            "thread_budget",
            Value::UInt(rayon::pool::current_threads() as u64),
        ),
        (
            "simd_backend",
            Value::Str(format!("{:?}", fpdt_tensor::mk::backend())),
        ),
        ("sim_gbps", Value::Float(fpdt_trace::wire::link_gbps())),
        ("git_head", Value::Str(head)),
    ])
}

/// Prints every metric of this trace mode by name with its unit, writes
/// the run's record under `benchmark/out/`, and ends stdout with the one
/// result line the driver reads.
fn report(w: &Workload, args: &RunArgs, outcome: &Outcome, wall_s: f64) -> ExitCode {
    println!("{}: {}", w.name, w.why);
    let named: Vec<(&str, &str, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect()
    };
    let metrics = Value::Object(
        named
            .iter()
            .map(|&(name, unit, better)| {
                let value = outcome.values.get(name);
                println!("  {name:<32}{value:>18.4} {unit} ({better} is better)");
                let entry = object(vec![
                    ("value", Value::Float(value)),
                    ("unit", Value::Str(unit.to_string())),
                ]);
                (name.to_string(), entry)
            })
            .collect(),
    );
    for failure in &outcome.failures {
        println!("{failure}");
    }
    let correct = outcome.failures.is_empty();
    let result = object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(outcome.attempted)),
        ("failed", Value::UInt(outcome.failed)),
        ("metrics", metrics),
    ]);

    let record = object(vec![
        ("workload", Value::Str(w.name.to_string())),
        ("seed", Value::UInt(args.seed)),
        ("seconds", Value::UInt(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("comparable", Value::Bool(!args.smoke)),
        ("environment", environment()),
        (
            "step_ms",
            Value::Array(
                outcome
                    .step_ms
                    .iter()
                    .map(|leg| Value::Array(leg.iter().copied().map(Value::Float).collect()))
                    .collect(),
            ),
        ),
        (
            "host_probe_ms",
            Value::Array(
                outcome
                    .probe_ms
                    .iter()
                    .map(|leg| Value::Array(leg.iter().copied().map(Value::Float).collect()))
                    .collect(),
            ),
        ),
        (
            "tail_percentile",
            outcome.tail_percentile.map_or(Value::Null, Value::Float),
        ),
        ("wall_s", Value::Float(wall_s)),
        (
            "losses_head",
            Value::Array(
                outcome
                    .losses_head
                    .iter()
                    .map(|&l| Value::Float(f64::from(l)))
                    .collect(),
            ),
        ),
        (
            "check_failures",
            Value::Array(outcome.failures.iter().cloned().map(Value::Str).collect()),
        ),
        ("result", result.clone()),
    ]);
    std::fs::write(
        run::record_path(w, args.trace),
        serde_json::to_string_pretty(&record).expect("render the record"),
    )
    .expect("write the run record");

    println!(
        "{}",
        serde_json::to_string(&result).expect("render the result")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
