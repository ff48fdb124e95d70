//! Measured autotuner bench — and the planner's CLI entry point.
//!
//! Probes the real runtime ([`fpdt_core::runtime::autotune::calibrate`]:
//! every `(chunks, bf16)` cell trained as it will run, fastest of 3),
//! picks the fastest candidate ([`fpdt_core::runtime::autotune::search`]),
//! then *measures every candidate again* in interleaved rounds and grades
//! the pick: the tuned configuration must measure at least 0.97× the
//! default configuration's tokens/s. That gate is the one
//! `RUNTIME_AUTOTUNE_OK` line CI greps for.
//!
//! Artifacts under `target/experiments/`: `calibration.json` (the probe
//! table — reusable via `--calibration PATH`), `BENCH_autotune.json`
//! (per-config probed/measured rows), and `autotune_env.sh` (the tuned
//! configuration as `FPDT_*` exports, so CI can rerun the test suite
//! under it).
//!
//! Pass `--json` to suppress the table; `--quick` shrinks the grid for
//! CI smoke tests.

use fpdt_bench::json_mode;
use fpdt_core::runtime::autotune::{calibrate, search, Calibration, CandidateConfig, Workload};
use fpdt_core::runtime::dist::{train, Mode, TrainConfig};
use fpdt_model::config::ModelConfig;
use rayon::pool;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize, Clone)]
struct Row {
    chunks: usize,
    payload_bf16: bool,
    threads: usize,
    probed_step_us: f64,
    measured_step_us: f64,
    tokens_per_s: f64,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    seq: usize,
    steps: usize,
    threads: usize,
    sim_gbps: f64,
    calibration_reused: bool,
    rows: Vec<Row>,
    tuned: Row,
    default: Row,
    speedup: f64,
}

/// One training run of a candidate, returning the per-step wall time in
/// µs.
fn run_once(config: &CandidateConfig, model: &ModelConfig, seq: usize, steps: usize) -> f64 {
    let cfg = TrainConfig {
        model: model.clone(),
        world: 1,
        seq,
        steps,
        mode: Mode::Fpdt {
            chunks: config.chunks,
            offload: true,
        },
        // `options()` pins the payload explicitly, so an ambient
        // FPDT_BF16 can never leak into a measurement leg.
        runtime: config.options(),
        ..TrainConfig::default()
    };
    let prev = pool::set_threads(config.threads);
    let t0 = Instant::now();
    train(&cfg);
    let us = t0.elapsed().as_secs_f64() * 1e6 / steps as f64;
    pool::set_threads(prev);
    us
}

fn main() {
    let quiet = json_mode();
    let quick = std::env::args().any(|a| a == "--quick");
    let calibration_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--calibration")
            .and_then(|i| args.get(i + 1).cloned())
    };
    // Transfers must take wall-clock time proportional to wire bytes or
    // there is nothing to tune: model a ~1 GB/s host link unless the
    // caller picked a bandwidth. Must precede every engine run.
    if std::env::var_os("FPDT_SIM_GBPS").is_none() {
        std::env::set_var("FPDT_SIM_GBPS", "1");
    }
    let sim_gbps = fpdt_trace::wire::link_gbps();
    let (seq, steps) = if quick { (256, 2) } else { (256, 3) };
    let model = ModelConfig::tiny(2, 64, 4, 50);

    let threads = pool::current_threads();

    let mut workload = Workload {
        world: 1,
        probe_steps: steps,
        chunk_candidates: if quick { vec![4] } else { vec![2, 4] },
        allow_bf16: true,
        ..Workload::new(model.clone(), seq)
    };

    let default_config = CandidateConfig {
        chunks: 4,
        payload_bf16: false,
        threads,
    };
    // Warm the process (allocator pools, caches, stream workers) before
    // the probe: probe and measurement must both see steady state.
    run_once(&default_config, &model, seq, 1);

    let dir = std::path::PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    let (calibration, reused) = match &calibration_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
            let cal = Calibration::from_json(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"));
            // The search may only visit cells the loaded probe covered.
            workload.chunk_candidates = {
                let mut cs: Vec<usize> = cal.cells.iter().map(|c| c.chunks).collect();
                cs.sort_unstable();
                cs.dedup();
                cs
            };
            workload.allow_bf16 = cal.cells.iter().any(|c| c.payload_bf16);
            (cal, true)
        }
        None => {
            let cal = calibrate(&workload);
            let path = dir.join("calibration.json");
            std::fs::write(&path, cal.to_json()).expect("write calibration.json");
            if !quiet {
                println!("[wrote {}]", path.display());
            }
            (cal, false)
        }
    };

    let (evaluated, best) = search(&calibration, &workload);

    // Measure every evaluated configuration (the grid contains the
    // default) in INTERLEAVED rounds, scoring each by its minimum: a
    // host-load burst spreads across all configs instead of landing on
    // whichever ran last, and the minimum discards it entirely —
    // neighbor load on a shared host is strictly additive.
    let mut configs: Vec<CandidateConfig> = evaluated.iter().map(|e| e.config).collect();
    if !configs.contains(&default_config) {
        configs.push(default_config);
    }
    let mut measured = vec![f64::INFINITY; configs.len()];
    for _round in 0..5 {
        for (config, best_us) in configs.iter().zip(&mut measured) {
            *best_us = best_us.min(run_once(config, &model, seq, steps));
        }
    }

    let row_for = |config: &CandidateConfig| {
        let at = configs
            .iter()
            .position(|c| c == config)
            .expect("config was measured");
        Row {
            chunks: config.chunks,
            payload_bf16: config.payload_bf16,
            threads: config.threads,
            probed_step_us: evaluated
                .iter()
                .find(|ev| ev.config == *config)
                .map_or(0.0, |ev| ev.step_us),
            measured_step_us: measured[at],
            tokens_per_s: seq as f64 / (measured[at] * 1e-6),
        }
    };
    let rows: Vec<Row> = evaluated.iter().map(|ev| row_for(&ev.config)).collect();

    // Adoption policy: switching configuration is only worth real-world
    // variance when the probe shows a material win — under 5% over the
    // default, keep the default.
    let default_probed = evaluated
        .iter()
        .find(|ev| ev.config == default_config)
        .map(|ev| ev.step_us);
    let tuned_config = match default_probed {
        Some(probed) if best.step_us >= probed * 0.95 => default_config,
        _ => best.config,
    };
    let tuned_row = row_for(&tuned_config);
    let default_row = row_for(&default_config);
    let speedup = tuned_row.tokens_per_s / default_row.tokens_per_s;

    if !quiet {
        println!(
            "autotune: seq {seq}, {steps} steps, {threads} threads, {sim_gbps} GB/s simulated \
             link, calibration {}",
            if reused { "reused" } else { "probed" }
        );
        println!(
            "{:<8}{:<7}{:<9}{:>11}{:>13}{:>12}",
            "chunks", "bf16", "threads", "probed us", "measured us", "tokens/s"
        );
        for r in &rows {
            println!(
                "{:<8}{:<7}{:<9}{:>11.0}{:>13.0}{:>12.0}",
                r.chunks,
                r.payload_bf16,
                r.threads,
                r.probed_step_us,
                r.measured_step_us,
                r.tokens_per_s
            );
        }
        println!(
            "tuned: {} chunks, bf16 {}, {} threads — {:.0} tokens/s vs default {:.0} ({:+.1}%)",
            tuned_row.chunks,
            tuned_row.payload_bf16,
            tuned_row.threads,
            tuned_row.tokens_per_s,
            default_row.tokens_per_s,
            (speedup - 1.0) * 100.0
        );
    }

    // The tuned configuration as sourceable exports, so CI can replay a
    // tier-1 test pass under exactly what the tuner picked.
    let env_body = format!(
        "# generated by `cargo run -p fpdt-bench --bin autotune` — the tuned configuration\n\
         export FPDT_BF16={}\nexport FPDT_THREADS={}\n",
        u8::from(tuned_row.payload_bf16),
        tuned_row.threads
    );
    let env_path = dir.join("autotune_env.sh");
    std::fs::write(&env_path, env_body).expect("write autotune_env.sh");

    let report = Report {
        bench: "autotune",
        seq,
        steps,
        threads,
        sim_gbps,
        calibration_reused: reused,
        rows,
        tuned: tuned_row.clone(),
        default: default_row.clone(),
        speedup,
    };
    let path = dir.join("BENCH_autotune.json");
    let body = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&path, &body).expect("write BENCH_autotune.json");
    let reparsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).expect("read back"))
            .expect("BENCH_autotune.json parses");
    let has_rows = matches!(
        &reparsed,
        serde_json::Value::Object(entries)
            if entries.iter().any(|(key, val)| {
                key == "rows" && matches!(val, serde_json::Value::Array(_))
            })
    );
    assert!(has_rows, "rows array present");
    println!("BENCH_JSON_OK {}", path.display());

    // The gate: tuning must never lose to the default configuration. A
    // measured dead heat is not a loss: minima of 5 interleaved runs on
    // a shared host still carry a few percent of jitter, so only a
    // deficit beyond that noise floor (3%) is a real regression.
    let quality_ok = tuned_row.tokens_per_s >= default_row.tokens_per_s * 0.97;
    if reused {
        // A loaded probe table was measured in another machine epoch, so
        // grade advisorily; CI's `RUNTIME_AUTOTUNE_OK` grep only ever runs
        // the fresh-probe path.
        println!(
            "RUNTIME_AUTOTUNE_REUSED tuned {:.0} vs default {:.0} tokens/s \
             (stale calibration: gate advisory, re-probe to grade)",
            tuned_row.tokens_per_s, default_row.tokens_per_s
        );
    } else if quality_ok {
        println!(
            "RUNTIME_AUTOTUNE_OK tuned {:.0} >= 0.97 x default {:.0} tokens/s",
            tuned_row.tokens_per_s, default_row.tokens_per_s
        );
    } else {
        eprintln!(
            "RUNTIME_AUTOTUNE_FAIL: tuned config {:.0} tokens/s lost to default {:.0} tokens/s",
            tuned_row.tokens_per_s, default_row.tokens_per_s
        );
        std::process::exit(1);
    }
}
