//! Checkpoint/resume benchmark and gate for the elastic trainer: trains
//! the FPDT runtime uninterrupted, then again split across a
//! `checkpoint` + `Trainer::resume` round trip through per-rank shards,
//! and again under injected transient collective faults with a replay
//! budget — asserting that every variant reproduces the uninterrupted
//! run's losses, gradients, and traffic counters bit for bit, and
//! measuring what the durability costs (save/restore wall time, shard
//! bytes on disk).
//!
//! Prints `RUNTIME_RESUME_OK` only when all equivalences hold — the CI
//! gate keys off that line. Pass `--json` to suppress the table and emit
//! only `target/experiments/BENCH_resume.json`; `--quick` shrinks the
//! run for CI smoke tests.

use fpdt_bench::{json_mode, write_json};
use fpdt_core::runtime::dist::{Mode, TrainConfig, TrainReport, Trainer};
use fpdt_core::runtime::RuntimeOptions;
use fpdt_model::config::ModelConfig;
use serde::Serialize;
use std::path::Path;
use std::time::Instant;

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    world: usize,
    seq: usize,
    steps: usize,
    split_at: usize,
    uninterrupted_ms: f64,
    resumed_ms: f64,
    checkpoint_ms: f64,
    restore_ms: f64,
    shard_count: usize,
    shard_bytes: u64,
    faults_fired: u64,
    retries_spent: u64,
    bitwise_resume: bool,
    bitwise_recovery: bool,
}

fn digest(r: &TrainReport) -> (Vec<u32>, Vec<u32>) {
    (
        r.losses.iter().map(|x| x.to_bits()).collect(),
        r.grads.iter().map(|x| x.to_bits()).collect(),
    )
}

fn equivalent(a: &TrainReport, b: &TrainReport) -> bool {
    digest(a) == digest(b) && a.comm == b.comm && a.host == b.host
}

fn main() {
    let quiet = json_mode();
    let quick = std::env::args().any(|a| a == "--quick");
    let (steps, split_at) = if quick { (4usize, 2usize) } else { (8, 3) };
    // Pin the knobs that alter numerics or traffic so ambient CI legs
    // (FPDT_BF16, FPDT_FAULT_INJECT) cannot skew the equivalence gate.
    let rt = RuntimeOptions::from_env()
        .with_payload_bf16(false)
        .with_fault_inject(0)
        .with_comm_retries(0);
    let cfg = TrainConfig {
        model: ModelConfig::tiny(2, 32, 4, 50),
        world: 2,
        seq: 128,
        steps,
        mode: Mode::Fpdt {
            chunks: 4,
            offload: true,
        },
        runtime: rt,
        ..TrainConfig::default()
    };

    let t0 = Instant::now();
    let mut whole = Trainer::new(cfg.clone());
    whole.run_steps(steps).expect("uninterrupted run");
    let whole = whole.report();
    let uninterrupted_ms = t0.elapsed().as_secs_f64() * 1e3;

    let dir = Path::new("target/experiments/resume_ckpt");
    let _ = std::fs::remove_dir_all(dir);
    let t1 = Instant::now();
    let mut first = Trainer::new(cfg.clone());
    first.run_steps(split_at).expect("first call");
    let t_ckpt = Instant::now();
    first.checkpoint(dir).expect("checkpoint");
    let checkpoint_ms = t_ckpt.elapsed().as_secs_f64() * 1e3;
    drop(first);
    let t_restore = Instant::now();
    let mut second = Trainer::resume(dir).expect("resume");
    let restore_ms = t_restore.elapsed().as_secs_f64() * 1e3;
    second.set_runtime(rt);
    second.run_steps(steps - split_at).expect("second call");
    let resumed = second.report();
    let resumed_ms = t1.elapsed().as_secs_f64() * 1e3;

    let shards = fpdt_core::runtime::ckpt::shard_paths(dir).expect("shard set");
    let shard_bytes: u64 = shards
        .iter()
        .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .sum();
    let bitwise_resume = equivalent(&whole, &resumed);

    // Recovery leg: two transient faults per call, replayed inside a
    // budget of four — must be invisible in every deterministic counter.
    let mut faulted = Trainer::new(TrainConfig {
        runtime: rt.with_fault_inject(2).with_comm_retries(4),
        ..cfg.clone()
    });
    faulted.run_steps(steps).expect("faulted run recovers");
    let faulted = faulted.report();
    let bitwise_recovery = equivalent(&whole, &faulted) && faulted.comm.faults > 0;

    let report = Report {
        bench: "resume",
        world: cfg.world,
        seq: cfg.seq,
        steps,
        split_at,
        uninterrupted_ms,
        resumed_ms,
        checkpoint_ms,
        restore_ms,
        shard_count: shards.len(),
        shard_bytes,
        faults_fired: faulted.comm.faults,
        retries_spent: faulted.comm.retries,
        bitwise_resume,
        bitwise_recovery,
    };
    write_json("BENCH_resume", &report);

    if !quiet {
        println!(
            "resume bench: world={} seq={} steps={} (split at {})",
            cfg.world, cfg.seq, steps, split_at
        );
        println!(
            "  uninterrupted {uninterrupted_ms:8.1} ms | split+ckpt+resume {resumed_ms:8.1} ms"
        );
        println!(
            "  checkpoint {checkpoint_ms:6.2} ms ({} shards, {} bytes) | restore {restore_ms:6.2} ms",
            shards.len(),
            shard_bytes
        );
        println!(
            "  recovery: {} faults fired, {} replays, losses {}",
            faulted.comm.faults,
            faulted.comm.retries,
            if bitwise_recovery { "bitwise equal" } else { "DIVERGED" }
        );
    }

    assert!(
        bitwise_resume,
        "resumed run diverged from the uninterrupted run"
    );
    assert!(
        bitwise_recovery,
        "fault recovery perturbed the trajectory or never fired"
    );
    println!(
        "RUNTIME_RESUME_OK bitwise across {} shards ({} bytes), {} faults replayed",
        shards.len(),
        shard_bytes,
        report.retries_spent
    );
}
