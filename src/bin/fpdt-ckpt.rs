//! `fpdt-ckpt` — validate and inspect a sharded FPDT checkpoint directory.
//!
//! ```sh
//! fpdt-ckpt target/experiments/resume_ckpt
//! fpdt-ckpt --keys target/experiments/resume_ckpt
//! ```
//!
//! Validates the directory by resuming it: [`Trainer::resume`] is the one
//! reader of the shard schema, so the tool accepts exactly the shard sets
//! a training run can continue from. It then prints the restored training
//! geometry, progress, loss tail and recovery counters, and each shard's
//! file name and size. With `--keys` it also lists every raw state entry
//! per shard with its type and element count — useful when a resume fails
//! and you need to see what is actually on disk.
//!
//! Exit codes distinguish the typed failure classes of
//! [`fpdt_core::runtime::ckpt::CkptError`]: 2 = usage, 3 = missing
//! shards, 4 = corrupt/version mismatch, 5 = I/O.

// A discarded checkpoint I/O result resumes from half-written state.
#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]

use fpdt_core::runtime::ckpt::{read_shard, shard_paths, CkptError, StateDict};
use fpdt_core::runtime::Trainer;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: fpdt-ckpt [--keys] <checkpoint-dir>"
}

fn entry_desc(dict: &StateDict, key: &str) -> String {
    if let Ok(v) = dict.f32s(key) {
        format!("f32[{}]", v.len())
    } else if let Ok(v) = dict.u64s(key) {
        format!("u64[{}]", v.len())
    } else if let Ok(s) = dict.str(key) {
        format!("str({} bytes)", s.len())
    } else {
        "?".into()
    }
}

fn loss_tail(losses: &[f32]) -> String {
    let tail: Vec<String> = losses
        .iter()
        .rev()
        .take(4)
        .rev()
        .map(|l| format!("{l:.4}"))
        .collect();
    if losses.len() > tail.len() {
        format!("... {}", tail.join(" "))
    } else {
        tail.join(" ")
    }
}

fn inspect(dir: &Path, show_keys: bool) -> Result<(), CkptError> {
    let trainer = Trainer::resume(dir)?;
    let (cfg, report) = (trainer.config(), trainer.report());
    let m = &cfg.model;
    println!("checkpoint {}", dir.display());
    println!(
        "  model    {} ({:?}): layers={} hidden={} heads={}/{} ffn={} vocab={}",
        m.name, m.family, m.layers, m.hidden, m.heads, m.kv_heads, m.ffn_hidden, m.vocab,
    );
    println!(
        "  geometry world={} seq={} mode={:?} zero1={} ac={} accum={} warmup={} seed={}",
        cfg.world,
        cfg.seq,
        cfg.mode,
        cfg.zero_shard,
        cfg.activation_checkpoint,
        cfg.grad_accum,
        cfg.warmup_steps,
        cfg.seed,
    );
    println!(
        "  progress step={}, {} recorded losses: {}",
        trainer.step(),
        report.losses.len(),
        loss_tail(&report.losses),
    );
    println!(
        "  recovery faults={} retries={}",
        report.comm.faults, report.comm.retries,
    );

    let paths = shard_paths(dir)?;
    for (i, path) in paths.iter().enumerate() {
        let bytes = std::fs::metadata(path)?.len();
        println!(
            "  shard {i:>4}  {bytes:>10} bytes  {}",
            path.file_name().and_then(|n| n.to_str()).unwrap_or("?"),
        );
        if show_keys {
            let dict = read_shard(path)?;
            for key in dict.keys() {
                println!("      {key:<28} {}", entry_desc(&dict, key));
            }
        }
    }
    println!("ok: {} shards, consistent", paths.len());
    Ok(())
}

fn main() -> ExitCode {
    let mut show_keys = false;
    let mut dir: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--keys" => show_keys = true,
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => dir = Some(PathBuf::from(other)),
            other => {
                eprintln!("unknown flag {other:?}\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    match inspect(&dir, show_keys) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("fpdt-ckpt: {err}");
            ExitCode::from(match err {
                CkptError::Missing(_) => 3,
                CkptError::Corrupt(_) | CkptError::Version(_) => 4,
                CkptError::Io(_) => 5,
            })
        }
    }
}
