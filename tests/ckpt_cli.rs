//! The `fpdt-ckpt` inspector end to end. It validates a checkpoint
//! directory through `Trainer::resume`, so it accepts exactly the shard
//! sets a training run can continue from, and each typed failure class
//! leaves through its own exit code (3 missing, 4 corrupt).

use fpdt_core::runtime::ckpt::{read_shard, shard_paths, write_shard, StateValue};
use fpdt_core::runtime::{Mode, RuntimeOptions, TrainConfig, Trainer};
use fpdt_model::config::ModelConfig;
use std::path::{Path, PathBuf};
use std::process::Output;

fn fresh_checkpoint() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fpdt-ckpt-cli-{}", std::process::id()));
    drop(std::fs::remove_dir_all(&dir));
    let runtime = RuntimeOptions::from_env()
        .with_fault_inject(0)
        .with_comm_retries(0);
    let mut t = Trainer::new(TrainConfig {
        model: ModelConfig::tiny(1, 8, 2, 8),
        seq: 16,
        steps: 2,
        runtime,
        ..TrainConfig::small(Mode::Fpdt {
            chunks: 2,
            offload: true,
        })
    });
    t.run_steps(2).expect("two clean steps");
    t.checkpoint(&dir).expect("checkpoint");
    dir
}

fn fpdt_ckpt(args: &[&str], dir: &Path) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_fpdt-ckpt"))
        .args(args)
        .arg(dir)
        .output()
        .expect("fpdt-ckpt runs")
}

#[test]
fn exit_codes_follow_what_resume_accepts() {
    let dir = fresh_checkpoint();
    let shards = shard_paths(&dir).expect("a complete shard set");
    assert_eq!(shards.len(), 2);
    let pristine: Vec<Vec<u8>> = shards.iter().map(|p| std::fs::read(p).unwrap()).collect();
    let restore = || {
        for (path, bytes) in shards.iter().zip(&pristine) {
            std::fs::write(path, bytes).unwrap();
        }
    };

    // intact: exit 0 and an `ok:` line; `--keys` lists the raw entries
    let out = fpdt_ckpt(&[], &dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.lines().any(|l| l.starts_with("ok: 2 shards")),
        "{stdout}"
    );
    assert!(stdout.contains("step=2"), "{stdout}");
    let keys = fpdt_ckpt(&["--keys"], &dir);
    assert_eq!(keys.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&keys.stdout).contains("opt.step"));

    // one shard removed: missing
    std::fs::remove_file(&shards[1]).unwrap();
    assert_eq!(fpdt_ckpt(&[], &dir).status.code(), Some(3));
    restore();

    // one shard truncated: corrupt
    std::fs::write(&shards[0], &pristine[0][..pristine[0].len() / 2]).unwrap();
    assert_eq!(fpdt_ckpt(&[], &dir).status.code(), Some(4));
    restore();

    // shard 1 disagrees with shard 0 on the optimizer step: a well-formed
    // file whose state resume refuses, so the inspector refuses it too
    let mut doctored = read_shard(&shards[1]).unwrap();
    let step = doctored.u64_scalar("opt.step").unwrap();
    doctored.insert("opt.step", StateValue::U64(vec![step + 1]));
    write_shard(&dir, 1, 2, &doctored).unwrap();
    let out = fpdt_ckpt(&[], &dir);
    assert_eq!(
        out.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    drop(std::fs::remove_dir_all(&dir));
}
