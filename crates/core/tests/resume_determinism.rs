//! Bitwise-identical resume, elastic resharding, and fault recovery.
//!
//! The elastic fault-tolerance contract, end to end:
//!
//! * interrupting a run at any optimizer-window boundary — through an
//!   in-memory segment split or a full `checkpoint` + `Trainer::resume`
//!   round trip through disk shards — continues **bitwise identically**:
//!   same loss bits, same gradient bits, same communication and host-pool
//!   counters as the uninterrupted run, across kernel-thread budgets and
//!   the bf16 payload knob;
//! * resizing the thread-device world re-shards flat state exactly, along
//!   a chain of resizes too, and a resize commutes with checkpoint/resume;
//! * injected transient collective faults are replayed invisibly inside
//!   the retry budget, and roll the session back to the last step
//!   boundary when the budget is exhausted;
//! * corrupted, truncated, or missing shards surface as typed
//!   [`CkptError`]s, never as panics or silently wrong state — a shard cut
//!   at any byte or with any length field near `u64::MAX` included; a
//!   flipped bit anywhere is such an error or a clean resume.

mod common;

use common::forced;
use fpdt_core::runtime::ckpt::{self, CkptError, StateDict, StateValue};
use fpdt_core::runtime::dist::{Mode, TrainConfig, TrainError, TrainReport, Trainer};
use fpdt_core::runtime::options::RuntimeOptions;
use fpdt_model::config::ModelConfig;
use std::path::PathBuf;

fn base_cfg(runtime: RuntimeOptions) -> TrainConfig {
    TrainConfig {
        steps: 6,
        mode: Mode::Fpdt {
            chunks: 4,
            offload: true,
        },
        // pin the recovery knobs so the ambient FPDT_FAULT_INJECT /
        // FPDT_COMM_RETRIES CI leg cannot skew baselines; tests that
        // exercise recovery re-enable them explicitly
        runtime: runtime.with_fault_inject(0).with_comm_retries(0),
        ..TrainConfig::small(Mode::Single)
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fpdt-resume-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn uninterrupted(cfg: &TrainConfig) -> TrainReport {
    let mut t = Trainer::new(cfg.clone());
    t.run_steps(cfg.steps).expect("clean run");
    t.report()
}

/// Train `k` steps, checkpoint to disk, drop the trainer, resume from the
/// shards, finish — the full persistence round trip.
fn resumed(cfg: &TrainConfig, k: usize, tag: &str) -> TrainReport {
    let dir = fresh_dir(tag);
    {
        let mut t = Trainer::new(cfg.clone());
        t.run_steps(k).expect("first segment");
        t.checkpoint(&dir).expect("checkpoint");
    }
    let mut t = Trainer::resume(&dir).expect("resume");
    assert_eq!(t.step(), k, "resume continues at the saved step");
    // runtime knobs are policy, not state: reapply the run's exact knobs
    // so ambient FPDT_* CI legs cannot skew the comparison
    t.set_runtime(cfg.runtime);
    t.run_steps(cfg.steps - k).expect("second segment");
    let report = t.report();
    let _ = std::fs::remove_dir_all(&dir);
    report
}

fn assert_reports_bitwise_equal(a: &TrainReport, b: &TrainReport, what: &str) {
    let (la, lb): (Vec<u32>, Vec<u32>) = (
        a.losses.iter().map(|x| x.to_bits()).collect(),
        b.losses.iter().map(|x| x.to_bits()).collect(),
    );
    assert_eq!(la, lb, "loss bits differ ({what})");
    assert!(!a.grads.is_empty(), "gradients must be captured ({what})");
    let (ga, gb): (Vec<u32>, Vec<u32>) = (
        a.grads.iter().map(|x| x.to_bits()).collect(),
        b.grads.iter().map(|x| x.to_bits()).collect(),
    );
    assert_eq!(ga, gb, "gradient bits differ ({what})");
    assert_eq!(a.comm, b.comm, "comm traffic differs ({what})");
    assert_eq!(a.host, b.host, "host-pool counters differ ({what})");
    assert_eq!(a.opt_state_bytes, b.opt_state_bytes, "opt state ({what})");
}

#[test]
fn resume_is_bitwise_identical_across_thread_budgets() {
    let rt = RuntimeOptions::from_env().with_payload_bf16(false);
    let reference = uninterrupted(&base_cfg(forced(rt, 1)));
    assert!(
        reference.losses.last().unwrap() < &reference.losses[0],
        "run must actually learn: {:?}",
        reference.losses
    );
    assert!(reference.host.fetches > 0, "offload mode must fetch");
    for threads in [1usize, 2, 8] {
        let run = resumed(
            &base_cfg(forced(rt, threads)),
            3,
            &format!("threads{threads}"),
        );
        assert_reports_bitwise_equal(&reference, &run, &format!("{threads} threads"));
    }
}

#[test]
fn resume_is_bitwise_identical_under_the_bf16_knob() {
    for payload_bf16 in [false, true] {
        let cfg = base_cfg(forced(
            RuntimeOptions::from_env().with_payload_bf16(payload_bf16),
            4,
        ));
        let whole = uninterrupted(&cfg);
        let split = resumed(&cfg, 2, &format!("bf{payload_bf16}"));
        assert_reports_bitwise_equal(&whole, &split, &format!("bf16={payload_bf16}"));
    }
}

#[test]
fn resume_reassembles_zero1_moment_shards_exactly() {
    let cfg = TrainConfig {
        world: 4,
        zero_shard: true,
        ..base_cfg(forced(
            RuntimeOptions::from_env().with_payload_bf16(false),
            4,
        ))
    };
    let whole = uninterrupted(&cfg);
    let split = resumed(&cfg, 3, "zero1");
    assert_reports_bitwise_equal(&whole, &split, "ZeRO-1 sharded moments");
}

#[test]
fn elastic_resize_matches_final_geometry_and_commutes_with_checkpoint() {
    let rt = forced(RuntimeOptions::from_env().with_payload_bf16(false), 4);
    let cfg = TrainConfig {
        world: 4,
        ..base_cfg(rt)
    };

    // Train 3 steps at world=4, shrink to world=2, finish.
    let mut elastic = Trainer::new(cfg.clone());
    elastic.run_steps(3).expect("pre-resize segment");
    let dir = fresh_dir("elastic");
    elastic.checkpoint(&dir).expect("checkpoint at resize point");
    elastic.resize(2);
    elastic.run_steps(3).expect("post-resize segment");
    let elastic = elastic.report();

    // The equivalence claim: after the resize point the trajectory matches
    // a fresh run at the final geometry (world is a pure system knob).
    let fresh = uninterrupted(&TrainConfig {
        world: 2,
        ..cfg.clone()
    });
    for (i, (a, b)) in elastic.losses.iter().zip(&fresh.losses).enumerate() {
        assert!(
            (a - b).abs() <= 2e-3 * (1.0 + a.abs().max(b.abs())),
            "step {i}: {a} vs {b}"
        );
    }

    // And checkpoint/resume commutes with resize: resuming the world=4
    // shards, resizing, and finishing is bitwise the in-memory run.
    let mut through_disk = Trainer::resume(&dir).expect("resume world=4 shards");
    through_disk.set_runtime(rt);
    through_disk.resize(2);
    through_disk.run_steps(3).expect("post-resize segment");
    let through_disk = through_disk.report();
    let _ = std::fs::remove_dir_all(&dir);
    assert_reports_bitwise_equal(&elastic, &through_disk, "resize through disk");
}

#[test]
fn a_resize_chain_matches_final_geometry_and_commutes_with_checkpoint_at_every_resize() {
    // 12 heads and a 96-token sequence in 4 chunks divide across 2, 3
    // and 4 ranks, so one run can visit every world size.
    let rt = forced(RuntimeOptions::from_env().with_payload_bf16(false), 4);
    let cfg = TrainConfig {
        model: ModelConfig::tiny(2, 48, 12, 50),
        world: 4,
        seq: 96,
        steps: 8,
        ..base_cfg(rt)
    };
    let chain = [2usize, 3, 4];
    let per_segment = cfg.steps / (chain.len() + 1);

    // The in-memory chain, checkpointing just before every resize.
    let dirs: Vec<PathBuf> = chain.iter().map(|w| fresh_dir(&format!("chain-to-{w}"))).collect();
    let mut elastic = Trainer::new(cfg.clone());
    elastic.run_steps(per_segment).expect("first segment");
    for (&world, dir) in chain.iter().zip(&dirs) {
        elastic.checkpoint(dir).expect("checkpoint at resize point");
        elastic.resize(world);
        elastic.run_steps(per_segment).expect("segment after resize");
    }
    let elastic = elastic.report();
    assert_eq!(elastic.losses.len(), cfg.steps);

    // World is a pure system knob: the chain ends on the trajectory of a
    // fresh run at the final geometry, within reduction-order tolerance.
    let fresh = uninterrupted(&cfg);
    for (i, (a, b)) in elastic.losses.iter().zip(&fresh.losses).enumerate() {
        assert!(
            (a - b).abs() <= 2e-3 * (1.0 + a.abs().max(b.abs())),
            "step {i}: {a} vs {b}"
        );
    }

    // At every resize point, resuming the shards saved there and finishing
    // the chain is bitwise the in-memory chain.
    for (at, dir) in dirs.iter().enumerate() {
        let mut through_disk = Trainer::resume(dir).expect("resume shards at a resize point");
        through_disk.set_runtime(rt);
        for &world in &chain[at..] {
            through_disk.resize(world);
            through_disk.run_steps(per_segment).expect("segment after resize");
        }
        let _ = std::fs::remove_dir_all(dir);
        assert_reports_bitwise_equal(
            &elastic,
            &through_disk.report(),
            &format!("resumed before the resize to {} ranks", chain[at]),
        );
    }
}

#[test]
fn injected_faults_inside_retry_budget_are_invisible() {
    let rt = forced(RuntimeOptions::from_env().with_payload_bf16(false), 4);
    let clean = uninterrupted(&base_cfg(rt));
    let faulted_rt = rt.with_fault_inject(2).with_comm_retries(4);
    let faulted = uninterrupted(&TrainConfig {
        runtime: faulted_rt,
        ..base_cfg(faulted_rt)
    });
    // a faulted attempt moves zero bytes, a replay moves the full payload
    // once — so the deterministic traffic counters stay equal
    assert_reports_bitwise_equal(&clean, &faulted, "faults within budget");
    assert_eq!(faulted.comm.faults, 2, "both armed faults fired");
    assert_eq!(faulted.comm.retries, 2, "each fault cost one replay");
    assert_eq!(clean.comm.faults, 0);
}

#[test]
fn exhausted_retry_budget_rolls_back_to_the_step_boundary() {
    let rt = forced(RuntimeOptions::from_env().with_payload_bf16(false), 4);
    let clean = uninterrupted(&base_cfg(rt));

    let base = base_cfg(rt);
    let mut t = Trainer::new(TrainConfig {
        runtime: base.runtime.with_fault_inject(1),
        ..base
    });
    let err = t.run_steps(6).expect_err("no retry budget: the step fails");
    assert!(
        matches!(err, TrainError::Comm(ref e) if e.is_retryable()),
        "a transient fault surfaced: {err}"
    );
    assert_eq!(t.step(), 0, "rolled back to the last step boundary");
    assert!(t.report().losses.is_empty());

    // The session is not poisoned: disarm injection and run to the end —
    // the trajectory is bitwise the clean run's.
    t.set_runtime(rt);
    t.run_steps(6).expect("recovered run");
    let recovered = t.report();
    let (a, b): (Vec<u32>, Vec<u32>) = (
        clean.losses.iter().map(|x| x.to_bits()).collect(),
        recovered.losses.iter().map(|x| x.to_bits()).collect(),
    );
    assert_eq!(a, b, "post-rollback trajectory matches the clean run");
}

#[test]
fn corrupted_and_missing_shards_surface_typed_errors() {
    let cfg = base_cfg(forced(
        RuntimeOptions::from_env().with_payload_bf16(false),
        2,
    ));
    let dir = fresh_dir("corrupt");
    let mut t = Trainer::new(cfg);
    t.run_steps(2).expect("segment");
    t.checkpoint(&dir).expect("checkpoint");
    let shards = fpdt_core::runtime::ckpt::shard_paths(&dir).expect("valid set");
    assert_eq!(shards.len(), 2);

    // truncated shard → Corrupt
    let bytes = std::fs::read(&shards[0]).unwrap();
    std::fs::write(&shards[0], &bytes[..bytes.len() / 3]).unwrap();
    assert!(matches!(
        Trainer::resume(&dir).unwrap_err(),
        CkptError::Corrupt(_)
    ));

    // foreign magic → Version
    let mut wrong = bytes.clone();
    wrong[..8].copy_from_slice(b"NOTFPDT!");
    std::fs::write(&shards[0], &wrong).unwrap();
    assert!(matches!(
        Trainer::resume(&dir).unwrap_err(),
        CkptError::Version(_)
    ));

    // restore rank 0, delete rank 1 → Missing
    std::fs::write(&shards[0], &bytes).unwrap();
    std::fs::remove_file(&shards[1]).unwrap();
    assert!(matches!(
        Trainer::resume(&dir).unwrap_err(),
        CkptError::Missing(_)
    ));

    // empty directory → Missing
    std::fs::remove_file(&shards[0]).unwrap();
    assert!(matches!(
        Trainer::resume(&dir).unwrap_err(),
        CkptError::Missing(_)
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_mode_with_a_malformed_offload_flag_is_corrupt() {
    let cfg = base_cfg(forced(
        RuntimeOptions::from_env().with_payload_bf16(false),
        2,
    ));
    let dir = fresh_dir("mode");
    let mut t = Trainer::new(cfg);
    t.run_steps(1).expect("segment");
    t.checkpoint(&dir).expect("checkpoint");
    let pristine: Vec<StateDict> = ckpt::shard_paths(&dir)
        .expect("valid set")
        .iter()
        .map(|p| ckpt::read_shard(p).expect("valid shard"))
        .collect();
    assert_eq!(pristine[0].str("cfg.mode").unwrap(), "fpdt:4:1");
    // rewrites `cfg.mode` in every shard, then resumes
    let resume_as = |mode: &str| {
        for (rank, shard) in pristine.iter().enumerate() {
            let mut d = shard.clone();
            d.insert("cfg.mode", StateValue::Str(mode.into()));
            ckpt::write_shard(&dir, rank, pristine.len(), &d).unwrap();
        }
        Trainer::resume(&dir)
    };
    // a byte flip cannot reach these: `'1' ^ 0x01` is the valid `'0'`
    for bad in ["fpdt:4:2", "fpdt:4:1:x", "fpdt:4:", "fpdt:4:true"] {
        assert!(
            matches!(resume_as(bad), Err(CkptError::Corrupt(_))),
            "{bad:?} must not resume"
        );
    }
    for (flag, offload) in [("0", false), ("1", true)] {
        let resumed = resume_as(&format!("fpdt:4:{flag}")).expect("a valid flag resumes");
        assert_eq!(resumed.config().mode, Mode::Fpdt { chunks: 4, offload });
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Offsets of every length field of a shard: the entry count, then each
/// entry's key length and value length.
fn length_fields(bytes: &[u8]) -> Vec<usize> {
    let word = |at: usize| {
        let raw: [u8; 8] = bytes[at..at + 8].try_into().expect("eight bytes");
        u64::from_le_bytes(raw) as usize
    };
    let mut fields = vec![8];
    let mut at = 16;
    for _ in 0..word(8) {
        fields.push(at);
        at += 8 + word(at);
        // one tag byte: 0 = f32s, 1 = u64s, 2 = a string
        let elem = [4, 8, 1][usize::from(bytes[at])];
        fields.push(at + 1);
        at += 9 + word(at + 1) * elem;
    }
    assert_eq!(at, bytes.len(), "the walk covers the whole shard");
    fields
}

#[test]
fn every_truncation_and_overflowing_length_is_a_typed_error() {
    let cfg = TrainConfig {
        model: ModelConfig::tiny(1, 8, 2, 8),
        seq: 16,
        steps: 2,
        mode: Mode::Fpdt {
            chunks: 2,
            offload: false,
        },
        ..base_cfg(RuntimeOptions::from_env())
    };
    let dir = fresh_dir("fuzz");
    let mut t = Trainer::new(cfg);
    t.run_steps(2).expect("segment");
    t.checkpoint(&dir).expect("checkpoint");
    let shard = fpdt_core::runtime::ckpt::shard_paths(&dir).expect("valid set")[0].clone();
    let pristine = std::fs::read(&shard).unwrap();
    let resume_fails = |bytes: &[u8], what: &str| {
        std::fs::write(&shard, bytes).unwrap();
        match Trainer::resume(&dir) {
            Err(CkptError::Corrupt(_) | CkptError::Version(_)) => {}
            Err(other) => panic!("{what}: untyped for a damaged shard: {other}"),
            Ok(_) => panic!("{what}: a damaged shard resumed"),
        }
    };
    for cut in 0..pristine.len() {
        resume_fails(&pristine[..cut], &format!("cut at {cut}"));
    }
    let fields = length_fields(&pristine);
    assert!(fields.len() > 20, "a real shard has many entries");
    for at in fields {
        for k in 0..4u64 {
            let mut bytes = pristine.clone();
            bytes[at..at + 8].copy_from_slice(&(u64::MAX - k).to_le_bytes());
            resume_fails(&bytes, &format!("length at {at} = u64::MAX - {k}"));
        }
    }
    std::fs::write(&shard, &pristine).unwrap();
    assert!(Trainer::resume(&dir).is_ok(), "the pristine shard still resumes");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_byte_flip_is_a_typed_error_or_a_clean_resume() {
    // One layer of hidden 4 over a vocabulary of 4: shards of a few KiB,
    // so two flips of every byte stay a short sweep.
    let cfg = TrainConfig {
        model: ModelConfig::tiny(1, 4, 2, 4),
        seq: 8,
        steps: 2,
        mode: Mode::Fpdt {
            chunks: 2,
            offload: false,
        },
        ..base_cfg(RuntimeOptions::from_env())
    };
    let dir = fresh_dir("flips");
    let mut t = Trainer::new(cfg);
    t.run_steps(2).expect("segment");
    t.checkpoint(&dir).expect("checkpoint");
    let shard = fpdt_core::runtime::ckpt::shard_paths(&dir).expect("valid set")[0].clone();
    let pristine = std::fs::read(&shard).unwrap();
    assert!(
        (1024..16 * 1024).contains(&pristine.len()),
        "a few KiB: {} bytes",
        pristine.len()
    );
    let started = std::time::Instant::now();
    let (mut resumed, mut refused) = (0usize, 0usize);
    for at in 0..pristine.len() {
        for mask in [0x01u8, 0x80] {
            let mut bytes = pristine.clone();
            bytes[at] ^= mask;
            std::fs::write(&shard, &bytes).unwrap();
            match std::panic::catch_unwind(|| Trainer::resume(&dir)) {
                Ok(Ok(_)) => resumed += 1,
                Ok(Err(_)) => refused += 1,
                Err(_) => panic!("resume panicked on byte {at} ^ {mask:#04x}"),
            }
        }
    }
    std::fs::write(&shard, &pristine).unwrap();
    assert!(
        Trainer::resume(&dir).is_ok(),
        "the pristine shard still resumes"
    );
    let _ = std::fs::remove_dir_all(&dir);
    // a flip in a payload value is a different but well-formed state
    assert!(
        resumed > 0 && refused > 0,
        "{resumed} resumed, {refused} refused"
    );
    eprintln!(
        "{} flips of a {}-byte shard: {resumed} resumed, {refused} refused, {:.2?}",
        2 * pristine.len(),
        pristine.len(),
        started.elapsed()
    );
}
