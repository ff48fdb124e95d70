//! Failures that must surface as typed errors or a clean rollback,
//! never as panics, hangs or silently wrong state:
//!
//! * corrupted, truncated, or missing shards surface as typed
//!   [`CkptError`]s — a shard cut at any byte or with any length field
//!   near `u64::MAX` included; a flipped bit anywhere is such an error or
//!   a clean resume;
//! * a transient collective fault past the retry budget rolls the session
//!   back to the last step boundary, and the session is not poisoned.
//!
//! Bitwise resume, resize and faults within the budget are relations of
//! the determinism oracle (`determinism_oracle.rs`).

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
        ..TrainConfig::default()
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

#[test]
fn exhausted_retry_budget_rolls_back_to_the_step_boundary() {
    let rt = RuntimeOptions::from_env().with_payload_bf16(false);
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
    let cfg = base_cfg(RuntimeOptions::from_env().with_payload_bf16(false));
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
    let cfg = base_cfg(RuntimeOptions::from_env().with_payload_bf16(false));
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
    assert!(
        Trainer::resume(&dir).is_ok(),
        "the pristine shard still resumes"
    );
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
