//! Autotuning must never change what a run computes — only when.
//!
//! The autotuner's search space is almost entirely *schedule*: prefetch
//! stream, comm stream, and thread budget move work between threads and
//! streams without touching a single float. The two knobs that CAN move
//! numerics are fenced off: `payload_bf16` joins the grid only when the
//! workload opts in (and it is pinned off here), and chunk count changes
//! float association (Figure-14 tolerance, not bitwise) so the bitwise
//! leg pins the candidate list to the default chunk count. Under those
//! pins, a tuned run and a default run must produce bitwise identical
//! losses, gradients, and traffic counters at 1, 2, and 8 kernel-pool
//! threads; with chunk count free, losses must still agree to the same
//! 2e-3 tolerance `figure14_convergence` uses across chunk counts.

use fpdt_comm::{run_group, CommStats};
use fpdt_core::chunk::ChunkPlan;
use fpdt_core::runtime::autotune::{autotune, Workload};
use fpdt_core::runtime::data::Corpus;
use fpdt_core::runtime::exec::DistAttention;
use fpdt_core::runtime::gpt::GptModel;
use fpdt_core::runtime::{train, Mode, RuntimeOptions, TrainConfig};
use fpdt_model::config::ModelConfig;
use fpdt_tensor::par;
use rayon::pool;
use std::sync::{Arc, Mutex, MutexGuard};

static CONFIG_LOCK: Mutex<()> = Mutex::new(());

struct ForcedParallel<'a> {
    _guard: MutexGuard<'a, ()>,
    prev_threshold: usize,
    prev_threads: usize,
}

impl ForcedParallel<'_> {
    fn new(threads: usize) -> Self {
        let guard = CONFIG_LOCK.lock().unwrap();
        ForcedParallel {
            _guard: guard,
            prev_threshold: par::set_par_threshold(1),
            prev_threads: pool::set_threads(threads),
        }
    }
}

impl Drop for ForcedParallel<'_> {
    fn drop(&mut self) {
        pool::set_threads(self.prev_threads);
        par::set_par_threshold(self.prev_threshold);
    }
}

const CHUNKS: usize = 4;

fn fixture_model() -> ModelConfig {
    ModelConfig::tiny(2, 32, 4, 50)
}

/// The bitwise-leg workload: chunk candidates pinned to the default
/// count, bf16 off — every knob the search may flip is pure schedule.
fn pinned_workload() -> Workload {
    Workload {
        world: 2,
        probe_steps: 1,
        chunk_candidates: vec![CHUNKS],
        allow_bf16: false,
        ..Workload::new(fixture_model(), 64)
    }
}

/// One full forward/backward under `opts`; returns every rank's
/// (loss_sum, flat gradients, comm stats). Same fixture as
/// `comm_determinism.rs::grad_run`.
fn grad_run(seed: u64, opts: RuntimeOptions) -> Vec<(f32, Vec<f32>, CommStats)> {
    let model_cfg = fixture_model();
    let seq = 64usize;
    run_group(2, |comm| {
        let comm = Arc::new(comm);
        let plan = ChunkPlan::new(seq, 2, CHUNKS).expect("valid plan");
        let rank = comm.rank();
        let mut corpus = Corpus::new(model_cfg.vocab, 0.05, seed ^ 0x5eed);
        let (gx, gy) = corpus.sample(seq);
        let (tokens, targets, pos) = (
            plan.shard(rank, &gx),
            plan.shard(rank, &gy),
            plan.local_positions(rank),
        );
        let mut model = GptModel::new(&model_cfg, seed);
        let mut exec = DistAttention::with_opts(Arc::clone(&comm), plan, opts.with_offload(true));
        model.zero_grad();
        let stats = model
            .forward_backward(&mut exec, &tokens, &targets, &pos, 2 * CHUNKS, 2)
            .expect("forward/backward succeeds");
        (stats.loss_sum, model.collect_grads(), comm.stats())
    })
}

fn assert_bitwise_equal(
    a: &[(f32, Vec<f32>, CommStats)],
    b: &[(f32, Vec<f32>, CommStats)],
    what: &str,
) {
    for (rank, ((la, ga, ca), (lb, gb, cb))) in a.iter().zip(b).enumerate() {
        assert!(
            la.to_bits() == lb.to_bits(),
            "rank {rank} loss differs ({what}): {la} vs {lb}"
        );
        let ga_bits: Vec<u32> = ga.iter().map(|x| x.to_bits()).collect();
        let gb_bits: Vec<u32> = gb.iter().map(|x| x.to_bits()).collect();
        assert_eq!(ga_bits, gb_bits, "rank {rank} gradient bits differ ({what})");
        assert_eq!(ca, cb, "rank {rank} comm statistics differ ({what})");
    }
}

#[test]
fn tuned_config_is_bitwise_identical_to_default_at_every_thread_budget() {
    // Tune once (the probe trains and microprobes under the config lock,
    // since it moves the process-wide thread pool).
    let workload = pinned_workload();
    let tuned = {
        let _cfg = ForcedParallel::new(2);
        autotune(&workload).best
    };
    assert!(
        !tuned.config.payload_bf16,
        "bf16 must stay out of the grid unless the workload opts in"
    );
    assert_eq!(tuned.config.chunks, CHUNKS, "chunk candidates were pinned");

    let tuned_opts = tuned.config.options();
    let default_opts = RuntimeOptions::from_env()
        .with_offload(true)
        .with_payload_bf16(false);
    for threads in [1usize, 2, 8] {
        let base = {
            let _cfg = ForcedParallel::new(threads);
            grad_run(42, default_opts)
        };
        assert!(
            base.iter().any(|(_, g, _)| g.iter().any(|&x| x != 0.0)),
            "all-zero gradients would make the comparison vacuous"
        );
        let got = {
            let _cfg = ForcedParallel::new(threads);
            grad_run(42, tuned_opts)
        };
        assert_bitwise_equal(&base, &got, &format!("tuned vs default, {threads} threads"));
    }
}

#[test]
fn tuned_training_loop_reproduces_the_default_loss_trajectory_bitwise() {
    // Whole `train` entry point (optimizer + gradient all-reduce
    // included): with chunks pinned, swapping in the tuned RuntimeOptions
    // must not move one bit of the loss curve or one traffic counter.
    let workload = pinned_workload();
    let base_cfg = TrainConfig {
        model: fixture_model(),
        world: 2,
        seq: 64,
        steps: 3,
        mode: Mode::Fpdt {
            chunks: CHUNKS,
            offload: true,
        },
        ..TrainConfig::default()
    };
    let (default_report, tuned_report) = {
        let _cfg = ForcedParallel::new(4);
        let tuned_opts = autotune(&workload).best.config.options();
        let default_report = train(&TrainConfig {
            runtime: RuntimeOptions::from_env()
                .with_offload(true)
                .with_payload_bf16(false),
            ..base_cfg.clone()
        });
        let tuned_report = train(&TrainConfig {
            runtime: tuned_opts,
            ..base_cfg.clone()
        });
        (default_report, tuned_report)
    };
    let a: Vec<u32> = default_report.losses.iter().map(|x| x.to_bits()).collect();
    let b: Vec<u32> = tuned_report.losses.iter().map(|x| x.to_bits()).collect();
    assert_eq!(a, b, "loss trajectories differ between default and tuned");
    assert_eq!(default_report.comm, tuned_report.comm, "comm stats differ");
    assert_eq!(default_report.host, tuned_report.host, "host-pool stats differ");
}

#[test]
fn free_chunk_count_stays_within_figure14_tolerance() {
    // With the chunk candidates freed, the tuner may legitimately pick a
    // different chunk count; that changes float association, so the
    // contract weakens from bitwise to the same 2e-3 tolerance
    // `figure14_convergence` uses across chunk counts.
    let workload = Workload {
        chunk_candidates: vec![2, 4],
        ..pinned_workload()
    };
    let base_cfg = TrainConfig {
        model: fixture_model(),
        world: 2,
        seq: 64,
        steps: 3,
        mode: Mode::Fpdt {
            chunks: CHUNKS,
            offload: true,
        },
        ..TrainConfig::default()
    };
    let (default_report, tuned_report) = {
        let _cfg = ForcedParallel::new(4);
        let best = autotune(&workload).best;
        assert!(
            workload.chunk_candidates.contains(&best.config.chunks),
            "picked chunk count must come from the candidate list"
        );
        let default_report = train(&TrainConfig {
            runtime: RuntimeOptions::from_env()
                .with_offload(true)
                .with_payload_bf16(false),
            ..base_cfg.clone()
        });
        let tuned_report = train(&TrainConfig {
            mode: Mode::Fpdt {
                chunks: best.config.chunks,
                offload: true,
            },
            runtime: best.config.options(),
            ..base_cfg.clone()
        });
        (default_report, tuned_report)
    };
    for (step, (a, b)) in default_report
        .losses
        .iter()
        .zip(&tuned_report.losses)
        .enumerate()
    {
        assert!(
            (a - b).abs() < 2e-3,
            "step {step} loss drifted past Figure-14 tolerance: {a} vs {b}"
        );
    }
}
