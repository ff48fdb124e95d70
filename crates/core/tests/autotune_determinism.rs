//! Autotuning must never change what a run computes — only when.
//!
//! The autotuner's search space is almost entirely *schedule*: the
//! thread budget moves work between threads without touching a single
//! float. The two knobs that CAN move
//! numerics are fenced off: `payload_bf16` joins the grid only when the
//! workload opts in (and it is pinned off here), and chunk count changes
//! float association (Figure-14 tolerance, not bitwise) so the bitwise
//! leg pins the candidate list to the default chunk count. Under those
//! pins, a tuned run and a default run must produce bitwise identical
//! losses, gradients, and traffic counters at 1, 2, and 8 kernel-pool
//! threads; with chunk count free, losses must still agree to the same
//! 2e-3 tolerance `figure14_convergence` uses across chunk counts.

mod common;

use common::{fixture_model, forced, forced_ctx, grad_run};
use fpdt_comm::CommStats;
use fpdt_core::runtime::autotune::{autotune, Workload};
use fpdt_core::runtime::{train, Mode, RuntimeOptions, TrainConfig};

const CHUNKS: usize = 4;

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
    // Tune once, from a thread at a budget of 2.
    let workload = pinned_workload();
    let tuned = forced_ctx(2).enter(|| autotune(&workload).best);
    assert!(
        !tuned.config.payload_bf16,
        "bf16 must stay out of the grid unless the workload opts in"
    );
    assert_eq!(tuned.config.chunks, CHUNKS, "chunk candidates were pinned");

    let tuned_opts = tuned.config.options();
    let default_opts = RuntimeOptions::from_env().with_payload_bf16(false);
    for threads in [1usize, 2, 8] {
        let base = grad_run(42, CHUNKS, true, forced(default_opts, threads));
        assert!(
            base.iter().any(|(_, g, _)| g.iter().any(|&x| x != 0.0)),
            "all-zero gradients would make the comparison vacuous"
        );
        let got = grad_run(42, CHUNKS, true, forced(tuned_opts, threads));
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
    let (default_report, tuned_report) = forced_ctx(4).enter(|| {
        let tuned_opts = autotune(&workload).best.config.options();
        let default_report = train(&TrainConfig {
            runtime: RuntimeOptions::from_env().with_payload_bf16(false),
            ..base_cfg.clone()
        });
        let tuned_report = train(&TrainConfig {
            runtime: tuned_opts,
            ..base_cfg.clone()
        });
        (default_report, tuned_report)
    });
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
    let (default_report, tuned_report) = forced_ctx(4).enter(|| {
        let best = autotune(&workload).best;
        assert!(
            workload.chunk_candidates.contains(&best.config.chunks),
            "picked chunk count must come from the candidate list"
        );
        let default_report = train(&TrainConfig {
            runtime: RuntimeOptions::from_env().with_payload_bf16(false),
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
    });
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
