//! Determinism of the real multi-thread runtime (`fpdt_core::runtime`).
//!
//! FPDT's equivalence story (paper §5.6) leans on deterministic,
//! rank-ordered reductions: thread scheduling must never leak into the
//! numbers. These tests run the full multi-thread stack twice from the
//! same seed and demand *bitwise* identical results — losses and raw
//! gradients, not just "close".

mod common;

use common::grad_run;
use fpdt_core::runtime::{train, Mode, RuntimeOptions, TrainConfig};

#[test]
fn seeded_runs_are_bitwise_identical_losses_and_gradients() {
    let a = grad_run(42, 2, true, RuntimeOptions::from_env());
    let b = grad_run(42, 2, true, RuntimeOptions::from_env());
    for (rank, ((la, ga, _), (lb, gb, _))) in a.iter().zip(&b).enumerate() {
        assert!(
            la.to_bits() == lb.to_bits(),
            "rank {rank} loss differs bitwise: {la} vs {lb}"
        );
        assert_eq!(ga.len(), gb.len());
        for (i, (x, y)) in ga.iter().zip(gb).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "rank {rank} grad[{i}] differs bitwise: {x} vs {y}"
            );
        }
    }
}

#[test]
fn different_seeds_actually_diverge() {
    // Guard against the test above passing vacuously (e.g. all-zero
    // gradients): a different seed must change the numbers.
    let a = grad_run(42, 2, true, RuntimeOptions::from_env());
    let b = grad_run(43, 2, true, RuntimeOptions::from_env());
    assert!(a[0].0.to_bits() != b[0].0.to_bits(), "seed had no effect");
}

#[test]
fn full_training_runs_are_bitwise_identical() {
    // The end-to-end trainer (gradient all-reduce in rank order, ZeRO
    // off) repeated from one seed: identical loss curve, bit for bit.
    let cfg = TrainConfig {
        steps: 4,
        mode: Mode::Fpdt {
            chunks: 2,
            offload: true,
        },
        ..TrainConfig::small(Mode::Single)
    };
    let a = train(&cfg);
    let b = train(&cfg);
    let abits: Vec<u32> = a.losses.iter().map(|l| l.to_bits()).collect();
    let bbits: Vec<u32> = b.losses.iter().map(|l| l.to_bits()).collect();
    assert_eq!(abits, bbits, "loss curves differ bitwise");
}
