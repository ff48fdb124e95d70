//! End-to-end kernel-equivalence harness: full training runs must be
//! bitwise identical between the AVX2/FMA microkernel backend and the
//! portable scalar fallback, at 1, 2, and 8 kernel-pool threads.
//!
//! Per-crate suites (`fpdt-tensor` and `fpdt-attention`
//! `simd_equivalence`) pin the contract on individual kernels; this test
//! pins it on the composition: tokenizer-to-loss training through the
//! distributed FPDT runtime — gemm panels, online softmax, all-to-alls,
//! host offload, gradient reduction — under every backend x thread
//! combination. The kernel backend is a pure performance knob; if any
//! future microkernel change reassociates a reduction differently
//! between backends, this is the test that catches it.

use fpdt_core::runtime::{train, Mode, TrainConfig};
use fpdt_model::config::ModelConfig;
use fpdt_tensor::mk::{self, Backend};
use fpdt_tensor::KernelCtx;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn config(mode: Mode, world: usize) -> TrainConfig {
    TrainConfig {
        model: ModelConfig::tiny(2, 32, 4, 48),
        world,
        seq: 64,
        steps: 4,
        lr: 3e-3,
        seed: 17,
        mode,
        ..TrainConfig::default()
    }
}

/// The loss trajectory of `mode` on `world` ranks with `backend`, a
/// thread budget of `threads` and the parallel-split threshold at 1
/// forced on the calling thread (the rank sessions start from its kernel
/// context).
fn losses(mode: Mode, world: usize, backend: Backend, threads: usize) -> Vec<f32> {
    let ctx = KernelCtx {
        threads,
        par_threshold: 1,
        backend,
    };
    ctx.enter(|| train(&config(mode, world)).losses)
}

/// Trains the given mode under every backend and thread budget and
/// asserts the loss trajectory never moves a bit. Both legs run under
/// the ambient `FPDT_BF16` setting: the payload codec is backend-free
/// scalar integer code, so the equivalence must hold in bf16 mode too.
fn assert_backend_invariant_training(name: &str, mode: Mode, world: usize) {
    let reference = losses(mode, world, Backend::Scalar, 1);
    assert!(
        reference.iter().all(|l| l.is_finite()) && !reference.is_empty(),
        "{name}: reference run produced no finite losses"
    );
    let mut legs = vec![Backend::Scalar];
    if mk::avx2_available() {
        legs.push(Backend::Avx2);
    }
    for be in legs {
        for threads in [1usize, 2, 8] {
            assert_eq!(
                bits(&reference),
                bits(&losses(mode, world, be, threads)),
                "{name}: {be:?} backend at {threads} threads changed the loss trajectory"
            );
        }
    }
}

#[test]
fn single_rank_training_is_backend_invariant() {
    assert_backend_invariant_training("single", Mode::Ulysses, 1);
}

#[test]
fn fpdt_offload_training_is_backend_invariant() {
    assert_backend_invariant_training(
        "fpdt_offload",
        Mode::Fpdt {
            chunks: 2,
            offload: true,
        },
        2,
    );
}
