//! Fixture shared by the fpdt-core test suites: forced kernel settings,
//! the fixture model and a two-rank forward/backward.

#![allow(dead_code, reason = "each suite uses its own subset")]

use fpdt_comm::{run_group, CommStats};
use fpdt_core::chunk::ChunkPlan;
use fpdt_core::runtime::data::Corpus;
use fpdt_core::runtime::exec::DistAttention;
use fpdt_core::runtime::gpt::GptModel;
use fpdt_core::runtime::RuntimeOptions;
use fpdt_model::config::ModelConfig;
use fpdt_tensor::{init, KernelCtx};
use std::sync::Arc;

/// The calling thread's kernel context at a budget of `threads` with the
/// parallel-split threshold at 1, so every kernel really takes the pool
/// path.
pub fn forced_ctx(threads: usize) -> KernelCtx {
    KernelCtx {
        threads,
        par_threshold: 1,
        ..KernelCtx::current()
    }
}

/// The fixture model every suite trains.
pub fn fixture_model() -> ModelConfig {
    ModelConfig::tiny(2, 32, 4, 50)
}

/// The Llama twin of [`fixture_model`]: SwiGLU, RMSNorm and grouped-query
/// attention (4 query heads over 2 KV heads).
pub fn fixture_llama() -> ModelConfig {
    ModelConfig::tiny_llama(2, 32, 4, 2, 50)
}

/// One full forward/backward of `model_cfg` on 2 ranks over a 64-token
/// sequence in `chunks` chunks, under the calling thread's kernel context
/// split across the ranks (like a training run); returns every rank's
/// (loss_sum, flat gradients, comm stats).
///
/// With `shifted`, every one-dimensional parameter (the norms' gains and
/// shifts, and the biases) moves off its initial value by seeded noise
/// before the pass, so a norm's affine step no longer multiplies by one
/// and adds zero.
pub fn grad_run(
    model_cfg: &ModelConfig,
    seed: u64,
    chunks: usize,
    offload: bool,
    shifted: bool,
    opts: RuntimeOptions,
) -> Vec<(f32, Vec<f32>, CommStats)> {
    let seq = 64usize;
    run_group(2, |comm| {
        let comm = Arc::new(comm);
        let plan = ChunkPlan::new(seq, 2, chunks).expect("valid plan");
        let rank = comm.rank();
        let mut corpus = Corpus::new(model_cfg.vocab, 0.05, seed ^ 0x5eed);
        let (gx, gy) = corpus.sample(seq);
        let (tokens, targets, pos) = (
            plan.shard(rank, &gx),
            plan.shard(rank, &gy),
            plan.local_positions(rank),
        );
        let mut model = GptModel::new(model_cfg, seed);
        if shifted {
            let mut rng = init::seeded_rng(seed ^ 0x0dd5);
            model.for_each_param(|p| {
                if p.ndim() == 1 {
                    let noise = init::randn(&mut rng, p.shape(), 0.25);
                    p.add_assign(&noise).expect("same shape");
                }
            });
        }
        let mut exec = DistAttention::with_opts(Arc::clone(&comm), chunks, offload, opts);
        model.zero_grad();
        let stats = model
            .forward_backward(&mut exec, &tokens, &targets, &pos, 2 * chunks, 2)
            .expect("forward/backward succeeds");
        // Dropping the executor drains its streams, so the wire counters
        // are complete.
        drop(exec);
        (stats.loss_sum, model.collect_grads(), comm.stats())
    })
}
