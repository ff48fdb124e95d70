//! Fixture shared by the fpdt-core determinism suites: the process-wide
//! kernel settings guard and the two-rank forward/backward they compare.

#![allow(dead_code)] // each suite uses its own subset

use fpdt_comm::{run_group, CommStats};
use fpdt_core::chunk::ChunkPlan;
use fpdt_core::runtime::data::Corpus;
use fpdt_core::runtime::exec::DistAttention;
use fpdt_core::runtime::gpt::GptModel;
use fpdt_core::runtime::RuntimeOptions;
use fpdt_model::config::ModelConfig;
use fpdt_tensor::par;
use rayon::pool;
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes the tests of one suite that move the process-wide kernel
/// settings (thread budget, parallel threshold).
static CONFIG_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`CONFIG_LOCK`]. A test that failed while holding it poisons
/// it; the guarded `()` cannot be left inconsistent, so the next test
/// proceeds instead of failing on the poison.
pub fn config_lock() -> MutexGuard<'static, ()> {
    CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Holds the config lock with the pool at `threads` workers and the
/// parallel-split threshold at 1 (every kernel really takes the pool
/// path); both settings are restored on drop.
pub struct ForcedParallel {
    _guard: MutexGuard<'static, ()>,
    prev_threshold: usize,
    prev_threads: usize,
}

impl ForcedParallel {
    pub fn new(threads: usize) -> Self {
        let guard = config_lock();
        ForcedParallel {
            _guard: guard,
            prev_threshold: par::set_par_threshold(1),
            prev_threads: pool::set_threads(threads),
        }
    }
}

impl Drop for ForcedParallel {
    fn drop(&mut self) {
        pool::set_threads(self.prev_threads);
        par::set_par_threshold(self.prev_threshold);
    }
}

/// The fixture model every suite trains.
pub fn fixture_model() -> ModelConfig {
    ModelConfig::tiny(2, 32, 4, 50)
}

/// One full forward/backward of the fixture model on 2 ranks over a
/// 64-token sequence in `chunks` chunks; returns every rank's (loss_sum,
/// flat gradients, comm stats).
pub fn grad_run(
    seed: u64,
    chunks: usize,
    offload: bool,
    opts: RuntimeOptions,
) -> Vec<(f32, Vec<f32>, CommStats)> {
    let model_cfg = fixture_model();
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
        let mut model = GptModel::new(&model_cfg, seed);
        let mut exec = DistAttention::with_opts(Arc::clone(&comm), plan, offload, opts);
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
