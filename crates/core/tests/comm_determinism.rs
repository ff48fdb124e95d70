//! End-to-end bitwise equivalence of the overlapped communication stream.
//!
//! The comm stream must be a pure latency optimisation, exactly like the
//! offload copy stream: posting chunk `i+1`'s all-to-all while chunk `i`
//! computes can reorder *when* wire time is spent but never what any rank
//! receives or how the traffic is counted. This suite proves it end to
//! end: a 2-layer / 4-chunk distributed model produces bitwise identical
//! losses, gradients, AND [`fpdt_comm::CommStats`] snapshots with the
//! stream on, off, and on under different kernel-pool thread budgets.
//! (The per-chunk post counts are audited in
//! `exec.rs::schedule_audit_transfer_and_post_counts`.)

use fpdt_comm::{run_group, CommStats};
use fpdt_core::chunk::ChunkPlan;
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

/// One full forward/backward of the distributed model with the comm
/// stream on or off; returns every rank's (loss_sum, flat gradients,
/// comm stats). Same fixture as `prefetch_determinism.rs::grad_run`.
fn grad_run(seed: u64, world: usize, comm_async: bool) -> Vec<(f32, Vec<f32>, CommStats)> {
    let model_cfg = ModelConfig::tiny(2, 32, 4, 50);
    let seq = 64usize;
    let chunks = 4usize;
    run_group(world, |comm| {
        let comm = Arc::new(comm);
        let plan = ChunkPlan::new(seq, world, chunks).expect("valid plan");
        let rank = comm.rank();
        let mut corpus = Corpus::new(model_cfg.vocab, 0.05, seed ^ 0x5eed);
        let (gx, gy) = corpus.sample(seq);
        let (tokens, targets, pos) = (
            plan.shard(rank, &gx),
            plan.shard(rank, &gy),
            plan.local_positions(rank),
        );
        let mut model = GptModel::new(&model_cfg, seed);
        let opts = RuntimeOptions::from_env()
            .with_offload(true)
            .with_comm_async(comm_async);
        let mut exec = DistAttention::with_opts(Arc::clone(&comm), plan, opts);
        model.zero_grad();
        let stats = model
            .forward_backward(&mut exec, &tokens, &targets, &pos, 2 * chunks, 2)
            .expect("forward/backward succeeds");
        // All handles are resolved before forward/backward return, so the
        // snapshot is complete and deterministic here.
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
        // CommStats equality covers every op's send/recv/byte counters in
        // first-use order (wall-clock wait time is excluded by design).
        assert_eq!(ca, cb, "rank {rank} comm statistics differ ({what})");
    }
}

#[test]
fn comm_stream_on_off_and_thread_budgets_are_bitwise_identical() {
    let reference = {
        let _cfg = ForcedParallel::new(1);
        grad_run(42, 2, false)
    };
    assert!(
        reference.iter().any(|(_, g, _)| g.iter().any(|&x| x != 0.0)),
        "all-zero gradients would make the comparison vacuous"
    );
    assert!(
        reference
            .iter()
            .all(|(_, _, c)| c.op("all_to_all").map(|o| o.sends).unwrap_or(0) > 0),
        "no all-to-all traffic would make the stats comparison vacuous"
    );
    let off_8 = {
        let _cfg = ForcedParallel::new(8);
        grad_run(42, 2, false)
    };
    assert_bitwise_equal(&reference, &off_8, "comm stream off, 8 threads");
    for threads in [1usize, 2, 8] {
        let on = {
            let _cfg = ForcedParallel::new(threads);
            grad_run(42, 2, true)
        };
        assert_bitwise_equal(
            &reference,
            &on,
            &format!("comm stream on, {threads} threads"),
        );
    }
}

#[test]
fn training_reports_identical_losses_and_comm_traffic_either_way() {
    // Whole training loop (gradient all-reduce included) through the
    // public `train` entry point: the comm_async knob must change neither
    // the loss trajectory nor a single traffic counter.
    let base = TrainConfig {
        model: ModelConfig::tiny(2, 32, 4, 50),
        world: 2,
        seq: 64,
        steps: 3,
        mode: Mode::Fpdt {
            chunks: 4,
            offload: true,
        },
        ..TrainConfig::default()
    };
    let (on, off) = {
        let _cfg = ForcedParallel::new(4);
        let on = train(&TrainConfig {
            runtime: base.runtime.with_comm_async(true),
            ..base.clone()
        });
        let off = train(&TrainConfig {
            runtime: base.runtime.with_comm_async(false),
            ..base.clone()
        });
        (on, off)
    };
    let on_bits: Vec<u32> = on.losses.iter().map(|x| x.to_bits()).collect();
    let off_bits: Vec<u32> = off.losses.iter().map(|x| x.to_bits()).collect();
    assert_eq!(on_bits, off_bits, "loss trajectories differ");
    assert_eq!(on.comm, off.comm, "comm statistics differ");
    assert_eq!(on.host, off.host, "host-pool statistics differ");
    assert!(
        on.comm.op("all_to_all").expect("a2a traffic").bytes_sent > 0,
        "comm counters must actually move"
    );
}
