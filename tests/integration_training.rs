//! Cross-crate integration: the *real* runtime (tensor, attention, comm
//! and core crates together) trains actual models and FPDT's trajectory
//! matches the baseline exactly: the §5.6 / Figure 14 claim, end to end.

use fpdt_core::runtime::{train, Mode, RuntimeOptions, TrainConfig};
use fpdt_model::config::ModelConfig;

fn base_config() -> TrainConfig {
    TrainConfig {
        model: ModelConfig::tiny(2, 32, 4, 48),
        world: 4,
        seq: 128,
        steps: 12,
        lr: 3e-3,
        seed: 99,
        ..TrainConfig::default()
    }
}

fn max_divergence(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

#[test]
fn all_modes_learn_and_agree() {
    // Distributed-vs-single loss comparison: pin the payload format so an
    // ambient `FPDT_BF16=1` cannot round the distributed legs' payloads
    // while the single-rank baseline, which moves no payloads, stays
    // full-precision.
    let mut base = base_config();
    base.runtime = base.runtime.with_payload_bf16(false);
    let single = train(&TrainConfig {
        world: 1,
        ..base.clone()
    });
    assert!(
        single.losses.last().unwrap() < &(single.losses[0] * 0.9),
        "baseline learns: {:?}",
        single.losses
    );

    for mode in [
        Mode::Ulysses,
        Mode::Fpdt {
            chunks: 2,
            offload: false,
        },
        Mode::Fpdt {
            chunks: 4,
            offload: true,
        },
        Mode::Fpdt {
            chunks: 8,
            offload: true,
        },
    ] {
        let run = train(&TrainConfig {
            mode,
            ..base.clone()
        });
        let div = max_divergence(&run.losses, &single.losses);
        assert!(div < 5e-3, "{mode:?} diverged by {div}");
    }
}

#[test]
fn offload_pool_is_actually_used_and_balanced() {
    let cfg = TrainConfig {
        mode: Mode::Fpdt {
            chunks: 4,
            offload: true,
        },
        ..base_config()
    };
    let run = train(&cfg);
    // Forward caches q,k,v,o,lse per chunk per layer per step; backward
    // takes each of them back once. Every offload must be fetched.
    assert!(run.host.offloads > 0);
    assert!(
        run.host.fetches >= run.host.offloads,
        "every cached chunk is consumed"
    );
    assert_eq!(run.host.bytes, 0, "nothing leaks across steps");
    assert!(run.host.peak_bytes > 0);
}

#[test]
fn more_chunks_do_not_change_the_trajectory() {
    let base = base_config();
    let u2 = train(&TrainConfig {
        mode: Mode::Fpdt {
            chunks: 2,
            offload: true,
        },
        ..base.clone()
    });
    let u8 = train(&TrainConfig {
        mode: Mode::Fpdt {
            chunks: 8,
            offload: true,
        },
        ..base.clone()
    });
    assert!(max_divergence(&u2.losses, &u8.losses) < 5e-3);
    // but more chunks means more, smaller transfers
    assert!(u8.host.offloads > u2.host.offloads);
}

#[test]
fn world_size_does_not_change_the_trajectory() {
    let base = base_config();
    let w2 = train(&TrainConfig {
        world: 2,
        mode: Mode::Fpdt {
            chunks: 2,
            offload: true,
        },
        ..base.clone()
    });
    let w4 = train(&TrainConfig {
        world: 4,
        mode: Mode::Fpdt {
            chunks: 2,
            offload: true,
        },
        ..base.clone()
    });
    assert!(max_divergence(&w2.losses, &w4.losses) < 5e-3);
}

#[test]
fn longer_training_approaches_the_entropy_floor() {
    use fpdt_core::runtime::data::Corpus;
    let cfg = TrainConfig {
        steps: 60,
        seq: 256,
        mode: Mode::Fpdt {
            chunks: 4,
            offload: true,
        },
        ..base_config()
    };
    let run = train(&cfg);
    let floor = Corpus::new(cfg.model.vocab, 0.05, 0).entropy_floor() as f32;
    let last = *run.losses.last().unwrap();
    assert!(
        last < floor + 1.0,
        "final loss {last} should approach the chain entropy {floor}"
    );
}

#[test]
fn bit_reproducible_across_runs() {
    let cfg = TrainConfig {
        mode: Mode::Fpdt {
            chunks: 4,
            offload: true,
        },
        ..base_config()
    };
    assert_eq!(train(&cfg).losses, train(&cfg).losses);
}

#[test]
fn long_range_copy_task_crosses_chunk_boundaries() {
    // The copy task can only be solved by attending half a sequence back
    // — with 4 chunks, always across chunk (and host-pool) boundaries.
    // Run it distributed with FPDT offload to exercise the full path.
    use fpdt_comm::run_group;
    use fpdt_core::chunk::ChunkPlan;
    use fpdt_core::runtime::data::CopyCorpus;
    use fpdt_core::runtime::exec::{DistAttention, LocalAttention};
    use fpdt_core::runtime::gpt::GptModel;
    use fpdt_tensor::nn::{AdamW, AdamWConfig};

    let cfg = ModelConfig::tiny(2, 64, 4, 16);
    let half = 32usize;
    let steps = 250usize;

    // single-device reference trajectory
    let single_final = {
        let mut model = GptModel::new(&cfg, 0);
        let mut exec = LocalAttention::new(4);
        let mut opt = AdamW::new(AdamWConfig {
            lr: 3e-3,
            ..Default::default()
        });
        let mut corpus = CopyCorpus::new(16, 0);
        let pos: Vec<usize> = (0..2 * half).collect();
        let mut last = f32::INFINITY;
        for _ in 0..steps {
            let (x, y) = corpus.sample(half);
            model.zero_grad();
            let s = model
                .forward_backward(&mut exec, &x, &y, &pos, 2, 1)
                .unwrap();
            last = s.loss_sum / s.tokens as f32;
            model.optimizer_step(&mut opt, 1.0 / s.tokens as f32);
        }
        last
    };
    assert!(
        single_final < 0.5,
        "single-device learns the copy: {single_final}"
    );

    // distributed FPDT with offload: same data, same final loss
    let dist_final = {
        let world = 2;
        let chunks = 4;
        let results = run_group(world, |comm| {
            let comm = std::sync::Arc::new(comm);
            let plan = ChunkPlan::new(2 * half, world, chunks).unwrap();
            let opts = RuntimeOptions::from_env();
            let mut exec = DistAttention::with_opts(std::sync::Arc::clone(&comm), plan, true, opts);
            let mut model = GptModel::new(&cfg, 0);
            let mut opt = AdamW::new(AdamWConfig {
                lr: 3e-3,
                ..Default::default()
            });
            let mut corpus = CopyCorpus::new(16, 0);
            let rank = comm.rank();
            let mut last = f32::INFINITY;
            for _ in 0..steps {
                let (gx, gy) = corpus.sample(half);
                let (x, y, pos) = (
                    plan.shard(rank, &gx),
                    plan.shard(rank, &gy),
                    plan.local_positions(rank),
                );
                model.zero_grad();
                let s = model
                    .forward_backward(&mut exec, &x, &y, &pos, 8, 1)
                    .unwrap();
                let scalars = comm.all_reduce(&[s.loss_sum, s.tokens as f32]).unwrap();
                let flat = model.collect_grads();
                let reduced = comm.all_reduce(&flat).unwrap();
                model.set_grads(&reduced, 1.0 / scalars[1]);
                model.optimizer_step(&mut opt, 1.0);
                last = scalars[0] / scalars[1];
            }
            last
        });
        results[0]
    };
    assert!(
        (dist_final - single_final).abs() < 0.05,
        "distributed copy matches: {dist_final} vs {single_final}"
    );
}
