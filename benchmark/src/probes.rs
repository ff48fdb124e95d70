//! Direct timed calls into each layer's public functions, at the shapes
//! the workload trains with (source **P** of the per-layer metrics). Each
//! layer's probe runs under a `bench.probe.<layer>` span.

use crate::metrics::Values;
use crate::stats::{median_secs, median_secs_fixed};
use crate::workloads::{Workload, WORLD};
use fpdt_attention::flops::{attention_tile_bwd_flops, attention_tile_fwd_flops};
use fpdt_attention::online::{attention_block_bwd, rowwise_dot, OnlineAttention};
use fpdt_attention::reference::attention_with_positions;
use fpdt_comm::{run_group, AllToAllLayout};
use fpdt_core::offload::{BufKind, ChunkKey, OffloadEngine};
use fpdt_core::pipeline::{simulate_block, PipelineOpts};
use fpdt_core::runtime::exec::LocalAttention;
use fpdt_core::runtime::gpt::GptModel;
use fpdt_core::strategy::Fpdt;
use fpdt_model::config::ModelConfig;
use fpdt_parallel::max_seq_len;
use fpdt_sim::hw::ClusterSpec;
use fpdt_tensor::nn::{AdamW, AdamWConfig};
use fpdt_tensor::{init, ops, Tensor};
use fpdt_trace::Recorder;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// Time one probe may spend on timed calls before it stops at 5 samples.
const BUDGET: Duration = Duration::from_millis(600);

/// Gradient all-reduce bucket, the value `Trainer` uses.
const REDUCE_BUCKET: usize = 1 << 16;

/// Runs every probe.
pub fn run(w: &Workload, seed: u64, rec: &Recorder) -> Values {
    let mut v = Values::default();
    {
        let _s = rec.span("bench.probe.tensor");
        tensor(w, seed, &mut v);
    }
    {
        let _s = rec.span("bench.probe.attention");
        attention(w, seed, &mut v);
    }
    {
        let _s = rec.span("bench.probe.comm");
        comm(w, &mut v);
    }
    {
        let _s = rec.span("bench.probe.offload");
        offload(w, &mut v);
    }
    {
        let _s = rec.span("bench.probe.gpt");
        gpt(w, seed, &mut v);
    }
    {
        let _s = rec.span("bench.probe.planner");
        planner(&mut v);
    }
    v
}

fn tensor(w: &Workload, seed: u64, v: &mut Values) {
    let model = w.model();
    let s_local = w.plan().local_len();
    let (m, k, n) = (s_local, model.hidden, model.ffn_hidden);
    let mut rng = init::seeded_rng(seed ^ 0x7e50);
    let a = init::randn(&mut rng, &[m, k], 1.0);
    let b = init::randn(&mut rng, &[k, n], 1.0);
    let dc = init::randn(&mut rng, &[m, n], 1.0);

    let mut c = vec![0.0f32; m * n];
    let secs = median_secs(BUDGET, || {
        ops::gemm(m, k, n, a.data(), b.data(), &mut c);
        black_box(&c);
    });
    v.set("tensor.gemm_gflops", (2 * m * k * n) as f64 / secs / 1e9);

    let secs = median_secs(BUDGET, || {
        black_box(ops::matmul_bwd(&a, &b, &dc).expect("shapes fixed"));
    });
    v.set(
        "tensor.matmul_bwd_gflops",
        (4 * m * k * n) as f64 / secs / 1e9,
    );

    let logits = init::randn(&mut rng, &[s_local, model.vocab], 1.0);
    let targets: Vec<usize> = (0..s_local).map(|i| i % model.vocab).collect();
    let secs = median_secs(BUDGET, || {
        black_box(ops::cross_entropy(&logits, &targets, usize::MAX).expect("shapes fixed"));
    });
    v.set("tensor.cross_entropy_ms", secs * 1e3);

    let x = init::randn(&mut rng, &[s_local, model.hidden], 1.0);
    let dy = init::randn(&mut rng, &[s_local, model.hidden], 1.0);
    let gamma = init::randn(&mut rng, &[model.hidden], 0.2);
    let beta = init::randn(&mut rng, &[model.hidden], 0.2);
    let secs = median_secs(BUDGET, || {
        let (_, ctx) = ops::layernorm(&x, &gamma, &beta, 1e-5).expect("shapes fixed");
        black_box(ops::layernorm_bwd(&x, &gamma, &ctx, &dy).expect("shapes fixed"));
    });
    v.set("tensor.layernorm_us", secs * 1e6);

    let params = GptModel::new(&model, seed).param_count();
    let mut p = init::randn(&mut rng, &[params], 0.02).data().to_vec();
    let g = init::randn(&mut rng, &[params], 0.01);
    let mut opt = AdamW::new(AdamWConfig::default());
    let secs = median_secs(BUDGET, || {
        opt.begin_step();
        opt.update(0, &mut p, g.data());
        black_box(&p);
    });
    v.set("tensor.adamw_ns_per_param", secs * 1e9 / params as f64);
}

fn attention(w: &Workload, seed: u64, v: &mut Values) {
    let model = w.model();
    let plan = w.plan();
    // one gathered tile: full chunk of the sequence, this rank's heads
    let (len, h, d) = (
        plan.chunk_global_len(),
        model.heads / WORLD,
        model.head_dim(),
    );
    let shape = [len, h, d];
    let mut rng = init::seeded_rng(seed ^ 0xa77e);
    let q = init::randn(&mut rng, &shape, 1.0);
    let k = init::randn(&mut rng, &shape, 1.0);
    let val = init::randn(&mut rng, &shape, 1.0);
    let dout = init::randn(&mut rng, &shape, 1.0);
    let early: Vec<usize> = (0..len).collect();
    let late: Vec<usize> = (len..2 * len).collect();
    let (lu, hu, du) = (len as u64, h as u64, d as u64);

    // Only `update` is timed; building the state is the caller's cost.
    let time_update = |q_pos: &[usize]| {
        median_secs(BUDGET, || {
            let mut st = OnlineAttention::new(&q, q_pos, None).expect("shapes fixed");
            st.update(&k, &val, &early).expect("shapes fixed");
            black_box(st.rows());
        })
    };
    let visible = attention_tile_fwd_flops(lu, lu, hu, du) as f64 / time_update(&late) / 1e9;
    // the causal diagonal tile does half the multiply-accumulates
    let diag = attention_tile_fwd_flops(lu, lu, hu, du) as f64 / 2.0 / time_update(&early) / 1e9;
    v.set("attention.update_gflops", visible);
    v.set("attention.update_diag_gflops", diag);
    v.set("attention.vs_gemm", visible / v.get("tensor.gemm_gflops"));

    let scale = fpdt_attention::default_scale(d);
    let mut st = OnlineAttention::new(&q, &late, None).expect("shapes fixed");
    st.update(&k, &val, &early).expect("shapes fixed");
    let (o, lse) = st.finalize();
    let dsum = rowwise_dot(&o, &dout).expect("shapes fixed");
    let secs = median_secs(BUDGET, || {
        let mut dq = Tensor::zeros(&shape);
        let mut dk = Tensor::zeros(&shape);
        let mut dv = Tensor::zeros(&shape);
        attention_block_bwd(
            &q, &k, &val, &dout, &lse, &dsum, &late, &early, scale, &mut dq, &mut dk, &mut dv,
        )
        .expect("shapes fixed");
        black_box((dq, dk, dv));
    });
    v.set(
        "attention.bwd_gflops",
        attention_tile_bwd_flops(lu, lu, hu, du) as f64 / secs / 1e9,
    );

    // The streaming kernel against the materialised-scores reference, on
    // the causal diagonal tile (the one that exercises the mask).
    let mut st = OnlineAttention::new(&q, &early, None).expect("shapes fixed");
    st.update(&k, &val, &early).expect("shapes fixed");
    let (got, _) = st.finalize();
    let want = attention_with_positions(&q, &k, &val, &early, &early, scale).expect("shapes fixed");
    let err = got
        .data()
        .iter()
        .zip(want.data())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    v.set("attention.max_abs_err", f64::from(err));
}

fn comm(w: &Workload, v: &mut Values) {
    let model = w.model();
    let chunk = [w.plan().chunk_local_len(), model.heads, model.head_dim()];
    let params = GptModel::new(&model, 0).param_count();
    let per_rank = run_group(WORLD, |comm| {
        let layout = AllToAllLayout::scatter_heads(&chunk, WORLD).expect("heads divide");
        let x = Tensor::zeros(&chunk);
        let a2a = median_secs_fixed(|| {
            black_box(layout.apply(&comm, &x).expect("healthy group"));
        });
        let grads = vec![0.5f32; params];
        let allreduce = median_secs_fixed(|| {
            black_box(
                comm.all_reduce_chunked(&grads, REDUCE_BUCKET)
                    .expect("healthy group"),
            );
        });
        (a2a, allreduce)
    });
    let (a2a, allreduce) = per_rank[0];
    v.set("comm.a2a_us", a2a * 1e6);
    v.set("comm.allreduce_ms", allreduce * 1e3);
}

fn offload(w: &Workload, v: &mut Values) {
    let model = w.model();
    let shape = [
        w.plan().chunk_global_len(),
        model.heads / WORLD,
        model.head_dim(),
    ];
    // Inside a group of WORLD ranks, so the copy stream gets the same
    // thread budget it has while training.
    let per_rank = run_group(WORLD, |_comm| {
        let mut engine = OffloadEngine::new(true);
        let kv = Arc::new(Tensor::zeros(&shape));
        let key = ChunkKey::new(0, BufKind::K, 0);
        median_secs(BUDGET, || {
            engine.put(key, Arc::clone(&kv));
            let handle = engine.prefetch(&key, true).expect("just put");
            black_box(handle.wait());
        })
    });
    v.set("offload.roundtrip_us", per_rank[0] * 1e6);
}

fn gpt(w: &Workload, seed: u64, v: &mut Values) {
    let cfg = w.model();
    let s_local = w.plan().local_len();
    let mut model = GptModel::new(&cfg, seed);
    let mut exec = LocalAttention::new(1);
    let tokens: Vec<usize> = (0..s_local).map(|i| (i * 7 + 3) % cfg.vocab).collect();
    let targets: Vec<usize> = tokens.iter().map(|t| (t + 1) % cfg.vocab).collect();
    let pos: Vec<usize> = (0..s_local).collect();
    // the chunking `Trainer` passes down
    let mlp_chunks = 2 * w.chunks();
    let loss_chunks = (cfg.vocab / cfg.hidden * 2).max(1);
    let secs = median_secs(BUDGET, || {
        model.zero_grad();
        black_box(
            model
                .forward_backward(&mut exec, &tokens, &targets, &pos, mlp_chunks, loss_chunks)
                .expect("local forward/backward"),
        );
    });
    v.set("gpt.local_fwdbwd_ms", secs * 1e3);
}

/// The planner face: workload-independent, so every workload reports the
/// same two numbers.
fn planner(v: &mut Values) {
    let model = ModelConfig::llama3_8b();
    let cluster = ClusterSpec::a100_80g(1, 4);
    let secs = median_secs(BUDGET, || {
        black_box(
            simulate_block(&model, &cluster, 256 * 1024, PipelineOpts::paper(4))
                .expect("valid schedule"),
        );
    });
    v.set("pipeline.simulate_block_ms", secs * 1e3);
    let strategy = Fpdt::paper_default();
    let secs = median_secs(BUDGET, || {
        black_box(max_seq_len(&strategy, &model, &cluster));
    });
    v.set("strategy.max_seq_len_ms", secs * 1e3);
}
