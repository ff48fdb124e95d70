//! Kernel-backend benchmark: wall-clock and GFLOP/s of the hot compute
//! kernels (tiled matmul forward/backward, online attention
//! forward/backward, layer-norm backward, fused cross-entropy) across two
//! axes: the microkernel backend (every one of `mk::backends()`: portable
//! scalar, and AVX2/FMA and AVX-512 where the CPU has them) and the thread
//! pool pinned to one thread versus the full `FPDT_THREADS` budget.
//!
//! Because every kernel partitions its work into fixed disjoint items with
//! sequential in-item accumulation — and because the microkernel backends
//! run the same generic kernels with the same reduction trees, AVX-512
//! widening only the gemm tile whose elements are single fused chains —
//! every configuration produces bitwise identical results; the benchmark
//! asserts that on every run before reporting the speedups.
//!
//! Pass `--json` to suppress the table and emit only
//! `target/experiments/BENCH_kernels.json`; `--quick` shrinks the problem
//! sizes for CI smoke runs.
//!
//! Fraction of roofline: besides the figure-scale `h=8, d=64` causal rows,
//! the attention kernels are timed on one FPDT tile at the runtime shape
//! the repo benchmark trains with (`[256, 1, 32]`), fully visible
//! (`attn_tile_*`, every off-diagonal tile of the chunk pipeline) and on
//! the causal diagonal (`attn_diag_*`, counted at half the FLOPs). Each
//! attention row's single-thread GFLOP/s over the same run's single-thread
//! matmul GFLOP/s lands in `roofline`; with AVX2 present a
//! `KERNELS_ATTN_ROOFLINE_OK` line is printed when the fully-visible tile
//! reaches [`ROOFLINE_GATE`] of matmul forward and backward *and* its
//! backward costs at most [`BWD_FWD_GATE`] forwards of wall time (the
//! median over [`TILE_PAIRS`] back-to-back pairs, see `paired`) — the
//! gate `scripts/ci.sh` greps for.
//!
//! The dense half's per-token kernels are timed at the same runtime shapes
//! (`gelu`, `silu` on `[1024, 256]`, the fused `gelu_fwd_bwd` the GELU
//! backward calls to rebuild the activation and form its gradient in one
//! pass, the table `rope` on `[1024, 2, 32]`, which rotates in place and
//! gets its input back off the clock; their rows carry ns per element) next to the MLP gemms they sit between
//! (`mlp_gemm`: fc1 + fc2, forward + backward, at `[1024,64]x[64,256]`).
//! `KERNELS_ACT_OK` is printed when single-thread `gelu` + `gelu_fwd_bwd`,
//! the activation work of one MLP layer's forward and backward, cost at
//! most that same run's `mlp_gemm` — an activation must not outweigh the
//! matmuls around it.
//!
//! The projections are timed at the chunk sizes the wide benchmark model
//! calls them with (`linear_chunk`: `Linear::forward` + `backward` into a
//! retained gradient slice at `[32,256]x[256,1024]`, an MLP chunk's fc1,
//! and `[16,256]x[256,1024]`, a loss-head chunk), where a kernel spends as
//! long moving the 1 MB weight as multiplying by it unless the weight is
//! read in place. `KERNELS_DENSE_OK` is printed when single-thread
//! `matmul_bwd` reaches [`DENSE_GATE`] of the same run's `matmul` GFLOP/s
//! (the median over twelve back-to-back pairs at 512 cubed, see `paired`):
//! the backward's two products go through the same microkernel as the
//! forward's one, so neither may run at half its rate.
//!
//! The optimizer's kernel is timed where the wide benchmark model runs it
//! (`adamw`: one `mk::adamw` step over `2^21` parameters, ns per parameter;
//! its state is restored off the clock before every call).
//! `KERNELS_OPT_OK` is printed when a parameter's step costs at most
//! [`OPT_GATE`] `gelu` elements of the same run: both are lane-wise
//! kernels of a few divides each, so the ratio holds on any host, and a
//! scalar loop in AdamW's place sits five times over it.
//!
//! A denominator that is the hardware: the `fma_peak` row times
//! `mk::fma_peak`, independent fused multiply-add chains held in
//! registers at the width each backend's gemm tile runs at, touching no
//! memory. `matmul`, `mlp_gemm`, `linear_chunk` and the attention rows
//! land in `peak_share` as single-thread fractions of it on the dispatch
//! backend, next to `roofline`, whose denominator is the same run's gemm
//! and so moves with every gemm change.
//!
//! Where AVX-512 runs, `KERNELS_WIDE_OK` is printed when single-thread
//! `linear_chunk` on the avx512 backend takes at most [`WIDE_GATE`] of the
//! avx2 backend's wall time (the median of [`WIDE_PAIRS`] back-to-back
//! pairs): the 16-lane gemm tiles must beat the 8-lane ones at the wide
//! model's chunk shapes.

use fpdt_attention::flops::{
    attention_bwd_flops, attention_fwd_flops, attention_tile_bwd_flops, attention_tile_fwd_flops,
};
use fpdt_attention::online::{attention_block_bwd, rowwise_dot, OnlineAttention};
use fpdt_bench::json_mode;
use fpdt_tensor::mk::{self, AdamwStep, Backend};
use fpdt_tensor::nn::Linear;
use fpdt_tensor::{init, ops, KernelCtx, Tensor};
use rayon::pool;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

#[derive(Serialize, Clone)]
struct Row {
    kernel: String,
    backend: String,
    threads: usize,
    wall_ms: f64,
    gflops: f64,
    /// Wall nanoseconds per output element (elementwise rows; else null).
    ns_per_element: Option<f64>,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    hardware_threads: usize,
    budget_threads: usize,
    avx2: bool,
    avx512: bool,
    rows: Vec<Row>,
    /// `wall(1 thread) / wall(budget)` per kernel, on the dispatch backend.
    speedups: Vec<(String, f64)>,
    /// `wall(scalar) / wall(dispatch backend)` per kernel at one thread
    /// (empty without AVX2).
    simd_speedups: Vec<(String, f64)>,
    /// Single-thread GFLOP/s of each attention row over the same run's
    /// single-thread matmul, on the dispatch backend.
    roofline: Vec<(String, f64)>,
    /// Single-thread GFLOP/s of the attention rows and of
    /// [`PEAK_SHARE_ROWS`] over the same run's single-thread `fma_peak`,
    /// on the dispatch backend.
    peak_share: Vec<(String, f64)>,
}

/// Share of same-run matmul throughput the fully-visible attention tile
/// must reach, forward and backward (the ROADMAP target).
const ROOFLINE_GATE: f64 = 0.6;

/// Most single-thread forwards of wall time the fully-visible tile's
/// backward may cost. It is counted at 2.5 (five gemm-shaped products to
/// two); each pair is timed back to back on one thread, so host speed
/// cancels.
const BWD_FWD_GATE: f64 = 2.8;

/// Most single-thread `gelu` elements one AdamW parameter step may cost.
/// Ten `--quick` runs on the development host measured 1.28-1.48 (1.09-1.36
/// ns against 0.83-0.92); the scalar loop this kernel replaced ran 4.5-5.0
/// ns per parameter, a ratio over 5.
const OPT_GATE: f64 = 2.0;

/// Share of the same run's single-thread `matmul` GFLOP/s that
/// `matmul_bwd` must reach. Through a `gemm_nt` of per-row dot sweeps it
/// read 0.62-0.67 on the development host (ten runs of the same probe on
/// the parent commit); with every product on `gemm_panel`, twenty
/// `--quick` runs read 0.85-0.97.
const DENSE_GATE: f64 = 0.75;

/// Most single-thread `linear_chunk` wall time on the AVX-512 backend,
/// as a share of the AVX2 backend's in the same run: the median of
/// [`WIDE_PAIRS`] back-to-back pairs (see `paired`). Eighteen `--quick`
/// runs on the development host read 0.56-0.67 (0.73-0.83 with the
/// `4 x 32` tiles alone, before the 8-row strips).
const WIDE_GATE: f64 = 0.85;

/// Pairs of `linear_chunk` calls the wide gate's ratio is the median of.
const WIDE_PAIRS: usize = 31;

/// The dense rows [`Report::peak_share`] reports besides the attention
/// rows.
const PEAK_SHARE_ROWS: [&str; 3] = ["matmul", "mlp_gemm", "linear_chunk"];

/// Lane fused multiply-adds in one `fma_peak` call: whole rounds of
/// `mk::PEAK_CHAINS` 16-lane vectors.
const PEAK_FMAS: usize = mk::PEAK_CHAINS * 16 * (1 << 16);

/// One FPDT attention tile at the repo benchmark's runtime shape: forward
/// `update` and `attention_block_bwd` benches with every query at
/// `q_pos0 + i` against keys at `0..len` (`q_pos0 = len` is fully visible,
/// `0` the causal diagonal). `flops_div` is 2 on the diagonal.
fn tile_benches(
    seed: u64,
    fwd_name: &'static str,
    bwd_name: &'static str,
    q_pos0: usize,
    flops_div: u64,
) -> [Bench; 2] {
    let (len, h, d) = (256usize, 1usize, 32usize);
    let shape = [len, h, d];
    let mut rng = init::seeded_rng(seed);
    let q = init::randn(&mut rng, &shape, 1.0);
    let k = init::randn(&mut rng, &shape, 1.0);
    let v = init::randn(&mut rng, &shape, 1.0);
    let dout = init::randn(&mut rng, &shape, 1.0);
    let q_pos: Vec<usize> = (q_pos0..q_pos0 + len).collect();
    let kv_pos: Vec<usize> = (0..len).collect();
    let scale = fpdt_attention::default_scale(d);
    let mut st = OnlineAttention::new(&q, &q_pos, None).expect("shapes fixed");
    st.update(&k, &v, &kv_pos).expect("shapes fixed");
    let (o, lse) = st.finalize();
    let dsum = rowwise_dot(&o, &dout).expect("shapes fixed");
    let (lu, hu, du) = (len as u64, h as u64, d as u64);
    let (q2, k2, v2, q_pos2, kv_pos2) = (
        q.clone(),
        k.clone(),
        v.clone(),
        q_pos.clone(),
        kv_pos.clone(),
    );
    [
        Bench {
            name: fwd_name,
            flops: attention_tile_fwd_flops(lu, lu, hu, du) / flops_div,
            kernel_only: false,
            run: Box::new(move || {
                let mut st = OnlineAttention::new(&q, &q_pos, None).expect("shapes fixed");
                st.update(&k, &v, &kv_pos).expect("shapes fixed");
                let (o, lse) = st.finalize();
                vec![o.into_vec(), lse]
            }),
        },
        Bench {
            name: bwd_name,
            flops: attention_tile_bwd_flops(lu, lu, hu, du) / flops_div,
            kernel_only: false,
            run: Box::new(move || {
                let mut dq = Tensor::zeros(&shape);
                let mut dk = Tensor::zeros(&shape);
                let mut dv = Tensor::zeros(&shape);
                attention_block_bwd(
                    &q2, &k2, &v2, &dout, &lse, &dsum, &q_pos2, &kv_pos2, scale, &mut dq, &mut dk,
                    &mut dv,
                )
                .expect("shapes fixed");
                outputs([dq, dk, dv])
            }),
        },
    ]
}

/// Shortest time a configuration is sampled for: sub-millisecond kernels
/// (one attention tile, the `--quick` matmul) get enough repetitions for
/// their best-of to be a warm steady-state number.
const MIN_SAMPLE_SECS: f64 = 0.02;

/// Runs `f` at least `reps` times and for at least [`MIN_SAMPLE_SECS`],
/// and returns the best wall-clock seconds (least noise on a shared host)
/// along with the digest of the last outputs for the bitwise equivalence
/// check. With `kernel_only` the clock stops before the digest.
fn time_best(reps: usize, kernel_only: bool, f: &mut dyn Kernel) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut last = 0u64;
    let started = Instant::now();
    let mut done = 0;
    while done < reps || started.elapsed().as_secs_f64() < MIN_SAMPLE_SECS {
        f.reset();
        let t0 = Instant::now();
        let out = f.run();
        let kernel = t0.elapsed();
        last = digest(&out);
        let wall = if kernel_only { kernel } else { t0.elapsed() };
        best = best.min(wall.as_secs_f64());
        done += 1;
    }
    (best, last)
}

/// Times `first` and then `second`, single-threaded and the calls alone,
/// `pairs` times back to back; returns the best `first` seconds and the
/// median of the per-pair `second / first` wall ratios. A neighbour's
/// burst on a shared host slows both halves of a pair or a few pairs of
/// many, which two rows timed one after the other do not give: their
/// ratio swings with whatever load each row happened to see.
fn paired(pairs: usize, first: &mut dyn Kernel, second: &mut dyn Kernel) -> (f64, f64) {
    let one_thread = KernelCtx {
        threads: 1,
        ..KernelCtx::current()
    };
    let time = |k: &mut dyn Kernel| {
        k.reset();
        let t0 = Instant::now();
        black_box(k.run());
        t0.elapsed().as_secs_f64()
    };
    let mut best = f64::INFINITY;
    let mut ratios: Vec<f64> = one_thread.enter(|| {
        (0..pairs)
            .map(|_| {
                let a = time(first);
                best = best.min(a);
                time(second) / a
            })
            .collect()
    });
    ratios.sort_by(f64::total_cmp);
    let n = ratios.len();
    (best, (ratios[(n - 1) / 2] + ratios[n / 2]) / 2.0)
}

/// Single-thread `matmul` GFLOP/s and the share of it that `matmul_bwd`
/// reaches, from twelve [`paired`] calls. Always `[512, 512]` operands
/// (15 ms a pair): at the `--quick` rows' 128 the transposed blocks are a
/// fifth of the backward and the share sits on the gate.
fn dense_pair() -> (f64, f64) {
    let n = 512usize;
    let mut rng = init::seeded_rng(48);
    let [a, b, dc] = [(); 3].map(|()| init::randn(&mut rng, &[n, n], 1.0));
    let (fwd, bwd_over_fwd) = paired(
        12,
        &mut || outputs([ops::matmul(&a, &b).expect("shapes fixed")]),
        &mut || {
            let (da, db) = ops::matmul_bwd(&a, &b, &dc).expect("shapes fixed");
            outputs([da, db])
        },
    );
    // two products in the backward to the forward's one
    (2.0 * (n as f64).powi(3) / fwd / 1e9, 2.0 / bwd_over_fwd)
}

/// Pairs of fully-visible tile calls the roofline gate's backward/forward
/// wall ratio is the median of (~1 ms a pair on the development host).
const TILE_PAIRS: usize = 31;

/// What one kernel call produced, flattened for [`digest`].
type Outputs = Vec<Vec<f32>>;

fn outputs<const N: usize>(tensors: [Tensor; N]) -> Outputs {
    tensors.into_iter().map(Tensor::into_vec).collect()
}

/// FNV-1a over the raw bits of the outputs: equal digests ⇔ bitwise
/// equal outputs.
fn digest(parts: &[Vec<f32>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in parts {
        for v in p {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    h
}

/// A timed kernel call. Closures are kernels with nothing to restore.
trait Kernel {
    /// Restores whatever `run` updates in place, off the clock.
    fn reset(&mut self) {}
    fn run(&mut self) -> Outputs;
}

impl<F: FnMut() -> Outputs> Kernel for F {
    fn run(&mut self) -> Outputs {
        self()
    }
}

/// A kernel whose calls run on one backend, whatever the caller's.
struct On<K>(Backend, K);

impl<K: Kernel> Kernel for On<K> {
    fn reset(&mut self) {
        self.1.reset();
    }

    fn run(&mut self) -> Outputs {
        let ctx = KernelCtx {
            backend: self.0,
            ..KernelCtx::current()
        };
        ctx.enter(|| self.1.run())
    }
}

/// `mk::adamw` over `2^21` parameters (the wide benchmark model holds
/// 2.1M): step 3 of a run, from the same parameters and moments every call.
struct AdamwKernel {
    /// Pristine `[p, m, v]` and the working copies the kernel updates.
    init: [Vec<f32>; 3],
    work: [Vec<f32>; 3],
    grad: Vec<f32>,
    step: AdamwStep,
}

impl AdamwKernel {
    const PARAMS: usize = 1 << 21;

    fn new(seed: u64) -> Self {
        let mut rng = init::seeded_rng(seed);
        let mut randv = |std: f32| init::randn(&mut rng, &[Self::PARAMS], std).into_vec();
        let init = [
            randv(0.02),
            randv(0.01),
            randv(0.01).iter().map(|x| x * x).collect(),
        ];
        let (beta1, beta2) = (0.9f32, 0.95f32);
        AdamwKernel {
            work: init.clone(),
            init,
            grad: randv(30.0),
            step: AdamwStep {
                lr: 3e-3,
                beta1,
                beta2,
                eps: 1e-8,
                weight_decay: 0.0,
                bc1: 1.0 - beta1.powi(3),
                bc2: 1.0 - beta2.powi(3),
                grad_scale: 1.0 / 256.0,
            },
        }
    }
}

impl Kernel for AdamwKernel {
    fn reset(&mut self) {
        self.work.clone_from(&self.init);
    }

    fn run(&mut self) -> Outputs {
        let [p, m, v] = &mut self.work;
        mk::adamw(p, m, v, &self.grad, &self.step);
        // the updated state itself, not a copy of it: `reset` refills it
        self.work.iter_mut().map(std::mem::take).collect()
    }
}

/// `ops::gelu_fwd_bwd` at `[1024, 256]`: it writes over the buffers it
/// takes, so every call gets fresh copies of the same pre-activation and
/// upstream gradient, made off the clock.
struct GeluFwdBwd {
    init: [Tensor; 2],
    work: [Tensor; 2],
}

impl Kernel for GeluFwdBwd {
    fn reset(&mut self) {
        self.work.clone_from(&self.init);
    }

    fn run(&mut self) -> Outputs {
        let [a, dg] = self.work.each_mut().map(std::mem::take);
        let (g, da) = ops::gelu_fwd_bwd(a, dg).expect("shapes fixed");
        outputs([g, da])
    }
}

/// The table `rope` at `[1024, 2, 32]`: it rotates the tensor it takes in
/// place, so every call gets a fresh copy of the same input, made off the
/// clock.
struct Rope {
    table: ops::RopeTable,
    init: Tensor,
    work: Tensor,
}

impl Kernel for Rope {
    fn reset(&mut self) {
        self.work.clone_from(&self.init);
    }

    fn run(&mut self) -> Outputs {
        let q = std::mem::take(&mut self.work);
        outputs([self.table.apply_rows(0, q).expect("shapes fixed")])
    }
}

/// The wide benchmark model's two chunk-sized projections: an MLP chunk
/// through fc1 (32 rows) and a loss-head chunk (16 rows), both
/// `[., 256] x [256, 1024]` with bias, forward and backward, the backward
/// adding into a gradient slice that lives across calls as the runtime's
/// flat buffer does.
struct LinearChunks {
    layer: Linear,
    /// `(x, dy)` per chunk size.
    chunks: [(Tensor, Tensor); 2],
    grad: Vec<f32>,
}

impl LinearChunks {
    fn new(seed: u64) -> Self {
        let (hidden, out) = (256usize, 1024usize);
        let mut rng = init::seeded_rng(seed);
        let layer = Linear::new(hidden, out, true, &mut rng);
        let chunks = [32usize, 16].map(|rows| {
            (
                init::randn(&mut rng, &[rows, hidden], 1.0),
                init::randn(&mut rng, &[rows, out], 1.0),
            )
        });
        LinearChunks {
            grad: vec![0.0; layer.param_count()],
            layer,
            chunks,
        }
    }
}

impl Kernel for LinearChunks {
    fn reset(&mut self) {
        self.grad.fill(0.0);
    }

    fn run(&mut self) -> Outputs {
        let mut out = Outputs::new();
        for (x, dy) in &self.chunks {
            let y = self.layer.forward(x).expect("shapes fixed");
            let dx = self
                .layer
                .backward(x, dy, &mut self.grad)
                .expect("shapes fixed");
            out.extend(outputs([y, dx]));
        }
        // 1 MB of gradient: digest what the two calls left in its first row
        out.push(self.grad[..1024].to_vec());
        out
    }
}

struct Bench {
    name: &'static str,
    flops: u64,
    /// Time the kernel alone. The byte-serial digest of a `[1024, 256]`
    /// output costs several times a lane-wise activation, so the dense
    /// rows set this; the older rows keep the digest on the clock, which
    /// is how the roofline gate's `--quick` margins were taken (digesting
    /// a 128x128 product costs more than computing it).
    kernel_only: bool,
    run: Box<dyn Kernel>,
}

/// Elementwise rows report ns per element; their `flops` field holds the
/// element count.
const ELEMENTWISE: [&str; 5] = ["gelu", "gelu_fwd_bwd", "silu", "rope", "adamw"];

/// The dense half's per-token kernels and the MLP gemms around them, at
/// the repo benchmark's `fpdt_long` shapes (1024 local tokens, hidden 64,
/// FFN 256, 2 heads of 32).
fn dense_benches(seed: u64) -> Vec<Bench> {
    let (tokens, hidden, ffn) = (1024usize, 64usize, 256usize);
    let mut rng = init::seeded_rng(seed);
    let a = init::randn(&mut rng, &[tokens, ffn], 1.0);
    let da = init::randn(&mut rng, &[tokens, ffn], 1.0);
    let a2 = a.clone();
    let fused = [a.clone(), da];
    let q = init::randn(&mut rng, &[tokens, 2, 32], 1.0);
    // a rank's shuffled global positions: stride-2 blocks of 128
    let pos: Vec<usize> = (0..tokens).map(|t| t + (t / 128 + 1) * 128).collect();
    let table = ops::RopeTable::new(&pos, 32, 10_000.0).expect("even head dim");
    let x = init::randn(&mut rng, &[tokens, hidden], 1.0);
    let w1 = init::randn(&mut rng, &[hidden, ffn], 0.1);
    let w2 = init::randn(&mut rng, &[ffn, hidden], 0.1);
    let dy = init::randn(&mut rng, &[tokens, hidden], 1.0);
    let elems = (tokens * ffn) as u64;
    let (t, h, f) = (tokens as u64, hidden as u64, ffn as u64);
    vec![
        Bench {
            name: "gelu",
            flops: elems,
            kernel_only: true,
            run: Box::new(move || outputs([ops::gelu(&a)])),
        },
        Bench {
            name: "gelu_fwd_bwd",
            flops: elems,
            kernel_only: true,
            run: Box::new(GeluFwdBwd {
                work: fused.clone(),
                init: fused,
            }),
        },
        Bench {
            name: "silu",
            flops: elems,
            kernel_only: true,
            run: Box::new(move || outputs([ops::silu(&a2)])),
        },
        Bench {
            name: "rope",
            flops: q.numel() as u64,
            kernel_only: true,
            run: Box::new(Rope {
                table,
                work: q.clone(),
                init: q,
            }),
        },
        Bench {
            name: "mlp_gemm",
            // fc1 and fc2, forward (2 flops per multiply-add) and both
            // backward products (4)
            flops: 2 * 6 * t * h * f,
            kernel_only: true,
            run: Box::new(move || {
                let a = ops::matmul(&x, &w1).expect("shapes fixed");
                let y = ops::matmul(&a, &w2).expect("shapes fixed");
                let (dg, dw2) = ops::matmul_bwd(&a, &w2, &dy).expect("shapes fixed");
                let (dx, dw1) = ops::matmul_bwd(&x, &w1, &dg).expect("shapes fixed");
                outputs([y, dw2, dx, dw1])
            }),
        },
    ]
}

fn benches(quick: bool) -> Vec<Bench> {
    let mut rng = init::seeded_rng(42);
    let n = if quick { 128 } else { 512 };
    let a = init::randn(&mut rng, &[n, n], 1.0);
    let b = init::randn(&mut rng, &[n, n], 1.0);
    let dc = init::randn(&mut rng, &[n, n], 1.0);
    let (a2, b2, dc2) = (a.clone(), b.clone(), dc.clone());

    // Figure-scale attention head layout (h=8, d=64).
    let (s, h, d) = (if quick { 128 } else { 512 }, 8usize, 64usize);
    let q = init::randn(&mut rng, &[s, h, d], 1.0);
    let k = init::randn(&mut rng, &[s, h, d], 1.0);
    let v = init::randn(&mut rng, &[s, h, d], 1.0);
    let dout = init::randn(&mut rng, &[s, h, d], 1.0);
    let pos: Vec<usize> = (0..s).collect();
    let (q2, k2, v2, dout2, pos2) = (q.clone(), k.clone(), v.clone(), dout.clone(), pos.clone());
    let scale = fpdt_attention::default_scale(d);

    let rows = if quick { 256 } else { 2048 };
    let dim = 1024usize;
    let x = init::randn(&mut rng, &[rows, dim], 1.0);
    let gamma = init::randn(&mut rng, &[dim], 0.2);
    let beta = init::randn(&mut rng, &[dim], 0.2);
    let dy = init::randn(&mut rng, &[rows, dim], 1.0);
    let (x2, dy2) = (x.clone(), dy.clone());
    let vocab = if quick { 512 } else { 4096 };
    let logits = init::randn(&mut rng, &[rows, vocab], 1.0);
    let targets: Vec<usize> = (0..rows).map(|i| i % vocab).collect();

    let nu = n as u64;
    let (su, hu, du) = (s as u64, h as u64, d as u64);
    let mut out = vec![
        Bench {
            name: "matmul",
            flops: 2 * nu * nu * nu,
            kernel_only: false,
            run: Box::new(move || {
                let c = ops::matmul(&a, &b).expect("shapes fixed");
                outputs([c])
            }),
        },
        Bench {
            name: "matmul_bwd",
            flops: 4 * nu * nu * nu,
            kernel_only: false,
            run: Box::new(move || {
                let (da, db) = ops::matmul_bwd(&a2, &b2, &dc2).expect("shapes fixed");
                outputs([da, db])
            }),
        },
        Bench {
            name: "attention_fwd",
            flops: attention_fwd_flops(su, hu, du),
            kernel_only: false,
            run: Box::new(move || {
                let mut st = OnlineAttention::new(&q, &pos, None).expect("shapes fixed");
                st.update(&k, &v, &pos).expect("shapes fixed");
                let (o, lse) = st.finalize();
                vec![o.into_vec(), lse]
            }),
        },
        Bench {
            name: "attention_bwd",
            flops: attention_bwd_flops(su, hu, du),
            kernel_only: false,
            run: Box::new(move || {
                let mut st = OnlineAttention::new(&q2, &pos2, None).expect("shapes fixed");
                st.update(&k2, &v2, &pos2).expect("shapes fixed");
                let (o, lse) = st.finalize();
                let dsum = rowwise_dot(&o, &dout2).expect("shapes fixed");
                let mut dq = Tensor::zeros(q2.shape());
                let mut dk = Tensor::zeros(k2.shape());
                let mut dv = Tensor::zeros(v2.shape());
                attention_block_bwd(
                    &q2, &k2, &v2, &dout2, &lse, &dsum, &pos2, &pos2, scale, &mut dq, &mut dk,
                    &mut dv,
                )
                .expect("shapes fixed");
                outputs([dq, dk, dv])
            }),
        },
        Bench {
            name: "layernorm_bwd",
            flops: 11 * (rows as u64) * (dim as u64),
            kernel_only: false,
            run: Box::new(move || {
                let (_, ctx) = ops::layernorm(&x, &gamma, &beta, 1e-5).expect("shapes fixed");
                let (dx, dg, db) = ops::layernorm_bwd(&x, &gamma, &ctx, &dy).expect("shapes fixed");
                outputs([dx, dg, db])
            }),
        },
        Bench {
            name: "cross_entropy",
            flops: 5 * (rows as u64) * (vocab as u64),
            kernel_only: false,
            run: Box::new(move || {
                let out = ops::cross_entropy(&logits, &targets, usize::MAX).expect("shapes fixed");
                vec![out.dlogits.into_vec(), vec![out.loss_sum]]
            }),
        },
        Bench {
            name: "softmax_rows",
            flops: 5 * (rows as u64) * (dim as u64),
            kernel_only: false,
            run: Box::new(move || {
                let y = ops::softmax_rows(&x2);
                let dx = ops::softmax_rows_bwd(&y, &dy2).expect("shapes fixed");
                outputs([y, dx])
            }),
        },
    ];
    out.extend(tile_benches(43, "attn_tile_fwd", "attn_tile_bwd", 256, 1));
    out.extend(tile_benches(44, "attn_diag_fwd", "attn_diag_bwd", 0, 2));
    out.extend(dense_benches(45));
    out.push(Bench {
        name: "linear_chunk",
        // forward and both backward products of each chunk
        flops: 2 * 3 * 256 * 1024 * (32 + 16),
        kernel_only: true,
        run: Box::new(LinearChunks::new(47)),
    });
    out.push(Bench {
        name: "fma_peak",
        flops: 2 * PEAK_FMAS as u64,
        kernel_only: true,
        // no output: the chains' sum depends on the lane count
        run: Box::new(|| {
            black_box(mk::fma_peak(PEAK_FMAS));
            Outputs::new()
        }),
    });
    out.push(Bench {
        name: "adamw",
        flops: AdamwKernel::PARAMS as u64,
        kernel_only: true,
        run: Box::new(AdamwKernel::new(46)),
    });
    out
}

fn main() {
    let quiet = json_mode();
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 2 } else { 5 };
    let budget = KernelCtx::current().threads;
    // On a single-core host the second config still runs real pool workers
    // (the pool spawns past the hardware count), so the bitwise
    // equivalence assertion below is always exercised — only the reported
    // speedup degenerates to ~1x there.
    let configs = if budget > 1 {
        vec![1, budget]
    } else {
        vec![1, 2]
    };

    // Every backend this build and CPU can run, scalar first; the last is
    // the dispatch default.
    let backends: Vec<(String, Backend)> = mk::backends()
        .into_iter()
        .map(|be| (format!("{be:?}").to_lowercase(), be))
        .collect();
    let dispatch = backends[backends.len() - 1].0.as_str();

    let mut rows: Vec<Row> = Vec::new();
    let mut speedups: Vec<(String, f64)> = Vec::new();
    let mut simd_speedups: Vec<(String, f64)> = Vec::new();
    for mut bench in benches(quick) {
        // Warm up once (fills scratch buffers, faults pages).
        bench.run.run();
        // (backend, threads, wall) across the full grid; every cell must
        // digest identically.
        let mut walls: Vec<(&str, usize, f64)> = Vec::new();
        let mut digests: Vec<u64> = Vec::new();
        for (bname, be) in &backends {
            let (bname, be) = (bname.as_str(), *be);
            for &t in &configs {
                let ctx = KernelCtx {
                    threads: t,
                    backend: be,
                    ..KernelCtx::current()
                };
                let (wall, dg) = ctx.enter(|| time_best(reps, bench.kernel_only, &mut *bench.run));
                walls.push((bname, t, wall));
                digests.push(dg);
                let elementwise = ELEMENTWISE.contains(&bench.name);
                rows.push(Row {
                    kernel: bench.name.to_string(),
                    backend: bname.to_string(),
                    threads: t,
                    wall_ms: wall * 1e3,
                    gflops: if elementwise {
                        0.0
                    } else {
                        bench.flops as f64 / wall / 1e9
                    },
                    ns_per_element: elementwise.then(|| wall * 1e9 / bench.flops as f64),
                });
            }
        }
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "{}: outputs differ across backend/thread configurations",
            bench.name
        );
        // Thread speedup on the dispatch backend (the last one timed).
        let last = &walls[walls.len() - configs.len()..];
        speedups.push((bench.name.to_string(), last[0].2 / last[last.len() - 1].2));
        if backends.len() > 1 {
            let wall_at = |bname: &str| {
                walls
                    .iter()
                    .find(|(b, t, _)| *b == bname && *t == 1)
                    .expect("timed above")
                    .2
            };
            simd_speedups.push((
                bench.name.to_string(),
                wall_at("scalar") / wall_at(dispatch),
            ));
        }
    }

    // Fraction of roofline: attention rows against the same run's matmul,
    // both single-threaded on the dispatch backend (the last one timed).
    let gflops_at = |kernel: &str| {
        rows.iter()
            .find(|r| r.kernel == kernel && r.backend == dispatch && r.threads == 1)
            .expect("timed above")
            .gflops
    };
    let roofline: Vec<(String, f64)> = rows
        .iter()
        .filter(|r| r.kernel.starts_with("att") && r.backend == dispatch && r.threads == 1)
        .map(|r| (r.kernel.clone(), r.gflops / gflops_at("matmul")))
        .collect();
    // The same rows and the dense products against the hardware: the
    // dispatch backend's register-resident FMA rate, which no gemm change
    // moves.
    let peak_share: Vec<(String, f64)> = rows
        .iter()
        .filter(|r| {
            (r.kernel.starts_with("att") || PEAK_SHARE_ROWS.contains(&r.kernel.as_str()))
                && r.backend == dispatch
                && r.threads == 1
        })
        .map(|r| (r.kernel.clone(), r.gflops / gflops_at("fma_peak")))
        .collect();

    if !quiet {
        println!(
            "kernel backend: {} hardware threads, budget {}, avx2 {}, avx512 {}",
            pool::hardware_threads(),
            budget,
            mk::avx2_available(),
            mk::avx512_available()
        );
        println!(
            "{:<16}{:>9}{:>9}{:>12}{:>12}",
            "kernel", "backend", "threads", "wall ms", "GFLOP/s"
        );
        for r in &rows {
            let rate = match r.ns_per_element {
                Some(ns) => format!("{ns:.2} ns/el"),
                None => format!("{:.2}", r.gflops),
            };
            println!(
                "{:<16}{:>9}{:>9}{:>12.3}{:>12}",
                r.kernel, r.backend, r.threads, r.wall_ms, rate
            );
        }
        for (name, s) in &speedups {
            println!("speedup {name}: {s:.2}x (bitwise identical outputs)");
        }
        for (name, s) in &simd_speedups {
            println!("simd speedup {name}: {s:.2}x over scalar (bitwise identical)");
        }
        for (name, f) in &roofline {
            println!("roofline {name}: {f:.2} of single-thread matmul GFLOP/s");
        }
        for (name, f) in &peak_share {
            println!("fma_peak {name}: {f:.2} of single-thread {dispatch} fma_peak GFLOP/s");
        }
    }

    let report = Report {
        bench: "kernels",
        hardware_threads: pool::hardware_threads(),
        budget_threads: budget,
        avx2: mk::avx2_available(),
        avx512: mk::avx512_available(),
        rows,
        speedups,
        simd_speedups,
        roofline: roofline.clone(),
        peak_share,
    };
    let dir = std::path::PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    let path = dir.join("BENCH_kernels.json");
    let body = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&path, &body).expect("write BENCH_kernels.json");
    let reparsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).expect("read back"))
            .expect("BENCH_kernels.json parses");
    let has_rows = matches!(
        &reparsed,
        serde_json::Value::Object(entries)
            if entries.iter().any(|(key, val)| {
                key == "rows" && matches!(val, serde_json::Value::Array(_))
            })
    );
    assert!(has_rows, "rows array present");
    println!("BENCH_JSON_OK {}", path.display());
    // CI gate: on AVX2 hosts the fully-visible runtime-shape tile must
    // reach ROOFLINE_GATE of the same run's matmul, forward and backward,
    // with the backward inside BWD_FWD_GATE forwards.
    if mk::avx2_available() {
        let share = |kernel: &str| {
            roofline
                .iter()
                .find(|(n, _)| n == kernel)
                .expect("tile rows timed above")
                .1
        };
        let row = |kernel: &str| {
            report
                .rows
                .iter()
                .find(|r| r.kernel == kernel && r.backend == dispatch && r.threads == 1)
                .expect("every gated row is timed above")
        };
        let wall_ms = |kernel: &str| row(kernel).wall_ms;
        let (fwd, bwd) = (share("attn_tile_fwd"), share("attn_tile_bwd"));
        let [mut tile_fwd, mut tile_bwd] =
            tile_benches(43, "attn_tile_fwd", "attn_tile_bwd", 256, 1).map(|b| b.run);
        let (_, ratio) = paired(TILE_PAIRS, &mut *tile_fwd, &mut *tile_bwd);
        let verdict = if fwd.min(bwd) >= ROOFLINE_GATE && ratio <= BWD_FWD_GATE {
            "OK"
        } else {
            "FAIL"
        };
        println!(
            "KERNELS_ATTN_ROOFLINE_{verdict} fwd {fwd:.2} bwd {bwd:.2} of matmul (gate {ROOFLINE_GATE:.2}), bwd/fwd wall {ratio:.2} (gate {BWD_FWD_GATE:.1})"
        );
        // Same run, same thread, so host speed cancels: one MLP layer's
        // GELU work, the forward's and the backward's fused rebuild and
        // gradient, against the four gemm calls of that layer.
        let (act, gemm) = (
            wall_ms("gelu") + wall_ms("gelu_fwd_bwd"),
            wall_ms("mlp_gemm"),
        );
        let verdict = if act <= gemm { "OK" } else { "FAIL" };
        println!("KERNELS_ACT_{verdict} gelu+gelu_fwd_bwd {act:.3} ms vs mlp gemm {gemm:.3} ms");
        // One parameter's AdamW step against one GELU element, both
        // lane-wise and single-threaded in this run.
        let ns_per_element = |kernel: &str| {
            row(kernel)
                .ns_per_element
                .expect("elementwise rows carry ns per element")
        };
        // The backward's two products against the forward's one: all
        // three are `gemm_panel` sweeps.
        let (fwd, share) = dense_pair();
        let verdict = if share >= DENSE_GATE { "OK" } else { "FAIL" };
        println!(
            "KERNELS_DENSE_{verdict} matmul_bwd at {share:.2} of matmul {fwd:.1} GFLOP/s (gate {DENSE_GATE:.2}), linear_chunk {:.3} ms",
            wall_ms("linear_chunk")
        );
        let (opt, gelu) = (ns_per_element("adamw"), ns_per_element("gelu"));
        let verdict = if opt <= OPT_GATE * gelu { "OK" } else { "FAIL" };
        println!(
            "KERNELS_OPT_{verdict} adamw {opt:.2} ns/param = {:.2} gelu elements at {gelu:.2} ns (gate {OPT_GATE:.1})",
            opt / gelu
        );
    }
    // CI gate: where AVX-512 runs, its 16-lane gemm tiles must beat the
    // 8-lane ones on the wide model's chunk projections, same thread,
    // back to back.
    if mk::avx512_available() {
        let (_, ratio) = paired(
            WIDE_PAIRS,
            &mut On(Backend::Avx2, LinearChunks::new(47)),
            &mut On(Backend::Avx512, LinearChunks::new(47)),
        );
        let verdict = if ratio <= WIDE_GATE { "OK" } else { "FAIL" };
        println!(
            "KERNELS_WIDE_{verdict} linear_chunk avx512/avx2 wall {ratio:.2} (gate {WIDE_GATE:.2})"
        );
    }
}
