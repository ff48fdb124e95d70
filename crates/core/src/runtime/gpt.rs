//! A decoder-only Transformer with hand-written backward passes and
//! pluggable attention, covering both families the paper trains:
//!
//! * **GPT** — LayerNorm, biased projections, 4x GELU MLP, MHA;
//! * **Llama** — RMSNorm, bias-free projections, gated SiLU (SwiGLU) MLP,
//!   grouped-query attention.
//!
//! The MLP and the loss head both run chunked (paper §5.4) — token-wise
//! operations chunk without changing results, which the tests verify.

use crate::runtime::exec::{AttentionExec, ExecResult, RowChunks};
use fpdt_model::config::{Family, ModelConfig};
use fpdt_tensor::nn::{split_grad, AdamW, Embedding, LayerNorm, Linear, RmsNorm};
use fpdt_tensor::ops::{self, LayerNormCtx, RmsNormCtx, RopeTable};
use fpdt_tensor::{init, Tensor};
use fpdt_trace::Recorder;
use rand::rngs::SmallRng;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::Range;

/// Target id that contributes neither loss nor gradient.
pub const IGNORE_INDEX: usize = usize::MAX;
const ROPE_BASE: f32 = 10_000.0;
const NORM_EPS: f32 = 1e-5;

/// Runs `f` under a `label` span when a recorder is attached. The dense
/// half's labels (`dense.*`, `head.loss`, `embed`, and `opt.*` /
/// `grads.*` / `sync.*` / `segment.*` in `dist.rs`), one per block-level
/// operation, stay clear of the prefixes the executor, its streams and the
/// benchmark's reducers own (`block.`, `slot.`, `attn.`, `a2a.`,
/// `kernel.`, `comm.`, `offload.`, `allreduce.`).
pub(crate) fn spanned<T>(rec: Option<&Recorder>, label: &str, f: impl FnOnce() -> T) -> T {
    let _s = rec.map(|r| r.span(label));
    f()
}

/// Where a new layer's weights come from: the seeded initialiser, or
/// (`None`) zeros that [`GptModel::from_params`] overwrites.
type Init = Option<SmallRng>;

fn linear(i: usize, o: usize, bias: bool, init: &mut Init) -> Linear {
    match init {
        Some(rng) => Linear::new(i, o, bias, rng),
        None => Linear::zeros(i, o, bias),
    }
}

/// A linear layer's parameters in flat order: weight, then bias.
fn visit_linear(l: &mut Linear, f: &mut impl FnMut(&mut Tensor)) {
    f(&mut l.weight);
    if let Some(b) = l.bias.as_mut() {
        f(b);
    }
}

/// Family-dispatched normalization layer.
#[derive(Debug, Clone)]
enum Norm {
    Layer(LayerNorm),
    Rms(RmsNorm),
}

enum NormCtx {
    Layer(LayerNormCtx),
    Rms(RmsNormCtx),
}

impl Norm {
    fn new(family: Family, dim: usize) -> Self {
        match family {
            Family::Gpt => Norm::Layer(LayerNorm::new(dim, NORM_EPS)),
            Family::Llama => Norm::Rms(RmsNorm::new(dim, NORM_EPS)),
        }
    }

    fn forward(&self, x: &Tensor) -> ExecResult<(Tensor, NormCtx)> {
        Ok(match self {
            Norm::Layer(n) => {
                let (y, c) = n.forward(x)?;
                (y, NormCtx::Layer(c))
            }
            Norm::Rms(n) => {
                let (y, c) = n.forward(x)?;
                (y, NormCtx::Rms(c))
            }
        })
    }

    fn backward(
        &self,
        x: &Tensor,
        ctx: &NormCtx,
        dy: &Tensor,
        grad: &mut [f32],
    ) -> ExecResult<Tensor> {
        Ok(match (self, ctx) {
            (Norm::Layer(n), NormCtx::Layer(c)) => n.backward(x, c, dy, grad)?,
            (Norm::Rms(n), NormCtx::Rms(c)) => n.backward(x, c, dy, grad)?,
            _ => return Err("norm context family mismatch".into()),
        })
    }

    fn param_count(&self) -> usize {
        match self {
            Norm::Layer(n) => n.param_count(),
            Norm::Rms(n) => n.param_count(),
        }
    }

    fn for_each_param(&mut self, f: &mut impl FnMut(&mut Tensor)) {
        match self {
            Norm::Layer(n) => {
                f(&mut n.gamma);
                f(&mut n.beta);
            }
            Norm::Rms(n) => f(&mut n.gamma),
        }
    }
}

/// Family-dispatched MLP.
#[derive(Debug, Clone)]
enum Mlp {
    /// `fc2(gelu(fc1(x)))`
    Gelu { fc1: Linear, fc2: Linear },
    /// `down(silu(gate(x)) * up(x))`
    SwiGlu {
        gate: Linear,
        up: Linear,
        down: Linear,
    },
}

/// What one MLP piece keeps for its backward: the matmul outputs only.
/// The activation output `g` is rebuilt from them there, bit for bit.
struct MlpCtx {
    /// Pre-activation (`fc1` out, or `gate` out).
    a: Tensor,
    /// SwiGLU only: the `up` projection output.
    u: Option<Tensor>,
}

impl Mlp {
    fn new(cfg: &ModelConfig, init: &mut Init) -> Self {
        let (h, f) = (cfg.hidden, cfg.ffn_hidden);
        match cfg.family {
            Family::Gpt => Mlp::Gelu {
                fc1: linear(h, f, true, init),
                fc2: linear(f, h, true, init),
            },
            Family::Llama => Mlp::SwiGlu {
                gate: linear(h, f, false, init),
                up: linear(h, f, false, init),
                down: linear(f, h, false, init),
            },
        }
    }

    fn forward(&self, x: &Tensor) -> ExecResult<(Tensor, MlpCtx)> {
        Ok(match self {
            Mlp::Gelu { fc1, fc2 } => {
                let a = fc1.forward(x)?;
                let y = fc2.forward(&ops::gelu(&a))?;
                (y, MlpCtx { a, u: None })
            }
            Mlp::SwiGlu { gate, up, down } => {
                let a = gate.forward(x)?;
                let u = up.forward(x)?;
                let y = down.forward(&ops::silu(&a).mul(&u)?)?;
                (y, MlpCtx { a, u: Some(u) })
            }
        })
    }

    /// Backward for one piece whose input was `x`; the activation output
    /// the forward did not keep is rebuilt here with the forward's own
    /// kernels, so every gradient has the bits of a saved-`g` backward.
    /// GELU's rebuilt `g` is left in `ctx.a`'s place: the context keeps
    /// the buffer until the block's backward ends. Freeing the pieces'
    /// buffers one by one let the allocator return pages to the system
    /// and fault them in again on the next step (about 1,000 minor faults
    /// per step on the `fpdt_long` configuration, none when kept).
    fn backward(
        &self,
        x: &Tensor,
        ctx: &mut MlpCtx,
        dy: &Tensor,
        grad: &mut [f32],
    ) -> ExecResult<Tensor> {
        Ok(match self {
            Mlp::Gelu { fc1, fc2 } => {
                let [g1, g2] = split_grad(grad, [fc1.param_count(), fc2.param_count()])?;
                // `dg` needs no `g`; one fused pass then gives both `g`
                // (for `fc2`'s weight gradient) and `da`.
                let dg = fc2.backward_dx(dy)?;
                let (g, da) = ops::gelu_fwd_bwd(std::mem::take(&mut ctx.a), dg)?;
                fc2.backward_params(&g, dy, g2)?;
                ctx.a = g;
                fc1.backward(x, &da, g1)?
            }
            Mlp::SwiGlu { gate, up, down } => {
                let lens = [gate.param_count(), up.param_count(), down.param_count()];
                let [g_gate, g_up, g_down] = split_grad(grad, lens)?;
                let u = ctx.u.as_ref().expect("SwiGLU saved `up` output");
                let s = ops::silu(&ctx.a);
                let dm = down.backward(&s.mul(u)?, dy, g_down)?;
                let du = dm.mul(&s)?;
                let ds = dm.mul(u)?;
                let da = ops::silu_bwd(&ctx.a, &ds)?;
                let mut dx = gate.backward(x, &da, g_gate)?;
                dx.add_assign(&up.backward(x, &du, g_up)?)?;
                dx
            }
        })
    }

    fn param_count(&self) -> usize {
        match self {
            Mlp::Gelu { fc1, fc2 } => fc1.param_count() + fc2.param_count(),
            Mlp::SwiGlu { gate, up, down } => {
                gate.param_count() + up.param_count() + down.param_count()
            }
        }
    }

    fn for_each_param(&mut self, f: &mut impl FnMut(&mut Tensor)) {
        match self {
            Mlp::Gelu { fc1, fc2 } => {
                visit_linear(fc1, f);
                visit_linear(fc2, f);
            }
            Mlp::SwiGlu { gate, up, down } => {
                visit_linear(gate, f);
                visit_linear(up, f);
                visit_linear(down, f);
            }
        }
    }
}

/// One Transformer block's parameters.
#[derive(Debug, Clone)]
pub struct Block {
    norm1: Norm,
    q_proj: Linear,
    kv_proj: Linear,
    out_proj: Linear,
    norm2: Norm,
    mlp: Mlp,
    heads: usize,
    kv_heads: usize,
}

/// What every block of one forward/backward pass shares: the RoPE table
/// of the pass's positions, the MLP chunk count (2x the attention chunks
/// per paper §5.4) and the span sink.
struct Pass<'a> {
    rope: &'a RopeTable,
    mlp_chunks: usize,
    rec: Option<&'a Recorder>,
}

/// Saved activations for one block's backward pass: the block input and
/// one context per attention chunk, each holding only what a matmul or the
/// attention made. The norm outputs, their statistics and the MLP
/// activation output are rebuilt in the backward, row-local and bit for
/// bit (DESIGN.md "What a block saves").
pub struct BlockCtx {
    /// The block input: `norm1`'s input, rebuilt into `n1` per chunk.
    x: Tensor,
    /// One per attention chunk, in row order; none when the forward's
    /// caller keeps no context.
    chunks: Vec<ChunkCtx>,
}

/// What one attention chunk's rows keep for the block's backward.
struct ChunkCtx {
    /// The chunk's local rows.
    rows: Range<usize>,
    /// The attention output as `out_proj` read it, `[rows, hidden]`; the
    /// backward hands it to the executor (as `[rows, heads, d]`) for the
    /// softmax row-dot.
    o: Tensor,
    /// The residual after attention: `norm2`'s input, rebuilt into `n2`.
    x1: Tensor,
    /// Each MLP piece's rows and saved activations, in row order.
    mlp: Vec<(Range<usize>, MlpCtx)>,
}

impl Block {
    fn new(cfg: &ModelConfig, init: &mut Init) -> Self {
        let h = cfg.hidden;
        let dh = cfg.head_dim();
        let bias = matches!(cfg.family, Family::Gpt);
        Block {
            norm1: Norm::new(cfg.family, h),
            q_proj: linear(h, cfg.heads * dh, bias, init),
            kv_proj: linear(h, 2 * cfg.kv_heads * dh, bias, init),
            out_proj: linear(cfg.heads * dh, h, bias, init),
            norm2: Norm::new(cfg.family, h),
            mlp: Mlp::new(cfg, init),
            heads: cfg.heads,
            kv_heads: cfg.kv_heads,
        }
    }

    /// Forward for `x: [s, hidden]` at the global positions the pass's
    /// RoPE table was built for; `x` moves into the returned context.
    ///
    /// The block streams over the attention's chunks: `norm1`, the QKV
    /// projections and RoPE run on each chunk's rows when the executor
    /// asks for them, and `out_proj`, the residual, `norm2` and the MLP on
    /// each output chunk as the executor hands it over. Every one of them
    /// is row-local, and the MLP pieces are the pass's MLP chunks cut at
    /// the attention chunks' bounds, so the bits are those of one
    /// whole-sequence pass. Each chunk's context is made as its output
    /// lands; without `keep` it is dropped there, and the returned context
    /// holds the input alone.
    fn forward(
        &self,
        layer: usize,
        x: Tensor,
        exec: &mut dyn AttentionExec,
        pass: &Pass<'_>,
        keep: bool,
    ) -> ExecResult<(Tensor, BlockCtx)> {
        let Pass {
            rope,
            mlp_chunks,
            rec,
        } = *pass;
        let s = x.shape()[0];
        let h = x.shape()[1];
        let dh = h / self.heads;
        let kvd = self.kv_heads * dh;
        // Each chunk's `n1` is dropped once its q/k/v are formed; the
        // backward rebuilds it.
        let mut qkv = |r: Range<usize>| -> ExecResult<[Tensor; 3]> {
            let (r0, c) = (r.start, r.len());
            let xc = rows(&x, r0, c)?;
            let (n1, _) = spanned(rec, "dense.norm", || self.norm1.forward(&xc))?;
            spanned(rec, "dense.qkv", || {
                let mut q = self.q_proj.forward(&n1)?;
                q.reshape_in_place(&[c, self.heads, dh])?;
                let kv = self.kv_proj.forward(&n1)?;
                let (mut k, mut v) = (kv.narrow(1, 0, kvd)?, kv.narrow(1, kvd, kvd)?);
                k.reshape_in_place(&[c, self.kv_heads, dh])?;
                v.reshape_in_place(&[c, self.kv_heads, dh])?;
                Ok([rope.apply_rows(r0, q)?, rope.apply_rows(r0, k)?, v])
            })
        };
        let mlp_ranges = chunk_ranges(s, mlp_chunks);
        let mut x2 = RowChunks::new(s);
        let mut chunks = Vec::new();
        exec.forward_chunks(layer, rope.positions(), &mut qkv, &mut |r0, o| {
            let c = o.shape()[0];
            let (o, x1) = spanned(rec, "dense.out_proj", || -> ExecResult<_> {
                let mut o = o;
                o.reshape_in_place(&[c, h])?;
                let mut x1 = self.out_proj.forward(&o)?;
                add_rows(&mut x1, &x, r0)?; // residual
                Ok((o, x1))
            })?;
            let (n2, _) = spanned(rec, "dense.norm", || self.norm2.forward(&x1))?;
            // Chunked MLP: token-wise, so chunking is exact.
            let mut mlp = Vec::new();
            spanned(rec, "dense.mlp.fwd", || -> ExecResult<_> {
                for r in pieces(&mlp_ranges, r0..r0 + c) {
                    let n2p = rows(&n2, r.start - r0, r.len())?;
                    let (mut m, ctx) = self.mlp.forward(&n2p)?;
                    add_rows(&mut m, &x1, r.start - r0)?; // residual
                    x2.push(r.start, m)?;
                    mlp.push((r, ctx));
                }
                Ok(())
            })?;
            if keep {
                let rows = r0..r0 + c;
                chunks.push(ChunkCtx { rows, o, x1, mlp });
            }
            Ok(())
        })?;
        Ok((x2.finish()?, BlockCtx { x, chunks }))
    }

    /// Backward for the block; adds its parameter gradients into `grad`
    /// (the block's stretch of the flat buffer) and returns `dx`.
    ///
    /// The block streams over the attention's chunks in both halves of
    /// its backward. When the executor asks for a chunk's `[o, dO]`, the
    /// chunk's MLP pieces, `norm2`'s backward and the residual (giving
    /// the chunk's `dx1`) and `out_proj`'s backward run on its rows; the
    /// executor has put the attention backward's first transfers on the
    /// copy stream before it first asks. When it hands over a chunk's
    /// `(dq, dk, dv)`, the RoPE, `kv_proj`/`q_proj` and `norm1` backward
    /// and the residual run on it, so `dx` leaves the block chunk by
    /// chunk. Each norm's output and statistics are rebuilt from its
    /// saved input rows (`n2` per chunk from its `x1`, `n1` per chunk from
    /// `x`), row-local, so their bits are the forward's. Every weight and
    /// bias gradient adds its rows in ascending order, one chain per
    /// element, so the bits are those of one whole-sequence call.
    fn backward(
        &self,
        layer: usize,
        ctx: BlockCtx,
        dx2: &Tensor,
        exec: &mut dyn AttentionExec,
        pass: &Pass<'_>,
        grad: &mut [f32],
    ) -> ExecResult<Tensor> {
        let Pass { rope, rec, .. } = *pass;
        let [g_norm1, g_q, g_kv, g_out, g_norm2, g_mlp] = split_grad(grad, self.param_lens())?;
        let s = dx2.shape()[0];
        let dh = dx2.shape()[1] / self.heads;
        let kvd = self.kv_heads * dh;
        let BlockCtx { x, mut chunks } = ctx;
        // Each chunk's `dx1`, by its first row, from its dense backward to
        // its gradient sink. It and the contexts are freed when the
        // block's backward returns.
        let dx1 = RefCell::new(BTreeMap::new());
        let mut dense = |r: Range<usize>| -> ExecResult<[Tensor; 2]> {
            let c = chunks.iter_mut().find(|c| c.rows == r);
            let c = c.ok_or_else(|| format!("no forward chunk holds rows {r:?}"))?;
            let n = r.len();
            // MLP backward, over the chunk's pieces.
            let (dn2, n2_ctx) = spanned(rec, "dense.mlp.bwd", || -> ExecResult<_> {
                let (n2, n2_ctx) = self.norm2.forward(&c.x1)?;
                let mut dn2 = RowChunks::new(n);
                for (p, mctx) in &mut c.mlp {
                    let at = p.start - r.start;
                    let (n2p, dmo) = (rows(&n2, at, p.len())?, rows(dx2, p.start, p.len())?);
                    dn2.push(at, self.mlp.backward(&n2p, mctx, &dmo, g_mlp)?)?;
                }
                Ok((dn2.finish()?, n2_ctx))
            })?;
            let dx1_c = spanned(rec, "dense.norm", || -> ExecResult<_> {
                let mut dx1 = self.norm2.backward(&c.x1, &n2_ctx, &dn2, g_norm2)?;
                add_rows(&mut dx1, dx2, r.start)?; // residual
                Ok(dx1)
            })?;
            let o_do = spanned(rec, "dense.out_proj", || -> ExecResult<_> {
                let mut do_heads = self.out_proj.backward(&c.o, &dx1_c, g_out)?;
                do_heads.reshape_in_place(&[n, self.heads, dh])?;
                let mut o = std::mem::take(&mut c.o);
                o.reshape_in_place(&[n, self.heads, dh])?;
                Ok([o, do_heads])
            })?;
            dx1.borrow_mut().insert(r.start, dx1_c);
            Ok(o_do)
        };
        let mut dx = RowChunks::new(s);
        exec.backward_chunks(layer, s, &mut dense, &mut |r0, [dq, dk, mut dv]| {
            let c = dq.shape()[0];
            let xc = rows(&x, r0, c)?;
            let (dn1, n1_ctx) = spanned(rec, "dense.qkv", || -> ExecResult<_> {
                let mut dq = rope.apply_bwd_rows(r0, dq)?;
                let mut dk = rope.apply_bwd_rows(r0, dk)?;
                dq.reshape_in_place(&[c, self.heads * dh])?;
                dk.reshape_in_place(&[c, kvd])?;
                dv.reshape_in_place(&[c, kvd])?;
                let dkv = Tensor::concat(&[&dk, &dv], 1)?;
                drop((dk, dv));
                let (n1, n1_ctx) = self.norm1.forward(&xc)?;
                let mut dn1 = self.kv_proj.backward(&n1, &dkv, g_kv)?;
                dn1.add_assign(&self.q_proj.backward(&n1, &dq, g_q)?)?;
                Ok((dn1, n1_ctx))
            })?;
            let dx1 = dx1.borrow();
            let dx1_c = dx1.get(&r0).ok_or("gradients before the dense backward")?;
            let dx_c = spanned(rec, "dense.norm", || -> ExecResult<_> {
                let mut dx_c = self.norm1.backward(&xc, &n1_ctx, &dn1, g_norm1)?;
                dx_c.add_assign(dx1_c)?; // residual
                Ok(dx_c)
            })?;
            dx.push(r0, dx_c)
        })?;
        dx.finish()
    }

    /// Parameter counts of the sub-layers, in [`Block::for_each_param`]
    /// order.
    fn param_lens(&self) -> [usize; 6] {
        [
            self.norm1.param_count(),
            self.q_proj.param_count(),
            self.kv_proj.param_count(),
            self.out_proj.param_count(),
            self.norm2.param_count(),
            self.mlp.param_count(),
        ]
    }

    fn for_each_param(&mut self, f: &mut impl FnMut(&mut Tensor)) {
        self.norm1.for_each_param(f);
        visit_linear(&mut self.q_proj, f);
        visit_linear(&mut self.kv_proj, f);
        visit_linear(&mut self.out_proj, f);
        self.norm2.for_each_param(f);
        self.mlp.for_each_param(f);
    }
}

fn chunk_ranges(s: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    let chunks = chunks.clamp(1, s.max(1));
    let base = s / chunks;
    let rem = s % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < rem);
        if len == 0 {
            continue;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// The pieces of `ranges` (a cut of the whole sequence) that fall inside
/// `within`, cut at its bounds, in ascending order.
fn pieces(ranges: &[Range<usize>], within: Range<usize>) -> Vec<Range<usize>> {
    ranges
        .iter()
        .map(|r| r.start.max(within.start)..r.end.min(within.end))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Rows `r0..r0 + n` of `t`: borrowed when they are all of it, else a copy.
fn rows(t: &Tensor, r0: usize, n: usize) -> ExecResult<Cow<'_, Tensor>> {
    Ok(if r0 == 0 && n == t.shape()[0] {
        Cow::Borrowed(t)
    } else {
        Cow::Owned(t.narrow(0, r0, n)?)
    })
}

/// Adds rows `r0..` of `src` into `dst`, element by element — the same
/// sums as `src.add(dst)` on those rows (float addition commutes).
fn add_rows(dst: &mut Tensor, src: &Tensor, r0: usize) -> ExecResult<()> {
    let width = src.shape()[1..].iter().product::<usize>();
    let at = r0 * width;
    let part = src
        .data()
        .get(at..at + dst.numel())
        .filter(|_| dst.shape()[1..] == src.shape()[1..])
        .ok_or_else(|| {
            format!(
                "rows {r0}.. of {:?} do not fit {:?}",
                src.shape(),
                dst.shape()
            )
        })?;
    for (d, &x) in dst.data_mut().iter_mut().zip(part) {
        *d += x;
    }
    Ok(())
}

/// Loss statistics of one forward/backward pass over a local shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossStats {
    /// Sum of per-token negative log-likelihoods (not averaged).
    pub loss_sum: f32,
    /// Tokens that contributed.
    pub tokens: usize,
}

/// The full model (either family, selected by
/// [`ModelConfig::family`](fpdt_model::config::ModelConfig)).
pub struct GptModel {
    cfg: ModelConfig,
    emb: Embedding,
    blocks: Vec<Block>,
    norm_f: Norm,
    head: Linear,
    /// Every parameter's gradient, flat, in [`GptModel::for_each_param`]
    /// order: the layers' `backward` calls add into slices of it.
    grads: Vec<f32>,
    recorder: Option<Recorder>,
    /// RoPE angles of the last positions seen. A rank's positions never
    /// change, so after the first step this is a lookup.
    rope: Option<RopeTable>,
}

impl GptModel {
    /// Builds a model with reproducible initialization: two ranks created
    /// with the same `(cfg, seed)` hold identical parameters.
    pub fn new(cfg: &ModelConfig, seed: u64) -> Self {
        Self::build(cfg, Some(init::seeded_rng(seed)))
    }

    /// Shapes a model around an existing flat parameter vector
    /// ([`GptModel::collect_params`] order) without running the
    /// initialiser: what a `Trainer`'s rank sessions build their replicas
    /// with.
    ///
    /// # Panics
    ///
    /// Panics if `flat` does not match the architecture's parameter count.
    pub fn from_params(cfg: &ModelConfig, flat: &[f32]) -> Self {
        let mut model = Self::build(cfg, None);
        model.set_params(flat);
        model
    }

    fn build(cfg: &ModelConfig, mut init: Init) -> Self {
        let blocks: Vec<Block> = (0..cfg.layers)
            .map(|_| Block::new(cfg, &mut init))
            .collect();
        let mut model = GptModel {
            cfg: cfg.clone(),
            emb: match &mut init {
                Some(rng) => Embedding::new(cfg.vocab, cfg.hidden, rng),
                None => Embedding::zeros(cfg.vocab, cfg.hidden),
            },
            blocks,
            norm_f: Norm::new(cfg.family, cfg.hidden),
            head: linear(cfg.hidden, cfg.vocab, false, &mut init),
            grads: Vec::new(),
            recorder: None,
            rope: None,
        };
        model.grads = vec![0.0; model.grad_lens().iter().sum()];
        model
    }

    /// Lengths of the flat buffer's four stretches: embedding, all blocks,
    /// final norm, head.
    fn grad_lens(&self) -> [usize; 4] {
        [
            self.emb.param_count(),
            self.blocks
                .iter()
                .map(|b| b.param_lens().iter().sum::<usize>())
                .sum(),
            self.norm_f.param_count(),
            self.head.param_count(),
        ]
    }

    /// The RoPE table for `pos`: the cached one while the positions
    /// compare equal, a fresh one otherwise. Taken out of `self` for the
    /// pass (the blocks borrow `self` mutably) and stored back at its end.
    fn rope_for(&mut self, pos: &[usize]) -> ExecResult<RopeTable> {
        match self.rope.take() {
            Some(table) if table.positions() == pos => Ok(table),
            _ => Ok(RopeTable::new(pos, self.cfg.head_dim(), ROPE_BASE)?),
        }
    }

    /// The chunked loss head (paper §5.4) over the final hidden state:
    /// summed loss, contributing tokens, and `d loss / d xf`.
    fn loss_head(
        head: &Linear,
        g_head: &mut [f32],
        xf: &Tensor,
        targets: &[usize],
        loss_chunks: usize,
    ) -> ExecResult<(LossStats, Tensor)> {
        let mut stats = LossStats {
            loss_sum: 0.0,
            tokens: 0,
        };
        let mut dxf = RowChunks::new(targets.len());
        for r in chunk_ranges(targets.len(), loss_chunks) {
            let xc = rows(xf, r.start, r.len())?;
            let logits = head.forward(&xc)?;
            let out = ops::cross_entropy(&logits, &targets[r.clone()], IGNORE_INDEX)?;
            stats.loss_sum += out.loss_sum;
            stats.tokens += out.tokens;
            dxf.push(r.start, head.backward(&xc, &out.dlogits, g_head)?)?;
        }
        Ok((stats, dxf.finish()?))
    }

    /// Attaches a span recorder: each block's forward and backward record
    /// `block.fwd` / `block.bwd` compute spans, which mark the rank threads
    /// of a trace (the links' virtual tracks record none), and the
    /// dense operations inside and around them record `dense.*`,
    /// `head.loss` and `embed`, one span per block-level operation.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Runs forward and backward over a local token shard, adding the
    /// parameter gradients of the **summed** loss into the gradient buffer
    /// (the optimizer step scales by `1/total_tokens`, after any gradient
    /// all-reduce).
    ///
    /// `pos[t]` is the global position of local token `t` (both RoPE and
    /// causal masking use it); `mlp_chunks`/`loss_chunks` control the
    /// §5.4 chunking.
    ///
    /// # Errors
    ///
    /// Propagates shape or communication errors from the layers/executor.
    pub fn forward_backward(
        &mut self,
        exec: &mut dyn AttentionExec,
        tokens: &[usize],
        targets: &[usize],
        pos: &[usize],
        mlp_chunks: usize,
        loss_chunks: usize,
    ) -> ExecResult<LossStats> {
        self.pass(exec, tokens, targets, pos, (mlp_chunks, loss_chunks), false)
    }

    /// Like [`GptModel::forward_backward`] but with **activation
    /// checkpointing** (the paper's "AC."): the forward keeps only each
    /// block's input hidden state and discards everything else —
    /// including the attention executor's cached chunks — then the
    /// backward re-runs each block's forward (collectives included)
    /// before differentiating it. Numerically identical to the
    /// non-checkpointed path; costs one extra forward.
    ///
    /// # Errors
    ///
    /// Propagates shape or communication errors from the layers/executor.
    pub fn forward_backward_checkpointed(
        &mut self,
        exec: &mut dyn AttentionExec,
        tokens: &[usize],
        targets: &[usize],
        pos: &[usize],
        mlp_chunks: usize,
        loss_chunks: usize,
    ) -> ExecResult<LossStats> {
        self.pass(exec, tokens, targets, pos, (mlp_chunks, loss_chunks), true)
    }

    /// One forward and backward. With `checkpointed` the forward keeps only
    /// each block's input; the backward re-runs the block's forward from it
    /// (in the real system this is where chunks stream back out to host
    /// memory again).
    fn pass(
        &mut self,
        exec: &mut dyn AttentionExec,
        tokens: &[usize],
        targets: &[usize],
        pos: &[usize],
        (mlp_chunks, loss_chunks): (usize, usize),
        checkpointed: bool,
    ) -> ExecResult<LossStats> {
        let s = tokens.len();
        if targets.len() != s || pos.len() != s {
            return Err(format!(
                "tokens/targets/pos length mismatch: {s}/{}/{}",
                targets.len(),
                pos.len()
            )
            .into());
        }
        let rec = self.recorder.clone();
        let rec = rec.as_ref();
        let rope = self.rope_for(pos)?;
        let pass = Pass {
            rope: &rope,
            mlp_chunks,
            rec,
        };
        let lens = self.grad_lens();
        let [g_emb, g_blocks, g_norm_f, g_head] = split_grad(&mut self.grads, lens)?;
        let g_blocks = g_blocks.chunks_mut((lens[1] / self.blocks.len().max(1)).max(1));
        // ---- forward ----
        let mut x = spanned(rec, "embed", || self.emb.forward(tokens))?;
        // per block: `Ok(context)`, or `Err(input)` to recompute it from
        // (moved out of the context the forward built)
        let mut saved = Vec::with_capacity(self.blocks.len());
        for (layer, block) in self.blocks.iter().enumerate() {
            let _s = rec.map(|r| r.span("block.fwd"));
            let (nx, ctx) = block.forward(layer, x, exec, &pass, !checkpointed)?;
            x = nx;
            saved.push(if checkpointed {
                exec.discard(layer);
                Err(ctx.x)
            } else {
                Ok(ctx)
            });
        }
        let (xf, nf_ctx) = spanned(rec, "dense.norm", || self.norm_f.forward(&x))?;
        let (stats, dxf) = spanned(rec, "head.loss", || {
            Self::loss_head(&self.head, g_head, &xf, targets, loss_chunks)
        })?;

        // ---- backward ----
        let mut dx = spanned(rec, "dense.norm", || {
            self.norm_f.backward(&x, &nf_ctx, &dxf, g_norm_f)
        })?;
        // dead from here on: three hidden rows the blocks' backward would
        // otherwise carry
        drop((x, xf, nf_ctx, dxf));
        for ((layer, block), grad) in self.blocks.iter().enumerate().zip(g_blocks).rev() {
            let ctx = match saved.pop().expect("one entry per block") {
                Ok(ctx) => ctx,
                Err(x_in) => {
                    let _s = rec.map(|r| r.span("block.fwd"));
                    block.forward(layer, x_in, exec, &pass, true)?.1
                }
            };
            let _s = rec.map(|r| r.span("block.bwd"));
            dx = block.backward(layer, ctx, &dx, exec, &pass, grad)?;
        }
        spanned(rec, "embed", || self.emb.backward(tokens, &dx, g_emb))?;
        self.rope = Some(rope);
        Ok(stats)
    }

    /// Clears the gradient buffer.
    pub fn zero_grad(&mut self) {
        self.grads.fill(0.0);
    }

    /// Visits every parameter tensor in a fixed order — the *flat order*
    /// of [`GptModel::collect_params`], the gradient buffer, the optimizer
    /// moments and the checkpoint shards.
    pub fn for_each_param(&mut self, mut f: impl FnMut(&mut Tensor)) {
        f(&mut self.emb.weight);
        for b in &mut self.blocks {
            b.for_each_param(&mut f);
        }
        self.norm_f.for_each_param(&mut f);
        f(&mut self.head.weight);
    }

    /// The gradient buffer: every parameter's gradient of the summed loss
    /// since the last [`GptModel::zero_grad`], in flat order.
    pub fn grads(&self) -> &[f32] {
        &self.grads
    }

    /// The gradient buffer, writable: the gradient all-reduce sums into it
    /// in place.
    pub fn grads_mut(&mut self) -> &mut [f32] {
        &mut self.grads
    }

    /// A copy of the gradient buffer (tests and examples; the training
    /// step reads [`GptModel::grads`] in place).
    pub fn collect_grads(&self) -> Vec<f32> {
        self.grads.clone()
    }

    /// Flattens all parameters (flat order) — used by session export,
    /// checkpoints, the ZeRO-1 sharded optimizer path and tests that copy
    /// weights between replicas.
    pub fn collect_params(&mut self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.for_each_param(|p| out.extend_from_slice(p.data()));
        out
    }

    /// Writes back a flat parameter vector (inverse of
    /// [`GptModel::collect_params`]).
    ///
    /// # Panics
    ///
    /// Panics if `flat` does not match the parameter count.
    pub fn set_params(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.param_count(), "parameter length mismatch");
        let mut off = 0usize;
        self.for_each_param(|p| {
            let n = p.numel();
            p.data_mut().copy_from_slice(&flat[off..off + n]);
            off += n;
        });
    }

    /// Overwrites the gradient buffer with `flat * scale` (tests and
    /// examples that reduce gradients by hand).
    ///
    /// # Panics
    ///
    /// Panics if `flat` does not match the parameter count.
    pub fn set_grads(&mut self, flat: &[f32], scale: f32) {
        assert_eq!(flat.len(), self.grads.len(), "gradient length mismatch");
        for (g, &x) in self.grads.iter_mut().zip(flat) {
            *g = x * scale;
        }
    }

    /// Applies one AdamW update to every parameter, reading each gradient
    /// as `g * grad_scale` (the `1/tokens` normalization of the summed
    /// loss) straight out of the buffer, which is left as it was.
    pub fn optimizer_step(&mut self, opt: &mut AdamW, grad_scale: f32) {
        opt.begin_step();
        let grads = std::mem::take(&mut self.grads);
        let mut off = 0usize;
        self.for_each_param(|p| {
            let n = p.numel();
            opt.update_scaled(off, p.data_mut(), &grads[off..off + n], grad_scale);
            off += n;
        });
        self.grads = grads;
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.grads.len()
    }

    /// The parameter count a model built from `cfg` would have, from the
    /// shapes alone — nothing is allocated, so a configuration read from a
    /// file can be checked against the vectors that came with it. `None`
    /// when `heads` is zero or the count overflows.
    pub fn param_count_of(cfg: &ModelConfig) -> Option<usize> {
        let gpt = matches!(cfg.family, Family::Gpt);
        // the block's projections carry a bias exactly when the family is GPT
        let linear = |i: usize, o: usize| i.checked_mul(o)?.checked_add(if gpt { o } else { 0 });
        let (h, f) = (cfg.hidden, cfg.ffn_hidden);
        let dh = h.checked_div(cfg.heads)?;
        let q_dim = cfg.heads.checked_mul(dh)?;
        let kv_dim = cfg.kv_heads.checked_mul(dh)?.checked_mul(2)?;
        let norm = h.checked_mul(if gpt { 2 } else { 1 });
        // fc1, or gate and up
        let mlp_in = linear(h, f)?.checked_mul(if gpt { 1 } else { 2 });
        let block = [
            norm,
            linear(h, q_dim),
            linear(h, kv_dim),
            linear(q_dim, h),
            norm,
            mlp_in,
            linear(f, h),
        ]
        .iter()
        .try_fold(0usize, |acc, part| acc.checked_add((*part)?))?;
        // embedding table and head, neither biased
        let tables = cfg.vocab.checked_mul(h)?.checked_mul(2)?;
        block
            .checked_mul(cfg.layers)?
            .checked_add(norm?)?
            .checked_add(tables)
    }

    /// Greedy next-token prediction for a prompt (used by examples).
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn greedy_next(
        &mut self,
        exec: &mut dyn AttentionExec,
        prompt: &[usize],
    ) -> ExecResult<usize> {
        let s = prompt.len();
        let pos: Vec<usize> = (0..s).collect();
        let rope = RopeTable::new(&pos, self.cfg.head_dim(), ROPE_BASE)?;
        let xf = self.forward_only(exec, prompt, &rope)?;
        let last = xf.narrow(0, s - 1, 1)?;
        let logits = self.head.forward(&last)?;
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in logits.data().iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        Ok(best)
    }

    /// The final-norm output for `tokens` at the positions `rope` was built
    /// for, with no backward state kept: each block's executor state is
    /// discarded after its forward, and its context dropped.
    fn forward_only(
        &self,
        exec: &mut dyn AttentionExec,
        tokens: &[usize],
        rope: &RopeTable,
    ) -> ExecResult<Tensor> {
        let pass = Pass {
            rope,
            mlp_chunks: 1,
            rec: None,
        };
        let mut x = self.emb.forward(tokens)?;
        for (layer, block) in self.blocks.iter().enumerate() {
            let (nx, _) = block.forward(layer, x, exec, &pass, false)?;
            exec.discard(layer);
            x = nx;
        }
        Ok(self.norm_f.forward(&x)?.0)
    }

    /// Mean loss over `batches` freshly sampled sequences — the evaluation
    /// loop. A forward-only pass: the gradient buffer is never touched, and
    /// each batch's loss has the bits [`GptModel::forward_backward`] with
    /// one MLP and one loss chunk would report.
    ///
    /// # Errors
    ///
    /// Propagates shape or communication errors.
    pub fn evaluate(
        &mut self,
        exec: &mut dyn AttentionExec,
        corpus: &mut crate::runtime::data::Corpus,
        seq: usize,
        batches: usize,
    ) -> ExecResult<f32> {
        let pos: Vec<usize> = (0..seq).collect();
        let rope = self.rope_for(&pos)?;
        let mut loss = 0.0f32;
        let mut toks = 0usize;
        for _ in 0..batches {
            let (x, y) = corpus.sample(seq);
            let logits = self.head.forward(&self.forward_only(exec, &x, &rope)?)?;
            let out = ops::cross_entropy(&logits, &y, IGNORE_INDEX)?;
            loss += out.loss_sum;
            toks += out.tokens;
        }
        self.rope = Some(rope);
        Ok(loss / toks.max(1) as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::data::Corpus;
    use crate::runtime::exec::LocalAttention;
    use fpdt_tensor::nn::AdamWConfig;

    fn tiny() -> ModelConfig {
        ModelConfig::tiny(2, 32, 4, 50)
    }

    fn tiny_llama() -> ModelConfig {
        ModelConfig::tiny_llama(2, 32, 4, 2, 50)
    }

    #[test]
    fn loss_starts_near_uniform_entropy() {
        for cfg in [tiny(), tiny_llama()] {
            let mut model = GptModel::new(&cfg, 0);
            let mut exec = LocalAttention::new(1);
            let (x, y) = Corpus::new(cfg.vocab, 0.1, 0).sample(32);
            let pos: Vec<usize> = (0..32).collect();
            let stats = model
                .forward_backward(&mut exec, &x, &y, &pos, 1, 1)
                .unwrap();
            let mean = stats.loss_sum / stats.tokens as f32;
            let uniform = (cfg.vocab as f32).ln();
            assert!(
                (mean - uniform).abs() < 1.0,
                "{}: initial loss {mean} vs uniform {uniform}",
                cfg.name
            );
        }
    }

    #[test]
    fn training_reduces_loss_both_families() {
        for cfg in [tiny(), tiny_llama()] {
            let mut model = GptModel::new(&cfg, 1);
            let mut exec = LocalAttention::new(2);
            let mut opt = AdamW::new(AdamWConfig {
                lr: 3e-3,
                ..Default::default()
            });
            let mut corpus = Corpus::new(cfg.vocab, 0.05, 1);
            let pos: Vec<usize> = (0..64).collect();
            let mut first = 0.0;
            let mut last = 0.0;
            for step in 0..30 {
                let (x, y) = corpus.sample(64);
                model.zero_grad();
                let stats = model
                    .forward_backward(&mut exec, &x, &y, &pos, 2, 2)
                    .unwrap();
                let loss = stats.loss_sum / stats.tokens as f32;
                model.optimizer_step(&mut opt, 1.0 / stats.tokens as f32);
                if step == 0 {
                    first = loss;
                }
                last = loss;
            }
            assert!(last < first * 0.7, "{}: loss {first} -> {last}", cfg.name);
        }
    }

    #[test]
    fn chunked_execution_matches_monolithic_exactly_in_loss() {
        // MLP chunking, loss chunking and attention chunking are exact:
        // same seed, same data -> same losses within float tolerance.
        for cfg in [tiny(), tiny_llama()] {
            let (x, y) = Corpus::new(cfg.vocab, 0.1, 3).sample(48);
            let pos: Vec<usize> = (0..48).collect();

            let run = |attn_chunks: usize, mlp_chunks: usize, loss_chunks: usize| {
                let mut model = GptModel::new(&cfg, 7);
                let mut exec = LocalAttention::new(attn_chunks);
                model.zero_grad();
                let stats = model
                    .forward_backward(&mut exec, &x, &y, &pos, mlp_chunks, loss_chunks)
                    .unwrap();
                let grads = model.collect_grads();
                (stats.loss_sum, grads)
            };
            let (l1, g1) = run(1, 1, 1);
            let (l2, g2) = run(4, 8, 6);
            assert!(
                (l1 - l2).abs() < 1e-3 * l1.abs(),
                "{}: {l1} vs {l2}",
                cfg.name
            );
            let max_diff = g1
                .iter()
                .zip(&g2)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(max_diff < 1e-2, "{}: max grad diff {max_diff}", cfg.name);
        }
    }

    #[test]
    fn flat_buffer_holds_each_tensors_gradient_at_its_for_each_param_offset() {
        // Walk the parameters in `for_each_param` order; in each tensor's
        // stretch of the flat buffer take the largest entry and check it
        // against a central difference on the parameter element at the
        // same position. A stretch laid out anywhere else would pair it
        // with some other parameter's derivative.
        for cfg in [
            ModelConfig::tiny(1, 16, 2, 20),
            ModelConfig::tiny_llama(1, 16, 2, 1, 20),
        ] {
            let (x, y) = Corpus::new(cfg.vocab, 0.2, 4).sample(8);
            let pos: Vec<usize> = (0..8).collect();
            let mut model = GptModel::new(&cfg, 11);
            let mut exec = LocalAttention::new(1);
            model
                .forward_backward(&mut exec, &x, &y, &pos, 1, 1)
                .unwrap();
            let grads = model.collect_grads();
            let base = model.collect_params();
            assert_eq!(grads.len(), base.len());
            let mut lens = Vec::new();
            model.for_each_param(|p| lens.push(p.numel()));
            assert_eq!(lens.iter().sum::<usize>(), grads.len());
            let loss_at = |params: &[f32]| {
                GptModel::from_params(&cfg, params)
                    .forward_backward(&mut LocalAttention::new(1), &x, &y, &pos, 1, 1)
                    .unwrap()
                    .loss_sum
            };
            let eps = 3e-2f32;
            let mut off = 0;
            for len in lens {
                let probe = (off..off + len)
                    .max_by(|&a, &b| grads[a].abs().total_cmp(&grads[b].abs()))
                    .expect("no empty tensors");
                let mut bumped = base.clone();
                bumped[probe] = base[probe] + eps;
                let fp = loss_at(&bumped);
                bumped[probe] = base[probe] - eps;
                let fm = loss_at(&bumped);
                let fd = (fp - fm) / (2.0 * eps);
                let got = grads[probe];
                assert!(
                    (fd - got).abs() < 0.05 + 0.15 * fd.abs().max(got.abs()),
                    "{} tensor at {off}, element {probe}: fd {fd} vs analytic {got}",
                    cfg.name
                );
                off += len;
            }
        }
    }

    #[test]
    fn backward_accumulates_until_zero_grad_and_helpers_copy() {
        let cfg = tiny_llama();
        let (x, y) = Corpus::new(cfg.vocab, 0.1, 6).sample(16);
        let pos: Vec<usize> = (0..16).collect();
        let mut model = GptModel::new(&cfg, 2);
        let mut exec = LocalAttention::new(2);
        let mut run = |model: &mut GptModel| {
            model
                .forward_backward(&mut exec, &x, &y, &pos, 2, 2)
                .unwrap();
        };
        run(&mut model);
        let once = model.collect_grads();
        assert_eq!(model.param_count(), once.len());
        run(&mut model);
        for (twice, g) in model.grads().iter().zip(&once) {
            assert!(
                (twice - 2.0 * g).abs() <= 1e-5 * (1.0 + g.abs()),
                "{twice} vs 2 x {g}"
            );
        }
        model.set_grads(&once, 0.5);
        let halves: Vec<f32> = once.iter().map(|g| g * 0.5).collect();
        assert_eq!(model.grads(), &halves[..]);
        model.zero_grad();
        assert!(model.grads().iter().all(|g| *g == 0.0));
    }

    /// The per-call rotation [`RopeTable`] replaced: `powf` and `sin_cos`
    /// for every (token, head, pair), the sign folded into the angle.
    fn rope_per_call(x: &Tensor, positions: &[usize], sign: f32) -> Tensor {
        let (h, d) = (x.shape()[1], x.shape()[2]);
        let mut out = x.clone();
        for (t, &pos) in positions.iter().enumerate() {
            for head in 0..h {
                let row = &mut out.data_mut()[(t * h + head) * d..][..d];
                for i in 0..d / 2 {
                    let inv_freq = ROPE_BASE.powf(-2.0 * i as f32 / d as f32);
                    let (sin, cos) = (sign * pos as f32 * inv_freq).sin_cos();
                    let (a, b) = (row[2 * i], row[2 * i + 1]);
                    row[2 * i] = a * cos - b * sin;
                    row[2 * i + 1] = a * sin + b * cos;
                }
            }
        }
        out
    }

    #[test]
    fn rope_table_matches_the_per_call_formula_on_shuffled_positions() {
        // FPDT's rank-ordinal shuffle: rank 1 of 2 with 4 chunks holds
        // positions 8..16, 24..32, ... — not an arithmetic progression.
        let plan = crate::chunk::ChunkPlan::new(64, 2, 4).unwrap();
        let pos = plan.local_positions(1);
        let table = RopeTable::new(&pos, 8, ROPE_BASE).unwrap();
        let mut rng = init::seeded_rng(3);
        // q has 4 heads, k (GQA) 2; dq/dk arrive with the same shapes
        for heads in [4usize, 2] {
            let x = init::randn(&mut rng, &[pos.len(), heads, 8], 1.0);
            let bits = |t: Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(table.apply_rows(0, x.clone()).unwrap()),
                bits(rope_per_call(&x, &pos, 1.0)),
                "forward, {heads} heads"
            );
            assert_eq!(
                bits(table.apply_bwd_rows(0, x.clone()).unwrap()),
                bits(rope_per_call(&x, &pos, -1.0)),
                "backward, {heads} heads"
            );
        }
    }

    #[test]
    fn from_params_is_the_seeded_model_without_the_initialiser() {
        for cfg in [tiny(), tiny_llama()] {
            let mut seeded = GptModel::new(&cfg, 13);
            let mut shaped = GptModel::from_params(&cfg, &seeded.collect_params());
            assert_eq!(shaped.collect_params(), seeded.collect_params());
            let (x, y) = Corpus::new(cfg.vocab, 0.1, 2).sample(32);
            let pos: Vec<usize> = (0..32).collect();
            let run = |model: &mut GptModel| {
                let mut exec = LocalAttention::new(2);
                let stats = model
                    .forward_backward(&mut exec, &x, &y, &pos, 2, 2)
                    .unwrap();
                (stats.loss_sum.to_bits(), model.collect_grads())
            };
            assert_eq!(run(&mut seeded), run(&mut shaped), "{}", cfg.name);
        }
    }

    #[test]
    fn param_count_matches_config_accounting() {
        // GPT: config ties embeddings, runtime unties -> +vocab*hidden.
        let cfg = tiny();
        let model = GptModel::new(&cfg, 0);
        assert_eq!(
            model.param_count() as u64,
            cfg.param_count() + (cfg.vocab * cfg.hidden) as u64
        );
        // Llama: config is already untied -> exact match.
        let cfg = tiny_llama();
        let model = GptModel::new(&cfg, 0);
        assert_eq!(model.param_count() as u64, cfg.param_count());
    }

    #[test]
    fn param_count_of_is_the_built_models_count_and_never_panics() {
        // hidden not a multiple of heads: the projections narrow to
        // heads * (hidden / heads)
        let mut ragged = ModelConfig::tiny_llama(1, 20, 3, 1, 12);
        ragged.ffn_hidden = 7;
        for cfg in [tiny(), tiny_llama(), ragged] {
            let mut model = GptModel::new(&cfg, 0);
            assert_eq!(GptModel::param_count_of(&cfg), Some(model.param_count()));
            assert_eq!(model.collect_params().len(), model.param_count());
        }
        let mut no_heads = tiny();
        no_heads.heads = 0;
        assert_eq!(GptModel::param_count_of(&no_heads), None);
        let mut huge = tiny();
        huge.vocab = usize::MAX / 2;
        assert_eq!(GptModel::param_count_of(&huge), None);
    }

    #[test]
    fn gqa_runtime_trains() {
        // 4 query heads sharing 2 KV heads, end to end.
        let cfg = tiny_llama();
        let mut model = GptModel::new(&cfg, 5);
        let mut exec = LocalAttention::new(4);
        let (x, y) = Corpus::new(cfg.vocab, 0.1, 5).sample(32);
        let pos: Vec<usize> = (0..32).collect();
        let stats = model
            .forward_backward(&mut exec, &x, &y, &pos, 2, 2)
            .unwrap();
        assert!(stats.loss_sum.is_finite());
        assert!(model.collect_grads().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn greedy_next_returns_in_vocab() {
        let cfg = tiny();
        let mut model = GptModel::new(&cfg, 5);
        let mut exec = LocalAttention::new(1);
        let next = model.greedy_next(&mut exec, &[1, 2, 3]).unwrap();
        assert!(next < cfg.vocab);
    }
}

#[cfg(test)]
mod eval_tests {
    use super::*;
    use crate::runtime::data::Corpus;
    use crate::runtime::exec::LocalAttention;
    use fpdt_tensor::nn::AdamWConfig;

    #[test]
    fn evaluate_gives_back_the_callers_gradients_bit_for_bit() {
        // Mid-window: gradients accumulated and not yet stepped.
        let cfg = ModelConfig::tiny_llama(2, 32, 4, 2, 50);
        let (x, y) = Corpus::new(cfg.vocab, 0.1, 8).sample(16);
        let pos: Vec<usize> = (0..16).collect();
        let mut model = GptModel::new(&cfg, 3);
        let mut exec = LocalAttention::new(2);
        model
            .forward_backward(&mut exec, &x, &y, &pos, 2, 2)
            .unwrap();
        let bits = |g: &[f32]| g.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let held = bits(model.grads());
        assert!(held.iter().any(|&b| b != 0));
        model
            .evaluate(&mut exec, &mut Corpus::new(cfg.vocab, 0.1, 9), 16, 2)
            .unwrap();
        assert_eq!(bits(model.grads()), held);
    }

    #[test]
    fn evaluate_reports_the_training_passs_loss_bits() {
        for cfg in [
            ModelConfig::tiny(2, 32, 4, 50),
            ModelConfig::tiny_llama(2, 32, 4, 2, 50),
        ] {
            let mut model = GptModel::new(&cfg, 4);
            let mut exec = LocalAttention::new(2);
            let got = model
                .evaluate(&mut exec, &mut Corpus::new(cfg.vocab, 0.1, 10), 16, 3)
                .unwrap();
            let mut corpus = Corpus::new(cfg.vocab, 0.1, 10);
            let pos: Vec<usize> = (0..16).collect();
            let (mut loss, mut toks) = (0.0f32, 0usize);
            for _ in 0..3 {
                let (x, y) = corpus.sample(16);
                let stats = model
                    .forward_backward(&mut exec, &x, &y, &pos, 1, 1)
                    .unwrap();
                loss += stats.loss_sum;
                toks += stats.tokens;
            }
            let want = loss / toks as f32;
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{}: {got} vs {want}",
                cfg.name
            );
        }
    }

    #[test]
    fn evaluate_leaves_gradients_clean_and_tracks_learning() {
        let cfg = ModelConfig::tiny(1, 32, 4, 40);
        let mut model = GptModel::new(&cfg, 2);
        let mut exec = LocalAttention::new(1);
        let mut eval_corpus = Corpus::new(cfg.vocab, 0.05, 777);
        let before = model.evaluate(&mut exec, &mut eval_corpus, 32, 3).unwrap();
        assert!(
            model.grads().iter().all(|&g| g == 0.0),
            "evaluation must not leak gradients"
        );

        let mut opt = AdamW::new(AdamWConfig {
            lr: 3e-3,
            ..Default::default()
        });
        let mut corpus = Corpus::new(cfg.vocab, 0.05, 2);
        let pos: Vec<usize> = (0..64).collect();
        for _ in 0..25 {
            let (x, y) = corpus.sample(64);
            model.zero_grad();
            let s = model
                .forward_backward(&mut exec, &x, &y, &pos, 1, 1)
                .unwrap();
            model.optimizer_step(&mut opt, 1.0 / s.tokens as f32);
        }
        let mut eval_corpus = Corpus::new(cfg.vocab, 0.05, 777);
        let after = model.evaluate(&mut exec, &mut eval_corpus, 32, 3).unwrap();
        assert!(after < before, "eval loss improves: {before} -> {after}");
    }
}
