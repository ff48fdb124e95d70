//! Blockwise online-softmax attention (the FlashAttention-2 recurrence)
//! with a carried state that survives arbitrary KV-block arrival order in
//! *value*, not just in schedule — the property FPDT's host-offloaded chunk
//! pipeline depends on.
//!
//! Forward: an [`OnlineAttention`] accumulator holds `(acc, m, l)` per
//! query row and head. Each [`OnlineAttention::update`] folds one KV block
//! in with the rescaling recurrence; [`OnlineAttention::finalize`] emits
//! the output and the per-row log-sum-exp needed by the backward pass.
//!
//! Backward: [`attention_block_bwd`] computes one `(Q-block, KV-block)`
//! tile of the gradient from the saved `lse` and the row dot
//! `D = rowsum(dO ⊙ O)` ([`rowwise_dot`]), accumulating into `dq`, `dk`,
//! `dv`. FPDT's nested KV-outer/Q-inner loop (paper Figure 7) is a
//! particular iteration order over these tiles.
//!
//! Both kernels are blocked matrix–matrix code over fixed-size score
//! blocks. A parallel item owns `BW` consecutive rows of one operand
//! (query rows in the forward, key rows in the backward's `dk`/`dv`
//! phase), packs that *resident* operand transposed once per head, and
//! streams the other operand past it `BD` rows at a time. Each step forms
//! a `[BD, BW]` score block — streamed row × resident column — with
//! [`mk::gemm_panel`] reading the `[s, h, d]` layout in place, runs the
//! block softmax ([`mk::softmax_fold`] / [`mk::softmax_bwd`]) and feeds the
//! result back through `gemm_panel` as a transposed A operand. The causal
//! mask is decided per block from the position ranges: fully visible
//! blocks take no mask branch, fully masked blocks are skipped, only
//! straddling blocks test per element.
//!
//! The backward is one sweep: it walks the tile in macro-tiles of at most
//! `MQ` x `MK` rows, and in each forms every visible score block once
//! (phase A, which owns `dk`/`dv` and keeps `dS`), then reads the kept `dS`
//! back as a plain gemm operand for `dq` (phase B, one item per `BW`
//! query rows). Five gemm-shaped products and one `exp` per score.
//!
//! Determinism: the `BW`-row partitions are fixed by the shape, every
//! output element has one owner item in each phase, and each element
//! accumulates in one shape-determined order — bitwise identical at any
//! thread count and on either microkernel backend.

use crate::{check_qkv, shd, Result, Tensor, TensorError};
use fpdt_tensor::mk::{self, Panel};
use fpdt_tensor::par;
use std::ops::Range;
use std::sync::Arc;

/// Rows of the resident operand per parallel item, and the width of a
/// score block. A multiple of 32 keeps every block op on full vectors.
const BW: usize = 32;
/// Rows of the streamed operand per score block.
const BD: usize = 64;
/// Query rows of a backward macro-tile (a whole number of `BD` blocks).
const MQ: usize = 256;
/// Key rows of a backward macro-tile (a whole number of `BW` blocks).
const MK: usize = 256;

/// Floats of `dS` [`attention_block_bwd`] keeps between the two phases of
/// one macro-tile, laid out `[kv block][head][query row][BW]`:
/// `MQ · MK · h`, 256 KiB per local head, the same request for a 256x256
/// FPDT tile and a 2048x2048 Ulysses tile.
///
/// The size must not follow `sq`/`sk`. The buffer lives in
/// `par::with_scratch`'s thread-local pool on rank threads that every
/// `run_steps` call re-spawns, so each glibc arena ends up keeping one:
/// sized by `sk` (2 MiB on the Ulysses tile) the repo benchmark's
/// `ulysses_long` read `peak_rss_mb` 55.3 / 56.4 / 59.0 against the
/// two-pass kernel's 45.7 / 43.5 / 49.1 (+23%; the benchmark's bound is
/// 15%), and 49.0 / 49.3 / 47.8 with the fixed macro-tile in the same
/// session (medians over ten benchmark pairs: 48.7 against 48.1).
fn retained_len(h: usize) -> usize {
    MQ * MK * h
}

// A `BD`-row query block never crosses a strip, nor a `BW`-row key block a
// KV macro-block.
const _: () = assert!(MQ.is_multiple_of(BD) && MK.is_multiple_of(BW));

/// How much of a score block the causal mask lets through.
#[derive(Clone, Copy, PartialEq)]
enum Visibility {
    Full,
    Partial,
    Masked,
}

/// `(min, max)` of a non-empty position range.
fn span(pos: &[usize]) -> (usize, usize) {
    pos.iter()
        .fold((usize::MAX, 0), |(lo, hi), &p| (lo.min(p), hi.max(p)))
}

/// Position span of every `BD`-row streamed block.
fn stream_spans(pos: &[usize]) -> Vec<(usize, usize)> {
    pos.chunks(BD).map(span).collect()
}

/// Query `a` sees key `b` iff `kv_pos[b] <= q_pos[a]`; lifted to spans.
fn visibility(q: (usize, usize), kv: (usize, usize)) -> Visibility {
    if kv.1 <= q.0 {
        Visibility::Full
    } else if kv.0 > q.1 {
        Visibility::Masked
    } else {
        Visibility::Partial
    }
}

/// One head of an interleaved `[s, h, d]` buffer: row `r` is
/// `data[r * stride + off ..][..d]`.
#[derive(Clone, Copy)]
struct Head<'a> {
    data: &'a [f32],
    stride: usize,
    off: usize,
    d: usize,
}

impl<'a> Head<'a> {
    fn of(data: &'a [f32], heads: usize, head: usize, d: usize) -> Self {
        Head {
            data,
            stride: heads * d,
            off: head * d,
            d,
        }
    }
}

/// Packs `rows` consecutive rows of `src` starting at `r0`, times `scale`,
/// transposed into `dst: [d, BW]`. Columns past `rows` keep the zeros the
/// scratch buffer starts with.
fn pack_t(dst: &mut [f32], src: Head<'_>, r0: usize, rows: usize, scale: f32) {
    for r in 0..rows {
        let row = &src.data[(r0 + r) * src.stride + src.off..][..src.d];
        for (i, &x) in row.iter().enumerate() {
            dst[i * BW + r] = x * scale;
        }
    }
}

/// Copies one head's per-row statistic, `src[(r0 + i) * h + head]`, into
/// `dst[i]`.
fn gather_head(dst: &mut [f32], src: &[f32], r0: usize, h: usize, head: usize) {
    for (i, x) in dst.iter_mut().enumerate() {
        *x = src[(r0 + i) * h + head];
    }
}

/// Writes `-inf` over the masked scores of a straddling block
/// `s: [row_pos.len(), BW]`; `masked(row_pos, col_pos)` is the causal test
/// in the block's orientation.
fn mask_block(
    s: &mut [f32],
    row_pos: &[usize],
    col_pos: &[usize],
    masked: impl Fn(usize, usize) -> bool,
) {
    for (s_row, &rp) in s.chunks_mut(BW).zip(row_pos) {
        for (x, &cp) in s_row.iter_mut().zip(col_pos) {
            if masked(rp, cp) {
                *x = f32::NEG_INFINITY;
            }
        }
    }
}

/// The `[bd, BW]` score block of `bd = c.len() / BW` streamed rows of
/// `src` (from row `r0`) against a packed transposed resident operand
/// `bt: [d, BW]`.
fn score_block(c: &mut [f32], src: Head<'_>, r0: usize, bt: &[f32]) {
    c.fill(0.0);
    mk::gemm_panel(
        &Panel {
            a: src.data,
            a_off: r0 * src.stride + src.off,
            a_stride: src.stride,
            a_lstride: 1,
            bp: bt,
            b_stride: BW,
            b_col0: 0,
            kc: src.d,
            nc: BW,
            rows: c.len() / BW,
            c_stride: BW,
            c_col0: 0,
        },
        c,
    );
}

/// `c[r, c_off..][..d] += Σ_l block[l, r] · src[r0 + l]` for the first
/// `rows` columns `r` of a `[bd, BW]` block: the block enters as a
/// transposed A operand, `src` rows are read in place.
fn fold_block(
    c: &mut [f32],
    c_stride: usize,
    c_off: usize,
    rows: usize,
    block: &[f32],
    src: Head<'_>,
    r0: usize,
) {
    mk::gemm_panel(
        &Panel {
            a: block,
            a_off: 0,
            a_stride: 1,
            a_lstride: BW,
            bp: src.data,
            b_stride: src.stride,
            b_col0: r0 * src.stride + src.off,
            kc: block.len() / BW,
            nc: src.d,
            rows,
            c_stride,
            c_col0: c_off,
        },
        c,
    );
}

/// Log-sum-exp side output of the forward pass: one `f32` per
/// `(query row, head)`, flattened row-major `[sq * h]`.
pub type Lse = Vec<f32>;

/// Streaming attention accumulator for one query block.
///
/// # Example
///
/// ```
/// use fpdt_attention::{online::OnlineAttention, reference};
/// use fpdt_tensor::{init, Tensor};
/// # fn main() -> Result<(), fpdt_tensor::TensorError> {
/// let mut rng = init::seeded_rng(0);
/// let q = init::randn(&mut rng, &[4, 1, 8], 1.0);
/// let k = init::randn(&mut rng, &[4, 1, 8], 1.0);
/// let v = init::randn(&mut rng, &[4, 1, 8], 1.0);
///
/// let mut state = OnlineAttention::new(&q, &[0, 1, 2, 3], None)?;
/// state.update(&k.narrow(0, 0, 2)?, &v.narrow(0, 0, 2)?, &[0, 1])?;
/// state.update(&k.narrow(0, 2, 2)?, &v.narrow(0, 2, 2)?, &[2, 3])?;
/// let (o, _lse) = state.finalize();
///
/// let full = reference::causal_attention(&q, &k, &v)?;
/// assert!(o.allclose(&full, 1e-4, 1e-5));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OnlineAttention {
    q: Arc<Tensor>,
    q_pos: Vec<usize>,
    acc: Vec<f32>,
    m: Vec<f32>,
    l: Vec<f32>,
    scale: f32,
    h: usize,
    d: usize,
}

impl OnlineAttention {
    /// Starts an accumulator for query block `q: [sq, h, d]` whose rows sit
    /// at global positions `q_pos`. `scale` defaults to `1/sqrt(d)`.
    ///
    /// # Errors
    ///
    /// Returns a shape error unless `q` is rank 3 and
    /// `q_pos.len() == sq`.
    pub fn new(q: &Tensor, q_pos: &[usize], scale: Option<f32>) -> Result<Self> {
        Self::new_shared(Arc::new(q.clone()), q_pos, scale)
    }

    /// [`OnlineAttention::new`] for a query block that is already
    /// `Arc`-shared (e.g. resident in the host offload pool) — the
    /// accumulator holds the shared buffer instead of copying it.
    ///
    /// # Errors
    ///
    /// Same shape conditions as [`OnlineAttention::new`].
    pub fn new_shared(q: Arc<Tensor>, q_pos: &[usize], scale: Option<f32>) -> Result<Self> {
        let (sq, h, d) = shd(&q, "online_attention")?;
        if q_pos.len() != sq {
            return Err(TensorError::ShapeMismatch {
                op: "online_attention",
                lhs: vec![sq],
                rhs: vec![q_pos.len()],
            });
        }
        Ok(OnlineAttention {
            q,
            q_pos: q_pos.to_vec(),
            acc: vec![0.0; sq * h * d],
            m: vec![f32::NEG_INFINITY; sq * h],
            l: vec![0.0; sq * h],
            scale: scale.unwrap_or_else(|| crate::default_scale(d)),
            h,
            d,
        })
    }

    /// Number of query rows.
    pub fn rows(&self) -> usize {
        self.q_pos.len()
    }

    /// Folds one KV block into the state using the online-softmax
    /// recurrence. Blocks may arrive in any order; the final output is
    /// order-independent up to float reassociation.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `k`/`v` disagree with the query block's
    /// heads/head-dim or `kv_pos.len()` differs from the block length.
    pub fn update(&mut self, k: &Tensor, v: &Tensor, kv_pos: &[usize]) -> Result<()> {
        let (_, sk, h, hkv, d) = check_qkv(&self.q, k, v, "online_attention_update")?;
        if kv_pos.len() != sk {
            return Err(TensorError::ShapeMismatch {
                op: "online_attention_update",
                lhs: vec![sk],
                rhs: vec![kv_pos.len()],
            });
        }
        debug_assert_eq!(h, self.h);
        debug_assert_eq!(d, self.d);
        let ratio = h / hkv; // GQA: query heads per KV head
        let qd = self.q.data();
        let kd = k.data();
        let vd = v.data();
        let scale = self.scale;
        let q_pos = &self.q_pos;
        let hd = h * d;
        let sq = self.q_pos.len();
        let work = sq.saturating_mul(sk).saturating_mul(hd);
        let kv_spans = stream_spans(kv_pos);
        // One item per `BW` query rows: it owns those rows of acc/m/l for
        // every head and sweeps the KV block in ascending order.
        par::run_rows3(
            &mut self.acc,
            BW * hd,
            &mut self.m,
            BW * h,
            &mut self.l,
            BW * h,
            work,
            |blk, acc_b, m_b, l_b| {
                let a0 = blk * BW;
                let br = m_b.len() / h;
                let qp = &q_pos[a0..a0 + br];
                let q_span = span(qp);
                par::with_scratch(d * BW + BD * BW + 3 * BW, |buf| {
                    let (qt, buf) = buf.split_at_mut(d * BW);
                    let (s_buf, buf) = buf.split_at_mut(BD * BW);
                    let (m_loc, buf) = buf.split_at_mut(BW);
                    let (l_loc, corr) = buf.split_at_mut(BW);
                    for head in 0..h {
                        let kh = Head::of(kd, hkv, head / ratio, d);
                        let vh = Head::of(vd, hkv, head / ratio, d);
                        // The softmax scale rides on the packed queries.
                        pack_t(qt, Head::of(qd, h, head, d), a0, br, scale);
                        gather_head(&mut m_loc[..br], m_b, 0, h, head);
                        gather_head(&mut l_loc[..br], l_b, 0, h, head);
                        for (jb, &kv_span) in kv_spans.iter().enumerate() {
                            let vis = visibility(q_span, kv_span);
                            if vis == Visibility::Masked {
                                continue;
                            }
                            let b0 = jb * BD;
                            let bc = BD.min(sk - b0);
                            let s = &mut s_buf[..bc * BW];
                            score_block(s, kh, b0, qt);
                            if vis == Visibility::Partial {
                                mask_block(s, &kv_pos[b0..b0 + bc], qp, |kp, qp| kp > qp);
                            }
                            mk::softmax_fold(s, BW, m_loc, l_loc, corr);
                            mk::scale_rows(acc_b, hd, head * d, d, &corr[..br]);
                            fold_block(acc_b, hd, head * d, br, s, vh, b0);
                        }
                        for a in 0..br {
                            m_b[a * h + head] = m_loc[a];
                            l_b[a * h + head] = l_loc[a];
                        }
                    }
                });
            },
        );
        Ok(())
    }

    /// Finishes the accumulation: returns the attention output
    /// `[sq, h, d]` and the per-row/`head` log-sum-exp (`m + ln l`;
    /// `-inf` for rows that attended to nothing, whose output is zero).
    pub fn finalize(self) -> (Tensor, Lse) {
        let sq = self.q_pos.len();
        let (h, d) = (self.h, self.d);
        let mut out = self.acc;
        let mut lse = vec![f32::NEG_INFINITY; sq * h];
        let (lv, mv) = (&self.l, &self.m);
        par::run_rows2(&mut out, d, &mut lse, 1, sq * h * d, |item, o, lse_i| {
            let l = lv[item];
            let m = mv[item];
            if l > 0.0 {
                mk::dscale(o, l);
                lse_i[0] = m + l.ln();
            } else {
                o.fill(0.0);
            }
        });
        (
            Tensor::from_vec(out, &[sq, h, d]).expect("buffer sized by construction"),
            lse,
        )
    }
}

/// Computes `D[a, head] = sum_i dout[a, head, i] * o[a, head, i]`, the row
/// dot-product the blockwise backward needs once per query block.
///
/// # Errors
///
/// Returns a shape error unless `o` and `dout` are identical rank-3 shapes.
pub fn rowwise_dot(o: &Tensor, dout: &Tensor) -> Result<Vec<f32>> {
    let (sq, h, d) = shd(o, "rowwise_dot")?;
    if o.shape() != dout.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "rowwise_dot",
            lhs: o.shape().to_vec(),
            rhs: dout.shape().to_vec(),
        });
    }
    let mut out = vec![0.0f32; sq * h];
    let (od, dod) = (o.data(), dout.data());
    par::run_rows(&mut out, 1, sq * h * d, |r, o_row| {
        let base = r * d;
        o_row[0] = mk::dot(&od[base..base + d], &dod[base..base + d]);
    });
    Ok(out)
}

/// The read-only operands of one [`attention_block_bwd`] call, shared by
/// every item of both phases of every macro-tile.
struct BwdTile<'a> {
    q: &'a [f32],
    k: &'a [f32],
    v: &'a [f32],
    dout: &'a [f32],
    lse: &'a [f32],
    dsum: &'a [f32],
    q_pos: &'a [usize],
    kv_pos: &'a [usize],
    /// Position span of every `BD`-row query block.
    q_spans: Vec<(usize, usize)>,
    /// Position span of every `BW`-row key block.
    kv_spans: Vec<(usize, usize)>,
    scale: f32,
    h: usize,
    hkv: usize,
    d: usize,
}

impl BwdTile<'_> {
    /// Phase A item: `dk`/`dv` of the `BW` key rows from `b0` against the
    /// query strip `strip` — resident `Kᵀ·scale`/`Vᵀ`, the group's query
    /// heads (ascending) and the strip's `BD`-row query blocks (ascending)
    /// streamed past. Score blocks are `[query row, key column]`; `dP`, then
    /// `dS`, is formed in place in `ds_b: [head][strip row][BW]`, the
    /// item's slice of the retained buffer.
    fn dkdv_item(
        &self,
        strip: Range<usize>,
        b0: usize,
        dk_b: &mut [f32],
        dv_b: &mut [f32],
        ds_b: &mut [f32],
    ) {
        let (h, hkv, d) = (self.h, self.hkv, self.d);
        let (ratio, hkvd) = (h / hkv, hkv * d);
        let bk = dk_b.len() / hkvd;
        let kp = &self.kv_pos[b0..b0 + bk];
        let kv_span = self.kv_spans[b0 / BW];
        par::with_scratch(2 * d * BW + BD * BW + 2 * BD, |buf| {
            let (kt, buf) = buf.split_at_mut(d * BW);
            let (vt, buf) = buf.split_at_mut(d * BW);
            let (s_buf, buf) = buf.split_at_mut(BD * BW);
            let (lse_loc, dsum_loc) = buf.split_at_mut(BD);
            for kvh in 0..hkv {
                pack_t(kt, Head::of(self.k, hkv, kvh, d), b0, bk, self.scale);
                pack_t(vt, Head::of(self.v, hkv, kvh, d), b0, bk, 1.0);
                for head in kvh * ratio..(kvh + 1) * ratio {
                    let qh = Head::of(self.q, h, head, d);
                    let doh = Head::of(self.dout, h, head, d);
                    for a0 in strip.clone().step_by(BD) {
                        let vis = visibility(self.q_spans[a0 / BD], kv_span);
                        if vis == Visibility::Masked {
                            continue;
                        }
                        let bq = BD.min(strip.end - a0);
                        gather_head(&mut lse_loc[..bq], self.lse, a0, h, head);
                        gather_head(&mut dsum_loc[..bq], self.dsum, a0, h, head);
                        let s = &mut s_buf[..bq * BW];
                        let ds = &mut ds_b[(head * MQ + a0 - strip.start) * BW..][..bq * BW];
                        score_block(s, qh, a0, kt);
                        score_block(ds, doh, a0, vt);
                        if vis == Visibility::Partial {
                            mask_block(s, &self.q_pos[a0..a0 + bq], kp, |qp, kp| kp > qp);
                        }
                        mk::softmax_bwd(s, ds, BW, lse_loc, dsum_loc, self.scale);
                        fold_block(dv_b, hkvd, kvh * d, bk, s, doh, a0);
                        fold_block(dk_b, hkvd, kvh * d, bk, ds, qh, a0);
                    }
                }
            }
        });
    }

    /// Phase B item: `dq` of the `BW` query rows from `a0` against the KV
    /// macro-block `cols`, reading each retained `dS` block back as a
    /// row-major A operand with `K` in place as the B panel, key blocks
    /// ascending. Skips exactly the blocks phase A skipped — the same test
    /// on the same spans — so a slice that was never written is never read.
    fn dq_item(&self, a0: usize, cols: Range<usize>, ds: &[f32], dq_b: &mut [f32]) {
        let (h, d) = (self.h, self.d);
        let (hd, hkvd) = (h * d, self.hkv * d);
        let q_span = self.q_spans[a0 / BD];
        for head in 0..h {
            for b0 in cols.clone().step_by(BW) {
                if visibility(q_span, self.kv_spans[b0 / BW]) == Visibility::Masked {
                    continue;
                }
                let blk = (b0 - cols.start) / BW;
                mk::gemm_panel(
                    &Panel {
                        a: ds,
                        // strips start at multiples of MQ
                        a_off: ((blk * h + head) * MQ + a0 % MQ) * BW,
                        a_stride: BW,
                        a_lstride: 1,
                        bp: self.k,
                        b_stride: hkvd,
                        b_col0: b0 * hkvd + head / (h / self.hkv) * d,
                        kc: BW.min(cols.end - b0),
                        nc: d,
                        rows: dq_b.len() / hd,
                        c_stride: hd,
                        c_col0: head * d,
                    },
                    dq_b,
                );
            }
        }
    }
}

/// Accumulates one `(Q-block, KV-block)` tile of the attention gradient.
///
/// Inputs are the forward operands of the tile plus the query block's saved
/// `lse` (from [`OnlineAttention::finalize`]) and `dsum` (from
/// [`rowwise_dot`] over the *finalized* output). Gradients are added into
/// `dq` (shape of `q`), `dk` and `dv` (shape of `k`).
///
/// Running this over all causally-visible tiles in any order reproduces the
/// reference gradient; FPDT's Figure-7 schedule iterates KV-outer/Q-inner
/// so `dk`/`dv` finalize per outer step and `dq` per inner sweep.
///
/// The tile is walked as macro-tiles of at most `MQ` x `MK` rows (query
/// strip outer, KV block inner, both ascending; a macro-tile wholly in the
/// queries' future is skipped), each in two single-owner phases that share
/// one bounded `dS` buffer (`MQ · MK` floats per head, whatever the tile's
/// shape), so every visible score is multiplied out and exponentiated once.
///
/// # Errors
///
/// Returns a shape error when any operand disagrees with the tile shape;
/// a gradient buffer is reported against the operand it must match.
#[expect(clippy::too_many_arguments, reason = "a tile's operands and gradients")]
pub fn attention_block_bwd(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    dout: &Tensor,
    lse: &[f32],
    dsum: &[f32],
    q_pos: &[usize],
    kv_pos: &[usize],
    scale: f32,
    dq: &mut Tensor,
    dk: &mut Tensor,
    dv: &mut Tensor,
) -> Result<()> {
    let (sq, sk, h, hkv, d) = check_qkv(q, k, v, "attention_block_bwd")?;
    for (lhs, rhs) in [(q, dout), (&*dq, q), (&*dk, k), (&*dv, v)] {
        if lhs.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "attention_block_bwd",
                lhs: lhs.shape().to_vec(),
                rhs: rhs.shape().to_vec(),
            });
        }
    }
    if lse.len() != sq * h || dsum.len() != sq * h || q_pos.len() != sq || kv_pos.len() != sk {
        return Err(TensorError::ShapeMismatch {
            op: "attention_block_bwd",
            lhs: vec![sq * h, sq, sk],
            rhs: vec![lse.len(), q_pos.len(), kv_pos.len()],
        });
    }
    let t = BwdTile {
        q: q.data(),
        k: k.data(),
        v: v.data(),
        dout: dout.data(),
        lse,
        dsum,
        q_pos,
        kv_pos,
        q_spans: stream_spans(q_pos),
        kv_spans: kv_pos.chunks(BW).map(span).collect(),
        scale,
        h,
        hkv,
        d,
    };
    let (hd, hkvd) = (h * d, hkv * d);
    let (dq, dk, dv) = (dq.data_mut(), dk.data_mut(), dv.data_mut());
    par::with_scratch(retained_len(h), |ds| {
        for q0 in (0..sq).step_by(MQ) {
            let q1 = sq.min(q0 + MQ);
            let strip_span = span(&q_pos[q0..q1]);
            for k0 in (0..sk).step_by(MK) {
                let k1 = sk.min(k0 + MK);
                if visibility(strip_span, span(&kv_pos[k0..k1])) == Visibility::Masked {
                    continue;
                }
                let work = (q1 - q0).saturating_mul(k1 - k0).saturating_mul(hd);
                // Phase A owns dk/dv rows and writes its slice of `ds`;
                // phase B owns dq rows and only reads `ds`.
                par::run_rows3(
                    &mut dk[k0 * hkvd..k1 * hkvd],
                    BW * hkvd,
                    &mut dv[k0 * hkvd..k1 * hkvd],
                    BW * hkvd,
                    ds,
                    h * MQ * BW,
                    work,
                    |blk, dk_b, dv_b, ds_b| t.dkdv_item(q0..q1, k0 + blk * BW, dk_b, dv_b, ds_b),
                );
                par::run_rows(&mut dq[q0 * hd..q1 * hd], BW * hd, work, |blk, dq_b| {
                    t.dq_item(q0 + blk * BW, k0..k1, ds, dq_b)
                });
            }
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use fpdt_tensor::init;

    fn rand_qkv(seed: u64, s: usize, h: usize, d: usize) -> (Tensor, Tensor, Tensor) {
        let mut rng = init::seeded_rng(seed);
        (
            init::randn(&mut rng, &[s, h, d], 1.0),
            init::randn(&mut rng, &[s, h, d], 1.0),
            init::randn(&mut rng, &[s, h, d], 1.0),
        )
    }

    #[test]
    fn single_block_matches_reference() {
        let (q, k, v) = rand_qkv(0, 12, 2, 8);
        let pos: Vec<usize> = (0..12).collect();
        let mut st = OnlineAttention::new(&q, &pos, None).unwrap();
        st.update(&k, &v, &pos).unwrap();
        let (o, lse) = st.finalize();
        let want = reference::causal_attention(&q, &k, &v).unwrap();
        assert!(o.allclose(&want, 1e-4, 1e-5));
        assert!(lse.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn multi_block_matches_reference() {
        let (q, k, v) = rand_qkv(1, 16, 2, 4);
        let pos: Vec<usize> = (0..16).collect();
        let mut st = OnlineAttention::new(&q, &pos, None).unwrap();
        for c in 0..4 {
            let kc = k.narrow(0, c * 4, 4).unwrap();
            let vc = v.narrow(0, c * 4, 4).unwrap();
            st.update(&kc, &vc, &pos[c * 4..(c + 1) * 4]).unwrap();
        }
        let (o, _) = st.finalize();
        let want = reference::causal_attention(&q, &k, &v).unwrap();
        assert!(o.allclose(&want, 1e-4, 1e-5));
    }

    #[test]
    fn block_arrival_order_is_irrelevant() {
        let (q, k, v) = rand_qkv(2, 12, 1, 4);
        let pos: Vec<usize> = (0..12).collect();
        let run = |order: &[usize]| {
            let mut st = OnlineAttention::new(&q, &pos, None).unwrap();
            for &c in order {
                let kc = k.narrow(0, c * 4, 4).unwrap();
                let vc = v.narrow(0, c * 4, 4).unwrap();
                st.update(&kc, &vc, &pos[c * 4..(c + 1) * 4]).unwrap();
            }
            st.finalize().0
        };
        let fwd = run(&[0, 1, 2]);
        let rev = run(&[2, 1, 0]);
        assert!(fwd.allclose(&rev, 1e-4, 1e-5));
    }

    #[test]
    fn query_chunk_in_middle_of_sequence() {
        // A query chunk at positions 8..12 attending over the whole prefix,
        // exactly like FPDT's chunk T_m.
        let (qfull, k, v) = rand_qkv(3, 16, 2, 4);
        let pos: Vec<usize> = (0..16).collect();
        let q = qfull.narrow(0, 8, 4).unwrap();
        let mut st = OnlineAttention::new(&q, &pos[8..12], None).unwrap();
        for c in 0..4 {
            let kc = k.narrow(0, c * 4, 4).unwrap();
            let vc = v.narrow(0, c * 4, 4).unwrap();
            st.update(&kc, &vc, &pos[c * 4..(c + 1) * 4]).unwrap();
        }
        let (o, _) = st.finalize();
        let full = reference::causal_attention(&qfull, &k, &v).unwrap();
        let want = full.narrow(0, 8, 4).unwrap();
        assert!(o.allclose(&want, 1e-4, 1e-5));
    }

    #[test]
    fn unseen_rows_have_zero_output_and_neg_inf_lse() {
        let (q, k, v) = rand_qkv(4, 4, 1, 4);
        // KV chunk strictly in the future of every query.
        let mut st = OnlineAttention::new(&q, &[0, 1, 2, 3], None).unwrap();
        st.update(&k, &v, &[10, 11, 12, 13]).unwrap();
        let (o, lse) = st.finalize();
        assert_eq!(o.max_abs(), 0.0);
        assert!(lse.iter().all(|x| *x == f32::NEG_INFINITY));
    }

    #[test]
    fn blockwise_backward_matches_reference() {
        let (q, k, v) = rand_qkv(5, 12, 2, 4);
        let mut rng = init::seeded_rng(6);
        let dout = init::randn(&mut rng, &[12, 2, 4], 1.0);
        let pos: Vec<usize> = (0..12).collect();
        let scale = crate::default_scale(4);

        // forward to get o and lse
        let mut st = OnlineAttention::new(&q, &pos, None).unwrap();
        st.update(&k, &v, &pos).unwrap();
        let (o, lse) = st.finalize();
        let dsum = rowwise_dot(&o, &dout).unwrap();

        // tile the backward 3x3 in arbitrary order
        let mut dq = Tensor::zeros(q.shape());
        let mut dk = Tensor::zeros(k.shape());
        let mut dv = Tensor::zeros(v.shape());
        for &jb in &[2usize, 0, 1] {
            for &ia in &[1usize, 2, 0] {
                let qs = q.narrow(0, ia * 4, 4).unwrap();
                let dos = dout.narrow(0, ia * 4, 4).unwrap();
                let ks = k.narrow(0, jb * 4, 4).unwrap();
                let vs = v.narrow(0, jb * 4, 4).unwrap();
                let mut dq_t = Tensor::zeros(qs.shape());
                let mut dk_t = Tensor::zeros(ks.shape());
                let mut dv_t = Tensor::zeros(vs.shape());
                attention_block_bwd(
                    &qs,
                    &ks,
                    &vs,
                    &dos,
                    &lse[ia * 4 * 2..(ia + 1) * 4 * 2],
                    &dsum[ia * 4 * 2..(ia + 1) * 4 * 2],
                    &pos[ia * 4..(ia + 1) * 4],
                    &pos[jb * 4..(jb + 1) * 4],
                    scale,
                    &mut dq_t,
                    &mut dk_t,
                    &mut dv_t,
                )
                .unwrap();
                // scatter-add tile results
                for (i, val) in dq_t.data().iter().enumerate() {
                    dq.data_mut()[ia * 4 * 8 + i] += val;
                }
                for (i, val) in dk_t.data().iter().enumerate() {
                    dk.data_mut()[jb * 4 * 8 + i] += val;
                }
                for (i, val) in dv_t.data().iter().enumerate() {
                    dv.data_mut()[jb * 4 * 8 + i] += val;
                }
            }
        }

        let (rdq, rdk, rdv) = reference::causal_attention_bwd(&q, &k, &v, &dout).unwrap();
        assert!(dq.allclose(&rdq, 1e-3, 1e-4), "dq mismatch");
        assert!(dk.allclose(&rdk, 1e-3, 1e-4), "dk mismatch");
        assert!(dv.allclose(&rdv, 1e-3, 1e-4), "dv mismatch");
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// `(acc, m, l)` of query row `a`, as bits.
    fn row_state(st: &OnlineAttention, a: usize) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let (h, hd) = (st.h, st.h * st.d);
        (
            bits(&st.acc[a * hd..(a + 1) * hd]),
            bits(&st.m[a * h..(a + 1) * h]),
            bits(&st.l[a * h..(a + 1) * h]),
        )
    }

    #[test]
    fn row_without_visible_key_stays_empty_in_a_straddling_block() {
        // Keys at 2..6: queries at 0 and 1 see nothing while queries at 2
        // and 3 do, so the block is neither skipped nor fully visible.
        let (q, k, v) = rand_qkv(10, 4, 2, 8);
        let mut st = OnlineAttention::new(&q, &[0, 1, 2, 3], None).unwrap();
        st.update(&k, &v, &[2, 3, 4, 5]).unwrap();
        for a in 0..2 {
            let (acc, m, l) = row_state(&st, a);
            assert!(acc.iter().all(|&b| b == 0), "row {a}: acc stays +0.0");
            assert_eq!(m, bits(&[f32::NEG_INFINITY; 2]), "row {a}: m stays -inf");
            assert_eq!(l, vec![0; 2], "row {a}: l stays +0.0");
        }
        let all = [&st.acc[..], &st.m, &st.l].concat();
        assert!(all.iter().all(|x| !x.is_nan()), "no (-inf) - (-inf) NaN");
        assert!(
            st.l[2 * 2..].iter().all(|&l| l > 0.0),
            "rows 2, 3 did attend"
        );
        let (o, lse) = st.finalize();
        assert_eq!(o.narrow(0, 0, 2).unwrap().max_abs(), 0.0);
        assert!(lse[..4].iter().all(|&x| x == f32::NEG_INFINITY));
        assert!(lse[4..].iter().all(|x| x.is_finite()));
    }

    #[test]
    fn masked_block_leaves_earlier_state_bit_for_bit() {
        let (q, k, v) = rand_qkv(11, 4, 2, 8);
        let q_pos = [10, 11, 12, 13];
        let mut st = OnlineAttention::new(&q, &q_pos, None).unwrap();
        st.update(&k, &v, &[0, 1, 2, 3]).unwrap();
        let before: Vec<_> = (0..4).map(|a| row_state(&st, a)).collect();

        // A straddling block: rows at 10 and 11 see none of its keys.
        let (_, k2, v2) = rand_qkv(12, 4, 2, 8);
        st.update(&k2, &v2, &[12, 13, 14, 15]).unwrap();
        assert_eq!(row_state(&st, 0), before[0]);
        assert_eq!(row_state(&st, 1), before[1]);
        assert_ne!(row_state(&st, 2), before[2], "row at 12 folded key 12 in");

        // A block entirely in the future is skipped without touching anything.
        let mid: Vec<_> = (0..4).map(|a| row_state(&st, a)).collect();
        st.update(&k2, &v2, &[20, 21, 22, 23]).unwrap();
        assert_eq!((0..4).map(|a| row_state(&st, a)).collect::<Vec<_>>(), mid);
    }

    #[test]
    fn masked_keys_contribute_exactly_nothing() {
        // Whatever sits in the masked K/V rows — here values large enough
        // that any leaked probability would show — the result is the same
        // bits as with ordinary values there.
        let (q, k, v) = rand_qkv(13, 6, 1, 8);
        let q_pos = [0, 1, 2, 3, 4, 5];
        let run = |k: &Tensor, v: &Tensor| {
            let mut st = OnlineAttention::new(&q, &q_pos, None).unwrap();
            st.update(k, v, &[0, 1, 2, 7, 8, 9]).unwrap();
            let (o, lse) = st.finalize();
            (bits(o.data()), bits(&lse))
        };
        let (mut k_big, mut v_big) = (k.clone(), v.clone());
        k_big.data_mut()[3 * 8..].fill(1e18);
        v_big.data_mut()[3 * 8..].fill(-1e30);
        assert_eq!(run(&k, &v), run(&k_big, &v_big));
    }

    /// `attention_block_bwd` into gradients that start at `fill`.
    #[expect(
        clippy::too_many_arguments,
        reason = "attention_block_bwd's arguments plus the fill"
    )]
    fn bwd_from(
        fill: f32,
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        dout: &Tensor,
        lse: &[f32],
        dsum: &[f32],
        q_pos: &[usize],
        kv_pos: &[usize],
    ) -> [Tensor; 3] {
        let mut dq = Tensor::full(q.shape(), fill);
        let mut dk = Tensor::full(k.shape(), fill);
        let mut dv = Tensor::full(v.shape(), fill);
        let scale = crate::default_scale(q.shape()[2]);
        attention_block_bwd(
            q, k, v, dout, lse, dsum, q_pos, kv_pos, scale, &mut dq, &mut dk, &mut dv,
        )
        .unwrap();
        [dq, dk, dv]
    }

    #[test]
    fn retained_ds_is_bounded_by_the_head_count_alone() {
        for h in [1, 2, 8] {
            assert!(retained_len(h) <= 256 * 256 * h);
        }
    }

    #[test]
    fn keys_in_the_future_leave_every_gradient_bit_for_bit() {
        // 2 query strips x 3 KV macro-blocks, every one of them skipped.
        let (sq, sk, h, d) = (300, 520, 2, 8);
        let mut rng = init::seeded_rng(16);
        let q = init::randn(&mut rng, &[sq, h, d], 1.0);
        let k = init::randn(&mut rng, &[sk, h, d], 1.0);
        let v = init::randn(&mut rng, &[sk, h, d], 1.0);
        let dout = init::randn(&mut rng, &[sq, h, d], 1.0);
        let q_pos: Vec<usize> = (0..sq).collect();
        let kv_pos: Vec<usize> = (sq..sq + sk).collect();
        // Finite statistics: a score that was formed would move something.
        let lse = vec![0.0; sq * h];
        let dsum = vec![1.0; sq * h];
        for g in bwd_from(0.375, &q, &k, &v, &dout, &lse, &dsum, &q_pos, &kv_pos) {
            assert!(g.data().iter().all(|x| x.to_bits() == 0.375f32.to_bits()));
        }
    }

    /// Queries that precede every key have `lse = -inf` and zero output:
    /// they get no gradient, and `dk`/`dv` do not depend on what they hold.
    fn check_unseen_rows(seed: u64, h: usize, d: usize, q_pos: &[usize], kv_pos: &[usize]) {
        let (sq, sk) = (q_pos.len(), kv_pos.len());
        let mut rng = init::seeded_rng(seed);
        let q = init::randn(&mut rng, &[sq, h, d], 1.0);
        let k = init::randn(&mut rng, &[sk, h, d], 1.0);
        let v = init::randn(&mut rng, &[sk, h, d], 1.0);
        let dout = init::randn(&mut rng, &[sq, h, d], 1.0);
        let first_key = *kv_pos.iter().min().unwrap();
        let unseen: Vec<usize> = (0..sq).filter(|&a| q_pos[a] < first_key).collect();
        let mut st = OnlineAttention::new(&q, q_pos, None).unwrap();
        st.update(&k, &v, kv_pos).unwrap();
        let (o, lse) = st.finalize();
        let dsum = rowwise_dot(&o, &dout).unwrap();
        for &a in &unseen {
            assert!(lse[a * h..(a + 1) * h]
                .iter()
                .all(|&x| x == f32::NEG_INFINITY));
        }
        let [dq, dk, dv] = bwd_from(0.0, &q, &k, &v, &dout, &lse, &dsum, q_pos, kv_pos);
        for &a in &unseen {
            assert_eq!(
                dq.narrow(0, a, 1).unwrap().max_abs(),
                0.0,
                "no gradient into unseen row {a}"
            );
        }
        assert!(dq.max_abs() > 0.0);
        for g in [&dq, &dk, &dv] {
            assert!(g.data().iter().all(|x| x.is_finite()));
        }
        let (mut q2, mut dout2) = (q.clone(), dout.clone());
        for &a in &unseen {
            q2.data_mut()[a * h * d..(a + 1) * h * d].fill(3.0);
            dout2.data_mut()[a * h * d..(a + 1) * h * d].fill(-5.0);
        }
        let [_, dk2, dv2] = bwd_from(0.0, &q2, &k, &v, &dout2, &lse, &dsum, q_pos, kv_pos);
        assert_eq!(bits(dk.data()), bits(dk2.data()));
        assert_eq!(bits(dv.data()), bits(dv2.data()));
    }

    #[test]
    fn rows_with_neg_inf_lse_contribute_nothing_backward() {
        // Queries at 0 and 1 precede every key.
        check_unseen_rows(14, 2, 8, &[0, 1, 2, 3], &[2, 3, 4, 5]);
    }

    #[test]
    fn neg_inf_lse_rows_in_two_strips_contribute_nothing() {
        // Keys at 4..; the queries at positions 0..4 see none of them and
        // sit in both 256-row query strips (rows 1, 2 and 270, 299).
        let mut q_pos: Vec<usize> = (4..304).collect();
        for (p, row) in [1, 2, 270, 299].into_iter().enumerate() {
            q_pos[row] = p;
        }
        check_unseen_rows(17, 2, 8, &q_pos, &(4..294).collect::<Vec<_>>());
    }

    #[test]
    fn rowwise_dot_basics() {
        let o = Tensor::ones(&[2, 1, 3]);
        let dout = Tensor::full(&[2, 1, 3], 2.0);
        assert_eq!(rowwise_dot(&o, &dout).unwrap(), vec![6.0, 6.0]);
        assert!(rowwise_dot(&o, &Tensor::ones(&[2, 1, 4])).is_err());
    }

    #[test]
    fn constructor_errors() {
        let q = Tensor::zeros(&[4, 2, 8]);
        assert!(OnlineAttention::new(&q, &[0, 1], None).is_err());
        assert!(OnlineAttention::new(&Tensor::zeros(&[4, 2]), &[0; 4], None).is_err());
        let mut st = OnlineAttention::new(&q, &[0, 1, 2, 3], None).unwrap();
        assert_eq!(st.rows(), 4);
        let k = Tensor::zeros(&[4, 2, 8]);
        assert!(st.update(&k, &k, &[0, 1]).is_err());
        assert!(st.update(&Tensor::zeros(&[4, 1, 8]), &k, &[0; 4]).is_err());
    }

    #[test]
    fn backward_shape_errors_name_the_offending_pair() {
        let (q, k) = (Tensor::zeros(&[4, 2, 8]), Tensor::zeros(&[6, 1, 8]));
        let bad = Tensor::zeros(&[5, 2, 8]);
        let (stats, q_pos, kv_pos) = ([0.0; 8], [0; 4], [0; 6]);
        // which of (dout, dq, dk, dv) is wrong -> the (lhs, rhs) reported
        for (wrong, lhs, rhs) in [
            (0, q.shape(), bad.shape()),
            (1, bad.shape(), q.shape()),
            (2, bad.shape(), k.shape()),
            (3, bad.shape(), k.shape()),
        ] {
            let mut ops = [q.clone(), q.clone(), k.clone(), k.clone()];
            ops[wrong] = bad.clone();
            let [dout, mut dq, mut dk, mut dv] = ops;
            let err = attention_block_bwd(
                &q, &k, &k, &dout, &stats, &stats, &q_pos, &kv_pos, 1.0, &mut dq, &mut dk, &mut dv,
            )
            .unwrap_err();
            assert_eq!(
                err,
                TensorError::ShapeMismatch {
                    op: "attention_block_bwd",
                    lhs: lhs.to_vec(),
                    rhs: rhs.to_vec(),
                },
                "operand {wrong}"
            );
        }
    }
}
