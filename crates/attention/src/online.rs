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
//! blocks. A parallel item owns [`BW`] consecutive rows of one operand
//! (query rows in the forward and the `dq` pass, key rows in the `dk`/`dv`
//! pass), packs that *resident* operand transposed once per head, and
//! streams the other operand past it [`BD`] rows at a time. Each step forms
//! a `[BD, BW]` score block — streamed row × resident column — with
//! [`mk::gemm_panel`] reading the `[s, h, d]` layout in place, runs the
//! block softmax ([`mk::softmax_fold`] / [`mk::softmax_bwd`]) and feeds the
//! result back through `gemm_panel` as a transposed A operand. The causal
//! mask is decided per block from the position ranges: fully visible
//! blocks take no mask branch, fully masked blocks are skipped, only
//! straddling blocks test per element.
//!
//! Determinism: the `BW`-row partition is fixed, every output element has
//! one owner item, and each element accumulates in ascending (head,
//! streamed block, row) order — bitwise identical at any thread count and
//! on either microkernel backend.

use crate::{check_qkv, shd, Result, Tensor, TensorError};
use fpdt_tensor::mk::{self, Panel};
use fpdt_tensor::par;
use std::sync::Arc;

/// Rows of the resident operand per parallel item, and the width of a
/// score block. A multiple of 32 keeps every block op on full vectors.
const BW: usize = 32;
/// Rows of the streamed operand per score block.
const BD: usize = 64;

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
                par::dscale(o, l);
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
        o_row[0] = par::dot(&od[base..base + d], &dod[base..base + d]);
    });
    Ok(out)
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
/// # Errors
///
/// Returns a shape error when any operand disagrees with the tile shape.
#[allow(clippy::too_many_arguments)]
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
    if dout.shape() != q.shape()
        || dq.shape() != q.shape()
        || dk.shape() != k.shape()
        || dv.shape() != v.shape()
    {
        return Err(TensorError::ShapeMismatch {
            op: "attention_block_bwd",
            lhs: q.shape().to_vec(),
            rhs: dout.shape().to_vec(),
        });
    }
    if lse.len() != sq * h || dsum.len() != sq * h || q_pos.len() != sq || kv_pos.len() != sk {
        return Err(TensorError::ShapeMismatch {
            op: "attention_block_bwd",
            lhs: vec![sq * h, sq, sk],
            rhs: vec![lse.len(), q_pos.len(), kv_pos.len()],
        });
    }
    let ratio = h / hkv;
    let hd = h * d;
    let hkvd = hkv * d;
    let qd = q.data();
    let kd = k.data();
    let vd = v.data();
    let dod = dout.data();

    let work = sq.saturating_mul(sk).saturating_mul(hd);
    let scratch = 2 * d * BW + 2 * BD * BW + 2 * BW.max(BD);

    // Pass 1: dq — one item per `BW` query rows, resident Qᵀ/dOᵀ, KV
    // streamed ascending. Score blocks are [kv row, query column].
    let kv_spans = stream_spans(kv_pos);
    par::run_rows(dq.data_mut(), BW * hd, work, |blk, dq_b| {
        let a0 = blk * BW;
        let br = dq_b.len() / hd;
        let qp = &q_pos[a0..a0 + br];
        let q_span = span(qp);
        par::with_scratch(scratch, |buf| {
            let (qt, buf) = buf.split_at_mut(d * BW);
            let (dot, buf) = buf.split_at_mut(d * BW);
            let (s_buf, buf) = buf.split_at_mut(BD * BW);
            let (dp_buf, buf) = buf.split_at_mut(BD * BW);
            let (lse_loc, dsum_loc) = buf.split_at_mut(BW.max(BD));
            for head in 0..h {
                let kh = Head::of(kd, hkv, head / ratio, d);
                let vh = Head::of(vd, hkv, head / ratio, d);
                pack_t(qt, Head::of(qd, h, head, d), a0, br, scale);
                pack_t(dot, Head::of(dod, h, head, d), a0, br, 1.0);
                gather_head(&mut lse_loc[..br], lse, a0, h, head);
                gather_head(&mut dsum_loc[..br], dsum, a0, h, head);
                for (jb, &kv_span) in kv_spans.iter().enumerate() {
                    let vis = visibility(q_span, kv_span);
                    if vis == Visibility::Masked {
                        continue;
                    }
                    let b0 = jb * BD;
                    let bc = BD.min(sk - b0);
                    let s = &mut s_buf[..bc * BW];
                    let dp = &mut dp_buf[..bc * BW];
                    score_block(s, kh, b0, qt);
                    score_block(dp, vh, b0, dot);
                    if vis == Visibility::Partial {
                        mask_block(s, &kv_pos[b0..b0 + bc], qp, |kp, qp| kp > qp);
                    }
                    mk::softmax_bwd(s, dp, BW, lse_loc, dsum_loc, scale, false);
                    fold_block(dq_b, hd, head * d, br, dp, kh, b0);
                }
            }
        });
    });

    // Pass 2: dk/dv — one item per `BW` key rows, resident Kᵀ/Vᵀ, the
    // group's query heads (ascending) and query rows (ascending) streamed
    // past. Score blocks are [query row, key column]; P and dS are
    // recomputed rather than shared with pass 1 so that every gradient
    // element keeps a single owner.
    let q_spans = stream_spans(q_pos);
    par::run_rows2(
        dk.data_mut(),
        BW * hkvd,
        dv.data_mut(),
        BW * hkvd,
        work,
        |blk, dk_b, dv_b| {
            let b0 = blk * BW;
            let bk = dk_b.len() / hkvd;
            let kp = &kv_pos[b0..b0 + bk];
            let kv_span = span(kp);
            par::with_scratch(scratch, |buf| {
                let (kt, buf) = buf.split_at_mut(d * BW);
                let (vt, buf) = buf.split_at_mut(d * BW);
                let (s_buf, buf) = buf.split_at_mut(BD * BW);
                let (dp_buf, buf) = buf.split_at_mut(BD * BW);
                let (lse_loc, dsum_loc) = buf.split_at_mut(BW.max(BD));
                for kvh in 0..hkv {
                    pack_t(kt, Head::of(kd, hkv, kvh, d), b0, bk, scale);
                    pack_t(vt, Head::of(vd, hkv, kvh, d), b0, bk, 1.0);
                    for head in kvh * ratio..(kvh + 1) * ratio {
                        let qh = Head::of(qd, h, head, d);
                        let doh = Head::of(dod, h, head, d);
                        for (ib, &q_span) in q_spans.iter().enumerate() {
                            let vis = visibility(q_span, kv_span);
                            if vis == Visibility::Masked {
                                continue;
                            }
                            let a0 = ib * BD;
                            let bq = BD.min(sq - a0);
                            gather_head(&mut lse_loc[..bq], lse, a0, h, head);
                            gather_head(&mut dsum_loc[..bq], dsum, a0, h, head);
                            let s = &mut s_buf[..bq * BW];
                            let dp = &mut dp_buf[..bq * BW];
                            score_block(s, qh, a0, kt);
                            score_block(dp, doh, a0, vt);
                            if vis == Visibility::Partial {
                                mask_block(s, &q_pos[a0..a0 + bq], kp, |qp, kp| kp > qp);
                            }
                            mk::softmax_bwd(s, dp, BW, lse_loc, dsum_loc, scale, true);
                            fold_block(dv_b, hkvd, kvh * d, bk, s, doh, a0);
                            fold_block(dk_b, hkvd, kvh * d, bk, dp, qh, a0);
                        }
                    }
                }
            });
        },
    );
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

    #[test]
    fn rows_with_neg_inf_lse_contribute_nothing_backward() {
        // Queries at 0 and 1 precede every key: lse = -inf, output zero.
        let (q, k, v) = rand_qkv(14, 4, 2, 8);
        let mut rng = init::seeded_rng(15);
        let dout = init::randn(&mut rng, &[4, 2, 8], 1.0);
        let (q_pos, kv_pos) = ([0, 1, 2, 3], [2, 3, 4, 5]);
        let scale = crate::default_scale(8);
        let mut st = OnlineAttention::new(&q, &q_pos, None).unwrap();
        st.update(&k, &v, &kv_pos).unwrap();
        let (o, lse) = st.finalize();
        let dsum = rowwise_dot(&o, &dout).unwrap();
        let run = |q: &Tensor, dout: &Tensor| {
            let mut dq = Tensor::zeros(q.shape());
            let mut dk = Tensor::zeros(k.shape());
            let mut dv = Tensor::zeros(v.shape());
            attention_block_bwd(
                q, &k, &v, dout, &lse, &dsum, &q_pos, &kv_pos, scale, &mut dq, &mut dk, &mut dv,
            )
            .unwrap();
            (dq, dk, dv)
        };
        let (dq, dk, dv) = run(&q, &dout);
        assert_eq!(
            dq.narrow(0, 0, 2).unwrap().max_abs(),
            0.0,
            "no gradient into unseen rows"
        );
        assert!(dq.narrow(0, 2, 2).unwrap().max_abs() > 0.0);
        for g in [&dq, &dk, &dv] {
            assert!(g.data().iter().all(|x| x.is_finite()));
        }
        // dk/dv do not depend on what the unseen rows hold.
        let (mut q2, mut dout2) = (q.clone(), dout.clone());
        q2.data_mut()[..2 * 2 * 8].fill(3.0);
        dout2.data_mut()[..2 * 2 * 8].fill(-5.0);
        let (_, dk2, dv2) = run(&q2, &dout2);
        assert_eq!(bits(dk.data()), bits(dk2.data()));
        assert_eq!(bits(dv.data()), bits(dv2.data()));
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
}
