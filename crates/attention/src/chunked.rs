//! FPDT's chunked attention schedules, built from the [`crate::online`]
//! kernels.
//!
//! * Forward ([`causal_attention_chunked`]): for query chunk `T_i`, stream
//!   KV chunks `T_0..=T_i` through an [`OnlineAttention`] accumulator —
//!   chunk `T_0`'s output is final immediately (it attends to nothing
//!   later), later chunks rescale as earlier KV arrives from (in the real
//!   system) host memory.
//! * Backward ([`causal_attention_chunked_bwd`]): the paper's Figure-7
//!   nested loop — **outer over KV chunks, inner over query chunks** — so
//!   `dK_j`/`dV_j` are complete after one outer iteration and `dq_i` after
//!   its first inner sweep, which is what lets prefetch cover only the next
//!   query chunk.
//!
//! Both drivers also exist in `*_with_positions` form for FPDT's
//! rank-ordinal shuffled layout, where a chunk's rows are not globally
//! contiguous.

use crate::online::{attention_block_bwd, rowwise_dot, Lse, OnlineAttention};
use crate::{check_qkv, Result, Tensor, TensorError};

fn split_positions(pos: &[usize], chunks: usize) -> Vec<&[usize]> {
    let step = pos.len() / chunks;
    (0..chunks)
        .map(|c| &pos[c * step..(c + 1) * step])
        .collect()
}

fn check_chunking(s: usize, chunks: usize) -> Result<usize> {
    if chunks == 0 || !s.is_multiple_of(chunks) {
        return Err(TensorError::InvalidSlice {
            what: format!("sequence length {s} not divisible into {chunks} chunks"),
        });
    }
    Ok(s / chunks)
}

/// Chunked causal attention over contiguous positions `0..s`.
///
/// Returns the output `[s, h, d]` and the per-row log-sum-exp, which the
/// caller must retain for [`causal_attention_chunked_bwd`].
///
/// # Errors
///
/// Returns a shape error when operands disagree or `chunks` does not
/// divide the sequence length.
pub fn causal_attention_chunked(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    chunks: usize,
) -> Result<(Tensor, Lse)> {
    let (s, _, _, _, _) = check_qkv(q, k, v, "chunked_attention")?;
    let pos: Vec<usize> = (0..s).collect();
    attention_chunked_with_positions(q, k, v, &pos, chunks, None)
}

/// Chunked attention with explicit global positions (the shuffled FPDT
/// layout). Query chunk `i` streams over KV chunks `0..=i` only, so the
/// layout must satisfy the rank-ordinal invariant of paper Figure 6:
/// every position in chunk `j` is `<=` every position in chunk `i` for
/// `j < i` (within a chunk, any order is fine — the kernels mask per
/// element). The data-loader shuffle in `fpdt-core::chunk` produces
/// exactly this layout.
///
/// # Errors
///
/// Returns a shape error when operands disagree or `chunks` does not
/// divide the sequence length.
pub fn attention_chunked_with_positions(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    pos: &[usize],
    chunks: usize,
    scale: Option<f32>,
) -> Result<(Tensor, Lse)> {
    let (s, _, _, _, _) = check_qkv(q, k, v, "chunked_attention")?;
    if pos.len() != s {
        return Err(TensorError::ShapeMismatch {
            op: "chunked_attention",
            lhs: vec![s],
            rhs: vec![pos.len()],
        });
    }
    let step = check_chunking(s, chunks)?;
    let pos_chunks = split_positions(pos, chunks);
    let k_chunks = k.split(0, chunks)?;
    let v_chunks = v.split(0, chunks)?;
    let mut outs = Vec::with_capacity(chunks);
    let mut lse_all = Vec::with_capacity(s);
    for i in 0..chunks {
        let qi = q.narrow(0, i * step, step)?;
        let mut st = OnlineAttention::new(&qi, pos_chunks[i], scale)?;
        // Stream the visible prefix chunk by chunk — in the real pipeline
        // these arrive from host memory.
        for j in 0..=i {
            st.update(&k_chunks[j], &v_chunks[j], pos_chunks[j])?;
        }
        let (oi, lse_i) = st.finalize();
        outs.push(oi);
        lse_all.extend_from_slice(&lse_i);
    }
    let refs: Vec<&Tensor> = outs.iter().collect();
    Ok((Tensor::concat(&refs, 0)?, lse_all))
}

/// Gradient tensors produced by the chunked backward pass.
#[derive(Debug, Clone)]
pub struct ChunkedGrads {
    /// Gradient with respect to queries, `[s, h, d]`.
    pub dq: Tensor,
    /// Gradient with respect to keys, `[s, h, d]`.
    pub dk: Tensor,
    /// Gradient with respect to values, `[s, h, d]`.
    pub dv: Tensor,
}

/// Chunked backward over contiguous positions `0..s`, running the Figure-7
/// KV-outer/Q-inner nest.
///
/// # Errors
///
/// Returns a shape error when operands disagree or `chunks` does not
/// divide the sequence length.
pub fn causal_attention_chunked_bwd(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    o: &Tensor,
    dout: &Tensor,
    lse: &Lse,
    chunks: usize,
) -> Result<ChunkedGrads> {
    let (s, _, _, _, _) = check_qkv(q, k, v, "chunked_attention_bwd")?;
    let pos: Vec<usize> = (0..s).collect();
    attention_chunked_bwd_with_positions(q, k, v, o, dout, lse, &pos, chunks, None)
}

/// Position-explicit chunked backward (Figure 7 schedule).
///
/// The outer loop walks KV chunks `j`; the inner loop walks query chunks
/// `i >= j`. After the inner sweep for `j`, `dk[j]`/`dv[j]` are final and
/// can be shipped back through all-to-all while the next KV chunk loads —
/// the overlap this crate's simulator schedule models.
///
/// # Errors
///
/// Returns a shape error when operands disagree, the saved `lse` has the
/// wrong length, or `chunks` does not divide the sequence length.
#[allow(clippy::too_many_arguments)]
pub fn attention_chunked_bwd_with_positions(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    o: &Tensor,
    dout: &Tensor,
    lse: &Lse,
    pos: &[usize],
    chunks: usize,
    scale: Option<f32>,
) -> Result<ChunkedGrads> {
    let (s, _, h, hkv, d) = check_qkv(q, k, v, "chunked_attention_bwd")?;
    if o.shape() != q.shape() || dout.shape() != q.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "chunked_attention_bwd",
            lhs: q.shape().to_vec(),
            rhs: dout.shape().to_vec(),
        });
    }
    if lse.len() != s * h || pos.len() != s {
        return Err(TensorError::ShapeMismatch {
            op: "chunked_attention_bwd",
            lhs: vec![s * h, s],
            rhs: vec![lse.len(), pos.len()],
        });
    }
    let step = check_chunking(s, chunks)?;
    let scale = scale.unwrap_or_else(|| crate::default_scale(d));
    let pos_chunks = split_positions(pos, chunks);
    // D = rowsum(dout * o), computed once per query chunk.
    let dsum = rowwise_dot(o, dout)?;

    let mut dq = Tensor::zeros(q.shape());
    let mut dk = Tensor::zeros(k.shape());
    let mut dv = Tensor::zeros(v.shape());

    // Outer loop on KV chunks, inner on query chunks (paper Fig. 7).
    for j in 0..chunks {
        let kj = k.narrow(0, j * step, step)?;
        let vj = v.narrow(0, j * step, step)?;
        let mut dk_j = Tensor::zeros(kj.shape());
        let mut dv_j = Tensor::zeros(vj.shape());
        for i in j..chunks {
            let qi = q.narrow(0, i * step, step)?;
            let doi = dout.narrow(0, i * step, step)?;
            let mut dq_i = Tensor::zeros(qi.shape());
            attention_block_bwd(
                &qi,
                &kj,
                &vj,
                &doi,
                &lse[i * step * h..(i + 1) * step * h],
                &dsum[i * step * h..(i + 1) * step * h],
                pos_chunks[i],
                pos_chunks[j],
                scale,
                &mut dq_i,
                &mut dk_j,
                &mut dv_j,
            )?;
            // Accumulate dq_i into the global buffer: each (i, j) tile adds
            // one KV chunk's contribution to query chunk i.
            let base = i * step * h * d;
            let dq_rows = &mut dq.data_mut()[base..base + step * h * d];
            for (acc, &g) in dq_rows.iter_mut().zip(dq_i.data()) {
                *acc += g;
            }
        }
        // dk_j / dv_j are now FINAL (no later outer iteration touches them).
        let base = j * step * hkv * d;
        dk.data_mut()[base..base + step * hkv * d].copy_from_slice(dk_j.data());
        dv.data_mut()[base..base + step * hkv * d].copy_from_slice(dv_j.data());
    }
    Ok(ChunkedGrads { dq, dk, dv })
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
    fn forward_matches_reference_various_chunk_counts() {
        let (q, k, v) = rand_qkv(0, 24, 2, 4);
        let want = reference::causal_attention(&q, &k, &v).unwrap();
        for chunks in [1, 2, 3, 4, 6, 8, 12, 24] {
            let (o, _) = causal_attention_chunked(&q, &k, &v, chunks).unwrap();
            assert!(o.allclose(&want, 1e-4, 1e-5), "chunks={chunks}");
        }
    }

    #[test]
    fn backward_matches_reference_various_chunk_counts() {
        let (q, k, v) = rand_qkv(1, 16, 2, 4);
        let mut rng = init::seeded_rng(2);
        let dout = init::randn(&mut rng, &[16, 2, 4], 1.0);
        let (rdq, rdk, rdv) = reference::causal_attention_bwd(&q, &k, &v, &dout).unwrap();
        for chunks in [1, 2, 4, 8, 16] {
            let (o, lse) = causal_attention_chunked(&q, &k, &v, chunks).unwrap();
            let g = causal_attention_chunked_bwd(&q, &k, &v, &o, &dout, &lse, chunks).unwrap();
            assert!(g.dq.allclose(&rdq, 1e-3, 1e-4), "dq chunks={chunks}");
            assert!(g.dk.allclose(&rdk, 1e-3, 1e-4), "dk chunks={chunks}");
            assert!(g.dv.allclose(&rdv, 1e-3, 1e-4), "dv chunks={chunks}");
        }
    }

    /// Row-level permutation that keeps each chunk's positions within its
    /// own contiguous global range (the rank-ordinal invariant of Figure 6)
    /// but scrambles order *inside* every chunk — as the per-rank segment
    /// concatenation of the real all-to-all does.
    fn within_chunk_perm(s: usize, chunk: usize) -> Vec<usize> {
        let inner = [2usize, 0, 3, 1]; // applied inside each chunk of 4
        assert_eq!(chunk, 4);
        (0..s / chunk)
            .flat_map(|c| inner.iter().map(move |&i| c * chunk + i))
            .collect()
    }

    fn permute_rows(t: &Tensor, perm: &[usize]) -> Tensor {
        let parts: Vec<Tensor> = perm.iter().map(|&i| t.narrow(0, i, 1).unwrap()).collect();
        let refs: Vec<&Tensor> = parts.iter().collect();
        Tensor::concat(&refs, 0).unwrap()
    }

    #[test]
    fn shuffled_positions_round_trip() {
        let s = 16;
        let (q, k, v) = rand_qkv(3, s, 2, 4);
        let perm = within_chunk_perm(s, 4);
        let pos = perm.clone(); // row r of the shuffled view sits at global position perm[r]
        let (qs, ks, vs) = (
            permute_rows(&q, &perm),
            permute_rows(&k, &perm),
            permute_rows(&v, &perm),
        );

        let (o_shuf, _) = attention_chunked_with_positions(&qs, &ks, &vs, &pos, 4, None).unwrap();
        let want = permute_rows(&reference::causal_attention(&q, &k, &v).unwrap(), &perm);
        assert!(o_shuf.allclose(&want, 1e-4, 1e-5));
    }

    #[test]
    fn shuffled_backward_matches_reference() {
        let s = 16;
        let (q, k, v) = rand_qkv(4, s, 1, 4);
        let mut rng = init::seeded_rng(5);
        let dout = init::randn(&mut rng, &[s, 1, 4], 1.0);
        let perm = within_chunk_perm(s, 4);
        let pos = perm.clone();
        let permute = |t: &Tensor| permute_rows(t, &perm);
        let (qs, ks, vs, dos) = (permute(&q), permute(&k), permute(&v), permute(&dout));
        let (o, lse) = attention_chunked_with_positions(&qs, &ks, &vs, &pos, 4, None).unwrap();
        let g = attention_chunked_bwd_with_positions(&qs, &ks, &vs, &o, &dos, &lse, &pos, 4, None)
            .unwrap();
        let (rdq, rdk, rdv) = reference::causal_attention_bwd(&q, &k, &v, &dout).unwrap();
        assert!(g.dq.allclose(&permute(&rdq), 1e-3, 1e-4));
        assert!(g.dk.allclose(&permute(&rdk), 1e-3, 1e-4));
        assert!(g.dv.allclose(&permute(&rdv), 1e-3, 1e-4));
    }

    #[test]
    fn rejects_bad_chunk_counts() {
        let (q, k, v) = rand_qkv(6, 6, 1, 4);
        assert!(causal_attention_chunked(&q, &k, &v, 4).is_err());
        assert!(causal_attention_chunked(&q, &k, &v, 0).is_err());
    }

    #[test]
    fn lse_length_checked_in_bwd() {
        let (q, k, v) = rand_qkv(7, 8, 1, 4);
        let (o, lse) = causal_attention_chunked(&q, &k, &v, 2).unwrap();
        let dout = Tensor::ones(&[8, 1, 4]);
        let mut short = lse.clone();
        short.pop();
        assert!(causal_attention_chunked_bwd(&q, &k, &v, &o, &dout, &short, 2).is_err());
        assert!(causal_attention_chunked_bwd(&q, &k, &v, &o, &dout, &lse, 2).is_ok());
    }
}

#[cfg(test)]
mod gqa_tests {
    use super::*;
    use crate::reference;
    use fpdt_tensor::init;

    /// Expands `[s, hkv, d]` KV to `[s, hq, d]` by repeating each KV head
    /// `hq/hkv` times — GQA must match MHA over the expanded tensors.
    fn expand_kv(t: &Tensor, hq: usize) -> Tensor {
        let (s, hkv, d) = (t.shape()[0], t.shape()[1], t.shape()[2]);
        let ratio = hq / hkv;
        let mut out = Tensor::zeros(&[s, hq, d]);
        for row in 0..s {
            for h in 0..hq {
                let src = (row * hkv + h / ratio) * d;
                let dst = (row * hq + h) * d;
                let vals: Vec<f32> = t.data()[src..src + d].to_vec();
                out.data_mut()[dst..dst + d].copy_from_slice(&vals);
            }
        }
        out
    }

    fn rand_gqa(seed: u64, s: usize, hq: usize, hkv: usize, d: usize) -> (Tensor, Tensor, Tensor) {
        let mut rng = init::seeded_rng(seed);
        (
            init::randn(&mut rng, &[s, hq, d], 1.0),
            init::randn(&mut rng, &[s, hkv, d], 1.0),
            init::randn(&mut rng, &[s, hkv, d], 1.0),
        )
    }

    #[test]
    fn gqa_forward_equals_expanded_mha() {
        let (q, k, v) = rand_gqa(0, 16, 8, 2, 4);
        let gqa = reference::causal_attention(&q, &k, &v).unwrap();
        let mha = reference::causal_attention(&q, &expand_kv(&k, 8), &expand_kv(&v, 8)).unwrap();
        assert!(gqa.allclose(&mha, 1e-5, 1e-6));
    }

    #[test]
    fn gqa_chunked_forward_equals_reference() {
        let (q, k, v) = rand_gqa(1, 24, 6, 3, 4);
        let want = reference::causal_attention(&q, &k, &v).unwrap();
        for chunks in [1, 2, 3, 4, 6] {
            let (got, _) = causal_attention_chunked(&q, &k, &v, chunks).unwrap();
            assert!(got.allclose(&want, 1e-4, 1e-5), "chunks={chunks}");
        }
    }

    #[test]
    fn gqa_backward_sums_grouped_heads() {
        // dk/dv under GQA must equal the head-group sums of the expanded
        // MHA gradients.
        let (q, k, v) = rand_gqa(2, 12, 4, 2, 4);
        let mut rng = init::seeded_rng(3);
        let dout = init::randn(&mut rng, &[12, 4, 4], 1.0);
        let (gdq, gdk, gdv) = reference::causal_attention_bwd(&q, &k, &v, &dout).unwrap();
        let (mdq, mdk, mdv) =
            reference::causal_attention_bwd(&q, &expand_kv(&k, 4), &expand_kv(&v, 4), &dout)
                .unwrap();
        assert!(gdq.allclose(&mdq, 1e-4, 1e-5));
        // sum expanded dk over each group of ratio=2 heads
        let fold = |t: &Tensor| {
            let (s, hq, d) = (t.shape()[0], t.shape()[1], t.shape()[2]);
            let hkv = 2;
            let ratio = hq / hkv;
            let mut out = Tensor::zeros(&[s, hkv, d]);
            for row in 0..s {
                for h in 0..hq {
                    for i in 0..d {
                        let val = t.at(&[row, h, i]);
                        let cur = out.at(&[row, h / ratio, i]);
                        out.set(&[row, h / ratio, i], cur + val);
                    }
                }
            }
            out
        };
        assert!(gdk.allclose(&fold(&mdk), 1e-4, 1e-5));
        assert!(gdv.allclose(&fold(&mdv), 1e-4, 1e-5));
    }

    #[test]
    fn gqa_chunked_backward_equals_reference() {
        let (q, k, v) = rand_gqa(4, 16, 8, 2, 4);
        let mut rng = init::seeded_rng(5);
        let dout = init::randn(&mut rng, &[16, 8, 4], 1.0);
        let (rdq, rdk, rdv) = reference::causal_attention_bwd(&q, &k, &v, &dout).unwrap();
        for chunks in [1, 2, 4, 8] {
            let (o, lse) = causal_attention_chunked(&q, &k, &v, chunks).unwrap();
            let g = causal_attention_chunked_bwd(&q, &k, &v, &o, &dout, &lse, chunks).unwrap();
            assert!(g.dq.allclose(&rdq, 1e-3, 1e-4), "dq chunks={chunks}");
            assert!(g.dk.allclose(&rdk, 1e-3, 1e-4), "dk chunks={chunks}");
            assert!(g.dv.allclose(&rdv, 1e-3, 1e-4), "dv chunks={chunks}");
        }
    }

    #[test]
    fn invalid_head_ratios_rejected() {
        let q = Tensor::zeros(&[4, 6, 4]);
        let kv = Tensor::zeros(&[4, 4, 4]); // 6 % 4 != 0
        assert!(reference::causal_attention(&q, &kv, &kv).is_err());
    }
}
