//! Ground-truth attention that materializes the full score matrix.
//!
//! `O(N²)` memory — exactly the cost FlashAttention and FPDT avoid — kept
//! here as the oracle for equivalence tests and for the paper's Table 2
//! "attention materializes `QKᵀ`" baseline.

use crate::{check_qkv, default_scale, Result, Tensor};
use fpdt_tensor::{mk, par};

/// Causal attention over `[s, h, d]` tensors with positions `0..s` and
/// softmax scale `1/sqrt(d)`.
///
/// # Errors
///
/// Returns a shape error unless `q`, `k`, `v` are rank-3 and agree on every
/// extent.
pub fn causal_attention(q: &Tensor, k: &Tensor, v: &Tensor) -> Result<Tensor> {
    let (s, _, _, _, d) = check_qkv(q, k, v, "reference_attention")?;
    let positions: Vec<usize> = (0..s).collect();
    attention_with_positions(q, k, v, &positions, &positions, default_scale(d))
}

/// Attention with explicit global positions: query row `a` attends to key
/// row `b` iff `kv_pos[b] <= q_pos[a]`.
///
/// This is the general form used to validate FPDT's shuffled chunk layout.
///
/// # Errors
///
/// Returns a shape error when tensor extents or position lengths disagree.
pub fn attention_with_positions(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    q_pos: &[usize],
    kv_pos: &[usize],
    scale: f32,
) -> Result<Tensor> {
    let (sq, sk, h, hkv, d) = check_qkv(q, k, v, "reference_attention")?;
    check_positions(sq, sk, q_pos, kv_pos)?;
    let ratio = h / hkv; // GQA: `ratio` query heads share one KV head
    let mut out = Tensor::zeros(&[sq, h, d]);
    let qd = q.data();
    let kd = k.data();
    let vd = v.data();
    let work = sq.saturating_mul(sk).saturating_mul(h * d);
    par::run_rows(out.data_mut(), h * d, work, |a, out_row| {
        par::with_scratch(sk, |scores| {
            for head in 0..h {
                let kvh = head / ratio;
                let q_row = &qd[(a * h + head) * d..(a * h + head) * d + d];
                let mut m = f32::NEG_INFINITY;
                let mut any = false;
                for b in 0..sk {
                    if kv_pos[b] <= q_pos[a] {
                        let k_row = &kd[(b * hkv + kvh) * d..(b * hkv + kvh) * d + d];
                        scores[b] = mk::dot(q_row, k_row) * scale;
                        m = m.max(scores[b]);
                        any = true;
                    } else {
                        scores[b] = f32::NEG_INFINITY;
                    }
                }
                if !any {
                    continue; // row attends to nothing; output stays zero
                }
                let mut z = 0.0f32;
                for sc in scores.iter_mut() {
                    if sc.is_finite() {
                        *sc = (*sc - m).exp();
                        z += *sc;
                    } else {
                        *sc = 0.0;
                    }
                }
                let o_row = &mut out_row[head * d..head * d + d];
                for b in 0..sk {
                    let p = scores[b] / z;
                    if p == 0.0 {
                        continue;
                    }
                    let v_row = &vd[(b * hkv + kvh) * d..(b * hkv + kvh) * d + d];
                    mk::axpy(o_row, p, v_row);
                }
            }
        });
    });
    Ok(out)
}

/// Backward pass of [`causal_attention`]; recomputes the probabilities and
/// returns `(dq, dk, dv)`.
///
/// # Errors
///
/// Returns a shape error when operand extents disagree.
pub fn causal_attention_bwd(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    dout: &Tensor,
) -> Result<(Tensor, Tensor, Tensor)> {
    let (s, _, _, _, d) = check_qkv(q, k, v, "reference_attention_bwd")?;
    let positions: Vec<usize> = (0..s).collect();
    attention_bwd_with_positions(q, k, v, dout, &positions, &positions, default_scale(d))
}

/// Backward of [`attention_with_positions`]. Returns `(dq, dk, dv)`.
///
/// # Errors
///
/// Returns a shape error when operand extents or position lengths disagree.
pub fn attention_bwd_with_positions(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    dout: &Tensor,
    q_pos: &[usize],
    kv_pos: &[usize],
    scale: f32,
) -> Result<(Tensor, Tensor, Tensor)> {
    let (sq, sk, h, hkv, d) = check_qkv(q, k, v, "reference_attention_bwd")?;
    check_positions(sq, sk, q_pos, kv_pos)?;
    let ratio = h / hkv;
    if dout.shape() != q.shape() {
        return Err(fpdt_tensor::TensorError::ShapeMismatch {
            op: "reference_attention_bwd",
            lhs: q.shape().to_vec(),
            rhs: dout.shape().to_vec(),
        });
    }
    let qd = q.data();
    let kd = k.data();
    let vd = v.data();
    let dod = dout.data();
    let mut dq = Tensor::zeros(q.shape());
    let mut dk = Tensor::zeros(k.shape());
    let mut dv = Tensor::zeros(v.shape());
    // Scratch hoisted out of the nest (used to be two fresh Vecs per
    // (head, query row) iteration).
    let mut p = vec![0.0f32; sk];
    let mut dp = vec![0.0f32; sk];
    // Serial over heads for deterministic accumulation into dk/dv.
    for head in 0..h {
        let kvh = head / ratio;
        for a in 0..sq {
            let q_row = &qd[(a * h + head) * d..(a * h + head) * d + d];
            let do_row = &dod[(a * h + head) * d..(a * h + head) * d + d];
            // probabilities
            let mut m = f32::NEG_INFINITY;
            let mut any = false;
            for b in 0..sk {
                if kv_pos[b] <= q_pos[a] {
                    let k_row = &kd[(b * hkv + kvh) * d..(b * hkv + kvh) * d + d];
                    p[b] = mk::dot(q_row, k_row) * scale;
                    m = m.max(p[b]);
                    any = true;
                } else {
                    p[b] = f32::NEG_INFINITY;
                }
            }
            if !any {
                continue;
            }
            let mut z = 0.0f32;
            for pb in p.iter_mut() {
                if pb.is_finite() {
                    *pb = (*pb - m).exp();
                    z += *pb;
                } else {
                    *pb = 0.0;
                }
            }
            for pb in p.iter_mut() {
                *pb /= z;
            }
            // dp_b = do . v_b ; D = sum_b p_b dp_b ; ds_b = p_b (dp_b - D)
            let mut dsum = 0.0f32;
            for b in 0..sk {
                dp[b] = 0.0;
                if p[b] == 0.0 {
                    continue;
                }
                let v_row = &vd[(b * hkv + kvh) * d..(b * hkv + kvh) * d + d];
                dp[b] = mk::dot(do_row, v_row);
                dsum += p[b] * dp[b];
            }
            let dq_row = {
                let base = (a * h + head) * d;
                &mut dq.data_mut()[base..base + d]
            };
            // accumulate dq first (borrow rules: dq separate from dk/dv)
            for b in 0..sk {
                if p[b] == 0.0 {
                    continue;
                }
                let ds = p[b] * (dp[b] - dsum) * scale;
                let k_row = &kd[(b * hkv + kvh) * d..(b * hkv + kvh) * d + d];
                for (o, &kk) in dq_row.iter_mut().zip(k_row) {
                    *o += ds * kk;
                }
            }
            for b in 0..sk {
                if p[b] == 0.0 {
                    continue;
                }
                let ds = p[b] * (dp[b] - dsum) * scale;
                let base = (b * hkv + kvh) * d;
                {
                    let dk_row = &mut dk.data_mut()[base..base + d];
                    for (o, &qq) in dk_row.iter_mut().zip(q_row) {
                        *o += ds * qq;
                    }
                }
                {
                    let dv_row = &mut dv.data_mut()[base..base + d];
                    for (o, &g) in dv_row.iter_mut().zip(do_row) {
                        *o += p[b] * g;
                    }
                }
            }
        }
    }
    Ok((dq, dk, dv))
}

fn check_positions(sq: usize, sk: usize, q_pos: &[usize], kv_pos: &[usize]) -> Result<()> {
    if q_pos.len() != sq || kv_pos.len() != sk {
        return Err(fpdt_tensor::TensorError::ShapeMismatch {
            op: "attention positions",
            lhs: vec![sq, sk],
            rhs: vec![q_pos.len(), kv_pos.len()],
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn first_token_attends_only_to_itself() {
        let (q, k, v) = rand_qkv(0, 5, 2, 4);
        let o = causal_attention(&q, &k, &v).unwrap();
        // row 0 output must equal v row 0 (softmax over a single element).
        assert!(o
            .narrow(0, 0, 1)
            .unwrap()
            .allclose(&v.narrow(0, 0, 1).unwrap(), 1e-5, 1e-6));
    }

    #[test]
    fn uniform_scores_average_values() {
        // q = 0 -> all scores equal -> output is mean of visible v rows.
        let q = Tensor::zeros(&[3, 1, 2]);
        let k = Tensor::ones(&[3, 1, 2]);
        let v = Tensor::from_vec(vec![1.0, 0.0, 3.0, 0.0, 5.0, 0.0], &[3, 1, 2]).unwrap();
        let o = causal_attention(&q, &k, &v).unwrap();
        assert!((o.at(&[0, 0, 0]) - 1.0).abs() < 1e-5);
        assert!((o.at(&[1, 0, 0]) - 2.0).abs() < 1e-5);
        assert!((o.at(&[2, 0, 0]) - 3.0).abs() < 1e-5);
    }

    #[test]
    fn later_keys_do_not_influence_earlier_queries() {
        let (q, k, v) = rand_qkv(1, 8, 2, 4);
        let o1 = causal_attention(&q, &k, &v).unwrap();
        // Perturb the last key/value rows; outputs for rows < 7 must not move.
        let mut k2 = k.clone();
        let mut v2 = v.clone();
        let n = k2.numel();
        for i in n - 8..n {
            k2.data_mut()[i] += 10.0;
            v2.data_mut()[i] -= 3.0;
        }
        let o2 = causal_attention(&q, &k2, &v2).unwrap();
        let head = o1.narrow(0, 0, 7).unwrap();
        let head2 = o2.narrow(0, 0, 7).unwrap();
        assert!(head.allclose(&head2, 1e-6, 1e-7));
        assert!(!o1.allclose(&o2, 1e-3, 1e-4));
    }

    #[test]
    fn positions_generalize_contiguous_causal() {
        let (q, k, v) = rand_qkv(2, 6, 2, 4);
        let pos: Vec<usize> = (0..6).collect();
        let a = causal_attention(&q, &k, &v).unwrap();
        let b = attention_with_positions(&q, &k, &v, &pos, &pos, default_scale(4)).unwrap();
        assert!(a.allclose(&b, 1e-6, 1e-7));
    }

    #[test]
    fn shuffled_positions_match_unshuffled() {
        // Permute rows of q/k/v together with their positions; attention
        // outputs must be the same permutation of the original outputs.
        let (q, k, v) = rand_qkv(3, 6, 1, 4);
        let pos: Vec<usize> = (0..6).collect();
        let base = attention_with_positions(&q, &k, &v, &pos, &pos, default_scale(4)).unwrap();

        let perm = [3usize, 0, 5, 1, 4, 2];
        let permute = |t: &Tensor| {
            let parts: Vec<Tensor> = perm.iter().map(|&i| t.narrow(0, i, 1).unwrap()).collect();
            let refs: Vec<&Tensor> = parts.iter().collect();
            Tensor::concat(&refs, 0).unwrap()
        };
        let (qp, kp, vp) = (permute(&q), permute(&k), permute(&v));
        let pos_p: Vec<usize> = perm.to_vec();
        let shuffled =
            attention_with_positions(&qp, &kp, &vp, &pos_p, &pos_p, default_scale(4)).unwrap();
        let expected = permute(&base);
        assert!(shuffled.allclose(&expected, 1e-5, 1e-6));
    }

    #[test]
    fn backward_finite_difference() {
        let (q, k, v) = rand_qkv(4, 5, 1, 3);
        let mut rng = init::seeded_rng(5);
        let dout = init::randn(&mut rng, &[5, 1, 3], 1.0);
        let (dq, dk, dv) = causal_attention_bwd(&q, &k, &v, &dout).unwrap();
        let eps = 1e-2;
        let loss = |q: &Tensor, k: &Tensor, v: &Tensor| {
            causal_attention(q, k, v).unwrap().mul(&dout).unwrap().sum()
        };
        for (name, base, grad) in [("q", &q, &dq), ("k", &k, &dk), ("v", &v, &dv)] {
            for i in 0..base.numel() {
                let mut p = base.clone();
                p.data_mut()[i] += eps;
                let mut m = base.clone();
                m.data_mut()[i] -= eps;
                let (fp, fm) = match name {
                    "q" => (loss(&p, &k, &v), loss(&m, &k, &v)),
                    "k" => (loss(&q, &p, &v), loss(&q, &m, &v)),
                    _ => (loss(&q, &k, &p), loss(&q, &k, &m)),
                };
                let fd = (fp - fm) / (2.0 * eps);
                let got = grad.data()[i];
                assert!(
                    (fd - got).abs() < 3e-2,
                    "{name}[{i}]: fd {fd} vs analytic {got}"
                );
            }
        }
    }

    #[test]
    fn shape_errors() {
        let q = Tensor::zeros(&[4, 2, 8]);
        let bad = Tensor::zeros(&[4, 3, 8]);
        assert!(causal_attention(&q, &bad, &q).is_err());
        assert!(causal_attention(&q, &q, &bad).is_err());
        let pos = vec![0usize; 3];
        assert!(attention_with_positions(&q, &q, &q, &pos, &pos, 1.0).is_err());
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
    fn invalid_head_ratios_rejected() {
        let q = Tensor::zeros(&[4, 6, 4]);
        let kv = Tensor::zeros(&[4, 4, 4]); // 6 % 4 != 0
        assert!(reference::causal_attention(&q, &kv, &kv).is_err());
    }
}
