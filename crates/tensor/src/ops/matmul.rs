//! Cache-blocked, parallel matrix multiplication and its gradients.
//!
//! Three raw-slice kernels cover every layout the Transformer needs without
//! materializing transposes:
//!
//! * [`gemm`]    — `C += A · B`      (`A: [m,k]`, `B: [k,n]`)
//! * [`gemm_nt`] — `C += A · Bᵀ`     (`A: [m,k]`, `B: [n,k]`)
//! * [`gemm_tn`] — `C += Aᵀ · B`     (`A: [k,m]`, `B: [k,n]`)
//!
//! Each kernel tiles the iteration space (`MC`/`KC`/`NC` panels, with B-
//! or A-panel packing where the source layout is strided) and fans the
//! row-block loop out to the kernel pool through [`crate::par::run_rows`].
//! The split threshold is the shared `FPDT_PAR_THRESHOLD` tunable, not a
//! per-file constant. Inside each panel the inner loops are the
//! register-blocked SIMD microkernels from [`crate::mk`] (4x16 FMA tiles
//! for `gemm`/`gemm_tn`, 4-row dot sweeps for `gemm_nt`), runtime
//! dispatched between AVX2 and the bitwise-identical scalar fallback.
//! Determinism: every `C` element accumulates its `k` contributions in
//! ascending-`l` order regardless of tile shape, backend, or thread count,
//! so results are bitwise identical from `FPDT_THREADS=1` to N.

use crate::{mk, par, Result, Tensor, TensorError};

/// Rows of `C` per parallel work item (the fan-out grain).
const MC: usize = 32;
/// Depth (`k`) extent of one packed panel.
const KC: usize = 256;
/// Column extent of one packed B panel (`gemm`) or B-row block (`gemm_nt`).
const NC: usize = 512;

/// `c += a @ b` where `a` is `[m, k]`, `b` is `[k, n]`, `c` is `[m, n]`,
/// all row-major slices.
///
/// # Panics
///
/// Panics (via debug assertions on slice indexing) if the slice lengths do
/// not match the stated dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let work = m.saturating_mul(k).saturating_mul(n);
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            // Pack the B panel once per (jc, pc): contiguous nc-wide rows
            // shared read-only by every row block below.
            par::with_scratch(kc * nc, |bp| {
                for l in 0..kc {
                    let src = (pc + l) * n + jc;
                    bp[l * nc..(l + 1) * nc].copy_from_slice(&b[src..src + nc]);
                }
                let bp = &*bp;
                par::run_rows(c, MC * n, work, |blk, c_blk| {
                    let i0 = blk * MC;
                    mk::gemm_panel(
                        &mk::Panel {
                            a,
                            a_off: i0 * k + pc,
                            a_stride: k,
                            a_lstride: 1,
                            bp,
                            b_stride: nc,
                            b_col0: 0,
                            kc,
                            nc,
                            rows: c_blk.len() / n,
                            c_stride: n,
                            c_col0: jc,
                        },
                        c_blk,
                    );
                });
            });
        }
    }
}

/// `c += a @ b^T` where `a` is `[m, k]`, `b` is `[n, k]`, `c` is `[m, n]`.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let work = m.saturating_mul(k).saturating_mul(n);
    // B rows are already contiguous in k; blocking (pc, jc) keeps one
    // nc x kc panel of B hot in cache across all rows of the block.
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            par::run_rows(c, MC * n, work, |blk, c_blk| {
                let i0 = blk * MC;
                for r in 0..c_blk.len() / n {
                    let a_row = &a[(i0 + r) * k + pc..(i0 + r) * k + pc + kc];
                    let c_row = &mut c_blk[r * n + jc..r * n + jc + nc];
                    // Four B rows per register block share each a_row load.
                    mk::dot_rows(c_row, a_row, b, jc, k, pc, kc);
                }
            });
        }
    }
}

/// `c += a^T @ b` where `a` is `[k, m]`, `b` is `[k, n]`, `c` is `[m, n]`.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let work = m.saturating_mul(k).saturating_mul(n);
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        par::run_rows(c, MC * n, work, |blk, c_blk| {
            let i0 = blk * MC;
            let rows = c_blk.len() / n;
            // Pack this block's A columns into row-major form (per-task
            // scratch): turns the stride-m walk into unit stride.
            par::with_scratch(rows * kc, |ap| {
                for (l, lg) in (pc..pc + kc).enumerate() {
                    let src = &a[lg * m + i0..lg * m + i0 + rows];
                    for (r, &v) in src.iter().enumerate() {
                        ap[r * kc + l] = v;
                    }
                }
                mk::gemm_panel(
                    &mk::Panel {
                        a: ap,
                        a_off: 0,
                        a_stride: kc,
                        a_lstride: 1,
                        bp: &b[pc * n..(pc + kc) * n],
                        b_stride: n,
                        b_col0: 0,
                        kc,
                        nc: n,
                        rows,
                        c_stride: n,
                        c_col0: 0,
                    },
                    c_blk,
                );
            });
        });
    }
}

/// Shape-checked matrix product.
///
/// Accepts `[m, k] @ [k, n]` as well as a batched left operand
/// `[..., m, k] @ [k, n]` (the common "activation times weight" case), and
/// fully batched `[..., m, k] @ [..., k, n]` with identical leading
/// dimensions.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when inner or batch dimensions
/// disagree, and [`TensorError::RankMismatch`] for rank-0/1 operands.
///
/// ```
/// use fpdt_tensor::{Tensor, ops::matmul};
/// # fn main() -> Result<(), fpdt_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
/// assert_eq!(matmul(&a, &b)?.data(), a.data());
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (ash, bsh) = (a.shape(), b.shape());
    if ash.len() < 2 {
        return Err(TensorError::RankMismatch {
            op: "matmul",
            expected: 2,
            actual: ash.len(),
        });
    }
    if bsh.len() < 2 {
        return Err(TensorError::RankMismatch {
            op: "matmul",
            expected: 2,
            actual: bsh.len(),
        });
    }
    let (m, k) = (ash[ash.len() - 2], ash[ash.len() - 1]);
    let (kb, n) = (bsh[bsh.len() - 2], bsh[bsh.len() - 1]);
    let batch_a: usize = ash[..ash.len() - 2].iter().product();
    let batch_b: usize = bsh[..bsh.len() - 2].iter().product();
    let mismatch = || TensorError::ShapeMismatch {
        op: "matmul",
        lhs: ash.to_vec(),
        rhs: bsh.to_vec(),
    };
    if k != kb {
        return Err(mismatch());
    }
    if bsh.len() == 2 {
        // [batch*m, k] @ [k, n]
        let mut out = vec![0.0; batch_a * m * n];
        gemm(batch_a * m, k, n, a.data(), b.data(), &mut out);
        let mut shape = ash[..ash.len() - 2].to_vec();
        shape.push(m);
        shape.push(n);
        return Tensor::from_vec(out, &shape);
    }
    if batch_a != batch_b || ash[..ash.len() - 2] != bsh[..bsh.len() - 2] {
        return Err(mismatch());
    }
    let mut out = vec![0.0; batch_a * m * n];
    for bi in 0..batch_a {
        gemm(
            m,
            k,
            n,
            &a.data()[bi * m * k..(bi + 1) * m * k],
            &b.data()[bi * k * n..(bi + 1) * k * n],
            &mut out[bi * m * n..(bi + 1) * m * n],
        );
    }
    let mut shape = ash[..ash.len() - 2].to_vec();
    shape.push(m);
    shape.push(n);
    Tensor::from_vec(out, &shape)
}

/// Gradient of [`matmul`]: given `dc = dL/dc` for `c = a @ b`, returns
/// `(da, db)`.
///
/// For the batched-left / 2-D-right case, `db` is summed over the batch,
/// matching the weight-gradient reduction in a linear layer.
///
/// # Errors
///
/// Returns the same shape errors as [`matmul`] when the saved operands and
/// the upstream gradient disagree.
pub fn matmul_bwd(a: &Tensor, b: &Tensor, dc: &Tensor) -> Result<(Tensor, Tensor)> {
    let (ash, bsh) = (a.shape(), b.shape());
    let (m, k) = (ash[ash.len() - 2], ash[ash.len() - 1]);
    let n = bsh[bsh.len() - 1];
    let batch_a: usize = ash[..ash.len() - 2].iter().product();
    let expect_dc: usize = batch_a * m * n;
    if dc.numel() != expect_dc {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_bwd",
            lhs: ash.to_vec(),
            rhs: dc.shape().to_vec(),
        });
    }
    if bsh.len() == 2 {
        // da = dc @ b^T   : [batch*m, n] x [k, n]^T -> [batch*m, k]
        let mut da = vec![0.0; batch_a * m * k];
        gemm_nt(batch_a * m, n, k, dc.data(), b.data(), &mut da);
        // db = a^T @ dc   : [batch*m, k]^T x [batch*m, n] -> [k, n]
        let mut db = vec![0.0; k * n];
        gemm_tn(k, batch_a * m, n, a.data(), dc.data(), &mut db);
        return Ok((Tensor::from_vec(da, ash)?, Tensor::from_vec(db, bsh)?));
    }
    let mut da = vec![0.0; a.numel()];
    let mut db = vec![0.0; b.numel()];
    for bi in 0..batch_a {
        let a_s = &a.data()[bi * m * k..(bi + 1) * m * k];
        let b_s = &b.data()[bi * k * n..(bi + 1) * k * n];
        let dc_s = &dc.data()[bi * m * n..(bi + 1) * m * n];
        gemm_nt(m, n, k, dc_s, b_s, &mut da[bi * m * k..(bi + 1) * m * k]);
        gemm_tn(k, m, n, a_s, dc_s, &mut db[bi * k * n..(bi + 1) * k * n]);
    }
    Ok((Tensor::from_vec(da, ash)?, Tensor::from_vec(db, bsh)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for l in 0..k {
                    s += a.at(&[i, l]) * b.at(&[l, j]);
                }
                c.set(&[i, j], s);
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = init::seeded_rng(0);
        let a = init::randn(&mut rng, &[13, 7], 1.0);
        let b = init::randn(&mut rng, &[7, 11], 1.0);
        let fast = matmul(&a, &b).unwrap();
        assert!(fast.allclose(&naive(&a, &b), 1e-4, 1e-5));
    }

    #[test]
    fn matmul_large_parallel_path() {
        let mut rng = init::seeded_rng(1);
        let a = init::randn(&mut rng, &[64, 64], 1.0);
        let b = init::randn(&mut rng, &[64, 64], 1.0);
        let fast = matmul(&a, &b).unwrap();
        assert!(fast.allclose(&naive(&a, &b), 1e-3, 1e-4));
    }

    #[test]
    fn batched_left_two_d_right() {
        let mut rng = init::seeded_rng(2);
        let a = init::randn(&mut rng, &[3, 4, 5], 1.0);
        let b = init::randn(&mut rng, &[5, 2], 1.0);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[3, 4, 2]);
        // spot-check one batch against 2-D matmul
        let a1 = a.narrow(0, 1, 1).unwrap().reshape(&[4, 5]).unwrap();
        let c1 = matmul(&a1, &b).unwrap();
        let got = c.narrow(0, 1, 1).unwrap().reshape(&[4, 2]).unwrap();
        assert!(got.allclose(&c1, 1e-5, 1e-6));
    }

    #[test]
    fn fully_batched() {
        let mut rng = init::seeded_rng(3);
        let a = init::randn(&mut rng, &[2, 3, 4], 1.0);
        let b = init::randn(&mut rng, &[2, 4, 5], 1.0);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 3, 5]);
        for bi in 0..2 {
            let ai = a.narrow(0, bi, 1).unwrap().reshape(&[3, 4]).unwrap();
            let bi_t = b.narrow(0, bi, 1).unwrap().reshape(&[4, 5]).unwrap();
            let want = matmul(&ai, &bi_t).unwrap();
            let got = c.narrow(0, bi, 1).unwrap().reshape(&[3, 5]).unwrap();
            assert!(got.allclose(&want, 1e-5, 1e-6));
        }
    }

    #[test]
    fn shape_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 5]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul(&Tensor::zeros(&[3]), &a).is_err());
        let a3 = Tensor::zeros(&[2, 2, 3]);
        let b3 = Tensor::zeros(&[3, 3, 4]);
        assert!(matmul(&a3, &b3).is_err());
    }

    /// Finite-difference check of matmul_bwd.
    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = init::seeded_rng(4);
        let a = init::randn(&mut rng, &[3, 4], 1.0);
        let b = init::randn(&mut rng, &[4, 2], 1.0);
        // L = sum(c)
        let dc = Tensor::ones(&[3, 2]);
        let (da, db) = matmul_bwd(&a, &b, &dc).unwrap();
        let eps = 1e-3;
        for idx in 0..a.numel() {
            let mut ap = a.clone();
            ap.data_mut()[idx] += eps;
            let mut am = a.clone();
            am.data_mut()[idx] -= eps;
            let fd =
                (matmul(&ap, &b).unwrap().sum() - matmul(&am, &b).unwrap().sum()) / (2.0 * eps);
            assert!(
                (fd - da.data()[idx]).abs() < 1e-2,
                "da[{idx}]: fd {fd} vs {}",
                da.data()[idx]
            );
        }
        for idx in 0..b.numel() {
            let mut bp = b.clone();
            bp.data_mut()[idx] += eps;
            let mut bm = b.clone();
            bm.data_mut()[idx] -= eps;
            let fd =
                (matmul(&a, &bp).unwrap().sum() - matmul(&a, &bm).unwrap().sum()) / (2.0 * eps);
            assert!(
                (fd - db.data()[idx]).abs() < 1e-2,
                "db[{idx}]: fd {fd} vs {}",
                db.data()[idx]
            );
        }
    }

    #[test]
    fn backward_batched_sums_weight_grad() {
        let mut rng = init::seeded_rng(5);
        let a = init::randn(&mut rng, &[2, 3, 4], 1.0);
        let b = init::randn(&mut rng, &[4, 5], 1.0);
        let dc = Tensor::ones(&[2, 3, 5]);
        let (_, db) = matmul_bwd(&a, &b, &dc).unwrap();
        // db should equal sum over batches of per-batch db
        let mut want = Tensor::zeros(&[4, 5]);
        for bi in 0..2 {
            let ai = a.narrow(0, bi, 1).unwrap().reshape(&[3, 4]).unwrap();
            let dci = Tensor::ones(&[3, 5]);
            let (_, dbi) = matmul_bwd(&ai, &b, &dci).unwrap();
            want.add_assign(&dbi).unwrap();
        }
        assert!(db.allclose(&want, 1e-4, 1e-5));
    }

    #[test]
    fn gemm_variants_agree() {
        let mut rng = init::seeded_rng(6);
        let a = init::randn(&mut rng, &[5, 3], 1.0);
        let b = init::randn(&mut rng, &[3, 4], 1.0);
        let want = matmul(&a, &b).unwrap();

        // gemm_nt with b^T
        let bt = b.transpose2().unwrap();
        let mut c = vec![0.0; 5 * 4];
        gemm_nt(5, 3, 4, a.data(), bt.data(), &mut c);
        assert!(Tensor::from_vec(c, &[5, 4])
            .unwrap()
            .allclose(&want, 1e-5, 1e-6));

        // gemm_tn with a^T
        let at = a.transpose2().unwrap();
        let mut c = vec![0.0; 5 * 4];
        gemm_tn(5, 3, 4, at.data(), b.data(), &mut c);
        assert!(Tensor::from_vec(c, &[5, 4])
            .unwrap()
            .allclose(&want, 1e-5, 1e-6));
    }
}
