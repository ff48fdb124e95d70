//! Cache-blocked, parallel matrix multiplication and its gradients.
//!
//! Three raw-slice kernels cover every layout the Transformer needs without
//! materializing a transposed weight:
//!
//! * [`gemm`]    — `C += A · B`      (`A: [m,k]`, `B: [k,n]`)
//! * [`gemm_nt`] — `C += A · Bᵀ`     (`A: [m,k]`, `B: [n,k]`)
//! * [`gemm_tn`] — `C += Aᵀ · B`     (`A: [k,m]`, `B: [k,n]`)
//!
//! Each kernel fans `MC`-row blocks of `C` out to the kernel pool through
//! [`crate::par::run_rows`] (the split threshold is the calling thread's
//! `KernelCtx::par_threshold`) and walks the depth in `KC` panels; every
//! product runs through the one register-blocked microkernel,
//! [`crate::mk::gemm_panel`] (4x16 FMA tiles, runtime dispatched between
//! AVX2 and the bitwise-identical scalar fallback). The big operand — the
//! weight of a `Linear` layer — is always read where it lies: `gemm` and
//! `gemm_tn` hand the microkernel strided rows of `B`, and `gemm_nt`
//! computes `Cᵀ = B · Aᵀ` so that `B` is the microkernel's row-major
//! left operand. What gets copied is only ever a block of the
//! *activations* (`MC` rows, transposed into per-task scratch), because a
//! chunk-sized call has 16-64 of those rows against a megabyte of weight.
//!
//! Determinism: every `C` element accumulates its `k` contributions in
//! ascending-`l` order regardless of tile shape, backend, or thread count,
//! so results are bitwise identical from `FPDT_THREADS=1` to N.

use crate::{mk, par, Result, Tensor, TensorError};

/// Rows of `C` per parallel work item (the fan-out grain).
const MC: usize = 32;
/// Depth (`k`) extent of one panel.
const KC: usize = 256;
/// Column extent of one `gemm` B panel.
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
            // One kc x nc panel of B, read in place, is shared by every
            // row block below.
            let bp = &b[pc * n..(pc + kc) * n];
            par::run_rows(c, MC * n, work, |blk, c_blk| {
                let i0 = blk * MC;
                mk::gemm_panel(
                    &mk::Panel {
                        a,
                        a_off: i0 * k + pc,
                        a_stride: k,
                        a_lstride: 1,
                        bp,
                        b_stride: n,
                        b_col0: jc,
                        kc,
                        nc,
                        rows: c_blk.len() / n,
                        c_stride: n,
                        c_col0: jc,
                    },
                    c_blk,
                );
            });
        }
    }
}

/// `c += a @ b^T` where `a` is `[m, k]`, `b` is `[n, k]`, `c` is `[m, n]`.
///
/// Computed as `Cᵀ = B · Aᵀ` per `MC`-row block of `a`: the block is
/// transposed into a `[k, rows]` scratch panel, `b` is the microkernel's
/// row-major left operand in place over ascending `KC` panels, and the
/// `[n, rows]` product is added back transposed. `b` (the weight, in the
/// backward of a projection) is never transposed or packed; the extra
/// traffic per block is `rows·(k + n)` floats against `2·rows·k·n` FLOPs.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let work = m.saturating_mul(k).saturating_mul(n);
    par::run_rows(c, MC * n, work, |blk, c_blk| {
        let i0 = blk * MC;
        let rows = c_blk.len() / n;
        // Scratch columns are padded to the 8-lane width (zeros), so a
        // ragged block runs vector tiles rather than the scalar tail.
        let w = rows.next_multiple_of(8);
        par::with_scratch((k + n) * w, |scratch| {
            let (at, ct) = scratch.split_at_mut(k * w);
            for (r, a_row) in a[i0 * k..(i0 + rows) * k].chunks_exact(k).enumerate() {
                for (l, &v) in a_row.iter().enumerate() {
                    at[l * w + r] = v;
                }
            }
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                mk::gemm_panel(
                    &mk::Panel {
                        a: b,
                        a_off: pc,
                        a_stride: k,
                        a_lstride: 1,
                        bp: &at[pc * w..(pc + kc) * w],
                        b_stride: w,
                        b_col0: 0,
                        kc,
                        nc: w,
                        rows: n,
                        c_stride: w,
                        c_col0: 0,
                    },
                    ct,
                );
            }
            for (r, c_row) in c_blk.chunks_exact_mut(n).enumerate() {
                for (j, cv) in c_row.iter_mut().enumerate() {
                    *cv += ct[j * w + r];
                }
            }
        });
    });
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

/// Checked geometry of `a @ b` as `(batches, rows, k, n)`: `batches`
/// independent products of `[rows, k] @ [k, n]`. A 2-D `b` against a
/// batched `a` is one product over all `batch·m` rows; fully batched
/// operands are one per batch.
fn dims(op: &'static str, ash: &[usize], bsh: &[usize]) -> Result<(usize, usize, usize, usize)> {
    for sh in [ash, bsh] {
        if sh.len() < 2 {
            return Err(TensorError::RankMismatch {
                op,
                expected: 2,
                actual: sh.len(),
            });
        }
    }
    let (batch_a, batch_b) = (&ash[..ash.len() - 2], &bsh[..bsh.len() - 2]);
    let (m, k) = (ash[ash.len() - 2], ash[ash.len() - 1]);
    let (kb, n) = (bsh[bsh.len() - 2], bsh[bsh.len() - 1]);
    if k != kb || !(batch_b.is_empty() || batch_a == batch_b) {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: ash.to_vec(),
            rhs: bsh.to_vec(),
        });
    }
    let batch: usize = batch_a.iter().product();
    Ok(if batch_b.is_empty() {
        (1, batch * m, k, n)
    } else {
        (batch, m, k, n)
    })
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
    let ash = a.shape();
    let (batches, rows, k, n) = dims("matmul", ash, b.shape())?;
    let mut out = vec![0.0; batches * rows * n];
    for bi in 0..batches {
        gemm(
            rows,
            k,
            n,
            &a.data()[bi * rows * k..][..rows * k],
            &b.data()[bi * k * n..][..k * n],
            &mut out[bi * rows * n..][..rows * n],
        );
    }
    let mut shape = ash.to_vec();
    shape[ash.len() - 1] = n;
    Tensor::from_vec(out, &shape)
}

/// Gradient of [`matmul`]: given `dc = dL/dc` for `c = a @ b`, returns
/// `(da, db)` = `(dc @ bᵀ, aᵀ @ dc)`.
///
/// For the batched-left / 2-D-right case, `db` is summed over the batch,
/// matching the weight-gradient reduction in a linear layer.
///
/// # Errors
///
/// Returns the same shape errors as [`matmul`] when the saved operands and
/// the upstream gradient disagree, [`TensorError::ShapeMismatch`] also
/// when `dc` does not hold one value per element of `a @ b`.
pub fn matmul_bwd(a: &Tensor, b: &Tensor, dc: &Tensor) -> Result<(Tensor, Tensor)> {
    let (batches, rows, k, n) = dims("matmul_bwd", a.shape(), b.shape())?;
    if dc.numel() != batches * rows * n {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_bwd",
            lhs: a.shape().to_vec(),
            rhs: dc.shape().to_vec(),
        });
    }
    let mut da = Tensor::zeros(a.shape());
    let mut db = Tensor::zeros(b.shape());
    for bi in 0..batches {
        let a_s = &a.data()[bi * rows * k..][..rows * k];
        let b_s = &b.data()[bi * k * n..][..k * n];
        let dc_s = &dc.data()[bi * rows * n..][..rows * n];
        // da = dc @ b^T : [rows, n] x [k, n]^T -> [rows, k]
        gemm_nt(
            rows,
            n,
            k,
            dc_s,
            b_s,
            &mut da.data_mut()[bi * rows * k..][..rows * k],
        );
        // db = a^T @ dc : [rows, k]^T x [rows, n] -> [k, n]
        gemm_tn(
            k,
            rows,
            n,
            a_s,
            dc_s,
            &mut db.data_mut()[bi * k * n..][..k * n],
        );
    }
    Ok((da, db))
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

    #[test]
    fn backward_shape_errors_are_typed() {
        let z = |shape: &[usize]| Tensor::zeros(shape);
        let bwd = |a: &Tensor, b: &Tensor, dc: &Tensor| matmul_bwd(a, b, dc).unwrap_err();
        let (a, b, dc) = (z(&[2, 3]), z(&[3, 4]), z(&[2, 4]));
        for low in [z(&[]), z(&[3])] {
            assert!(matches!(
                bwd(&low, &b, &dc),
                TensorError::RankMismatch { op: "matmul_bwd", expected: 2, actual } if actual == low.shape().len()
            ));
            assert!(matches!(
                bwd(&a, &low, &dc),
                TensorError::RankMismatch {
                    op: "matmul_bwd",
                    ..
                }
            ));
        }
        let shape_mismatch = |e| {
            matches!(
                e,
                TensorError::ShapeMismatch {
                    op: "matmul_bwd",
                    ..
                }
            )
        };
        // inner extents, batch dims, and a dc that is not one value per c
        assert!(shape_mismatch(bwd(&a, &z(&[5, 4]), &dc)));
        assert!(shape_mismatch(bwd(
            &z(&[2, 2, 3]),
            &z(&[3, 3, 4]),
            &z(&[2, 2, 4])
        )));
        assert!(shape_mismatch(bwd(&a, &b, &z(&[2, 5]))));
    }

    /// `gemm` reads B where it lies; the loop it replaced copied every
    /// `kc x nc` panel into scratch first. Same per-element order, so the
    /// same bits, on a shape that takes several panels both ways.
    #[test]
    fn gemm_in_place_matches_a_packed_b_panel_bitwise() {
        let (m, k, n) = (37usize, KC + 44, NC + 70);
        let mut rng = init::seeded_rng(8);
        let a = init::randn(&mut rng, &[m, k], 1.0);
        let b = init::randn(&mut rng, &[k, n], 1.0);
        let c0 = init::randn(&mut rng, &[m, n], 1.0);
        let mut packed = c0.data().to_vec();
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                let mut bp = vec![0.0f32; kc * nc];
                for l in 0..kc {
                    let src = (pc + l) * n + jc;
                    bp[l * nc..(l + 1) * nc].copy_from_slice(&b.data()[src..src + nc]);
                }
                for (blk, c_blk) in packed.chunks_mut(MC * n).enumerate() {
                    mk::gemm_panel(
                        &mk::Panel {
                            a: a.data(),
                            a_off: blk * MC * k + pc,
                            a_stride: k,
                            a_lstride: 1,
                            bp: &bp,
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
                }
            }
        }
        let mut in_place = c0.data().to_vec();
        gemm(m, k, n, a.data(), b.data(), &mut in_place);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&in_place), bits(&packed));
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
