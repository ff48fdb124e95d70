//! Layer normalization and RMS normalization with hand-derived backward
//! passes, applied over the last axis.
//!
//! All kernels fan out over independent rows (or, for the `dgamma` /
//! `dbeta` reductions, independent column blocks with rows accumulated in
//! ascending order), so results are bitwise identical at any thread count.

use crate::{par, Result, Tensor, TensorError};

/// Column-block size for the parameter-gradient reductions.
const COL_BLOCK: usize = 64;

/// Saved forward state required by [`layernorm_bwd`].
#[derive(Debug, Clone)]
pub struct LayerNormCtx {
    /// Per-row mean.
    pub mean: Vec<f32>,
    /// Per-row reciprocal standard deviation.
    pub rstd: Vec<f32>,
}

/// Saved forward state required by [`rmsnorm_bwd`].
#[derive(Debug, Clone)]
pub struct RmsNormCtx {
    /// Per-row reciprocal root-mean-square.
    pub rrms: Vec<f32>,
}

fn check_last_dim(op: &'static str, x: &Tensor, gamma: &Tensor) -> Result<usize> {
    let d = *x.shape().last().unwrap_or(&0);
    if gamma.numel() != d || d == 0 {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: x.shape().to_vec(),
            rhs: gamma.shape().to_vec(),
        });
    }
    Ok(d)
}

/// Layer normalization over the last axis:
/// `y = gamma * (x - mean) / sqrt(var + eps) + beta`.
///
/// Returns the output and the context needed by [`layernorm_bwd`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `gamma` and `beta` have the
/// extent of the last axis of `x`.
pub fn layernorm(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> Result<(Tensor, LayerNormCtx)> {
    let d = check_last_dim("layernorm", x, gamma)?;
    if beta.numel() != d {
        return Err(TensorError::ShapeMismatch {
            op: "layernorm",
            lhs: x.shape().to_vec(),
            rhs: beta.shape().to_vec(),
        });
    }
    let rows = x.numel() / d;
    let mut out = x.clone();
    let mut mean = vec![0.0f32; rows];
    let mut rstd = vec![0.0f32; rows];
    let (gs, bs) = (gamma.data(), beta.data());
    par::run_rows3(
        out.data_mut(),
        d,
        &mut mean,
        1,
        &mut rstd,
        1,
        x.numel(),
        |_, row, mean, rstd| {
            let m = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|&v| (v - m) * (v - m)).sum::<f32>() / d as f32;
            let r = 1.0 / (var + eps).sqrt();
            for (v, (&g, &b)) in row.iter_mut().zip(gs.iter().zip(bs)) {
                *v = (*v - m) * r * g + b;
            }
            mean[0] = m;
            rstd[0] = r;
        },
    );
    Ok((out, LayerNormCtx { mean, rstd }))
}

/// Backward pass of [`layernorm`]. Returns `(dx, dgamma, dbeta)`: the
/// zero-start case of [`layernorm_bwd_into`].
///
/// # Errors
///
/// As [`layernorm_bwd_into`].
pub fn layernorm_bwd(
    x: &Tensor,
    gamma: &Tensor,
    ctx: &LayerNormCtx,
    dy: &Tensor,
) -> Result<(Tensor, Tensor, Tensor)> {
    let [mut dgamma, mut dbeta] = [(); 2].map(|()| Tensor::zeros(&[gamma.numel()]));
    let dx = layernorm_bwd_into(x, gamma, ctx, dy, dgamma.data_mut(), dbeta.data_mut())?;
    Ok((dx, dgamma, dbeta))
}

/// [`layernorm_bwd`] with `dgamma` and `dbeta` added into the caller's
/// slices, each column's rows in ascending order: the rows of one call
/// continue the chain of the rows before them, so ascending row cuts
/// chained into one slice give the bits of one whole call. Returns `dx`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the saved input, `gamma` or
/// `dy` disagree in shape, and [`TensorError::LengthMismatch`] when a
/// gradient slice is not one float per column. Nothing is written on
/// error.
pub fn layernorm_bwd_into(
    x: &Tensor,
    gamma: &Tensor,
    ctx: &LayerNormCtx,
    dy: &Tensor,
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) -> Result<Tensor> {
    let (d, rows) = check_bwd("layernorm_bwd", x, gamma, dy, &[dgamma.len(), dbeta.len()])?;
    let mut dx = Tensor::zeros(x.shape());
    let (xd, dyd, gd) = (x.data(), dy.data(), gamma.data());
    let work = x.numel();
    // xhat_i = (x_i - m) * rs ; y = g*xhat + b
    // dx = rs/d * (d*dxhat - sum(dxhat) - xhat * sum(dxhat*xhat))
    par::run_rows(dx.data_mut(), d, work, |r, dxs| {
        let xs = &xd[r * d..(r + 1) * d];
        let dys = &dyd[r * d..(r + 1) * d];
        let (m, rs) = (ctx.mean[r], ctx.rstd[r]);
        let mut sum_dxhat = 0.0;
        let mut sum_dxhat_xhat = 0.0;
        for i in 0..d {
            let xhat = (xs[i] - m) * rs;
            let dxhat = dys[i] * gd[i];
            sum_dxhat += dxhat;
            sum_dxhat_xhat += dxhat * xhat;
        }
        for i in 0..d {
            let xhat = (xs[i] - m) * rs;
            let dxhat = dys[i] * gd[i];
            dxs[i] = rs * (dxhat - (sum_dxhat + xhat * sum_dxhat_xhat) / d as f32);
        }
    });
    // Parameter gradients: parallel over column blocks, rows ascending
    // inside each column, so each column's chain runs on across calls.
    par::run_rows2(dgamma, COL_BLOCK, dbeta, COL_BLOCK, work, |cb, dgs, dbs| {
        let c0 = cb * COL_BLOCK;
        for r in 0..rows {
            let (m, rs) = (ctx.mean[r], ctx.rstd[r]);
            for (j, (dg, db)) in dgs.iter_mut().zip(dbs.iter_mut()).enumerate() {
                let i = c0 + j;
                let (xv, dyv) = (xd[r * d + i], dyd[r * d + i]);
                let xhat = (xv - m) * rs;
                *dg += dyv * xhat;
                *db += dyv;
            }
        }
    });
    Ok(dx)
}

/// RMS normalization over the last axis (`y = gamma * x / rms(x)`), the
/// variant used by Llama.
///
/// Returns the output and the context needed by [`rmsnorm_bwd`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `gamma` has the extent of
/// the last axis of `x`.
pub fn rmsnorm(x: &Tensor, gamma: &Tensor, eps: f32) -> Result<(Tensor, RmsNormCtx)> {
    let d = check_last_dim("rmsnorm", x, gamma)?;
    let mut out = x.clone();
    let rows = x.numel() / d;
    let mut rrms = vec![0.0f32; rows];
    let gs = gamma.data();
    par::run_rows2(out.data_mut(), d, &mut rrms, 1, x.numel(), |_, row, rr| {
        let ms = row.iter().map(|&v| v * v).sum::<f32>() / d as f32;
        let r = 1.0 / (ms + eps).sqrt();
        for (v, &g) in row.iter_mut().zip(gs) {
            *v = *v * r * g;
        }
        rr[0] = r;
    });
    Ok((out, RmsNormCtx { rrms }))
}

/// Backward pass of [`rmsnorm`]. Returns `(dx, dgamma)`: the zero-start
/// case of [`rmsnorm_bwd_into`].
///
/// # Errors
///
/// As [`rmsnorm_bwd_into`].
pub fn rmsnorm_bwd(
    x: &Tensor,
    gamma: &Tensor,
    ctx: &RmsNormCtx,
    dy: &Tensor,
) -> Result<(Tensor, Tensor)> {
    let mut dgamma = Tensor::zeros(&[gamma.numel()]);
    let dx = rmsnorm_bwd_into(x, gamma, ctx, dy, dgamma.data_mut())?;
    Ok((dx, dgamma))
}

/// [`rmsnorm_bwd`] with `dgamma` added into the caller's slice, each
/// column's rows in ascending order, as [`layernorm_bwd_into`] does.
/// Returns `dx`.
///
/// # Errors
///
/// As [`layernorm_bwd_into`].
pub fn rmsnorm_bwd_into(
    x: &Tensor,
    gamma: &Tensor,
    ctx: &RmsNormCtx,
    dy: &Tensor,
    dgamma: &mut [f32],
) -> Result<Tensor> {
    let (d, rows) = check_bwd("rmsnorm_bwd", x, gamma, dy, &[dgamma.len()])?;
    let mut dx = Tensor::zeros(x.shape());
    let (xd, dyd, gd) = (x.data(), dy.data(), gamma.data());
    let work = x.numel();
    // y_i = g_i * x_i * rr, rr = (mean(x^2)+eps)^{-1/2}
    // dx_i = rr*g_i*dy_i - x_i * rr^3/d * sum_j dy_j g_j x_j
    par::run_rows(dx.data_mut(), d, work, |r, dxs| {
        let xs = &xd[r * d..(r + 1) * d];
        let dys = &dyd[r * d..(r + 1) * d];
        let rr = ctx.rrms[r];
        let mut dot = 0.0;
        for i in 0..d {
            dot += dys[i] * gd[i] * xs[i];
        }
        for i in 0..d {
            dxs[i] = rr * gd[i] * dys[i] - xs[i] * rr * rr * rr * dot / d as f32;
        }
    });
    par::run_rows(dgamma, COL_BLOCK, work, |cb, dgs| {
        let c0 = cb * COL_BLOCK;
        for r in 0..rows {
            let rr = ctx.rrms[r];
            for (j, dg) in dgs.iter_mut().enumerate() {
                let i = c0 + j;
                *dg += dyd[r * d + i] * xd[r * d + i] * rr;
            }
        }
    });
    Ok(dx)
}

/// The checks every norm backward shares: `x` and `dy` of one shape whose
/// last extent `d` is `gamma`'s, and gradient slices of `d` floats.
/// Returns `(d, rows)`.
fn check_bwd(
    op: &'static str,
    x: &Tensor,
    gamma: &Tensor,
    dy: &Tensor,
    grads: &[usize],
) -> Result<(usize, usize)> {
    let d = check_last_dim(op, x, gamma)?;
    if x.shape() != dy.shape() {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: x.shape().to_vec(),
            rhs: dy.shape().to_vec(),
        });
    }
    let expected = d;
    match grads.iter().find(|&&n| n != expected) {
        Some(&actual) => Err(TensorError::LengthMismatch { expected, actual }),
        None => Ok((d, x.numel() / d)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    #[test]
    fn layernorm_output_is_normalized() {
        let mut rng = init::seeded_rng(20);
        let x = init::randn(&mut rng, &[4, 16], 3.0);
        let g = Tensor::ones(&[16]);
        let b = Tensor::zeros(&[16]);
        let (y, _) = layernorm(&x, &g, &b, 1e-5).unwrap();
        for row in y.data().chunks(16) {
            let m: f32 = row.iter().sum::<f32>() / 16.0;
            let v: f32 = row.iter().map(|&t| (t - m) * (t - m)).sum::<f32>() / 16.0;
            assert!(m.abs() < 1e-4);
            assert!((v - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn layernorm_bwd_finite_difference() {
        let mut rng = init::seeded_rng(21);
        let x = init::randn(&mut rng, &[3, 8], 1.0);
        let g = init::randn(&mut rng, &[8], 1.0);
        let b = init::randn(&mut rng, &[8], 1.0);
        let dy = init::randn(&mut rng, &[3, 8], 1.0);
        let (_, ctx) = layernorm(&x, &g, &b, 1e-5).unwrap();
        let (dx, dgamma, dbeta) = layernorm_bwd(&x, &g, &ctx, &dy).unwrap();
        let eps = 1e-3;
        let loss = |x: &Tensor, g: &Tensor, b: &Tensor| {
            let (y, _) = layernorm(x, g, b, 1e-5).unwrap();
            y.mul(&dy).unwrap().sum()
        };
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (loss(&xp, &g, &b) - loss(&xm, &g, &b)) / (2.0 * eps);
            assert!(
                (fd - dx.data()[i]).abs() < 2e-2,
                "dx[{i}] fd {fd} got {}",
                dx.data()[i]
            );
        }
        for i in 0..8 {
            let mut gp = g.clone();
            gp.data_mut()[i] += eps;
            let mut gm = g.clone();
            gm.data_mut()[i] -= eps;
            let fd = (loss(&x, &gp, &b) - loss(&x, &gm, &b)) / (2.0 * eps);
            assert!((fd - dgamma.data()[i]).abs() < 2e-2);
            let mut bp = b.clone();
            bp.data_mut()[i] += eps;
            let mut bm = b.clone();
            bm.data_mut()[i] -= eps;
            let fd = (loss(&x, &g, &bp) - loss(&x, &g, &bm)) / (2.0 * eps);
            assert!((fd - dbeta.data()[i]).abs() < 2e-2);
        }
    }

    #[test]
    fn rmsnorm_unit_rms() {
        let mut rng = init::seeded_rng(22);
        let x = init::randn(&mut rng, &[4, 16], 2.0);
        let g = Tensor::ones(&[16]);
        let (y, _) = rmsnorm(&x, &g, 1e-6).unwrap();
        for row in y.data().chunks(16) {
            let ms: f32 = row.iter().map(|&t| t * t).sum::<f32>() / 16.0;
            assert!((ms - 1.0).abs() < 1e-2, "rms^2 {ms}");
        }
    }

    #[test]
    fn rmsnorm_bwd_finite_difference() {
        let mut rng = init::seeded_rng(23);
        let x = init::randn(&mut rng, &[2, 8], 1.0);
        let g = init::randn(&mut rng, &[8], 1.0);
        let dy = init::randn(&mut rng, &[2, 8], 1.0);
        let (_, ctx) = rmsnorm(&x, &g, 1e-6).unwrap();
        let (dx, dgamma) = rmsnorm_bwd(&x, &g, &ctx, &dy).unwrap();
        let eps = 1e-3;
        let loss = |x: &Tensor, g: &Tensor| {
            let (y, _) = rmsnorm(x, g, 1e-6).unwrap();
            y.mul(&dy).unwrap().sum()
        };
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (loss(&xp, &g) - loss(&xm, &g)) / (2.0 * eps);
            assert!((fd - dx.data()[i]).abs() < 2e-2, "dx[{i}]");
        }
        for i in 0..8 {
            let mut gp = g.clone();
            gp.data_mut()[i] += eps;
            let mut gm = g.clone();
            gm.data_mut()[i] -= eps;
            let fd = (loss(&x, &gp) - loss(&x, &gm)) / (2.0 * eps);
            assert!((fd - dgamma.data()[i]).abs() < 2e-2, "dgamma[{i}]");
        }
    }

    #[test]
    fn ragged_row_cuts_chain_into_one_slice_bit_for_bit() {
        // 70 columns straddle COL_BLOCK; the cuts are ragged and ascending.
        // Each cut's `_into` call, on its own rows and statistics, adds into
        // one prefilled slice; the result is one whole `_into` call's.
        use crate::mk::{self, Backend};
        use crate::KernelCtx;
        let mut rng = init::seeded_rng(24);
        let x = init::randn(&mut rng, &[23, 70], 1.0);
        let dy = init::randn(&mut rng, &[23, 70], 1.0);
        let g = init::randn(&mut rng, &[70], 0.5);
        let b = init::randn(&mut rng, &[70], 0.5);
        let prefill = init::randn(&mut rng, &[3 * 70], 1.0).into_vec();
        let cuts = [0usize, 1, 8, 9, 20, 23];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // `[dgamma | dbeta | rms dgamma]` and both norms' `dx`, one call
        // per cut of `rows`.
        let run = |rows: &[usize]| {
            let mut grads = prefill.clone();
            let (gl, grms) = grads.split_at_mut(2 * 70);
            let (gg, gb) = gl.split_at_mut(70);
            let (mut dxl, mut dxr) = (Vec::new(), Vec::new());
            for w in rows.windows(2) {
                let (r0, n) = (w[0], w[1] - w[0]);
                let (xc, dyc) = (x.narrow(0, r0, n).unwrap(), dy.narrow(0, r0, n).unwrap());
                let (_, ln) = layernorm(&xc, &g, &b, 1e-5).unwrap();
                let (_, rms) = rmsnorm(&xc, &g, 1e-6).unwrap();
                dxl.extend(bits(
                    layernorm_bwd_into(&xc, &g, &ln, &dyc, gg, gb)
                        .unwrap()
                        .data(),
                ));
                dxr.extend(bits(
                    rmsnorm_bwd_into(&xc, &g, &rms, &dyc, grms).unwrap().data(),
                ));
            }
            (bits(&grads), dxl, dxr)
        };
        let mut backends = vec![Backend::Scalar];
        if mk::avx2_available() {
            backends.push(Backend::Avx2);
        }
        for backend in backends {
            for threads in [1, 3] {
                let ctx = KernelCtx {
                    threads,
                    par_threshold: 1,
                    backend,
                };
                let (whole, cut) = ctx.enter(|| (run(&[0, 23]), run(&cuts)));
                assert!(whole.0 != bits(&prefill), "the gradients moved");
                assert_eq!(whole, cut, "{backend:?} at {threads} threads");
            }
        }
        // The zero-start case is the allocating form, bit for bit.
        let (_, ln) = layernorm(&x, &g, &b, 1e-5).unwrap();
        let (dx, dg, db) = layernorm_bwd(&x, &g, &ln, &dy).unwrap();
        let (mut gg, mut gb) = (vec![0.0; 70], vec![0.0; 70]);
        let dx_into = layernorm_bwd_into(&x, &g, &ln, &dy, &mut gg, &mut gb).unwrap();
        assert_eq!(bits(dx.data()), bits(dx_into.data()));
        assert_eq!((bits(dg.data()), bits(db.data())), (bits(&gg), bits(&gb)));
        // Inputs of other shapes, or a slice of another width, are errors.
        assert!(
            layernorm_bwd_into(&x.narrow(0, 0, 5).unwrap(), &g, &ln, &dy, &mut gg, &mut gb)
                .is_err()
        );
        assert!(layernorm_bwd_into(&x, &g, &ln, &dy, &mut gg[1..], &mut gb).is_err());
    }

    #[test]
    fn shape_errors() {
        let x = Tensor::zeros(&[2, 4]);
        let bad = Tensor::zeros(&[3]);
        let ok = Tensor::zeros(&[4]);
        assert!(layernorm(&x, &bad, &ok, 1e-5).is_err());
        assert!(layernorm(&x, &ok, &bad, 1e-5).is_err());
        assert!(rmsnorm(&x, &bad, 1e-5).is_err());
    }
}
