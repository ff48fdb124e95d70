//! Elementwise activations and bias broadcasting with gradients.
//!
//! GELU and SiLU run on the lane kernels of [`crate::mk`] (one polynomial
//! `exp` and one divide per element, scalar ≡ AVX2 bitwise); this module
//! only checks shapes and splits the buffer across the pool.

use crate::{mk, par, Result, Tensor, TensorError};

/// Block size for splitting flat elementwise kernels across the pool; the
/// math is purely per-element so any partition gives identical bits.
const ELEM_BLOCK: usize = 4096;

/// Column-block size for reductions over leading axes (`add_bias_bwd`,
/// the norm `dgamma`/`dbeta` sums): columns are independent, and within a
/// column rows are always accumulated in ascending order.
const COL_BLOCK: usize = 64;

fn activation(x: &Tensor, kernel: fn(&mut [f32])) -> Tensor {
    let mut out = x.clone();
    par::run_rows(out.data_mut(), ELEM_BLOCK, x.numel(), |_, blk| kernel(blk));
    out
}

fn activation_bwd(
    op: &'static str,
    x: &Tensor,
    dy: &Tensor,
    kernel: fn(&[f32], &[f32], &mut [f32]),
) -> Result<Tensor> {
    if x.shape() != dy.shape() {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: x.shape().to_vec(),
            rhs: dy.shape().to_vec(),
        });
    }
    let mut out = Tensor::zeros(x.shape());
    let (xs, dys) = (x.data(), dy.data());
    par::run_rows(out.data_mut(), ELEM_BLOCK, x.numel(), |blk_i, blk| {
        let at = blk_i * ELEM_BLOCK..blk_i * ELEM_BLOCK + blk.len();
        kernel(&xs[at.clone()], &dys[at], blk);
    });
    Ok(out)
}

/// GELU activation (tanh approximation, as used by GPT-2/3 and Llama's
/// reference implementations of `gelu_new`), evaluated as `x·σ(2u)`.
pub fn gelu(x: &Tensor) -> Tensor {
    activation(x, mk::gelu)
}

/// [`gelu`] and its gradient in one pass over buffers it takes over:
/// returns `(gelu(x), gelu'(x)·dy)`, written where `x` and `dy` were, the
/// first bit for bit what [`gelu`] gives. A backward that did not keep the
/// activation's output rebuilds it here from the one exponential the
/// gradient needs anyway.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `x` and `dy` differ in shape.
pub fn gelu_fwd_bwd(mut x: Tensor, mut dy: Tensor) -> Result<(Tensor, Tensor)> {
    if x.shape() != dy.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "gelu_fwd_bwd",
            lhs: x.shape().to_vec(),
            rhs: dy.shape().to_vec(),
        });
    }
    let n = x.numel();
    par::run_rows2(
        x.data_mut(),
        ELEM_BLOCK,
        dy.data_mut(),
        ELEM_BLOCK,
        n,
        |_, xs, dys| mk::gelu_fwd_bwd(xs, dys),
    );
    Ok((x, dy))
}

/// SiLU/swish activation `x * sigmoid(x)` (Llama MLP gate).
pub fn silu(x: &Tensor) -> Tensor {
    activation(x, mk::silu)
}

/// Gradient of [`silu`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `x` and `dy` differ in shape.
pub fn silu_bwd(x: &Tensor, dy: &Tensor) -> Result<Tensor> {
    activation_bwd("silu_bwd", x, dy, mk::silu_bwd)
}

/// Adds a rank-1 bias across the last axis of `x`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `bias.numel()` equals the
/// last extent of `x`.
pub fn add_bias(x: &Tensor, bias: &Tensor) -> Result<Tensor> {
    let d = *x.shape().last().unwrap_or(&0);
    if bias.numel() != d {
        return Err(TensorError::ShapeMismatch {
            op: "add_bias",
            lhs: x.shape().to_vec(),
            rhs: bias.shape().to_vec(),
        });
    }
    let mut out = x.clone();
    let bs = bias.data();
    par::run_rows(out.data_mut(), d, x.numel(), |_, row| {
        for (o, &b) in row.iter_mut().zip(bs) {
            *o += b;
        }
    });
    Ok(out)
}

/// Gradient of [`add_bias`] with respect to the bias: sums `dy` over all
/// leading axes. (`dx` is just `dy` and needs no helper.)
pub fn add_bias_bwd(dy: &Tensor, d: usize) -> Tensor {
    let mut db = Tensor::zeros(&[d]);
    add_bias_bwd_into(dy, db.data_mut());
    db
}

/// [`add_bias_bwd`] added into `db_acc` (one float per column of `dy`):
/// how a layer sums the bias gradient where it lives.
///
/// Parallel over *column* blocks; within a column the rows are reduced in
/// ascending order, so the sums match the sequential kernel bit for bit.
pub fn add_bias_bwd_into(dy: &Tensor, db_acc: &mut [f32]) {
    let d = db_acc.len();
    if d == 0 {
        return;
    }
    let dys = dy.data();
    par::run_rows(db_acc, COL_BLOCK, dys.len(), |cb, dbs| {
        let c0 = cb * COL_BLOCK;
        for row in dys.chunks(d) {
            // `axpy` truncates to the overlap, which also covers a ragged
            // final row exactly like the old zip-based loop did.
            mk::axpy(dbs, 1.0, &row[c0.min(row.len())..]);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    #[test]
    fn gelu_known_values() {
        let x = Tensor::from_vec(vec![0.0, 1.0, -1.0, 3.0], &[4]).unwrap();
        let y = gelu(&x);
        assert!((y.data()[0]).abs() < 1e-7);
        assert!((y.data()[1] - 0.8412).abs() < 1e-3);
        assert!((y.data()[2] + 0.1588).abs() < 1e-3);
        assert!((y.data()[3] - 2.9964).abs() < 1e-3);
    }

    #[test]
    fn fused_gelu_gradient_finite_difference() {
        let mut rng = init::seeded_rng(10);
        let x = init::randn(&mut rng, &[32], 1.5);
        let dy = Tensor::ones(&[32]);
        let (_, dx) = gelu_fwd_bwd(x.clone(), dy).unwrap();
        let eps = 1e-3;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (gelu(&xp).sum() - gelu(&xm).sum()) / (2.0 * eps);
            assert!(
                (fd - dx.data()[i]).abs() < 1e-2,
                "i={i} fd={fd} dx={}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn fused_gelu_is_blockwise_the_kernel_across_blocks() {
        // More than one ELEM_BLOCK, ragged, so the split runs.
        let mut rng = init::seeded_rng(12);
        let x = init::randn(&mut rng, &[3, 4099], 4.0);
        let dy = init::randn(&mut rng, &[3, 4099], 1.0);
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (g, dx) = gelu_fwd_bwd(x.clone(), dy.clone()).unwrap();
        assert_eq!(bits(g.data()), bits(gelu(&x).data()));
        let (mut wg, mut wdx) = (x.data().to_vec(), dy.data().to_vec());
        mk::gelu_fwd_bwd(&mut wg, &mut wdx);
        assert_eq!(bits(g.data()), bits(&wg));
        assert_eq!(bits(dx.data()), bits(&wdx));
        assert!(gelu_fwd_bwd(Tensor::zeros(&[2]), Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn silu_bwd_finite_difference() {
        let mut rng = init::seeded_rng(11);
        let x = init::randn(&mut rng, &[32], 1.5);
        let dy = Tensor::ones(&[32]);
        let dx = silu_bwd(&x, &dy).unwrap();
        let eps = 1e-3;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (silu(&xp).sum() - silu(&xm).sum()) / (2.0 * eps);
            assert!((fd - dx.data()[i]).abs() < 1e-2, "i={i}");
        }
    }

    #[test]
    fn bias_broadcast_and_grad() {
        let x = Tensor::arange(6).reshape(&[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]).unwrap();
        let y = add_bias(&x, &b).unwrap();
        assert_eq!(y.data(), &[10.0, 21.0, 32.0, 13.0, 24.0, 35.0]);
        let db = add_bias_bwd(&Tensor::ones(&[2, 3]), 3);
        assert_eq!(db.data(), &[2.0, 2.0, 2.0]);
        assert!(add_bias(&x, &Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn shape_mismatch_errors() {
        let x = Tensor::zeros(&[2]);
        let dy = Tensor::zeros(&[3]);
        assert!(silu_bwd(&x, &dy).is_err());
    }
}
