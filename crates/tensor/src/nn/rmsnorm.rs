use super::split_grad;
use crate::ops::{self, RmsNormCtx};
use crate::{Result, Tensor};

/// An RMS-norm layer (Llama-style: scale only, no shift) owning its
/// `gamma` parameter.
#[derive(Debug, Clone)]
pub struct RmsNorm {
    /// Scale parameter `[dim]`.
    pub gamma: Tensor,
    eps: f32,
}

impl RmsNorm {
    /// Creates an RMS norm over the last axis of extent `dim` (`gamma = 1`).
    pub fn new(dim: usize, eps: f32) -> Self {
        RmsNorm {
            gamma: Tensor::ones(&[dim]),
            eps,
        }
    }

    /// Normalized dimension.
    pub fn dim(&self) -> usize {
        self.gamma.numel()
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.dim()
    }

    /// Normalizes `x` over its last axis, returning output plus the
    /// backward context.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from [`ops::rmsnorm`].
    pub fn forward(&self, x: &Tensor) -> Result<(Tensor, RmsNormCtx)> {
        ops::rmsnorm(x, &self.gamma, self.eps)
    }

    /// Adds the `gamma` gradient into `grad` and returns `dx`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from [`ops::rmsnorm_bwd_into`]; a `grad` of
    /// the wrong length is a [`crate::TensorError::LengthMismatch`].
    pub fn backward(
        &self,
        x: &Tensor,
        ctx: &RmsNormCtx,
        dy: &Tensor,
        grad: &mut [f32],
    ) -> Result<Tensor> {
        let [gg] = split_grad(grad, [self.dim()])?;
        ops::rmsnorm_bwd_into(x, &self.gamma, ctx, dy, gg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    #[test]
    fn forward_backward_round_trip() {
        let mut rng = init::seeded_rng(80);
        let rn = RmsNorm::new(8, 1e-6);
        let x = init::randn(&mut rng, &[4, 8], 2.0);
        let (y, ctx) = rn.forward(&x).unwrap();
        assert_eq!(y.shape(), x.shape());
        let dy = init::randn(&mut rng, &[4, 8], 1.0);
        assert_eq!(rn.param_count(), 8);
        let mut grad = vec![0.0f32; 8];
        let dx = rn.backward(&x, &ctx, &dy, &mut grad).unwrap();
        assert_eq!(dx.shape(), x.shape());
        assert!(grad.iter().any(|g| *g != 0.0));
        assert!(rn.backward(&x, &ctx, &dy, &mut grad[..7]).is_err());
    }

    #[test]
    fn chunked_backward_accumulates() {
        let mut rng = init::seeded_rng(81);
        let x = init::randn(&mut rng, &[4, 8], 1.0);
        let dy = init::randn(&mut rng, &[4, 8], 1.0);
        let rn = RmsNorm::new(8, 1e-6);
        let mut whole = vec![0.0f32; 8];
        let mut chunked = whole.clone();
        let (_, ctx) = rn.forward(&x).unwrap();
        rn.backward(&x, &ctx, &dy, &mut whole).unwrap();
        for c in 0..2 {
            let xc = x.narrow(0, c * 2, 2).unwrap();
            let dyc = dy.narrow(0, c * 2, 2).unwrap();
            let (_, ctxc) = rn.forward(&xc).unwrap();
            rn.backward(&xc, &ctxc, &dyc, &mut chunked).unwrap();
        }
        for (c, w) in chunked.iter().zip(&whole) {
            assert!((c - w).abs() <= 1e-5 + 1e-4 * w.abs(), "{c} vs {w}");
        }
    }
}
