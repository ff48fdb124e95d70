use super::split_grad;
use crate::ops::{self, LayerNormCtx};
use crate::{Result, Tensor};

/// A layer-norm layer owning its `gamma`/`beta` parameters.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Scale parameter `[dim]`.
    pub gamma: Tensor,
    /// Shift parameter `[dim]`.
    pub beta: Tensor,
    eps: f32,
}

impl LayerNorm {
    /// Creates a layer norm over the last axis of extent `dim`
    /// (`gamma = 1`, `beta = 0`).
    pub fn new(dim: usize, eps: f32) -> Self {
        LayerNorm {
            gamma: Tensor::ones(&[dim]),
            beta: Tensor::zeros(&[dim]),
            eps,
        }
    }

    /// Normalized dimension.
    pub fn dim(&self) -> usize {
        self.gamma.numel()
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        2 * self.dim()
    }

    /// Normalizes `x` over its last axis, returning output plus the
    /// backward context.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from [`ops::layernorm`].
    pub fn forward(&self, x: &Tensor) -> Result<(Tensor, LayerNormCtx)> {
        ops::layernorm(x, &self.gamma, &self.beta, self.eps)
    }

    /// Adds the parameter gradients into `grad` (`[gamma | beta]`) and
    /// returns `dx`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from [`ops::layernorm_bwd_into`]; a `grad`
    /// of the wrong length is a [`crate::TensorError::LengthMismatch`].
    pub fn backward(
        &self,
        x: &Tensor,
        ctx: &LayerNormCtx,
        dy: &Tensor,
        grad: &mut [f32],
    ) -> Result<Tensor> {
        let [gg, gb] = split_grad(grad, [self.dim(), self.dim()])?;
        ops::layernorm_bwd_into(x, &self.gamma, ctx, dy, gg, gb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    #[test]
    fn forward_backward_round_trip() {
        let mut rng = init::seeded_rng(70);
        let ln = LayerNorm::new(8, 1e-5);
        let x = init::randn(&mut rng, &[4, 8], 2.0);
        let (y, ctx) = ln.forward(&x).unwrap();
        assert_eq!(y.shape(), x.shape());
        let dy = Tensor::ones(&[4, 8]);
        let mut grad = vec![0.0f32; ln.param_count()];
        let dx = ln.backward(&x, &ctx, &dy, &mut grad).unwrap();
        assert_eq!(dx.shape(), x.shape());
        // dbeta, the second half, is the column-sum of dy
        assert!(grad[8..].iter().all(|b| (b - 4.0).abs() < 1e-5));
        assert!(ln.backward(&x, &ctx, &dy, &mut grad[1..]).is_err());
    }

    #[test]
    fn chunked_backward_accumulates() {
        let mut rng = init::seeded_rng(71);
        let x = init::randn(&mut rng, &[4, 8], 1.0);
        let dy = init::randn(&mut rng, &[4, 8], 1.0);
        let ln = LayerNorm::new(8, 1e-5);
        let mut whole = vec![0.0f32; 16];
        let mut chunked = whole.clone();
        let (_, ctx) = ln.forward(&x).unwrap();
        ln.backward(&x, &ctx, &dy, &mut whole).unwrap();
        for c in 0..2 {
            let xc = x.narrow(0, c * 2, 2).unwrap();
            let dyc = dy.narrow(0, c * 2, 2).unwrap();
            let (_, ctxc) = ln.forward(&xc).unwrap();
            ln.backward(&xc, &ctxc, &dyc, &mut chunked).unwrap();
        }
        for (c, w) in chunked.iter().zip(&whole) {
            assert!((c - w).abs() <= 1e-5 + 1e-4 * w.abs(), "{c} vs {w}");
        }
    }

    #[test]
    fn param_count() {
        assert_eq!(LayerNorm::new(16, 1e-5).param_count(), 32);
    }
}
