//! Numerically stable softmax and fused softmax-cross-entropy.
//!
//! The fused loss mirrors the paper's observation (§5.4) that the final
//! vocabulary projection + softmax is itself a memory spike: callers chunk
//! the rows of `logits` and invoke [`cross_entropy`] per chunk, summing the
//! returned token counts and losses.

use crate::{mk, par, Result, Tensor, TensorError};

/// Row-wise softmax over the last axis. Rows are independent, so the
/// kernel fans out over them (bitwise deterministic at any thread count).
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let d = (*x.shape().last().unwrap_or(&1)).max(1);
    let mut out = x.clone();
    let work = x.numel();
    par::run_rows(out.data_mut(), d, work, |_, row| {
        let m = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - m).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    });
    out
}

/// Backward pass of [`softmax_rows`]: given `y = softmax(x)` and `dy`,
/// returns `dx = y * (dy - sum(dy * y))` per row.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `y` and `dy` differ in shape.
pub fn softmax_rows_bwd(y: &Tensor, dy: &Tensor) -> Result<Tensor> {
    if y.shape() != dy.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "softmax_rows_bwd",
            lhs: y.shape().to_vec(),
            rhs: dy.shape().to_vec(),
        });
    }
    let d = (*y.shape().last().unwrap_or(&1)).max(1);
    let mut dx = Tensor::zeros(y.shape());
    let yd = y.data();
    let dyd = dy.data();
    par::run_rows(dx.data_mut(), d, yd.len(), |r, dxs| {
        let ys = &yd[r * d..r * d + dxs.len()];
        let dys = &dyd[r * d..r * d + dxs.len()];
        let dot = par::dot(ys, dys);
        for i in 0..dxs.len() {
            dxs[i] = ys[i] * (dys[i] - dot);
        }
    });
    Ok(dx)
}

/// Result of a fused softmax-cross-entropy evaluation.
#[derive(Debug, Clone)]
pub struct CrossEntropyOutput {
    /// Sum of per-token negative log-likelihoods (not yet averaged).
    pub loss_sum: f32,
    /// Number of tokens that contributed (targets != `ignore_index`).
    pub tokens: usize,
    /// Gradient of `loss_sum` with respect to the logits.
    pub dlogits: Tensor,
}

/// Fused, numerically stable softmax + cross-entropy over `[n, vocab]`
/// logits with `usize` targets. Targets equal to `ignore_index` contribute
/// neither loss nor gradient.
///
/// The returned gradient is of the *summed* loss; divide by
/// [`CrossEntropyOutput::tokens`] (possibly accumulated across chunks) for a
/// mean-reduced loss, exactly as the chunked loss in FPDT does.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless `logits` is rank 2, and
/// [`TensorError::ShapeMismatch`] when `targets.len()` differs from the row
/// count or a target is out of vocabulary range.
pub fn cross_entropy(
    logits: &Tensor,
    targets: &[usize],
    ignore_index: usize,
) -> Result<CrossEntropyOutput> {
    if logits.ndim() != 2 {
        return Err(TensorError::RankMismatch {
            op: "cross_entropy",
            expected: 2,
            actual: logits.ndim(),
        });
    }
    let (n, v) = (logits.shape()[0], logits.shape()[1]);
    if targets.len() != n {
        return Err(TensorError::ShapeMismatch {
            op: "cross_entropy",
            lhs: vec![n, v],
            rhs: vec![targets.len()],
        });
    }
    if let Some(&t) = targets.iter().find(|&&t| t != ignore_index && t >= v) {
        return Err(TensorError::ShapeMismatch {
            op: "cross_entropy",
            lhs: vec![n, v],
            rhs: vec![t],
        });
    }
    let mut dlogits = Tensor::zeros(&[n, v]);
    let mut losses = vec![0.0f32; n];
    let xs = logits.data();
    par::run_rows2(
        dlogits.data_mut(),
        v,
        &mut losses,
        1,
        n.saturating_mul(v),
        |r, drow, loss| {
            let t = targets[r];
            if t == ignore_index {
                return;
            }
            let row = &xs[r * v..(r + 1) * v];
            let m = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            // One lane-wise exp per logit, in the gradient row itself:
            // softmax = exp(x - m) / sum, summed in ascending order.
            for (d, &x) in drow.iter_mut().zip(row) {
                *d = x - m;
            }
            mk::exp(drow);
            let mut sum = 0.0f32;
            for &e in drow.iter() {
                sum += e;
            }
            loss[0] = m + sum.ln() - row[t];
            let inv = 1.0 / sum;
            for d in drow.iter_mut() {
                *d *= inv;
            }
            drow[t] -= 1.0;
        },
    );
    // Reduce in ascending row order; ignored rows contribute an exact 0.0,
    // so this matches the old skip-and-accumulate loop bit for bit.
    let mut loss_sum = 0.0f32;
    let mut tokens = 0usize;
    for (r, &l) in losses.iter().enumerate() {
        loss_sum += l;
        tokens += usize::from(targets[r] != ignore_index);
    }
    Ok(CrossEntropyOutput {
        loss_sum,
        tokens,
        dlogits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = init::seeded_rng(30);
        let x = init::randn(&mut rng, &[5, 7], 4.0);
        let y = softmax_rows(&x);
        for row in y.data().chunks(7) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let y1 = softmax_rows(&x);
        let y2 = softmax_rows(&x.map(|v| v + 100.0));
        assert!(y1.allclose(&y2, 1e-5, 1e-6));
    }

    #[test]
    fn softmax_handles_extreme_logits() {
        let x = Tensor::from_vec(vec![1e4, -1e4, 0.0], &[1, 3]).unwrap();
        let y = softmax_rows(&x);
        assert!(y.data().iter().all(|v| v.is_finite()));
        assert!((y.data()[0] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_bwd_finite_difference() {
        let mut rng = init::seeded_rng(31);
        let x = init::randn(&mut rng, &[2, 5], 1.0);
        let dy = init::randn(&mut rng, &[2, 5], 1.0);
        let y = softmax_rows(&x);
        let dx = softmax_rows_bwd(&y, &dy).unwrap();
        let eps = 1e-3;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (softmax_rows(&xp).mul(&dy).unwrap().sum()
                - softmax_rows(&xm).mul(&dy).unwrap().sum())
                / (2.0 * eps);
            assert!((fd - dx.data()[i]).abs() < 1e-2, "i={i}");
        }
    }

    #[test]
    fn cross_entropy_uniform_logits() {
        let v = 8;
        let logits = Tensor::zeros(&[3, v]);
        let out = cross_entropy(&logits, &[0, 3, 7], usize::MAX).unwrap();
        assert_eq!(out.tokens, 3);
        let per_tok = out.loss_sum / 3.0;
        assert!((per_tok - (v as f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_ignores_masked_tokens() {
        let logits = Tensor::zeros(&[2, 4]);
        let out = cross_entropy(&logits, &[1, usize::MAX], usize::MAX).unwrap();
        assert_eq!(out.tokens, 1);
        // masked row has zero gradient
        assert!(out.dlogits.data()[4..].iter().all(|&g| g == 0.0));
    }

    #[test]
    fn cross_entropy_gradient_finite_difference() {
        let mut rng = init::seeded_rng(32);
        let logits = init::randn(&mut rng, &[3, 6], 1.0);
        let targets = [2usize, 0, 5];
        let out = cross_entropy(&logits, &targets, usize::MAX).unwrap();
        let eps = 1e-2;
        for i in 0..logits.numel() {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let fp = cross_entropy(&lp, &targets, usize::MAX).unwrap().loss_sum;
            let fm = cross_entropy(&lm, &targets, usize::MAX).unwrap().loss_sum;
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - out.dlogits.data()[i]).abs() < 1e-2,
                "i={i} fd={fd} got={}",
                out.dlogits.data()[i]
            );
        }
    }

    #[test]
    fn cross_entropy_chunked_equals_monolithic() {
        // This is the §5.4 loss-chunking argument in miniature.
        let mut rng = init::seeded_rng(33);
        let logits = init::randn(&mut rng, &[8, 10], 1.0);
        let targets: Vec<usize> = (0..8).map(|i| i % 10).collect();
        let full = cross_entropy(&logits, &targets, usize::MAX).unwrap();
        let mut loss = 0.0;
        let mut toks = 0;
        let mut grads = Vec::new();
        for c in 0..4 {
            let part = logits.narrow(0, c * 2, 2).unwrap();
            let out = cross_entropy(&part, &targets[c * 2..c * 2 + 2], usize::MAX).unwrap();
            loss += out.loss_sum;
            toks += out.tokens;
            grads.push(out.dlogits);
        }
        let refs: Vec<&Tensor> = grads.iter().collect();
        let dl = Tensor::concat(&refs, 0).unwrap();
        assert_eq!(toks, full.tokens);
        assert!((loss - full.loss_sum).abs() < 1e-4);
        assert!(dl.allclose(&full.dlogits, 1e-5, 1e-6));
    }

    #[test]
    fn cross_entropy_errors() {
        let logits = Tensor::zeros(&[2, 3]);
        assert!(cross_entropy(&logits, &[0], usize::MAX).is_err());
        assert!(cross_entropy(&logits, &[0, 9], usize::MAX).is_err());
        assert!(cross_entropy(&Tensor::zeros(&[6]), &[0], usize::MAX).is_err());
    }
}
