//! Stateful neural-network layers and an AdamW optimizer.
//!
//! Layers own their parameters; activations flow through as values
//! together with explicit backward contexts, so the FPDT runtime can re-run
//! forward chunks (activation checkpointing) and drive backward in its own
//! chunk order. Gradients do not live in the layers: every `backward` adds
//! into a caller-provided slice of `param_count()` floats laid out in the
//! layer's parameter order, so a model keeps all of them in one flat buffer.

mod adamw;
mod embedding;
mod layernorm;
mod linear;
mod rmsnorm;

pub use adamw::{AdamW, AdamWConfig};
pub use embedding::Embedding;
pub use layernorm::LayerNorm;
pub use linear::Linear;
pub use rmsnorm::RmsNorm;

use crate::{Result, TensorError};

/// Splits a gradient slice into consecutive parts of the given lengths:
/// how a layer (or a model) hands each parameter its stretch of the flat
/// buffer.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] unless the lengths sum to
/// `grad.len()`.
pub fn split_grad<const N: usize>(grad: &mut [f32], lens: [usize; N]) -> Result<[&mut [f32]; N]> {
    let total: usize = lens.iter().sum();
    if grad.len() != total {
        return Err(TensorError::LengthMismatch {
            expected: total,
            actual: grad.len(),
        });
    }
    let mut rest = grad;
    Ok(lens.map(|n| {
        let (part, tail) = std::mem::take(&mut rest).split_at_mut(n);
        rest = tail;
        part
    }))
}
