//! # fpdt-attention
//!
//! Exact attention kernels for the FPDT reproduction, all operating on
//! `[seq, heads, head_dim]` tensors (the layout produced by the Ulysses
//! all-to-all: full sequence, local heads).
//!
//! Two levels of the same computation, equal up to floating-point
//! reassociation:
//!
//! 1. [`mod@reference`] — materializes the full `QKᵀ` score matrix. `O(N²)`
//!    memory; the ground truth everything else is property-tested against.
//! 2. [`online`] — FlashAttention-style blockwise online softmax with a
//!    carried `(acc, m, l)` state and a log-sum-exp side output, plus the
//!    matching blockwise backward. `O(N)` memory.
//!
//! FPDT's chunk schedule — the forward streaming KV chunks through an
//! [`online::OnlineAttention`] per query chunk, the backward the paper's
//! Figure-7 tile nest over [`online::attention_block_bwd`] — lives in one
//! place, `fpdt-core`'s `DistAttention`, which also runs on one device.
//!
//! Causality is expressed through *global token positions*, not chunk
//! indices — a query at global position `p` attends to keys at positions
//! `<= p`. This is exactly what makes the paper's rank-ordinal chunk
//! shuffle (Figure 6) legal: after the shuffle, every gathered chunk still
//! carries its global positions, so the same kernels serve shuffled and
//! contiguous layouts.
//!
//! ## Example
//!
//! ```
//! use fpdt_attention::{online::OnlineAttention, reference};
//! use fpdt_tensor::init;
//!
//! # fn main() -> Result<(), fpdt_tensor::TensorError> {
//! let mut rng = init::seeded_rng(1);
//! let (s, h, d) = (16, 2, 8);
//! let q = init::randn(&mut rng, &[s, h, d], 1.0);
//! let k = init::randn(&mut rng, &[s, h, d], 1.0);
//! let v = init::randn(&mut rng, &[s, h, d], 1.0);
//! let pos: Vec<usize> = (0..s).collect();
//!
//! let full = reference::causal_attention(&q, &k, &v)?;
//! // Stream the keys in four blocks, as KV chunks arrive from the host.
//! let mut st = OnlineAttention::new(&q, &pos, None)?;
//! for j in 0..4 {
//!     let (kj, vj) = (k.narrow(0, 4 * j, 4)?, v.narrow(0, 4 * j, 4)?);
//!     st.update(&kj, &vj, &pos[4 * j..4 * (j + 1)])?;
//! }
//! let (streamed, _lse) = st.finalize();
//! assert!(streamed.allclose(&full, 1e-4, 1e-5));
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod flops;
pub mod online;
pub mod reference;

pub use fpdt_tensor::{Result, Tensor, TensorError};

/// Default softmax scale `1/sqrt(head_dim)` used when callers pass no
/// explicit scale.
pub fn default_scale(head_dim: usize) -> f32 {
    1.0 / (head_dim as f32).sqrt()
}

/// Validates a `[seq, heads, head_dim]` tensor and returns `(s, h, d)`.
pub(crate) fn shd(t: &Tensor, op: &'static str) -> Result<(usize, usize, usize)> {
    if t.ndim() != 3 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 3,
            actual: t.ndim(),
        });
    }
    Ok((t.shape()[0], t.shape()[1], t.shape()[2]))
}

/// Validates a grouped-query `q/k/v` triple: `q: [sq, hq, d]`,
/// `k/v: [sk, hkv, d]` with `hq % hkv == 0` (MHA is the `hq == hkv`
/// case). Sequence lengths may differ between q and kv, as they do inside
/// a chunk pipeline. Returns `(sq, sk, hq, hkv, d)`.
pub(crate) fn check_qkv(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    op: &'static str,
) -> Result<(usize, usize, usize, usize, usize)> {
    let (sq, hq, d) = shd(q, op)?;
    let (sk, hk, dk) = shd(k, op)?;
    let (sv, hv, dv) = shd(v, op)?;
    if dk != d || dv != d || hv != hk || sv != sk || hk == 0 || hq % hk != 0 {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: q.shape().to_vec(),
            rhs: k.shape().to_vec(),
        });
    }
    Ok((sq, sk, hq, hk, d))
}
