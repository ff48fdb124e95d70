//! # fpdt-tensor
//!
//! A deliberately small, row-major, `f32` tensor library that backs the
//! numerical side of the FPDT reproduction.
//!
//! The crate provides:
//!
//! * [`Tensor`] — a contiguous, row-major, arbitrarily-ranked `f32` tensor
//!   with shape-checked constructors, axis splitting/concatenation (the
//!   primitive FPDT's sequence chunking is built on), and elementwise math.
//! * [`ops`] — free functions implementing forward *and* backward passes of
//!   every operation a GPT/Llama block needs: blocked parallel matmul,
//!   layer norm, GELU, softmax, rotary position embeddings and fused
//!   softmax-cross-entropy. Backward passes are hand-derived (no tape); the
//!   training runtime in `fpdt-core` wires them together.
//! * [`nn`] — stateful layers (`Linear`, `LayerNorm`, `Embedding`) plus an
//!   [`nn::AdamW`] optimizer with optional parameter sharding, mirroring how
//!   ZeRO partitions optimizer state.
//! * [`init`] — reproducible random initialization.
//! * [`KernelCtx`] — the per-thread kernel settings (thread budget,
//!   parallel-split threshold, SIMD backend) every kernel consults.
//! * [`ledger`] — the per-thread device tag every allocation is billed
//!   to, and the opt-in allocator that counts bytes per tag.
//!
//! Everything computes in `f32`. The paper's byte accounting assumes bf16
//! activations; the *analytic* crates (`fpdt-model`, `fpdt-sim`) account in
//! bf16 bytes while this crate focuses on numerical correctness.
//!
//! ## Example
//!
//! ```
//! use fpdt_tensor::{Tensor, ops};
//!
//! # fn main() -> Result<(), fpdt_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = ops::matmul(&a, &b)?;
//! assert_eq!(c.data(), a.data());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
// Kernels are clock-free and hash-order-free (crates/tensor/clippy.toml).
#![deny(clippy::disallowed_types)]

pub mod bf16;
mod ctx;
pub mod env;
mod error;
pub mod init;
pub mod ledger;
pub mod mk;
pub mod nn;
pub mod ops;
pub mod par;
mod tensor;

pub use ctx::KernelCtx;
pub use error::TensorError;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
