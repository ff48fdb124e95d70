//! Forward and backward kernels for every operation a Transformer block
//! needs.
//!
//! Each forward function has a matching `*_bwd` that consumes the saved
//! forward context and the upstream gradient, mirroring how the FPDT
//! backward pass re-materializes per-chunk state. No tape or graph is
//! involved: `fpdt-core`'s runtime calls these in the right order.

mod elementwise;
mod matmul;
mod norm;
mod rope;
mod softmax;

pub use elementwise::{add_bias, add_bias_bwd, add_bias_bwd_into, gelu, gelu_bwd, silu, silu_bwd};
pub use matmul::{gemm, gemm_nt, gemm_tn, matmul, matmul_bwd, matmul_bwd_into};
pub use norm::{layernorm, layernorm_bwd, rmsnorm, rmsnorm_bwd, LayerNormCtx, RmsNormCtx};
pub use rope::RopeTable;
pub use softmax::{cross_entropy, softmax_rows, softmax_rows_bwd, CrossEntropyOutput};
