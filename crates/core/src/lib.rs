//! # fpdt-core
//!
//! The Fully Pipelined Distributed Transformer (FPDT) — the paper's
//! primary contribution. FPDT trains ultra-long-context LLMs by chunking
//! the sequence *inside* every Transformer block, running Ulysses-style
//! all-to-alls per chunk, streaming attention with an online-softmax
//! state, caching idle KV/Q chunks in host memory, and hiding the PCIe
//! traffic behind attention compute with a double-buffered three-stream
//! pipeline.
//!
//! The crate has two faces:
//!
//! * **Real execution** ([`runtime`], [`chunk`], [`offload`]): a
//!   thread-per-GPU training runtime that runs FPDT's exact dataflow on
//!   real numbers — chunked QKV projection, per-chunk all-to-all
//!   (`fpdt-comm`), rank-ordinal sequence shuffle (Figure 6), streaming
//!   attention (`fpdt-attention`), a host memory pool standing in for
//!   pinned CPU DRAM, and a tiled backward that walks the causal tile
//!   triangle in [`chunk::tile_slots`]'s balanced order.
//!   It reproduces the paper's correctness claims: loss curves identical
//!   to the non-chunked baseline (Figure 14).
//! * **Performance planning** ([`pipeline`], [`strategy`]): a schedule
//!   generator that emits the FPDT pipeline into the `fpdt-sim`
//!   discrete-event engine (three CUDA streams, PCIe contention, double
//!   buffering) plus an analytic memory model, packaged as an
//!   [`fpdt_parallel::Strategy`] so it slots into the same max-context /
//!   MFU harness as the baselines. This reproduces Tables 1/3 and
//!   Figures 1/10/11/12/13.
//!
//! ## Quickstart
//!
//! ```
//! use fpdt_core::strategy::Fpdt;
//! use fpdt_model::config::ModelConfig;
//! use fpdt_parallel::{max_seq_len, Strategy, TrainSetup};
//! use fpdt_sim::hw::ClusterSpec;
//!
//! // How long a context can FPDT train an 8B Llama on 4 A100-80G?
//! let fpdt = Fpdt::paper_default();
//! let best = max_seq_len(&fpdt, &ModelConfig::llama3_8b(), &ClusterSpec::a100_80g(1, 4));
//! assert!(best.unwrap() >= 2 * 1024 * 1024); // ≥ 2M tokens (paper Table 1)
//! ```

#![deny(missing_docs)]

pub mod chunk;
pub mod offload;
pub mod pipeline;
pub mod runtime;
pub mod strategy;
