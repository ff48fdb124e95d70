//! # fpdt-sim
//!
//! A discrete-event simulator of a GPU training cluster, calibrated to the
//! FPDT paper's testbed (A100 nodes, NVLink-3 intra-node, PCIe Gen-4 to
//! host, HDR InfiniBand between nodes).
//!
//! The simulator has three layers:
//!
//! * [`hw`] — hardware specifications: GPU compute throughput and HBM,
//!   link bandwidths, node/cluster topology, with presets matching the
//!   paper's experimental setup (§5.1).
//! * [`cost`] — closed-form duration estimates for GEMMs, attention tiles,
//!   collectives and host↔device transfers on a given [`hw::ClusterSpec`].
//! * [`engine`] — a processor-sharing discrete-event engine: tasks run on
//!   named per-device *streams* (compute, H2D copy, D2H copy — the three
//!   CUDA streams of paper Figure 7), serialize within a stream, respect
//!   explicit dependencies, and share *resources* (e.g. a node's PCIe
//!   link) with fair bandwidth splitting. [`memory`] pools track
//!   allocations tasks make, producing the peak usage and timelines of
//!   paper Figures 12 and 13.
//!
//! The parallelism strategies in `fpdt-parallel` and the FPDT pipeline in
//! `fpdt-core` emit task graphs into this engine; MFU falls out as
//! `model FLOPs / (makespan × peak FLOPs × #GPUs)`.
//!
//! ## Example
//!
//! ```
//! use fpdt_sim::engine::{Engine, Work};
//!
//! # fn main() -> Result<(), fpdt_sim::SimError> {
//! let mut eng = Engine::new();
//! let compute = eng.add_stream("gpu0.compute");
//! let copy = eng.add_stream("gpu0.h2d");
//! let pcie = eng.add_resource("pcie", 32e9, 0.0);
//!
//! let fetch = eng.add_task("fetch", copy, Work::Transfer { bytes: 32_000_000_000, resource: pcie })?;
//! let mut attn = eng.task("attn", compute, Work::Compute { seconds: 0.5 });
//! attn.deps(&[fetch]);
//! let attn = attn.submit()?;
//! let report = eng.run()?;
//! assert!(report.finish_time(attn)? >= 1.5); // 1s transfer + 0.5s compute
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod cost;
pub mod engine;
mod error;
pub mod hw;
pub mod memory;

pub use error::SimError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SimError>;
