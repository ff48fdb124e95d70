//! `fpdt-trace`: the workspace's observability layer.
//!
//! The FPDT paper's core claims are about *overlap* — PCIe fetches hidden
//! behind online-attention compute across three CUDA streams. This crate
//! turns the structured event logs produced by [`fpdt_sim::engine`] (and
//! wall-clock spans from the real runtime) into artifacts you can look at
//! and regress against:
//!
//! * [`chrome`] — Chrome `trace_event` JSON (load in Perfetto or
//!   `chrome://tracing`) with one track per stream, memory-pool counters,
//!   and per-resource bandwidth counters.
//! * [`metrics`] — derived numbers: per-stream occupancy, compute/copy
//!   overlap ratio, per-resource (e.g. PCIe) busy fraction, and HBM
//!   high-water marks.
//! * [`span`] — a lightweight RAII [`span::Recorder`] for wall-clock
//!   instrumentation of the real (thread-based) runtime; exports to the
//!   same Chrome format.
//! * [`wire`] — opt-in simulated-interconnect occupancy at a bandwidth
//!   the caller passes (`FPDT_SIM_GBPS` by default) so the real
//!   runtime's transfers take wall-clock time proportional to their wire
//!   bytes.
//!
//! [`fpdt_sim::engine`]: fpdt_sim::engine

#![deny(missing_docs)]

pub mod chrome;
mod json;
pub mod metrics;
pub mod span;
pub mod wire;

pub use chrome::sim_chrome_trace;
pub use metrics::ScheduleMetrics;
pub use span::{hidden_fraction, overlap_fraction, Recorder, Span, SpanRecord};
