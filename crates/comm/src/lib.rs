//! # fpdt-comm
//!
//! Collective communication for the FPDT reproduction's *real* runtime,
//! where each simulated GPU is an OS thread. Channels stand in for
//! NVLink/InfiniBand; the collectives preserve the semantics the paper's
//! dataflow relies on:
//!
//! * **SPMD lockstep** — every rank must call the same collectives in the
//!   same order (the NCCL contract). Debug builds verify this with
//!   per-message op/sequence tags and panic on divergence.
//! * **Deterministic reductions** — sums always accumulate in rank order,
//!   so a training run is bit-reproducible regardless of thread timing.
//! * **No in-place all-to-all** — like the paper's Table 2 notes, receive
//!   buffers are fresh allocations, which is what creates the `3·N·d`
//!   vs `6·N·d` transient the chunked design shrinks.
//!
//! The main entry points are [`CommGroup::new`] +
//! [`CommGroup::communicators`] with [`spawn_rank`] (long-lived rank
//! threads) and [`run_group`] (scoped-thread convenience).
//!
//! ## Example
//!
//! ```
//! use fpdt_comm::run_group;
//!
//! let results = run_group(4, |comm| {
//!     let mine = vec![comm.rank() as f32];
//!     let all = comm.all_gather(&mine).expect("group alive");
//!     all.concat()
//! });
//! assert_eq!(results[2], vec![0.0, 1.0, 2.0, 3.0]);
//! ```
//!
//! Every collective returns `Result<_, CommError>`; for overlapping
//! communication with compute, post collectives on the per-rank
//! [`CommEngine`] stream and resolve the returned [`Pending`] handle with
//! [`CommEngine::wait`] when the payload is needed.

#![deny(missing_docs)]
// Comm errors become `CommError`s for the retry path, never rank panics.
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod collectives;
mod engine;
mod error;
mod group;
mod stats;

pub use collectives::AllToAllLayout;
pub use engine::{CommEngine, Pending};
pub use error::CommError;
pub use group::{run_group, spawn_rank, CommGroup, Communicator};
pub use stats::{CommStats, OpStats};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CommError>;
