//! The real FPDT training runtime: threads as GPUs, channels as NVLink,
//! a keyed host pool as CPU DRAM.
//!
//! * [`data`] — a deterministic synthetic corpus (noisy Markov chain)
//!   that a small GPT learns quickly, so loss curves are informative.
//! * [`gpt`] — a GPT model with hand-written backward passes whose
//!   attention is pluggable: the same block code runs single-device,
//!   Ulysses (one all-to-all over the whole local sequence) and FPDT
//!   (per-chunk all-to-all + streaming attention + host offload +
//!   Figure-7 nested backward).
//! * [`exec`] — those attention executors.
//! * [`dist`] — the multi-threaded trainer, one long-lived session per
//!   rank, that reproduces paper Figure 14: baseline and FPDT loss curves
//!   coincide.
//! * [`options`] — [`RuntimeOptions`], the single builder behind every
//!   runtime knob (bf16 payloads, kernel threads, comm retries, fault
//!   injection, the simulated link). The comm and copy streams are not
//!   knobs: they are clocks on the rank thread at every link.
//! * [`ckpt`] — sharded, versioned checkpoint state: the
//!   [`StateDict`] container and the per-rank shard files that
//!   [`Trainer::checkpoint`](dist::Trainer::checkpoint) writes and
//!   [`Trainer::resume`](dist::Trainer::resume), the one reader of their
//!   schema, restores.
//! * [`autotune`] — measured autotuning: train a short run of every
//!   `(chunks, bf16)` cell exactly as it will run and pick the fastest.

pub mod autotune;
pub mod ckpt;
pub mod data;
pub mod dist;
pub mod exec;
pub mod gpt;
pub mod options;

pub use autotune::{autotune, AutotuneOutcome, CellProfile, Workload};
pub use ckpt::{CkptError, StateDict, StateValue};
pub use dist::{train, train_traced, Mode, TrainConfig, TrainError, TrainReport, Trainer};
pub use options::RuntimeOptions;
