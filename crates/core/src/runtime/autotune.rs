//! Measured autotuning: train every candidate and keep the fastest.
//!
//! The paper picks its chunk size by a measured sweep (§5.3, Figure 12);
//! the right choice moves with transfer costs and host speed. This module
//! runs that sweep on the real runtime: every `(chunks, payload_bf16)`
//! cell trains a few steps exactly as a tuned run will train it (offload
//! on, over the workload's simulated link), its step is the fastest of
//! three runs, and the fastest cell is the pick.
//!
//! There is no cost model to fit and nothing to extrapolate: every cell
//! ranked ran the way it will run.
//!
//! `payload_bf16` is the one numerics-affecting knob, so it joins the grid
//! only when [`Workload::allow_bf16`] opts in; the chunk count changes the
//! float association of the chunked ops (losses agree to Figure-14
//! tolerance, not bitwise).

use crate::runtime::dist::{train, Mode, TrainConfig};
use crate::runtime::options::RuntimeOptions;
use fpdt_model::config::ModelConfig;
use serde::Serialize;
use std::time::Instant;

/// The training job the autotuner optimizes for, plus the candidate grid
/// it may pick from.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Model architecture.
    pub model: ModelConfig,
    /// Global sequence length per step.
    pub seq: usize,
    /// Ranks.
    pub world: usize,
    /// Training steps per probe run (2-3 suffice; the first step warms
    /// caches and is averaged in deliberately, because measured runs pay
    /// it too).
    pub probe_steps: usize,
    /// Candidate chunk counts (`seq` must divide by `world * chunks` for
    /// each).
    pub chunk_candidates: Vec<usize>,
    /// Let the pick flip `payload_bf16`. Off by default: bf16 payloads
    /// are the one knob that changes numerics, so callers must opt into
    /// trading exactness for speed (each chunk candidate then probes one
    /// more cell).
    pub allow_bf16: bool,
    /// Seed for probe weights/data.
    pub seed: u64,
    /// Simulated link bandwidth every probe trains over, GB/s
    /// ([`RuntimeOptions::sim_gbps`]; 0 = free link, nothing to hide).
    pub sim_gbps: f64,
}

impl Workload {
    /// A small probe workload over `model`/`seq` with the default
    /// candidate grid: chunk counts 2 and 4, f32 payloads, over the
    /// environment's link (`FPDT_SIM_GBPS`).
    pub fn new(model: ModelConfig, seq: usize) -> Self {
        Workload {
            model,
            seq,
            world: 1,
            probe_steps: 2,
            chunk_candidates: vec![2, 4],
            allow_bf16: false,
            seed: 42,
            sim_gbps: RuntimeOptions::from_env().sim_gbps,
        }
    }

    /// The `payload_bf16` settings the grid spans.
    fn bf16_settings(&self) -> &'static [bool] {
        if self.allow_bf16 {
            &[false, true]
        } else {
            &[false]
        }
    }
}

/// One probed `(chunks, payload_bf16)` cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CellProfile {
    /// Sequence chunks per rank.
    pub chunks: usize,
    /// Whether payloads moved as bf16.
    pub payload_bf16: bool,
    /// Wall time per step of the fastest of three probe runs, µs.
    pub step_us: f64,
}

impl CellProfile {
    /// The strategy this cell runs: the offloaded FPDT pipeline at its
    /// chunk count.
    pub fn mode(&self) -> Mode {
        Mode::Fpdt {
            chunks: self.chunks,
            offload: true,
        }
    }

    /// The runtime options this cell runs under: the environment's, with
    /// the payload pinned, so an ambient `FPDT_BF16` never leaks into a
    /// probe (which sets its workload's link on top).
    pub fn options(&self) -> RuntimeOptions {
        RuntimeOptions::from_env().with_payload_bf16(self.payload_bf16)
    }
}

/// The probed cells, in grid order, and the fastest of them.
#[derive(Debug, Clone)]
pub struct AutotuneOutcome {
    /// Every cell probed.
    pub cells: Vec<CellProfile>,
    /// The fastest cell.
    pub best: CellProfile,
}

/// Per-step wall time of `cell`, µs: fastest of three training runs.
/// Neighbor load on a shared host is strictly additive — a burst only
/// ever slows a run — so the fastest of three is the cleanest estimate of
/// the unloaded step (a median still carries whatever load the middle run
/// saw).
fn probe_step_us(workload: &Workload, cell: &CellProfile) -> f64 {
    let steps = workload.probe_steps.max(1);
    let cfg = TrainConfig {
        model: workload.model.clone(),
        world: workload.world,
        seq: workload.seq,
        steps,
        lr: 3e-3,
        seed: workload.seed,
        mode: cell.mode(),
        runtime: cell.options().with_sim_gbps(workload.sim_gbps),
        ..TrainConfig::default()
    };
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            train(&cfg);
            t0.elapsed().as_secs_f64() * 1e6 / steps as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Probes every `(chunk candidate × bf16 setting)` cell and picks the
/// fastest.
///
/// # Panics
///
/// Panics on an empty candidate list or an inconsistent workload
/// (sequence not divisible by `world * chunks`, a link
/// [`RuntimeOptions::with_sim_gbps`] refuses) — same contract as
/// [`train`].
pub fn autotune(workload: &Workload) -> AutotuneOutcome {
    let mut cells = Vec::new();
    for &chunks in &workload.chunk_candidates {
        for &payload_bf16 in workload.bf16_settings() {
            let mut cell = CellProfile {
                chunks,
                payload_bf16,
                step_us: 0.0,
            };
            cell.step_us = probe_step_us(workload, &cell);
            cells.push(cell);
        }
    }
    let best = *cells
        .iter()
        .min_by(|a, b| a.step_us.total_cmp(&b.step_us))
        .expect("at least one chunk candidate");
    AutotuneOutcome { cells, best }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pick_is_a_probed_cell_with_bf16_off_unless_allowed() {
        // A real (tiny) probe: one cell per chunk count, positive steps,
        // and the pick drawn from them.
        let workload = Workload {
            probe_steps: 1,
            chunk_candidates: vec![2, 4],
            ..Workload::new(ModelConfig::tiny(1, 32, 4, 50), 32)
        };
        let outcome = autotune(&workload);
        assert_eq!(outcome.cells.len(), 2, "2 chunk counts × f32");
        assert!(outcome.cells.iter().all(|c| c.step_us > 0.0));
        assert!(outcome.cells.contains(&outcome.best));
        assert!(outcome.cells.iter().all(|c| !c.payload_bf16));
        assert!(!outcome.best.options().payload_bf16);

        let allowed = autotune(&Workload {
            chunk_candidates: vec![2],
            allow_bf16: true,
            ..workload
        });
        let grid: Vec<(usize, bool)> = allowed
            .cells
            .iter()
            .map(|c| (c.chunks, c.payload_bf16))
            .collect();
        assert_eq!(grid, [(2, false), (2, true)]);
        assert!(allowed.cells.contains(&allowed.best));
    }
}
