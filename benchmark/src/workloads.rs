//! The four training workloads and the process environment they run in.
//!
//! Shapes are fixed; only the seed varies. Each workload runs in a process
//! of its own because the simulated link (`FPDT_SIM_GBPS`), the kernel
//! thread budget and the SIMD backend are process-wide and parsed once.

use fpdt_core::chunk::ChunkPlan;
use fpdt_core::runtime::{Mode, RuntimeOptions, TrainConfig};
use fpdt_model::config::ModelConfig;

/// Ranks in every workload.
pub const WORLD: usize = 2;

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line; repeated in `BENCHMARK.json`).
    pub why: &'static str,
    /// `ModelConfig::tiny(layers, hidden, heads, vocab)` arguments.
    pub model: [usize; 4],
    pub seq: usize,
    pub mode: Mode,
    /// Optimizer steps per `Trainer::run_steps` call (one closed-loop
    /// request).
    pub steps_per_segment: usize,
    /// `FPDT_SIM_GBPS` for the process, `None` = link off (memcpy cost).
    pub sim_gbps: Option<&'static str>,
}

pub fn all() -> [Workload; 4] {
    [
        Workload {
            name: "fpdt_long",
            why: "paper regime, seq 2048 over 8 offloaded chunks: attention tiles are ~80% of the step, so kernel and tile-schedule work shows here",
            model: [2, 64, 2, 64],
            seq: 2048,
            mode: Mode::Fpdt {
                chunks: 8,
                offload: true,
            },
            steps_per_segment: 1,
            sim_gbps: None,
        },
        Workload {
            name: "ulysses_long",
            why: "the unchunked Ulysses baseline on the same model, sequence and seed: one all-to-all per layer, no host pool; a chunk-pipeline gain must not cost this path",
            model: [2, 64, 2, 64],
            seq: 2048,
            mode: Mode::Ulysses,
            steps_per_segment: 1,
            sim_gbps: None,
        },
        Workload {
            name: "fpdt_wide",
            why: "wide model, seq 256: bypasses attention (~13% of step); gemm, grad all-reduce, AdamW and Trainer spin-up dominate, so attention work predicts no change here",
            model: [2, 256, 4, 1024],
            seq: 256,
            mode: Mode::Fpdt {
                chunks: 2,
                offload: true,
            },
            steps_per_segment: 4,
            sim_gbps: None,
        },
        Workload {
            name: "fpdt_link",
            why: "FPDT_SIM_GBPS=0.05 makes transfers cost wall-clock per byte: over half the step is exposed comm/copy, so stream overlap, prefetch order and wire bytes show only here",
            model: [2, 64, 2, 64],
            seq: 1024,
            mode: Mode::Fpdt {
                chunks: 4,
                offload: true,
            },
            steps_per_segment: 2,
            sim_gbps: Some("0.05"),
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    pub fn model(&self) -> ModelConfig {
        let [layers, hidden, heads, vocab] = self.model;
        ModelConfig::tiny(layers, hidden, heads, vocab)
    }

    pub fn chunks(&self) -> usize {
        match self.mode {
            Mode::Fpdt { chunks, .. } => chunks,
            _ => 1,
        }
    }

    pub fn plan(&self) -> ChunkPlan {
        ChunkPlan::new(self.seq, WORLD, self.chunks()).expect("workload shapes divide")
    }

    fn config_with(&self, mode: Mode, seed: u64) -> TrainConfig {
        TrainConfig {
            model: self.model(),
            world: WORLD,
            seq: self.seq,
            steps: 0,
            lr: 3e-3,
            seed,
            mode,
            zero_shard: false,
            activation_checkpoint: false,
            grad_accum: 1,
            warmup_steps: 0,
            // read after `pin_environment`, so only the pinned knobs apply
            runtime: RuntimeOptions::from_env(),
        }
    }

    /// The training configuration; weights and data both derive from
    /// `seed`.
    pub fn config(&self, seed: u64) -> TrainConfig {
        self.config_with(self.mode, seed)
    }

    /// The other side of the paper's "pure system optimization" claim:
    /// Ulysses for an FPDT workload, 8-chunk offloaded FPDT for the
    /// Ulysses one. Same model, sequence and seed, so the loss curves
    /// must coincide.
    pub fn reference_config(&self, seed: u64) -> TrainConfig {
        let other = match self.mode {
            Mode::Fpdt { .. } => Mode::Ulysses,
            _ => Mode::Fpdt {
                chunks: 8,
                offload: true,
            },
        };
        self.config_with(other, seed)
    }
}

/// Kernel thread budget every workload runs under.
pub fn thread_budget() -> usize {
    rayon::pool::hardware_threads().min(2)
}

/// Removes every ambient `FPDT_*` variable, pins the kernel thread budget
/// and adds the workload's own settings. Must run first thing in `main`,
/// before any thread exists and before any knob is parsed.
pub fn pin_environment(w: &Workload) {
    let ambient: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("FPDT_"))
        .collect();
    for key in ambient {
        std::env::remove_var(key);
    }
    std::env::set_var("FPDT_THREADS", thread_budget().to_string());
    if let Some(gbps) = w.sim_gbps {
        std::env::set_var("FPDT_SIM_GBPS", gbps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_are_runnable() {
        for w in all() {
            let m = w.model();
            assert_eq!(m.heads % WORLD, 0, "{}", w.name);
            assert_eq!(w.seq % (WORLD * w.chunks()), 0, "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            // the reference side must divide too
            assert_eq!(w.seq % (WORLD * 8), 0, "{}", w.name);
        }
    }
}
