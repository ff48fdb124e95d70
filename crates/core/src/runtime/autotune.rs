//! Measured autotuning: pick the configuration that runs fastest.
//!
//! The paper hand-picks chunk count and thread budget for its testbed;
//! the right choice moves with transfer costs and host speed. This module
//! makes the configuration self-selecting over the grid
//! `chunks × payload_bf16 × threads`, in two steps:
//!
//! 1. **Probe** ([`calibrate`]): train every `(chunks, payload_bf16)` cell
//!    for a few steps exactly as a tuned run will train it — offload on,
//!    comm and copy streams on — and keep the fastest of three runs.
//!    Thread candidates are priced by a matmul microprobe instead of more
//!    training runs.
//! 2. **Search** ([`search`]): a candidate's step is its cell's probed
//!    step scaled by its thread budget's microprobe ratio; the fastest
//!    candidate becomes the tuned [`RuntimeOptions`].
//!
//! There is no cost model to fit. A model earns its keep by predicting
//! what was not measured, and the runtime has no stream mode left whose
//! overlap a serial probe would have to extrapolate: every cell the
//! search ranks ran the way it will run.
//!
//! `payload_bf16` is the one numerics-affecting knob, so it joins the
//! grid only when [`Workload::allow_bf16`] opts in; everything else tuning
//! can change is pure schedule. The probe table serializes to a
//! `calibration.json` artifact ([`Calibration::to_json`]) so a probe is
//! reusable across runs.

use crate::runtime::dist::{train, Mode, TrainConfig};
use crate::runtime::options::RuntimeOptions;
use fpdt_model::config::ModelConfig;
use serde::{Serialize, Value};
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
    /// Candidate kernel-pool thread budgets (empty = keep the current
    /// pool size; each extra candidate costs one microprobe, not a full
    /// training run).
    pub thread_candidates: Vec<usize>,
    /// Let the search flip `payload_bf16`. Off by default: bf16 payloads
    /// are the one knob that changes numerics, so callers must opt into
    /// trading exactness for speed (each chunk candidate then probes one
    /// more cell).
    pub allow_bf16: bool,
    /// Seed for probe weights/data.
    pub seed: u64,
}

impl Workload {
    /// A small probe workload over `model`/`seq` with the default
    /// candidate grid: chunk counts 2 and 4, current thread budget,
    /// schedule-only knobs.
    pub fn new(model: ModelConfig, seq: usize) -> Self {
        Workload {
            model,
            seq,
            world: 1,
            probe_steps: 2,
            chunk_candidates: vec![2, 4],
            thread_candidates: Vec::new(),
            allow_bf16: false,
            seed: 42,
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

/// The probed step of one `(chunks, payload_bf16)` cell.
#[derive(Debug, Clone, Serialize)]
pub struct CellProfile {
    /// Chunk count probed.
    pub chunks: usize,
    /// Whether payloads moved as bf16.
    pub payload_bf16: bool,
    /// Wall time per step of the fastest of three probe runs, µs.
    pub step_us: f64,
}

/// Everything [`search`] needs — the probed cells and the thread
/// microprobe — serializable as the `calibration.json` artifact.
#[derive(Debug, Clone, Serialize)]
pub struct Calibration {
    /// Sequence length probed.
    pub seq: usize,
    /// Steps per probe run.
    pub probe_steps: usize,
    /// Kernel-pool threads during the probe.
    pub probe_threads: usize,
    /// `(threads, duration multiplier)` per thread candidate, measured
    /// by a matmul microprobe relative to `probe_threads`.
    pub thread_rates: Vec<(usize, f64)>,
    /// One probed step per `(chunks, bf16)` cell.
    pub cells: Vec<CellProfile>,
}

/// One point of the search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateConfig {
    /// Sequence chunks per rank.
    pub chunks: usize,
    /// bf16 wire payloads on/off.
    pub payload_bf16: bool,
    /// Kernel-pool thread budget.
    pub threads: usize,
}

impl CandidateConfig {
    /// The runtime options this candidate stands for. The chunk count
    /// travels in `Mode::Fpdt { chunks, offload: true }` — the autotuner
    /// tunes the offloaded FPDT pipeline.
    pub fn options(&self) -> RuntimeOptions {
        RuntimeOptions::from_env()
            .with_payload_bf16(self.payload_bf16)
            .with_threads(self.threads)
    }
}

/// A candidate with its step time.
#[derive(Debug, Clone, Copy)]
pub struct Evaluated {
    /// The configuration.
    pub config: CandidateConfig,
    /// Its cell's probed step, scaled to its thread budget, µs.
    pub step_us: f64,
}

/// The autotuner's full result: the probe table, every candidate it
/// ranked, and the fastest pick.
#[derive(Debug, Clone)]
pub struct AutotuneOutcome {
    /// The probe table (persist with [`Calibration::to_json`]).
    pub calibration: Calibration,
    /// Every candidate evaluated, in grid order.
    pub evaluated: Vec<Evaluated>,
    /// The fastest candidate.
    pub best: Evaluated,
}

/// Per-step wall time of `config`, µs: fastest of three training runs.
/// Neighbor load on a shared host is strictly additive — a burst only
/// ever slows a run — so the fastest of three is the cleanest estimate of
/// the unloaded step (a median still carries whatever load the middle run
/// saw).
fn probe_step_us(workload: &Workload, steps: usize, config: &CandidateConfig) -> f64 {
    let cfg = TrainConfig {
        model: workload.model.clone(),
        world: workload.world,
        seq: workload.seq,
        steps,
        lr: 3e-3,
        seed: workload.seed,
        mode: Mode::Fpdt {
            chunks: config.chunks,
            offload: true,
        },
        runtime: config.options(),
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

/// Probes every `(chunk candidate × bf16 setting)` cell at the current
/// thread budget, and prices the thread candidates with a matmul
/// microprobe instead of extra training runs.
///
/// # Panics
///
/// Panics on inconsistent workloads (sequence not divisible by
/// `world * chunks`) — same contract as [`train`].
pub fn calibrate(workload: &Workload) -> Calibration {
    let steps = workload.probe_steps.max(1);
    let probe_threads = rayon::pool::current_threads();
    let mut cells = Vec::new();
    for &chunks in &workload.chunk_candidates {
        for &payload_bf16 in workload.bf16_settings() {
            let config = CandidateConfig {
                chunks,
                payload_bf16,
                threads: probe_threads,
            };
            cells.push(CellProfile {
                chunks,
                payload_bf16,
                step_us: probe_step_us(workload, steps, &config),
            });
        }
    }

    let mut candidates: Vec<usize> = workload
        .thread_candidates
        .iter()
        .copied()
        .filter(|&t| t > 0)
        .collect();
    if candidates.is_empty() {
        candidates.push(probe_threads);
    }
    let base_us = matmul_probe_us(probe_threads);
    let thread_rates = candidates
        .into_iter()
        .map(|t| {
            let scale = if t == probe_threads {
                1.0
            } else {
                (matmul_probe_us(t) / base_us).max(0.05)
            };
            (t, scale)
        })
        .collect();

    Calibration {
        seq: workload.seq,
        probe_steps: steps,
        probe_threads,
        thread_rates,
        cells,
    }
}

/// Wall-clock µs of a few pool-parallel matmuls at a budget of `threads`
/// threads.
fn matmul_probe_us(threads: usize) -> f64 {
    let n = 96usize;
    let a = fpdt_tensor::Tensor::from_vec(
        (0..n * n).map(|i| (i % 17) as f32 * 0.25 - 2.0).collect(),
        &[n, n],
    )
    .expect("probe matrix");
    let b = fpdt_tensor::Tensor::from_vec(
        (0..n * n).map(|i| (i % 13) as f32 * 0.125 - 0.75).collect(),
        &[n, n],
    )
    .expect("probe matrix");
    let ctx = fpdt_tensor::KernelCtx {
        threads,
        ..fpdt_tensor::KernelCtx::current()
    };
    let t0 = Instant::now();
    ctx.enter(|| {
        for _ in 0..8 {
            std::hint::black_box(fpdt_tensor::ops::matmul(&a, &b).expect("probe matmul"));
        }
    });
    let us = t0.elapsed().as_secs_f64() * 1e6;
    us.max(1.0)
}

/// One candidate's step under the calibration, µs: its cell's probed
/// step times its thread budget's microprobe ratio.
///
/// # Panics
///
/// Panics when the candidate's `(chunks, payload_bf16)` cell or thread
/// budget was not part of the calibration grid (a caller-side grid
/// mismatch).
pub fn predict_step_us(calibration: &Calibration, config: &CandidateConfig) -> f64 {
    let cell = calibration
        .cells
        .iter()
        .find(|cell| cell.chunks == config.chunks && cell.payload_bf16 == config.payload_bf16)
        .expect("candidate cell was probed");
    let scale = calibration
        .thread_rates
        .iter()
        .find(|(t, _)| *t == config.threads)
        .map(|(_, s)| *s)
        .expect("candidate thread budget was microprobed");
    cell.step_us * scale
}

/// Ranks every point of the workload's candidate grid and returns them
/// with the fastest in the `best` slot.
///
/// # Panics
///
/// Same conditions as [`predict_step_us`].
pub fn search(calibration: &Calibration, workload: &Workload) -> (Vec<Evaluated>, Evaluated) {
    let mut evaluated = Vec::new();
    for &chunks in &workload.chunk_candidates {
        for &payload_bf16 in workload.bf16_settings() {
            for &(threads, _) in &calibration.thread_rates {
                let config = CandidateConfig {
                    chunks,
                    payload_bf16,
                    threads,
                };
                evaluated.push(Evaluated {
                    config,
                    step_us: predict_step_us(calibration, &config),
                });
            }
        }
    }
    let best = *evaluated
        .iter()
        .min_by(|a, b| a.step_us.total_cmp(&b.step_us))
        .expect("grid is nonempty");
    (evaluated, best)
}

/// Probe and search in one call.
///
/// # Panics
///
/// Same conditions as [`calibrate`].
pub fn autotune(workload: &Workload) -> AutotuneOutcome {
    let calibration = calibrate(workload);
    let (evaluated, best) = search(&calibration, workload);
    AutotuneOutcome {
        calibration,
        evaluated,
        best,
    }
}

impl Calibration {
    /// Serializes the probe table as pretty JSON — the
    /// `calibration.json` artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("calibration serializes")
    }

    /// Parses a calibration back from [`Calibration::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax error, missing field,
    /// or malformed entry.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let thread_rates = match get(&value, "thread_rates")? {
            Value::Array(items) => items
                .iter()
                .map(|pair| match pair {
                    Value::Array(ab) if ab.len() == 2 => {
                        Ok((num(&ab[0], "threads")? as usize, num(&ab[1], "rate")?))
                    }
                    _ => Err("thread_rates entries must be [threads, rate]".to_string()),
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("thread_rates must be an array".to_string()),
        };
        let cells = match get(&value, "cells")? {
            Value::Array(items) => items
                .iter()
                .map(|cell| {
                    Ok(CellProfile {
                        chunks: num(get(cell, "chunks")?, "chunks")? as usize,
                        payload_bf16: matches!(get(cell, "payload_bf16")?, Value::Bool(true)),
                        step_us: num(get(cell, "step_us")?, "step_us")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("cells must be an array".to_string()),
        };
        Ok(Calibration {
            seq: num(get(&value, "seq")?, "seq")? as usize,
            probe_steps: num(get(&value, "probe_steps")?, "probe_steps")? as usize,
            probe_threads: num(get(&value, "probe_threads")?, "probe_threads")? as usize,
            thread_rates,
            cells,
        })
    }
}

fn get<'a>(value: &'a Value, key: &str) -> Result<&'a Value, String> {
    match value {
        Value::Object(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field `{key}`")),
        _ => Err(format!("expected an object holding `{key}`")),
    }
}

fn num(value: &Value, what: &str) -> Result<f64, String> {
    match value {
        Value::Float(x) if x.is_finite() => Ok(*x),
        Value::UInt(u) => Ok(*u as f64),
        Value::Int(i) => Ok(*i as f64),
        _ => Err(format!("field `{what}` is not a finite number")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_calibration() -> Calibration {
        Calibration {
            seq: 256,
            probe_steps: 2,
            probe_threads: 4,
            thread_rates: vec![(4, 1.0), (1, 2.0)],
            cells: vec![
                CellProfile {
                    chunks: 4,
                    payload_bf16: false,
                    step_us: 4000.0,
                },
                CellProfile {
                    chunks: 4,
                    payload_bf16: true,
                    step_us: 3250.0,
                },
            ],
        }
    }

    #[test]
    fn search_ranks_the_probed_cells_scaled_by_thread_rate() {
        let cal = synthetic_calibration();
        let workload = Workload {
            chunk_candidates: vec![4],
            allow_bf16: true,
            ..Workload::new(ModelConfig::tiny(1, 32, 4, 50), 32)
        };
        let (evaluated, best) = search(&cal, &workload);
        // 1 chunk count × 2 bf16 settings × 2 thread budgets.
        assert_eq!(evaluated.len(), 4);
        assert!(best.config.payload_bf16);
        assert_eq!(best.config.threads, 4, "slower 1-thread rate rejected");
        assert_eq!(best.step_us, 3250.0, "the probed step, unscaled");
        let slow = CandidateConfig {
            chunks: 4,
            payload_bf16: false,
            threads: 1,
        };
        assert_eq!(predict_step_us(&cal, &slow), 8000.0);
    }

    #[test]
    fn calibration_json_round_trips() {
        let cal = synthetic_calibration();
        let back = Calibration::from_json(&cal.to_json()).expect("round trip");
        assert_eq!(back.cells.len(), cal.cells.len());
        assert_eq!(back.thread_rates, cal.thread_rates);
        assert!(back.cells[1].payload_bf16);
        assert!((back.cells[0].step_us - cal.cells[0].step_us).abs() < 1e-9);
        assert_eq!(
            (back.seq, back.probe_steps, back.probe_threads),
            (cal.seq, cal.probe_steps, cal.probe_threads)
        );
        assert!(Calibration::from_json("{}").is_err());
        assert!(Calibration::from_json("nonsense").is_err());
    }

    #[test]
    fn end_to_end_probe_and_search_on_a_tiny_model() {
        // A real (tiny) probe: one cell, a positive step, and the best
        // candidate drawn from the grid.
        let workload = Workload {
            probe_steps: 1,
            chunk_candidates: vec![2],
            ..Workload::new(ModelConfig::tiny(1, 32, 4, 50), 32)
        };
        let outcome = autotune(&workload);
        assert_eq!(outcome.calibration.cells.len(), 1);
        assert!(outcome.calibration.cells[0].step_us > 0.0);
        assert_eq!(
            outcome.evaluated.len(),
            1,
            "1 chunk × f32 × current threads"
        );
        assert!(outcome
            .evaluated
            .iter()
            .any(|e| e.config == outcome.best.config));
        assert!(!outcome.best.config.options().payload_bf16);
    }
}
