//! Trace-calibrated autotuning: close the planner↔runtime loop.
//!
//! The paper hand-picks chunk count, stream gating, and thread budget for
//! its testbed; PR 6 showed the "right" choice flips with transfer costs
//! (overlap *loses* at small scale until wire time is realistic). This
//! module makes the configuration self-selecting, in three steps:
//!
//! 1. **Probe** ([`calibrate`]): run a few *serial* training steps
//!    (streams off, so every cost is additive and attributable) per
//!    candidate chunk count, recording wall-clock spans with
//!    [`fpdt_trace::Recorder`]. Serial probes are the cheapest runs that
//!    expose every per-chunk cost — the ChunkFlow recipe.
//! 2. **Fit**: turn the span clouds into [`CostConstants`] — copy GB/s
//!    and per-op overhead from `offload.*` spans
//!    ([`fpdt_trace::fit::fit_linear`]), comm GB/s from `comm.inflight`
//!    spans, attention GFLOP/s from the analytic FLOP count over the
//!    measured kernel time. The same struct a [`ClusterSpec`]-derived
//!    model uses, so fitted and paper-calibrated constants share one
//!    pricing path. [`fpdt_sim::hw::ClusterSpec`]
//! 3. **Search** ([`search`]): describe one training step of every
//!    candidate configuration as a [`StepPlan`] — per-stage copy, comm
//!    and kernel ops sized by the runtime's own tile schedule
//!    ([`tile_slots`]), streams gated per candidate — and let the
//!    calibrated discrete-event engine price it.
//!    The predicted-fastest candidate becomes the tuned
//!    [`RuntimeOptions`].
//!
//! `payload_bf16` is the one numerics-affecting knob, so it joins the
//! search space only when [`Workload::allow_bf16`] opts in; everything
//! else tuning can change is pure schedule. The fitted model serializes
//! to a `calibration.json` artifact ([`Calibration::to_json`]) so a
//! probe is reusable across runs.
//!
//! [`ClusterSpec`]: fpdt_sim::hw::ClusterSpec

use crate::chunk::tile_slots;
use crate::runtime::dist::{train_traced, Mode, TrainConfig};
use crate::runtime::options::RuntimeOptions;
use fpdt_model::config::ModelConfig;
use fpdt_sim::cost::CostConstants;
use fpdt_sim::query::{PlannedWork, StepPlan};
use fpdt_trace::fit::{fit_linear, samples_for, LinearFit};
use fpdt_trace::Recorder;
use serde::{Serialize, Value};
use std::time::Instant;

/// Span prefixes of the offload copy stream (both directions).
const COPY_PREFIXES: &[&str] = &["offload.put", "offload.fetch", "offload.prefetch"];
/// Span prefixes of communication wire occupancy.
const COMM_PREFIXES: &[&str] = &["comm.inflight"];
/// Span prefixes of pure attention kernel time (leaves only — these
/// never contain nested transfer spans).
const ATTN_PREFIXES: &[&str] = &["kernel.attn.", "attn.bwd.tile"];

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
    /// trading exactness for speed (each bf16 chunk candidate adds one
    /// probe run).
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
}

/// Measured serial per-step profile of one `(chunks, payload_bf16)`
/// cell. Every duration is a per-step average in µs; counts and bytes
/// are per-step averages too.
#[derive(Debug, Clone, Serialize)]
pub struct CellProfile {
    /// Chunk count probed.
    pub chunks: usize,
    /// Whether payloads moved as bf16.
    pub payload_bf16: bool,
    /// Serial step wall time.
    pub step_us: f64,
    /// Offload copy ops per step.
    pub copy_count: f64,
    /// Offload wire bytes per step.
    pub copy_bytes: f64,
    /// Offload busy time per step.
    pub copy_us: f64,
    /// Collective payloads per step.
    pub comm_count: f64,
    /// Collective wire bytes per step.
    pub comm_bytes: f64,
    /// Collective wire occupancy per step.
    pub comm_us: f64,
    /// Pure attention kernel time per step.
    pub attn_us: f64,
    /// Everything else (MLP, optimizer, data, framework) per step.
    pub lump_us: f64,
    /// Fraction of the engine's *ideal* stream saving the runtime
    /// delivered on this chunk count's dual-stream anchor probe, in
    /// `[0, 1]`. Anchored per chunk count because stage granularity
    /// changes how well double buffering hides transfers — a 2-chunk
    /// anchor does not transfer to a 4-chunk pipeline. The bf16 cell
    /// shares its chunk count's f32 anchor.
    pub overlap_efficiency: f64,
}

/// A fitted cost model plus the per-cell workload profiles it was fitted
/// from — everything [`search`] needs, serializable as the
/// `calibration.json` artifact.
#[derive(Debug, Clone, Serialize)]
pub struct Calibration {
    /// Fitted rate/overhead constants (copy rate → `pcie_bw`, comm rate
    /// → `nvlink_bw`, kernel rate → `attention_flops`).
    pub constants: CostConstants,
    /// Sequence length probed.
    pub seq: usize,
    /// Steps per probe run.
    pub probe_steps: usize,
    /// Kernel-pool threads during the probe.
    pub probe_threads: usize,
    /// `(threads, duration multiplier)` per thread candidate, measured
    /// by a matmul microprobe relative to `probe_threads`.
    pub thread_rates: Vec<(usize, f64)>,
    /// Mean of the per-cell anchors (see
    /// [`CellProfile::overlap_efficiency`]), kept for reporting; the
    /// search prices each candidate with its own cell's anchor. The
    /// discrete-event engine hides transfer time perfectly behind
    /// compute; real streams pay hand-off latency, imperfect lookahead,
    /// and core contention — the measured anchors scale every async
    /// prediction down to what the runtime can actually do.
    pub overlap_efficiency: f64,
    /// Serial profiles per `(chunks, bf16)` cell.
    pub cells: Vec<CellProfile>,
}

/// One point of the search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateConfig {
    /// Sequence chunks per rank.
    pub chunks: usize,
    /// Offload copy stream on/off.
    pub prefetch: bool,
    /// Asynchronous comm stream on/off.
    pub comm_async: bool,
    /// bf16 wire payloads on/off.
    pub payload_bf16: bool,
    /// Kernel-pool thread budget.
    pub threads: usize,
}

impl CandidateConfig {
    /// The runtime options this candidate stands for (offload on — the
    /// autotuner tunes the offloaded FPDT pipeline).
    pub fn options(&self) -> RuntimeOptions {
        RuntimeOptions::from_env()
            .with_offload(true)
            .with_prefetch(self.prefetch)
            .with_comm_async(self.comm_async)
            .with_payload_bf16(self.payload_bf16)
            .with_threads(self.threads)
    }
}

/// A candidate with its predicted step makespan.
#[derive(Debug, Clone, Copy)]
pub struct Evaluated {
    /// The configuration.
    pub config: CandidateConfig,
    /// Step makespan the calibrated simulator predicts, µs.
    pub predicted_step_us: f64,
}

/// The autotuner's full result: the calibration it fitted, every
/// candidate it priced, and the predicted-fastest pick.
#[derive(Debug, Clone)]
pub struct AutotuneOutcome {
    /// The fitted model (persist with [`Calibration::to_json`]).
    pub calibration: Calibration,
    /// Every candidate evaluated, in grid order.
    pub evaluated: Vec<Evaluated>,
    /// The predicted-fastest candidate.
    pub best: Evaluated,
}

/// Analytic attention FLOPs of one training step (forward ≈ 2·s²·h per
/// layer causal-halved, backward ≈ 2.5× forward). The absolute constant
/// cancels — it is only the yardstick [`calibrate`] fits
/// `attention_flops` against and [`plan_for`] converts back through — but
/// its *shape* (quadratic in sequence, linear in layers/width, chunk-
/// invariant) is what makes the fitted rate transfer across candidates.
fn attn_flops(model: &ModelConfig, seq: usize) -> f64 {
    3.5 * model.layers as f64 * (seq as f64) * (seq as f64) * model.hidden as f64
}

/// One probe training run at the given knobs, fastest-of-3. Neighbor
/// load on a shared host is strictly additive — a burst only ever slows
/// a run — so the fastest of three is the cleanest estimate of the
/// unloaded step the fitted model should predict (a median still
/// carries whatever load the middle run saw, and any probe bias
/// propagates into every prediction built on it; the overlap anchors
/// are *differences* of two probes, where one inflated side flips the
/// fitted efficiency). The returned recorder belongs to the fastest run
/// so its spans stay internally consistent with the reported wall time.
fn probe_run(
    workload: &Workload,
    steps: usize,
    chunks: usize,
    bf16: bool,
    prefetch: bool,
    comm_async: bool,
) -> (f64, Recorder) {
    let cfg = TrainConfig {
        model: workload.model.clone(),
        world: workload.world,
        seq: workload.seq,
        steps,
        lr: 3e-3,
        seed: workload.seed,
        mode: Mode::Fpdt {
            chunks,
            offload: true,
        },
        runtime: RuntimeOptions::from_env()
            .with_prefetch(prefetch)
            .with_comm_async(comm_async)
            .with_payload_bf16(bf16),
        ..TrainConfig::default()
    };
    let mut runs: Vec<(f64, Recorder)> = (0..3)
        .map(|_| {
            let rec = Recorder::new();
            let t0 = Instant::now();
            train_traced(&cfg, Some(&rec));
            (t0.elapsed().as_secs_f64() * 1e6, rec)
        })
        .collect();
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    runs.swap_remove(0)
}

/// Runs the serial probes and fits the cost model.
///
/// One short training run per `(chunk candidate × bf16 setting)` cell
/// with both streams off, so step time decomposes additively into copy,
/// comm, attention, and residual ("lump") time. Rates are fitted over
/// the f32 cells' combined span clouds; one extra *dual-stream* probe
/// per chunk candidate anchors the per-cell overlap efficiency; thread
/// candidates are priced with a matmul microprobe instead of extra
/// training runs.
///
/// # Panics
///
/// Panics on inconsistent workloads (sequence not divisible by
/// `world * chunks`) — same contract as [`train_traced`].
pub fn calibrate(workload: &Workload) -> Calibration {
    let steps = workload.probe_steps.max(1);
    let mut cells = Vec::new();
    let mut copy_samples: Vec<(u64, f64)> = Vec::new();
    let mut comm_samples: Vec<(u64, f64)> = Vec::new();
    let mut attn_us_f32 = Vec::new();

    let bf16_settings: &[bool] = if workload.allow_bf16 {
        &[false, true]
    } else {
        &[false]
    };
    for &chunks in &workload.chunk_candidates {
        for &bf16 in bf16_settings {
            let (wall_us, rec) = probe_run(workload, steps, chunks, bf16, false, false);
            let records = rec.records();
            let per_step = 1.0 / steps as f64;
            let copy = fpdt_trace::fit::aggregate(&records, COPY_PREFIXES);
            let comm = fpdt_trace::fit::aggregate(&records, COMM_PREFIXES);
            let attn = fpdt_trace::fit::aggregate(&records, ATTN_PREFIXES);
            let step_us = wall_us * per_step;
            let (copy_us, comm_us, attn_us) = (
                copy.total_us * per_step,
                comm.total_us * per_step,
                attn.total_us * per_step,
            );
            cells.push(CellProfile {
                chunks,
                payload_bf16: bf16,
                step_us,
                copy_count: copy.count as f64 * per_step,
                copy_bytes: copy.total_bytes as f64 * per_step,
                copy_us,
                comm_count: comm.count as f64 * per_step,
                comm_bytes: comm.total_bytes as f64 * per_step,
                comm_us,
                attn_us,
                lump_us: (step_us - copy_us - comm_us - attn_us).max(0.0),
                overlap_efficiency: 1.0,
            });
            if !bf16 {
                copy_samples.extend(samples_for(&records, COPY_PREFIXES));
                comm_samples.extend(samples_for(&records, COMM_PREFIXES));
                attn_us_f32.push(attn_us);
            }
        }
    }

    // Rates: least-squares over the probe span clouds; fall back to the
    // simulated-wire (or PCIe-class) bandwidth when a stream moved no
    // bytes at all.
    let default_gbps = {
        let wire = fpdt_trace::wire::link_gbps();
        if wire > 0.0 {
            wire
        } else {
            32.0
        }
    };
    let copy_fit = fit_linear(&copy_samples).unwrap_or(LinearFit {
        overhead_us: 0.0,
        gbps: default_gbps,
    });
    let comm_fit = fit_linear(&comm_samples).unwrap_or(LinearFit {
        overhead_us: 0.0,
        gbps: default_gbps,
    });
    let mean_attn_us = attn_us_f32.iter().sum::<f64>() / attn_us_f32.len().max(1) as f64;
    let attention_flops = if mean_attn_us > 0.0 {
        attn_flops(&workload.model, workload.seq) / (mean_attn_us * 1e-6)
    } else {
        1e12
    };
    let constants = CostConstants {
        gemm_flops: attention_flops,
        attention_flops,
        kernel_overhead: 0.0,
        nvlink_bw: comm_fit.gbps * 1e9,
        pcie_bw: copy_fit.gbps * 1e9,
        ib_bw: comm_fit.gbps * 1e9,
        link_latency: (copy_fit.overhead_us + comm_fit.overhead_us) / 2.0 * 1e-6,
    };

    // Thread microprobe: relative duration of a pool-parallel matmul at
    // each candidate budget (training runs are not repeated per budget).
    let probe_threads = rayon::pool::current_threads();
    let mut thread_rates = Vec::new();
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
    for t in candidates {
        let scale = if t == probe_threads {
            1.0
        } else {
            (matmul_probe_us(t) / base_us).max(0.05)
        };
        thread_rates.push((t, scale));
    }

    // Overlap anchors: one dual-stream f32 probe PER chunk candidate
    // measures how much of the engine's ideal saving the real streams
    // deliver at that stage granularity (a 2-chunk pipeline's hand-off
    // losses say nothing about a 4-chunk one's). Serial predictions are
    // unaffected (zero ideal saving); each async prediction interpolates
    // by its own cell's factor; the bf16 cell shares its chunk count's
    // f32 anchor.
    for &anchor_chunks in &workload.chunk_candidates {
        let anchor_cell = cells
            .iter()
            .find(|c| c.chunks == anchor_chunks && !c.payload_bf16)
            .cloned();
        let Some(cell) = anchor_cell else { continue };
        let price = |prefetch: bool, comm_async: bool| {
            plan_for(&constants, &cell, prefetch, comm_async, 1.0)
                .makespan(&constants)
                .expect("anchor plan prices")
                * 1e6
        };
        let ideal_saving = price(false, false) - price(true, true);
        if ideal_saving <= 1.0 {
            continue;
        }
        // The efficiency is a *difference* of two wall times — the one
        // statistic with no tolerance for cross-epoch drift — so pair
        // the dual probe with a FRESH serial probe adjacent in time
        // instead of the cell profile measured an epoch earlier: a
        // host-load shift between the epochs would masquerade as
        // overlap (in)efficiency.
        let (serial_wall_us, _) = probe_run(workload, steps, anchor_chunks, false, false, false);
        let (dual_wall_us, _) = probe_run(workload, steps, anchor_chunks, false, true, true);
        let actual_saving = ((serial_wall_us - dual_wall_us) / steps as f64).max(0.0);
        let efficiency = (actual_saving / ideal_saving).clamp(0.0, 1.0);
        for c in cells.iter_mut().filter(|c| c.chunks == anchor_chunks) {
            c.overlap_efficiency = efficiency;
        }
    }
    let overlap_efficiency =
        cells.iter().map(|c| c.overlap_efficiency).sum::<f64>() / cells.len().max(1) as f64;

    Calibration {
        constants,
        seq: workload.seq,
        probe_steps: steps,
        probe_threads,
        thread_rates,
        overlap_efficiency,
        cells,
    }
}

/// Wall-clock µs of a few pool-parallel matmuls at `threads` threads
/// (pool restored afterwards).
fn matmul_probe_us(threads: usize) -> f64 {
    let prev = rayon::pool::set_threads(threads);
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
    let t0 = Instant::now();
    for _ in 0..8 {
        std::hint::black_box(fpdt_tensor::ops::matmul(&a, &b).expect("probe matmul"));
    }
    let us = t0.elapsed().as_secs_f64() * 1e6;
    rayon::pool::set_threads(prev);
    us.max(1.0)
}

/// Builds the step plan of one candidate from its measured cell profile:
/// `2 × chunks` pipeline stages — forward chunks then backward tile
/// slots — each with a copy op, a comm op, and a kernel + residual
/// compute pair that waits on its stage's transfers.
///
/// Per-stage transfer and kernel sizes follow the schedule rather than a
/// flat mean: forward chunk `i` keep-fetches a *growing* KV prefix
/// (weight `5 + 2i` pool ops) and computes `i + 1` tiles, while backward
/// slot `s` carries the `len` tiles [`tile_slots`] deals it — the order
/// the executor walks — at `6 + 6·len` pool ops and `2.5·len` tiles of
/// kernel work (the counted five products to two; the kernels bench
/// measures 2.4 backward/forward tile wall, 3.1 before the single-sweep
/// backward). The weights are normalized against the measured per-step
/// totals, so the serial plan still reproduces the probe exactly — only
/// the per-stage distribution (what the streams can or cannot hide at
/// each slot) changes.
///
/// No stage's transfers wait on an earlier kernel: the runtime posts
/// every gather up-front and staggers take-fetches ahead of compute, so
/// the only dependencies are each stage's kernel on its own transfers.
pub fn plan_for(
    constants: &CostConstants,
    cell: &CellProfile,
    prefetch: bool,
    comm_async: bool,
    compute_scale: f64,
) -> StepPlan {
    let c = constants;
    let u = cell.chunks.max(1);
    let inv = 1.0 / (2 * u) as f64;

    // Per-stage `(copy, attention)` weights.
    let fwd = (0..u).map(|i| ((5 + 2 * i) as f64, (i + 1) as f64));
    let bwd = tile_slots(u)
        .into_iter()
        .map(|slot| ((6 + 6 * slot.len()) as f64, 2.5 * slot.len() as f64));
    let weights: Vec<(f64, f64)> = fwd.chain(bwd).collect();
    let copy_w_sum: f64 = weights.iter().map(|w| w.0).sum();
    let attn_w_sum: f64 = weights.iter().map(|w| w.1).sum();

    // Measured stream time re-expressed as engine bytes at the fitted
    // rates, so the priced serial plan reproduces the probe exactly and
    // the async plan differs only by what the streams hide.
    let copy_bytes_total = cell.copy_us * 1e-6 * c.pcie_bw;
    let comm_bytes_per_stage = (cell.comm_us * inv * 1e-6 * c.nvlink_bw) as u64;
    let attn_flops_total = cell.attn_us * 1e-6 * c.attention_flops * compute_scale;
    let lump_per_stage = cell.lump_us * inv * 1e-6 * compute_scale;

    let mut plan = StepPlan::new(prefetch, comm_async);
    for (copy_w, attn_w) in weights {
        let copy_bytes = (copy_bytes_total * copy_w / copy_w_sum) as u64;
        let mut deps = Vec::new();
        if copy_bytes > 0 {
            deps.push(plan.push(
                "offload",
                PlannedWork::Copy { bytes: copy_bytes },
                &[],
            ));
        }
        if comm_bytes_per_stage > 0 {
            deps.push(plan.push(
                "a2a",
                PlannedWork::Comm {
                    bytes: comm_bytes_per_stage,
                },
                &[],
            ));
        }
        let attn = plan.push(
            "attn",
            PlannedWork::Kernel {
                flops: attn_flops_total * attn_w / attn_w_sum,
            },
            &deps,
        );
        plan.push(
            "lump",
            PlannedWork::Fixed {
                seconds: lump_per_stage,
            },
            &[attn],
        );
    }
    plan
}

/// Prices one candidate under the calibration, µs.
///
/// # Panics
///
/// Panics when the candidate's `(chunks, payload_bf16)` cell or thread
/// budget was not part of the calibration grid, or the plan fails to
/// price (both indicate a caller-side grid mismatch).
pub fn predict_step_us(calibration: &Calibration, config: &CandidateConfig) -> f64 {
    let cell = calibration
        .cells
        .iter()
        .find(|cell| cell.chunks == config.chunks && cell.payload_bf16 == config.payload_bf16)
        .expect("candidate cell was probed");
    let compute_scale = calibration
        .thread_rates
        .iter()
        .find(|(t, _)| *t == config.threads)
        .map(|(_, s)| *s)
        .expect("candidate thread budget was microprobed");
    let price = |prefetch: bool, comm_async: bool| {
        plan_for(
            &calibration.constants,
            cell,
            prefetch,
            comm_async,
            compute_scale,
        )
        .makespan(&calibration.constants)
        .expect("plan prices")
        * 1e6
    };
    // The engine's saving over fully-serial is *ideal* overlap; scale it
    // by the cell's anchor-measured efficiency before claiming it.
    let serial = price(false, false);
    let gated = price(config.prefetch, config.comm_async);
    serial - cell.overlap_efficiency * (serial - gated)
}

/// Prices every point of the workload's candidate grid and returns them
/// with the predicted-fastest first in the `best` slot.
///
/// # Panics
///
/// Same conditions as [`predict_step_us`].
pub fn search(calibration: &Calibration, workload: &Workload) -> (Vec<Evaluated>, Evaluated) {
    let thread_candidates: Vec<usize> = calibration.thread_rates.iter().map(|(t, _)| *t).collect();
    let bf16_settings: &[bool] = if workload.allow_bf16 {
        &[false, true]
    } else {
        &[false]
    };
    let mut evaluated = Vec::new();
    for &chunks in &workload.chunk_candidates {
        for &payload_bf16 in bf16_settings {
            for prefetch in [false, true] {
                for comm_async in [false, true] {
                    for &threads in &thread_candidates {
                        let config = CandidateConfig {
                            chunks,
                            prefetch,
                            comm_async,
                            payload_bf16,
                            threads,
                        };
                        evaluated.push(Evaluated {
                            config,
                            predicted_step_us: predict_step_us(calibration, &config),
                        });
                    }
                }
            }
        }
    }
    let best = *evaluated
        .iter()
        .min_by(|a, b| a.predicted_step_us.total_cmp(&b.predicted_step_us))
        .expect("grid is nonempty");
    (evaluated, best)
}

/// Probe, fit, and search in one call.
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
    /// Serializes the calibration (constants + profiles) as pretty JSON —
    /// the `calibration.json` artifact.
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
        let constants = CostConstants::from_value(get(&value, "constants")?)?;
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
                    let overlap_efficiency =
                        num(get(cell, "overlap_efficiency")?, "overlap_efficiency")?;
                    if !(0.0..=1.0).contains(&overlap_efficiency) {
                        return Err(
                            "cell overlap_efficiency must be within [0, 1]".to_string()
                        );
                    }
                    Ok(CellProfile {
                        chunks: num(get(cell, "chunks")?, "chunks")? as usize,
                        payload_bf16: matches!(get(cell, "payload_bf16")?, Value::Bool(true)),
                        step_us: num(get(cell, "step_us")?, "step_us")?,
                        copy_count: num(get(cell, "copy_count")?, "copy_count")?,
                        copy_bytes: num(get(cell, "copy_bytes")?, "copy_bytes")?,
                        copy_us: num(get(cell, "copy_us")?, "copy_us")?,
                        comm_count: num(get(cell, "comm_count")?, "comm_count")?,
                        comm_bytes: num(get(cell, "comm_bytes")?, "comm_bytes")?,
                        comm_us: num(get(cell, "comm_us")?, "comm_us")?,
                        attn_us: num(get(cell, "attn_us")?, "attn_us")?,
                        lump_us: num(get(cell, "lump_us")?, "lump_us")?,
                        overlap_efficiency,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("cells must be an array".to_string()),
        };
        let overlap_efficiency = num(
            get(&value, "overlap_efficiency")?,
            "overlap_efficiency",
        )?;
        if !(0.0..=1.0).contains(&overlap_efficiency) {
            return Err("overlap_efficiency must be within [0, 1]".to_string());
        }
        Ok(Calibration {
            constants,
            seq: num(get(&value, "seq")?, "seq")? as usize,
            probe_steps: num(get(&value, "probe_steps")?, "probe_steps")? as usize,
            probe_threads: num(get(&value, "probe_threads")?, "probe_threads")? as usize,
            thread_rates,
            overlap_efficiency,
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

    fn tiny_workload() -> Workload {
        Workload {
            probe_steps: 1,
            chunk_candidates: vec![2],
            ..Workload::new(ModelConfig::tiny(1, 32, 4, 50), 32)
        }
    }

    fn synthetic_calibration() -> Calibration {
        Calibration {
            constants: CostConstants {
                gemm_flops: 1e12,
                attention_flops: 1e12,
                kernel_overhead: 0.0,
                nvlink_bw: 1e9,
                pcie_bw: 1e9,
                ib_bw: 1e9,
                link_latency: 0.0,
            },
            seq: 256,
            probe_steps: 2,
            probe_threads: 4,
            thread_rates: vec![(4, 1.0), (1, 2.0)],
            overlap_efficiency: 1.0,
            cells: vec![
                CellProfile {
                    chunks: 4,
                    payload_bf16: false,
                    step_us: 4000.0,
                    copy_count: 40.0,
                    copy_bytes: 1_000_000.0,
                    copy_us: 1000.0,
                    comm_count: 8.0,
                    comm_bytes: 500_000.0,
                    comm_us: 500.0,
                    attn_us: 2000.0,
                    lump_us: 500.0,
                    overlap_efficiency: 1.0,
                },
                CellProfile {
                    chunks: 4,
                    payload_bf16: true,
                    step_us: 3250.0,
                    copy_count: 40.0,
                    copy_bytes: 500_000.0,
                    copy_us: 500.0,
                    comm_count: 8.0,
                    comm_bytes: 250_000.0,
                    comm_us: 250.0,
                    attn_us: 2000.0,
                    lump_us: 500.0,
                    overlap_efficiency: 1.0,
                },
            ],
        }
    }

    #[test]
    fn serial_prediction_reproduces_the_profile_and_async_overlaps() {
        let cal = synthetic_calibration();
        let serial = CandidateConfig {
            chunks: 4,
            prefetch: false,
            comm_async: false,
            payload_bf16: false,
            threads: 4,
        };
        let t_serial = predict_step_us(&cal, &serial);
        assert!(
            (t_serial - 4000.0).abs() / 4000.0 < 0.02,
            "serial {t_serial} != probe 4000"
        );
        let dual = CandidateConfig {
            prefetch: true,
            comm_async: true,
            ..serial
        };
        let t_dual = predict_step_us(&cal, &dual);
        assert!(t_dual < t_serial, "streams must hide wire time");
        // Compute (2500 µs) bounds the overlapped step from below.
        assert!(t_dual >= 2500.0 * 0.99, "dual {t_dual}");
    }

    #[test]
    fn search_prefers_bf16_dual_stream_on_the_synthetic_model() {
        let cal = synthetic_calibration();
        let mut workload = tiny_workload();
        workload.chunk_candidates = vec![4];
        workload.allow_bf16 = true;
        let (evaluated, best) = search(&cal, &workload);
        // 4 chunks × 2 bf16 × 2 × 2 streams × 2 threads.
        assert_eq!(evaluated.len(), 16);
        assert!(best.config.prefetch && best.config.comm_async);
        assert!(best.config.payload_bf16);
        assert_eq!(best.config.threads, 4, "slower 1-thread rate rejected");
        let worst = evaluated
            .iter()
            .map(|e| e.predicted_step_us)
            .fold(0.0f64, f64::max);
        assert!(best.predicted_step_us < worst);
    }

    #[test]
    fn single_thread_scale_slows_compute_prediction() {
        let cal = synthetic_calibration();
        let base = CandidateConfig {
            chunks: 4,
            prefetch: false,
            comm_async: false,
            payload_bf16: false,
            threads: 4,
        };
        let slow = CandidateConfig { threads: 1, ..base };
        assert!(predict_step_us(&cal, &slow) > predict_step_us(&cal, &base));
    }

    #[test]
    fn calibration_json_round_trips() {
        let cal = synthetic_calibration();
        let back = Calibration::from_json(&cal.to_json()).expect("round trip");
        assert_eq!(back.constants, cal.constants);
        assert_eq!(back.cells.len(), cal.cells.len());
        assert_eq!(back.thread_rates, cal.thread_rates);
        assert!((back.overlap_efficiency - cal.overlap_efficiency).abs() < 1e-12);
        assert!((back.cells[0].overlap_efficiency - 1.0).abs() < 1e-12);
        assert!(back.cells[1].payload_bf16);
        assert!((back.cells[0].step_us - cal.cells[0].step_us).abs() < 1e-9);
        assert!(Calibration::from_json("{}").is_err());
        assert!(Calibration::from_json("nonsense").is_err());
    }

    #[test]
    fn end_to_end_probe_fit_search_on_a_tiny_model() {
        // A real (tiny) probe: constants come out positive, the grid is
        // fully priced, and the best candidate is drawn from the grid.
        let workload = tiny_workload();
        let outcome = autotune(&workload);
        let c = &outcome.calibration.constants;
        assert!(c.attention_flops > 0.0 && c.pcie_bw > 0.0 && c.nvlink_bw > 0.0);
        let eff = outcome.calibration.overlap_efficiency;
        assert!((0.0..=1.0).contains(&eff), "efficiency {eff} out of range");
        assert_eq!(outcome.calibration.cells.len(), 1);
        assert_eq!(outcome.evaluated.len(), 4, "1 chunk × 2×2 streams");
        assert!(outcome
            .evaluated
            .iter()
            .any(|e| e.config == outcome.best.config));
        assert!(outcome.best.predicted_step_us > 0.0);
        let opts = outcome.best.config.options();
        assert!(opts.offload, "autotuner tunes the offloaded pipeline");
    }
}
