//! The FPDT pipeline schedule, emitted into the `fpdt-sim` discrete-event
//! engine.
//!
//! One simulated node is built with every GPU's three CUDA streams
//! (compute, host-to-device, device-to-host — paper Figure 7) sharing the
//! node's PCIe link, and the per-layer forward and backward schedules are
//! laid out task by task:
//!
//! * **Forward**: per chunk `i` — QKV projection, all-to-all, then online
//!   attention against KV chunks `0..=i`, fetching previous chunks from
//!   host memory on the copy stream while computing (double buffering),
//!   then offloading chunk `i`'s QKV for the backward.
//! * **Backward** (Figure 7): KV-outer / Q-inner nested loop. `dK_j/dV_j`
//!   finalize after inner sweep `j`; the all-to-all + projection backward
//!   for chunk `j` overlaps the prefetch of KV chunk `j+1`.
//!
//! The simulated makespan drives MFU (Figures 11/12); the HBM pool
//! timeline draws Figure 13; and the `copy_streams`/`double_buffer` knobs
//! are the ablations DESIGN.md calls out.

use fpdt_model::config::ModelConfig;
use fpdt_model::memory::BF16;
use fpdt_sim::cost::CostModel;
use fpdt_sim::engine::{Engine, StreamId, TaskId, Work};
use fpdt_sim::hw::ClusterSpec;
use fpdt_sim::SimError;

/// Backward-pass loop nesting order (DESIGN.md ablation 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NestOrder {
    /// The paper's Figure-7 order: outer over KV chunks, inner over query
    /// chunks. Each outer iteration fetches ONE KV chunk and streams the
    /// (smaller) query/dO chunks past it.
    #[default]
    KvOuter,
    /// The naive flip: outer over query chunks, inner over KV chunks.
    /// Every inner iteration must fetch a KV chunk — `u(u+1)/2` KV
    /// fetches instead of `u`, so prefetch must cover K *and* V instead
    /// of just the next query (the cost the paper calls out in §4.2).
    QOuter,
}

/// Pipeline configuration knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineOpts {
    /// Number of sequence chunks `u` per layer.
    pub chunks: usize,
    /// Offload idle chunks to host memory.
    pub offload: bool,
    /// Allow the copy stream to run one fetch ahead of compute. Without
    /// it every fetch serializes behind the tile that consumes the
    /// previous one (the paper's non-overlapped strawman).
    pub double_buffer: bool,
    /// Number of dedicated copy streams: 0 (copies ride the compute
    /// stream), 1 (shared H2D+D2H), or 2 (the paper's design).
    pub copy_streams: u8,
    /// Backward nesting order.
    pub nest: NestOrder,
}

impl PipelineOpts {
    /// The paper's configuration: offload + double buffer + 2 copy
    /// streams + KV-outer backward.
    pub fn paper(chunks: usize) -> Self {
        PipelineOpts {
            chunks,
            offload: true,
            double_buffer: true,
            copy_streams: 2,
            nest: NestOrder::KvOuter,
        }
    }

    /// Chunking without offload ("FPDT w. chunking" in Figure 11).
    pub fn chunking_only(chunks: usize) -> Self {
        PipelineOpts {
            offload: false,
            ..Self::paper(chunks)
        }
    }
}

/// Result of simulating one Transformer block (forward + backward).
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Simulated seconds for the block's forward pass.
    pub fwd_seconds: f64,
    /// Simulated seconds for the block's backward pass.
    pub bwd_seconds: f64,
    /// Peak HBM bytes attributable to the block's transient chunks.
    pub hbm_peak: u64,
    /// `(time, bytes)` samples of HBM usage across the run (Figure 13).
    pub timeline: Vec<(f64, u64)>,
    /// The full simulator report (streams, pools, per-task records) — what
    /// `fpdt-trace`'s Chrome exporter and schedule metrics consume.
    pub sim: fpdt_sim::engine::SimReport,
}

struct GpuStreams {
    compute: StreamId,
    h2d: StreamId,
    d2h: StreamId,
}

/// One block's per-GPU geometry and task durations at global sequence
/// `seq` in `u` chunks: what [`simulate_block`] and
/// [`simulate_forward_layers`] lay their tasks out from. Byte sizes are of
/// one chunk tensor (`unit`), one chunk's Q/K/V and one chunk's K/V; times
/// are one chunk's QKV and output projections and one of the FFN's `2u`
/// sub-chunks (paper §5.4).
struct BlockCosts {
    cost: CostModel,
    p: u64,
    unit: u64,
    qkv_bytes: u64,
    kv_bytes: u64,
    t_qkv: f64,
    t_proj: f64,
    t_ffn: f64,
    full_tile_flops: f64,
}

impl BlockCosts {
    fn new(model: &ModelConfig, cluster: &ClusterSpec, seq: u64, u: usize) -> Self {
        let p = cluster.total_gpus() as u64;
        let cost = CostModel::new(cluster.clone());
        // Geometry. Per-GPU bytes of one gathered chunk equal the local-chunk
        // bytes: [chunk_global, hidden/p] == [chunk_local, hidden].
        let tokens_local = seq / p;
        let chunk_local = (tokens_local / u as u64).max(1);
        let chunk_global = (seq / u as u64).max(1);
        let unit = BF16 * chunk_local * model.hidden as u64;
        let kv_ratio = model.kv_heads as f64 / model.heads as f64;
        // Heads may not divide the group evenly (56 heads / 16 GPUs); account
        // the per-GPU share fractionally so FLOPs stay exact.
        let heads_local = model.heads as f64 / p as f64;
        let d = model.head_dim() as f64;
        let hidden = model.hidden as f64;
        let ffn_tokens = (tokens_local / (2 * u as u64)).max(1) as f64;
        BlockCosts {
            p,
            unit,
            qkv_bytes: (unit as f64 * (1.0 + 2.0 * kv_ratio)) as u64,
            kv_bytes: (unit as f64 * 2.0 * kv_ratio) as u64,
            t_qkv: cost.gemm_time(2.0 * chunk_local as f64 * model.attention_params() as f64),
            t_proj: cost.gemm_time(2.0 * chunk_local as f64 * (hidden * hidden)),
            t_ffn: cost.gemm_time(2.0 * ffn_tokens * model.mlp_params() as f64),
            full_tile_flops: 4.0 * chunk_global as f64 * chunk_global as f64 * heads_local * d,
            cost,
        }
    }

    /// FLOPs of one attention tile; a causal diagonal tile does half.
    fn tile_flops(&self, diag: bool) -> f64 {
        if diag {
            self.full_tile_flops / 2.0
        } else {
            self.full_tile_flops
        }
    }

    /// One all-to-all of `bytes` per GPU over the group.
    fn a2a(&self, bytes: u64) -> f64 {
        self.cost.all_to_all_time(bytes, self.p as usize)
    }
}

/// Simulates one FPDT Transformer block (forward then backward) for
/// `model` on `cluster` at global sequence length `seq`, returning
/// timings and the memory timeline.
///
/// # Errors
///
/// Returns a [`SimError`] if the schedule is malformed (should not happen
/// for valid inputs) or `InvalidConfig` for zero chunks.
pub fn simulate_block(
    model: &ModelConfig,
    cluster: &ClusterSpec,
    seq: u64,
    opts: PipelineOpts,
) -> Result<PipelineReport, SimError> {
    if opts.chunks == 0 {
        return Err(SimError::InvalidConfig {
            what: "chunks must be positive".into(),
        });
    }
    let u = opts.chunks;
    let g = cluster.node.gpus; // GPUs sharing this node's PCIe
    let c = BlockCosts::new(model, cluster, seq, u);

    let mut eng = Engine::new();
    let hbm = eng.add_pool("hbm0", Some(cluster.node.gpu.hbm_bytes));
    let pcie_h2d = eng.add_resource("pcie.h2d", cluster.node.pcie_bw, cluster.node.link_latency);
    let pcie_d2h = eng.add_resource("pcie.d2h", cluster.node.pcie_bw, cluster.node.link_latency);

    let gpus: Vec<GpuStreams> = (0..g)
        .map(|i| {
            let compute = eng.add_stream(&format!("gpu{i}.compute"));
            let (h2d, d2h) = match opts.copy_streams {
                0 => (compute, compute),
                1 => {
                    let c = eng.add_stream(&format!("gpu{i}.copy"));
                    (c, c)
                }
                _ => (
                    eng.add_stream(&format!("gpu{i}.h2d")),
                    eng.add_stream(&format!("gpu{i}.d2h")),
                ),
            };
            GpuStreams { compute, h2d, d2h }
        })
        .collect();

    let mut last_fwd: Vec<TaskId> = Vec::new();
    let track = |gpu: usize| gpu == 0; // memory timeline follows GPU 0

    // ---------- forward ----------
    for (gi, s) in gpus.iter().enumerate() {
        // per-(i,j) tile ids so fetches can depend on earlier tiles
        let mut tile_ids: Vec<Vec<TaskId>> = vec![Vec::new(); u];
        // offload task per chunk: fetches of chunk j require its D2H done
        let mut offload_ids: Vec<Option<TaskId>> = vec![None; u];
        for i in 0..u {
            let qkv = eng.add_task(
                &format!("fwd.qkv.{i}"),
                s.compute,
                Work::Compute { seconds: c.t_qkv },
            )?;
            let mut b = eng.task(
                &format!("fwd.a2a.{i}"),
                s.compute,
                Work::Compute {
                    seconds: c.a2a(c.qkv_bytes),
                },
            );
            b.deps(&[qkv]);
            if track(gi) {
                b.alloc(hbm, 2 * c.qkv_bytes, "a2a send+recv");
            }
            let a2a_i = b.submit()?;
            let mut prev_tile: Option<TaskId> = None;
            for j in 0..=i {
                let mut deps = vec![a2a_i];
                if let Some(pt) = prev_tile {
                    deps.push(pt);
                }
                if opts.offload && j < i {
                    // fetch KV chunk j from host
                    let mut fb = eng.task(
                        &format!("fwd.fetch.{i}.{j}"),
                        s.h2d,
                        Work::Transfer {
                            bytes: c.kv_bytes,
                            resource: pcie_h2d,
                        },
                    );
                    // double buffering: fetch j may start once tile j-2 is
                    // done (two buffers); otherwise it waits for tile j-1.
                    let window = if opts.double_buffer { 2 } else { 1 };
                    if j >= window {
                        fb.deps(&[tile_ids[i][j - window]]);
                    }
                    if let Some(off) = offload_ids[j] {
                        fb.deps(&[off]); // chunk j must be in host memory
                    }
                    if track(gi) {
                        fb.alloc(hbm, c.kv_bytes, "kv fetch buffer");
                    }
                    let fetch = fb.submit()?;
                    deps.push(fetch);
                }
                let mut tb = eng.task(
                    &format!("fwd.attn.{i}.{j}"),
                    s.compute,
                    Work::Compute {
                        seconds: c.cost.attention_time(c.tile_flops(j == i)),
                    },
                );
                tb.deps(&deps);
                if track(gi) && opts.offload && j < i {
                    tb.free(hbm, c.kv_bytes); // fetched buffer released
                }
                let tile = tb.submit()?;
                tile_ids[i].push(tile);
                prev_tile = Some(tile);
            }
            let last_tile = *tile_ids[i].last().expect("at least the diagonal tile");
            if opts.offload {
                // offload this chunk's QKV for the backward pass
                let mut ob = eng.task(
                    &format!("fwd.offload.{i}"),
                    s.d2h,
                    Work::Transfer {
                        bytes: c.qkv_bytes,
                        resource: pcie_d2h,
                    },
                );
                ob.deps(&[last_tile]);
                if track(gi) {
                    ob.free(hbm, 2 * c.qkv_bytes); // qkv + send staging released
                }
                offload_ids[i] = Some(ob.submit()?);
            }
            let mut back = eng.task(
                &format!("fwd.a2a_back.proj.{i}"),
                s.compute,
                Work::Compute {
                    seconds: c.a2a(c.unit) + c.t_proj,
                },
            );
            back.deps(&[last_tile]);
            let back = back.submit()?;
            // Without offload the a2a receive buffers stay resident for the
            // whole block (no D2H frees them) — the persistence the memory
            // timeline shows for "FPDT w. chunking".
            if i == u - 1 {
                last_fwd.push(back);
            }
        }
        // FFN at 2u chunks (paper §5.4), on the compute stream.
        for f in 0..2 * u {
            let mut fb = eng.task(
                &format!("fwd.ffn.{f}"),
                s.compute,
                Work::Compute { seconds: c.t_ffn },
            );
            if track(gi) {
                fb.alloc(hbm, (c.unit as f64 * 0.5).max(1.0) as u64, "ffn chunk");
                fb.free(hbm, (c.unit as f64 * 0.5).max(1.0) as u64);
            }
            let t = fb.submit()?;
            if f == 2 * u - 1 {
                last_fwd.push(t);
            }
        }
    }

    // barrier between forward and backward
    let barrier_stream = gpus[0].compute;
    let mut bb = eng.task("fwd.done", barrier_stream, Work::Event);
    bb.deps(&last_fwd);
    let fwd_done = bb.submit()?;

    // ---------- backward (Figure 7) ----------
    for (gi, s) in gpus.iter().enumerate() {
        // FFN gradients first (paper Figure 13 ordering).
        let mut prev = fwd_done;
        for f in 0..2 * u {
            let mut fb = eng.task(
                &format!("bwd.ffn.{f}"),
                s.compute,
                Work::Compute {
                    seconds: 2.0 * c.t_ffn,
                },
            );
            fb.deps(&[prev]);
            if track(gi) {
                fb.alloc(hbm, c.unit, "ffn grad chunk");
                fb.free(hbm, c.unit);
            }
            prev = fb.submit()?;
        }
        if opts.nest == NestOrder::QOuter {
            // Ablation: query-outer nesting at *equal memory*. Every inner
            // iteration fetches a KV chunk (u(u+1)/2 fetches total) AND
            // must round-trip the partial dK_j/dV_j accumulators through
            // host memory (they cannot all stay resident without paying
            // u x the footprint) — the extra traffic §4.2's ordering
            // argument avoids.
            let mut tiles: Vec<TaskId> = Vec::new();
            for i in 0..u {
                let q_fetch = if opts.offload {
                    let mut qb = eng.task(
                        &format!("bwd.qouter.fetch_q.{i}"),
                        s.h2d,
                        Work::Transfer {
                            bytes: 2 * c.unit,
                            resource: pcie_h2d,
                        },
                    );
                    if track(gi) {
                        qb.alloc(hbm, 2 * c.unit, "bwd q/do chunk");
                    }
                    Some(qb.submit()?)
                } else {
                    None
                };
                let mut last: Option<TaskId> = None;
                for j in 0..=i {
                    let mut deps = vec![prev];
                    if let Some(qf) = q_fetch {
                        deps.push(qf);
                    }
                    if opts.offload {
                        // KV chunk j plus its partial accumulators in...
                        let mut fb = eng.task(
                            &format!("bwd.qouter.fetch_kv_acc.{i}.{j}"),
                            s.h2d,
                            Work::Transfer {
                                bytes: 2 * c.kv_bytes,
                                resource: pcie_h2d,
                            },
                        );
                        let window = if opts.double_buffer { 2 } else { 1 };
                        if tiles.len() >= window {
                            fb.deps(&[tiles[tiles.len() - window]]);
                        }
                        if track(gi) {
                            fb.alloc(hbm, 2 * c.kv_bytes, "bwd kv + acc chunk");
                        }
                        deps.push(fb.submit()?);
                    }
                    let mut tb = eng.task(
                        &format!("bwd.qouter.attn.{i}.{j}"),
                        s.compute,
                        Work::Compute {
                            seconds: c.cost.attention_time(2.5 * c.tile_flops(j == i)),
                        },
                    );
                    tb.deps(&deps);
                    let t = tb.submit()?;
                    tiles.push(t);
                    last = Some(t);
                    if opts.offload {
                        // ...and the updated accumulators back out.
                        let mut wb = eng.task(
                            &format!("bwd.qouter.writeback_acc.{i}.{j}"),
                            s.d2h,
                            Work::Transfer {
                                bytes: c.kv_bytes,
                                resource: pcie_d2h,
                            },
                        );
                        wb.deps(&[t]);
                        if track(gi) {
                            wb.free(hbm, 2 * c.kv_bytes);
                        }
                        wb.submit()?;
                    }
                }
                let mut cb = eng.task(
                    &format!("bwd.qouter.a2a.projbwd.{i}"),
                    s.compute,
                    Work::Compute {
                        seconds: c.a2a(c.unit) + 2.0 * c.t_qkv + 2.0 * c.t_proj,
                    },
                );
                cb.deps(&[last.expect("inner loop non-empty")]);
                if track(gi) && opts.offload {
                    cb.free(hbm, 2 * c.unit);
                }
                prev = cb.submit()?;
            }
            // Ship every dK/dV chunk home at the very end (one final fetch
            // + all-to-all per chunk; in KV-outer this piggybacked on the
            // per-outer-iteration all-to-all).
            for j in 0..u {
                let mut sb = eng.task(
                    &format!("bwd.qouter.ship_dkv.{j}"),
                    s.compute,
                    Work::Compute {
                        seconds: c.a2a(c.kv_bytes),
                    },
                );
                sb.deps(&[prev]);
                prev = sb.submit()?;
            }
            continue;
        }

        // Attention: outer over KV chunks, inner over query chunks.
        let mut inner_tiles: Vec<TaskId> = Vec::new();
        // The KV prefetch for outer iteration j+1 overlaps iteration j's
        // all-to-all + projection backward (paper Figure 7): it only needs
        // the previous inner loop's *tiles* to be done, not the a2a.
        let mut prev_last_inner: Option<TaskId> = None;
        for j in 0..u {
            let kv_fetch = if opts.offload {
                let mut fb = eng.task(
                    &format!("bwd.fetch_kv.{j}"),
                    s.h2d,
                    Work::Transfer {
                        bytes: c.kv_bytes,
                        resource: pcie_h2d,
                    },
                );
                fb.deps(&[prev_last_inner.unwrap_or(prev)]);
                if track(gi) {
                    fb.alloc(hbm, c.kv_bytes, "bwd kv chunk");
                }
                Some(fb.submit()?)
            } else {
                None
            };
            let mut last_inner: Option<TaskId> = None;
            for (idx, i) in (j..u).enumerate() {
                let mut deps: Vec<TaskId> = vec![prev];
                if let Some(kf) = kv_fetch {
                    deps.push(kf);
                }
                if opts.offload {
                    // fetch q_i, dO_i (double-buffered window on tiles)
                    let mut qb = eng.task(
                        &format!("bwd.fetch_q.{j}.{i}"),
                        s.h2d,
                        Work::Transfer {
                            bytes: 2 * c.unit,
                            resource: pcie_h2d,
                        },
                    );
                    let window = if opts.double_buffer { 2 } else { 1 };
                    if idx >= window {
                        qb.deps(&[inner_tiles[inner_tiles.len() - window]]);
                    }
                    if track(gi) {
                        qb.alloc(hbm, 2 * c.unit, "bwd q/do chunk");
                    }
                    deps.push(qb.submit()?);
                }
                let mut tb = eng.task(
                    &format!("bwd.attn.{j}.{i}"),
                    s.compute,
                    Work::Compute {
                        seconds: c.cost.attention_time(2.5 * c.tile_flops(j == i)),
                    },
                );
                tb.deps(&deps);
                if track(gi) && opts.offload {
                    tb.free(hbm, 2 * c.unit);
                }
                let tile = tb.submit()?;
                inner_tiles.push(tile);
                last_inner = Some(tile);
            }
            // dK_j/dV_j (and dq_j) final: all-to-all back + projection
            // backward; overlaps the next outer iteration's KV prefetch
            // because that runs on the copy stream.
            let mut cb = eng.task(
                &format!("bwd.a2a.projbwd.{j}"),
                s.compute,
                Work::Compute {
                    seconds: c.a2a(c.qkv_bytes) + 2.0 * c.t_qkv + 2.0 * c.t_proj,
                },
            );
            let last_inner = last_inner.expect("inner loop non-empty");
            cb.deps(&[last_inner]);
            if track(gi) && opts.offload {
                cb.free(hbm, c.kv_bytes);
            }
            prev_last_inner = Some(last_inner);
            prev = cb.submit()?;
        }
    }

    let report = eng.run()?;
    let fwd_seconds = report.finish_time(fwd_done)?;
    let bwd_seconds = report.makespan - fwd_seconds;
    let hbm_peak = report.pools.peak(hbm)?;
    let timeline = report.pools.sampled(hbm, report.makespan, 200)?;
    Ok(PipelineReport {
        fwd_seconds,
        bwd_seconds,
        hbm_peak,
        timeline,
        sim: report,
    })
}

/// Forward-only multi-layer simulation with optional **cross-layer chunk
/// pipelining** — an extension beyond the paper: because every operator in
/// the block is chunk-local (QKV projection, per-chunk all-to-all,
/// attention over the causal prefix, chunked FFN), chunk `i` of layer
/// `L+1` only needs chunk `i` of layer `L`, not the whole layer. Removing
/// the layer barrier lets the next layer's early chunks start while the
/// current layer's late chunks still compute, amortizing the pipeline
/// ramp-up/down bubbles across `layers x u` instead of `u`.
///
/// Returns `(serial_seconds, pipelined_seconds)` for `layers` forward
/// layers.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for zero chunks/layers.
pub fn simulate_forward_layers(
    model: &ModelConfig,
    cluster: &ClusterSpec,
    seq: u64,
    opts: PipelineOpts,
    layers: usize,
) -> Result<(f64, f64), SimError> {
    if opts.chunks == 0 || layers == 0 {
        return Err(SimError::InvalidConfig {
            what: "chunks and layers must be positive".into(),
        });
    }
    let u = opts.chunks;
    let c = BlockCosts::new(model, cluster, seq, u);
    let tile = |diag: bool| c.cost.attention_time(c.tile_flops(diag));
    let run = |cross_layer: bool| -> Result<f64, SimError> {
        let mut eng = Engine::new();
        let compute = eng.add_stream("gpu0.compute");
        let h2d = eng.add_stream("gpu0.h2d");
        let d2h = eng.add_stream("gpu0.d2h");
        let pcie_in = eng.add_resource("pcie.h2d", cluster.node.pcie_bw, cluster.node.link_latency);
        let pcie_out =
            eng.add_resource("pcie.d2h", cluster.node.pcie_bw, cluster.node.link_latency);

        // done[i] = completion task of chunk i in the previous layer
        let mut prev_done: Vec<Option<TaskId>> = vec![None; u];
        for layer in 0..layers {
            let mut offloads: Vec<Option<TaskId>> = vec![None; u];
            let mut tiles: Vec<TaskId> = Vec::new();
            let mut done: Vec<Option<TaskId>> = vec![None; u];
            for i in 0..u {
                let mut qb = eng.task(
                    &format!("l{layer}.qkv.{i}"),
                    compute,
                    Work::Compute { seconds: c.t_qkv },
                );
                if cross_layer {
                    if let Some(dep) = prev_done[i] {
                        qb.deps(&[dep]);
                    }
                } else if let Some(dep) = prev_done[u - 1] {
                    qb.deps(&[dep]); // layer barrier
                }
                let qkv = qb.submit()?;
                let mut ab = eng.task(
                    &format!("l{layer}.a2a.{i}"),
                    compute,
                    Work::Compute {
                        seconds: c.a2a(c.qkv_bytes),
                    },
                );
                ab.deps(&[qkv]);
                let a2a_t = ab.submit()?;
                let mut last = a2a_t;
                #[expect(clippy::needless_range_loop, reason = "j names tasks and the diagonal")]
                for j in 0..=i {
                    let mut deps = vec![a2a_t, last];
                    if opts.offload && j < i {
                        let mut fb = eng.task(
                            &format!("l{layer}.fetch.{i}.{j}"),
                            h2d,
                            Work::Transfer {
                                bytes: c.kv_bytes,
                                resource: pcie_in,
                            },
                        );
                        let window = if opts.double_buffer { 2 } else { 1 };
                        if tiles.len() >= window {
                            fb.deps(&[tiles[tiles.len() - window]]);
                        }
                        if let Some(off) = offloads[j] {
                            fb.deps(&[off]);
                        }
                        deps.push(fb.submit()?);
                    }
                    let mut tb = eng.task(
                        &format!("l{layer}.attn.{i}.{j}"),
                        compute,
                        Work::Compute {
                            seconds: tile(j == i),
                        },
                    );
                    tb.deps(&deps);
                    let t = tb.submit()?;
                    tiles.push(t);
                    last = t;
                }
                if opts.offload {
                    let mut ob = eng.task(
                        &format!("l{layer}.offload.{i}"),
                        d2h,
                        Work::Transfer {
                            bytes: c.qkv_bytes,
                            resource: pcie_out,
                        },
                    );
                    ob.deps(&[last]);
                    offloads[i] = Some(ob.submit()?);
                }
                // chunk output: a2a back + out projection + this chunk's two
                // FFN sub-chunks (paper §5.4: FFN at 2x attention chunks)
                let mut cb = eng.task(
                    &format!("l{layer}.out.{i}"),
                    compute,
                    Work::Compute {
                        seconds: c.a2a(c.unit) + c.t_proj + 2.0 * c.t_ffn,
                    },
                );
                cb.deps(&[last]);
                done[i] = Some(cb.submit()?);
            }
            prev_done = done;
        }
        Ok(eng.run()?.makespan)
    };
    Ok((run(false)?, run(true)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpdt_model::config::ModelConfig;

    const K: u64 = 1024;

    fn block(seq: u64, opts: PipelineOpts) -> PipelineReport {
        simulate_block(
            &ModelConfig::llama3_8b(),
            &ClusterSpec::a100_80g(1, 4),
            seq,
            opts,
        )
        .expect("simulation runs")
    }

    #[test]
    fn double_buffering_hides_fetch_latency() {
        // With small chunks the pipeline is PCIe-bound; double buffering
        // must not be slower, and at the paper's sweet spot it should be
        // at least as fast as the serialized variant.
        let seq = 256 * K;
        let db = block(
            seq,
            PipelineOpts {
                chunks: 16,
                ..PipelineOpts::paper(16)
            },
        );
        let no_db = block(
            seq,
            PipelineOpts {
                chunks: 16,
                double_buffer: false,
                ..PipelineOpts::paper(16)
            },
        );
        assert!(db.fwd_seconds <= no_db.fwd_seconds * 1.001);
        assert!(db.bwd_seconds <= no_db.bwd_seconds * 1.001);
    }

    #[test]
    fn dedicated_copy_streams_beat_compute_stream_copies() {
        // streams=0 serializes every transfer behind compute — the
        // ablation showing why the paper deploys three CUDA streams.
        let seq = 256 * K;
        let three = block(seq, PipelineOpts::paper(8));
        let zero = PipelineOpts {
            copy_streams: 0,
            ..PipelineOpts::paper(8)
        };
        let zero = block(seq, zero);
        assert!(three.fwd_seconds < zero.fwd_seconds);
    }

    #[test]
    fn offload_shrinks_hbm_at_cost_of_traffic() {
        let seq = 512 * K;
        let off = block(seq, PipelineOpts::paper(16));
        let on_dev = block(seq, PipelineOpts::chunking_only(16));
        assert!(
            off.hbm_peak < on_dev.hbm_peak,
            "{} vs {}",
            off.hbm_peak,
            on_dev.hbm_peak
        );
    }

    #[test]
    fn more_chunks_reduce_peak_memory() {
        let seq = 256 * K;
        let few = block(seq, PipelineOpts::paper(2));
        let many = block(seq, PipelineOpts::paper(16));
        assert!(many.hbm_peak < few.hbm_peak);
    }

    #[test]
    fn backward_costs_more_than_forward() {
        let r = block(256 * K, PipelineOpts::paper(8));
        assert!(r.bwd_seconds > r.fwd_seconds);
        assert!(r.sim.task_records().len() > 100);
        assert!(!r.timeline.is_empty());
    }

    #[test]
    fn zero_chunks_rejected() {
        let e = simulate_block(
            &ModelConfig::llama3_8b(),
            &ClusterSpec::a100_80g(1, 4),
            256 * K,
            PipelineOpts {
                chunks: 0,
                ..PipelineOpts::paper(1)
            },
        );
        assert!(matches!(e, Err(SimError::InvalidConfig { .. })));
    }
}

#[cfg(test)]
mod cross_layer_tests {
    use super::*;
    use fpdt_model::config::ModelConfig;
    use fpdt_sim::hw::ClusterSpec;

    #[test]
    fn cross_layer_pipelining_never_slower() {
        let m = ModelConfig::llama3_8b();
        let cluster = ClusterSpec::a100_80g(1, 4);
        let (serial, cross) =
            simulate_forward_layers(&m, &cluster, 512 * 1024, PipelineOpts::paper(8), 4).unwrap();
        assert!(cross <= serial * 1.0001, "{cross} vs {serial}");
    }

    #[test]
    fn layer_barriers_are_free_in_fpdt_forward() {
        // A negative result worth knowing: removing the inter-layer
        // barrier recovers (almost) nothing, because (a) the compute
        // stream is serial, so no compute can overlap other compute, and
        // (b) a layer's KV fetches depend on its *own* offloads, so there
        // is nothing to prefetch across the boundary. FPDT's three-stream
        // design already keeps the bottleneck resource saturated.
        let m = ModelConfig::gpt_2_7b();
        let cluster = ClusterSpec::a100_80g(1, 4);
        let (serial, cross) =
            simulate_forward_layers(&m, &cluster, 256 * 1024, PipelineOpts::paper(32), 4).unwrap();
        let gain = 1.0 - cross / serial;
        assert!(
            (0.0..0.01).contains(&gain),
            "barrier removal is ~free: serial {serial} cross {cross}"
        );
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let m = ModelConfig::llama3_8b();
        let cluster = ClusterSpec::a100_80g(1, 4);
        assert!(simulate_forward_layers(&m, &cluster, 1 << 20, PipelineOpts::paper(8), 0).is_err());
        assert!(simulate_forward_layers(&m, &cluster, 1 << 20, PipelineOpts::paper(0), 2).is_err());
    }
}
