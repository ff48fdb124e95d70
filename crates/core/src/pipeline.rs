//! The FPDT pipeline schedule, emitted into the `fpdt-sim` discrete-event
//! engine.
//!
//! One simulated node is built with every GPU's three CUDA streams
//! (compute, host-to-device, device-to-host — paper Figure 7) sharing the
//! node's PCIe link, and the per-layer forward and backward schedules are
//! laid out task by task:
//!
//! * **Forward**: per chunk `i` — QKV projection, all-to-all, then online
//!   attention against KV chunks `0..=i`, then offloading chunk `i`'s QKV
//!   for the backward. It follows the executor's residency rule,
//!   [`kv_on_device`]: pairs 0, 1 and `i-1` are read from the device, and
//!   only the other earlier chunks are fetched from host memory on the
//!   copy stream while computing (double buffering).
//! * **Backward** (Figure 7): the paper's KV-outer / Q-inner nested loop,
//!   not the executor's tile order. `dK_j/dV_j` finalize after inner
//!   sweep `j`; the all-to-all + projection backward for chunk `j`
//!   overlaps the prefetch of KV chunk `j+1`.
//!
//! [`simulate_block`] is a short driver over three private emitters on
//! one `Block`: the forward, and the two backward nests of [`NestOrder`].
//!
//! The simulated makespan drives MFU (Figures 11/12); the HBM pool
//! timeline draws Figure 13; and the `copy_streams`/`double_buffer` knobs
//! are the ablations DESIGN.md calls out.

use crate::chunk::kv_on_device;
use fpdt_model::config::ModelConfig;
use fpdt_model::memory::BF16;
use fpdt_sim::cost::CostModel;
use fpdt_sim::engine::{Engine, ResourceId, StreamId, TaskBuilder, TaskId, Work};
use fpdt_sim::hw::ClusterSpec;
use fpdt_sim::memory::PoolId;
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

#[derive(Clone, Copy)]
struct GpuStreams {
    compute: StreamId,
    h2d: StreamId,
    d2h: StreamId,
}

/// One block's per-GPU geometry and task durations at global sequence
/// `seq` in `u` chunks: what the emitters lay their tasks out from. Byte
/// sizes are of one chunk tensor (`unit`), one chunk's Q/K/V and one
/// chunk's K/V; times are one chunk's QKV and output projections and one
/// of the FFN's `2u` sub-chunks (paper §5.4).
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

/// One simulated node under construction: every GPU's streams, the PCIe
/// link they share, and GPU 0's HBM pool (the memory timeline follows
/// GPU 0).
struct Node {
    eng: Engine,
    hbm: PoolId,
    pcie_h2d: ResourceId,
    pcie_d2h: ResourceId,
    gpus: Vec<GpuStreams>,
}

impl Node {
    fn new(cluster: &ClusterSpec, copy_streams: u8) -> Self {
        let mut eng = Engine::new();
        let hbm = eng.add_pool("hbm0", Some(cluster.node.gpu.hbm_bytes));
        let [pcie_h2d, pcie_d2h] = ["pcie.h2d", "pcie.d2h"]
            .map(|name| eng.add_resource(name, cluster.node.pcie_bw, cluster.node.link_latency));
        let gpus = (0..cluster.node.gpus)
            .map(|i| {
                let compute = eng.add_stream(&format!("gpu{i}.compute"));
                let (h2d, d2h) = match copy_streams {
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
        Node {
            eng,
            hbm,
            pcie_h2d,
            pcie_d2h,
            gpus,
        }
    }

    /// A kernel of `seconds` on GPU `gi`'s compute stream.
    fn kernel(&mut self, gi: usize, name: &str, seconds: f64) -> TaskBuilder<'_> {
        let stream = self.gpus[gi].compute;
        self.eng.task(name, stream, Work::Compute { seconds })
    }

    /// A host-to-device copy of `bytes` on GPU `gi`'s H2D stream.
    fn h2d(&mut self, gi: usize, name: &str, bytes: u64) -> TaskBuilder<'_> {
        let (stream, resource) = (self.gpus[gi].h2d, self.pcie_h2d);
        self.eng
            .task(name, stream, Work::Transfer { bytes, resource })
    }

    /// A device-to-host copy of `bytes` on GPU `gi`'s D2H stream.
    fn d2h(&mut self, gi: usize, name: &str, bytes: u64) -> TaskBuilder<'_> {
        let (stream, resource) = (self.gpus[gi].d2h, self.pcie_d2h);
        self.eng
            .task(name, stream, Work::Transfer { bytes, resource })
    }
}

/// One block's schedule being laid into a [`Node`]: the costs, the knobs
/// and the per-layer emitters.
struct Block {
    c: BlockCosts,
    opts: PipelineOpts,
    node: Node,
}

impl Block {
    fn new(model: &ModelConfig, cluster: &ClusterSpec, seq: u64, opts: PipelineOpts) -> Self {
        Block {
            c: BlockCosts::new(model, cluster, seq, opts.chunks),
            opts,
            node: Node::new(cluster, opts.copy_streams),
        }
    }

    /// Double-buffer depth: a fetch may start once the tile that consumed
    /// the fetch `window` before it is done.
    fn window(&self) -> usize {
        1 + usize::from(self.opts.double_buffer)
    }

    /// Lays out one layer's forward on every GPU: per chunk `i` the QKV
    /// projection and all-to-all, the tiles `(i, 0..=i)`, the offload of
    /// chunk `i`'s QKV, and the all-to-all back with the output
    /// projection; then the FFN in `2u` sub-chunks. With offload, a tile
    /// reads an earlier K/V pair from the device where [`kv_on_device`]
    /// says so, the pair held in HBM from its offload to that last device
    /// read; every other tile's pair is fetched from the host on the copy
    /// stream, double-buffered over the row's fetches. Returns the end of
    /// the forward: a zero-time event on GPU 0's compute stream that waits
    /// for every GPU's last FFN sub-chunk.
    fn forward(&mut self) -> Result<TaskId, SimError> {
        let (u, window, offload) = (self.opts.chunks, self.window(), self.opts.offload);
        let (hbm, c, n) = (self.node.hbm, &self.c, &mut self.node);
        let mut lasts = Vec::with_capacity(n.gpus.len());
        for gi in 0..n.gpus.len() {
            let track = gi == 0;
            // offload task per chunk: fetches of chunk j require its D2H done
            let mut offload_ids: Vec<Option<TaskId>> = vec![None; u];
            for i in 0..u {
                let qkv = n.kernel(gi, &format!("fwd.qkv.{i}"), c.t_qkv).submit()?;
                let mut b = n.kernel(gi, &format!("fwd.a2a.{i}"), c.a2a(c.qkv_bytes));
                b.deps(&[qkv]);
                if track {
                    b.alloc(hbm, 2 * c.qkv_bytes, "a2a send+recv");
                }
                let a2a_i = b.submit()?;
                // The row's tiles that consumed a host fetch, in order: the
                // double buffer's window.
                let mut fetched: Vec<TaskId> = Vec::new();
                let mut prev_tile: Option<TaskId> = None;
                for (j, &put) in offload_ids[..=i].iter().enumerate() {
                    let mut deps = vec![a2a_i];
                    deps.extend(prev_tile);
                    let host = offload && j < i && !kv_on_device(i, j);
                    // The device pair's last read frees it, as a host
                    // tile frees its fetch buffer.
                    let last_read = offload
                        && j < i
                        && kv_on_device(i, j)
                        && (i + 1 == u || !kv_on_device(i + 1, j));
                    if host {
                        // fetch KV chunk j from host
                        let mut fb = n.h2d(gi, &format!("fwd.fetch.{i}.{j}"), c.kv_bytes);
                        if fetched.len() >= window {
                            fb.deps(&[fetched[fetched.len() - window]]);
                        }
                        if let Some(put) = put {
                            fb.deps(&[put]); // chunk j must be in host memory
                        }
                        if track {
                            fb.alloc(hbm, c.kv_bytes, "kv fetch buffer");
                        }
                        deps.push(fb.submit()?);
                    }
                    let t = c.cost.attention_time(c.tile_flops(j == i));
                    let mut tb = n.kernel(gi, &format!("fwd.attn.{i}.{j}"), t);
                    tb.deps(&deps);
                    if track && (host || last_read) {
                        tb.free(hbm, c.kv_bytes);
                    }
                    let tile = tb.submit()?;
                    if host {
                        fetched.push(tile);
                    }
                    prev_tile = Some(tile);
                }
                let last_tile = prev_tile.expect("at least the diagonal tile");
                if offload {
                    // offload this chunk's QKV for the backward pass
                    let mut ob = n.d2h(gi, &format!("fwd.offload.{i}"), c.qkv_bytes);
                    ob.deps(&[last_tile]);
                    if track {
                        // qkv + send staging released, but for a pair a
                        // later chunk reads from the device
                        let kept = i + 1 < u && kv_on_device(i + 1, i);
                        ob.free(hbm, 2 * c.qkv_bytes - u64::from(kept) * c.kv_bytes);
                    }
                    offload_ids[i] = Some(ob.submit()?);
                }
                // Without offload the a2a receive buffers stay resident for
                // the whole block (no D2H frees them) — the persistence the
                // memory timeline shows for "FPDT w. chunking".
                let t = c.a2a(c.unit) + c.t_proj;
                let mut back = n.kernel(gi, &format!("fwd.a2a_back.proj.{i}"), t);
                back.deps(&[last_tile]);
                back.submit()?;
            }
            // FFN at 2u chunks (paper §5.4), on the compute stream.
            let mut last = None;
            for f in 0..2 * u {
                let mut fb = n.kernel(gi, &format!("fwd.ffn.{f}"), c.t_ffn);
                if track {
                    fb.alloc(hbm, (c.unit as f64 * 0.5).max(1.0) as u64, "ffn chunk");
                    fb.free(hbm, (c.unit as f64 * 0.5).max(1.0) as u64);
                }
                last = Some(fb.submit()?);
            }
            lasts.extend(last);
        }
        let stream = n.gpus[0].compute;
        let mut b = n.eng.task("fwd.done", stream, Work::Event);
        b.deps(&lasts);
        b.submit()
    }

    /// Lays out one block's backward on every GPU after `fwd_done`: the FFN
    /// gradients first (paper Figure 13 ordering), then the attention nest.
    fn backward(&mut self, fwd_done: TaskId) -> Result<(), SimError> {
        for gi in 0..self.node.gpus.len() {
            let (c, hbm) = (&self.c, self.node.hbm);
            let mut prev = fwd_done;
            for f in 0..2 * self.opts.chunks {
                let mut fb = self.node.kernel(gi, &format!("bwd.ffn.{f}"), 2.0 * c.t_ffn);
                fb.deps(&[prev]);
                if gi == 0 {
                    fb.alloc(hbm, c.unit, "ffn grad chunk");
                    fb.free(hbm, c.unit);
                }
                prev = fb.submit()?;
            }
            match self.opts.nest {
                NestOrder::KvOuter => self.kv_outer(gi, prev)?,
                NestOrder::QOuter => self.q_outer(gi, prev)?,
            }
        }
        Ok(())
    }

    /// The paper's backward attention nest on GPU `gi` after `prev`: outer
    /// over KV chunks, inner over query chunks (Figure 7).
    fn kv_outer(&mut self, gi: usize, mut prev: TaskId) -> Result<(), SimError> {
        let (u, window, offload) = (self.opts.chunks, self.window(), self.opts.offload);
        let (hbm, c, n, track) = (self.node.hbm, &self.c, &mut self.node, gi == 0);
        let mut inner_tiles: Vec<TaskId> = Vec::new();
        // The KV prefetch for outer iteration j+1 overlaps iteration j's
        // all-to-all + projection backward (paper Figure 7): it only needs
        // the previous inner loop's *tiles* to be done, not the a2a.
        let mut prev_last_inner: Option<TaskId> = None;
        for j in 0..u {
            let kv_fetch = if offload {
                let mut fb = n.h2d(gi, &format!("bwd.fetch_kv.{j}"), c.kv_bytes);
                fb.deps(&[prev_last_inner.unwrap_or(prev)]);
                if track {
                    fb.alloc(hbm, c.kv_bytes, "bwd kv chunk");
                }
                Some(fb.submit()?)
            } else {
                None
            };
            let mut last_inner: Option<TaskId> = None;
            for (idx, i) in (j..u).enumerate() {
                let mut deps: Vec<TaskId> = vec![prev];
                deps.extend(kv_fetch);
                if offload {
                    // fetch q_i, dO_i (double-buffered window on tiles)
                    let mut qb = n.h2d(gi, &format!("bwd.fetch_q.{j}.{i}"), 2 * c.unit);
                    if idx >= window {
                        qb.deps(&[inner_tiles[inner_tiles.len() - window]]);
                    }
                    if track {
                        qb.alloc(hbm, 2 * c.unit, "bwd q/do chunk");
                    }
                    deps.push(qb.submit()?);
                }
                let t = c.cost.attention_time(2.5 * c.tile_flops(j == i));
                let mut tb = n.kernel(gi, &format!("bwd.attn.{j}.{i}"), t);
                tb.deps(&deps);
                if track && offload {
                    tb.free(hbm, 2 * c.unit);
                }
                let tile = tb.submit()?;
                inner_tiles.push(tile);
                last_inner = Some(tile);
            }
            // dK_j/dV_j (and dq_j) final: all-to-all back + projection
            // backward; overlaps the next outer iteration's KV prefetch
            // because that runs on the copy stream.
            let t = c.a2a(c.qkv_bytes) + 2.0 * c.t_qkv + 2.0 * c.t_proj;
            let mut cb = n.kernel(gi, &format!("bwd.a2a.projbwd.{j}"), t);
            let last_inner = last_inner.expect("inner loop non-empty");
            cb.deps(&[last_inner]);
            if track && offload {
                cb.free(hbm, c.kv_bytes);
            }
            prev_last_inner = Some(last_inner);
            prev = cb.submit()?;
        }
        Ok(())
    }

    /// The nest-order ablation on GPU `gi` after `prev`: query-outer
    /// nesting at *equal memory*. Every inner iteration fetches a KV chunk
    /// (u(u+1)/2 fetches total) AND must round-trip the partial dK_j/dV_j
    /// accumulators through host memory (they cannot all stay resident
    /// without paying u x the footprint) — the extra traffic §4.2's
    /// ordering argument avoids.
    fn q_outer(&mut self, gi: usize, mut prev: TaskId) -> Result<(), SimError> {
        let (u, window, offload) = (self.opts.chunks, self.window(), self.opts.offload);
        let (hbm, c, n, track) = (self.node.hbm, &self.c, &mut self.node, gi == 0);
        let mut tiles: Vec<TaskId> = Vec::new();
        // As in KV-outer, outer iteration i's fetch waits for iteration
        // i-1's last tile, and the first for the FFN backward.
        let mut prev_last: Option<TaskId> = None;
        for i in 0..u {
            let q_fetch = if offload {
                let mut qb = n.h2d(gi, &format!("bwd.qouter.fetch_q.{i}"), 2 * c.unit);
                qb.deps(&[prev_last.unwrap_or(prev)]);
                if track {
                    qb.alloc(hbm, 2 * c.unit, "bwd q/do chunk");
                }
                Some(qb.submit()?)
            } else {
                None
            };
            let mut last: Option<TaskId> = None;
            for j in 0..=i {
                let mut deps = vec![prev];
                deps.extend(q_fetch);
                if offload {
                    // KV chunk j plus its partial accumulators in...
                    let name = format!("bwd.qouter.fetch_kv_acc.{i}.{j}");
                    let mut fb = n.h2d(gi, &name, 2 * c.kv_bytes);
                    if tiles.len() >= window {
                        fb.deps(&[tiles[tiles.len() - window]]);
                    }
                    if track {
                        fb.alloc(hbm, 2 * c.kv_bytes, "bwd kv + acc chunk");
                    }
                    deps.push(fb.submit()?);
                }
                let t = c.cost.attention_time(2.5 * c.tile_flops(j == i));
                let mut tb = n.kernel(gi, &format!("bwd.qouter.attn.{i}.{j}"), t);
                tb.deps(&deps);
                let t = tb.submit()?;
                tiles.push(t);
                last = Some(t);
                if offload {
                    // ...and the updated accumulators back out.
                    let name = format!("bwd.qouter.writeback_acc.{i}.{j}");
                    let mut wb = n.d2h(gi, &name, c.kv_bytes);
                    wb.deps(&[t]);
                    if track {
                        wb.free(hbm, 2 * c.kv_bytes);
                    }
                    wb.submit()?;
                }
            }
            let t = c.a2a(c.unit) + 2.0 * c.t_qkv + 2.0 * c.t_proj;
            let mut cb = n.kernel(gi, &format!("bwd.qouter.a2a.projbwd.{i}"), t);
            let last = last.expect("inner loop non-empty");
            cb.deps(&[last]);
            if track && offload {
                cb.free(hbm, 2 * c.unit);
            }
            prev_last = Some(last);
            prev = cb.submit()?;
        }
        // Ship every dK/dV chunk home at the very end (one final fetch
        // + all-to-all per chunk; in KV-outer this piggybacked on the
        // per-outer-iteration all-to-all).
        for j in 0..u {
            let mut sb = n.kernel(gi, &format!("bwd.qouter.ship_dkv.{j}"), c.a2a(c.kv_bytes));
            sb.deps(&[prev]);
            prev = sb.submit()?;
        }
        Ok(())
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
    let mut block = Block::new(model, cluster, seq, opts);
    let fwd_done = block.forward()?;
    block.backward(fwd_done)?;

    let hbm = block.node.hbm;
    let report = block.node.eng.run()?;
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
