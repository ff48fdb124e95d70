//! Pluggable attention executors.
//!
//! A GPT block hands an [`AttentionExec`] its explicit global positions
//! and a producer of its (RoPE'd) `q/k/v` rows, shaped `[rows, heads, d]`,
//! which the executor asks for chunk by chunk. It gets the attention
//! output back in the same layout, chunk by chunk as each one lands (the
//! backward asks for `o`/`dO` and hands back gradients the same way).
//! What happens in between is the difference between the training modes:
//!
//! * [`DistAttention`] — the chunked path, the one description of the
//!   paper's chunk schedule: per-chunk Ulysses all-to-all (heads scatter /
//!   sequence gather), streaming online attention over cached KV chunks,
//!   host offload, and a backward that walks the causal tile triangle in
//!   [`tile_slots`] order. With `chunks == 1` this *is* DeepSpeed Ulysses;
//!   with `chunks > 1` it is FPDT. Over a one-rank group it is one-device
//!   chunked attention ([`LocalAttention`], [`DistAttention::new`]): every
//!   all-to-all keeps its only part on the rank and moves nothing.
//! * [`RingAttentionExec`] — Ring Attention, full heads, rotating KV.

// Comm errors propagate as `ExecResult`s, and no hash order reaches the
// schedule or its traces.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_types)]

use super::options::RuntimeOptions;
use crate::chunk::{kv_on_device, tile_slots, ChunkPlan};
use crate::offload::{BufKind, ChunkKey, FetchHandle, OffloadEngine, PoolStats};
use fpdt_attention::default_scale;
use fpdt_attention::online::{attention_block_bwd, rowwise_dot, OnlineAttention};
use fpdt_comm::{AllToAllLayout, CommEngine, CommGroup, Communicator, Pending};
use fpdt_tensor::{Tensor, TensorError};
use fpdt_trace::{Recorder, Span};
#[expect(clippy::disallowed_types, reason = "keyed by layer, never iterated")]
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Executor result type (tensor and communication errors both occur).
pub type ExecResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Receives an executor's output chunk by chunk: `sink(r0, part)` gets the
/// local rows `r0..r0 + n` of the output, `n` the part's leading extent.
/// Parts arrive in ascending row order and cover every local row once; an
/// error the sink returns ends the call with that error.
pub type ChunkSink<'a, T> = dyn FnMut(usize, T) -> ExecResult<()> + 'a;

/// The caller's QKV producer, asked by [`AttentionExec::forward_chunks`]
/// for local rows `r`: it returns `[q_r, k_r, v_r]`, each `[r.len(), heads,
/// d]` (RoPE'd, in the local layout). Ranges come in ascending order and
/// cover every local row once; an error the producer returns ends the call
/// with that error.
pub type QkvProducer<'a> = dyn FnMut(Range<usize>) -> ExecResult<[Tensor; 3]> + 'a;

/// The caller's dense backward, asked by [`AttentionExec::backward_chunks`]
/// for local rows `r`: it returns `[o_r, dO_r]`, the attention output the
/// forward produced on those rows and its gradient, each `[r.len(), heads,
/// d]`. The caller keeps `o` for its own projection, so no executor saves
/// a copy. Ranges come in ascending order and cover every local row once;
/// an error the producer returns ends the call with that error.
pub type DenseBackward<'a> = dyn FnMut(Range<usize>) -> ExecResult<[Tensor; 2]> + 'a;

/// An attention implementation a GPT block can call into.
///
/// The streamed forms, [`AttentionExec::forward_chunks`] and
/// [`AttentionExec::backward_chunks`], are the ones an executor writes:
/// they take the caller's inputs as callbacks and hand each output chunk to
/// the caller as soon as it is home, so the caller's row-local work on it
/// runs while other chunks still travel. [`AttentionExec::forward`] and
/// [`AttentionExec::backward`] take whole tensors already at hand and
/// collect the same chunks into whole tensors.
pub trait AttentionExec {
    /// Computes attention for `layer` over the `pos.len()` local rows,
    /// saving whatever the backward pass needs: asks `qkv` for the rows'
    /// inputs, range by range, and hands the output to `sink` chunk by
    /// chunk. `pos[t]` is the global position of local row `t`; each output
    /// part is `[n, heads, d]`.
    ///
    /// # Errors
    ///
    /// Shape or communication failures, or the producer's or the sink's
    /// own error.
    fn forward_chunks(
        &mut self,
        layer: usize,
        pos: &[usize],
        qkv: &mut QkvProducer<'_>,
        sink: &mut ChunkSink<'_, Tensor>,
    ) -> ExecResult<()>;

    /// Consumes the saved state for `layer`, whose forward ran over `rows`
    /// local rows: asks `dense` for the rows' `[o, dO]`, range by range,
    /// and hands `[dq, dk, dv]` to `sink` chunk by chunk, in the local
    /// layout. Transfers that need neither go out before `dense` is first
    /// asked, so they cross the link while the caller's dense backward
    /// runs.
    ///
    /// # Errors
    ///
    /// Shape or communication failures, a missing forward for `layer`, or
    /// the error `dense` or the sink returns.
    fn backward_chunks(
        &mut self,
        layer: usize,
        rows: usize,
        dense: &mut DenseBackward<'_>,
        sink: &mut ChunkSink<'_, [Tensor; 3]>,
    ) -> ExecResult<()>;

    /// [`AttentionExec::forward_chunks`] for whole `[s_local, heads, d]`
    /// inputs already at hand, with the output collected into one tensor
    /// of the same layout.
    ///
    /// # Errors
    ///
    /// As [`AttentionExec::forward_chunks`].
    fn forward(
        &mut self,
        layer: usize,
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        pos: &[usize],
    ) -> ExecResult<Tensor> {
        let mut o = RowChunks::new(pos.len());
        let mut qkv = narrowed([q, k, v]);
        self.forward_chunks(layer, pos, &mut qkv, &mut |r0, part| o.push(r0, part))?;
        o.finish()
    }

    /// [`AttentionExec::backward_chunks`] for an `(o, dout)` already at
    /// hand, with `(dq, dk, dv)` collected into whole tensors in the local
    /// layout.
    ///
    /// # Errors
    ///
    /// As [`AttentionExec::backward_chunks`].
    fn backward(
        &mut self,
        layer: usize,
        o: &Tensor,
        dout: &Tensor,
    ) -> ExecResult<(Tensor, Tensor, Tensor)> {
        let rows = dout.shape()[0];
        collect_grads(rows, |sink| {
            self.backward_chunks(layer, rows, &mut narrowed([o, dout]), sink)
        })
    }

    /// Drops the saved state for `layer` without running a backward pass —
    /// what activation checkpointing does after the first forward (the
    /// recompute pass will rebuild it). A no-op when nothing is saved.
    fn discard(&mut self, layer: usize);

    /// Host-pool transfer statistics since the executor was built (zero
    /// for executors without a host pool).
    fn host_stats(&self) -> PoolStats {
        PoolStats::default()
    }
}

/// `N` tensors as an array.
fn array<const N: usize>(tensors: Vec<Tensor>) -> ExecResult<[Tensor; N]> {
    <[Tensor; N]>::try_from(tensors).map_err(|t| format!("{} tensors, not {N}", t.len()).into())
}

/// The `N` tensors of a posted all-to-all, once its receive half has run.
fn landed<const N: usize>(engine: &mut CommEngine, posted: Pending) -> ExecResult<[Tensor; N]> {
    array(engine.wait(posted)?)
}

/// A producer that hands out rows of whole tensors already at hand.
fn narrowed<'a, const N: usize>(
    whole: [&'a Tensor; N],
) -> impl FnMut(Range<usize>) -> ExecResult<[Tensor; N]> + 'a {
    move |r| {
        let parts = whole.iter().map(|t| t.narrow(0, r.start, r.len()));
        array(parts.collect::<Result<_, _>>()?)
    }
}

/// A full-length `[rows, ..]` tensor filled by row range from chunks that
/// arrive in ascending order, each right after the last: a lone chunk that
/// covers every row is moved in, others are copied into place once.
pub(crate) struct RowChunks {
    rows: usize,
    /// Rows filled so far.
    at: usize,
    shape: Vec<usize>,
    data: Vec<f32>,
    lone: Option<Tensor>,
}

impl RowChunks {
    pub(crate) fn new(rows: usize) -> Self {
        RowChunks {
            rows,
            at: 0,
            shape: Vec::new(),
            data: Vec::new(),
            lone: None,
        }
    }

    /// Places `part` at local rows `r0..`.
    pub(crate) fn push(&mut self, r0: usize, part: Tensor) -> ExecResult<()> {
        let n = part.shape().first().copied().unwrap_or(0);
        if r0 != self.at || r0 + n > self.rows {
            return Err(format!(
                "rows {r0}..{} arrived with {} of {} filled",
                r0 + n,
                self.at,
                self.rows
            )
            .into());
        }
        self.at += n;
        if r0 == 0 && n == self.rows {
            self.lone = Some(part);
            return Ok(());
        }
        if r0 == 0 {
            self.shape = part.shape().to_vec();
            self.shape[0] = self.rows;
            self.data = Vec::with_capacity(self.shape.iter().product());
        } else if part.shape()[1..] != self.shape[1..] {
            return Err(format!(
                "row chunk {:?} does not continue {:?}",
                part.shape(),
                self.shape
            )
            .into());
        }
        self.data.extend_from_slice(part.data());
        Ok(())
    }

    /// The filled tensor.
    pub(crate) fn finish(self) -> ExecResult<Tensor> {
        if self.at != self.rows {
            return Err(format!("{} of {} rows arrived", self.at, self.rows).into());
        }
        match self.lone {
            Some(t) => Ok(t),
            None => Ok(Tensor::from_vec(self.data, &self.shape)?),
        }
    }
}

/// Runs a streamed backward over `rows` local rows and collects its
/// `(dq, dk, dv)` chunks into whole tensors.
fn collect_grads(
    rows: usize,
    run: impl FnOnce(&mut ChunkSink<'_, [Tensor; 3]>) -> ExecResult<()>,
) -> ExecResult<(Tensor, Tensor, Tensor)> {
    let mut grads = [
        RowChunks::new(rows),
        RowChunks::new(rows),
        RowChunks::new(rows),
    ];
    run(&mut |r0, parts| {
        for (g, part) in grads.iter_mut().zip(parts) {
            g.push(r0, part)?;
        }
        Ok(())
    })?;
    let [dq, dk, dv] = grads;
    Ok((dq.finish()?, dk.finish()?, dv.finish()?))
}

/// One-device chunked attention: a one-rank [`DistAttention`], built by
/// [`DistAttention::new`].
pub type LocalAttention = DistAttention;

/// Distributed chunked attention: Ulysses all-to-all per chunk posted on
/// a split-phase communication stream, streaming online attention, host
/// offload behind a double-buffered copy stream, tiled backward.
///
/// The comm schedule runs ahead of compute like the offload schedule:
/// every chunk's fused op (QKV forward, `[dO, D]` backward) is posted,
/// each before the next chunk's rows are asked for, before the first
/// tile runs, and output/gradient chunks travel home as [`Pending`]
/// handles resolved after the last slot, in ascending chunk order, each
/// handed to the caller's sink as soon as it lands — the caller's
/// row-local work on chunk `i` runs while the later chunks' gathers are
/// still on the wire. The streams' clocks decide only how long a wait
/// sleeps, never an op's order, so every statistic is what the rank's
/// program order says.
///
/// Only bytes that have to move do: a rank's own slice of every
/// all-to-all stays on the rank ([`CommEngine::post`]), and the output
/// `O` never enters the chunk store. The backward forms each chunk's
/// softmax row-dot `D_i = rowsum(O_i ∘ dO_i)` from the block's own `O_i`
/// in the local layout and ships it with the chunk's `dO` gather.
///
/// The forward folds chunk `i`'s KV tiles in one ascending loop over
/// `j < i`, then the diagonal. One residency rule, [`kv_on_device`],
/// decides where a tile's pair comes from: pairs 0 and 1 stay on the
/// device for the whole layer forward, and pair `i-1` while chunk `i`
/// runs; every other tile is fetched from the chunk store,
/// double-buffered, its first fetch issued before the chunk's QKV lands.
/// The device pairs are in the form [`OffloadEngine::put`] handed back,
/// bit for bit what a fetch returns. A layer's forward keep-fetches are
/// therefore `(u-3)(u-4)`: none at `u <= 4`. Each chunk's `[Q, Lse]` goes
/// down behind the next chunk's K/V (the last chunk's at the end of the
/// forward), so the only puts a forward fetch can queue behind on the D2H
/// clock are K/V puts. The device price is at most two K/V pairs more
/// than the 4-pair peak of a double-buffered fold (DESIGN.md "Tile
/// schedule"), and one chunk's `[Q, Lse]` held one chunk longer.
///
/// The causal tile triangle is cut so every pipeline slot carries
/// near-equal work: the forward posts all fused QKV ops up-front, and the
/// backward walks [`tile_slots`] rather than the paper's
/// column-per-slot Figure-7 nest (same tiles, same per-index
/// accumulation order, same pool/comm operation counts — see DESIGN.md
/// "Tile schedule" for why only this cut is kept).
///
/// The backward's opening — the transfers its first slot consumes, which
/// need neither `o` nor `dO` — goes on the copy stream before the caller's
/// dense backward is asked for its first chunk, so it crosses the link
/// meanwhile.
///
/// The executor holds a chunk count, not a [`ChunkPlan`]: each call plans
/// from the communicator's world and its input's row count, so one
/// executor serves any sequence length that `world * chunks` divides.
pub struct DistAttention {
    comm: Arc<Communicator>,
    chunks: usize,
    payload_bf16: bool,
    /// The rank's chunk store: the host pool with offload on, else
    /// device-resident.
    store: OffloadEngine,
    engine: CommEngine,
    recorder: Option<Recorder>,
}

/// A K/V chunk pair, or a query row's `[Q, Lse]`, on the copy stream.
type PairFetch = FetchHandle<[Arc<Tensor>; 2]>;

impl DistAttention {
    /// Creates the executor for one rank — the one options surface is
    /// [`RuntimeOptions`]. With `offload` the cached chunks live in the
    /// host pool, else on the device; both engines charge the link at
    /// `opts.sim_gbps`. A sequence that `world * chunks` does not divide
    /// (or `chunks == 0`) fails the call, not the constructor.
    pub fn with_opts(
        comm: Arc<Communicator>,
        chunks: usize,
        offload: bool,
        opts: RuntimeOptions,
    ) -> Self {
        let mut store = OffloadEngine::for_rank(comm.rank(), opts.sim_gbps, offload);
        store.set_payload_bf16(opts.payload_bf16);
        let mut engine = CommEngine::new(Arc::clone(&comm), opts.sim_gbps);
        engine.set_retries(opts.comm_retries);
        DistAttention {
            engine,
            comm,
            chunks,
            payload_bf16: opts.payload_bf16,
            store,
            recorder: None,
        }
    }

    /// One-device chunked attention in `chunks` chunks: the executor over
    /// a one-rank group, chunks on the device, f32, no retries, a free
    /// link. Its options are this fixed value, not the environment's.
    pub fn new(chunks: usize) -> Self {
        // A one-rank group holds exactly one communicator.
        let comm = CommGroup::new(1).communicators().remove(0);
        let opts = RuntimeOptions {
            payload_bf16: false,
            comm_retries: 0,
            fault_inject: 0,
            sim_gbps: 0.0,
        };
        Self::with_opts(Arc::new(comm), chunks, false, opts)
    }

    /// The plan of a call whose local sequence holds `rows` tokens.
    fn plan(&self, rows: usize) -> ExecResult<ChunkPlan> {
        let world = self.comm.world();
        Ok(ChunkPlan::new(rows * world, world, self.chunks)?)
    }

    /// Attaches a span recorder: every all-to-all post, attention-chunk
    /// computation, host offload copy, and link occupancy interval records
    /// a wall-clock span.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.store.set_recorder(recorder.clone());
        self.engine.set_recorder(recorder.clone());
        self.recorder = Some(recorder);
        self
    }

    /// Ops posted on the communication stream so far — the audit counter
    /// behind "exactly one fused QKV all-to-all per chunk".
    pub fn comm_posted(&self) -> u64 {
        self.engine.posted()
    }

    /// Bytes one element occupies on the wire under the current payload
    /// format (2 with `payload_bf16`, else 4).
    fn wire_elem_bytes(&self) -> usize {
        if self.payload_bf16 {
            2
        } else {
            4
        }
    }

    fn span(&self, label: &str, elems: usize) -> Option<Span> {
        let bytes = (elems * self.wire_elem_bytes()) as u64;
        self.recorder.as_ref().map(|r| r.span(label).bytes(bytes))
    }

    /// Issues the fetch of several cached chunks as one copy-stream transfer
    /// (`consume` evicts a chunk, otherwise it stays cached; every path is
    /// zero-copy — the `Arc` is shared).
    fn stage<const N: usize>(
        &mut self,
        reqs: [(ChunkKey, bool); N],
    ) -> ExecResult<FetchHandle<[Arc<Tensor>; N]>> {
        Ok(self
            .store
            .prefetch_batch(reqs)
            .ok_or_else(|| format!("missing cached chunk in {reqs:?}"))?)
    }

    /// Issues the double-buffer prefetch for KV chunk `j` of `layer`.
    fn fetch_kv(&mut self, layer: usize, j: usize, consume: bool) -> ExecResult<PairFetch> {
        self.stage([
            (ChunkKey::new(layer, BufKind::K, j), consume),
            (ChunkKey::new(layer, BufKind::V, j), consume),
        ])
    }

    /// Issues the take of query chunk `i`'s saved forward state
    /// `[Q, Lse]` — what opening row `i` of the backward consumes — as
    /// one copy-stream transfer.
    fn fetch_row(&mut self, layer: usize, i: usize) -> ExecResult<PairFetch> {
        self.stage([
            (ChunkKey::new(layer, BufKind::Q, i), true),
            (ChunkKey::new(layer, BufKind::Lse, i), true),
        ])
    }

    /// Puts query chunk `i`'s saved forward state, `Q` then its lse: the
    /// pair [`DistAttention::fetch_row`] takes back.
    fn put_row(&mut self, layer: usize, i: usize, q: Arc<Tensor>, lse: Tensor) {
        self.store.put(ChunkKey::new(layer, BufKind::Q, i), q);
        self.store
            .put(ChunkKey::new(layer, BufKind::Lse, i), Arc::new(lse));
    }

    /// Issues the backward's opening for `layer`: the takes its first slot
    /// consumes, in the order it consumes them — KV column 0, the
    /// `[Q, Lse]` of every row `tile_slots(u)[0]` opens, then KV column 1,
    /// which slot 0 puts on the stream one slot ahead. Returns the KV
    /// columns and the query rows in flight, by chunk index.
    fn open(&mut self, layer: usize) -> ExecResult<[Vec<Option<PairFetch>>; 2]> {
        let u = self.chunks;
        let slots = tile_slots(u);
        let first = slots.first().ok_or("zero chunks have no backward")?;
        let [mut kv, mut rows] = [(); 2].map(|()| (0..u).map(|_| None).collect::<Vec<_>>());
        kv[0] = Some(self.fetch_kv(layer, 0, true)?);
        for &(i, j) in first {
            if j == 0 {
                rows[i] = Some(self.fetch_row(layer, i)?);
            }
        }
        if u > 1 {
            kv[1] = Some(self.fetch_kv(layer, 1, true)?);
        }
        Ok([kv, rows])
    }

    /// Posts one op on the comm stream: the all-to-all of every tensor in
    /// `tensors`, each through its forward (scatter-heads) or, with
    /// `inverse`, its inverse layout, recorded as a `label` span.
    fn post(&mut self, label: &str, tensors: &[&Tensor], inverse: bool) -> ExecResult<Pending> {
        let world = self.comm.world();
        let mut items = Vec::with_capacity(tensors.len());
        for t in tensors {
            let layout = if inverse {
                AllToAllLayout::scatter_seq(t.shape(), world)?
            } else {
                AllToAllLayout::scatter_heads(t.shape(), world)?
            };
            items.push((layout, *t));
        }
        let _s = self.span(label, tensors.iter().map(|t| t.data().len()).sum());
        Ok(self.engine.post(&items, self.payload_bf16)?)
    }

    /// The softmax row-dot `D = rowsum(O ∘ dO)` of local rows as a
    /// `[rows, heads, 1]` tensor, formed where `O` already lives. A
    /// `(token, head)` row of `O` and of `dO` holds the same bits in the
    /// local and the gathered layout, and [`rowwise_dot`] sums each row in
    /// one fixed order, so a chunk's row-dot, gathered, is bit for bit the
    /// row-dot of the gathered chunk.
    fn row_dot(&self, o: &Tensor, dout: &Tensor) -> ExecResult<Tensor> {
        let _s = self.span("kernel.attn.rowwise_dot", o.data().len());
        let rows = &dout.shape()[..2];
        Ok(Tensor::from_vec(
            rowwise_dot(o, dout)?,
            &[rows[0], rows[1], 1],
        )?)
    }

    /// The backward tile interpreter: runs the causal tile triangle
    /// `{(i, j) : j <= i < u}` in the order `slots` gives, one `slot.bwd`
    /// span per slot. [`AttentionExec::backward`] passes
    /// [`tile_slots`]; the `tile_order_determinism` suite passes other
    /// orders. `o` and `dout` are the layer's output and its gradient in
    /// the local layout.
    ///
    /// `slots` must hold every tile once, row `i` in ascending `j` and
    /// column `j` in ascending `i`. Then `dq_i` accumulates in ascending
    /// `j` and `dk_j`/`dv_j` in ascending `i` whatever the interleaving,
    /// so gradients are bitwise identical across orders; every pool/comm
    /// operation runs exactly once with the same key, so [`PoolStats`]
    /// and the comm counters are identical too (the backward only takes
    /// from the pool, so even its high-water mark is the forward's).
    ///
    /// The walk issues the layer's opening (`DistAttention::open`) first,
    /// then asks `dense` for each chunk's `[o_i, dO_i]` in ascending order
    /// and posts its `dO` gather with its row-dot
    /// (`DistAttention::row_dot`) fused in, to land as `[dO_i, D_i]`,
    /// before it asks for chunk `i+1`. Row and column state opens lazily,
    /// keyed on the tile itself, and stays on the rank thread until the
    /// tile that closes it:
    ///
    /// * `(i, 0)` opens query row `i` — it lands chunk `i`'s `[Q, Lse]`
    ///   (one take, in the opening or put on the copy stream when row
    ///   `i - 1` opened),
    ///   resolves the gather of `dO` and its row-dot (all posted
    ///   up-front), and zeroes `dq_i` — and the diagonal `(i, i)` ships
    ///   `dq_i` and drops the row. Column 0 runs in ascending `i`, so
    ///   rows open in ascending order; up to `u - 1` are open at once
    ///   (row 0 closes on its only tile).
    /// * `(j, j)` opens KV column `j` — it lands the chunk pair, whose
    ///   take-fetch slot `j - 1` put on the copy stream one slot ahead
    ///   (an order that opens the column earlier fetches it on demand)
    ///   — and `(u - 1, j)` closes it.
    ///
    /// The gradients come home as [`AttentionExec::backward_chunks`]
    /// hands them out: chunk by chunk in ascending order, `[dq_i, dk_i,
    /// dv_i]` as soon as the three gathers have landed.
    ///
    /// # Errors
    ///
    /// Shape or communication failures, a missing forward for `layer`,
    /// or a tile that runs before the tile that opens its row or column.
    pub fn backward_tiles(
        &mut self,
        layer: usize,
        o: &Tensor,
        dout: &Tensor,
        slots: &[Vec<(usize, usize)>],
    ) -> ExecResult<(Tensor, Tensor, Tensor)> {
        let rows = dout.shape()[0];
        collect_grads(rows, |sink| {
            self.walk_tiles(layer, rows, &mut narrowed([o, dout]), slots, sink)
        })
    }

    /// [`DistAttention::backward_tiles`], streamed, with each chunk's
    /// `[o, dO]` from `dense`.
    fn walk_tiles(
        &mut self,
        layer: usize,
        rows: usize,
        dense: &mut DenseBackward<'_>,
        slots: &[Vec<(usize, usize)>],
        sink: &mut ChunkSink<'_, [Tensor; 3]>,
    ) -> ExecResult<()> {
        let [mut kv_pending, mut row_pending] = self.open(layer)?;
        let plan = self.plan(rows)?;
        let u = plan.chunks;

        // Post every dO gather, its row-dot fused in, before any tile
        // computes: most rows open in slot 0 (`tile_slots` front-loads
        // first-column tiles) and the comm stream drains behind the whole
        // triangle. Chunk i's gather leaves as soon as the caller's dense
        // backward has made dO_i, so it crosses the link while chunk i+1's
        // dense work runs. KV take-fetches stay staggered — column `s+1`'s
        // pair goes on the copy stream at the start of slot `s`, one slot
        // before `tile_slots` opens the column — so a row's take never
        // queues behind the entire triangle's KV bytes on the FIFO stream.
        let mut dout_pending: Vec<Option<Pending>> = Vec::with_capacity(u);
        for i in 0..u {
            let [o, dout] = dense(plan.local_chunk_range(i))?;
            let dsum = self.row_dot(&o, &dout)?;
            let posted = self.post("a2a.scatter_heads", &[&dout, &dsum], false)?;
            dout_pending.push(Some(posted));
        }

        // One open query row: its operands and its gradient accumulator
        // (updated in ascending KV order), read in place by every tile.
        struct Row {
            q: Arc<Tensor>,
            dout: Tensor,
            lse: Arc<Tensor>,
            dsum: Vec<f32>,
            gpos: Vec<usize>,
            dq: Tensor,
        }
        // One KV column's live state: the resident chunk pair and its
        // gradient accumulators (updated in ascending query order).
        struct Col {
            k: Arc<Tensor>,
            v: Arc<Tensor>,
            gpos: Vec<usize>,
            dk: Tensor,
            dv: Tensor,
        }
        let mut rows: Vec<Option<Row>> = (0..u).map(|_| None).collect();
        let mut cols: Vec<Option<Col>> = (0..u).map(|_| None).collect();
        // Chunk i's dq, dk and dv gathers, as they are posted.
        let mut grads: Vec<[Option<Pending>; 3]> = (0..u).map(|_| Default::default()).collect();

        for (s, slot) in slots.iter().enumerate() {
            let _slot = self.span("slot.bwd", 0);
            // Only a cold column is fetched: not in flight, and its
            // diagonal — the tile that opens it, and ships `dq` — not run.
            let ahead = s + 1;
            if ahead < u && kv_pending[ahead].is_none() && grads[ahead][0].is_none() {
                kv_pending[ahead] = Some(self.fetch_kv(layer, ahead, true)?);
            }
            for &(i, j) in slot {
                if j == 0 {
                    let row_fetch = row_pending[i]
                        .take()
                        .ok_or("query rows must open in ascending order")?;
                    // The next row's take goes on the stream now, one row
                    // ahead, behind this row's tiles — unless the
                    // opening already issued it.
                    if i + 1 < u && row_pending[i + 1].is_none() {
                        row_pending[i + 1] = Some(self.fetch_row(layer, i + 1)?);
                    }
                    let [dout, dsum] = landed(
                        &mut self.engine,
                        dout_pending[i]
                            .take()
                            .ok_or("chunk i's dO was not posted")?,
                    )?;
                    let [q, lse] = row_fetch.wait();
                    rows[i] = Some(Row {
                        dq: Tensor::zeros(q.shape()),
                        gpos: plan.gathered_positions(i),
                        q,
                        dout,
                        lse,
                        dsum: dsum.into_vec(),
                    });
                }
                if i == j {
                    // First tile of KV column j: land the chunk and zero
                    // its gradient accumulators.
                    let pair = match kv_pending[j].take() {
                        Some(pair) => pair,
                        None => self.fetch_kv(layer, j, true)?,
                    };
                    let [kj, vj] = pair.wait();
                    let dk = Tensor::zeros(kj.shape());
                    let dv = Tensor::zeros(vj.shape());
                    cols[j] = Some(Col {
                        gpos: plan.gathered_positions(j),
                        k: kj,
                        v: vj,
                        dk,
                        dv,
                    });
                }
                let row = rows[i].as_mut().ok_or("query row i was not opened")?;
                let col = cols[j].as_mut().ok_or("KV column j was not staged")?;
                // Closed before the gradient posts below — transfers must
                // not nest inside compute spans or the overlap metric
                // counts a serial runtime as overlapped.
                let tile = self.span("attn.bwd.tile", row.q.data().len());
                let scale = default_scale(row.q.shape()[2]);
                attention_block_bwd(
                    &row.q,
                    &col.k,
                    &col.v,
                    &row.dout,
                    row.lse.data(),
                    &row.dsum,
                    &row.gpos,
                    &col.gpos,
                    scale,
                    &mut row.dq,
                    &mut col.dk,
                    &mut col.dv,
                )?;
                drop(tile);
                if i == j {
                    // The diagonal is row i's last tile: dq_i is final.
                    let done = rows[i].take().ok_or("query row i was not opened")?;
                    grads[i][0] = Some(self.post("a2a.gather_heads", &[&done.dq], true)?);
                }
                if i + 1 == u {
                    // (u-1, j) is column j's last tile: dK_j/dV_j final.
                    let done = cols[j].take().ok_or("KV column j was not staged")?;
                    grads[j][1] = Some(self.post("a2a.gather_heads", &[&done.dk], true)?);
                    grads[j][2] = Some(self.post("a2a.gather_heads", &[&done.dv], true)?);
                }
            }
        }
        self.deliver(&plan, grads, sink)
    }

    /// Hands chunk `i`'s parts to `sink` once its `N` gathers land, in
    /// ascending `i`, so the caller's work on a chunk runs while later
    /// gathers travel. Every posted op is then waited.
    fn deliver<const N: usize>(
        &mut self,
        plan: &ChunkPlan,
        posted: Vec<[Option<Pending>; N]>,
        sink: &mut ChunkSink<'_, [Tensor; N]>,
    ) -> ExecResult<()> {
        for (i, gathers) in posted.into_iter().enumerate() {
            let mut parts = Vec::with_capacity(N);
            for h in gathers {
                let [part] = landed(&mut self.engine, h.ok_or("a gather was never posted")?)?;
                parts.push(part);
            }
            sink(plan.local_chunk_range(i).start, array(parts)?)?;
        }
        debug_assert!(
            self.engine.is_idle(),
            "an all-to-all part is left for a rank-thread collective"
        );
        Ok(())
    }
}

impl AttentionExec for DistAttention {
    /// Zero when `offload` is off.
    fn host_stats(&self) -> PoolStats {
        self.store.stats()
    }

    fn forward_chunks(
        &mut self,
        layer: usize,
        pos: &[usize],
        qkv: &mut QkvProducer<'_>,
        sink: &mut ChunkSink<'_, Tensor>,
    ) -> ExecResult<()> {
        let plan = self.plan(pos.len())?;
        let (u, rank) = (plan.chunks, self.comm.rank());
        // The schedule attends by the plan's positions, so any others
        // would give silently wrong attention.
        if pos != plan.local_positions(rank) {
            return Err(TensorError::InvalidSlice {
                what: format!("positions are not rank {rank}'s shard of {plan:?}"),
            }
            .into());
        }
        // Every fused QKV all-to-all is posted before the first tile: the
        // early slots are short (few KV tiles), so a one-chunk lookahead
        // cannot hide the wire time there, but queue depth u can. Chunk i's
        // rows are asked for only once chunk i-1's op is on the wire, so
        // each post crosses the link while the producer builds the next
        // chunk. The FIFO order of fused QKV ops is ascending in i. Output
        // chunks travel home the same way: the inverse all-to-all is posted
        // as soon as a chunk finalizes and resolved, chunk by chunk, when
        // the slots are done.
        let mut qkv_posted: Vec<Pending> = Vec::with_capacity(u);
        for i in 0..u {
            let [q, k, v] = qkv(plan.local_chunk_range(i))?;
            qkv_posted.push(self.post("a2a.scatter_heads", &[&q, &k, &v], false)?);
        }
        let mut o_handles = Vec::with_capacity(u);
        // The device-resident K/V pairs, in the form the pool stores them
        // (what `put` hands back), kept as `kv_on_device` says: every
        // other tile is fetched from the chunk store.
        let mut kept: Vec<Option<[Arc<Tensor>; 2]>> = (0..u).map(|_| None).collect();
        // Chunk i-1's `[Q, Lse]`, put behind chunk i's K/V: the forward's
        // fetches wait on K/V puts only, never on a put that only the
        // backward reads.
        let mut deferred: Option<(usize, Arc<Tensor>, Tensor)> = None;
        for (i, cur) in qkv_posted.into_iter().enumerate() {
            let _slot = self.span("slot.fwd", 0);
            // Chunk i's tiles `j < i` that no device pair serves, in
            // ascending order, double-buffered on the copy stream: the
            // first goes out before the chunk's QKV lands, and each next
            // one before the current one's update runs, so the copy stream
            // hides it behind compute (paper Figure 13).
            let host = |from: usize| (from..i).find(|&j| !kv_on_device(i, j));
            let mut next = host(0)
                .map(|j| self.fetch_kv(layer, j, false))
                .transpose()?;
            // Project chunk through the all-to-all: full heads/local seq ->
            // local heads/gathered seq.
            let [qh, kh, vh] = landed(&mut self.engine, cur)?;
            let gpos = plan.gathered_positions(i);
            let attn_span = self.span("attn.fwd.chunk", qh.data().len());
            let qh = Arc::new(qh);
            let mut st = OnlineAttention::new_shared(Arc::clone(&qh), &gpos, None)?;
            for (j, pair) in kept[..i].iter().enumerate() {
                let fetched;
                let [kj, vj] = if kv_on_device(i, j) {
                    pair.as_ref().ok_or("KV pair j was not kept")?
                } else {
                    let cur = next.take().ok_or("KV chunk j was not prefetched")?;
                    next = host(j + 1)
                        .map(|t| self.fetch_kv(layer, t, false))
                        .transpose()?;
                    fetched = cur.wait();
                    &fetched
                };
                let _u = self.span("kernel.attn.update", kj.data().len());
                st.update(kj, vj, &plan.gathered_positions(j))?;
            }
            // Pair i-1 has served its last device tile unless chunk i+1
            // reads it from the device too.
            if i > 0 && !kv_on_device(i + 1, i - 1) {
                kept[i - 1] = None;
            }
            {
                let _u = self.span("kernel.attn.update", kh.data().len());
                st.update(&kh, &vh, &gpos)?;
            }
            let (oi, lse) = {
                let _f = self.span("kernel.attn.finalize", qh.data().len());
                st.finalize()
            };
            drop(attn_span);
            // Cache what the backward needs except O, which the block keeps
            // for its own projection and hands back to the backward. K and
            // V go down first — their stored form is what later chunks'
            // tiles read from the device (bf16-rounded when the pool rounds
            // them) — then the previous chunk's `[Q, Lse]`.
            let kw = self
                .store
                .put(ChunkKey::new(layer, BufKind::K, i), Arc::new(kh));
            let vw = self
                .store
                .put(ChunkKey::new(layer, BufKind::V, i), Arc::new(vh));
            if i + 1 < u {
                kept[i] = Some([kw, vw]);
            }
            if let Some((prev, qp, lp)) = deferred.take() {
                self.put_row(layer, prev, qp, lp);
            }
            let lse_len = oi.shape()[0] * oi.shape()[1];
            deferred = Some((i, qh, Tensor::from_vec(lse, &[lse_len])?));
            // Gather heads back: the output chunk returns to local layout.
            o_handles.push([Some(self.post("a2a.gather_heads", &[&oi], true)?)]);
        }
        drop(kept);
        if let Some((last, qp, lp)) = deferred.take() {
            self.put_row(layer, last, qp, lp);
        }
        self.deliver(&plan, o_handles, &mut |r0, [o]| sink(r0, o))
    }

    fn backward_chunks(
        &mut self,
        layer: usize,
        rows: usize,
        dense: &mut DenseBackward<'_>,
        sink: &mut ChunkSink<'_, [Tensor; 3]>,
    ) -> ExecResult<()> {
        self.walk_tiles(layer, rows, dense, &tile_slots(self.chunks), sink)
    }

    fn discard(&mut self, layer: usize) {
        // Drop every cached chunk belonging to this layer (forward saves
        // Q/K/V/Lse per chunk) without a transfer: freeing memory is not
        // PCIe traffic, so it must not touch the fetch counters.
        for kind in [BufKind::Q, BufKind::K, BufKind::V, BufKind::Lse] {
            for chunk in 0..self.chunks {
                self.store.discard(&ChunkKey::new(layer, kind, chunk));
            }
        }
    }
}

/// Ring Attention (Liu et al., 2023) as a real executor: the sequence is
/// sharded contiguously with **full heads everywhere** (no head scatter);
/// KV blocks rotate around the ring, each hop overlapping one blockwise
/// online-attention update. The backward ring rotates `(K, V, dK, dV)`
/// quadruples so gradients accumulate as the blocks travel and arrive
/// home fully reduced.
pub struct RingAttentionExec<'c> {
    comm: &'c Communicator,
    seq_global: usize,
    #[expect(clippy::disallowed_types, reason = "keyed by layer, never iterated")]
    saved: HashMap<usize, RingSaved>,
}

struct RingSaved {
    q: Tensor,
    k: Tensor,
    v: Tensor,
    lse: Vec<f32>,
}

impl<'c> RingAttentionExec<'c> {
    /// Creates the executor for one rank of a contiguous sequence shard.
    #[expect(clippy::disallowed_types, reason = "keyed by layer, never iterated")]
    pub fn new(comm: &'c Communicator, seq_global: usize) -> Self {
        RingAttentionExec {
            comm,
            seq_global,
            saved: HashMap::new(),
        }
    }

    fn owner_positions(&self, owner: usize) -> Vec<usize> {
        let s_local = self.seq_global / self.comm.world();
        (owner * s_local..(owner + 1) * s_local).collect()
    }

    /// Sends a `(k, v)` or `(k, v, dk, dv)` bundle one hop around the ring.
    fn rotate(&self, tensors: &[&Tensor]) -> ExecResult<Vec<Tensor>> {
        let mut flat = Vec::new();
        for t in tensors {
            flat.extend_from_slice(t.data());
        }
        let recv = self.comm.ring_exchange(flat)?;
        let mut out = Vec::with_capacity(tensors.len());
        let mut off = 0;
        for t in tensors {
            let n = t.numel();
            out.push(Tensor::from_vec(recv[off..off + n].to_vec(), t.shape())?);
            off += n;
        }
        Ok(out)
    }
}

impl AttentionExec for RingAttentionExec<'_> {
    /// Asks for and hands back one chunk: the whole shard.
    fn forward_chunks(
        &mut self,
        layer: usize,
        pos: &[usize],
        qkv: &mut QkvProducer<'_>,
        sink: &mut ChunkSink<'_, Tensor>,
    ) -> ExecResult<()> {
        let p = self.comm.world();
        let rank = self.comm.rank();
        // Ring attention attends by the plain contiguous shard's
        // positions, so any others would give silently wrong attention.
        if pos != self.owner_positions(rank) {
            return Err(TensorError::InvalidSlice {
                what: format!(
                    "positions are not rank {rank}'s contiguous shard of {} tokens",
                    self.seq_global
                ),
            }
            .into());
        }
        let [q, k, v] = qkv(0..pos.len())?;
        let mut st = OnlineAttention::new(&q, pos, None)?;
        // The pair visiting from another rank; the rank's own at step 0.
        let mut visiting: Option<Vec<Tensor>> = None;
        for step in 0..p {
            let (ck, cv) = match visiting.as_deref() {
                Some([ck, cv]) => (ck, cv),
                Some(_) => return Err("ring rotate dropped k or v".into()),
                None => (&k, &v),
            };
            let owner = (rank + p - step) % p;
            st.update(ck, cv, &self.owner_positions(owner))?;
            if step + 1 < p {
                visiting = Some(self.rotate(&[ck, cv])?);
            }
        }
        let (o, lse) = st.finalize();
        self.saved.insert(layer, RingSaved { q, k, v, lse });
        sink(0, o)
    }

    /// Asks for and hands back one chunk: the whole shard.
    fn backward_chunks(
        &mut self,
        layer: usize,
        rows: usize,
        dense: &mut DenseBackward<'_>,
        sink: &mut ChunkSink<'_, [Tensor; 3]>,
    ) -> ExecResult<()> {
        let [o, dout] = dense(0..rows)?;
        let p = self.comm.world();
        let rank = self.comm.rank();
        let s = self
            .saved
            .remove(&layer)
            .ok_or_else(|| format!("no saved ring forward for layer {layer}"))?;
        let scale = default_scale(s.q.shape()[2]);
        let dsum = rowwise_dot(&o, &dout)?;
        let my_pos = self.owner_positions(rank);

        let mut dq = Tensor::zeros(s.q.shape());
        let mut cur_dk = Tensor::zeros(s.k.shape());
        let mut cur_dv = Tensor::zeros(s.v.shape());
        let (mut cur_k, mut cur_v) = (s.k, s.v);
        for step in 0..p {
            let owner = (rank + p - step) % p;
            attention_block_bwd(
                &s.q,
                &cur_k,
                &cur_v,
                &dout,
                &s.lse,
                &dsum,
                &my_pos,
                &self.owner_positions(owner),
                scale,
                &mut dq,
                &mut cur_dk,
                &mut cur_dv,
            )?;
            // Rotate the block AND its accumulating gradients; after p hops
            // every (dk, dv) is home with contributions from all ranks.
            let mut rot = self.rotate(&[&cur_k, &cur_v, &cur_dk, &cur_dv])?;
            cur_dv = rot.pop().ok_or("ring rotate dropped dv")?;
            cur_dk = rot.pop().ok_or("ring rotate dropped dk")?;
            cur_v = rot.pop().ok_or("ring rotate dropped v")?;
            cur_k = rot.pop().ok_or("ring rotate dropped k")?;
        }
        sink(0, [dq, cur_dk, cur_dv])
    }

    fn discard(&mut self, layer: usize) {
        self.saved.remove(&layer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpdt_attention::reference;
    use fpdt_comm::run_group;
    use fpdt_tensor::init;

    fn rand_qkv(seed: u64, s: usize, h: usize, d: usize) -> (Tensor, Tensor, Tensor) {
        let mut rng = init::seeded_rng(seed);
        (
            init::randn(&mut rng, &[s, h, d], 1.0),
            init::randn(&mut rng, &[s, h, d], 1.0),
            init::randn(&mut rng, &[s, h, d], 1.0),
        )
    }

    #[test]
    fn local_executor_round_trip() {
        let (q, k, v) = rand_qkv(0, 16, 2, 4);
        let pos: Vec<usize> = (0..16).collect();
        let mut rng = init::seeded_rng(1);
        let dout = init::randn(&mut rng, &[16, 2, 4], 1.0);

        let mut ex = LocalAttention::new(4);
        let o = ex.forward(0, &q, &k, &v, &pos).unwrap();
        let (dq, dk, dv) = ex.backward(0, &o, &dout).unwrap();

        let want_o = reference::causal_attention(&q, &k, &v).unwrap();
        let (rdq, rdk, rdv) = reference::causal_attention_bwd(&q, &k, &v, &dout).unwrap();
        assert!(o.allclose(&want_o, 1e-4, 1e-5));
        assert!(dq.allclose(&rdq, 1e-3, 1e-4));
        assert!(dk.allclose(&rdk, 1e-3, 1e-4));
        assert!(dv.allclose(&rdv, 1e-3, 1e-4));
        // state consumed
        assert!(ex.backward(0, &o, &dout).is_err());
    }

    /// Full distributed equivalence: p ranks, u chunks, offload on/off —
    /// outputs and gradients must match a single-device reference over the
    /// *global* sequence.
    fn dist_matches_reference(world: usize, chunks: usize, offload: bool) {
        let (s, h, d) = (24, 4, 4);
        let (q, k, v) = rand_qkv(2, s, h, d);
        let mut rng = init::seeded_rng(3);
        let dout = init::randn(&mut rng, &[s, h, d], 1.0);

        // reference on the global sequence
        let want_o = reference::causal_attention(&q, &k, &v).unwrap();
        let (rdq, rdk, rdv) = reference::causal_attention_bwd(&q, &k, &v, &dout).unwrap();

        let plan = ChunkPlan::new(s, world, chunks).unwrap();
        let shard = |t: &Tensor, rank: usize| shard_rows(t, &plan.local_positions(rank));

        let results = run_group(world, |comm| {
            let comm = Arc::new(comm);
            let rank = comm.rank();
            let pos = plan.local_positions(rank);
            // Pin f32 payloads: this fixture compares against an f32
            // reference at tight tolerances, so an ambient FPDT_BF16=1
            // must not leak in.
            let opts = RuntimeOptions::from_env().with_payload_bf16(false);
            let mut ex = DistAttention::with_opts(comm, chunks, offload, opts);
            let o = ex
                .forward(
                    0,
                    &shard(&q, rank),
                    &shard(&k, rank),
                    &shard(&v, rank),
                    &pos,
                )
                .unwrap();
            let grads = ex.backward(0, &o, &shard(&dout, rank)).unwrap();
            let stats = ex.host_stats();
            (o, grads, stats)
        });

        for (rank, (o, (dq, dk, dv), stats)) in results.into_iter().enumerate() {
            assert!(
                o.allclose(&shard(&want_o, rank), 1e-3, 1e-4),
                "o rank {rank}"
            );
            assert!(
                dq.allclose(&shard(&rdq, rank), 1e-3, 1e-4),
                "dq rank {rank}"
            );
            assert!(
                dk.allclose(&shard(&rdk, rank), 1e-3, 1e-4),
                "dk rank {rank}"
            );
            assert!(
                dv.allclose(&shard(&rdv, rank), 1e-3, 1e-4),
                "dv rank {rank}"
            );
            if offload {
                assert!(
                    stats.offloads > 0 && stats.fetches > 0,
                    "host pool exercised"
                );
            } else {
                assert_eq!(stats.offloads, 0);
            }
        }
    }

    #[test]
    fn ulysses_mode_matches_reference() {
        // chunks = 1 is exactly DeepSpeed Ulysses
        dist_matches_reference(2, 1, false);
    }

    #[test]
    fn fpdt_chunked_matches_reference() {
        dist_matches_reference(2, 3, false);
    }

    #[test]
    fn fpdt_offload_matches_reference() {
        dist_matches_reference(2, 3, true);
    }

    #[test]
    fn fpdt_four_ranks_matches_reference() {
        dist_matches_reference(4, 2, true);
    }

    /// The rows of `t` at global positions `pos`: a rank's shard.
    fn shard_rows(t: &Tensor, pos: &[usize]) -> Tensor {
        let parts: Vec<Tensor> = pos.iter().map(|&p| t.narrow(0, p, 1).unwrap()).collect();
        let refs: Vec<&Tensor> = parts.iter().collect();
        Tensor::concat(&refs, 0).unwrap()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    /// After backward, the chunk store must be empty — host pool or
    /// device-resident, the tile walk consumes every cached chunk exactly
    /// once.
    #[test]
    fn backward_frees_all_cached_chunks() {
        let (s, h, d) = (16, 2, 4);
        let (q, k, v) = rand_qkv(9, s, h, d);
        let dout = Tensor::ones(&[s / 2, h, d]);
        for offload in [true, false] {
            let empty = run_group(2, |comm| {
                let plan = ChunkPlan::new(s, 2, 4).unwrap();
                let pos = plan.local_positions(comm.rank());
                let shard = |t: &Tensor| shard_rows(t, &pos);
                let opts = RuntimeOptions::from_env().with_payload_bf16(false);
                let mut ex = DistAttention::with_opts(Arc::new(comm), 4, offload, opts);
                let o = ex
                    .forward(0, &shard(&q), &shard(&k), &shard(&v), &pos)
                    .unwrap();
                assert!(!ex.store.is_empty(), "the forward caches its chunks");
                ex.backward(0, &o, &dout).unwrap();
                ex.store.is_empty()
            });
            assert!(empty.iter().all(|&e| e), "offload = {offload}");
        }
    }

    /// A one-rank offloaded executor of `u` chunks.
    fn one_rank(u: usize) -> DistAttention {
        let comm = CommGroup::new(1).communicators().remove(0);
        let opts = RuntimeOptions::from_env().with_payload_bf16(false);
        DistAttention::with_opts(Arc::new(comm), u, true, opts)
    }

    /// Runs the forward of `layer` over `4u` rows of inputs drawn from
    /// `seed`; returns its output.
    fn forward_layer(ex: &mut DistAttention, layer: usize, seed: u64) -> Tensor {
        let s = 4 * ex.chunks;
        let (q, k, v) = rand_qkv(seed, s, 2, 4);
        ex.forward(layer, &q, &k, &v, &(0..s).collect::<Vec<_>>())
            .unwrap()
    }

    #[test]
    fn each_chunk_is_asked_for_once_after_the_previous_chunks_post() {
        // The executor asks for chunk i's rows once, in ascending order,
        // and only after chunks 0..i went out on the comm stream: when
        // chunk i+1 is asked for, the posts have grown by i+1. The outputs
        // are the whole-tensor form's, and a producer's error is the
        // call's.
        for u in [1usize, 2, 4, 6] {
            let rec = Recorder::new();
            let mut ex = one_rank(u).with_recorder(rec.clone());
            let s = 4 * u;
            let (q, k, v) = rand_qkv(60, s, 2, 4);
            let pos: Vec<usize> = (0..s).collect();
            let posted0 = ex.comm_posted() as usize;
            let mut asked = Vec::new();
            let mut inner = narrowed([&q, &k, &v]);
            let mut producer = |r: Range<usize>| {
                asked.push((r.clone(), rec.count("comm.post") - posted0));
                inner(r)
            };
            let mut o = RowChunks::new(s);
            ex.forward_chunks(0, &pos, &mut producer, &mut |r0, part| o.push(r0, part))
                .unwrap();
            let want: Vec<_> = (0..u).map(|i| (4 * i..4 * i + 4, i)).collect();
            assert_eq!(asked, want, "u = {u}");
            assert_eq!(rec.count("comm.post") as u64, ex.comm_posted(), "u = {u}");
            let whole = one_rank(u).forward(0, &q, &k, &v, &pos).unwrap();
            assert_eq!(bits(&o.finish().unwrap()), bits(&whole), "u = {u}");

            let err =
                ex.forward_chunks(1, &pos, &mut |_| Err("no rows".into()), &mut |_, _| Ok(()));
            assert_eq!(err.unwrap_err().to_string(), "no rows", "u = {u}");
        }
    }

    #[test]
    fn the_dense_backward_is_asked_for_each_chunk_after_the_previous_chunks_post() {
        // The opening — KV 0, the [Q, Lse] of each row slot 0 opens, KV 1
        // — is on the copy stream before the dense backward is first
        // asked. It is then asked for each chunk's rows once, in ascending
        // order, and chunk i+1 only once chunk i's fused dO post went out:
        // the comm stream holds the forward's 2u posts and i+1 more. The
        // gradients are the whole-tensor form's, and a dense error is the
        // call's.
        for u in [1usize, 2, 3, 4, 5] {
            let rec = Recorder::new();
            let mut ex = one_rank(u).with_recorder(rec.clone());
            let o = forward_layer(&mut ex, 0, 95);
            let fwd_fetches = ex.host_stats().fetches as usize;
            let rows = tile_slots(u)[0].iter().filter(|&&(_, j)| j == 0).count();
            let opening = 2 + 2 * rows + if u > 1 { 2 } else { 0 };
            let dout = init::randn(&mut init::seeded_rng(96), &[4 * u, 2, 4], 1.0);
            let mut asked = Vec::new();
            let mut first_fetches = None;
            let mut inner = narrowed([&o, &dout]);
            let mut dense = |r: Range<usize>| {
                first_fetches.get_or_insert(rec.count("offload.fetch"));
                asked.push((r.clone(), rec.count("comm.post")));
                inner(r)
            };
            let mut dq = RowChunks::new(4 * u);
            ex.backward_chunks(0, 4 * u, &mut dense, &mut |r0, [dq_i, ..]| {
                dq.push(r0, dq_i)
            })
            .unwrap();
            assert_eq!(first_fetches, Some(fwd_fetches + opening), "u = {u}");
            let want: Vec<_> = (0..u).map(|i| (4 * i..4 * i + 4, 2 * u + i)).collect();
            assert_eq!(asked, want, "u = {u}");
            // The span counts are the counters' own.
            assert_eq!(
                rec.count("offload.fetch") as u64,
                ex.host_stats().fetches,
                "u = {u}"
            );
            assert_eq!(rec.count("comm.post") as u64, ex.comm_posted(), "u = {u}");
            let mut whole = one_rank(u);
            let o = forward_layer(&mut whole, 0, 95);
            let (want_dq, _, _) = whole.backward(0, &o, &dout).unwrap();
            assert_eq!(bits(&dq.finish().unwrap()), bits(&want_dq), "u = {u}");

            forward_layer(&mut ex, 1, 97);
            let err = ex.backward_chunks(
                1,
                4 * u,
                &mut |_| Err("dense failed".into()),
                &mut |_, _| Ok(()),
            );
            assert_eq!(err.unwrap_err().to_string(), "dense failed", "u = {u}");
        }
    }

    #[test]
    fn row_dot_arrives_with_do_equal_to_the_gathered_row_dot() {
        // Grouped-query shapes at world 2 and 4: the row-dot each chunk's
        // fused dO post delivers, formed on the chunk's local rows, is, bit
        // for bit, `rowwise_dot` of the gathered O chunk and the gathered
        // dO chunk.
        for (world, heads, kv_heads) in [(2usize, 4usize, 2usize), (4, 8, 4)] {
            let (u, d) = (3, 4);
            let s = 4 * world * u;
            let mut rng = init::seeded_rng(41);
            let q = init::randn(&mut rng, &[s, heads, d], 1.0);
            let k = init::randn(&mut rng, &[s, kv_heads, d], 1.0);
            let v = init::randn(&mut rng, &[s, kv_heads, d], 1.0);
            let dout = init::randn(&mut rng, &[s, heads, d], 1.0);
            let ok = run_group(world, |comm| {
                let plan = ChunkPlan::new(s, world, u).unwrap();
                let pos = plan.local_positions(comm.rank());
                let shard = |t: &Tensor| shard_rows(t, &pos);
                let opts = RuntimeOptions::from_env().with_payload_bf16(false);
                let mut ex = DistAttention::with_opts(Arc::new(comm), u, true, opts);
                let o = ex
                    .forward(0, &shard(&q), &shard(&k), &shard(&v), &pos)
                    .unwrap();
                let dout = shard(&dout);
                let c_loc = plan.chunk_local_len();
                for i in 0..u {
                    let [o_i, dout_i] = narrowed([&o, &dout])(plan.local_chunk_range(i)).unwrap();
                    let dsum_i = ex.row_dot(&o_i, &dout_i).unwrap();
                    let fused = ex
                        .post("a2a.scatter_heads", &[&dout_i, &dsum_i], false)
                        .unwrap();
                    let o_posted = ex.post("a2a.scatter_heads", &[&o_i], false).unwrap();
                    let [dout_g, dsum_g] = landed(&mut ex.engine, fused).unwrap();
                    let [o_g] = landed(&mut ex.engine, o_posted).unwrap();
                    let want = rowwise_dot(&o_g, &dout_g).unwrap();
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(dsum_g.shape(), &[c_loc * world, heads / world, 1]);
                    assert_eq!(bits(dsum_g.data()), bits(&want), "chunk {i}");
                }
                ex.discard(0);
                true
            });
            assert!(ok.into_iter().all(|ok| ok), "world {world}");
        }
    }

    /// Forward + backward of a 2-rank, 4-chunk offloaded executor with
    /// `faults` transient all-to-all faults armed before the forward (the
    /// first fused QKV post absorbs them) and before the backward (the
    /// first dO post), then a rank-thread all-reduce. Returns, per rank,
    /// the output and gradient bits, the retry count, and the all-reduce.
    fn faulted_run(faults: usize) -> Vec<(Vec<u32>, u64, Vec<f32>)> {
        let (s, h, d) = (16, 2, 4);
        let (q, k, v) = rand_qkv(31, s, h, d);
        let dout = Tensor::ones(&[s / 2, h, d]);
        run_group(2, |comm| {
            let comm = Arc::new(comm);
            let plan = ChunkPlan::new(s, 2, 4).unwrap();
            let pos = plan.local_positions(comm.rank());
            let shard = |t: &Tensor| shard_rows(t, &pos);
            let opts = RuntimeOptions::from_env()
                .with_payload_bf16(false)
                .with_fault_inject(0)
                .with_comm_retries(faults);
            let mut ex = DistAttention::with_opts(Arc::clone(&comm), 4, true, opts);
            comm.inject_fault("all_to_all", faults);
            let o = ex
                .forward(0, &shard(&q), &shard(&k), &shard(&v), &pos)
                .unwrap();
            comm.inject_fault("all_to_all", faults);
            let (dq, dk, dv) = ex.backward(0, &o, &dout).unwrap();
            let bits = [o, dq, dk, dv]
                .iter()
                .flat_map(|t| t.data().iter().map(|x| x.to_bits()))
                .collect();
            // Every handle was waited (the executor debug-asserts it), so
            // the rank thread's own collective reads its own payload.
            let sum = comm.all_reduce(&[comm.rank() as f32 + 1.0]).unwrap();
            (bits, comm.stats().retries, sum)
        })
    }

    #[test]
    fn post_faults_replay_to_identical_results_and_leave_no_stale_part() {
        let (clean, faulty) = (faulted_run(0), faulted_run(2));
        for (rank, ((want, _, _), (got, retries, sum))) in clean.into_iter().zip(faulty).enumerate()
        {
            assert_eq!(got, want, "rank {rank}: bits");
            assert_eq!(
                retries, 4,
                "rank {rank}: two replays each on the QKV and dO posts"
            );
            assert_eq!(
                sum,
                vec![3.0],
                "rank {rank}: a stale all-to-all part was read"
            );
        }
    }

    #[test]
    fn schedule_audit_transfer_and_post_counts() {
        // Transfer- and post-count audit of the schedule for u chunks:
        //   forward : chunk i keep-fetches K and V for 2 <= j < i-1 only —
        //             pairs 0 and 1 stay on the device for the whole
        //             forward, and pair i-1 while chunk i runs — so
        //             2 * (u-3)(u-4)/2 = (u-3)(u-4) fetches (none at
        //             u <= 4; from u = 6 a chunk reads two host tiles, so
        //             the double buffer's second fetch runs); puts K, V,
        //             Q, Lse (O stays with the block) -> 4u puts; one
        //             fused QKV + one O post per chunk -> 2u posts
        //   backward: 2u KV takes (each KV chunk exactly ONCE per column)
        //             + 2u row takes ([Q, Lse] once per query row) and
        //             no puts — an open row stays on the rank thread;
        //             u fused dO + row-dot, u dq, u dk, u dv posts -> 6u
        //             cumulative.
        // Bytes per layer, with C one gathered query chunk, C_kv one
        // gathered K or V chunk on the pool and L the chunk's lse:
        //   forward H2D = (u-3)(u-4)·C_kv,  D2H = u(2C_kv + C + L),
        //   H2D = (u-3)(u-4)·C_kv + u(2C_kv + C + L),
        // where C_kv = C here, or C / 2 under bf16 payloads. Any drift in
        // the posts means the double buffering degenerated (0 extra posts)
        // or an op stopped being fused (3u instead of u).
        for bf16 in [false, true] {
            for u in 1usize..=7 {
                let (s, h, d) = (4 * u, 2, 4);
                let (q, k, v) = rand_qkv(11, s, h, d);
                let dout = Tensor::ones(&[s / 2, h, d]);
                let counts = run_group(2, |comm| {
                    let plan = ChunkPlan::new(s, 2, u).unwrap();
                    let pos = plan.local_positions(comm.rank());
                    let shard = |t: &Tensor| shard_rows(t, &pos);
                    let opts = RuntimeOptions::from_env().with_payload_bf16(bf16);
                    let mut ex = DistAttention::with_opts(Arc::new(comm), u, true, opts);
                    let o = ex
                        .forward(0, &shard(&q), &shard(&k), &shard(&v), &pos)
                        .unwrap();
                    let fwd = (ex.host_stats(), ex.comm_posted());
                    ex.backward(0, &o, &dout).unwrap();
                    (fwd, ex.host_stats(), ex.comm_posted(), ex.store.is_empty())
                });
                // One gathered chunk: s/u rows of h/2 local heads.
                let (c, l) = ((s / u) * (h / 2) * d * 4, (s / u) * (h / 2) * 4);
                let kv = if bf16 { c / 2 } else { c };
                let keeps = u.saturating_sub(3) * u.saturating_sub(4);
                let h2d_fwd = keeps * kv;
                let h2d = h2d_fwd + u * (2 * kv + c + l);
                let d2h = u * (2 * kv + c + l);
                for ((after_fwd, posted_fwd), after_bwd, posted_bwd, empty) in counts {
                    let at = format!("u={u}, bf16={bf16}");
                    if u <= 4 {
                        assert_eq!(
                            after_fwd.fetches, 0,
                            "the pinned pairs and pair i-1 serve u <= 4, {at}"
                        );
                    }
                    assert_eq!(after_fwd.fetches, keeps as u64, "forward fetches, {at}");
                    assert_eq!(
                        after_fwd.bytes_fetched, h2d_fwd as u64,
                        "forward H2D bytes, {at}"
                    );
                    assert_eq!(after_fwd.offloads, (4 * u) as u64, "forward puts, {at}");
                    assert_eq!(posted_fwd, (2 * u) as u64, "QKV + O post per chunk, {at}");
                    assert_eq!(
                        after_bwd.fetches - after_fwd.fetches,
                        (4 * u) as u64,
                        "backward fetches (KV once per column, row once per row), {at}"
                    );
                    assert_eq!(
                        after_bwd.offloads, after_fwd.offloads,
                        "backward puts, {at}"
                    );
                    assert_eq!(posted_bwd, (6 * u) as u64, "dO + dq + dk + dv posts, {at}");
                    assert_eq!(after_bwd.bytes_fetched, h2d as u64, "H2D bytes, {at}");
                    assert_eq!(after_bwd.bytes_offloaded, d2h as u64, "D2H bytes, {at}");
                    assert!(empty, "every cached chunk consumed, {at}");
                }
            }
        }
    }

    #[test]
    fn row_chunks_move_a_lone_chunk_and_fill_the_rest_in_order() {
        let t = Tensor::arange(12).reshape(&[6, 2]).unwrap();
        let mut lone = RowChunks::new(6);
        let part = t.clone();
        let at = part.data().as_ptr();
        lone.push(0, part).unwrap();
        assert_eq!(
            lone.finish().unwrap().data().as_ptr(),
            at,
            "a lone chunk is moved, not copied"
        );
        let mut parts = RowChunks::new(6);
        for r0 in [0, 2, 4] {
            parts.push(r0, t.narrow(0, r0, 2).unwrap()).unwrap();
        }
        assert_eq!(bits(&parts.finish().unwrap()), bits(&t));
        let mut gap = RowChunks::new(6);
        gap.push(0, t.narrow(0, 0, 2).unwrap()).unwrap();
        assert!(
            gap.push(4, t.narrow(0, 4, 2).unwrap()).is_err(),
            "rows must arrive in order"
        );
        assert!(gap.finish().is_err(), "rows 2.. never arrived");
        let mut wide = RowChunks::new(6);
        wide.push(0, t.narrow(0, 0, 2).unwrap()).unwrap();
        assert!(
            wide.push(2, Tensor::zeros(&[2, 3])).is_err(),
            "a chunk of another width"
        );
    }

    #[test]
    fn each_chunks_kv_puts_go_down_before_the_previous_chunks_row() {
        // The D2H clock runs puts in issue order, and a forward fetch waits
        // on K/V puts only: chunk i's K and V go down before chunk i-1's
        // `[Q, Lse]`, and the last chunk's row at the end. Under bf16
        // payloads a K/V chunk (kv), a Q chunk (q) and an lse (l) differ in
        // bytes, so the read-pass spans name what was put.
        for u in [1usize, 2, 3, 4, 5] {
            let comm = CommGroup::new(1).communicators().remove(0);
            let opts = RuntimeOptions::from_env().with_payload_bf16(true);
            let rec = Recorder::new();
            let mut ex =
                DistAttention::with_opts(Arc::new(comm), u, true, opts).with_recorder(rec.clone());
            forward_layer(&mut ex, 0, 80);
            // One chunk: 4 rows of 2 heads of width 4.
            let (kv, q, l) = (4 * 2 * 4 * 2, 4 * 2 * 4 * 4, 4 * 2 * 4);
            let put: Vec<&str> = rec
                .records()
                .iter()
                .filter(|r| r.label == "offload.put")
                .map(|r| match r.bytes {
                    Some(b) if b == kv => "kv",
                    Some(b) if b == q => "q",
                    Some(b) if b == l => "l",
                    _ => "?",
                })
                .collect();
            let mut want = vec!["kv", "kv"];
            for _ in 1..u {
                want.extend(["kv", "kv", "q", "l"]);
            }
            want.extend(["q", "l"]);
            assert_eq!(put, want, "u = {u}");
        }
    }

    #[test]
    fn chunks_reach_the_sink_in_ascending_rows() {
        // Four chunks of 4 rows: the forward and the backward hand each
        // chunk over at its first local row; their concatenation is what
        // the whole-tensor forms return.
        let (mut ex, mut plain) = (one_rank(4), one_rank(4));
        let (q, k, v) = rand_qkv(90, 16, 2, 4);
        let pos: Vec<usize> = (0..16).collect();
        let mut starts = Vec::new();
        let mut parts = Vec::new();
        ex.forward_chunks(0, &pos, &mut narrowed([&q, &k, &v]), &mut |r0, part| {
            starts.push(r0);
            parts.push(part);
            Ok(())
        })
        .unwrap();
        assert_eq!(starts, [0, 4, 8, 12]);
        let o = Tensor::concat(&parts.iter().collect::<Vec<_>>(), 0).unwrap();
        assert_eq!(bits(&o), bits(&plain.forward(0, &q, &k, &v, &pos).unwrap()));
        let dout = init::randn(&mut init::seeded_rng(91), &[16, 2, 4], 1.0);
        starts.clear();
        let mut dq = Vec::new();
        ex.backward_chunks(0, 16, &mut narrowed([&o, &dout]), &mut |r0, [dq_i, ..]| {
            starts.push(r0);
            dq.push(dq_i);
            Ok(())
        })
        .unwrap();
        assert_eq!(starts, [0, 4, 8, 12]);
        let dq = Tensor::concat(&dq.iter().collect::<Vec<_>>(), 0).unwrap();
        assert_eq!(bits(&dq), bits(&plain.backward(0, &o, &dout).unwrap().0));
        // A sink's error ends the call with that error.
        let err = ex.forward_chunks(1, &pos, &mut narrowed([&q, &k, &v]), &mut |_, _| {
            Err("full".into())
        });
        assert_eq!(err.unwrap_err().to_string(), "full");
    }

    #[test]
    fn bf16_payloads_halve_a2a_bytes_and_keep_schedule() {
        // FPDT_BF16 changes the wire format, nothing else: identical
        // transfer/message counts, exactly half the all-to-all bytes, and
        // results within bf16 rounding of the f32 run.
        let (s, h, d) = (16, 2, 4);
        let (q, k, v) = rand_qkv(21, s, h, d);
        let mut rng = init::seeded_rng(22);
        let dout = init::randn(&mut rng, &[s / 2, h, d], 1.0);
        let run = |bf16: bool| {
            run_group(2, |comm| {
                let comm = Arc::new(comm);
                let plan = ChunkPlan::new(s, 2, 4).unwrap();
                let pos = plan.local_positions(comm.rank());
                let shard = |t: &Tensor| shard_rows(t, &pos);
                let opts = RuntimeOptions::from_env().with_payload_bf16(bf16);
                let mut ex = DistAttention::with_opts(Arc::clone(&comm), 4, true, opts);
                let o = ex
                    .forward(0, &shard(&q), &shard(&k), &shard(&v), &pos)
                    .unwrap();
                let (dq, _dk, _dv) = ex.backward(0, &o, &dout).unwrap();
                let host = ex.host_stats();
                drop(ex);
                (o, dq, host, comm.stats())
            })
        };
        let full = run(false);
        let half = run(true);
        for ((o_f, dq_f, host_f, comm_f), (o_b, dq_b, host_b, comm_b)) in full.into_iter().zip(half)
        {
            // Numerics: bf16 rounding only, not a different schedule.
            assert!(o_b.allclose(&o_f, 5e-2, 5e-2), "output within bf16 tol");
            assert!(dq_b.allclose(&dq_f, 1e-1, 1e-1), "dq within bf16 tol");
            // Schedule shape: same transfer and message counts.
            assert_eq!(host_f.offloads, host_b.offloads, "offload count");
            assert_eq!(host_f.fetches, host_b.fetches, "fetch count");
            assert!(
                host_b.bytes_offloaded < host_f.bytes_offloaded,
                "KV offload traffic shrinks"
            );
            let af = comm_f.op("all_to_all").expect("f32 a2a ran");
            let ab = comm_b.op("all_to_all").expect("bf16 a2a ran");
            assert_eq!(af.sends, ab.sends, "same message count");
            assert_eq!(af.recvs, ab.recvs);
            assert_eq!(ab.bytes_sent * 2, af.bytes_sent, "bytes_a2a halve exactly");
            assert_eq!(ab.bytes_recv * 2, af.bytes_recv);
        }
    }
}
