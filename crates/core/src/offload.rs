//! The host-memory pool: where FPDT parks idle sequence chunks — plus the
//! asynchronous copy streams that hide its traffic behind compute.
//!
//! In the paper this is pinned CPU DRAM reached over PCIe; in the real
//! runtime it is a keyed store owned by each simulated GPU's thread. The
//! pool tracks bytes and transfer counts so tests can assert what crosses
//! the link: the executor's backward takes every cached chunk exactly
//! once (each KV chunk when its column opens, each query row's
//! `[O, Q, Lse]` when the row opens) and puts nothing back. What stays on
//! "HBM" instead is the open rows' working set: an open query row keeps
//! its Q, dO, lse, row-dot and running dQ on the rank thread until its
//! diagonal tile, and the column-major tile walk keeps up to `u - 1`
//! rows open at once — `3C + 2L` bytes each for a gathered chunk of `C`
//! bytes and its `L`-byte lse. So the pool only ever holds the five
//! [`BufKind`]s the forward saves: Q, K, V, O and lse.
//!
//! ## Zero-copy residency, costed transfers
//!
//! Chunks are stored as [`Arc<Tensor>`], so [`HostPool::fetch_keep`] hands
//! back the *same* buffer the pool holds — no data copy, ever. What a real
//! system pays for is the PCIe transfer, which [`OffloadEngine`] models as
//! a bandwidth-bound read pass over the chunk ("the copy") plus, over a
//! priced simulated link, the link held for the chunk's wire bytes. Over
//! a priced link that transfer runs on the engine's own copy-stream
//! workers ([`fpdt_comm::Stream`], one FIFO per PCIe direction, like a
//! pair of CUDA copy streams), so it overlaps whatever the rank computes
//! next — at any kernel thread budget: the workers are not borrowed from
//! the kernel pool. Over a free link the read pass is all there is, and
//! the executor runs it inline, where it costs less than waking a worker.
//!
//! ## Determinism
//!
//! All pool *bookkeeping* (map inserts/removals, counters) happens
//! synchronously on the owning rank's thread at issue time, in program
//! order — only the costed read pass moves off-thread. Since the data is
//! `Arc`-shared, a prefetched chunk is bit-identical to the pooled one
//! regardless of when the copy runs, so copy timing (and any
//! `FPDT_THREADS`) cannot change results *by construction*.

use fpdt_comm::{Pending, Stream};
use fpdt_tensor::bf16::Bf16Tensor;
use fpdt_tensor::Tensor;
use fpdt_trace::Recorder;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What kind of buffer a pooled chunk holds: exactly the five the
/// executor puts in the pool. The backward's `dO`, row-dot and running
/// `dQ` stay with their open row and never reach it, and pool residency
/// is not checkpointed (the trainer saves at step boundaries, where the
/// pool is empty), so no other kind exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufKind {
    /// Post-all-to-all query chunk.
    Q,
    /// Post-all-to-all key chunk.
    K,
    /// Post-all-to-all value chunk.
    V,
    /// Attention output chunk (needed for the backward `D` term).
    O,
    /// Log-sum-exp statistics for a query chunk.
    Lse,
}

/// Key identifying one pooled chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkKey {
    /// Transformer layer index.
    pub layer: usize,
    /// Buffer kind.
    pub kind: BufKind,
    /// Chunk index within the layer.
    pub chunk: usize,
}

impl ChunkKey {
    /// Convenience constructor.
    pub fn new(layer: usize, kind: BufKind, chunk: usize) -> Self {
        ChunkKey { layer, kind, chunk }
    }
}

/// Counters the pool maintains for behavioral assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Device-to-host transfers (offloads).
    pub offloads: u64,
    /// Host-to-device transfers (fetches).
    pub fetches: u64,
    /// Bytes currently resident.
    pub bytes: u64,
    /// High-water mark of resident bytes.
    pub peak_bytes: u64,
    /// Cumulative device-to-host traffic (bytes ever offloaded).
    pub bytes_offloaded: u64,
    /// Cumulative host-to-device traffic (bytes ever fetched, keep or
    /// consume).
    pub bytes_fetched: u64,
}

impl PoolStats {
    /// Folds a later run's counters into this snapshot: cumulative
    /// counters add, residency takes the later run's value, and the
    /// high-water mark takes the max. Accumulating per-run snapshots
    /// this way makes a resumed run's pool statistics equal an
    /// uninterrupted run's.
    pub fn merge(&mut self, later: &PoolStats) {
        self.offloads += later.offloads;
        self.fetches += later.fetches;
        self.bytes = later.bytes;
        self.peak_bytes = self.peak_bytes.max(later.peak_bytes);
        self.bytes_offloaded += later.bytes_offloaded;
        self.bytes_fetched += later.bytes_fetched;
    }
}

/// How one chunk is laid out in host memory: full-precision `f32` (the
/// zero-copy default) or bf16 (half the bytes, one RNE rounding on
/// offload, widened back to `f32` on fetch).
///
/// The variant is the pool's *wire format* — compute always sees `f32`
/// via [`HostChunk::widen`]. Only KV chunks use bf16 (see
/// [`HostPool::set_payload_bf16`]); everything else stays `f32` so
/// gradients and saved activations keep full precision.
#[derive(Debug, Clone)]
pub enum HostChunk {
    /// Full-precision chunk, `Arc`-shared with the device side.
    F32(Arc<Tensor>),
    /// bf16-rounded chunk (2 bytes/element on the simulated PCIe link).
    Bf16(Arc<Bf16Tensor>),
}

impl HostChunk {
    /// Bytes this chunk occupies in host memory (4 per f32 element, 2 per
    /// bf16 element) — what every [`PoolStats`] byte counter tallies.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            HostChunk::F32(t) => (t.numel() * 4) as u64,
            HostChunk::Bf16(t) => t.wire_bytes(),
        }
    }

    /// Hands back the chunk as `f32` compute data: the pooled buffer
    /// itself for `F32` (zero-copy), a widened copy for `Bf16`.
    pub fn widen(&self) -> Arc<Tensor> {
        match self {
            HostChunk::F32(t) => Arc::clone(t),
            HostChunk::Bf16(t) => {
                Arc::new(t.to_f32().expect("bf16 chunk shape was valid on offload"))
            }
        }
    }

    /// The bandwidth-bound half of a simulated transfer: a read pass over
    /// the chunk's *stored* representation.
    fn read_pass(&self) {
        match self {
            HostChunk::F32(t) => {
                let mut acc = 0.0f32;
                for &x in t.data() {
                    acc += x;
                }
                std::hint::black_box(acc);
            }
            HostChunk::Bf16(t) => {
                let mut acc = 0u16;
                for &x in t.data() {
                    acc = acc.wrapping_add(x);
                }
                std::hint::black_box(acc);
            }
        }
    }
}

/// The simulated PCIe transfer of a run of chunks — one DMA: a read pass
/// over each, then (over a priced link of `gbps` GB/s) the link held
/// *once* for the run's wire bytes, so a bf16 chunk streams half the
/// bytes — and takes half the wall-clock — of its f32 twin, and a batch
/// pays the OS timer's wake-up slack once instead of per chunk. Every
/// transfer still records its own `label` span: its byte share of the
/// run's wall time.
fn transfer(rec: Option<&Recorder>, label: &'static str, run: &[HostChunk], gbps: f64) {
    let started = rec.map(|r| (r, r.now_us(), Instant::now()));
    run.iter().for_each(HostChunk::read_pass);
    let total: u64 = run.iter().map(HostChunk::wire_bytes).sum();
    fpdt_trace::wire::simulate_at(total, gbps);
    if let Some((rec, mut at_us, t0)) = started {
        let us_per_byte = t0.elapsed().as_secs_f64() * 1e6 / total.max(1) as f64;
        for chunk in run {
            let dur_us = us_per_byte * chunk.wire_bytes() as f64;
            rec.record(label, at_us, dur_us, Some(chunk.wire_bytes()));
            at_us += dur_us;
        }
    }
}

/// A per-rank host-memory pool. Chunks are `Arc`-shared: fetching hands
/// back the pooled buffer itself, never a copy.
///
/// # Example
///
/// ```
/// use fpdt_core::offload::{BufKind, ChunkKey, HostPool};
/// use fpdt_tensor::Tensor;
///
/// let mut pool = HostPool::new();
/// let key = ChunkKey::new(0, BufKind::K, 2);
/// pool.offload(key, Tensor::zeros(&[4, 2, 8]));
/// assert_eq!(pool.stats().bytes, 4 * 2 * 8 * 4);
/// let k = pool.fetch(&key).expect("chunk was cached");
/// assert_eq!(k.shape(), &[4, 2, 8]);
/// assert_eq!(pool.stats().bytes, 0);
/// assert_eq!(pool.stats().bytes_fetched, 4 * 2 * 8 * 4);
/// ```
#[derive(Debug, Default)]
pub struct HostPool {
    store: HashMap<ChunkKey, HostChunk>,
    stats: PoolStats,
    payload_bf16: bool,
}

impl HostPool {
    /// Creates an empty pool (f32 payloads).
    pub fn new() -> Self {
        Self::default()
    }

    /// Switches the pool's wire format for *KV* chunks: when enabled,
    /// `K`/`V` offloads are rounded to bf16 (halving their bytes in every
    /// [`PoolStats`] counter) and widened back to f32 on fetch. All other
    /// buffer kinds stay full-precision `Arc`-shared f32. Affects chunks
    /// offloaded after the call; gated at the runtime layer by
    /// `RuntimeOptions::payload_bf16` / `FPDT_BF16`.
    pub fn set_payload_bf16(&mut self, on: bool) {
        self.payload_bf16 = on;
    }

    /// Whether KV offloads are currently stored as bf16.
    pub fn payload_bf16(&self) -> bool {
        self.payload_bf16
    }

    /// Moves a tensor to host memory (device-to-host copy).
    ///
    /// # Panics
    ///
    /// Panics if the key is already resident — offloading the same chunk
    /// twice without fetching it is a scheduler bug.
    pub fn offload(&mut self, key: ChunkKey, t: Tensor) {
        self.offload_shared(key, Arc::new(t));
    }

    /// [`HostPool::offload`] for a chunk that is already `Arc`-shared with
    /// the device side — the zero-copy path the executor uses. Returns the
    /// chunk as stored (an `Arc` clone), so callers modeling the transfer
    /// can stream the actual wire representation.
    ///
    /// # Panics
    ///
    /// Same double-offload condition as [`HostPool::offload`].
    pub fn offload_shared(&mut self, key: ChunkKey, t: Arc<Tensor>) -> HostChunk {
        let chunk = if self.payload_bf16 && matches!(key.kind, BufKind::K | BufKind::V) {
            HostChunk::Bf16(Arc::new(Bf16Tensor::from_f32(&t)))
        } else {
            HostChunk::F32(t)
        };
        let b = chunk.wire_bytes();
        self.stats.offloads += 1;
        self.stats.bytes += b;
        self.stats.bytes_offloaded += b;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.bytes);
        let prev = self.store.insert(key, chunk.clone());
        assert!(prev.is_none(), "chunk {key:?} offloaded twice");
        chunk
    }

    /// Moves a tensor back to the device (host-to-device copy), removing
    /// it from the pool. Returns `None` when the key is not resident.
    pub fn fetch(&mut self, key: &ChunkKey) -> Option<Arc<Tensor>> {
        self.fetch_chunk(key).map(|c| c.widen())
    }

    /// [`HostPool::fetch`] returning the stored wire representation
    /// (counters update identically; widen with [`HostChunk::widen`]).
    pub fn fetch_chunk(&mut self, key: &ChunkKey) -> Option<HostChunk> {
        let c = self.store.remove(key)?;
        let b = c.wire_bytes();
        self.stats.fetches += 1;
        self.stats.bytes -= b;
        self.stats.bytes_fetched += b;
        Some(c)
    }

    /// Reads a chunk without evicting it (a fetch that keeps the host
    /// copy — what the forward does with KV chunks reused by later query
    /// chunks). For f32 chunks this hands back the pooled `Arc` itself:
    /// no data is copied. bf16 chunks widen to a fresh f32 buffer.
    pub fn fetch_keep(&mut self, key: &ChunkKey) -> Option<Arc<Tensor>> {
        self.fetch_keep_chunk(key).map(|c| c.widen())
    }

    /// [`HostPool::fetch_keep`] returning the stored wire representation.
    pub fn fetch_keep_chunk(&mut self, key: &ChunkKey) -> Option<HostChunk> {
        let c = self.store.get(key)?.clone();
        self.stats.fetches += 1;
        self.stats.bytes_fetched += c.wire_bytes();
        Some(c)
    }

    /// Drops a resident chunk without a host-to-device transfer (freeing
    /// host memory costs no PCIe traffic). Returns whether it was present.
    pub fn discard(&mut self, key: &ChunkKey) -> bool {
        match self.store.remove(key) {
            Some(c) => {
                self.stats.bytes -= c.wire_bytes();
                true
            }
            None => false,
        }
    }

    /// Whether a chunk is resident.
    pub fn contains(&self, key: &ChunkKey) -> bool {
        self.store.contains_key(key)
    }

    /// Number of resident chunks.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Transfer and residency counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

/// Marks chunks as being prefetched, from issue until the handle drops.
#[derive(Debug)]
struct InFlight {
    keys: Vec<ChunkKey>,
    set: Arc<Mutex<HashSet<ChunkKey>>>,
}

impl Drop for InFlight {
    fn drop(&mut self) {
        let mut set = self.set.lock().unwrap_or_else(|e| e.into_inner());
        for key in &self.keys {
            set.remove(key);
        }
    }
}

/// An in-flight host-to-device copy issued by [`OffloadEngine::prefetch`]
/// (one chunk) or [`OffloadEngine::prefetch_batch`] (`D` = a `Vec` of
/// chunks that travelled as one stream job).
///
/// The *data* is already available (it is the pool's shared buffer);
/// [`FetchHandle::wait`] blocks until the modeled transfer has finished
/// streaming, recording blocked time — and only blocked time — as an
/// `offload.wait` span. Dropping the handle does not wait: the stream is
/// FIFO, so later transfers stay ordered behind this one regardless.
#[derive(Debug)]
pub struct FetchHandle<D = Arc<Tensor>> {
    data: D,
    done: Pending<()>,
    _inflight: InFlight,
}

impl<D> FetchHandle<D> {
    /// Blocks until the transfer has finished streaming in, then returns
    /// the shared buffer(s).
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the transfer job.
    pub fn wait(self) -> D {
        self.done.wait();
        self.data
    }
}

/// A [`HostPool`] fronted by asynchronous copy streams.
///
/// Bookkeeping (residency, counters) stays synchronous on the owning
/// rank's thread, at issue time. The costed transfer pass runs on two
/// dedicated [`Stream`] workers, one FIFO per PCIe direction (the link is
/// full duplex, and so is the paper's layout): device-to-host puts on
/// `fpdt-d2h-r{rank}`, host-to-device fetches on `fpdt-h2d-r{rank}`. A
/// fetch of a chunk whose put is still queued waits for that put on the
/// worker, never on the rank. An engine built without workers runs every
/// transfer inline at its issue point; the executor builds one when the
/// link is free (nothing for a worker to hide) or it does not offload at
/// all.
pub struct OffloadEngine {
    pool: HostPool,
    d2h: Stream,
    h2d: Stream,
    /// Simulated link bandwidth every transfer is charged at, GB/s (0 =
    /// free).
    gbps: f64,
    /// Completion of every put a later fetch may have to wait for.
    queued_puts: HashMap<ChunkKey, Pending<()>>,
    inflight: Arc<Mutex<HashSet<ChunkKey>>>,
    recorder: Option<Recorder>,
}

impl OffloadEngine {
    /// An engine over an empty pool, charging the `FPDT_SIM_GBPS` link
    /// (`fpdt_trace::wire::link_gbps`); `streams` spawns the copy workers
    /// (named `fpdt-d2h` / `fpdt-h2d`). Without them transfers run inline.
    pub fn new(streams: bool) -> Self {
        Self::build(streams, "", fpdt_trace::wire::link_gbps())
    }

    /// [`OffloadEngine::new`] for one rank of a group, over a link of
    /// `gbps` GB/s: the workers are named `fpdt-d2h-r{rank}` /
    /// `fpdt-h2d-r{rank}`, next to the comm stream's `fpdt-comm-r{rank}`
    /// in a trace.
    pub fn for_rank(streams: bool, rank: usize, gbps: f64) -> Self {
        Self::build(streams, &format!("-r{rank}"), gbps)
    }

    fn build(streams: bool, suffix: &str, gbps: f64) -> Self {
        let stream = |dir: &str| {
            if streams {
                Stream::spawn(format!("fpdt-{dir}{suffix}"))
            } else {
                Stream::inline()
            }
        };
        OffloadEngine {
            pool: HostPool::new(),
            d2h: stream("d2h"),
            h2d: stream("h2d"),
            gbps,
            queued_puts: HashMap::new(),
            inflight: Arc::default(),
            recorder: None,
        }
    }

    /// Switches the pool to bf16 KV payloads (see
    /// [`HostPool::set_payload_bf16`]). The modeled transfer passes then
    /// stream the stored bf16 representation — half the bytes.
    pub fn set_payload_bf16(&mut self, on: bool) {
        self.pool.set_payload_bf16(on);
    }

    /// Attaches a span recorder: every transfer records an `offload.put`
    /// or `offload.prefetch` span (`offload.fetch` when it runs inline)
    /// with actual byte counts on the thread that executes it, and
    /// blocked waits record `offload.wait`.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    /// Whether the copy streams have their workers.
    pub fn prefetch_enabled(&self) -> bool {
        self.h2d.is_async()
    }

    /// Transfer and residency counters (deterministic: bookkeeping happens
    /// at issue time regardless of copy timing).
    pub fn stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Whether the pool holds no chunks.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// Whether a chunk is resident.
    pub fn contains(&self, key: &ChunkKey) -> bool {
        self.pool.contains(key)
    }

    /// Offloads a shared chunk (device-to-host). The residency update is
    /// immediate; the costed copy pass goes on the D2H stream.
    ///
    /// # Panics
    ///
    /// Same double-offload condition as [`HostPool::offload`].
    pub fn put(&mut self, key: ChunkKey, t: Arc<Tensor>) {
        let chunk = self.pool.offload_shared(key, t);
        let (rec, gbps) = (self.recorder.clone(), self.gbps);
        let done = self.d2h.post(move || transfer(rec.as_ref(), "offload.put", &[chunk], gbps));
        if self.d2h.is_async() {
            self.queued_puts.insert(key, done);
        }
    }

    /// Issues an asynchronous host-to-device transfer and returns a
    /// [`FetchHandle`] to wait on — the double-buffer primitive. Counters
    /// update now (so statistics do not depend on copy timing);
    /// the copy pass runs on the H2D stream, after the chunk's own put if
    /// that is still queued. `None` when `key` is not resident.
    ///
    /// # Panics
    ///
    /// Panics when `key` already has an in-flight prefetch that no one
    /// waited for — double-buffering the same chunk twice is a scheduler
    /// bug, mirroring the pool's double-offload panic.
    pub fn prefetch(&mut self, key: &ChunkKey, consume: bool) -> Option<FetchHandle> {
        let FetchHandle { mut data, done, _inflight } = self.prefetch_batch(&[(*key, consume)])?;
        let data = data.pop().expect("one chunk per request");
        Some(FetchHandle { data, done, _inflight })
    }

    /// [`OffloadEngine::prefetch`] for several `(key, consume)` requests
    /// that travel as **one** stream job: the rank pays one hand-off and
    /// one wait for the lot, while counters and transfer spans stay per
    /// chunk, in request order. `None` — and no side effect — when any
    /// key is not resident.
    ///
    /// # Panics
    ///
    /// Same in-flight condition as [`OffloadEngine::prefetch`].
    pub fn prefetch_batch(&mut self, reqs: &[(ChunkKey, bool)]) -> Option<FetchHandle<Vec<Arc<Tensor>>>> {
        if !reqs.iter().all(|(key, _)| self.pool.contains(key)) {
            return None;
        }
        // Each transfer with the completion of its chunk's put, if that is
        // still queued: the worker waits for it right before the chunk's
        // own pass, so the chunks ahead of it in the batch stream meanwhile.
        let mut transfers = Vec::with_capacity(reqs.len());
        for (key, consume) in reqs {
            let fresh = self.inflight.lock().unwrap_or_else(|e| e.into_inner()).insert(*key);
            assert!(fresh, "chunk {key:?} prefetched twice without a wait");
            let chunk = if *consume {
                self.pool.fetch_chunk(key)
            } else {
                self.pool.fetch_keep_chunk(key)
            };
            // Later fetches of `key` queue behind this one on the FIFO, so
            // its put only has to be awaited once.
            let put = self.queued_puts.remove(key).filter(|put| !put.is_ready());
            transfers.push((chunk.expect("residency checked above"), put));
        }
        // Widen on the issuing rank's thread (deterministic program
        // order); the stream only runs the costed pass over the wire repr.
        let data = transfers.iter().map(|(chunk, _)| chunk.widen()).collect();
        let bytes = transfers.iter().map(|(chunk, _)| chunk.wire_bytes()).sum();
        let (rec, gbps) = (self.recorder.clone(), self.gbps);
        let label = if self.h2d.is_async() { "offload.prefetch" } else { "offload.fetch" };
        let done = self.h2d.post(move || {
            let mut run = Vec::with_capacity(transfers.len());
            for (chunk, put) in transfers {
                if let Some(put) = put.filter(|put| !put.is_ready()) {
                    transfer(rec.as_ref(), label, &run, gbps);
                    run.clear();
                    put.wait();
                }
                run.push(chunk);
            }
            transfer(rec.as_ref(), label, &run, gbps);
        });
        Some(FetchHandle {
            data,
            done: done.traced(self.recorder.as_ref(), "offload.wait", bytes),
            _inflight: InFlight {
                keys: reqs.iter().map(|(key, _)| *key).collect(),
                set: Arc::clone(&self.inflight),
            },
        })
    }

    /// Drops a resident chunk without a transfer. Returns whether it was
    /// present.
    pub fn discard(&mut self, key: &ChunkKey) -> bool {
        self.queued_puts.remove(key);
        self.pool.discard(key)
    }

    /// Blocks until every queued copy has completed (both streams idle).
    pub fn drain(&mut self) {
        self.queued_puts.clear();
        self.d2h.post(|| ()).wait();
        self.h2d.post(|| ()).wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offload_fetch_round_trip() {
        let mut pool = HostPool::new();
        let t = Tensor::arange(8).reshape(&[2, 4]).unwrap();
        let key = ChunkKey::new(3, BufKind::V, 1);
        pool.offload(key, t.clone());
        assert!(pool.contains(&key));
        assert_eq!(pool.len(), 1);
        let back = pool.fetch(&key).unwrap();
        assert_eq!(*back, t);
        assert!(pool.is_empty());
        assert!(pool.fetch(&key).is_none());
    }

    #[test]
    fn stats_track_transfers_peak_and_directions() {
        let mut pool = HostPool::new();
        pool.offload(ChunkKey::new(0, BufKind::K, 0), Tensor::zeros(&[10]));
        pool.offload(ChunkKey::new(0, BufKind::V, 0), Tensor::zeros(&[10]));
        assert_eq!(pool.stats().offloads, 2);
        assert_eq!(pool.stats().bytes, 80);
        assert_eq!(pool.stats().bytes_offloaded, 80);
        pool.fetch(&ChunkKey::new(0, BufKind::K, 0)).unwrap();
        assert_eq!(pool.stats().fetches, 1);
        assert_eq!(pool.stats().bytes, 40);
        assert_eq!(pool.stats().peak_bytes, 80);
        assert_eq!(pool.stats().bytes_fetched, 40);
        // keep-fetches count as host-to-device traffic too
        pool.fetch_keep(&ChunkKey::new(0, BufKind::V, 0)).unwrap();
        assert_eq!(pool.stats().bytes_fetched, 80);
        assert_eq!(pool.stats().bytes_offloaded, 80, "no new offloads");
    }

    #[test]
    fn fetch_keep_is_zero_copy() {
        let mut pool = HostPool::new();
        let key = ChunkKey::new(1, BufKind::Q, 0);
        let t = Arc::new(Tensor::ones(&[4]));
        pool.offload_shared(key, Arc::clone(&t));
        let a = pool.fetch_keep(&key).unwrap();
        let b = pool.fetch_keep(&key).unwrap();
        // Every fetch returns the same allocation the caller offloaded —
        // no clone anywhere in the pool.
        assert!(Arc::ptr_eq(&a, &t));
        assert!(std::ptr::eq(a.data().as_ptr(), b.data().as_ptr()));
        // caller + pool + two keeps = 4 refs, one buffer
        assert_eq!(Arc::strong_count(&t), 4);
        let c = pool.fetch(&key).unwrap();
        assert!(Arc::ptr_eq(&c, &t));
        assert_eq!(pool.stats().fetches, 3);
    }

    #[test]
    fn bf16_kv_traffic_halves_exactly() {
        // KV-only fixture: every byte counter must be exactly half of the
        // f32 run's, with identical transfer counts.
        let run = |bf16: bool| {
            let mut pool = HostPool::new();
            pool.set_payload_bf16(bf16);
            pool.offload(ChunkKey::new(0, BufKind::K, 0), Tensor::ones(&[16]));
            pool.offload(ChunkKey::new(0, BufKind::V, 0), Tensor::ones(&[16]));
            pool.fetch(&ChunkKey::new(0, BufKind::K, 0)).unwrap();
            pool.fetch_keep(&ChunkKey::new(0, BufKind::V, 0)).unwrap();
            pool.stats()
        };
        let (full, half) = (run(false), run(true));
        assert_eq!(full.offloads, half.offloads);
        assert_eq!(full.fetches, half.fetches);
        assert_eq!(full.bytes_offloaded, 2 * half.bytes_offloaded);
        assert_eq!(full.bytes_fetched, 2 * half.bytes_fetched);
        assert_eq!(full.peak_bytes, 2 * half.peak_bytes);
        assert_eq!(full.bytes, 2 * half.bytes);
    }

    #[test]
    fn bf16_mode_leaves_non_kv_chunks_zero_copy() {
        let mut pool = HostPool::new();
        pool.set_payload_bf16(true);
        assert!(pool.payload_bf16());
        let key = ChunkKey::new(0, BufKind::O, 0);
        let t = Arc::new(Tensor::ones(&[8]));
        pool.offload_shared(key, Arc::clone(&t));
        let got = pool.fetch_keep(&key).unwrap();
        assert!(Arc::ptr_eq(&got, &t), "non-KV kinds stay f32 zero-copy");
        assert_eq!(pool.stats().bytes, 32, "full f32 bytes for non-KV");
    }

    #[test]
    fn bf16_kv_values_round_once_through_bf16() {
        use fpdt_tensor::bf16::{bf16_to_f32, f32_to_bf16};
        let mut pool = HostPool::new();
        pool.set_payload_bf16(true);
        let key = ChunkKey::new(0, BufKind::K, 0);
        let vals: Vec<f32> = (0..7).map(|i| 0.1 + i as f32 * 0.013).collect();
        pool.offload(key, Tensor::from_vec(vals.clone(), &[7]).unwrap());
        assert_eq!(pool.stats().bytes, 14, "2 bytes per element");
        let back = pool.fetch(&key).unwrap();
        assert_eq!(back.shape(), &[7]);
        for (got, &x) in back.data().iter().zip(&vals) {
            assert_eq!(*got, bf16_to_f32(f32_to_bf16(x)), "exactly one RNE rounding");
        }
    }

    #[test]
    #[should_panic(expected = "offloaded twice")]
    fn double_offload_is_a_bug() {
        let mut pool = HostPool::new();
        let key = ChunkKey::new(0, BufKind::K, 0);
        pool.offload(key, Tensor::zeros(&[1]));
        pool.offload(key, Tensor::zeros(&[1]));
    }

    // ---- engine tests ----

    #[test]
    fn prefetch_wait_returns_the_pooled_buffer() {
        let mut eng = OffloadEngine::new(true);
        let key = ChunkKey::new(0, BufKind::K, 0);
        let t = Arc::new(Tensor::arange(64));
        eng.put(key, Arc::clone(&t));
        let h = eng.prefetch(&key, false).expect("resident");
        let got = h.wait();
        assert!(Arc::ptr_eq(&got, &t), "prefetch is zero-copy");
        assert!(eng.contains(&key), "keep-mode leaves the host copy");
        let h2 = eng.prefetch(&key, true).expect("resident");
        assert!(Arc::ptr_eq(&h2.wait(), &t));
        assert!(eng.is_empty());
        assert_eq!(eng.stats().fetches, 2);
        eng.drain();
    }

    #[test]
    fn transfers_run_on_the_copy_workers_at_any_thread_budget() {
        // The streams own their workers and never consult the kernel
        // pool: a transfer leaves the caller's thread even at a budget of
        // one (where a pool-borrowed stream ran everything inline), and
        // put -> prefetch of one key stays ordered although the two
        // directions ride different FIFOs.
        let rec = Recorder::new();
        let one_thread = fpdt_tensor::KernelCtx {
            threads: 1,
            ..fpdt_tensor::KernelCtx::current()
        };
        one_thread.enter(|| {
            let mut eng = OffloadEngine::new(true);
            assert!(eng.prefetch_enabled());
            eng.set_recorder(rec.clone());
            rec.event("caller");
            let key = ChunkKey::new(0, BufKind::V, 0);
            for _ in 0..16 {
                eng.put(key, Arc::new(Tensor::ones(&[4096])));
                eng.prefetch(&key, true).expect("just put").wait();
            }
        });
        let spans = rec.records();
        let caller = spans.iter().find(|s| s.label == "caller").expect("marker").tid;
        let on = |label: &str| -> Vec<&fpdt_trace::SpanRecord> {
            spans.iter().filter(|s| s.label == label).collect()
        };
        let (puts, fetches) = (on("offload.put"), on("offload.prefetch"));
        assert_eq!((puts.len(), fetches.len()), (16, 16));
        assert!(puts.iter().chain(&fetches).all(|s| s.tid != caller), "off the caller's thread");
        assert_ne!(puts[0].tid, fetches[0].tid, "one worker per direction");
        for (put, fetch) in puts.iter().zip(&fetches) {
            assert!(
                fetch.start_us >= put.start_us + put.dur_us,
                "a fetch waits for its chunk's queued put"
            );
        }
    }

    #[test]
    fn sync_engine_spawns_no_worker_and_runs_transfers_inline() {
        let rec = Recorder::new();
        let mut eng = OffloadEngine::new(false);
        assert!(!eng.prefetch_enabled());
        eng.set_recorder(rec.clone());
        let key = ChunkKey::new(0, BufKind::Q, 0);
        eng.put(key, Arc::new(Tensor::ones(&[8])));
        eng.prefetch(&key, true).expect("resident").wait();
        let tids: HashSet<u64> = rec.records().iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 1, "every span on the calling thread");
        assert_eq!(rec.count("offload.fetch"), 1);
        assert_eq!(rec.count("offload.wait"), 0, "an inline transfer is never waited for");
    }

    #[test]
    fn batch_is_one_wait_with_per_chunk_counters_and_spans() {
        let rec = Recorder::new();
        let mut eng = OffloadEngine::new(true);
        eng.set_recorder(rec.clone());
        let keys: Vec<ChunkKey> = (0..3).map(|i| ChunkKey::new(0, BufKind::K, i)).collect();
        for (i, key) in keys.iter().enumerate() {
            eng.put(*key, Arc::new(Tensor::ones(&[8 * (i + 1)])));
        }
        let missing = ChunkKey::new(9, BufKind::K, 0);
        assert!(eng.prefetch_batch(&[(keys[0], true), (missing, true)]).is_none());
        assert_eq!(eng.stats().fetches, 0, "a failed batch has no side effect");
        let reqs: Vec<(ChunkKey, bool)> = keys.iter().map(|k| (*k, true)).collect();
        let got = eng.prefetch_batch(&reqs).expect("all resident").wait();
        assert_eq!(got.iter().map(|t| t.numel()).collect::<Vec<_>>(), vec![8, 16, 24]);
        assert_eq!(eng.stats().fetches, 3);
        assert_eq!(eng.stats().bytes_fetched, 4 * 48);
        assert_eq!(rec.count("offload.prefetch"), 3, "one span per transfer");
        assert_eq!(rec.total_bytes("offload.prefetch"), 4 * 48);
        assert!(rec.count("offload.wait") <= 1, "at most one wait for the lot");
    }

    #[test]
    #[should_panic(expected = "prefetched twice")]
    fn double_prefetch_without_wait_is_a_bug() {
        let mut eng = OffloadEngine::new(true);
        let key = ChunkKey::new(0, BufKind::V, 3);
        eng.put(key, Arc::new(Tensor::zeros(&[8])));
        let _first = eng.prefetch(&key, false).expect("resident");
        // still un-waited -> scheduler bug
        let _second = eng.prefetch(&key, false);
    }

    #[test]
    fn prefetch_missing_chunk_is_none_and_clears_pending() {
        let mut eng = OffloadEngine::new(true);
        let key = ChunkKey::new(7, BufKind::Q, 1);
        assert!(eng.prefetch(&key, true).is_none());
        // the failed prefetch must not leave `key` marked in flight
        eng.put(key, Arc::new(Tensor::zeros(&[4])));
        let h = eng.prefetch(&key, true).expect("resident now");
        assert_eq!(h.wait().numel(), 4);
    }

    /// Four KV puts then four consuming fetches; bf16 halves the bytes.
    fn kv_round_trip(streams: bool, bf16: bool) -> PoolStats {
        let mut eng = OffloadEngine::new(streams);
        eng.set_payload_bf16(bf16);
        for i in 0..4usize {
            eng.put(ChunkKey::new(0, BufKind::K, i), Arc::new(Tensor::ones(&[16])));
        }
        for i in 0..4usize {
            let key = ChunkKey::new(0, BufKind::K, i);
            eng.prefetch(&key, true).expect("resident").wait();
        }
        eng.drain();
        eng.stats()
    }

    #[test]
    fn sync_and_async_paths_keep_identical_stats() {
        assert_eq!(kv_round_trip(false, false), kv_round_trip(true, false));
    }

    #[test]
    fn bf16_engine_sync_async_stats_match() {
        // bf16 transfers keep the sync/async stats-parity guarantee, and
        // the engine's modeled pass streams the stored (half-size) repr.
        let stats = kv_round_trip(false, true);
        assert_eq!(stats, kv_round_trip(true, true));
        assert_eq!(stats.bytes_offloaded, 4 * 16 * 2, "bf16 wire bytes");
        assert_eq!(stats.bytes_fetched, 4 * 16 * 2);
    }

    #[test]
    fn handle_drop_without_wait_clears_the_in_flight_mark() {
        let mut eng = OffloadEngine::new(true);
        let key = ChunkKey::new(2, BufKind::Lse, 0);
        eng.put(key, Arc::new(Tensor::zeros(&[32])));
        drop(eng.prefetch(&key, false));
        // in-flight mark cleared -> a fresh prefetch of the same key is legal
        let h = eng.prefetch(&key, true).expect("resident");
        assert_eq!(h.wait().numel(), 32);
        eng.drain();
    }
}
