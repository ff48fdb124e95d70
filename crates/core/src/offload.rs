//! The host-memory pool: where FPDT parks idle sequence chunks — plus the
//! copy streams that hide its traffic behind compute.
//!
//! In the paper this is pinned CPU DRAM reached over PCIe; in the real
//! runtime it is a keyed store owned by each simulated GPU's thread. The
//! pool tracks bytes and transfer counts so tests can assert what crosses
//! the link: the executor's backward takes every cached chunk exactly
//! once and puts nothing back (an open query row keeps its working set
//! on the rank thread, DESIGN.md "Tile schedule"), so the pool only ever
//! holds the five [`BufKind`]s the forward saves: Q, K, V, O and lse.
//!
//! Chunks are stored as [`Arc<Tensor>`], so [`HostPool::fetch_keep`] hands
//! back the *same* buffer the pool holds — no data copy, ever. What a real
//! system pays for is the PCIe transfer, which [`OffloadEngine`] models as
//! a bandwidth-bound read pass over the chunk on the rank thread plus,
//! over a priced simulated link, the link held for the chunk's wire bytes.
//! Each PCIe direction is a FIFO clock ([`Link`], one CUDA copy stream
//! each), not a thread: a transfer is stamped when it lands, and only a
//! consumer that needs it sooner waits. All bookkeeping happens on the
//! rank thread at issue time, in program order, and the data is
//! `Arc`-shared, so link timing (and any `FPDT_THREADS`) cannot change a
//! result or a counter *by construction*.

use fpdt_tensor::bf16::Bf16Tensor;
use fpdt_tensor::Tensor;
use fpdt_trace::wire::{sleep_until, Link};
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
        self.fetch_chunk(key, true).map(|c| c.widen())
    }

    /// Reads a chunk without evicting it (a fetch that keeps the host
    /// copy — what the forward does with KV chunks reused by later query
    /// chunks). For f32 chunks this hands back the pooled `Arc` itself:
    /// no data is copied. bf16 chunks widen to a fresh f32 buffer.
    pub fn fetch_keep(&mut self, key: &ChunkKey) -> Option<Arc<Tensor>> {
        self.fetch_chunk(key, false).map(|c| c.widen())
    }

    /// [`HostPool::fetch`] (`consume`) or [`HostPool::fetch_keep`]
    /// returning the stored wire representation (counters update
    /// identically; widen with [`HostChunk::widen`]).
    pub fn fetch_chunk(&mut self, key: &ChunkKey, consume: bool) -> Option<HostChunk> {
        let c = if consume { self.store.remove(key)? } else { self.store.get(key)?.clone() };
        let b = c.wire_bytes();
        self.stats.fetches += 1;
        self.stats.bytes -= if consume { b } else { 0 };
        self.stats.bytes_fetched += b;
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
/// chunks that travelled as one transfer).
///
/// The *data* is already available (it is the pool's shared buffer);
/// [`FetchHandle::wait`] sleeps until the transfer's link stamp, recording
/// that time — and only that — as an `offload.wait` span. Dropping the
/// handle does not wait: the link is FIFO, so later transfers stay ordered
/// behind this one regardless.
#[derive(Debug)]
pub struct FetchHandle<D = Arc<Tensor>> {
    data: D,
    /// When the transfer lands (`None` over a free link).
    ready_at: Option<Instant>,
    wait_span: Option<(Recorder, u64)>,
    _inflight: InFlight,
}

impl<D> FetchHandle<D> {
    /// Sleeps until the transfer has landed, then returns the shared
    /// buffer(s).
    pub fn wait(self) -> D {
        if let Some(ready_at) = self.ready_at {
            let start_us = self.wait_span.as_ref().map(|(r, _)| r.now_us());
            if let (true, Some((r, bytes)), Some(start_us)) = (sleep_until(ready_at), &self.wait_span, start_us) {
                r.record("offload.wait", start_us, r.now_us() - start_us, Some(*bytes));
            }
        }
        self.data
    }
}

/// A [`HostPool`] fronted by two simulated copy streams.
///
/// Bookkeeping (residency, counters) and the read pass over each chunk run
/// on the owning rank's thread at issue time. The wire time is a clock per
/// PCIe direction (the link is full duplex, and so is the paper's layout):
/// device-to-host puts on one, host-to-device fetches on the other, their
/// busy intervals recorded on the `fpdt-d2h-r{rank}` / `fpdt-h2d-r{rank}`
/// trace tracks. A fetch of a chunk whose put has not landed yet starts
/// no earlier than the put's stamp.
pub struct OffloadEngine {
    pool: HostPool,
    d2h: Link,
    h2d: Link,
    /// The trace tracks of the two directions.
    tracks: [String; 2],
    /// When each pooled chunk's put lands, until its first fetch (later
    /// fetches queue behind that one on the FIFO).
    landing: HashMap<ChunkKey, Instant>,
    inflight: Arc<Mutex<HashSet<ChunkKey>>>,
    recorder: Option<Recorder>,
}

impl OffloadEngine {
    /// An engine over an empty pool, charging the `FPDT_SIM_GBPS` link
    /// (`fpdt_trace::wire::link_gbps`) when `link` is set, else a free one.
    pub fn new(link: bool) -> Self {
        let gbps = if link { fpdt_trace::wire::link_gbps() } else { 0.0 };
        Self::for_rank(0, gbps)
    }

    /// An engine for one rank of a group, over a link of `gbps` GB/s: its
    /// tracks are `fpdt-d2h-r{rank}` / `fpdt-h2d-r{rank}`, next to the comm
    /// stream's `fpdt-comm-r{rank}` in a trace.
    pub fn for_rank(rank: usize, gbps: f64) -> Self {
        OffloadEngine {
            pool: HostPool::new(),
            d2h: Link::new(gbps),
            h2d: Link::new(gbps),
            tracks: [format!("fpdt-d2h-r{rank}"), format!("fpdt-h2d-r{rank}")],
            landing: HashMap::new(),
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

    /// Attaches a span recorder: each chunk's read pass records an
    /// `offload.put` or `offload.fetch` span on the rank thread, each
    /// priced transfer an `offload.put` or `offload.prefetch` interval on
    /// its direction's track, and waits that sleep `offload.wait`.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    /// Transfer and residency counters (deterministic: bookkeeping happens
    /// at issue time regardless of link timing).
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

    /// The simulated PCIe transfer of a run of chunks in direction `dir`
    /// (0 = D2H, 1 = H2D), the chunk at `i` no earlier than `after[i]`:
    /// a read pass over each chunk's stored representation, one `label`
    /// span per chunk on this thread, then the link charged for each
    /// chunk's wire bytes — a bf16 chunk streams half the bytes of its f32
    /// twin. Returns when the last chunk lands.
    fn transfer(&mut self, dir: usize, labels: [&str; 2], run: &[(HostChunk, Option<Instant>)]) -> Option<Instant> {
        let rec = self.recorder.as_ref();
        for (chunk, _) in run {
            let start_us = rec.map(Recorder::now_us);
            chunk.read_pass();
            if let (Some(r), Some(start_us)) = (rec, start_us) {
                r.record(labels[0], start_us, r.now_us() - start_us, Some(chunk.wire_bytes()));
            }
        }
        let link = if dir == 0 { &mut self.d2h } else { &mut self.h2d };
        let mut landed = None;
        for (chunk, after) in run {
            let Some((start, ready)) = link.charge(chunk.wire_bytes(), *after) else { break };
            if let Some(r) = rec {
                let dur_us = (ready - start).as_secs_f64() * 1e6;
                r.record_on(&self.tracks[dir], labels[1], r.at_us(start), dur_us, Some(chunk.wire_bytes()));
            }
            landed = Some(ready);
        }
        landed
    }

    /// Offloads a shared chunk (device-to-host). The residency update and
    /// the read pass are immediate; the wire time goes on the D2H clock.
    ///
    /// # Panics
    ///
    /// Same double-offload condition as [`HostPool::offload`].
    pub fn put(&mut self, key: ChunkKey, t: Arc<Tensor>) {
        let chunk = self.pool.offload_shared(key, t);
        if let Some(landed) = self.transfer(0, ["offload.put"; 2], &[(chunk, None)]) {
            self.landing.insert(key, landed);
        }
    }

    /// Issues a host-to-device transfer and returns a [`FetchHandle`] to
    /// wait on — the double-buffer primitive. Counters update now (so
    /// statistics do not depend on link timing); the transfer goes on the
    /// H2D clock, after the chunk's own put has landed. `None` when `key`
    /// is not resident.
    ///
    /// # Panics
    ///
    /// Panics when `key` already has an in-flight prefetch that no one
    /// waited for — double-buffering the same chunk twice is a scheduler
    /// bug, mirroring the pool's double-offload panic.
    pub fn prefetch(&mut self, key: &ChunkKey, consume: bool) -> Option<FetchHandle> {
        let FetchHandle { mut data, ready_at, wait_span, _inflight } = self.prefetch_batch(&[(*key, consume)])?;
        let data = data.pop().expect("one chunk per request");
        Some(FetchHandle { data, ready_at, wait_span, _inflight })
    }

    /// [`OffloadEngine::prefetch`] for several `(key, consume)` requests
    /// that travel as **one** transfer: the rank pays one wait for the
    /// lot, while counters and transfer spans stay per chunk, in request
    /// order. `None` — and no side effect — when any key is not resident.
    ///
    /// # Panics
    ///
    /// Same in-flight condition as [`OffloadEngine::prefetch`].
    pub fn prefetch_batch(&mut self, reqs: &[(ChunkKey, bool)]) -> Option<FetchHandle<Vec<Arc<Tensor>>>> {
        if !reqs.iter().all(|(key, _)| self.pool.contains(key)) {
            return None;
        }
        let mut run = Vec::with_capacity(reqs.len());
        for (key, consume) in reqs {
            let fresh = self.inflight.lock().unwrap_or_else(|e| e.into_inner()).insert(*key);
            assert!(fresh, "chunk {key:?} prefetched twice without a wait");
            let chunk = self.pool.fetch_chunk(key, *consume).expect("residency checked above");
            run.push((chunk, self.landing.remove(key)));
        }
        // Widen on the issuing rank's thread (deterministic program order).
        let data = run.iter().map(|(chunk, _)| chunk.widen()).collect();
        let bytes = run.iter().map(|(chunk, _)| chunk.wire_bytes()).sum();
        let ready_at = self.transfer(1, ["offload.fetch", "offload.prefetch"], &run);
        Some(FetchHandle {
            data,
            ready_at,
            wait_span: self.recorder.clone().map(|r| (r, bytes)),
            _inflight: InFlight {
                keys: reqs.iter().map(|(key, _)| *key).collect(),
                set: Arc::clone(&self.inflight),
            },
        })
    }

    /// Drops a resident chunk without a transfer. Returns whether it was
    /// present.
    pub fn discard(&mut self, key: &ChunkKey) -> bool {
        self.landing.remove(key);
        self.pool.discard(key)
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
    }

    #[test]
    fn priced_transfers_sit_on_their_direction_tracks_and_only_the_caller_waits() {
        // The read pass runs on the caller's thread; the wire time is an
        // interval on the direction's own track, one per chunk, and the
        // caller records only the sleep of a wait.
        let rec = Recorder::new();
        let mut eng = OffloadEngine::for_rank(3, 0.05);
        eng.set_recorder(rec.clone());
        rec.event("caller");
        let key = ChunkKey::new(0, BufKind::V, 0);
        for _ in 0..4 {
            eng.put(key, Arc::new(Tensor::ones(&[4096])));
            eng.prefetch(&key, true).expect("just put").wait();
        }
        let spans = rec.records();
        let tid = |label: &str| spans.iter().find(|s| s.label == label).expect(label).tid;
        let caller = tid("caller");
        let on = |label: &str, tid: u64| spans.iter().filter(|s| s.label == label && s.tid == tid).count();
        let (d2h, h2d) = (tid("offload.prefetch") - 1, tid("offload.prefetch"));
        assert_eq!((on("offload.put", caller), on("offload.fetch", caller)), (4, 4), "read passes");
        assert_eq!((on("offload.put", d2h), on("offload.prefetch", h2d)), (4, 4), "wire intervals");
        assert_eq!(on("offload.wait", caller), 4, "each fetch waited for its put and its own bytes");
        let trace = rec.chrome_trace_json();
        assert!(trace.contains("fpdt-d2h-r3") && trace.contains("fpdt-h2d-r3"));
    }

    #[test]
    fn a_fetch_right_after_its_put_lands_after_both_transfers() {
        // The fetch is ordered by the put's stamp, then holds the H2D
        // link for its own bytes: 64 KiB each way at 0.05 GB/s is ~1.3 ms
        // per direction.
        let bytes = 16 * 1024 * 4;
        let wire = std::time::Duration::from_secs_f64(bytes as f64 / 0.05e9);
        let mut eng = OffloadEngine::for_rank(0, 0.05);
        let key = ChunkKey::new(0, BufKind::K, 0);
        let t0 = Instant::now();
        eng.put(key, Arc::new(Tensor::ones(&[16 * 1024])));
        eng.prefetch(&key, true).expect("just put").wait();
        assert!(t0.elapsed() >= 2 * wire, "{:?} < {:?}", t0.elapsed(), 2 * wire);
    }

    #[test]
    fn free_link_transfers_are_read_passes_on_the_caller_and_never_waited() {
        let rec = Recorder::new();
        let mut eng = OffloadEngine::new(false);
        eng.set_recorder(rec.clone());
        let key = ChunkKey::new(0, BufKind::Q, 0);
        eng.put(key, Arc::new(Tensor::ones(&[8])));
        eng.prefetch(&key, true).expect("resident").wait();
        let tids: HashSet<u64> = rec.records().iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 1, "every span on the calling thread");
        assert_eq!((rec.count("offload.put"), rec.count("offload.fetch")), (1, 1));
        assert_eq!(rec.count("offload.prefetch") + rec.count("offload.wait"), 0);
    }

    #[test]
    fn batch_is_one_wait_with_per_chunk_counters_and_spans() {
        let rec = Recorder::new();
        let mut eng = OffloadEngine::for_rank(0, 100.0);
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
    fn kv_round_trip(gbps: f64, bf16: bool) -> PoolStats {
        let mut eng = OffloadEngine::for_rank(0, gbps);
        eng.set_payload_bf16(bf16);
        for i in 0..4usize {
            eng.put(ChunkKey::new(0, BufKind::K, i), Arc::new(Tensor::ones(&[16])));
        }
        for i in 0..4usize {
            let key = ChunkKey::new(0, BufKind::K, i);
            eng.prefetch(&key, true).expect("resident").wait();
        }
        eng.stats()
    }

    #[test]
    fn free_and_priced_links_keep_identical_stats() {
        for bf16 in [false, true] {
            assert_eq!(kv_round_trip(0.0, bf16), kv_round_trip(100.0, bf16));
        }
        // bf16 transfers stream the stored (half-size) representation.
        let stats = kv_round_trip(0.0, true);
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
    }
}
