//! A rank's chunk store: where FPDT parks idle sequence chunks — plus the
//! copy streams that hide their traffic behind compute.
//!
//! [`OffloadEngine`] is the one place a rank keeps the chunks its
//! executor saves between forward and backward, whichever way the mode
//! says they live. With offload on it is the paper's host pool: pinned
//! CPU DRAM reached over PCIe, here a keyed store that tracks bytes and
//! transfer counts ([`PoolStats`]) so tests can assert what crosses the
//! link. With offload off the same store holds the chunks device-resident:
//! a put and a fetch move an `Arc`, and nothing is counted or priced. The
//! executor's backward takes every cached chunk exactly once and puts
//! nothing back (an open query row keeps its working set on the rank
//! thread, DESIGN.md "Tile schedule"), so the store only ever holds the
//! four [`BufKind`]s the forward saves: Q, K, V and lse.
//!
//! What a real system pays for is the PCIe transfer, which the engine
//! models as a copy of the chunk on the rank thread plus, over a priced
//! simulated link, the link held for the chunk's wire bytes. A put copies
//! the chunk into a host buffer billed to the host pool's [`ledger`] tag,
//! and a fetch copies it back into one billed to the fetching rank, so
//! the device ledger sees the bytes offload wins back. Each PCIe
//! direction is a FIFO clock ([`Link`], one CUDA copy stream each), not a
//! thread: a transfer is stamped when it lands, and only a consumer that
//! needs it sooner waits. All bookkeeping and every copy happen on the
//! rank thread at issue time, in program order, so link timing (and any
//! `FPDT_THREADS`) cannot change a result or a counter *by construction*.

use fpdt_tensor::bf16::Bf16Tensor;
use fpdt_tensor::{ledger, Tensor};
use fpdt_trace::wire::{sleep_until, Link};
use fpdt_trace::Recorder;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What kind of buffer a pooled chunk holds: exactly the four the
/// executor puts in the pool. The attention output never reaches it (the
/// backward's row-dot is formed from the block's own copy and travels
/// with `dO`), the backward's `dO`, row-dot and running `dQ` stay with
/// their open row, and pool residency
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

/// How one chunk is held in the store. With offload off it is the
/// caller's own buffer, device-resident. With offload on it is a host
/// copy billed to the host pool's ledger tag: full-precision `f32`, or
/// bf16 (half the bytes, one RNE rounding on put, widened back to `f32`
/// on fetch).
///
/// The host variants are the pool's *wire format*: compute always sees
/// `f32` via [`HostChunk::to_device`]. Only offloaded KV chunks use bf16
/// (see [`OffloadEngine::set_payload_bf16`]); everything else stays `f32`
/// so gradients and saved activations keep full precision.
#[derive(Debug, Clone)]
enum HostChunk {
    /// Offload off: the caller's buffer, `Arc`-shared.
    Device(Arc<Tensor>),
    /// Full-precision host copy.
    F32(Arc<Tensor>),
    /// bf16-rounded host copy (2 bytes/element on the simulated PCIe link).
    Bf16(Arc<Bf16Tensor>),
}

impl HostChunk {
    /// The host copy of `t` (rounded through bf16 when `bf16`), made under
    /// the host pool's ledger tag: the bandwidth-bound half of a
    /// device-to-host transfer.
    fn offload(t: &Tensor, bf16: bool) -> Self {
        ledger::with_tag(ledger::HOST, || match bf16 {
            true => HostChunk::Bf16(Arc::new(Bf16Tensor::from_f32(t))),
            false => HostChunk::F32(Arc::new(t.clone())),
        })
    }

    /// Bytes this chunk occupies in host memory (4 per f32 element, 2 per
    /// bf16 element) — what every [`PoolStats`] byte counter tallies.
    fn wire_bytes(&self) -> u64 {
        match self {
            HostChunk::Device(t) | HostChunk::F32(t) => (t.numel() * 4) as u64,
            HostChunk::Bf16(t) => t.wire_bytes(),
        }
    }

    /// The chunk as `f32` compute data on the calling rank: the buffer
    /// itself when device-resident, else a copy of the host one (widened
    /// from bf16), billed to the caller's tag — the bandwidth-bound half
    /// of a host-to-device transfer.
    fn to_device(&self) -> Arc<Tensor> {
        match self {
            HostChunk::Device(t) => Arc::clone(t),
            HostChunk::F32(t) => Arc::new(Tensor::clone(t)),
            HostChunk::Bf16(t) => {
                Arc::new(t.to_f32().expect("bf16 chunk shape was valid on offload"))
            }
        }
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
/// (one chunk) or [`OffloadEngine::prefetch_batch`] (`D` = an array of
/// chunks that travelled as one transfer).
///
/// The *data* is already on the rank (the copy of the host chunk, or the
/// device-resident buffer itself with offload off);
/// [`FetchHandle::wait`] sleeps until the transfer's link stamp, recording
/// that time — and only that — as an `offload.wait` span. Dropping the
/// handle does not wait: the link is FIFO, so later transfers stay ordered
/// behind this one regardless.
#[derive(Debug)]
pub struct FetchHandle<D = Arc<Tensor>> {
    data: D,
    /// When the transfer lands (`None` over a free link or device-resident).
    ready_at: Option<Instant>,
    wait_span: Option<(Recorder, u64)>,
    _inflight: InFlight,
}

impl<D> FetchHandle<D> {
    /// Sleeps until the transfer has landed, then returns the fetched
    /// buffer(s).
    pub fn wait(self) -> D {
        if let Some(ready_at) = self.ready_at {
            let start_us = self.wait_span.as_ref().map(|(r, _)| r.now_us());
            if let (true, Some((r, bytes)), Some(start_us)) =
                (sleep_until(ready_at), &self.wait_span, start_us)
            {
                r.record(
                    "offload.wait",
                    start_us,
                    r.now_us() - start_us,
                    Some(*bytes),
                );
            }
        }
        self.data
    }
}

/// A rank's chunk store, fronted — when it offloads — by two simulated
/// copy streams.
///
/// With offload on, bookkeeping (residency, counters) and the copy of
/// each chunk run on the owning rank's thread at issue time: a put copies
/// the chunk into host memory (billed to [`ledger::HOST`]) and a fetch
/// copies it back (billed to the fetching rank), so the pool's bytes and
/// the rank's are apart on the device ledger. The
/// wire time is a clock per PCIe direction (the link is full duplex, and
/// so is the paper's layout): device-to-host puts on one, host-to-device
/// fetches on the other, their busy intervals recorded on the
/// `fpdt-d2h-r{rank}` / `fpdt-h2d-r{rank}` trace tracks. A fetch of a
/// chunk whose put has not landed yet starts no earlier than the put's
/// stamp. With offload off, chunks stay device-resident: no copy, no
/// rounding, no link, no counter and no span — only the residency and
/// in-flight rules, which are the same in both modes.
///
/// # Example
///
/// ```
/// use fpdt_core::offload::{BufKind, ChunkKey, OffloadEngine};
/// use fpdt_tensor::Tensor;
/// use std::sync::Arc;
///
/// // A host pool over a free link (`true` would charge `FPDT_SIM_GBPS`).
/// let mut pool = OffloadEngine::new(false);
/// let key = ChunkKey::new(0, BufKind::K, 2);
/// let k = Arc::new(Tensor::zeros(&[4, 2, 8]));
/// pool.put(key, Arc::clone(&k));
/// assert_eq!(pool.stats().bytes, 4 * 2 * 8 * 4);
/// let back = pool.prefetch(&key, true).expect("chunk was cached").wait();
/// assert_eq!(back, k, "a fetch hands back a copy of the stored chunk");
/// assert_eq!(pool.stats().bytes, 0);
/// assert_eq!(pool.stats().bytes_fetched, 4 * 2 * 8 * 4);
///
/// // The same store with offload off: device-resident, nothing counted.
/// let mut device = OffloadEngine::for_rank(0, 0.0, false);
/// device.put(key, Arc::clone(&k));
/// let back = device.prefetch(&key, true).expect("chunk was cached").wait();
/// assert!(Arc::ptr_eq(&back, &k), "the buffer itself, no copy");
/// assert_eq!(device.stats().offloads, 0);
/// ```
pub struct OffloadEngine {
    /// Park chunks in host memory (priced, counted); else keep them
    /// device-resident.
    offload: bool,
    /// Round offloaded KV chunks through bf16.
    payload_bf16: bool,
    /// Every resident chunk, with its put's landing stamp until its first
    /// fetch (later fetches queue behind that one on the FIFO).
    store: HashMap<ChunkKey, (HostChunk, Option<Instant>)>,
    stats: PoolStats,
    d2h: Link,
    h2d: Link,
    /// The trace tracks of the two directions.
    tracks: [String; 2],
    inflight: Arc<Mutex<HashSet<ChunkKey>>>,
    recorder: Option<Recorder>,
}

impl OffloadEngine {
    /// A host pool, charging the `FPDT_SIM_GBPS` link
    /// (`fpdt_trace::wire::link_gbps`) when `link` is set, else a free one.
    pub fn new(link: bool) -> Self {
        let gbps = if link {
            fpdt_trace::wire::link_gbps()
        } else {
            0.0
        };
        Self::for_rank(0, gbps, true)
    }

    /// The chunk store of one rank of a group: a host pool over a link of
    /// `gbps` GB/s when `offload` is set, else device-resident. Its tracks
    /// are `fpdt-d2h-r{rank}` / `fpdt-h2d-r{rank}`, next to the comm
    /// stream's `fpdt-comm-r{rank}` in a trace.
    pub fn for_rank(rank: usize, gbps: f64, offload: bool) -> Self {
        OffloadEngine {
            offload,
            payload_bf16: false,
            store: HashMap::new(),
            stats: PoolStats::default(),
            d2h: Link::new(gbps),
            h2d: Link::new(gbps),
            tracks: [format!("fpdt-d2h-r{rank}"), format!("fpdt-h2d-r{rank}")],
            inflight: Arc::default(),
            recorder: None,
        }
    }

    /// Switches the pool's wire format for *KV* chunks: when enabled,
    /// offloaded `K`/`V` chunks are rounded to bf16 (halving their bytes in
    /// every [`PoolStats`] counter and on the link) and widened back to
    /// f32 on fetch. All other buffer kinds, and every chunk with offload
    /// off, stay full-precision `Arc`-shared f32. Affects chunks put after
    /// the call; gated at the runtime layer by `RuntimeOptions::payload_bf16`.
    pub fn set_payload_bf16(&mut self, on: bool) {
        self.payload_bf16 = on;
    }

    /// Attaches a span recorder: with offload on, each chunk's copy
    /// records an `offload.put` or `offload.fetch` span on the rank
    /// thread, each priced transfer an `offload.put` or `offload.prefetch`
    /// interval on its direction's track, and waits that sleep
    /// `offload.wait`. A device-resident store records nothing.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    /// Transfer and residency counters (deterministic: bookkeeping happens
    /// at issue time regardless of link timing). Zero with offload off.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Whether the store holds no chunks.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Whether a chunk is resident.
    pub fn contains(&self, key: &ChunkKey) -> bool {
        self.store.contains_key(key)
    }

    /// Runs `copy`, the bandwidth-bound half of a transfer of `bytes`
    /// wire bytes, on this thread, recorded as a `label` span.
    fn copied<T>(&self, label: &str, bytes: u64, copy: impl FnOnce() -> T) -> T {
        let Some(r) = &self.recorder else {
            return copy();
        };
        let start_us = r.now_us();
        let out = copy();
        r.record(label, start_us, r.now_us() - start_us, Some(bytes));
        out
    }

    /// The wire half of a simulated PCIe transfer of a run of chunks in
    /// direction `dir` (0 = D2H, 1 = H2D), the chunk at `i` no earlier
    /// than `after[i]`: the link charged for each chunk's wire bytes — a
    /// bf16 chunk streams half the bytes of its f32 twin — each a `label`
    /// interval on the direction's track. Returns when the last chunk
    /// lands.
    fn transfer(
        &mut self,
        dir: usize,
        label: &str,
        run: &[(HostChunk, Option<Instant>)],
    ) -> Option<Instant> {
        let rec = self.recorder.as_ref();
        let link = if dir == 0 {
            &mut self.d2h
        } else {
            &mut self.h2d
        };
        let mut landed = None;
        for (chunk, after) in run {
            let Some((start, ready)) = link.charge(chunk.wire_bytes(), *after) else {
                break;
            };
            if let Some(r) = rec {
                let dur_us = (ready - start).as_secs_f64() * 1e6;
                r.record_on(
                    &self.tracks[dir],
                    label,
                    r.at_us(start),
                    dur_us,
                    Some(chunk.wire_bytes()),
                );
            }
            landed = Some(ready);
        }
        landed
    }

    /// Stores a shared chunk and hands back its stored form: exactly what
    /// a later fetch of `key` returns. With offload on this is the
    /// device-to-host copy: the copy (billed to [`ledger::HOST`]) and the
    /// residency update are immediate, the wire time goes on the D2H
    /// clock. With offload off it is an `Arc` move into the store.
    ///
    /// The stored form is `t` itself (the same `Arc`) for every f32 chunk;
    /// a KV chunk rounded through bf16 comes back as its rounded copy
    /// widened to f32. A caller that keeps the returned chunk on the
    /// device therefore reads the bits the pool holds, whatever the
    /// payload format.
    ///
    /// # Panics
    ///
    /// Panics if the key is already resident — putting the same chunk
    /// twice without fetching it is a scheduler bug.
    pub fn put(&mut self, key: ChunkKey, t: Arc<Tensor>) -> Arc<Tensor> {
        let (entry, stored) = if self.offload {
            let bf16 = self.payload_bf16 && matches!(key.kind, BufKind::K | BufKind::V);
            let bytes = (t.numel() * if bf16 { 2 } else { 4 }) as u64;
            let chunk = self.copied("offload.put", bytes, || HostChunk::offload(&t, bf16));
            self.stats.offloads += 1;
            self.stats.bytes += bytes;
            self.stats.bytes_offloaded += bytes;
            self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.bytes);
            let landing = self.transfer(0, "offload.put", &[(chunk.clone(), None)]);
            let stored = match bf16 {
                true => chunk.to_device(),
                false => t,
            };
            ((chunk, landing), stored)
        } else {
            ((HostChunk::Device(Arc::clone(&t)), None), t)
        };
        let prev = self.store.insert(key, entry);
        assert!(prev.is_none(), "chunk {key:?} put twice");
        stored
    }

    /// Issues a host-to-device transfer and returns a [`FetchHandle`] to
    /// wait on — the double-buffer primitive. `consume` evicts the chunk,
    /// otherwise it stays resident; either way the handle holds the
    /// chunk's copy on this rank (the stored buffer itself with offload
    /// off). Counters update now (so
    /// statistics do not depend on link timing); the transfer goes on the
    /// H2D clock, after the chunk's own put has landed. With offload off
    /// the handle is ready at once. `None` when `key` is not resident.
    ///
    /// # Panics
    ///
    /// Panics when `key` already has an in-flight prefetch that no one
    /// waited for — double-buffering the same chunk twice is a scheduler
    /// bug, mirroring the double-put panic.
    pub fn prefetch(&mut self, key: &ChunkKey, consume: bool) -> Option<FetchHandle> {
        let FetchHandle {
            data: [data],
            ready_at,
            wait_span,
            _inflight,
        } = self.prefetch_batch([(*key, consume)])?;
        Some(FetchHandle {
            data,
            ready_at,
            wait_span,
            _inflight,
        })
    }

    /// [`OffloadEngine::prefetch`] for several `(key, consume)` requests
    /// that travel as **one** transfer: the rank pays one wait for the
    /// lot, while counters and transfer spans stay per chunk, in request
    /// order. `None` — and no side effect — when any key is not resident.
    ///
    /// # Panics
    ///
    /// Same in-flight condition as [`OffloadEngine::prefetch`].
    pub fn prefetch_batch<const N: usize>(
        &mut self,
        reqs: [(ChunkKey, bool); N],
    ) -> Option<FetchHandle<[Arc<Tensor>; N]>> {
        if !reqs.iter().all(|(key, _)| self.store.contains_key(key)) {
            return None;
        }
        let mut run = Vec::with_capacity(N);
        for (key, consume) in &reqs {
            let fresh = self
                .inflight
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(*key);
            assert!(fresh, "chunk {key:?} prefetched twice without a wait");
            let (chunk, landing) = if *consume {
                self.store.remove(key).expect("residency checked above")
            } else {
                let (chunk, landing) = self.store.get_mut(key).expect("residency checked above");
                (chunk.clone(), landing.take())
            };
            if self.offload {
                let b = chunk.wire_bytes();
                self.stats.fetches += 1;
                self.stats.bytes -= if *consume { b } else { 0 };
                self.stats.bytes_fetched += b;
            }
            run.push((chunk, landing));
        }
        // Copy on the issuing rank's thread (deterministic program order).
        let data = std::array::from_fn(|i| {
            let chunk = &run[i].0;
            match self.offload {
                true => self.copied("offload.fetch", chunk.wire_bytes(), || chunk.to_device()),
                false => chunk.to_device(),
            }
        });
        let (ready_at, wait_span) = if self.offload {
            let bytes = run.iter().map(|(chunk, _)| chunk.wire_bytes()).sum();
            let ready_at = self.transfer(1, "offload.prefetch", &run);
            (ready_at, self.recorder.clone().map(|r| (r, bytes)))
        } else {
            (None, None)
        };
        Some(FetchHandle {
            data,
            ready_at,
            wait_span,
            _inflight: InFlight {
                keys: reqs.iter().map(|(key, _)| *key).collect(),
                set: Arc::clone(&self.inflight),
            },
        })
    }

    /// Drops a resident chunk without a transfer (freeing host memory
    /// costs no PCIe traffic). Returns whether it was present.
    pub fn discard(&mut self, key: &ChunkKey) -> bool {
        let Some((chunk, _)) = self.store.remove(key) else {
            return false;
        };
        if self.offload {
            self.stats.bytes -= chunk.wire_bytes();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A host pool over a free link (same counters as any priced one).
    fn pool() -> OffloadEngine {
        OffloadEngine::new(false)
    }

    /// Fetches `key` (`consume` evicts it) and waits for it.
    fn fetch(eng: &mut OffloadEngine, key: &ChunkKey, consume: bool) -> Option<Arc<Tensor>> {
        eng.prefetch(key, consume).map(FetchHandle::wait)
    }

    #[test]
    fn put_fetch_round_trip() {
        let mut pool = pool();
        let t = Tensor::arange(8).reshape(&[2, 4]).unwrap();
        let key = ChunkKey::new(3, BufKind::V, 1);
        pool.put(key, Arc::new(t.clone()));
        assert!(pool.contains(&key));
        assert_eq!(pool.store.len(), 1);
        let back = fetch(&mut pool, &key, true).unwrap();
        assert_eq!(*back, t);
        assert!(pool.is_empty());
        assert!(fetch(&mut pool, &key, true).is_none());
    }

    #[test]
    fn stats_track_transfers_peak_and_directions() {
        let mut pool = pool();
        pool.put(
            ChunkKey::new(0, BufKind::K, 0),
            Arc::new(Tensor::zeros(&[10])),
        );
        pool.put(
            ChunkKey::new(0, BufKind::V, 0),
            Arc::new(Tensor::zeros(&[10])),
        );
        assert_eq!(pool.stats().offloads, 2);
        assert_eq!(pool.stats().bytes, 80);
        assert_eq!(pool.stats().bytes_offloaded, 80);
        fetch(&mut pool, &ChunkKey::new(0, BufKind::K, 0), true).unwrap();
        assert_eq!(pool.stats().fetches, 1);
        assert_eq!(pool.stats().bytes, 40);
        assert_eq!(pool.stats().peak_bytes, 80);
        assert_eq!(pool.stats().bytes_fetched, 40);
        // keep-fetches count as host-to-device traffic too
        fetch(&mut pool, &ChunkKey::new(0, BufKind::V, 0), false).unwrap();
        assert_eq!(pool.stats().bytes_fetched, 80);
        assert_eq!(pool.stats().bytes, 40, "a keep leaves the chunk resident");
        assert_eq!(pool.stats().bytes_offloaded, 80, "no new offloads");
    }

    #[test]
    fn discard_frees_the_chunk_and_moves_no_bytes() {
        let mut pool = pool();
        let key = ChunkKey::new(0, BufKind::Lse, 0);
        pool.put(key, Arc::new(Tensor::zeros(&[10])));
        let before = pool.stats();
        assert!(pool.discard(&key));
        assert!(!pool.discard(&key), "already gone");
        let after = pool.stats();
        assert_eq!(after.bytes, 0);
        assert_eq!(
            (after.fetches, after.bytes_fetched),
            (0, 0),
            "no host-to-device traffic"
        );
        assert_eq!(
            (after.offloads, after.bytes_offloaded, after.peak_bytes),
            (1, 40, before.peak_bytes)
        );
    }

    #[test]
    fn keep_fetch_is_a_fresh_copy_of_the_host_chunk() {
        let mut pool = pool();
        let key = ChunkKey::new(1, BufKind::Q, 0);
        let t = Arc::new(Tensor::arange(4));
        pool.put(key, Arc::clone(&t));
        let a = fetch(&mut pool, &key, false).unwrap();
        let b = fetch(&mut pool, &key, false).unwrap();
        // Every fetch copies the host chunk onto the rank: the caller's
        // values, in buffers of their own.
        assert_eq!((&*a, &*b), (&*t, &*t));
        assert!(!std::ptr::eq(a.data().as_ptr(), b.data().as_ptr()));
        assert!(!std::ptr::eq(a.data().as_ptr(), t.data().as_ptr()));
        assert_eq!(Arc::strong_count(&t), 1, "the store holds its own copy");
        let c = fetch(&mut pool, &key, true).unwrap();
        assert_eq!(*c, *t);
        assert_eq!(pool.stats().fetches, 3);
    }

    #[test]
    fn bf16_kv_traffic_halves_exactly() {
        // KV-only fixture: every byte counter must be exactly half of the
        // f32 run's, with identical transfer counts.
        let run = |bf16: bool| {
            let mut pool = pool();
            pool.set_payload_bf16(bf16);
            pool.put(
                ChunkKey::new(0, BufKind::K, 0),
                Arc::new(Tensor::ones(&[16])),
            );
            pool.put(
                ChunkKey::new(0, BufKind::V, 0),
                Arc::new(Tensor::ones(&[16])),
            );
            fetch(&mut pool, &ChunkKey::new(0, BufKind::K, 0), true).unwrap();
            fetch(&mut pool, &ChunkKey::new(0, BufKind::V, 0), false).unwrap();
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
    fn bf16_mode_leaves_non_kv_chunks_f32() {
        let mut pool = pool();
        pool.set_payload_bf16(true);
        assert!(pool.payload_bf16);
        let key = ChunkKey::new(0, BufKind::Q, 0);
        let t = Arc::new(Tensor::ones(&[8]));
        pool.put(key, Arc::clone(&t));
        let got = fetch(&mut pool, &key, false).unwrap();
        assert_eq!(*got, *t, "non-KV kinds stay f32");
        assert_eq!(pool.stats().bytes, 32, "full f32 bytes for non-KV");
    }

    #[test]
    fn bf16_kv_values_round_once_through_bf16() {
        use fpdt_tensor::bf16::{bf16_to_f32, f32_to_bf16};
        let mut pool = pool();
        pool.set_payload_bf16(true);
        let key = ChunkKey::new(0, BufKind::K, 0);
        let vals: Vec<f32> = (0..7).map(|i| 0.1 + i as f32 * 0.013).collect();
        pool.put(key, Arc::new(Tensor::from_vec(vals.clone(), &[7]).unwrap()));
        assert_eq!(pool.stats().bytes, 14, "2 bytes per element");
        let back = fetch(&mut pool, &key, true).unwrap();
        assert_eq!(back.shape(), &[7]);
        for (got, &x) in back.data().iter().zip(&vals) {
            assert_eq!(
                *got,
                bf16_to_f32(f32_to_bf16(x)),
                "exactly one RNE rounding"
            );
        }
    }

    #[test]
    fn put_returns_what_a_fetch_returns() {
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // f32: the very Arc the caller put, with the values a fetch returns.
        let mut f32_pool = pool();
        let key = ChunkKey::new(0, BufKind::K, 0);
        let t = Arc::new(Tensor::arange(8));
        let stored = f32_pool.put(key, Arc::clone(&t));
        assert!(Arc::ptr_eq(&stored, &t), "f32 put hands back its input");
        assert_eq!(
            bits(&stored),
            bits(&fetch(&mut f32_pool, &key, true).unwrap())
        );
        // bf16 K/V: the rounded chunk, bit for bit what a fetch widens.
        // 1 + 2^-10 has no bf16 form (7 mantissa bits), so it must move.
        let mut bf16_pool = pool();
        bf16_pool.set_payload_bf16(true);
        let t = Arc::new(Tensor::from_vec(vec![1.0 + 1.0 / 1024.0, 0.5], &[2]).unwrap());
        for kind in [BufKind::K, BufKind::V] {
            let key = ChunkKey::new(0, kind, 0);
            let stored = bf16_pool.put(key, Arc::clone(&t));
            assert_eq!(
                bits(&stored),
                bits(&fetch(&mut bf16_pool, &key, true).unwrap()),
                "{kind:?}"
            );
            assert_ne!(bits(&stored), bits(&t), "{kind:?} was not rounded");
        }
        // bf16 Q/Lse stay f32, and so does every chunk with offload off.
        for key in [
            ChunkKey::new(0, BufKind::Q, 0),
            ChunkKey::new(0, BufKind::Lse, 0),
        ] {
            assert!(
                Arc::ptr_eq(&bf16_pool.put(key, Arc::clone(&t)), &t),
                "{key:?}"
            );
        }
        let mut device = OffloadEngine::for_rank(0, 0.0, false);
        device.set_payload_bf16(true);
        let key = ChunkKey::new(0, BufKind::K, 0);
        assert!(
            Arc::ptr_eq(&device.put(key, Arc::clone(&t)), &t),
            "offload off"
        );
    }

    #[test]
    #[should_panic(expected = "put twice")]
    fn double_put_is_a_bug() {
        let mut pool = pool();
        let key = ChunkKey::new(0, BufKind::K, 0);
        pool.put(key, Arc::new(Tensor::zeros(&[1])));
        pool.put(key, Arc::new(Tensor::zeros(&[1])));
    }

    #[test]
    fn device_resident_store_moves_arcs_and_records_nothing() {
        // Offload off, over a priced link with bf16 payloads on: a put is
        // an Arc move and a fetch hands the same Arc back — no rounding,
        // no counter, no span and no copy-track interval.
        let rec = Recorder::new();
        let mut eng = OffloadEngine::for_rank(0, 0.05, false);
        eng.set_payload_bf16(true);
        eng.set_recorder(rec.clone());
        let key = ChunkKey::new(0, BufKind::K, 0);
        let t = Arc::new(Tensor::ones(&[4096]));
        eng.put(key, Arc::clone(&t));
        assert!(
            Arc::ptr_eq(&fetch(&mut eng, &key, false).unwrap(), &t),
            "keep clones the Arc"
        );
        let batch = eng.prefetch_batch([(key, true)]).expect("resident").wait();
        assert!(Arc::ptr_eq(&batch[0], &t), "take moves the Arc out");
        assert!(eng.is_empty() && fetch(&mut eng, &key, true).is_none());
        eng.put(key, Arc::clone(&t));
        assert!(eng.discard(&key));
        assert_eq!(eng.stats(), PoolStats::default());
        assert!(
            rec.records().is_empty(),
            "no offload.* span or link interval"
        );
    }

    #[test]
    #[should_panic(expected = "prefetched twice")]
    fn double_prefetch_of_a_device_key_is_a_bug() {
        let mut eng = OffloadEngine::for_rank(0, 0.0, false);
        let key = ChunkKey::new(0, BufKind::V, 3);
        eng.put(key, Arc::new(Tensor::zeros(&[8])));
        let _first = eng.prefetch(&key, false).expect("resident");
        // still un-waited -> scheduler bug, whether or not the chunk moves
        let _second = eng.prefetch(&key, false);
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
        assert_eq!(*got, *t, "prefetch hands back the pooled values");
        assert!(eng.contains(&key), "keep-mode leaves the host copy");
        let h2 = eng.prefetch(&key, true).expect("resident");
        assert_eq!(*h2.wait(), *t);
        assert!(eng.is_empty());
        assert_eq!(eng.stats().fetches, 2);
    }

    #[test]
    fn priced_transfers_sit_on_their_direction_tracks_and_only_the_caller_waits() {
        // The copy runs on the caller's thread; the wire time is an
        // interval on the direction's own track, one per chunk, and the
        // caller records only the sleep of a wait.
        let rec = Recorder::new();
        let mut eng = OffloadEngine::for_rank(3, 0.05, true);
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
        let on = |label: &str, tid: u64| {
            spans
                .iter()
                .filter(|s| s.label == label && s.tid == tid)
                .count()
        };
        let (d2h, h2d) = (tid("offload.prefetch") - 1, tid("offload.prefetch"));
        assert_eq!(
            (on("offload.put", caller), on("offload.fetch", caller)),
            (4, 4),
            "copies"
        );
        assert_eq!(
            (on("offload.put", d2h), on("offload.prefetch", h2d)),
            (4, 4),
            "wire intervals"
        );
        assert_eq!(
            on("offload.wait", caller),
            4,
            "each fetch waited for its put and its own bytes"
        );
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
        let mut eng = OffloadEngine::for_rank(0, 0.05, true);
        let key = ChunkKey::new(0, BufKind::K, 0);
        let t0 = Instant::now();
        eng.put(key, Arc::new(Tensor::ones(&[16 * 1024])));
        eng.prefetch(&key, true).expect("just put").wait();
        assert!(
            t0.elapsed() >= 2 * wire,
            "{:?} < {:?}",
            t0.elapsed(),
            2 * wire
        );
    }

    #[test]
    fn free_link_transfers_are_copies_on_the_caller_and_never_waited() {
        let rec = Recorder::new();
        let mut eng = OffloadEngine::new(false);
        eng.set_recorder(rec.clone());
        let key = ChunkKey::new(0, BufKind::Q, 0);
        eng.put(key, Arc::new(Tensor::ones(&[8])));
        eng.prefetch(&key, true).expect("resident").wait();
        let tids: HashSet<u64> = rec.records().iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 1, "every span on the calling thread");
        assert_eq!(
            (rec.count("offload.put"), rec.count("offload.fetch")),
            (1, 1)
        );
        assert_eq!(rec.count("offload.prefetch") + rec.count("offload.wait"), 0);
    }

    #[test]
    fn batch_is_one_wait_with_per_chunk_counters_and_spans() {
        let rec = Recorder::new();
        let mut eng = OffloadEngine::for_rank(0, 100.0, true);
        eng.set_recorder(rec.clone());
        let keys: [ChunkKey; 3] = std::array::from_fn(|i| ChunkKey::new(0, BufKind::K, i));
        for (i, key) in keys.iter().enumerate() {
            eng.put(*key, Arc::new(Tensor::ones(&[8 * (i + 1)])));
        }
        let missing = ChunkKey::new(9, BufKind::K, 0);
        assert!(eng
            .prefetch_batch([(keys[0], true), (missing, true)])
            .is_none());
        assert_eq!(eng.stats().fetches, 0, "a failed batch has no side effect");
        let got = eng
            .prefetch_batch(keys.map(|k| (k, true)))
            .expect("all resident")
            .wait();
        assert_eq!(
            got.iter().map(|t| t.numel()).collect::<Vec<_>>(),
            vec![8, 16, 24]
        );
        assert_eq!(eng.stats().fetches, 3);
        assert_eq!(eng.stats().bytes_fetched, 4 * 48);
        assert_eq!(rec.count("offload.prefetch"), 3, "one span per transfer");
        assert_eq!(rec.total_bytes("offload.prefetch"), 4 * 48);
        assert!(
            rec.count("offload.wait") <= 1,
            "at most one wait for the lot"
        );
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
        let mut eng = OffloadEngine::for_rank(0, gbps, true);
        eng.set_payload_bf16(bf16);
        for i in 0..4usize {
            eng.put(
                ChunkKey::new(0, BufKind::K, i),
                Arc::new(Tensor::ones(&[16])),
            );
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
