//! Sequence chunking and the rank-ordinal shuffle of paper Figure 6.
//!
//! The global sequence is cut into `world * chunks` equal *segments*. The
//! data loader hands rank `r` the segments `{ i*world + r : i in
//! 0..chunks }`, concatenated in `i`-order, as its local sequence. When
//! the per-chunk all-to-all later gathers chunk `i` from every rank (in
//! rank order), the gathered chunk is exactly the contiguous global range
//! `[i * world * seg, (i+1) * world * seg)` — so the diagonal causal mask
//! stays valid and NVLink stays load-balanced, with zero runtime cost
//! (the shuffle happens in the loader, labels included).

use fpdt_tensor::TensorError;
use std::collections::VecDeque;

/// A validated chunking of a global sequence across ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Number of sequence-parallel ranks.
    pub world: usize,
    /// Number of pipeline chunks per rank.
    pub chunks: usize,
    /// Global sequence length in tokens.
    pub seq_global: usize,
}

impl ChunkPlan {
    /// Builds a plan; the global length must divide evenly into
    /// `world * chunks` segments.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidSlice`] when divisibility fails or a
    /// count is zero.
    pub fn new(seq_global: usize, world: usize, chunks: usize) -> Result<Self, TensorError> {
        if world == 0 || chunks == 0 || seq_global == 0 {
            return Err(TensorError::InvalidSlice {
                what: "chunk plan dimensions must be positive".into(),
            });
        }
        if !seq_global.is_multiple_of(world * chunks) {
            return Err(TensorError::InvalidSlice {
                what: format!(
                    "sequence {seq_global} not divisible into {world} ranks x {chunks} chunks"
                ),
            });
        }
        Ok(ChunkPlan {
            world,
            chunks,
            seq_global,
        })
    }

    /// Tokens per segment (the unit the loader shuffles).
    pub fn segment_len(&self) -> usize {
        self.seq_global / (self.world * self.chunks)
    }

    /// Tokens held by each rank.
    pub fn local_len(&self) -> usize {
        self.seq_global / self.world
    }

    /// Tokens per local chunk (= segment length).
    pub fn chunk_local_len(&self) -> usize {
        self.segment_len()
    }

    /// Tokens per *gathered* chunk (after the all-to-all).
    pub fn chunk_global_len(&self) -> usize {
        self.seq_global / self.chunks
    }

    /// Global positions of rank `r`'s local sequence, in local order:
    /// segment `i*world + r` for `i in 0..chunks`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= world`.
    pub fn local_positions(&self, rank: usize) -> Vec<usize> {
        assert!(rank < self.world, "rank {rank} out of {}", self.world);
        let seg = self.segment_len();
        (0..self.chunks)
            .flat_map(|i| {
                let s = (i * self.world + rank) * seg;
                s..s + seg
            })
            .collect()
    }

    /// Global positions of gathered chunk `i` (rank-order concatenation):
    /// the contiguous range `[i * world * seg, (i+1) * world * seg)`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk >= chunks`.
    pub fn gathered_positions(&self, chunk: usize) -> Vec<usize> {
        assert!(chunk < self.chunks, "chunk {chunk} out of {}", self.chunks);
        let len = self.chunk_global_len();
        (chunk * len..(chunk + 1) * len).collect()
    }

    /// Applies the data-loader shuffle: extracts rank `r`'s local slice of
    /// a global per-token array (token ids, labels, loss masks...).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != seq_global` or `rank >= world`.
    pub fn shard<T: Clone>(&self, rank: usize, data: &[T]) -> Vec<T> {
        assert_eq!(data.len(), self.seq_global, "data length mismatch");
        self.local_positions(rank)
            .into_iter()
            .map(|p| data[p].clone())
            .collect()
    }

    /// Inverse of [`ChunkPlan::shard`]: reassembles a global array from
    /// every rank's local array (rank order).
    ///
    /// # Panics
    ///
    /// Panics if the number of locals or any local length is wrong.
    pub fn unshard<T: Clone + Default>(&self, locals: &[Vec<T>]) -> Vec<T> {
        assert_eq!(locals.len(), self.world, "need one local slice per rank");
        let mut out = vec![T::default(); self.seq_global];
        for (rank, local) in locals.iter().enumerate() {
            assert_eq!(local.len(), self.local_len(), "rank {rank} local length");
            for (j, pos) in self.local_positions(rank).into_iter().enumerate() {
                out[pos] = local[j].clone();
            }
        }
        out
    }

    /// The range of local token indices belonging to local chunk `i`.
    pub fn local_chunk_range(&self, chunk: usize) -> std::ops::Range<usize> {
        let len = self.chunk_local_len();
        chunk * len..(chunk + 1) * len
    }
}

/// The runtime's backward tile order: the causal tile triangle
/// `{(i, j) : j <= i < u}` (query chunk `i`, KV chunk `j`) cut into `u`
/// near-equal pipeline slots (sizes differ by at most one tile). The
/// executor walks it — this is the one description of the order.
///
/// Tiles are queued column-major — KV chunk `j`'s column `(j..u, j)`
/// opens at slot `j`, diagonal first — and each slot `s` takes
/// `ceil(remaining / (u - s))` tiles from the queue front. Because
/// columns are appended in order and the queue is FIFO, the flattened
/// schedule preserves both accumulation orders the kernels rely on: for
/// fixed `i` tiles run in ascending `j`, for fixed `j` in ascending `i`.
pub fn tile_slots(u: usize) -> Vec<Vec<(usize, usize)>> {
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    let mut slots: Vec<Vec<(usize, usize)>> = Vec::with_capacity(u);
    let mut remaining = u * (u + 1) / 2;
    for s in 0..u {
        for i in s..u {
            queue.push_back((i, s));
        }
        let quota = if s + 1 == u {
            queue.len()
        } else {
            remaining.div_ceil(u - s).min(queue.len())
        };
        let slot: Vec<(usize, usize)> = queue.drain(..quota).collect();
        remaining -= slot.len();
        slots.push(slot);
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_slots_cover_the_triangle_in_accumulation_order() {
        for u in 1..=8usize {
            let slots = tile_slots(u);
            assert_eq!(slots.len(), u, "one slot per chunk (u={u})");
            let sizes: Vec<usize> = slots.iter().map(Vec::len).collect();
            let min = sizes.iter().copied().min().unwrap();
            let max = sizes.iter().copied().max().unwrap();
            assert!(
                min >= 1 && max - min <= 1,
                "near-equal slot sizes (u={u}): {sizes:?}"
            );
            let flat: Vec<(usize, usize)> = slots.into_iter().flatten().collect();
            assert_eq!(flat.len(), u * (u + 1) / 2, "every tile scheduled (u={u})");
            let mut seen = std::collections::HashSet::new();
            // Row i must sweep KV ascending from 0; column j must sweep
            // queries ascending from its diagonal j.
            let mut next_j = vec![0usize; u];
            let mut next_i: Vec<usize> = (0..u).collect();
            for (i, j) in flat {
                assert!(j <= i && i < u, "causal tile ({i},{j})");
                assert!(seen.insert((i, j)), "tile ({i},{j}) duplicated");
                assert_eq!(j, next_j[i], "row {i} sweeps KV in ascending order");
                assert_eq!(i, next_i[j], "column {j} sweeps queries in ascending order");
                next_j[i] += 1;
                next_i[j] += 1;
            }
        }
    }

    #[test]
    fn construction_validates() {
        assert!(ChunkPlan::new(16, 2, 2).is_ok());
        assert!(ChunkPlan::new(15, 2, 2).is_err());
        assert!(ChunkPlan::new(0, 2, 2).is_err());
        assert!(ChunkPlan::new(16, 0, 2).is_err());
        assert!(ChunkPlan::new(16, 2, 0).is_err());
    }

    #[test]
    fn figure6_layout_p4_u4() {
        // Paper Figure 6: 4 GPUs, 4 chunks, 16 segments T_0..T_15.
        // GPU r's chunk i must be segment T_{i*4+r}; gathering chunk 1
        // yields T_4, T_5, T_6, T_7 — contiguous in causality.
        let plan = ChunkPlan::new(16, 4, 4).unwrap();
        assert_eq!(plan.segment_len(), 1);
        // GPU 1 holds T_1, T_5, T_9, T_13
        assert_eq!(plan.local_positions(1), vec![1, 5, 9, 13]);
        // gathered chunk 1 = positions 4..8
        assert_eq!(plan.gathered_positions(1), vec![4, 5, 6, 7]);
    }

    #[test]
    fn gathered_chunks_are_contiguous_and_ordered() {
        let plan = ChunkPlan::new(96, 4, 3).unwrap();
        let mut last_end = 0;
        for c in 0..plan.chunks {
            let pos = plan.gathered_positions(c);
            assert_eq!(pos[0], last_end, "chunk {c} starts where previous ended");
            assert!(pos.windows(2).all(|w| w[1] == w[0] + 1));
            last_end = *pos.last().unwrap() + 1;
        }
        assert_eq!(last_end, 96);
    }

    #[test]
    fn gather_in_rank_order_reconstructs_gathered_positions() {
        // Concatenating every rank's chunk-i positions in rank order must
        // equal the gathered chunk's contiguous range — the invariant the
        // all-to-all relies on.
        let plan = ChunkPlan::new(48, 4, 3).unwrap();
        for c in 0..plan.chunks {
            let mut stitched = Vec::new();
            for r in 0..plan.world {
                let local = plan.local_positions(r);
                stitched.extend_from_slice(&local[plan.local_chunk_range(c)]);
            }
            assert_eq!(stitched, plan.gathered_positions(c), "chunk {c}");
        }
    }

    #[test]
    fn shard_unshard_round_trip() {
        let plan = ChunkPlan::new(24, 3, 2).unwrap();
        let data: Vec<u32> = (0..24).collect();
        let locals: Vec<Vec<u32>> = (0..3).map(|r| plan.shard(r, &data)).collect();
        // every token appears exactly once across ranks
        let mut all: Vec<u32> = locals.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, data);
        assert_eq!(plan.unshard(&locals), data);
    }

    #[test]
    fn labels_shuffle_identically_to_tokens() {
        // The loss matches because labels ride the same permutation.
        let plan = ChunkPlan::new(16, 2, 4).unwrap();
        let tokens: Vec<usize> = (100..116).collect();
        let labels: Vec<usize> = (101..117).collect(); // shifted by one, globally
        for r in 0..2 {
            let t = plan.shard(r, &tokens);
            let l = plan.shard(r, &labels);
            for (a, b) in t.iter().zip(&l) {
                assert_eq!(*b, *a + 1, "label stays next-token after shuffle");
            }
        }
    }

    #[test]
    fn sizes_are_consistent() {
        let plan = ChunkPlan::new(1 << 20, 8, 16).unwrap();
        assert_eq!(plan.local_len(), 1 << 17);
        assert_eq!(plan.chunk_local_len() * plan.chunks, plan.local_len());
        assert_eq!(plan.chunk_global_len() * plan.chunks, plan.seq_global);
        assert_eq!(plan.chunk_local_len() * plan.world, plan.chunk_global_len());
    }

    #[test]
    #[should_panic(expected = "rank 5 out of 2")]
    fn rank_bounds_checked() {
        ChunkPlan::new(16, 2, 4).unwrap().local_positions(5);
    }
}
