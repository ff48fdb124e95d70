//! Collective operations built on the tagged point-to-point layer.
//!
//! All collectives are SPMD: every rank of the group must call the same
//! operation with compatible arguments. Sends are buffered (channels are
//! unbounded), so each collective can post all its sends before draining
//! receives — no deadlock, no ordering games.
//!
//! Every collective starts with a
//! [`fault_check`](crate::Communicator::inject_fault) — an armed transient
//! fault surfaces as [`CommError::Transient`] *before* any message leaves
//! the rank, so replaying the whole collective (see
//! [`Communicator::retrying`]) is idempotent.

use crate::group::{Communicator, Payload};
use crate::{CommError, Result};
use fpdt_tensor::Tensor;
use std::time::Instant;

impl Communicator {
    /// All-to-all: rank `r` sends `parts[p]` to rank `p` and returns the
    /// pieces received from every rank, in rank order. `parts[r]` never
    /// leaves the rank: it comes back as piece `r` unsent.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::WrongPartCount`] unless `parts.len() == world`.
    pub fn all_to_all(&self, parts: Vec<Vec<f32>>) -> Result<Vec<Vec<f32>>> {
        self.fault_check("all_to_all")?;
        let own = self.send_parts(parts, false, None)?;
        Ok(self.recv_parts(own)?.0)
    }

    /// The send half of an all-to-all, after its fault check: `parts[p]`
    /// to every peer `p`, each message stamped `ready_at`, and `parts[rank]`
    /// handed back unsent — the own part is not a message. Sends never
    /// block.
    pub(crate) fn send_parts(&self, mut parts: Vec<Vec<f32>>, bf16: bool, ready_at: Option<Instant>) -> Result<Vec<f32>> {
        if parts.len() != self.world() {
            return Err(CommError::WrongPartCount {
                op: "all_to_all",
                expected: self.world(),
                actual: parts.len(),
            });
        }
        let own = std::mem::take(&mut parts[self.rank()]);
        for (peer, part) in parts.into_iter().enumerate() {
            if peer == self.rank() {
                continue;
            }
            let data = if bf16 {
                Payload::Bf16(fpdt_tensor::bf16::encode_slice(&part))
            } else {
                Payload::F32(part)
            };
            self.send_payload("all_to_all", peer, data, ready_at)?;
        }
        Ok(own)
    }

    /// The receive half of an all-to-all: one part from every peer, with
    /// `own` put back at this rank's index, and the latest link stamp
    /// among the peers'.
    pub(crate) fn recv_parts(&self, mut own: Vec<f32>) -> Result<(Vec<Vec<f32>>, Option<Instant>)> {
        let mut latest = None;
        let mut parts = Vec::with_capacity(self.world());
        for peer in 0..self.world() {
            if peer == self.rank() {
                parts.push(std::mem::take(&mut own));
                continue;
            }
            let (part, stamp) = self.recv_stamped("all_to_all", peer)?;
            latest = latest.max(stamp);
            parts.push(part);
        }
        Ok((parts, latest))
    }

    /// All-gather: every rank contributes one buffer and receives all
    /// buffers in rank order. The own buffer is copied in place, not sent.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::PeerDisconnected`] when a peer died and
    /// [`CommError::Desync`] when it diverged mid-collective — the same
    /// uniform `Result` surface as every other collective.
    pub fn all_gather(&self, data: &[f32]) -> Result<Vec<Vec<f32>>> {
        let mut pieces = self.gather_peers(data)?;
        pieces[self.rank()] = data.to_vec();
        Ok(pieces)
    }

    /// The all-gather's traffic: `data` to every peer and every peer's
    /// buffer back, in rank order, with an empty slot at this rank's index.
    fn gather_peers(&self, data: &[f32]) -> Result<Vec<Vec<f32>>> {
        self.fault_check("all_gather")?;
        for peer in (0..self.world()).filter(|&p| p != self.rank()) {
            self.send("all_gather", peer, data.to_vec())?;
        }
        (0..self.world())
            .map(|peer| if peer == self.rank() { Ok(Vec::new()) } else { self.recv("all_gather", peer) })
            .collect()
    }

    /// All-reduce (sum): every rank returns the identical rank-ordered sum
    /// of all contributions.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::LengthMismatch`] when contributions disagree in
    /// length.
    pub fn all_reduce(&self, data: &[f32]) -> Result<Vec<f32>> {
        let mut acc = data.to_vec();
        self.all_reduce_in_place(&mut acc)?;
        Ok(acc)
    }

    /// [`Communicator::all_reduce`] that overwrites `data` with the sum:
    /// zero, then every rank's contribution added in ascending rank order.
    /// `data` is untouched when the call fails, so a failed attempt can be
    /// replayed on the same buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::LengthMismatch`] when contributions disagree in
    /// length.
    pub fn all_reduce_in_place(&self, data: &mut [f32]) -> Result<()> {
        let mut pieces = self.gather_peers(data)?;
        let rank = self.rank();
        let mut peers = pieces.iter().enumerate().filter(|&(peer, _)| peer != rank);
        if let Some((_, piece)) = peers.find(|(_, p)| p.len() != data.len()) {
            return Err(CommError::LengthMismatch {
                op: "all_reduce",
                expected: data.len(),
                actual: piece.len(),
            });
        }
        // `0 + x_0 + x_1 + ...` in rank order, with the own contribution
        // read from `data` at its place: the ranks below this one fold into
        // the first of their pieces, which then joins `data` (`x + y` and
        // `y + x` are the same f32).
        let (below, above) = pieces.split_at_mut(rank);
        match below.split_first_mut() {
            None => data.iter_mut().for_each(|a| *a += 0.0),
            Some((acc, rest)) => {
                acc.iter_mut().for_each(|a| *a += 0.0);
                for piece in rest.iter() {
                    add_into(acc, piece);
                }
                add_into(data, acc);
            }
        }
        for piece in &above[1..] {
            add_into(data, piece);
        }
        Ok(())
    }

    /// Chunked (bucketed) all-reduce: reduces `data` in buckets of at most
    /// `bucket` elements, so the transient staging never exceeds two
    /// buckets — the fix for the gradient-reduction memory spike the FPDT
    /// paper's Future Work section identifies. Numerically identical to
    /// [`Communicator::all_reduce`] (same rank-ordered summation per
    /// element).
    ///
    /// # Errors
    ///
    /// Returns [`CommError::LengthMismatch`] when contributions disagree
    /// in length, and propagates disconnections.
    pub fn all_reduce_chunked(&self, data: &[f32], bucket: usize) -> Result<Vec<f32>> {
        let mut out = data.to_vec();
        for piece in out.chunks_mut(bucket.max(1)) {
            self.all_reduce_in_place(piece)?;
        }
        Ok(out)
    }

    /// One step of a ring exchange: sends `data` to `(rank + 1) % world`
    /// and returns the buffer received from `(rank - 1) % world` — the
    /// primitive Ring Attention rotates KV blocks with. A one-rank ring is
    /// its own neighbour: `data` comes back without a message.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::PeerDisconnected`] if a neighbor died.
    pub fn ring_exchange(&self, data: Vec<f32>) -> Result<Vec<f32>> {
        self.fault_check("ring_exchange")?;
        if self.world() == 1 {
            return Ok(data);
        }
        let next = (self.rank() + 1) % self.world();
        let prev = (self.rank() + self.world() - 1) % self.world();
        self.send("ring_exchange", next, data)?;
        self.recv("ring_exchange", prev)
    }
}

/// Which way a Ulysses all-to-all reshapes the tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum A2aDirection {
    /// `[s_local, h, d]` -> `[s_local * p, h / p, d]`.
    HeadsToSeq,
    /// `[s_global, h_local, d]` -> `[s_global / p, h_local * p, d]`.
    SeqToHeads,
}

/// Precomputed geometry for the Ulysses-style tensor all-to-all: scatter
/// heads / gather sequence (and the inverse) — the communication pattern
/// of paper Figure 2, applied per FPDT chunk.
///
/// Building a layout derives every per-rank slice bound once from the
/// `(shape, world)` pair; [`AllToAllLayout::apply`] then moves payloads
/// with flat strided copies. Building one is a few integer products, so
/// the runtime's executor builds a fresh layout for every tensor it posts
/// on the split-phase stream ([`crate::CommEngine::post`]), which packs
/// and unpacks through the same geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllToAllLayout {
    dir: A2aDirection,
    world: usize,
    in_shape: [usize; 3],
    out_shape: [usize; 3],
    /// Elements in each per-peer payload (identical for all peers).
    part_elems: usize,
}

impl AllToAllLayout {
    /// Layout for the forward Ulysses all-to-all: each rank holds
    /// `[s_local, h, d]` (full heads, local sequence) and receives
    /// `[s_local * world, h / world, d]` (full sequence, local heads).
    ///
    /// Rank `r` keeps head group `r`. Received sequence pieces concatenate
    /// in rank order, so the output rows are `rank 0`'s tokens first — the
    /// ordering FPDT's rank-ordinal shuffle is designed around.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::Shape`] unless the shape is 3-D with `h`
    /// divisible by `world`.
    pub fn scatter_heads(shape: &[usize], world: usize) -> Result<Self> {
        let [s_local, h, d] = check_3d("ulysses_all_to_all", shape)?;
        if h % world != 0 {
            return Err(CommError::Shape {
                op: "ulysses_all_to_all",
                what: format!("{h} heads not divisible by {world} ranks"),
            });
        }
        Ok(AllToAllLayout {
            dir: A2aDirection::HeadsToSeq,
            world,
            in_shape: [s_local, h, d],
            out_shape: [s_local * world, h / world, d],
            part_elems: s_local * (h / world) * d,
        })
    }

    /// Layout for the inverse Ulysses all-to-all: each rank holds
    /// `[s_global, h_local, d]` and gets back
    /// `[s_global / world, h_local * world, d]`.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::Shape`] unless the shape is 3-D with
    /// `s_global` divisible by `world`.
    pub fn scatter_seq(shape: &[usize], world: usize) -> Result<Self> {
        let [s_global, h_local, d] = check_3d("ulysses_all_to_all_inv", shape)?;
        if s_global % world != 0 {
            return Err(CommError::Shape {
                op: "ulysses_all_to_all_inv",
                what: format!("sequence {s_global} not divisible by {world} ranks"),
            });
        }
        Ok(AllToAllLayout {
            dir: A2aDirection::SeqToHeads,
            world,
            in_shape: [s_global, h_local, d],
            out_shape: [s_global / world, h_local * world, d],
            part_elems: (s_global / world) * h_local * d,
        })
    }

    /// The input shape this layout was built for.
    pub fn in_shape(&self) -> [usize; 3] {
        self.in_shape
    }

    /// The shape [`AllToAllLayout::apply`] returns.
    pub fn out_shape(&self) -> [usize; 3] {
        self.out_shape
    }

    /// Runs the all-to-all over `x` using the precomputed geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::Shape`] when `x` or the group does not match
    /// the layout, or a communication error if the group is unhealthy.
    pub fn apply(&self, comm: &Communicator, x: &Tensor) -> Result<Tensor> {
        let bufs = self.pack(comm.world(), x)?;
        self.unpack(comm.all_to_all(bufs)?)
    }

    /// The send side of [`AllToAllLayout::apply`] in a group of `world`
    /// ranks: one flat payload per peer.
    pub(crate) fn pack(&self, world: usize, x: &Tensor) -> Result<Vec<Vec<f32>>> {
        if x.shape() != self.in_shape || world != self.world {
            return Err(CommError::Shape {
                op: "ulysses_all_to_all",
                what: format!(
                    "layout built for {:?} on {} ranks, applied to {:?} on {}",
                    self.in_shape,
                    self.world,
                    x.shape(),
                    world
                ),
            });
        }
        let p = self.world;
        let src = x.data();
        Ok(match self.dir {
            A2aDirection::HeadsToSeq => {
                // Peer j takes head rows [j*h/p, (j+1)*h/p) of every token.
                let [s, h, d] = self.in_shape;
                let (row, part_row) = (h * d, (h / p) * d);
                (0..p)
                    .map(|j| {
                        let mut buf = Vec::with_capacity(self.part_elems);
                        for r in 0..s {
                            let at = r * row + j * part_row;
                            buf.extend_from_slice(&src[at..at + part_row]);
                        }
                        buf
                    })
                    .collect()
            }
            // Peer j takes the contiguous token block [j*s/p, (j+1)*s/p).
            A2aDirection::SeqToHeads => src
                .chunks(self.part_elems)
                .map(<[f32]>::to_vec)
                .collect(),
        })
    }

    /// The receive side of [`AllToAllLayout::apply`]: the rank-ordered
    /// pieces, unpacked into the output layout.
    pub(crate) fn unpack(&self, recv: Vec<Vec<f32>>) -> Result<Tensor> {
        let p = self.world;
        let mut out = Vec::with_capacity(self.part_elems * p);
        match self.dir {
            // Pieces are [s, h/p, d] token blocks; stack along sequence.
            A2aDirection::HeadsToSeq => {
                for piece in &recv {
                    out.extend_from_slice(piece);
                }
            }
            // Pieces are [s/p, h_local, d]; interleave along heads.
            A2aDirection::SeqToHeads => {
                let [s_global, h_local, d] = self.in_shape;
                let part_row = h_local * d;
                for r in 0..s_global / p {
                    for piece in &recv {
                        let at = r * part_row;
                        out.extend_from_slice(&piece[at..at + part_row]);
                    }
                }
            }
        }
        Tensor::from_vec(out, &self.out_shape).map_err(|e| CommError::Shape {
            op: "ulysses_all_to_all",
            what: e.to_string(),
        })
    }
}

/// `acc[i] += piece[i]` for every element.
fn add_into(acc: &mut [f32], piece: &[f32]) {
    for (a, b) in acc.iter_mut().zip(piece) {
        *a += b;
    }
}

fn check_3d(op: &'static str, shape: &[usize]) -> Result<[usize; 3]> {
    match shape {
        &[a, b, c] => Ok([a, b, c]),
        _ => Err(CommError::Shape {
            op,
            what: format!("expected a 3-D tensor, got {} dims", shape.len()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_group;
    use fpdt_tensor::init;

    #[test]
    fn all_to_all_transposes_rank_data() {
        let out = run_group(3, |comm| {
            let r = comm.rank() as f32;
            // rank r sends value 10*r + dst to dst
            let parts: Vec<Vec<f32>> = (0..3).map(|dst| vec![10.0 * r + dst as f32]).collect();
            comm.all_to_all(parts).unwrap()
        });
        // rank 1 receives from src s: 10*s + 1
        assert_eq!(out[1], vec![vec![1.0], vec![11.0], vec![21.0]]);
    }

    #[test]
    fn all_gather_rank_order() {
        let out = run_group(4, |comm| {
            comm.all_gather(&[comm.rank() as f32 * 2.0]).unwrap()
        });
        for ranks in out {
            assert_eq!(ranks, vec![vec![0.0], vec![2.0], vec![4.0], vec![6.0]]);
        }
    }

    #[test]
    fn all_reduce_is_identical_everywhere() {
        let out = run_group(4, |comm| {
            comm.all_reduce(&[comm.rank() as f32, 1.0]).unwrap()
        });
        for ranks in out {
            assert_eq!(ranks, vec![6.0, 4.0]);
        }
    }

    #[test]
    fn all_reduce_deterministic_ordering() {
        // Floating-point summation order is fixed (rank order), so repeated
        // runs produce bitwise-identical results.
        let run = || {
            run_group(4, |comm| {
                let x = [0.1f32 * (comm.rank() as f32 + 1.0), 1e-8];
                comm.all_reduce(&x).unwrap()
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn all_reduce_sums_from_zero_in_rank_order_with_the_own_part_in_place() {
        // Contributions whose sum depends on the order it is taken in: each
        // rank's result must be `0 + x_0 + x_1 + ...` in rank order, bit for
        // bit, wherever its own contribution sits.
        let x = |rank: usize| -> Vec<f32> {
            [1e8, 1.0, -1e8, 0.3, -0.0]
                .iter()
                .map(|v| v * (1.0 + rank as f32 * 0.37) + rank as f32 * 0.1)
                .collect()
        };
        for world in [1usize, 2, 3, 4] {
            let want: Vec<u32> = (0..5)
                .map(|i| (0..world).fold(0.0f32, |acc, r| acc + x(r)[i]).to_bits())
                .collect();
            let got = run_group(world, |comm| {
                let mut buf = x(comm.rank());
                comm.all_reduce_in_place(&mut buf).unwrap();
                buf.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            });
            for (rank, bits) in got.into_iter().enumerate() {
                assert_eq!(bits, want, "world {world}, rank {rank}");
            }
        }
    }

    #[test]
    fn ring_exchange_rotates() {
        let out = run_group(4, |comm| {
            comm.ring_exchange(vec![comm.rank() as f32]).unwrap()
        });
        // rank r receives from rank r-1
        assert_eq!(out, vec![vec![3.0], vec![0.0], vec![1.0], vec![2.0]]);
    }

    #[test]
    fn a_solo_ring_exchange_returns_the_buffer_and_sends_nothing() {
        let (out, stats) = run_group(1, |comm| {
            let out = comm.ring_exchange(vec![1.0, 2.0]).unwrap();
            (out, comm.stats())
        })
        .remove(0);
        assert_eq!(out, [1.0, 2.0]);
        assert!(stats.ops.is_empty(), "{stats:?}");
        // the fault check still runs first
        let failed = run_group(1, |comm| {
            comm.inject_fault("ring_exchange", 1);
            let failed = comm.ring_exchange(vec![1.0]).is_err();
            (failed, comm.stats().faults)
        });
        assert_eq!(failed, [(true, 1)]);
    }

    #[test]
    fn ulysses_head_assignment() {
        // After the forward all-to-all, rank r must hold head group r of
        // every rank's tokens, with rank 0's tokens first.
        let out = run_group(2, |comm| {
            let r = comm.rank() as f32;
            // token value encodes (rank, head): 100*rank + head
            let mut x = Tensor::zeros(&[1, 4, 1]);
            for head in 0..4 {
                x.data_mut()[head] = 100.0 * r + head as f32;
            }
            let layout = AllToAllLayout::scatter_heads(x.shape(), comm.world()).unwrap();
            layout.apply(&comm, &x).unwrap()
        });
        // rank 0: heads {0,1} of rank0 then rank1 tokens
        assert_eq!(out[0].data(), &[0.0, 1.0, 100.0, 101.0]);
        // rank 1: heads {2,3}
        assert_eq!(out[1].data(), &[2.0, 3.0, 102.0, 103.0]);
    }

    #[test]
    fn layout_built_once_is_reused_across_chunks() {
        // One layout per (shape, world), applied to every chunk: forward
        // then inverse reproduces each chunk, and a tensor the layout was
        // not built for is rejected.
        let out = run_group(2, |comm| {
            let fwd = AllToAllLayout::scatter_heads(&[2, 4, 3], comm.world()).unwrap();
            assert_eq!(fwd.in_shape(), [2, 4, 3]);
            assert_eq!(fwd.out_shape(), [4, 2, 3]);
            let inv = AllToAllLayout::scatter_seq(&[4, 2, 3], comm.world()).unwrap();
            let mut rng = init::seeded_rng(7 + comm.rank() as u64);
            let mut chunks = Vec::new();
            for _ in 0..3 {
                let x = init::randn(&mut rng, &[2, 4, 3], 1.0);
                let gathered = fwd.apply(&comm, &x).unwrap();
                let back = inv.apply(&comm, &gathered).unwrap();
                chunks.push((x, back));
            }
            // A mismatched tensor must be rejected before any traffic.
            assert!(fwd.apply(&comm, &Tensor::zeros(&[4, 4, 3])).is_err());
            chunks
        });
        for rank in out {
            for (orig, back) in rank {
                assert!(back.allclose(&orig, 1e-6, 1e-7));
            }
        }
    }

    #[test]
    fn collective_errors() {
        run_group(2, |comm| {
            assert!(matches!(
                comm.all_to_all(vec![vec![]]),
                Err(CommError::WrongPartCount { .. })
            ));
        });
    }

    #[test]
    fn chunked_all_reduce_equals_monolithic() {
        let out = run_group(4, |comm| {
            let data: Vec<f32> = (0..37)
                .map(|i| (comm.rank() * 100 + i) as f32 * 0.25)
                .collect();
            let whole = comm.all_reduce(&data).unwrap();
            let chunked = comm.all_reduce_chunked(&data, 10).unwrap();
            (whole, chunked)
        });
        for (whole, chunked) in out {
            assert_eq!(whole, chunked, "bitwise identical");
        }
    }

    #[test]
    fn in_place_all_reduce_is_all_reduce_and_replays_after_a_fault() {
        let out = run_group(3, |comm| {
            // a -0.0 everywhere: summed from +0.0 it comes back +0.0
            let data: Vec<f32> = (0..11)
                .map(|i| (comm.rank() * 7 * i.min(1) + i) as f32 * -0.3)
                .collect();
            let want = comm.all_reduce(&data).unwrap();
            let mut buf = data.clone();
            comm.inject_fault("all_gather", 1);
            assert!(comm.all_reduce_in_place(&mut buf).is_err());
            assert_eq!(buf, data, "a failed attempt leaves the buffer alone");
            comm.all_reduce_in_place(&mut buf).unwrap();
            (want, buf)
        });
        for (want, got) in out {
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&want), bits(&got));
            assert_eq!(got[0].to_bits(), 0.0f32.to_bits());
        }
    }

    #[test]
    fn chunked_all_reduce_edge_buckets() {
        run_group(2, |comm| {
            let data = vec![1.0f32; 5];
            // bucket >= len, bucket == 1, bucket == 0 (clamped)
            for b in [16usize, 1, 0] {
                let r = comm.all_reduce_chunked(&data, b).unwrap();
                assert_eq!(r, vec![2.0; 5], "bucket {b}");
            }
        });
    }
}
