//! The per-rank communication stream: split-phase all-to-alls over one
//! simulated NIC link.
//!
//! A [`CommEngine`] runs every op in two halves on the rank thread.
//! [`CommEngine::post`] is the send half — the pack, the fault check and
//! one send per peer — and never blocks: the peer channels are unbounded.
//! [`CommEngine::wait`] is the receive half: the receives and the unpack. The
//! executor posts chunk `i+1`'s QKV all-to-all before chunk `i`'s
//! online-softmax update runs and waits where the gathered tensor is first
//! needed, so the wire time hides behind compute (paper §4, Figure 7).
//!
//! The link is a clock, not a thread ([`Link`]). A post stamps its op
//! `ready_at = max(now, link_free_at) + bytes / gbps`, and every message it
//! sends carries the stamp. A wait sleeps until the later of its own and
//! its peers' stamps, so a peer whose link is busy delays this rank as it
//! would have delayed a worker blocked on the wire: the clock is never
//! cheaper than a worker holding the link. A free link stamps nothing.
//!
//! * **FIFO = program order.** Posts are SPMD-identical on every rank, so
//!   collectives hit the wire in the order the ranks issued them: tag
//!   matching, byte accounting and [`CommStats`](crate::CommStats) do not
//!   depend on when a handle is waited.
//! * **Receives drain in post order.** Each receive half queues at its
//!   post; a wait runs the queue front to back until its own has run,
//!   keeping earlier results for their handles. Handles may be waited in
//!   any order (the backward resolves `dq` before `dk`/`dv`), and the next
//!   wait drains a handle dropped unwaited. The executor waits every
//!   handle before it returns, so the rank thread's own collectives
//!   (`all_reduce`) find no all-to-all part to misread.
//! * **Only what leaves the rank crosses the wire.** The slice a rank
//!   packs for itself stays in its op's receive-queue entry and goes back
//!   at index `rank` when the wait unpacks: it is not sent, not
//!   bf16-encoded, not tallied in [`CommStats`](crate::CommStats) and not
//!   charged to the link. A post at world `p` charges `(p - 1) / p` of its
//!   packed bytes (DeepSpeed Ulysses puts only the peers' slices on the
//!   NIC); a world-1 post charges nothing and sends nothing.
//! * **Retries stay idempotent.** A transient fault fires in the post
//!   half, before the first send, and is replayed there; a wait never
//!   replays.

use crate::collectives::AllToAllLayout;
use crate::group::Communicator;
use crate::CommError;
use fpdt_tensor::Tensor;
use fpdt_trace::wire::{sleep_until, Link};
use fpdt_trace::Recorder;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// One posted tensor's layout and the part of it this rank kept for
/// itself: the wait puts it back at index `rank` when it unpacks.
type Kept = (AllToAllLayout, Vec<f32>);

/// The per-rank communication stream: ops post on the rank thread and
/// resolve through [`Pending`] handles, over a link of the bandwidth the
/// engine was built with.
pub struct CommEngine {
    comm: Arc<Communicator>,
    link: Link,
    /// The trace track the link's busy intervals go on.
    track: String,
    /// Receive halves posted and not yet run, in post order: the op's
    /// sequence number, its tensors' [`Kept`] parts and its own link stamp.
    queue: VecDeque<(u64, Vec<Kept>, Option<Instant>)>,
    /// Receive halves a wait ran ahead of their own handle's wait: the
    /// unpacked tensors and the latest stamp among the op's and its peers'.
    landed: HashMap<u64, (crate::Result<Vec<Tensor>>, Option<Instant>)>,
    recorder: Option<Recorder>,
    posted: u64,
    retries: usize,
}

impl CommEngine {
    /// Creates the stream for one rank over a link of `gbps` GB/s (0 =
    /// free; see `fpdt_trace::wire`).
    pub fn new(comm: Arc<Communicator>, gbps: f64) -> Self {
        CommEngine {
            track: format!("fpdt-comm-r{}", comm.rank()),
            comm,
            link: Link::new(gbps),
            queue: VecDeque::new(),
            landed: HashMap::new(),
            recorder: None,
            posted: 0,
            retries: 0,
        }
    }

    /// Sets the replay budget of a post's fault check — how many extra
    /// attempts a [retryable](crate::CommError::is_retryable) failure buys
    /// before it surfaces. The knob behind `RuntimeOptions::comm_retries`.
    pub fn set_retries(&mut self, retries: usize) {
        self.retries = retries;
    }

    /// Attaches a span recorder: posts record `comm.post` on the rank
    /// thread, the link records each op's `comm.inflight` interval on the
    /// `fpdt-comm-r{rank}` track (wire occupancy, the interval the overlap
    /// metric measures), waits that receive or sleep record `comm.wait`,
    /// and each replay records a `comm.retry` event.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    /// The communicator this stream drives.
    pub fn comm(&self) -> &Arc<Communicator> {
        &self.comm
    }

    /// Number of ops posted over the engine's lifetime — the schedule
    /// audit counter ("exactly one QKV post per chunk").
    pub fn posted(&self) -> u64 {
        self.posted
    }

    /// Whether every posted receive half has run: no part of an engine op
    /// is left on the channels for a rank-thread collective to misread.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Posts the all-to-all of every `(layout, tensor)` pair as one op —
    /// one fault check, one link charge for the parts bound for peers —
    /// and returns the handle its tensors resolve through, in `items`
    /// order. Each tensor's own part is kept for the wait, exact under
    /// `bf16`.
    ///
    /// # Errors
    ///
    /// A tensor that does not match its layout, a transient fault the
    /// [`CommEngine::set_retries`] budget does not absorb, or a dead peer.
    pub fn post(
        &mut self,
        items: &[(AllToAllLayout, &Tensor)],
        bf16: bool,
    ) -> crate::Result<Pending> {
        let (rank, world) = (self.comm.rank(), self.comm.world());
        let packed = items
            .iter()
            .map(|(layout, t)| layout.pack(world, t))
            .collect::<crate::Result<Vec<_>>>()?;
        // Only the parts bound for peers cross the wire.
        let elems: usize = packed
            .iter()
            .flat_map(|parts| parts.iter().enumerate())
            .filter(|&(peer, _)| peer != rank)
            .map(|(_, part)| part.len())
            .sum();
        let bytes = (elems * if bf16 { 2 } else { 4 }) as u64;
        self.posted += 1;
        let rec = self.recorder.as_ref();
        let _post = rec.map(|r| r.span("comm.post").bytes(bytes));
        self.comm.retrying(self.retries, |c| {
            let out = c.fault_check("all_to_all");
            if let (Err(_), Some(r)) = (&out, rec) {
                r.record("comm.retry", r.now_us(), 0.0, Some(bytes));
            }
            out
        })?;
        let stamp = if bytes == 0 {
            None
        } else {
            self.link.charge(bytes, None)
        };
        if let (Some(r), Some((start, ready))) = (rec, stamp) {
            let dur_us = (ready - start).as_secs_f64() * 1e6;
            r.record_on(
                &self.track,
                "comm.inflight",
                r.at_us(start),
                dur_us,
                Some(bytes),
            );
        }
        let ready_at = stamp.map(|(_, ready)| ready);
        let mut kept = Vec::with_capacity(items.len());
        for ((layout, _), parts) in items.iter().zip(packed) {
            kept.push((*layout, self.comm.send_parts(parts, bf16, ready_at)?));
        }
        self.queue.push_back((self.posted, kept, ready_at));
        Ok(Pending {
            seq: self.posted,
            bytes,
        })
    }

    /// The receive half of `pending`: runs every earlier op's receive half
    /// still queued, then this one's, and sleeps until the op's link stamp
    /// and its peers' have passed. Returns the op's tensors in post order.
    /// A handle whose receives an earlier wait already ran, and whose
    /// stamps have passed, records no `comm.wait`.
    ///
    /// # Errors
    ///
    /// A dead peer, a desynchronized one (a tag or shape mismatch), or a
    /// handle this engine has no receive half queued for.
    pub fn wait(&mut self, pending: Pending) -> crate::Result<Vec<Tensor>> {
        let t0 = self.recorder.as_ref().map(Recorder::now_us);
        let mut blocked = false;
        let (out, stamp) = loop {
            if let Some(done) = self.landed.remove(&pending.seq) {
                break done;
            }
            let Some((seq, kept, mut latest)) = self.queue.pop_front() else {
                return Err(CommError::Desync {
                    local_op: "all_to_all",
                    remote_op: "a handle this engine did not post".to_string(),
                });
            };
            let out = kept
                .into_iter()
                .map(|(layout, own)| {
                    let (parts, stamp) = self.comm.recv_parts(own)?;
                    latest = latest.max(stamp);
                    layout.unpack(parts)
                })
                .collect();
            self.landed.insert(seq, (out, latest));
            // A world-1 op has nothing to receive.
            blocked |= self.comm.world() > 1;
        };
        blocked |= stamp.is_some_and(sleep_until);
        if let (Some(r), Some(start_us), true) = (&self.recorder, t0, blocked) {
            r.record(
                "comm.wait",
                start_us,
                r.now_us() - start_us,
                Some(pending.bytes),
            );
        }
        out
    }
}

/// A posted op, resolved by [`CommEngine::wait`]. Dropping it unwaited
/// leaves its receives queued: the engine's next wait drains them, and
/// the engine keeps their tensors until it drops.
#[must_use = "an unwaited handle's receives run at the next wait"]
pub struct Pending {
    /// The op's place in the engine's post order.
    seq: u64,
    /// The op's wire bytes (the peers' parts), for its `comm.wait` span.
    bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_group;
    use std::time::Duration;

    fn solo_comm() -> Arc<Communicator> {
        Arc::new(
            crate::CommGroup::new(1)
                .communicators()
                .pop()
                .expect("rank 0"),
        )
    }

    /// A `[rows, world, 1]` tensor whose row `r`, head `h` holds
    /// `tag * 1000 + rank * 100 + r * 10 + h`: every element names the op,
    /// the sender, its row and its destination.
    fn tagged(tag: usize, rows: usize, rank: usize, world: usize) -> Tensor {
        let data = (0..rows * world)
            .map(|i| (tag * 1000 + rank * 100 + (i / world) * 10 + i % world) as f32)
            .collect();
        Tensor::from_vec(data, &[rows, world, 1]).expect("shape")
    }

    /// What rank `rank` must receive for `tagged(tag, rows, ..)`: head
    /// group `rank` of every sender's rows, senders in rank order.
    fn expected(tag: usize, rows: usize, rank: usize, world: usize) -> Vec<f32> {
        (0..world)
            .flat_map(|src| (0..rows).map(move |r| (tag * 1000 + src * 100 + r * 10 + rank) as f32))
            .collect()
    }

    fn post_tagged(engine: &mut CommEngine, tag: usize, rows: usize) -> Pending {
        let (rank, world) = (engine.comm().rank(), engine.comm().world());
        let t = tagged(tag, rows, rank, world);
        let layout = AllToAllLayout::scatter_heads(t.shape(), world).expect("layout");
        engine.post(&[(layout, &t)], false).expect("post")
    }

    fn data(out: crate::Result<Vec<Tensor>>) -> Vec<f32> {
        out.expect("no desync").remove(0).data().to_vec()
    }

    #[test]
    fn a_solo_post_charges_nothing_and_queues_no_message() {
        // At world 1 the whole tensor is the own part: the wait still
        // unpacks it, but nothing is sent, tallied or put on the link.
        let mut engine = CommEngine::new(solo_comm(), 0.05);
        let rec = Recorder::new();
        engine.set_recorder(rec.clone());
        let h = post_tagged(&mut engine, 4, 2);
        assert!(!engine.is_idle(), "the receive half is queued");
        assert_eq!(data(engine.wait(h)), expected(4, 2, 0, 1));
        assert!(engine.is_idle());
        assert_eq!(engine.posted(), 1);
        assert!(engine.comm().stats().ops.is_empty(), "no message");
        assert_eq!(rec.count("comm.post"), 1);
        assert_eq!(rec.count("comm.inflight"), 0, "no link charge");
        assert_eq!(rec.count("comm.wait"), 0, "nothing to wait for");
    }

    #[test]
    fn a_post_charges_and_counts_only_the_parts_bound_for_peers() {
        // A fused post of two tensors: per tensor, `world - 1` messages each
        // way, and the link and the counters see `(world - 1) / world` of
        // the packed bytes.
        for world in [2usize, 4] {
            let runs = run_group(world, |comm| {
                let comm = Arc::new(comm);
                let mut engine = CommEngine::new(Arc::clone(&comm), 1000.0);
                let rec = Recorder::new();
                engine.set_recorder(rec.clone());
                let (a, b) = (
                    tagged(1, 3, comm.rank(), world),
                    tagged(2, 2 * world, comm.rank(), world),
                );
                let la = AllToAllLayout::scatter_heads(a.shape(), world).expect("layout");
                let lb = AllToAllLayout::scatter_seq(b.shape(), world).expect("layout");
                let h = engine.post(&[(la, &a), (lb, &b)], false).expect("post");
                engine.wait(h).expect("lands");
                let packed = 4 * (a.data().len() + b.data().len()) as u64;
                (
                    packed,
                    rec.total_bytes("comm.inflight"),
                    rec.total_bytes("comm.post"),
                    comm.stats(),
                )
            });
            for (packed, inflight, posted, stats) in runs {
                let wire = packed * (world as u64 - 1) / world as u64;
                assert_eq!((inflight, posted), (wire, wire), "world {world}");
                let op = stats.op("all_to_all").expect("peers exchanged");
                let msgs = 2 * (world as u64 - 1);
                assert_eq!((op.sends, op.recvs), (msgs, msgs), "world {world}");
                assert_eq!(
                    (op.bytes_sent, op.bytes_recv),
                    (wire, wire),
                    "world {world}"
                );
            }
        }
    }

    #[test]
    fn under_bf16_the_own_part_comes_back_exact() {
        // Values bf16 cannot hold: the peer's part arrives rounded, the
        // part a rank keeps is the f32 it packed, bit for bit.
        let runs = run_group(2, |comm| {
            let rank = comm.rank();
            let mut engine = CommEngine::new(Arc::new(comm), 0.0);
            let t = Tensor::from_vec(
                (0..8)
                    .map(|i| 1.0 + (rank * 8 + i + 1) as f32 * 2f32.powi(-20))
                    .collect(),
                &[4, 2, 1],
            )
            .expect("shape");
            let layout = AllToAllLayout::scatter_heads(t.shape(), 2).expect("layout");
            let h = engine.post(&[(layout, &t)], true).expect("post");
            let got = data(engine.wait(h));
            (t.data().to_vec(), got)
        });
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (rank, (_, got)) in runs.iter().enumerate() {
            for (src, (sent, _)) in runs.iter().enumerate() {
                // Head `rank` of each of the sender's four rows.
                let sent: Vec<f32> = sent.iter().skip(rank).step_by(2).copied().collect();
                let rounded =
                    fpdt_tensor::bf16::decode_slice(&fpdt_tensor::bf16::encode_slice(&sent));
                assert_ne!(bits(&rounded), bits(&sent), "bf16 cannot hold these values");
                let want = if src == rank { &sent } else { &rounded };
                assert_eq!(
                    bits(&got[src * 4..src * 4 + 4]),
                    bits(want),
                    "rank {rank}, from {src}"
                );
            }
        }
    }

    #[test]
    fn waits_in_any_order_match_every_payload_at_two_and_three_ranks() {
        // Four posts of different sizes, waited newest-first, in an
        // interleaved order, and in post order: every payload lands where
        // it belongs and no tag or shape desync surfaces.
        let orders: [&[usize]; 3] = [&[3, 2, 1, 0], &[2, 0, 3, 1], &[0, 1, 2, 3]];
        for world in [2usize, 3] {
            let ok = run_group(world, |comm| {
                let rank = comm.rank();
                let mut engine = CommEngine::new(Arc::new(comm), 0.0);
                for order in orders {
                    let rows = [1usize, 4, 2, 3];
                    let mut handles: Vec<Option<Pending>> = (0..4)
                        .map(|tag| Some(post_tagged(&mut engine, tag, rows[tag])))
                        .collect();
                    for &tag in order {
                        let h = handles[tag].take().expect("posted once");
                        assert_eq!(
                            data(engine.wait(h)),
                            expected(tag, rows[tag], rank, world),
                            "{order:?}"
                        );
                    }
                    assert!(engine.is_idle());
                }
                true
            });
            assert!(ok.into_iter().all(|ok| ok), "world {world}");
        }
    }

    #[test]
    fn a_dropped_handle_is_drained_before_any_later_receive() {
        for world in [2usize, 3] {
            run_group(world, |comm| {
                let rank = comm.rank();
                let comm = Arc::new(comm);
                let mut engine = CommEngine::new(Arc::clone(&comm), 0.0);
                drop(post_tagged(&mut engine, 1, 3));
                let h = post_tagged(&mut engine, 2, 1);
                assert_eq!(data(engine.wait(h)), expected(2, 1, rank, world));
                // The rank thread's own collective reads its own payload,
                // not a stale all-to-all part.
                assert!(engine.is_idle(), "the dropped op's receives ran");
                let sum = comm.all_reduce(&[rank as f32 + 1.0]).expect("all-reduce");
                assert_eq!(sum, vec![(world * (world + 1) / 2) as f32]);
            });
        }
    }

    #[test]
    fn replayed_post_retries_transient_faults_before_any_send() {
        let comm = solo_comm();
        comm.inject_fault("all_to_all", 2);
        let mut engine = CommEngine::new(Arc::clone(&comm), 0.0);
        engine.set_retries(2);
        let h = post_tagged(&mut engine, 9, 2);
        assert_eq!(data(engine.wait(h)), expected(9, 2, 0, 1));
        let stats = comm.stats();
        assert_eq!(stats.faults, 2);
        assert_eq!(stats.retries, 2);
    }

    #[test]
    fn faults_on_a_fused_qkv_post_and_a_dq_post_replay_to_the_same_payloads() {
        // The executor's two post shapes: a fused QKV op (three tensors,
        // a narrower KV layout as under grouped-query attention) and a
        // single inverse-layout gradient chunk. Faults armed on each are
        // absorbed in the post half; the payloads match a clean run.
        let run = |faults: usize| {
            run_group(2, move |comm| {
                let (rank, comm) = (comm.rank(), Arc::new(comm));
                let mut engine = CommEngine::new(Arc::clone(&comm), 0.0);
                engine.set_retries(2);
                let (q, kv) = (tagged(1, 3, rank, 4), tagged(2, 3, rank, 2));
                let lq = AllToAllLayout::scatter_heads(q.shape(), 2).expect("layout");
                let lkv = AllToAllLayout::scatter_heads(kv.shape(), 2).expect("layout");
                comm.inject_fault("all_to_all", faults);
                let qkv = engine
                    .post(&[(lq, &q), (lkv, &kv), (lkv, &kv)], false)
                    .expect("qkv");
                let dq = tagged(3, 4, rank, 2);
                let linv = AllToAllLayout::scatter_seq(dq.shape(), 2).expect("layout");
                comm.inject_fault("all_to_all", faults);
                let dq = engine.post(&[(linv, &dq)], false).expect("dq");
                // Resolved newest-first, as the backward may.
                let dq = engine.wait(dq).expect("dq lands");
                let qkv = engine.wait(qkv).expect("qkv lands");
                let stats = comm.stats();
                let bits: Vec<u32> = qkv
                    .iter()
                    .chain(&dq)
                    .flat_map(|t| t.data().iter().map(|x| x.to_bits()))
                    .collect();
                (bits, stats.retries, stats.op("all_to_all").map(|o| o.sends))
            })
        };
        let (clean, faulty) = (run(0), run(2));
        for (rank, ((want, no_retries, sends), (got, retries, faulty_sends))) in
            clean.into_iter().zip(faulty).enumerate()
        {
            assert_eq!(got, want, "rank {rank}: payloads");
            assert_eq!(
                (no_retries, retries),
                (0, 4),
                "rank {rank}: two replays per post"
            );
            assert_eq!(
                faulty_sends, sends,
                "rank {rank}: a failed attempt sends nothing"
            );
        }
    }

    #[test]
    fn replayed_post_surfaces_exhausted_budget_and_queues_nothing() {
        run_group(2, |comm| {
            let (rank, comm) = (comm.rank(), Arc::new(comm));
            comm.inject_fault("all_to_all", 3);
            let mut engine = CommEngine::new(Arc::clone(&comm), 0.0);
            engine.set_retries(1);
            let t = tagged(1, 1, rank, 2);
            let layout = AllToAllLayout::scatter_heads(t.shape(), 2).expect("layout");
            assert!(matches!(
                engine.post(&[(layout, &t)], false),
                Err(CommError::Transient { op: "all_to_all" })
            ));
            assert!(engine.is_idle());
            assert!(
                comm.stats().op("all_to_all").is_none(),
                "no send left the rank"
            );
        });
    }

    #[test]
    fn posts_record_post_and_inflight_spans_on_the_link_track() {
        run_group(2, |comm| {
            let rank = comm.rank();
            let mut engine = CommEngine::new(Arc::new(comm), 0.05);
            let rec = Recorder::new();
            engine.set_recorder(rec.clone());
            let h = post_tagged(&mut engine, 0, 2);
            engine.wait(h).expect("lands");
            assert_eq!(rec.count("comm.post"), 1);
            // Four f32s packed, two of them bound for the peer.
            assert_eq!(rec.total_bytes("comm.inflight"), 8);
            let spans = rec.records();
            let tid = |label: &str| spans.iter().find(|s| s.label == label).expect(label).tid;
            assert_ne!(
                tid("comm.inflight"),
                tid("comm.post"),
                "the link is a track of its own"
            );
            assert!(rec
                .chrome_trace_json()
                .contains(&format!("fpdt-comm-r{rank}")));
        });
    }

    /// Posts `n` ops of `bytes` packed bytes each (f32 tensors, half of
    /// them bound for the peer) on a two-rank group at `gbps`; rank 1 first
    /// posts `busy` bytes of its own. Returns,
    /// per rank, the instant of the first post and the end of each wait.
    fn timed_posts(gbps: f64, n: usize, bytes: usize, busy: usize) -> Vec<(Instant, Vec<Instant>)> {
        run_group(2, |comm| {
            let rank = comm.rank();
            let mut engine = CommEngine::new(Arc::new(comm), gbps);
            // Two long rows: the pack is two slice copies per peer, so the
            // posts cost next to nothing even in a debug build.
            let t = Tensor::zeros(&[2, 2, bytes / 16]);
            let layout = AllToAllLayout::scatter_heads(t.shape(), 2).expect("layout");
            let t0 = Instant::now();
            if rank == 1 && busy > 0 {
                // A transfer of rank 1's own, outside any all-to-all: it
                // occupies rank 1's link only.
                engine.link.charge(busy as u64, None);
            }
            let handles: Vec<Pending> = (0..n)
                .map(|_| engine.post(&[(layout, &t)], false).expect("post"))
                .collect();
            let ends = handles
                .into_iter()
                .map(|h| {
                    engine.wait(h).expect("lands");
                    Instant::now()
                })
                .collect();
            (t0, ends)
        })
    }

    #[test]
    fn three_posts_hold_the_link_back_to_back() {
        // FIFO advance: the third op lands no earlier than three ops' wire
        // time (the peer's half of each) after the first post, on both ranks.
        let (gbps, bytes) = (0.05, 256 * 1024);
        let wire = Duration::from_secs_f64((bytes / 2) as f64 / (gbps * 1e9));
        for (t0, ends) in timed_posts(gbps, 3, bytes, 0) {
            assert!(
                ends[2] - t0 >= 3 * wire,
                "{:?} < {:?}",
                ends[2] - t0,
                3 * wire
            );
        }
    }

    #[test]
    fn a_wait_ends_no_earlier_than_the_peers_stamp() {
        // Rank 1's link is busy for 20 ms before its post: its message
        // carries a stamp 20 ms + wire later, and rank 0 — whose own link
        // is idle — must not resolve the op before it.
        let (gbps, bytes) = (0.05, 8 * 1024);
        let busy = (gbps * 1e9 * 0.020) as usize;
        let late = Duration::from_secs_f64((busy + bytes / 2) as f64 / (gbps * 1e9));
        let runs = timed_posts(gbps, 1, bytes, busy);
        let (peer_t0, end) = (runs[1].0, runs[0].1[0]);
        assert!(end >= peer_t0 + late, "{:?} < {late:?}", end - peer_t0);
    }
}
