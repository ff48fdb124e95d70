//! Group construction and point-to-point plumbing.

use crate::stats::{CommStats, Direction, StatsCell};
use crate::{CommError, Result};
use crossbeam::channel::{unbounded, Receiver, Sender};
use fpdt_tensor::KernelCtx;
use std::collections::HashMap;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Instant;

/// Wire representation of one payload: full-precision f32 or bf16-rounded
/// halves (half the bytes). Receivers widen bf16 transparently, so the
/// precision is purely the *sender's* choice per message.
#[derive(Debug)]
pub(crate) enum Payload {
    F32(Vec<f32>),
    Bf16(Vec<u16>),
}

impl Payload {
    /// Bytes this payload occupies on the wire (4 per f32, 2 per bf16).
    pub(crate) fn wire_bytes(&self) -> u64 {
        match self {
            Payload::F32(v) => (v.len() * 4) as u64,
            Payload::Bf16(v) => (v.len() * 2) as u64,
        }
    }

    /// Widens to f32 (exact for bf16; a move for f32).
    pub(crate) fn into_f32(self) -> Vec<f32> {
        match self {
            Payload::F32(v) => v,
            Payload::Bf16(v) => fpdt_tensor::bf16::decode_slice(&v),
        }
    }
}

/// A tagged point-to-point message. Tags catch SPMD order violations early
/// instead of silently mixing payloads from different collectives.
#[derive(Debug)]
pub(crate) struct Message {
    pub op: &'static str,
    pub data: Payload,
    /// When the sender's simulated link lands it (`None` over a free link
    /// and outside a [`CommEngine`](crate::CommEngine)).
    pub ready_at: Option<Instant>,
}

/// Factory for a fixed-size communicator group.
///
/// Build one group, take its per-rank [`Communicator`]s with
/// [`CommGroup::communicators`], and hand one to each worker thread. For
/// scoped-thread convenience use [`run_group`].
#[derive(Debug)]
pub struct CommGroup {
    world: usize,
    comms: Vec<Option<Communicator>>,
}

impl CommGroup {
    /// Creates a group of `world` ranks with a dedicated FIFO channel per
    /// ordered rank pair.
    ///
    /// # Panics
    ///
    /// Panics if `world == 0`.
    pub fn new(world: usize) -> Self {
        assert!(world > 0, "communicator group must have at least one rank");
        // senders[src][dst] / receivers[dst][src]. Building dst-major lets
        // each receiver row come out of its loop fully formed, so no slot
        // is ever provisional (no Option juggling, nothing to unwrap).
        let mut senders: Vec<Vec<Sender<Message>>> =
            (0..world).map(|_| Vec::with_capacity(world)).collect();
        let mut receivers: Vec<Vec<Receiver<Message>>> = Vec::with_capacity(world);
        for _dst in 0..world {
            let mut row = Vec::with_capacity(world);
            for tx_row in &mut senders {
                let (tx, rx) = unbounded();
                tx_row.push(tx);
                row.push(rx);
            }
            receivers.push(row);
        }
        let comms = senders
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(rank, (tx_row, rx_row))| {
                Some(Communicator {
                    rank,
                    world,
                    senders: tx_row,
                    receivers: rx_row,
                    stats: StatsCell::default(),
                    faults: Mutex::new(HashMap::new()),
                })
            })
            .collect();
        CommGroup { world, comms }
    }

    /// Group size.
    pub fn world(&self) -> usize {
        self.world
    }

    /// Takes all per-rank communicators (rank order). Each can be moved to
    /// its worker thread. Calling twice returns an empty vector.
    pub fn communicators(&mut self) -> Vec<Communicator> {
        self.comms.iter_mut().filter_map(Option::take).collect()
    }
}

/// One rank's endpoint in a [`CommGroup`].
///
/// All collectives live in the `collectives` module; this type also exposes
/// raw tagged point-to-point `send`/`recv` used by ring schedules.
#[derive(Debug)]
pub struct Communicator {
    pub(crate) rank: usize,
    pub(crate) world: usize,
    senders: Vec<Sender<Message>>,
    receivers: Vec<Receiver<Message>>,
    stats: StatsCell,
    /// Armed transient faults per collective tag (fault-tolerance harness).
    faults: Mutex<HashMap<&'static str, usize>>,
}

impl Communicator {
    /// This rank's index in `0..world`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the group.
    pub fn world(&self) -> usize {
        self.world
    }

    /// Sends `data` to `peer` under the collective tag `op`.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::RankOutOfRange`] or
    /// [`CommError::PeerDisconnected`].
    pub fn send(&self, op: &'static str, peer: usize, data: Vec<f32>) -> Result<()> {
        self.send_payload(op, peer, Payload::F32(data), None)
    }

    pub(crate) fn send_payload(
        &self,
        op: &'static str,
        peer: usize,
        data: Payload,
        ready_at: Option<Instant>,
    ) -> Result<()> {
        let tx = self.senders.get(peer).ok_or(CommError::RankOutOfRange {
            rank: peer,
            world: self.world,
        })?;
        self.stats.tally(op, Direction::Sent, data.wire_bytes());
        tx.send(Message { op, data, ready_at })
            .map_err(|_| CommError::PeerDisconnected { peer })
    }

    /// Receives the next message from `peer`, checking its collective tag.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::RankOutOfRange`],
    /// [`CommError::PeerDisconnected`], or [`CommError::Desync`] when the
    /// peer sent a different collective's payload.
    pub fn recv(&self, op: &'static str, peer: usize) -> Result<Vec<f32>> {
        self.recv_stamped(op, peer).map(|(data, _)| data)
    }

    /// [`Communicator::recv`] that also returns the message's link stamp.
    pub(crate) fn recv_stamped(&self, op: &'static str, peer: usize) -> Result<(Vec<f32>, Option<Instant>)> {
        let rx = self.receivers.get(peer).ok_or(CommError::RankOutOfRange {
            rank: peer,
            world: self.world,
        })?;
        let waited = Instant::now();
        let msg = rx
            .recv()
            .map_err(|_| CommError::PeerDisconnected { peer })?;
        self.stats.waited(waited.elapsed());
        self.stats.tally(op, Direction::Received, msg.data.wire_bytes());
        if msg.op != op {
            return Err(CommError::Desync {
                local_op: op,
                remote_op: msg.op.to_string(),
            });
        }
        Ok((msg.data.into_f32(), msg.ready_at))
    }

    /// Snapshot of this rank's per-collective traffic counters.
    pub fn stats(&self) -> CommStats {
        self.stats.snapshot()
    }

    /// Arms `times` transient faults on the collective tagged `op`: the
    /// next `times` invocations on **this rank** fail with
    /// [`CommError::Transient`] before performing any sends, then the op
    /// recovers. This is the fault-injection surface the recovery tests
    /// and the `FPDT_FAULT_INJECT` CI leg drive.
    pub fn inject_fault(&self, op: &'static str, times: usize) {
        let mut faults = self.faults.lock().unwrap_or_else(|e| e.into_inner());
        *faults.entry(op).or_insert(0) += times;
    }

    /// Consumes one armed fault for `op`, if any. Called at the *entry* of
    /// every collective — before any message leaves this rank — so a
    /// failed attempt leaves all channels untouched and a whole-collective
    /// replay is idempotent.
    pub(crate) fn fault_check(&self, op: &'static str) -> Result<()> {
        let mut faults = self.faults.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(n) = faults.get_mut(op) {
            if *n > 0 {
                *n -= 1;
                drop(faults);
                self.stats.fault_fired();
                return Err(CommError::Transient { op });
            }
        }
        Ok(())
    }

    /// Runs `f` and replays it on [retryable](CommError::is_retryable)
    /// failures, up to `budget` extra attempts. Because collectives fail
    /// only *before* their first send (see `Communicator::fault_check`),
    /// the replay re-runs the whole collective against clean channels;
    /// peers blocked in `recv` simply wait out the retry. Each replay is
    /// tallied on [`CommStats::retries`].
    pub fn retrying<T>(&self, budget: usize, mut f: impl FnMut(&Self) -> Result<T>) -> Result<T> {
        let mut attempts = 0usize;
        loop {
            match f(self) {
                Err(e) if e.is_retryable() && attempts < budget => {
                    attempts += 1;
                    self.stats.retried();
                }
                out => return out,
            }
        }
    }
}

/// Spawns `world` scoped threads, hands each its [`Communicator`], and
/// collects the per-rank return values in rank order.
///
/// Each rank runs under the caller's [`KernelCtx`] with its thread budget
/// split across the `world` ranks ([`KernelCtx::split`]), so simulated GPUs
/// don't oversubscribe the host: each rank's kernels fan out to at most
/// `budget / world` threads.
///
/// Closure panics propagate (the whole call panics), mirroring how a rank
/// failure aborts a distributed job.
pub fn run_group<T, F>(world: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Communicator) -> T + Send + Sync,
{
    let mut group = CommGroup::new(world);
    let comms = group.communicators();
    let f = &f;
    let ctx = KernelCtx::current().split(world);
    std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| s.spawn(move || ctx.enter(|| f(comm))))
            .collect();
        handles
            .into_iter()
            // A rank death aborts the whole job, matching real collective
            // semantics (see the doc comment): re-raise the rank thread's
            // panic payload on the caller.
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Spawns a long-lived rank thread, `fpdt-rank-r{rank}`, that runs
/// `f(comm)` under `ctx` split across the group's ranks (the budget rule of
/// [`run_group`]). The caller owns the handle: joining it returns `f`'s
/// value or the rank's panic. This is how a trainer keeps one worker per
/// simulated GPU alive between training calls.
///
/// # Errors
///
/// The OS refused the thread.
pub fn spawn_rank<T, F>(comm: Communicator, ctx: KernelCtx, f: F) -> std::io::Result<JoinHandle<T>>
where
    T: Send + 'static,
    F: FnOnce(Communicator) -> T + Send + 'static,
{
    let ctx = ctx.split(comm.world);
    std::thread::Builder::new()
        .name(format!("fpdt-rank-r{}", comm.rank))
        .spawn(move || ctx.enter(|| f(comm)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_round_trip() {
        let results = run_group(2, |comm| {
            if comm.rank() == 0 {
                comm.send("test", 1, vec![1.0, 2.0]).unwrap();
                comm.recv("test", 1).unwrap()
            } else {
                let got = comm.recv("test", 0).unwrap();
                comm.send("test", 0, vec![got[0] * 10.0, got[1] * 10.0])
                    .unwrap();
                got
            }
        });
        assert_eq!(results[0], vec![10.0, 20.0]);
        assert_eq!(results[1], vec![1.0, 2.0]);
    }

    #[test]
    fn self_send_works() {
        let results = run_group(1, |comm| {
            comm.send("loop", 0, vec![7.0]).unwrap();
            comm.recv("loop", 0).unwrap()
        });
        assert_eq!(results[0], vec![7.0]);
    }

    #[test]
    fn tag_mismatch_is_detected() {
        let results = run_group(2, |comm| {
            if comm.rank() == 0 {
                comm.send("op_a", 1, vec![]).unwrap();
                Ok(())
            } else {
                match comm.recv("op_b", 0) {
                    Err(CommError::Desync { .. }) => Err(()),
                    other => panic!("expected desync, got {other:?}"),
                }
            }
        });
        assert_eq!(results[1], Err(()));
    }

    #[test]
    fn rank_out_of_range() {
        run_group(2, |comm| {
            assert!(matches!(
                comm.send("x", 5, vec![]),
                Err(CommError::RankOutOfRange { rank: 5, world: 2 })
            ));
        });
    }

    #[test]
    fn injected_fault_fires_then_clears() {
        run_group(1, |comm| {
            comm.inject_fault("all_gather", 2);
            assert!(matches!(
                comm.all_gather(&[1.0]),
                Err(CommError::Transient { op: "all_gather" })
            ));
            assert!(matches!(
                comm.all_gather(&[1.0]),
                Err(CommError::Transient { op: "all_gather" })
            ));
            assert_eq!(comm.all_gather(&[1.0]).unwrap(), vec![vec![1.0]]);
            assert_eq!(comm.stats().faults, 2);
        });
    }

    #[test]
    fn retrying_replays_transient_faults_within_budget() {
        run_group(1, |comm| {
            comm.inject_fault("all_gather", 2);
            assert_eq!(comm.retrying(2, |c| c.all_gather(&[1.0])).unwrap(), vec![vec![1.0]]);
            assert_eq!(comm.stats().retries, 2);
            // Budget exhausted: the last error surfaces.
            comm.inject_fault("all_gather", 3);
            assert!(matches!(
                comm.retrying(2, |c| c.all_gather(&[1.0])),
                Err(CommError::Transient { op: "all_gather" })
            ));
        });
    }

    #[test]
    fn retrying_does_not_replay_fatal_errors() {
        run_group(1, |comm| {
            let mut calls = 0usize;
            let err = comm.retrying(5, |c| {
                calls += 1;
                c.send("x", 9, vec![])
            });
            assert!(matches!(err, Err(CommError::RankOutOfRange { .. })));
            assert_eq!(calls, 1, "fatal errors must not be replayed");
        });
    }

    #[test]
    fn ranks_split_the_callers_kernel_context() {
        let ctx = KernelCtx {
            threads: 8,
            par_threshold: 3,
            ..KernelCtx::current()
        };
        let seen = ctx.enter(|| run_group(4, |_| KernelCtx::current()));
        assert!(seen.iter().all(|&c| c == ctx.split(4)), "{seen:?}");
        let comm = CommGroup::new(2).communicators().swap_remove(1);
        let rank = spawn_rank(comm, ctx, |comm| {
            (
                comm.rank(),
                KernelCtx::current(),
                std::thread::current().name().map(str::to_string),
            )
        });
        let (rank, seen, name) = rank.expect("spawned").join().expect("no panic");
        assert_eq!(
            (rank, seen, name.as_deref()),
            (1, ctx.split(2), Some("fpdt-rank-r1"))
        );
    }

    #[test]
    fn communicators_taken_once() {
        let mut g = CommGroup::new(3);
        assert_eq!(g.world(), 3);
        assert_eq!(g.communicators().len(), 3);
        assert!(g.communicators().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_world_panics() {
        let _ = CommGroup::new(0);
    }
}
