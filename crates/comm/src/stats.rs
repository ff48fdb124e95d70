//! Per-collective traffic counters.
//!
//! Every [`Communicator`](crate::Communicator) tallies, per collective tag
//! (`"all_to_all"`, `"all_gather"`, ...), how many messages it sent and
//! received and how many payload bytes moved each way. The counters answer
//! the paper's accounting questions ("how much does the per-chunk
//! all-to-all actually move?") without a profiler, and feed the
//! `BENCH_*.json` metrics emitted by the bench binaries.
//!
//! Counters are **deterministic**: every payload runs through the single
//! [`StatsCell::tally`] entry point inside `send`/`recv`, so two runs that
//! move the same traffic in the same program order produce equal
//! [`CommStats`] — regardless of thread scheduling, and regardless of
//! when the handles of the split-phase
//! [`CommEngine`](crate::CommEngine) stream are waited. Wall-clock receive blocking
//! time is kept out of the comparable counters (see
//! [`CommStats::recv_wait`]).

// The counters feed checkpoint shards and metrics: no hash-ordered map or set.
#![deny(clippy::disallowed_types)]

#[expect(clippy::disallowed_types, reason = "lookups only; `order` emits")]
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Accumulated traffic for one collective tag on one rank.
///
/// Pure message/byte counters, deliberately free of wall-clock fields, so
/// `OpStats` is `Eq` and bitwise-equality assertions ("the async comm
/// stream moves exactly the same traffic") are meaningful.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Messages posted to peers (a collective's own part is not one).
    pub sends: u64,
    /// Messages drained from peers.
    pub recvs: u64,
    /// Payload wire bytes sent (4 per f32 element, 2 per bf16 element).
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_recv: u64,
}

/// Snapshot of one rank's per-op counters, in first-use order.
///
/// Equality compares the deterministic traffic counters only;
/// [`CommStats::recv_wait`] is wall-clock noise and is excluded.
#[derive(Debug, Clone, Default)]
pub struct CommStats {
    /// `(op tag, counters)` pairs ordered by first use on this rank.
    pub ops: Vec<(String, OpStats)>,
    /// Total wall-clock time receives spent blocked, across all
    /// collectives. Timing, not traffic: excluded from `PartialEq`/`Eq`.
    pub recv_wait: Duration,
    /// Injected transient faults that fired on this rank. Recovery
    /// observability, not traffic (a faulted attempt moves zero bytes):
    /// excluded from `PartialEq` so a run that weathered faults still
    /// compares traffic-equal to a clean run.
    pub faults: u64,
    /// Collective replays performed by retry loops on this rank. Excluded
    /// from `PartialEq` for the same reason as [`CommStats::faults`].
    pub retries: u64,
}

impl PartialEq for CommStats {
    fn eq(&self, other: &Self) -> bool {
        self.ops == other.ops
    }
}

impl Eq for CommStats {}

impl CommStats {
    /// Counters for one collective tag, if it ever ran.
    pub fn op(&self, op: &str) -> Option<&OpStats> {
        self.ops.iter().find(|(name, _)| name == op).map(|(_, s)| s)
    }

    /// Total payload bytes sent across all collectives.
    pub fn total_bytes_sent(&self) -> u64 {
        self.ops.iter().map(|(_, s)| s.bytes_sent).sum()
    }

    /// Total wall-clock time receives spent blocked.
    pub fn total_recv_wait(&self) -> Duration {
        self.recv_wait
    }

    /// Folds another snapshot into this one, op by op.
    ///
    /// Ops unseen so far are appended in `other`'s order, so accumulating
    /// per-segment snapshots from an SPMD program preserves the first-use
    /// order a single uninterrupted run would have produced — which is
    /// what makes a resumed run's accumulated stats compare bitwise-equal
    /// to the uninterrupted run's.
    pub fn merge(&mut self, other: &CommStats) {
        for (name, theirs) in &other.ops {
            match self.ops.iter_mut().find(|(n, _)| n == name) {
                Some((_, ours)) => {
                    ours.sends += theirs.sends;
                    ours.recvs += theirs.recvs;
                    ours.bytes_sent += theirs.bytes_sent;
                    ours.bytes_recv += theirs.bytes_recv;
                }
                None => self.ops.push((name.clone(), *theirs)),
            }
        }
        self.recv_wait += other.recv_wait;
        self.faults += other.faults;
        self.retries += other.retries;
    }
}

/// Which way a payload moved through the wire layer.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Direction {
    /// Payload posted to a peer.
    Sent,
    /// Payload drained from a peer.
    Received,
}

/// Interior-mutable accumulator owned by each `Communicator`. Collectives
/// take `&self`, so the counters sit behind a mutex; contention is nil
/// (only the rank thread touches its communicator).
#[derive(Debug, Default)]
pub(crate) struct StatsCell {
    // first-use order kept separately so snapshots are deterministic
    order: Mutex<Vec<String>>,
    #[expect(clippy::disallowed_types, reason = "lookups only; `order` emits")]
    by_op: Mutex<HashMap<String, OpStats>>,
    recv_wait: Mutex<Duration>,
    faults: AtomicU64,
    retries: AtomicU64,
}

impl StatsCell {
    /// The single tally point. Every payload — any collective, either
    /// direction, either wire precision — is accounted here with its true
    /// wire bytes (`Payload::wire_bytes`), called from `send`/`recv` only,
    /// so byte accounting cannot be bypassed by a new collective and bf16
    /// payloads show up at exactly half the f32 footprint.
    pub(crate) fn tally(&self, op: &str, dir: Direction, bytes: u64) {
        // Counters stay valid across a panic elsewhere (each update below
        // is complete before the guard drops), so a poisoned lock is
        // recovered rather than cascading the failure into the comm path.
        let mut by_op = self.by_op.lock().unwrap_or_else(|e| e.into_inner());
        let s = by_op.entry(op.to_string()).or_insert_with(|| {
            self.order
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(op.to_string());
            OpStats::default()
        });
        match dir {
            Direction::Sent => {
                s.sends += 1;
                s.bytes_sent += bytes;
            }
            Direction::Received => {
                s.recvs += 1;
                s.bytes_recv += bytes;
            }
        }
    }

    /// Accumulates receive blocking time (kept apart from the
    /// deterministic counters).
    pub(crate) fn waited(&self, d: Duration) {
        *self.recv_wait.lock().unwrap_or_else(|e| e.into_inner()) += d;
    }

    /// Counts an injected fault firing (recovery observability).
    pub(crate) fn fault_fired(&self) {
        self.faults.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one collective replay by a retry loop.
    pub(crate) fn retried(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> CommStats {
        let order = self.order.lock().unwrap_or_else(|e| e.into_inner());
        let by_op = self.by_op.lock().unwrap_or_else(|e| e.into_inner());
        CommStats {
            // `order` drives the snapshot (deterministic first-use order);
            // the map is keyed lookup only — never iterated.
            ops: order
                .iter()
                .map(|name| (name.clone(), by_op.get(name).copied().unwrap_or_default()))
                .collect(),
            recv_wait: *self.recv_wait.lock().unwrap_or_else(|e| e.into_inner()),
            faults: self.faults.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::run_group;

    #[test]
    fn all_gather_traffic_is_counted() {
        let stats = run_group(4, |comm| {
            comm.all_gather(&[1.0, 2.0, 3.0]).expect("group alive");
            comm.stats()
        });
        for s in &stats {
            let ag = s.op("all_gather").expect("ran");
            // 3 sends and 3 recvs of 3 floats each: the own buffer is not
            // a message
            assert_eq!(ag.sends, 3);
            assert_eq!(ag.recvs, 3);
            assert_eq!(ag.bytes_sent, 3 * 3 * 4);
            assert_eq!(ag.bytes_recv, 3 * 3 * 4);
            assert_eq!(s.total_bytes_sent(), 36);
        }
    }

    #[test]
    fn ops_are_tracked_separately_in_first_use_order() {
        let stats = run_group(2, |comm| {
            drop(comm.all_reduce(&[0.0; 8]).unwrap());
            drop(comm.ring_exchange(vec![0.0; 2]).unwrap());
            comm.stats()
        });
        let names: Vec<&str> = stats[0].ops.iter().map(|(n, _)| n.as_str()).collect();
        // all_reduce is built on all_gather
        assert_eq!(names, ["all_gather", "ring_exchange"]);
        assert_eq!(stats[0].op("ring_exchange").unwrap().bytes_sent, 8);
        assert!(stats[0].op("broadcast").is_none());
    }

    #[test]
    fn equality_ignores_wall_clock_wait() {
        // Two runs of the same traffic compare equal even though their
        // blocking times inevitably differ.
        let run = || {
            run_group(2, |comm| {
                drop(comm.all_reduce(&[1.0; 16]).unwrap());
                comm.stats()
            })
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "deterministic counters");
        // The wait totals are still reported (just not compared).
        let _ = a[0].total_recv_wait();
    }

    #[test]
    fn merged_segments_equal_one_uninterrupted_run() {
        // Stats accumulated across two half-length segments must equal one
        // uninterrupted run's — the property resumable training leans on.
        let run_steps = |steps: usize| {
            run_group(2, |comm| {
                for _ in 0..steps {
                    drop(comm.all_reduce(&[1.0; 16]).unwrap());
                    drop(comm.ring_exchange(vec![0.0; 4]).unwrap());
                }
                comm.stats()
            })
        };
        let whole = run_steps(6);
        let (a, b) = (run_steps(3), run_steps(3));
        let mut merged = a[0].clone();
        merged.merge(&b[0]);
        assert_eq!(merged, whole[0]);
        let names: Vec<&str> = merged.ops.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            whole[0]
                .ops
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            "first-use order survives the merge"
        );
    }

    #[test]
    fn fault_and_retry_counters_do_not_break_equality() {
        let clean = run_group(1, |comm| {
            drop(comm.all_reduce(&[1.0; 8]).unwrap());
            comm.stats()
        });
        let faulted = run_group(1, |comm| {
            comm.inject_fault("all_gather", 1);
            comm.retrying(1, |c| c.all_reduce(&[1.0; 8])).unwrap();
            comm.stats()
        });
        assert_eq!(faulted[0].faults, 1);
        assert_eq!(faulted[0].retries, 1);
        assert_eq!(
            clean[0], faulted[0],
            "traffic counters unchanged by recovery"
        );
    }
}
