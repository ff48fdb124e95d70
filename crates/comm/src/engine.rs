//! Asynchronous communication stream: one simulated NIC link per rank.
//!
//! A [`CommEngine`] posts collectives on a [`Stream`] whose dedicated
//! worker (`fpdt-comm-r{rank}`) executes them strictly in FIFO order —
//! the model of a single NIC queue, symmetric to the offload runtime's
//! copy streams. Each op holds the simulated link for its bytes at the
//! bandwidth the engine was built with (`fpdt_trace::wire`). The executor
//! posts chunk `i+1`'s QKV all-to-all before chunk `i`'s online-softmax
//! update runs and resolves the returned
//! [`Pending`] handle at the point the gathered tensor is first needed,
//! so the wire time hides behind compute (the second half of paper
//! Figure 13's overlap story; Ulysses comm is the dominant non-compute
//! cost the paper's §2.2 analysis identifies).
//!
//! The worker pays only when the link costs time. Over a free link a
//! collective is a channel send and a memcpy, nothing a worker could
//! hide, while waking it costs a context switch per op; so the runtime
//! builds the engine without a worker there, and every op runs inline on
//! the rank thread at its post.
//!
//! Design invariants, on top of the stream's own (FIFO, panic safety —
//! see [`Stream`]):
//!
//! * **FIFO = program order.** Post order equals the rank thread's
//!   program order, which is SPMD-identical on every rank. Collectives
//!   therefore hit the wire in exactly the order the rank issued them:
//!   tag matching, byte accounting, and
//!   [`CommStats`](crate::CommStats) snapshots are independent of when
//!   the worker gets to each op.
//! * **One thread on the wire.** While handles are outstanding, only the
//!   worker touches the communicator's channels; the executor resolves
//!   every handle before issuing its own rank-thread collectives. Two
//!   threads draining one tagged channel would interleave payloads.

use crate::group::Communicator;
use crate::stream::{Pending, Stream};
use fpdt_trace::Recorder;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The per-rank communication stream: ops run FIFO on the
/// `fpdt-comm-r{rank}` worker while the rank thread computes, or inline
/// on the rank thread at their post when the engine has no worker (same
/// order, same results, same statistics; a failed thread spawn degrades
/// to the same form).
#[derive(Debug)]
pub struct CommEngine {
    comm: Arc<Communicator>,
    stream: Stream,
    /// Simulated link bandwidth every op is charged at, GB/s (0 = free).
    gbps: f64,
    recorder: Option<Recorder>,
    posted: AtomicU64,
    retries: usize,
}

impl CommEngine {
    /// Creates the stream for one rank over a link of `gbps` GB/s (0 =
    /// free; see `fpdt_trace::wire`); `worker` spawns its
    /// `fpdt-comm-r{rank}` thread, else ops run inline.
    pub fn new(comm: Arc<Communicator>, worker: bool, gbps: f64) -> Self {
        let stream = if worker {
            Stream::spawn(format!("fpdt-comm-r{}", comm.rank()))
        } else {
            Stream::inline()
        };
        CommEngine {
            comm,
            stream,
            gbps,
            recorder: None,
            posted: AtomicU64::new(0),
            retries: 0,
        }
    }

    /// Whether ops run on a worker thread (false = inline on the poster).
    pub fn is_async(&self) -> bool {
        self.stream.is_async()
    }

    /// Sets the replay budget for [`CommEngine::post_replayed`] — how many
    /// extra attempts a [retryable](crate::CommError::is_retryable) failure
    /// buys before it surfaces. The knob behind
    /// `RuntimeOptions::comm_retries`.
    pub fn set_retries(&mut self, retries: usize) {
        self.retries = retries;
    }

    /// Attaches a span recorder: posts record `comm.post` on the posting
    /// thread (program order), execution records `comm.inflight` (wire
    /// occupancy — the interval the overlap metric intersects with
    /// compute), and blocked resolutions record `comm.wait`.
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
        self.posted.load(Ordering::Relaxed)
    }

    /// Posts one collective to the stream: the single generic payload
    /// entrypoint. `op` receives the communicator on the worker and its
    /// result travels back through the returned handle. `bytes` sizes the
    /// `comm.{post,inflight,wait}` spans.
    pub fn post<T, F>(&self, bytes: u64, op: F) -> Pending<T>
    where
        T: Send + 'static,
        F: FnOnce(&Communicator) -> T + Send + 'static,
    {
        self.posted.fetch_add(1, Ordering::Relaxed);
        let _post = self
            .recorder
            .as_ref()
            .map(|r| r.span("comm.post").bytes(bytes));
        let comm = Arc::clone(&self.comm);
        let rec = self.recorder.clone();
        let gbps = self.gbps;
        self.stream
            .post(move || {
                let _inflight = rec.map(|r| r.span("comm.inflight").bytes(bytes));
                let out = op(&comm);
                // Simulated NIC occupancy (default off): holds the wire for
                // time proportional to the payload bytes, inside the
                // inflight span, on the worker — hidden behind whatever the
                // rank computes meanwhile.
                fpdt_trace::wire::simulate_at(bytes, gbps);
                out
            })
            .traced(self.recorder.as_ref(), "comm.wait", bytes)
    }

    /// Posts a *replayable* collective: on a
    /// [retryable](crate::CommError::is_retryable) failure the op is
    /// re-invoked on the stream, up to the [`CommEngine::set_retries`]
    /// budget. The closure is `Fn` (not `FnOnce`) precisely so a replay is
    /// possible — it must read its captures by reference and perform the
    /// whole collective each attempt, which is idempotent because
    /// collectives fail only before their first send. Each replay records
    /// a `comm.retry` span and tallies `CommStats::retries`.
    pub fn post_replayed<T, F>(&self, bytes: u64, op: F) -> Pending<crate::Result<T>>
    where
        T: Send + 'static,
        F: Fn(&Communicator) -> crate::Result<T> + Send + 'static,
    {
        let budget = self.retries;
        let rec = self.recorder.clone();
        self.post(bytes, move |comm| {
            comm.retrying(budget, |c| {
                let out = op(c);
                if let Err(e) = &out {
                    if e.is_retryable() {
                        if let Some(r) = &rec {
                            let at = r.now_us();
                            r.record("comm.retry", at, 0.0, Some(bytes));
                        }
                    }
                }
                out
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CommGroup;

    // FIFO order, panic carry, handle drop and queue-survives-drop are the
    // stream's own tests (`crate::stream`); these cover what the engine
    // adds: the communicator, the post counter and replay.

    fn solo_comm() -> Arc<Communicator> {
        Arc::new(CommGroup::new(1).communicators().pop().expect("rank 0"))
    }

    #[test]
    fn posted_ops_really_use_the_wire() {
        for worker in [true, false] {
            let engine = CommEngine::new(solo_comm(), worker, 0.0);
            assert_eq!(engine.is_async(), worker);
            let h = engine.post(4, |comm| {
                comm.all_to_all(vec![vec![42.0]]).map(|mut r| r.remove(0))
            });
            assert_eq!(h.wait().unwrap(), vec![42.0]);
            assert_eq!(engine.comm().stats().op("all_to_all").unwrap().sends, 1);
            assert_eq!(engine.posted(), 1);
        }
    }

    #[test]
    fn posts_record_post_and_inflight_spans() {
        let mut engine = CommEngine::new(solo_comm(), true, 0.0);
        let rec = Recorder::new();
        engine.set_recorder(rec.clone());
        engine.post(16, |_| ()).wait();
        assert_eq!(rec.count("comm.post"), 1);
        assert_eq!(rec.total_bytes("comm.inflight"), 16);
        assert!(rec.count("comm.wait") <= 1, "at most the one blocked wait");
    }

    #[test]
    fn each_op_holds_the_link_at_the_engine_bandwidth() {
        // 1 MiB at 0.05 GB/s is ~21 ms of wire inside the inflight span;
        // the same op over a free link charges nothing.
        let bytes = 1u64 << 20;
        for (gbps, slow) in [(0.05, true), (0.0, false)] {
            let mut engine = CommEngine::new(solo_comm(), false, gbps);
            let rec = Recorder::new();
            engine.set_recorder(rec.clone());
            engine.post(bytes, |_| ()).wait();
            let want_us = fpdt_trace::wire::sleep_us_for(bytes, 0.05);
            let inflight_us = rec.total_us("comm.inflight");
            let held = inflight_us >= want_us * 0.8;
            assert_eq!(held, slow, "{gbps} GB/s: {inflight_us} us");
        }
    }

    #[test]
    fn replayed_post_retries_transient_faults() {
        let comm = solo_comm();
        comm.inject_fault("all_to_all", 2);
        let mut engine = CommEngine::new(Arc::clone(&comm), true, 0.0);
        engine.set_retries(2);
        let h = engine.post_replayed(4, |comm| {
            comm.all_to_all(vec![vec![9.0]]).map(|mut r| r.remove(0))
        });
        assert_eq!(h.wait().unwrap(), vec![9.0]);
        let stats = comm.stats();
        assert_eq!(stats.faults, 2);
        assert_eq!(stats.retries, 2);
        // The two failed attempts moved no bytes: traffic counts one op.
        assert_eq!(stats.op("all_to_all").unwrap().sends, 1);
    }

    #[test]
    fn replayed_post_surfaces_exhausted_budget() {
        let comm = solo_comm();
        comm.inject_fault("all_to_all", 3);
        let mut engine = CommEngine::new(Arc::clone(&comm), true, 0.0);
        engine.set_retries(1);
        let h = engine.post_replayed(4, |comm| {
            comm.all_to_all(vec![vec![1.0]]).map(|mut r| r.remove(0))
        });
        assert!(matches!(
            h.wait(),
            Err(crate::CommError::Transient { op: "all_to_all" })
        ));
    }
}
