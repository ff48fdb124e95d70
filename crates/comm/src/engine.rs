//! Asynchronous communication stream: one simulated NIC link per rank.
//!
//! A [`CommEngine`] posts collectives on a [`Stream`] whose dedicated
//! worker (`fpdt-comm-r{rank}`) executes them strictly in FIFO order —
//! the model of a single NIC queue, symmetric to the offload runtime's
//! copy streams. The executor posts chunk `i+1`'s QKV all-to-all before
//! chunk `i`'s online-softmax update runs and resolves the returned
//! [`Pending`] handle at the point the gathered tensor is first needed,
//! so the wire time hides behind compute (the second half of paper
//! Figure 13's overlap story; Ulysses comm is the dominant non-compute
//! cost the paper's §2.2 analysis identifies).
//!
//! Design invariants, on top of the stream's own (FIFO, dedicated
//! worker, panic safety — see [`Stream`]):
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

/// The per-rank asynchronous communication stream: ops run FIFO on the
/// `fpdt-comm-r{rank}` worker while the rank thread computes. There is no
/// synchronous mode; only a failed thread spawn degrades the stream to
/// running each op inline on the caller (same order, same results).
#[derive(Debug)]
pub struct CommEngine {
    comm: Arc<Communicator>,
    stream: Stream,
    recorder: Option<Recorder>,
    posted: AtomicU64,
    retries: usize,
}

impl CommEngine {
    /// Creates the stream for one rank, with its worker.
    pub fn new(comm: Arc<Communicator>) -> Self {
        let stream = Stream::spawn(format!("fpdt-comm-r{}", comm.rank()));
        CommEngine {
            comm,
            stream,
            recorder: None,
            posted: AtomicU64::new(0),
            retries: 0,
        }
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
        self.stream
            .post(move || {
                let _inflight = rec.map(|r| r.span("comm.inflight").bytes(bytes));
                let out = op(&comm);
                // Simulated NIC occupancy (`FPDT_SIM_GBPS`, default off):
                // holds the wire for time proportional to the payload
                // bytes, inside the inflight span, on the worker — hidden
                // behind whatever the rank computes meanwhile.
                fpdt_trace::wire::simulate(bytes);
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
        let engine = CommEngine::new(solo_comm());
        let h = engine.post(4, |comm| {
            comm.all_to_all(vec![vec![42.0]]).map(|mut r| r.remove(0))
        });
        assert_eq!(h.wait().unwrap(), vec![42.0]);
        assert_eq!(engine.comm().stats().op("all_to_all").unwrap().sends, 1);
        assert_eq!(engine.posted(), 1);
    }

    #[test]
    fn posts_record_post_and_inflight_spans() {
        let mut engine = CommEngine::new(solo_comm());
        let rec = Recorder::new();
        engine.set_recorder(rec.clone());
        engine.post(16, |_| ()).wait();
        assert_eq!(rec.count("comm.post"), 1);
        assert_eq!(rec.total_bytes("comm.inflight"), 16);
        assert!(rec.count("comm.wait") <= 1, "at most the one blocked wait");
    }

    #[test]
    fn replayed_post_retries_transient_faults() {
        let comm = solo_comm();
        comm.inject_fault("all_to_all", 2);
        let mut engine = CommEngine::new(Arc::clone(&comm));
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
        let mut engine = CommEngine::new(Arc::clone(&comm));
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
