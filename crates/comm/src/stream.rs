//! The one asynchronous stream type: a named worker thread draining a
//! FIFO of jobs, each resolved through a [`Pending`] handle.
//!
//! Both per-rank streams are thin users of it — [`CommEngine`]
//! (`fpdt-comm-r{rank}`, one simulated NIC queue) and `fpdt-core`'s
//! `OffloadEngine` (the copy streams, one simulated PCIe direction each).
//!
//! * **FIFO = post order.** One worker runs jobs in the order they were
//!   posted, so a stream never reorders what the rank thread issued.
//! * **Dedicated worker, not the kernel pool.** A job may *block* — a
//!   collective on its peers, a transfer on the simulated link. Parked on
//!   a shared kernel-pool worker it could starve the rank it waits for
//!   (every pool slot held by a blocked job = deadlock), and at a budget
//!   of one thread per rank the pool has no worker to lend at all. A
//!   worker per stream never competes with kernels for a slot.
//! * **Panic safety.** A panicking job is caught on the worker, carried
//!   through the handle and re-raised at [`Pending::wait`]; the worker
//!   survives to drain the rest of the queue, so no rank hangs on a
//!   half-dead stream.
//! * **A worker lives as long as its stream.** Dropping a stream drains
//!   its queue, then the worker exits and is joined. Streams live as long
//!   as the engines that own them, and those as long as their rank
//!   session, so no thread is spawned per training call.
//!
//! [`CommEngine`]: crate::CommEngine

use fpdt_trace::Recorder;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

type Job = Box<dyn FnOnce() + Send>;

#[derive(Debug)]
struct Slot<T> {
    value: Mutex<Option<std::thread::Result<T>>>,
    cv: Condvar,
}

/// Handle to a posted job; resolves when its result is needed.
///
/// Dropping a handle without waiting discards the result (the job still
/// runs — FIFO ordering on the stream is unaffected). If the job
/// panicked, [`Pending::wait`] re-raises the panic on the caller.
#[derive(Debug)]
pub struct Pending<T> {
    slot: Arc<Slot<T>>,
    /// Where blocked time goes: recorder, span label, payload bytes.
    wait_span: Option<(Recorder, &'static str, u64)>,
}

impl<T> Pending<T> {
    /// Records the time [`Pending::wait`] spends *blocked* as a `label`
    /// span of `bytes` on `recorder` (no recorder, no span).
    #[must_use]
    pub fn traced(mut self, recorder: Option<&Recorder>, label: &'static str, bytes: u64) -> Self {
        self.wait_span = recorder.map(|r| (r.clone(), label, bytes));
        self
    }

    /// Whether the result is available without blocking.
    pub fn is_ready(&self) -> bool {
        // A poisoned slot means a waiter died mid-wait; the stored result
        // (if any) is still valid, so recover the guard instead of
        // cascading the panic onto this thread.
        self.slot
            .value
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }

    /// Blocks until the job completes and returns its result. Only
    /// blocked time is recorded (see [`Pending::traced`]) — an
    /// already-resolved handle records nothing, so a fully hidden stream
    /// shows zero wait.
    ///
    /// # Panics
    ///
    /// Re-raises the job's panic, if it panicked on the stream.
    pub fn wait(self) -> T {
        // Lock poisoning (a sibling waiter dying with the guard held)
        // must not take this rank down with it: recover the guard — the
        // slot's contents are a plain `Option` and stay coherent.
        let mut value = self.slot.value.lock().unwrap_or_else(|e| e.into_inner());
        let mut blocked: Option<(f64, Instant)> = None;
        loop {
            if let Some(out) = value.take() {
                if let (Some((start_us, t0)), Some((rec, label, bytes))) = (blocked, &self.wait_span) {
                    rec.record(label, start_us, t0.elapsed().as_secs_f64() * 1e6, Some(*bytes));
                }
                return out.unwrap_or_else(|panic| resume_unwind(panic));
            }
            if blocked.is_none() {
                blocked = self.wait_span.as_ref().map(|(r, ..)| (r.now_us(), Instant::now()));
            }
            value = self.slot.cv.wait(value).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A FIFO job queue: drained by a dedicated worker thread
/// ([`Stream::spawn`]) or executed on the posting thread
/// ([`Stream::inline`]; same program order, every handle resolved before
/// `post` returns). The inline form is not a runtime mode: it is the
/// spawn-failure fallback and the worker-less stream of an engine that
/// never moves a byte (the offload-off executor's copy streams).
#[derive(Debug)]
pub struct Stream {
    /// The sending half of the worker's queue, and the worker.
    worker: Option<(Sender<Job>, JoinHandle<()>)>,
}

impl Stream {
    /// A stream without a worker: every job runs inside [`Stream::post`].
    pub fn inline() -> Self {
        Stream { worker: None }
    }

    /// A stream drained by a new worker thread called `name`. Thread
    /// exhaustion degrades to [`Stream::inline`] with a warning — slower,
    /// never wrong (same FIFO program order).
    pub fn spawn(name: String) -> Self {
        let (tx, rx) = channel::<Job>();
        // The worker cannot panic — every job reaches it wrapped in
        // `catch_unwind` by `post` — and it exits once the stream drops
        // the sending half and the queue is empty.
        let spawned = std::thread::Builder::new().name(name.clone()).spawn(move || {
            while let Ok(job) = rx.recv() {
                job();
            }
        });
        match spawned {
            Ok(handle) => Stream {
                worker: Some((tx, handle)),
            },
            Err(e) => {
                eprintln!("warning: stream worker {name} failed to spawn ({e}); running its jobs inline");
                Stream::inline()
            }
        }
    }

    /// Whether jobs run on a worker thread (false = inline).
    pub fn is_async(&self) -> bool {
        self.worker.is_some()
    }

    /// Queues `job` behind everything posted before it; the result (or
    /// the job's panic) travels back through the returned handle.
    pub fn post<T, F>(&self, job: F) -> Pending<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let pending = Pending {
            slot: Arc::new(Slot {
                value: Mutex::new(None),
                cv: Condvar::new(),
            }),
            wait_span: None,
        };
        let done = Arc::clone(&pending.slot);
        let run = move || {
            // `job` (and what it captured) is dropped before the slot
            // fills: a resolved handle means the stream holds no more
            // references to the payload.
            let out = catch_unwind(AssertUnwindSafe(job));
            // The lock can only be poisoned by a waiter dying mid-wait, in
            // which case nobody is left to read the slot — storing anyway
            // keeps the worker alive for the rest of the queue.
            *done.value.lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
            done.cv.notify_all();
        };
        match &self.worker {
            // A send only fails when the worker is gone (receiver
            // dropped); the job comes back in the error, so fail over to
            // the caller thread — later posts take the same path, which
            // preserves FIFO program order.
            Some((tx, _)) => {
                if let Err(returned) = tx.send(Box::new(run)) {
                    (returned.0)();
                }
            }
            None => run(),
        }
        pending
    }
}

impl Drop for Stream {
    /// Closes the queue and joins the worker once it has run every queued
    /// job — outstanding handles stay resolvable after the stream dies.
    fn drop(&mut self) {
        if let Some((tx, worker)) = self.worker.take() {
            drop(tx);
            // The worker never panics (see `spawn`); there is nothing to
            // re-raise.
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_resolve_in_any_order_but_execute_fifo() {
        let stream = Stream::spawn("test-stream".to_string());
        assert!(stream.is_async());
        let log: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<Pending<usize>> = (0..10)
            .map(|i| {
                let log = Arc::clone(&log);
                stream.post(move || {
                    log.lock().unwrap().push(i);
                    i
                })
            })
            .collect();
        // Resolve newest-first: execution order must still be post order.
        for (i, h) in handles.into_iter().enumerate().rev() {
            assert_eq!(h.wait(), i);
        }
        assert_eq!(*log.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_run_on_the_named_worker_not_the_caller() {
        let stream = Stream::spawn("test-worker".to_string());
        let name = stream.post(|| std::thread::current().name().map(str::to_string));
        assert_eq!(name.wait().as_deref(), Some("test-worker"));
    }

    #[test]
    fn inline_stream_resolves_before_post_returns() {
        let stream = Stream::inline();
        assert!(!stream.is_async());
        let caller = std::thread::current().id();
        let h = stream.post(move || std::thread::current().id() == caller);
        assert!(h.is_ready(), "inline post resolves before returning");
        assert!(h.wait(), "and runs on the posting thread");
    }

    #[test]
    fn panicking_job_reraises_at_wait_and_stream_survives() {
        for stream in [Stream::spawn("test-panic".to_string()), Stream::inline()] {
            let bad: Pending<()> = stream.post(|| panic!("injected"));
            let good = stream.post(|| 7usize);
            let err = catch_unwind(AssertUnwindSafe(|| bad.wait()));
            assert!(err.is_err(), "panic carried through the handle");
            // FIFO continues past the corpse.
            assert_eq!(good.wait(), 7);
        }
    }

    #[test]
    fn dropping_a_handle_does_not_stall_the_stream() {
        let stream = Stream::spawn("test-drop".to_string());
        drop(stream.post(|| 1usize));
        assert_eq!(stream.post(|| 2usize).wait(), 2);
    }

    #[test]
    fn queued_jobs_survive_stream_drop() {
        let handle;
        {
            let stream = Stream::spawn("test-queued".to_string());
            handle = stream.post(|| 11usize);
        } // drop drains the queue before it joins the worker
        assert_eq!(handle.wait(), 11);
    }

    #[test]
    fn dropping_a_stream_drains_it_and_ends_its_worker() {
        /// Reports its thread's exit: thread-locals drop as the thread ends.
        struct OnExit(Sender<()>);
        impl Drop for OnExit {
            fn drop(&mut self) {
                let _ = self.0.send(());
            }
        }
        thread_local! {
            static EXIT: std::cell::RefCell<Option<OnExit>> = const { std::cell::RefCell::new(None) };
        }
        let stream = Stream::spawn("test-exit".to_string());
        let (exited, rx) = channel::<()>();
        drop(stream.post(move || EXIT.with(|e| *e.borrow_mut() = Some(OnExit(exited)))));
        let slow = stream.post(|| std::thread::sleep(std::time::Duration::from_millis(20)));
        drop(stream);
        assert!(slow.is_ready(), "drop waited for the queue");
        assert_eq!(rx.try_recv(), Ok(()), "the worker thread is gone");
    }

    #[test]
    fn only_blocked_waits_record_a_span() {
        let rec = Recorder::new();
        let stream = Stream::spawn("test-wait".to_string());
        // The job cannot finish before the gate opens, and the gate opens
        // long after this thread has entered `wait`: the wait blocks.
        let (open, gate) = channel::<()>();
        let slow = stream
            .post(move || gate.recv().is_ok())
            .traced(Some(&rec), "test.wait", 64);
        let opener = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            open.send(()).expect("job alive");
        });
        assert!(slow.wait());
        opener.join().unwrap();
        assert_eq!(rec.count("test.wait"), 1, "blocked wait recorded");
        assert_eq!(rec.total_bytes("test.wait"), 64);
        // A handle whose job already finished records nothing.
        let done = stream.post(|| 3u8).traced(Some(&rec), "test.wait", 1);
        while !done.is_ready() {
            std::thread::yield_now();
        }
        assert_eq!(done.wait(), 3);
        assert_eq!(rec.count("test.wait"), 1, "no span without blocking");
    }
}
