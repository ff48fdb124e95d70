//! Wall-clock spans for the real (thread-based) runtime: a lightweight
//! RAII API in the spirit of tracing's spans, recording into a shared
//! buffer that exports to the same Chrome-trace format as the simulator.
//!
//! ```
//! use fpdt_trace::Recorder;
//!
//! let rec = Recorder::new();
//! {
//!     let _s = rec.span("attn.chunk").bytes(1 << 20);
//!     // ... work ...
//! } // recorded on drop
//! assert_eq!(rec.records().len(), 1);
//! ```

use crate::json::{esc, num};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// One completed wall-clock span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span label, dotted by convention (`"a2a.fwd"`, `"offload.fetch"`).
    pub label: String,
    /// Small integer identifying the recording thread.
    pub tid: u64,
    /// Start offset from the recorder's epoch, microseconds.
    pub start_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
    /// Optional payload size attached with [`Span::bytes`].
    pub bytes: Option<u64>,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    // tid = position in first-record order. A map keyed by `ThreadId`
    // would iterate in hash order somewhere eventually; a Vec has exactly
    // one order, and `ThreadId` has no `Ord` to offer a BTreeMap anyway.
    // The thread's name, if it has one, labels its Chrome-trace track. A
    // virtual track (see [`Recorder::record_on`]) has a name and no thread.
    threads: Mutex<Vec<(Option<ThreadId>, Option<String>)>>,
}

/// A shared, thread-safe span sink. Cloning is cheap and clones record
/// into the same buffer, so one recorder can be handed to every rank.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A fresh recorder; its epoch (t=0) is the moment of creation.
    pub fn new() -> Self {
        Recorder {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                spans: Mutex::new(Vec::new()),
                threads: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Opens a span; it is recorded when the returned guard drops.
    pub fn span(&self, label: &str) -> Span {
        Span {
            recorder: self.clone(),
            label: label.to_string(),
            bytes: None,
            started: Instant::now(),
        }
    }

    /// Records a span directly (for callers that already measured).
    pub fn record(&self, label: &str, start_us: f64, dur_us: f64, bytes: Option<u64>) {
        let me = std::thread::current();
        let tid = self.track(Some(me.id()), me.name());
        self.push(tid, label, start_us, dur_us, bytes);
    }

    /// Records a span on the virtual track `track` rather than on the
    /// calling thread: the track is a tid of its own, titled `track` in
    /// the Chrome trace. The simulated links record their transfer
    /// intervals this way (`fpdt-comm-r0`, `fpdt-h2d-r0`, ...), so stream
    /// busy time sits off the rank threads without a thread to run it.
    pub fn record_on(
        &self,
        track: &str,
        label: &str,
        start_us: f64,
        dur_us: f64,
        bytes: Option<u64>,
    ) {
        let tid = self.track(None, Some(track));
        self.push(tid, label, start_us, dur_us, bytes);
    }

    fn push(&self, tid: u64, label: &str, start_us: f64, dur_us: f64, bytes: Option<u64>) {
        self.inner
            .spans
            .lock()
            .expect("span buffer")
            .push(SpanRecord {
                label: label.to_string(),
                tid,
                start_us,
                dur_us,
                bytes,
            });
    }

    /// Records an instantaneous event: a zero-duration span stamped at the
    /// current time. Recovery paths use this to mark retries and rollbacks
    /// (`recover.retry`, `recover.rollback`) so [`Recorder::count`] can
    /// assert how often fault handling actually fired.
    pub fn event(&self, label: &str) {
        let at = self.now_us();
        self.record(label, at, 0.0, None);
    }

    /// Microseconds elapsed since the recorder's epoch.
    pub fn now_us(&self) -> f64 {
        self.at_us(Instant::now())
    }

    /// Microseconds from the recorder's epoch to `at` (which may lie in
    /// the future: a queued transfer's end).
    pub fn at_us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.inner.epoch).as_secs_f64() * 1e6
    }

    /// Snapshot of everything recorded so far.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.inner.spans.lock().expect("span buffer").clone()
    }

    /// Renders the recorded spans as a Chrome-trace JSON document
    /// (pid 1 = "fpdt-runtime", one tid per recording thread or virtual
    /// track; a named thread — the rank sessions `fpdt-rank-r0`, ... — or
    /// a virtual track — the links `fpdt-comm-r0`, `fpdt-h2d-r0`, ... —
    /// keeps its name as the track title, unnamed ones show `rank{tid}`).
    pub fn chrome_trace_json(&self) -> String {
        let spans = self.records();
        let mut events: Vec<String> = vec![
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"fpdt-runtime\"}}"
                .to_string(),
        ];
        let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        let threads = self.inner.threads.lock().expect("thread table");
        for tid in tids {
            let name = match threads.get(tid as usize) {
                Some((_, Some(name))) => name.clone(),
                _ => format!("rank{tid}"),
            };
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":{}}}}}",
                esc(&name)
            ));
        }
        drop(threads);
        for s in &spans {
            let args = match s.bytes {
                Some(b) => format!("{{\"bytes\":{b}}}"),
                None => "{}".to_string(),
            };
            events.push(format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{},\"args\":{}}}",
                esc(&s.label),
                esc(s.label.split('.').next().unwrap_or("span")),
                num(s.start_us),
                num(s.dur_us),
                s.tid,
                args
            ));
        }
        format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}",
            events.join(",\n")
        )
    }

    /// Total duration recorded under labels starting with `prefix`, µs.
    pub fn total_us(&self, prefix: &str) -> f64 {
        self.records()
            .iter()
            .filter(|s| s.label.starts_with(prefix))
            .map(|s| s.dur_us)
            .sum()
    }

    /// Number of spans recorded under labels starting with `prefix` —
    /// schedule audits ("exactly one `comm.post` per chunk") count spans,
    /// not time.
    pub fn count(&self, prefix: &str) -> usize {
        self.records()
            .iter()
            .filter(|s| s.label.starts_with(prefix))
            .count()
    }

    /// Total payload bytes recorded under labels starting with `prefix`
    /// (spans without a [`Span::bytes`] payload contribute nothing).
    pub fn total_bytes(&self, prefix: &str) -> u64 {
        self.records()
            .iter()
            .filter(|s| s.label.starts_with(prefix))
            .filter_map(|s| s.bytes)
            .sum()
    }

    /// The tid of a thread (`id`), or of the virtual track `name`.
    fn track(&self, id: Option<ThreadId>, name: Option<&str>) -> u64 {
        let mut threads = self.inner.threads.lock().expect("thread table");
        let found = match id {
            Some(id) => threads.iter().position(|(t, _)| *t == Some(id)),
            None => threads
                .iter()
                .position(|(t, n)| t.is_none() && n.as_deref() == name),
        };
        found.unwrap_or_else(|| {
            threads.push((id, name.map(str::to_string)));
            threads.len() - 1
        }) as u64
    }
}

/// RAII guard returned by [`Recorder::span`]; records on drop.
#[derive(Debug)]
pub struct Span {
    recorder: Recorder,
    label: String,
    bytes: Option<u64>,
    started: Instant,
}

impl Span {
    /// Attaches a payload size to the span (e.g. collective bytes).
    pub fn bytes(mut self, bytes: u64) -> Self {
        self.bytes = Some(bytes);
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let start_us = self
            .started
            .duration_since(self.recorder.inner.epoch)
            .as_secs_f64()
            * 1e6;
        let dur_us = self.started.elapsed().as_secs_f64() * 1e6;
        self.recorder
            .record(&self.label, start_us, dur_us, self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_on_drop() {
        let rec = Recorder::new();
        {
            let _a = rec.span("a2a.fwd").bytes(4096);
            let _b = rec.span("attn.chunk");
        }
        let mut labels: Vec<String> = rec.records().into_iter().map(|s| s.label).collect();
        labels.sort();
        assert_eq!(labels, ["a2a.fwd", "attn.chunk"]);
        let trace = rec.chrome_trace_json();
        assert!(trace.contains("\"a2a.fwd\""));
        assert!(trace.contains("\"bytes\":4096"));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test records from threads of its own"
    )]
    fn clones_share_one_buffer_across_threads() {
        let rec = Recorder::new();
        std::thread::scope(|s| {
            for i in 0..4 {
                let r = rec.clone();
                s.spawn(move || {
                    let _sp = r.span(&format!("rank{i}.step"));
                });
            }
        });
        let recs = rec.records();
        assert_eq!(recs.len(), 4);
        // Threads got distinct tids.
        let mut tids: Vec<u64> = recs.iter().map(|r| r.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 4);
    }

    #[test]
    fn chrome_trace_emission_is_deterministic() {
        // The Chrome-trace document must be byte-identical for identical
        // records: tid assignment is first-record order (not hash order),
        // and every list in the renderer is explicitly ordered. This is
        // the emission-side guard backing the golden schedule digests.
        let render = || {
            let rec = Recorder::new();
            rec.record("comm.post", 0.0, 2.0, Some(8));
            rec.record("kernel.attn.update", 2.0, 5.0, None);
            rec.record("offload.fetch", 7.0, 1.5, Some(4096));
            rec.chrome_trace_json()
        };
        let a = render();
        assert_eq!(a, render(), "same records must render the same bytes");
        // Record order is preserved verbatim in the event stream.
        let (p1, p2) = (
            a.find("comm.post").expect("first span present"),
            a.find("offload.fetch").expect("last span present"),
        );
        assert!(p1 < p2, "events emit in record order");
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test records from threads of its own"
    )]
    fn tids_assign_in_first_record_order() {
        let rec = Recorder::new();
        rec.record("main.first", 0.0, 1.0, None);
        std::thread::scope(|s| {
            s.spawn(|| rec.record("worker.second", 1.0, 1.0, None))
                .join()
                .expect("worker records");
        });
        rec.record("main.third", 2.0, 1.0, None);
        let recs = rec.records();
        assert_eq!(recs[0].tid, 0, "first recording thread gets tid 0");
        assert_eq!(recs[1].tid, 1, "second thread gets the next tid");
        assert_eq!(recs[2].tid, 0, "a thread keeps its tid on reuse");
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test records from threads of its own"
    )]
    fn named_threads_title_their_chrome_trace_track() {
        let rec = Recorder::new();
        rec.record("block.fwd", 0.0, 1.0, None);
        let worker = rec.clone();
        std::thread::Builder::new()
            .name("fpdt-rank-r0".to_string())
            .spawn(move || worker.record("block.bwd", 1.0, 1.0, None))
            .expect("spawn")
            .join()
            .expect("worker records");
        let trace = rec.chrome_trace_json();
        // The test harness names this thread after the test.
        assert!(trace.contains("\"tid\":1,\"args\":{\"name\":\"fpdt-rank-r0\"}"));
        assert!(!trace.contains("\"name\":\"rank1\""));
    }

    #[test]
    fn virtual_tracks_are_tids_of_their_own_titled_by_name() {
        let rec = Recorder::new();
        rec.record("block.fwd", 0.0, 1.0, None);
        rec.record_on("fpdt-h2d-r0", "offload.prefetch", 0.5, 2.0, Some(64));
        rec.record_on("fpdt-comm-r0", "comm.inflight", 0.5, 1.0, None);
        rec.record_on("fpdt-h2d-r0", "offload.prefetch", 2.5, 2.0, Some(64));
        let tids: Vec<u64> = rec.records().iter().map(|r| r.tid).collect();
        assert_eq!(
            tids,
            vec![0, 1, 2, 1],
            "one tid per track, none shared with a thread"
        );
        let trace = rec.chrome_trace_json();
        assert!(trace.contains("\"tid\":1,\"args\":{\"name\":\"fpdt-h2d-r0\"}"));
        assert!(trace.contains("\"tid\":2,\"args\":{\"name\":\"fpdt-comm-r0\"}"));
        // A future end (a queued transfer) converts like any other instant.
        let later = std::time::Instant::now() + std::time::Duration::from_millis(5);
        assert!(rec.at_us(later) >= rec.now_us() + 4_000.0);
    }

    #[test]
    fn totals_by_prefix() {
        let rec = Recorder::new();
        rec.record("offload.put", 0.0, 10.0, None);
        rec.record("offload.fetch", 10.0, 5.0, Some(64));
        rec.record("attn.chunk", 0.0, 100.0, Some(128));
        assert!((rec.total_us("offload.") - 15.0).abs() < 1e-9);
        assert_eq!(rec.total_bytes("offload."), 64);
        assert_eq!(rec.total_bytes("attn."), 128);
        assert_eq!(rec.count("offload."), 2);
        assert_eq!(rec.count("comm."), 0);
    }
}
