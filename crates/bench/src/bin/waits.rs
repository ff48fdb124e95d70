//! Exposed stream waits by pipeline slot, read from a runtime Chrome
//! trace through `fpdt_trace::metrics::waits_by_slot`: per rank thread,
//! `offload.wait` and `comm.wait` in milliseconds per optimizer step, by
//! block (`block.fwd` / `block.bwd`) and place: the slot index, else the
//! label of the `dense.*` span the wait sits in (the block's dense half
//! streams over the attention's chunks), else `tail`.
//!
//! ```sh
//! cargo run -q --release -p fpdt-bench --bin waits -- benchmark/out/fpdt_link.trace.json
//! ```
//!
//! When the trace holds `bench.segment.*` windows (the repo benchmark's
//! timed segments), only spans that start inside one count. A rank's
//! steps are its `opt.adamw` spans.

use fpdt_trace::metrics::{waits_by_slot, WaitPlace};
use fpdt_trace::SpanRecord;
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::exit;

fn field<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    match v {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::Float(x)) => *x,
        Some(Value::Int(i)) => *i as f64,
        Some(Value::UInt(u)) => *u as f64,
        _ => 0.0,
    }
}

fn text(v: Option<&Value>) -> &str {
    match v {
        Some(Value::Str(s)) => s,
        _ => "",
    }
}

fn fail(msg: String) -> ! {
    eprintln!("waits: {msg}");
    exit(2)
}

fn main() {
    let Some(path) = std::env::args().nth(1) else {
        fail("usage: waits <trace.json>".into())
    };
    let doc = std::fs::read_to_string(&path).unwrap_or_else(|e| fail(format!("{path}: {e}")));
    let doc = serde_json::from_str(&doc).unwrap_or_else(|e| fail(format!("{path}: {e}")));
    let Some(Value::Array(events)) = field(&doc, "traceEvents") else {
        fail(format!("{path}: no traceEvents array"))
    };
    let mut names: BTreeMap<u64, String> = BTreeMap::new();
    let mut spans: Vec<SpanRecord> = Vec::new();
    for e in events {
        let tid = number(field(e, "tid")) as u64;
        match text(field(e, "ph")) {
            "M" if text(field(e, "name")) == "thread_name" => {
                names.insert(
                    tid,
                    text(field(e, "args").and_then(|a| field(a, "name"))).to_string(),
                );
            }
            "X" => spans.push(SpanRecord {
                label: text(field(e, "name")).to_string(),
                tid,
                start_us: number(field(e, "ts")),
                dur_us: number(field(e, "dur")),
                bytes: None,
            }),
            _ => {}
        }
    }
    let windows: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.label.starts_with("bench.segment."))
        .map(|s| (s.start_us, s.start_us + s.dur_us))
        .collect();
    if !windows.is_empty() {
        spans.retain(|s| {
            windows
                .iter()
                .any(|&(a, b)| s.start_us >= a && s.start_us < b)
        });
    }
    let steps = |tid: u64| {
        spans
            .iter()
            .filter(|s| s.tid == tid && s.label == "opt.adamw")
            .count()
    };
    println!(
        "{:<14} {:<9} {:>14} {:>6} {:>21} {:>18}",
        "thread", "block", "place", "steps", "offload.wait ms/step", "comm.wait ms/step"
    );
    let thread = |tid: u64| {
        names
            .get(&tid)
            .cloned()
            .unwrap_or_else(|| format!("tid {tid}"))
    };
    let mut rows = waits_by_slot(&spans);
    // By thread name (`fpdt-rank-r0` first), keeping block and place order.
    rows.sort_by_key(|row| thread(row.tid));
    for row in rows {
        let n = steps(row.tid);
        let per = n.max(1) as f64 * 1e3;
        let thread = thread(row.tid);
        let place = match &row.place {
            WaitPlace::Slot(s) => s.to_string(),
            WaitPlace::Dense(label) => label.clone(),
            WaitPlace::Tail => "tail".to_string(),
        };
        println!(
            "{thread:<14} {:<9} {place:>14} {n:>6} {:>21.2} {:>18.2}",
            row.block,
            row.offload_wait_us / per,
            row.comm_wait_us / per
        );
    }
}
