//! The device ledger's tables: each rank's device high-water and the host
//! pool's, in MiB, from real training runs.
//!
//! The binary installs [`TaggedAlloc`], so every allocation is billed to
//! the tag of the thread that made it (`fpdt_tensor::ledger`): a rank's
//! thread and the pool items it submits bill its device, the offload
//! engine's host copies bill the host pool. Each run trains
//! `tiny(layers, 64, 2, 64)` on two ranks for two steps at default
//! runtime options and reads `TrainReport::device_peak_bytes` and
//! `host_peak_bytes`. "a / b" is rank 0 / rank 1 where they differ; a
//! sent message is billed to its sender until the peer frees it.
//!
//! Three tables at sequence 8192 (and 4096 for the first): by mode, by
//! layer count, and by chunk count. After every run the binary checks
//! that each rank tag and the host tag hold exactly the bytes they held
//! before the `Trainer` was built.
//!
//! `--quick` (what `scripts/ci.sh` runs) instead checks that a one-rank
//! run with a known allocation pattern bills exactly, and trains three
//! small configurations with the same check after each drop; it prints
//! `LEDGER_OK` when both hold. `--sites` adds, for the first table's
//! `Fpdt{8,off}` run at sequence 8192, the live allocations of 4 KiB or
//! more at rank 0's peak, grouped by the first `fpdt_*` frames of their
//! allocation site (a backtrace per large allocation: slow, a
//! diagnostic).

use fpdt_bench::write_json;
use fpdt_core::runtime::{Mode, TrainConfig, Trainer};
use fpdt_model::config::ModelConfig;
use fpdt_tensor::ledger::{self, TaggedAlloc};
use fpdt_tensor::{par, KernelCtx};
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

#[global_allocator]
static ALLOC: Sites = Sites;

const MIB: f64 = (1u64 << 20) as f64;

/// One training run's marks.
#[derive(Debug, Clone, Serialize)]
struct Row {
    table: &'static str,
    label: String,
    seq: usize,
    layers: usize,
    chunks: usize,
    offload: bool,
    ac: bool,
    /// Per rank, bytes.
    device: Vec<u64>,
    host: u64,
}

impl Row {
    fn device_mib(&self) -> String {
        let cells: Vec<String> = self
            .device
            .iter()
            .map(|&b| format!("{:.2}", b as f64 / MIB))
            .collect();
        match cells.iter().all(|c| *c == cells[0]) {
            true => cells[0].clone(),
            false => cells.join(" / "),
        }
    }

    fn host_mib(&self) -> String {
        format!("{:.2}", self.host as f64 / MIB)
    }
}

fn mode_label(mode: Mode, ac: bool) -> String {
    let base = match mode {
        Mode::Fpdt {
            chunks,
            offload: true,
        } => format!("Fpdt{{{chunks},off}}"),
        Mode::Fpdt {
            chunks,
            offload: false,
        } => format!("Fpdt{{{chunks}}}"),
        other => format!("{other:?}"),
    };
    match ac {
        true => format!("{base} + AC"),
        false => base,
    }
}

/// The live bytes of every rank tag of a two-rank group and of the host.
fn live_tags(world: usize) -> Vec<u64> {
    (0..world)
        .map(ledger::rank_tag)
        .chain([ledger::HOST])
        .map(|t| ledger::usage(t).expect("TaggedAlloc is installed").live)
        .collect()
}

/// Trains one configuration for two steps and returns its marks, after
/// checking that the `Trainer`'s drop gave every rank tag and the host
/// tag back exactly the bytes they held before it was built.
fn run(table: &'static str, seq: usize, layers: usize, mode: Mode, ac: bool) -> Row {
    let world = 2;
    let cfg = TrainConfig {
        model: ModelConfig::tiny(layers, 64, 2, 64),
        world,
        seq,
        steps: 2,
        mode,
        activation_checkpoint: ac,
        ..TrainConfig::small(mode)
    };
    let before = live_tags(world);
    let mut trainer = Trainer::new(cfg);
    trainer.run_steps(2).expect("training runs");
    let report = trainer.report();
    let (device, host) = (report.device_peak_bytes.clone(), report.host_peak_bytes);
    // rank 0 made the report's gradients
    drop((report, trainer));
    let device = device.expect("TaggedAlloc is installed");
    let host = host.expect("TaggedAlloc is installed");
    let after = live_tags(world);
    assert_eq!(
        before,
        after,
        "{}: live bytes per rank tag and host before the Trainer and after its drop",
        mode_label(mode, ac)
    );
    let (chunks, offload) = match mode {
        Mode::Fpdt { chunks, offload } => (chunks, offload),
        _ => (1, false),
    };
    Row {
        table,
        label: mode_label(mode, ac),
        seq,
        layers,
        chunks,
        offload,
        ac,
        device,
        host,
    }
}

const fn fpdt(chunks: usize) -> Mode {
    Mode::Fpdt {
        chunks,
        offload: true,
    }
}

/// The modes of the first table, in column order.
const BY_MODE: [(Mode, bool); 7] = [
    (Mode::Ulysses, false),
    (fpdt(2), false),
    (fpdt(8), false),
    (fpdt(32), false),
    (
        Mode::Fpdt {
            chunks: 8,
            offload: false,
        },
        false,
    ),
    (Mode::Ulysses, true),
    (fpdt(8), true),
];

fn print_by_mode(rows: &[Row]) {
    let head: Vec<String> = BY_MODE.iter().map(|&(m, ac)| mode_label(m, ac)).collect();
    println!("## By mode (two layers)\n");
    println!("| seq | {} | host, Fpdt{{8,off}} |", head.join(" | "));
    println!("|---|{}---|", "---|".repeat(head.len()));
    for seq in [4096, 8192] {
        let cells: Vec<&Row> = rows
            .iter()
            .filter(|r| r.table == "mode" && r.seq == seq)
            .collect();
        let host = cells
            .iter()
            .find(|r| r.label == "Fpdt{8,off}")
            .map_or_else(String::new, |r| r.host_mib());
        let dev: Vec<String> = cells.iter().map(|r| r.device_mib()).collect();
        println!("| {seq} | {} | {host} |", dev.join(" | "));
    }
}

fn print_by_layers(rows: &[Row]) {
    println!("\n## By layer count (seq 8192)\n");
    println!("| layers | Ulysses | Fpdt{{8,off}} | Ulysses + AC | Fpdt{{8,off}} + AC | host, Fpdt{{8,off}} |");
    println!("|---|---|---|---|---|---|");
    for layers in [1, 2, 4] {
        let cells: Vec<&Row> = rows
            .iter()
            .filter(|r| r.table == "layers" && r.layers == layers)
            .collect();
        let host = cells
            .iter()
            .find(|r| r.label == "Fpdt{8,off}")
            .map_or_else(String::new, |r| r.host_mib());
        let dev: Vec<String> = cells.iter().map(|r| r.device_mib()).collect();
        println!("| {layers} | {} | {host} |", dev.join(" | "));
    }
}

const CHUNK_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];

fn print_by_chunks(rows: &[Row]) {
    println!("\n## By chunk count (seq 8192, two layers, Fpdt{{u,off}})\n");
    let head: Vec<String> = CHUNK_COUNTS.iter().map(usize::to_string).collect();
    println!("| u | {} |", head.join(" | "));
    println!("|---|{}", "---|".repeat(head.len()));
    for (name, ac) in [("no AC", false), ("AC", true)] {
        let dev: Vec<String> = rows
            .iter()
            .filter(|r| r.table == "chunks" && r.ac == ac)
            .map(Row::device_mib)
            .collect();
        println!("| {name} | {} |", dev.join(" | "));
    }
}

/// Starts the kernel pool's workers from this untagged thread at the
/// full thread budget, so no worker is spawned (and billed) inside a
/// rank later.
fn warm_pool() {
    let ctx = KernelCtx::current();
    let widest = KernelCtx {
        threads: ctx.threads.max(EXACT_THREADS),
        ..ctx
    };
    let mut rows = vec![0.0f32; 1 << 16];
    widest.enter(|| par::run_rows(&mut rows, 1, usize::MAX, |_, row| row[0] += 1.0));
}

/// The thread budget of the exactness check's fan-out.
const EXACT_THREADS: usize = 4;

/// A one-rank run with a known allocation pattern: every byte billed to
/// the rank's tag, and nothing else.
fn exactness() {
    let [(a, b, c, d, e)]: [(u64, u64, u64, u64, u64); 1] = fpdt_comm::run_group(1, |_comm| {
        let tag = ledger::tag();
        let live = || ledger::usage(tag).expect("TaggedAlloc is installed").live;
        let start = live();
        let mut v: Vec<u8> = Vec::with_capacity(1 << 20);
        let one = live() - start;
        v.reserve_exact(4 << 20); // a realloc stays billed to its tag
        let grown = live() - start;
        // pool items bill the submitting rank, on whichever thread
        let kept = Mutex::new(Vec::with_capacity(64));
        let mut rows = vec![0.0f32; 64];
        let wide = KernelCtx {
            threads: EXACT_THREADS,
            par_threshold: 1,
            ..KernelCtx::current()
        };
        wide.enter(|| {
            par::run_rows(&mut rows, 1, usize::MAX, |_, _| {
                let item = vec![0u8; 4096];
                kept.lock().expect("no panic").push(item);
            });
        });
        let items = live() - start;
        drop(kept);
        let after_items = live() - start;
        drop((v, rows));
        (one, grown, items, after_items, live() - start)
    })
    .try_into()
    .expect("one rank");
    // the 4 MiB vector, 64 floats of rows, the 64 items' handles
    let held = (4 << 20) + 64 * 4;
    assert_eq!(a, 1 << 20, "a 1 MiB vector");
    assert_eq!(b, 4 << 20, "grown to 4 MiB");
    assert_eq!(c, held + 64 * 24 + 64 * 4096, "64 pool items of 4 KiB");
    assert_eq!(d, held, "items freed");
    assert_eq!(e, 0, "everything freed");
    println!("ledger exactness: 1 MiB, grown to 4 MiB, 64 pool items of 4 KiB, all back to 0");
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sites = std::env::args().any(|a| a == "--sites");
    warm_pool();
    if quick {
        exactness();
        for (mode, ac) in [(Mode::Ulysses, false), (fpdt(4), false), (fpdt(4), true)] {
            let row = run("quick", 1024, 2, mode, ac);
            assert!(row.device.len() == 2 && row.device.iter().all(|&b| b > 0));
            assert_eq!(row.host > 0, matches!(mode, Mode::Fpdt { .. }), "{row:?}");
            println!(
                "{}: device {} MiB, host {} MiB, every tag back at its start",
                row.label,
                row.device_mib(),
                row.host_mib()
            );
        }
        println!("LEDGER_OK");
        return;
    }
    let mut rows = Vec::new();
    for seq in [4096, 8192] {
        for (mode, ac) in BY_MODE {
            let watch = sites && seq == 8192 && mode == fpdt(8) && !ac;
            SITES_ON.store(watch, Ordering::Relaxed);
            rows.push(run("mode", seq, 2, mode, ac));
            SITES_ON.store(false, Ordering::Relaxed);
            if watch {
                print_sites();
            }
        }
    }
    for layers in [1, 2, 4] {
        for (mode, ac) in [
            (Mode::Ulysses, false),
            (fpdt(8), false),
            (Mode::Ulysses, true),
            (fpdt(8), true),
        ] {
            rows.push(run("layers", 8192, layers, mode, ac));
        }
    }
    for ac in [false, true] {
        for u in CHUNK_COUNTS {
            rows.push(run("chunks", 8192, 2, fpdt(u), ac));
        }
    }
    print_by_mode(&rows);
    print_by_layers(&rows);
    print_by_chunks(&rows);
    write_json("ledger", &rows);
}

// ---------------------------------------------------------------------------
// `--sites`: live large allocations at rank 0's peak, by allocation site
// ---------------------------------------------------------------------------

/// [`TaggedAlloc`], plus, while [`SITES_ON`] is set, a map of rank 0's
/// live allocations of [`SITE_MIN`] bytes or more by address, snapshotted
/// at each new rank-0 peak.
struct Sites;

static SITES_ON: AtomicBool = AtomicBool::new(false);
static RANK0_PEAK: AtomicU64 = AtomicU64::new(0);
const SITE_MIN: usize = 4096;

/// Rank 0's large live allocations (address -> bytes, site) and the copy
/// taken at its last peak.
struct SiteMaps {
    live: BTreeMap<usize, (usize, String)>,
    at_peak: Vec<(usize, String)>,
}

static SITE_MAPS: Mutex<SiteMaps> = Mutex::new(SiteMaps {
    live: BTreeMap::new(),
    at_peak: Vec::new(),
});

thread_local! {
    /// Set while this thread records a site, so the recording's own
    /// allocations are not recorded.
    static INSIDE: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` unless this thread is already recording.
fn outside(f: impl FnOnce()) {
    if INSIDE.try_with(|i| i.replace(true)) == Ok(false) {
        f();
        INSIDE.with(|i| i.set(false));
    }
}

/// The first six `fpdt_*` frames of the current backtrace, innermost
/// first.
fn site() -> String {
    let bt = std::backtrace::Backtrace::force_capture().to_string();
    let frames: Vec<&str> = bt
        .lines()
        .map(str::trim)
        .filter_map(|l| l.split_once(": ").map(|(_, f)| f))
        .filter(|f| f.starts_with("fpdt_") && !f.starts_with("fpdt_tensor::ledger"))
        .take(6)
        .collect();
    frames.join(" <- ")
}

fn watching() -> bool {
    SITES_ON.load(Ordering::Relaxed) && ledger::tag() == ledger::rank_tag(0)
}

fn note_alloc(ptr: *mut u8, size: usize) {
    if ptr.is_null() || !watching() {
        return;
    }
    // the maps bill no device
    outside(|| {
        ledger::with_tag(ledger::UNTAGGED, || {
            let mut maps = SITE_MAPS.lock().unwrap_or_else(|e| e.into_inner());
            if size >= SITE_MIN {
                let at = site();
                maps.live.insert(ptr as usize, (size, at));
            }
            let peak = ledger::usage(ledger::rank_tag(0)).map_or(0, |u| u.peak);
            if peak > RANK0_PEAK.fetch_max(peak, Ordering::Relaxed) {
                maps.at_peak = maps.live.values().cloned().collect();
            }
        })
    });
}

fn note_free(ptr: *mut u8) {
    if !SITES_ON.load(Ordering::Relaxed) {
        return;
    }
    outside(|| {
        let mut maps = SITE_MAPS.lock().unwrap_or_else(|e| e.into_inner());
        // a freed node is credited to the tag that made it
        maps.live.remove(&(ptr as usize));
    });
}

// SAFETY: every call forwards to `TaggedAlloc` with the caller's
// arguments; the site maps never touch the memory.
unsafe impl GlobalAlloc for Sites {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { TaggedAlloc.alloc(layout) };
        note_alloc(p, layout.size());
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { TaggedAlloc.alloc_zeroed(layout) };
        note_alloc(p, layout.size());
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(ptr);
        unsafe { TaggedAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_free(ptr);
        let p = unsafe { TaggedAlloc.realloc(ptr, layout, new_size) };
        note_alloc(p, new_size);
        p
    }
}

fn print_sites() {
    let maps = SITE_MAPS.lock().unwrap_or_else(|e| e.into_inner());
    let mut by_site: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for (bytes, at) in &maps.at_peak {
        let e = by_site.entry(at).or_default();
        e.0 += bytes;
        e.1 += 1;
    }
    let mut sites: Vec<_> = by_site.into_iter().collect();
    sites.sort_by_key(|s| std::cmp::Reverse(s.1 .0));
    let peak = RANK0_PEAK.load(Ordering::Relaxed) as f64 / MIB;
    println!("## Live allocations of 4 KiB or more at rank 0's peak ({peak:.2} MiB), Fpdt{{8,off}}, seq 8192\n");
    println!("| MiB | count | site (innermost first) |");
    println!("|---|---|---|");
    for (at, (bytes, n)) in sites {
        println!("| {:.2} | {n} | {at} |", bytes as f64 / MIB);
    }
    println!();
}
