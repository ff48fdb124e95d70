//! The device ledger in the runtime: what an offload put and fetch bill,
//! and the high-water marks a `TrainReport` carries.
//!
//! This binary installs `fpdt_tensor::ledger::TaggedAlloc`. The host tag
//! and the rank tags are process-wide, so everything runs in the one test
//! below, sequentially.

use fpdt_core::offload::{BufKind, ChunkKey, OffloadEngine};
use fpdt_core::runtime::{Mode, TrainConfig, Trainer};
use fpdt_model::config::ModelConfig;
use fpdt_tensor::ledger::{self, TaggedAlloc};
use fpdt_tensor::Tensor;
use std::sync::Arc;

#[global_allocator]
static ALLOC: TaggedAlloc = TaggedAlloc;

fn live(tag: u32) -> u64 {
    ledger::usage(tag).expect("TaggedAlloc is installed").live
}

/// The bytes a tensor of `n` floats adds beyond its data: its `Arc`, its
/// struct and its shape, a few dozen bytes.
const OVERHEAD: u64 = 256;

/// With offload on, a put copies the chunk into host memory billed to the
/// host tag and hands the caller its own buffer back; a fetch copies it
/// into a buffer billed to the caller, and a consuming fetch frees the
/// host copy. With offload off nothing is copied or billed to the host.
fn puts_and_fetches_bill_their_side() {
    let me = ledger::rank_tag(5);
    ledger::with_tag(me, || {
        let n = 4096u64;
        let t = Arc::new(Tensor::arange(n as usize));
        let key = ChunkKey::new(0, BufKind::Q, 0);

        let mut pool = OffloadEngine::new(false);
        let (host0, mine0) = (live(ledger::HOST), live(me));
        let stored = pool.put(key, Arc::clone(&t));
        assert!(
            Arc::ptr_eq(&stored, &t),
            "a put hands the caller its own buffer"
        );
        let put = live(ledger::HOST) - host0;
        assert!(
            (4 * n..4 * n + OVERHEAD).contains(&put),
            "the host copy of {} B billed {put} B to the host",
            4 * n
        );
        assert!(
            live(me) - mine0 < 4 * n,
            "the copy is not billed to the caller"
        );

        let mine1 = live(me);
        let back = pool.prefetch(&key, true).expect("resident").wait();
        assert_eq!(*back, *t);
        assert_eq!(
            live(ledger::HOST),
            host0,
            "a consuming fetch frees the host copy"
        );
        let fetched = live(me) - mine1;
        assert!(
            (4 * n..4 * n + OVERHEAD).contains(&fetched),
            "the fetched copy of {} B billed {fetched} B to the caller",
            4 * n
        );
        drop(back);

        // bf16 K/V: half the bytes on the host
        pool.set_payload_bf16(true);
        let key = ChunkKey::new(0, BufKind::K, 0);
        pool.put(key, Arc::clone(&t));
        let put = live(ledger::HOST) - host0;
        assert!((2 * n..2 * n + OVERHEAD).contains(&put), "bf16: {put} B");
        assert!(pool.discard(&key));
        assert_eq!(live(ledger::HOST), host0);

        let mut device = OffloadEngine::for_rank(0, 0.0, false);
        device.put(key, Arc::clone(&t));
        let back = device.prefetch(&key, true).expect("resident").wait();
        assert!(Arc::ptr_eq(&back, &t), "offload off: the buffer itself");
        assert_eq!(live(ledger::HOST), host0, "offload off bills no host bytes");
    });
}

/// A two-step run of `mode`: its report's marks, after checking that the
/// Trainer's drop leaves every rank tag and the host as it found them.
fn marks(mode: Mode) -> (Vec<u64>, u64) {
    let cfg = TrainConfig {
        model: ModelConfig::tiny(2, 32, 2, 50),
        world: 2,
        seq: 256,
        steps: 2,
        ..TrainConfig::small(mode)
    };
    let tags = [ledger::rank_tag(0), ledger::rank_tag(1), ledger::HOST];
    let before = tags.map(live);
    let mut trainer = Trainer::new(cfg);
    trainer.run_steps(2).expect("training runs");
    let report = trainer.report();
    let marks = (report.device_peak_bytes.clone(), report.host_peak_bytes);
    drop((report, trainer));
    assert_eq!(
        tags.map(live),
        before,
        "{mode:?}: rank and host bytes left behind"
    );
    let (device, host) = marks;
    (
        device.expect("TaggedAlloc is installed"),
        host.expect("TaggedAlloc is installed"),
    )
}

#[test]
fn the_ledger_bills_ranks_host_copies_and_reports_high_water() {
    puts_and_fetches_bill_their_side();

    let (ulysses, host) = marks(Mode::Ulysses);
    assert!(
        ulysses.len() == 2 && ulysses.iter().all(|&b| b > 0),
        "{ulysses:?}"
    );
    assert_eq!(host, 0, "Ulysses keeps nothing in the host pool");

    let (fpdt, host) = marks(Mode::Fpdt {
        chunks: 4,
        offload: true,
    });
    assert!(fpdt.len() == 2 && fpdt.iter().all(|&b| b > 0), "{fpdt:?}");
    assert!(host > 0, "offload bills the host pool");
    for (f, u) in fpdt.iter().zip(&ulysses) {
        assert!(
            f < u,
            "offloaded FPDT peaks under Ulysses: {fpdt:?} vs {ulysses:?}"
        );
    }
}
