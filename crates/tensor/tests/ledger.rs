//! The device ledger's allocator, installed: exact bytes per tag, the
//! owner's tag kept through a reallocation and a free on another thread,
//! pool items billed to their submitter, and a pool worker's scratch
//! billed to no device.
//!
//! Each check bills a tag of its own, so the checks may run side by side.

use fpdt_tensor::ledger::{self, TaggedAlloc};
use fpdt_tensor::{par, KernelCtx};
use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::sync::Mutex;

#[global_allocator]
static ALLOC: TaggedAlloc = TaggedAlloc;

fn live(tag: u32) -> u64 {
    ledger::usage(tag).expect("TaggedAlloc is installed").live
}

#[expect(clippy::disallowed_methods, reason = "a free on another thread")]
fn free_elsewhere(v: Vec<u8>) {
    std::thread::scope(|s| {
        s.spawn(move || drop(v));
    });
}

#[test]
fn bytes_are_billed_exactly_to_the_tag_that_made_them() {
    let tag = 101;
    let v = ledger::with_tag(tag, || {
        let mut v: Vec<u8> = Vec::with_capacity(1000);
        assert_eq!(live(tag), 1000);
        v.reserve_exact(5000); // a realloc keeps the allocation's tag
        assert_eq!(live(tag), 5000);
        v
    });
    // grown and freed elsewhere: still the owner's bytes
    let mut v = v;
    v.reserve_exact(9000);
    assert_eq!(live(tag), 9000);
    free_elsewhere(v);
    assert_eq!(live(tag), 0);
    let peak = ledger::usage(tag).expect("installed").peak;
    assert_eq!(peak, 9000);
    ledger::reset_peak(tag);
    assert_eq!(ledger::usage(tag).expect("installed").peak, 0);
}

#[test]
fn over_aligned_and_zeroed_blocks_keep_their_alignment() {
    let tag = 102;
    ledger::with_tag(tag, || {
        for align in [1usize, 16, 64, 4096] {
            let layout = Layout::from_size_align(3 * align + 5, align).expect("valid");
            // SAFETY: a non-zero size; freed with the same layout below.
            unsafe {
                // opaque, so the compiler cannot elide the allocation
                let p = std::hint::black_box(alloc_zeroed(layout));
                assert!(!p.is_null() && (p as usize).is_multiple_of(align));
                assert!((0..layout.size()).all(|i| *p.add(i) == 0));
                assert_eq!(live(tag), layout.size() as u64);
                dealloc(p, layout);
            }
            assert_eq!(live(tag), 0);
        }
    });
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the submitter's thread must end to free its own scratch"
)]
fn pool_items_bill_the_submitter_and_worker_scratch_bills_no_one() {
    let tag = 103;
    let ctx = KernelCtx {
        threads: 4,
        par_threshold: 1,
        ..KernelCtx::current()
    };
    // start the workers before counting: a worker is not a device's
    ctx.enter(|| par::run_rows(&mut [0.0f32; 64], 1, usize::MAX, |_, _| {}));
    let kept = Mutex::new(Vec::with_capacity(64));
    let submitter = std::thread::scope(|s| {
        let submitter = s.spawn(|| {
            ledger::with_tag(tag, || {
                ctx.enter(|| {
                    par::run_rows(&mut [0.0f32; 64], 1, usize::MAX, |_, _| {
                        let item = vec![0u8; 1000];
                        par::with_scratch(5000, |s| s[0] = 1.0);
                        // long enough for the workers to claim items too
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        let here = std::thread::current().id();
                        kept.lock().expect("no panic").push((here, item));
                    });
                });
            });
            std::thread::current().id()
        });
        submitter.join().expect("no panic")
    });
    let on_workers = kept
        .lock()
        .expect("no panic")
        .iter()
        .filter(|(t, _)| *t != submitter)
        .count();
    assert!(on_workers > 0, "no item left the submitter");
    // the items, wherever they ran; the submitter's scratch went with its
    // thread, and the workers' is billed to no device
    assert_eq!(live(tag), 64 * 1000);
    drop(kept);
    assert_eq!(live(tag), 0);
}
