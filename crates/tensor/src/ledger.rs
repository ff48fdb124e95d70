//! The device ledger: whose memory every live allocation is.
//!
//! Each thread carries a `u32` *tag*, and every allocation is billed to
//! the tag of the thread that made it, for its whole life: it is credited
//! back to the same tag when it is freed, on whatever thread. Tag
//! [`UNTAGGED`] is everything outside a device, [`rank_tag`]`(r)` is
//! simulated GPU `r`, and [`HOST`] is the host pool that offloaded chunks
//! live in. The tag travels with the work at three points:
//! `fpdt_comm`'s rank threads start under their rank's tag, every kernel
//! pool item runs under its submitter's tag ([`crate::par`]), and the
//! offload engine makes its host copies under [`HOST`].
//!
//! The bytes are counted by [`TaggedAlloc`], a global allocator that
//! writes a 16-byte `(tag, size)` header in front of every allocation
//! and keeps live and peak bytes per tag. A library cannot install a
//! global allocator, so a binary opts in:
//!
//! ```
//! use fpdt_tensor::ledger::{self, TaggedAlloc};
//!
//! #[global_allocator]
//! static ALLOC: TaggedAlloc = TaggedAlloc;
//!
//! let tag = ledger::rank_tag(7);
//! let before = ledger::usage(tag).expect("TaggedAlloc is installed");
//! let v = ledger::with_tag(tag, || vec![0u8; 1000]);
//! assert_eq!(ledger::usage(tag).unwrap().live, before.live + 1000);
//! drop(v);
//! assert_eq!(ledger::usage(tag).unwrap().live, before.live);
//! ```
//!
//! Without it [`usage`] reads `None`. The counters are process-wide per
//! tag, so two rank groups running side by side bill the same rank tags.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Memory that belongs to no device: the caller's own, and every tag
/// past the last slot.
pub const UNTAGGED: u32 = 0;

/// The host pool: pinned CPU memory that offloaded chunks live in.
pub const HOST: u32 = SLOTS as u32 - 1;

/// Counter slots: the untagged one, the ranks, the host pool.
const SLOTS: usize = 256;

/// Bytes in front of every allocation: the tag and the requested size.
const HEADER: usize = 16;

/// The tag of simulated GPU `rank`: `rank + 1`, or [`UNTAGGED`] for a
/// rank past the ledger's slots.
pub fn rank_tag(rank: usize) -> u32 {
    match rank + 1 {
        t if t < HOST as usize => t as u32,
        _ => UNTAGGED,
    }
}

thread_local! {
    static TAG: Cell<u32> = const { Cell::new(UNTAGGED) };
    /// Set while a thread runs a pool item for another thread's tag.
    static LENT: Cell<bool> = const { Cell::new(false) };
}

/// The calling thread's tag.
pub fn tag() -> u32 {
    TAG.try_with(Cell::get).unwrap_or(UNTAGGED)
}

/// Runs `f` with this thread's allocations billed to `t`, then restores
/// the previous tag (also when `f` panics).
pub fn with_tag<R>(t: u32, f: impl FnOnce() -> R) -> R {
    let _restore = Restore(TAG.replace(t), LENT.get());
    f()
}

/// Runs a pool item of a fan-out submitted under `t`. On another thread
/// than the submitter's (a tag other than `t`) it runs under `t` and is
/// marked [`lent`] until it returns.
pub fn lend<R>(t: u32, f: impl FnOnce() -> R) -> R {
    if TAG.get() == t {
        return f();
    }
    let _restore = Restore(TAG.replace(t), LENT.replace(true));
    f()
}

/// Whether this thread is running a pool item for another thread's tag.
/// Per-thread state it builds there outlives the item, so it belongs to
/// no device.
pub fn lent() -> bool {
    LENT.get()
}

struct Restore(u32, bool);

impl Drop for Restore {
    fn drop(&mut self) {
        TAG.set(self.0);
        LENT.set(self.1);
    }
}

/// One tag's bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// Bytes allocated under the tag and not yet freed.
    pub live: u64,
    /// High-water mark of `live` since the last [`reset_peak`].
    pub peak: u64,
}

#[repr(align(64))]
struct Slot {
    live: AtomicU64,
    peak: AtomicU64,
}

static COUNTERS: [Slot; SLOTS] = [const {
    Slot {
        live: AtomicU64::new(0),
        peak: AtomicU64::new(0),
    }
}; SLOTS];

static INSTALLED: AtomicBool = AtomicBool::new(false);

fn counters(tag: u32) -> &'static Slot {
    match tag as usize {
        t if t < SLOTS => &COUNTERS[t],
        _ => &COUNTERS[UNTAGGED as usize],
    }
}

fn bill(tag: u32, bytes: u64) {
    let c = counters(tag);
    let now = c.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
    c.peak.fetch_max(now, Ordering::Relaxed);
}

fn credit(tag: u32, bytes: u64) {
    counters(tag).live.fetch_sub(bytes, Ordering::Relaxed);
}

/// `tag`'s live and peak bytes; `None` unless the binary installed
/// [`TaggedAlloc`].
pub fn usage(tag: u32) -> Option<Usage> {
    INSTALLED.load(Ordering::Relaxed).then(|| {
        let c = counters(tag);
        Usage {
            live: c.live.load(Ordering::Relaxed),
            peak: c.peak.load(Ordering::Relaxed),
        }
    })
}

/// Restarts `tag`'s high-water mark at its live bytes.
pub fn reset_peak(tag: u32) {
    let c = counters(tag);
    c.peak
        .store(c.live.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The system allocator with a `(tag, size)` header in front of every
/// allocation, billing the calling thread's [`tag`]. A reallocation
/// stays billed to the tag that made the allocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaggedAlloc;

/// The system layout that holds `layout` behind its header, and the
/// offset of the caller's bytes in it.
fn outer(layout: Layout, size: usize) -> Option<(Layout, usize)> {
    let off = layout.align().max(HEADER);
    let outer = Layout::from_size_align(size.checked_add(off)?, off).ok()?;
    Some((outer, off))
}

// SAFETY: every block comes from `System` with a layout of the caller's
// alignment (at least 16) and `off >= 16` spare bytes in front; the caller
// gets `base + off`, aligned as asked, and the header lives in the 16
// bytes before it. Freeing and reallocating recompute the same `off` from
// the caller's layout, so they hand `System` back its own block and layout.
unsafe impl GlobalAlloc for TaggedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        unsafe { self.tagged(layout, |l| System.alloc(l)) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        unsafe { self.tagged(layout, |l| System.alloc_zeroed(l)) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let (outer, off) = outer(layout, layout.size()).expect("the layout was allocated");
        unsafe {
            let [tag, size] = ptr.sub(HEADER).cast::<[u64; 2]>().read();
            credit(tag as u32, size);
            System.dealloc(ptr.sub(off), outer);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let Some((grown, off)) = outer(layout, new_size) else {
            return std::ptr::null_mut();
        };
        let (old, _) = outer(layout, layout.size()).expect("the layout was allocated");
        unsafe {
            let [tag, size] = ptr.sub(HEADER).cast::<[u64; 2]>().read();
            let base = System.realloc(ptr.sub(off), old, grown.size());
            if base.is_null() {
                return base;
            }
            let ptr = base.add(off);
            ptr.sub(HEADER)
                .cast::<[u64; 2]>()
                .write([tag, new_size as u64]);
            match (new_size as u64).checked_sub(size) {
                Some(more) => bill(tag as u32, more),
                None => credit(tag as u32, size - new_size as u64),
            }
            ptr
        }
    }
}

impl TaggedAlloc {
    /// Allocates `layout` behind a header through `sys`, billing this
    /// thread's tag.
    unsafe fn tagged(&self, layout: Layout, sys: impl FnOnce(Layout) -> *mut u8) -> *mut u8 {
        if !INSTALLED.load(Ordering::Relaxed) {
            INSTALLED.store(true, Ordering::Relaxed);
        }
        let Some((outer, off)) = outer(layout, layout.size()) else {
            return std::ptr::null_mut();
        };
        let base = sys(outer);
        if base.is_null() {
            return base;
        }
        let t = tag();
        // SAFETY: `base` holds `off >= 16` bytes before the caller's.
        unsafe {
            let ptr = base.add(off);
            ptr.sub(HEADER)
                .cast::<[u64; 2]>()
                .write([u64::from(t), layout.size() as u64]);
            bill(t, layout.size() as u64);
            ptr
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_tags_sit_between_untagged_and_the_host() {
        assert_eq!(rank_tag(0), 1);
        assert_eq!(rank_tag(7), 8);
        assert_eq!(rank_tag(HOST as usize - 2), HOST - 1);
        assert_eq!(rank_tag(HOST as usize - 1), UNTAGGED, "past the slots");
    }

    #[test]
    fn tags_nest_and_restore_on_unwind() {
        assert_eq!(tag(), UNTAGGED);
        with_tag(3, || {
            assert_eq!(tag(), 3);
            with_tag(HOST, || assert_eq!(tag(), HOST));
            assert_eq!(tag(), 3);
            // the submitter itself is not lent
            lend(3, || assert!(!lent()));
            lend(4, || assert!(lent() && tag() == 4));
            assert!(!lent());
        });
        let unwound = std::panic::catch_unwind(|| lend(5, || panic!("inside")));
        assert!(unwound.is_err());
        assert_eq!((tag(), lent()), (UNTAGGED, false));
    }

    #[test]
    fn an_unknown_tag_bills_the_untagged_slot() {
        assert!(std::ptr::eq(counters(u32::MAX), counters(UNTAGGED)));
        assert!(std::ptr::eq(counters(HOST), &COUNTERS[SLOTS - 1]));
    }
}
